import dataclasses

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from tspo import kkt
from tspo.barrier import BarrierSolution, solve_barrier
from tspo.errors import NotInterior, SingularSystem
from tspo.milp import StandardFormMilp
from tspo.testutil import RandomLpSpec, fd_mixed_error, gen_feasible_lp, finite_diff_jacobian

MU = 1e-3


def tight_solve(lp, mu=MU, warm=None):
    return solve_barrier(lp, mu, tol=1e-12, warm=warm)


def resolve_x(lp, warm):
    return solve_barrier(lp, MU, tol=1e-12, warm=warm).x


def jacobian(sol, block):
    """dx/d(block) as a d x (block size) matrix: row i is the vjp of e_i.
    Matrix blocks are flattened row-major, so column l*d + r of the G block
    is dx/dG[l, r]."""
    return np.array([kkt.vjp(sol, e, blocks=(block,))[block].ravel() for e in np.eye(sol.lp.d)])


class TestHessian:
    def test_hand_value(self):
        lp = StandardFormMilp([0.0], np.zeros((0, 1)), [], [[1.0]], [0.5])
        sol = BarrierSolution(
            x=np.array([1.0]), s=np.array([0.5]), y=np.zeros(0), mu=1.0, iterations=0, converged=True, lp=lp
        )
        H = kkt._Factors(sol).H
        assert H[0, 0] == pytest.approx(1.0 + 1.0 / 0.25)

    def test_no_inequalities_diagonal(self):
        lp = StandardFormMilp([1.0, 1.0], [[1.0, 1.0]], [2.0], np.zeros((0, 2)), [])
        sol = tight_solve(lp)
        H = kkt._Factors(sol).H
        assert np.allclose(H, np.diag(sol.mu / sol.x**2))

    def test_matches_fd_of_gradient(self):
        # evaluated at the interior witness, where slacks are healthy and the
        # finite-difference truncation error is far below the tolerance
        lp, x0 = gen_feasible_lp(RandomLpSpec(d=3, p=1, q=3), 4)
        sol = BarrierSolution(x=x0, s=lp.G @ x0 - lp.h, y=np.zeros(1), mu=0.1, iterations=0, converged=True, lp=lp)

        def grad(x):
            s = lp.G @ x - lp.h
            return lp.c - sol.mu / x - sol.mu * (lp.G.T @ (1.0 / s))

        J = finite_diff_jacobian(grad, sol.x)
        H = kkt._Factors(sol).H
        assert np.max(np.abs(J - H)) / np.max(np.abs(J)) < 1e-5

    def test_symmetric_positive_definite(self):
        for seed in range(10):
            lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=1, q=5), seed)
            mu = float(10.0 ** -np.random.default_rng(seed).integers(1, 8))
            sol = tight_solve(lp, mu=mu)
            H = kkt._Factors(sol).H
            assert np.allclose(H, H.T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(H)) > 0

    def test_not_interior_raises(self):
        lp = StandardFormMilp([1.0], np.zeros((0, 1)), [], [[1.0]], [0.5])
        bad = BarrierSolution(
            x=np.array([0.2]), s=np.array([-0.3]), y=np.zeros(0), mu=1.0, iterations=0, converged=True, lp=lp
        )
        with pytest.raises(NotInterior):
            kkt.vjp(bad, np.ones(1))


class TestScalarAnalytic:
    def test_dx_dc_equality_free(self):
        # min cx - mu ln x has x = mu/c and dx/dc = -mu/c^2
        lp = StandardFormMilp([2.0], np.zeros((0, 1)), [], np.zeros((0, 1)), [])
        sol = tight_solve(lp)
        assert jacobian(sol, "c")[0, 0] == pytest.approx(-MU / 4.0, rel=1e-6)

    def test_dx_db_forced_identity(self):
        lp = StandardFormMilp([1.0], [[1.0]], [2.0], np.zeros((0, 1)), [])
        sol = tight_solve(lp)
        assert jacobian(sol, "b")[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_dx_dA_analytic_limit(self):
        # x = b/A so dx/dA = -b/A^2; barrier bias vanishes at small mu
        lp = StandardFormMilp([1.0], [[2.0]], [3.0], np.zeros((0, 1)), [])
        sol = tight_solve(lp, mu=1e-6)
        assert jacobian(sol, "A")[0, 0] == pytest.approx(-3.0 / 4.0, rel=1e-3)

    def test_dx_dh_scalar_vs_root_derivative(self):
        lp = StandardFormMilp([1.0], np.zeros((0, 1)), [], [[1.0]], [0.7])
        sol = tight_solve(lp)
        formula = jacobian(sol, "h")[0, 0]
        fd = finite_diff_jacobian(lambda h: resolve_x(dataclasses.replace(lp, h=h), sol), lp.h)
        assert formula == pytest.approx(fd[0, 0], rel=1e-4)

    def test_db_row_sums_one_on_budget_constraint(self):
        # sum(x) = b: differentiating the constraint forces row sums of dx/db to 1
        lp = StandardFormMilp([1.0, 2.0], [[1.0, 1.0]], [2.0], np.zeros((0, 2)), [])
        sol = tight_solve(lp)
        db = jacobian(sol, "b")
        assert db.sum() == pytest.approx(1.0, abs=1e-8)
        fd = finite_diff_jacobian(lambda b: resolve_x(dataclasses.replace(lp, b=b), sol), lp.b)
        assert np.max(np.abs(fd - db)) < 1e-6

    def test_dx_dc_degenerate_constant_objective(self):
        # cost parallel to the equality row: objective constant on the feasible set
        lp = StandardFormMilp([1.0, 1.0], [[1.0, 1.0]], [2.0], np.zeros((0, 2)), [])
        sol = tight_solve(lp)
        dc = jacobian(sol, "c")
        # moving c along the row space cannot move x
        assert np.max(np.abs(dc @ np.array([1.0, 1.0]))) < 1e-9


class TestFdAgreement:
    @pytest.mark.parametrize("block", ["c", "b", "h", "G", "A"])
    def test_block_matches_finite_differences(self, block):
        # Jacobians assembled from vjp rows against re-solves: the finite
        # differences share no code with kkt.
        worst = 0.0
        for seed in range(8):
            lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=2, q=4), seed)
            sol = tight_solve(lp)
            analytic = jacobian(sol, block)
            data = getattr(lp, block)
            J = finite_diff_jacobian(
                lambda v: resolve_x(dataclasses.replace(lp, **{block: v.reshape(data.shape)}), sol), data.ravel()
            )
            worst = max(worst, fd_mixed_error(J, analytic))
        assert worst <= 1e-3

    def test_p0_reduction_bitwise(self):
        # With no equality rows the projector is -H^{-1}: the c block is that
        # solve exactly, and the h and G blocks agree with -H^{-1} applied to
        # the mixed derivatives f_hx and f_Gx written out in full.
        lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=0, q=5), 3)
        sol = tight_solve(lp)
        mu, x = sol.mu, sol.x
        s = lp.G @ x - lp.h
        Gw = lp.G / s[:, None]
        H = np.diag(mu / x**2) + mu * (Gw.T @ Gw)
        Hc = cho_factor(H, lower=True, check_finite=False)
        u = np.random.default_rng(3).normal(size=lp.d)
        got = kkt.vjp(sol, u, blocks=("c", "h", "G"))
        assert np.array_equal(got["c"], -cho_solve(Hc, u, check_finite=False))
        f_hx = -mu * (lp.G / s[:, None] ** 2).T
        assert np.allclose(got["h"], u @ -cho_solve(Hc, f_hx), rtol=1e-12, atol=0)
        for ell in range(lp.q):
            f_Gx = mu / s[ell] ** 2 * np.outer(lp.G[ell], x) - mu / s[ell] * np.eye(lp.d)
            assert np.allclose(got["G"][ell], u @ -cho_solve(Hc, f_Gx), rtol=1e-12, atol=1e-15)

    def test_symmetric_rows_give_symmetric_G_sensitivities(self):
        lp = StandardFormMilp([1.0, 1.0], np.zeros((0, 2)), [], [[1.0, 2.0], [2.0, 1.0]], [-1.0, -1.0])
        sol = tight_solve(lp)
        dG = jacobian(sol, "G")
        d = lp.d
        # swapping variables and rows is a symmetry of this instance
        assert dG[0, 0 * d + 0] == pytest.approx(dG[1, 1 * d + 1], rel=1e-6)
        assert dG[0, 0 * d + 1] == pytest.approx(dG[1, 1 * d + 0], rel=1e-6)


class TestVjp:
    def test_matches_full_jacobians(self):
        # One call with every block and a random upstream vector against the
        # Jacobians assembled one block and one unit vector at a time: the
        # products are linear in u and independent of which blocks are asked.
        lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=2, q=4), 21)
        sol = tight_solve(lp)
        u = np.random.default_rng(5).normal(size=lp.d)
        v = kkt.vjp(sol, u, blocks=("c", "b", "h", "G", "A"))
        for block in ("c", "b", "h", "G", "A"):
            assert v[block].shape == getattr(lp, block).shape
            assert np.allclose(v[block].ravel(), u @ jacobian(sol, block), atol=1e-11)

    def test_b_block_requires_equalities(self):
        lp, _ = gen_feasible_lp(RandomLpSpec(d=3, p=0, q=3), 0)
        sol = tight_solve(lp)
        with pytest.raises(SingularSystem):
            kkt.vjp(sol, np.ones(3), blocks=("b",))


class TestErrorPaths:
    @pytest.mark.parametrize("p", [0, 2])
    def test_zero_mu_hessian_is_singular(self, p):
        # mu = 0 makes H = 0, which has no Cholesky factor
        lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=p, q=4), 21)
        sol = tight_solve(lp)
        with pytest.raises(SingularSystem, match="not positive definite"):
            kkt.vjp(dataclasses.replace(sol, mu=0.0), np.ones(lp.d))

    @pytest.mark.parametrize("p", [0, 2])
    def test_non_finite_data_raise_value_error(self, p):
        lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=p, q=4), 21)
        sol = tight_solve(lp)
        blocks = ("c", "h", "G") + (("b", "A") if p else ())
        for bad_mu in (np.inf, np.nan):
            with pytest.raises(ValueError, match="infs or NaNs"):
                kkt.vjp(dataclasses.replace(sol, mu=bad_mu), np.ones(lp.d), blocks=blocks)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="infs or NaNs"):
                kkt.vjp(sol, np.array([1.0, bad, 0.0, 0.0]), blocks=blocks)
