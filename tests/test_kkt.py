import dataclasses

import numpy as np
import pytest

from tspo import kkt
from tspo.barrier import BarrierSolution, RelaxedLp, solve_barrier
from tspo.errors import NotInterior, SingularSystem
from tspo.testutil import FD_STEP, RandomLpSpec, fd_mixed_error, gen_feasible_lp, finite_diff_jacobian

MU = 1e-3


def tight_solve(lp, mu=MU, warm=None):
    return solve_barrier(lp, mu, tol=1e-12, warm=warm)


def resolve_x(lp, warm):
    return solve_barrier(lp, MU, tol=1e-12, warm=warm).x


class TestHessian:
    def test_hand_value(self):
        lp = RelaxedLp([0.0], np.zeros((0, 1)), [], [[1.0]], [0.5])
        sol = BarrierSolution(x=np.array([1.0]), s=np.array([0.5]), y=np.zeros(0), mu=1.0, iterations=0, converged=True)
        H = kkt.hessian_fxx(lp, sol).H
        assert H[0, 0] == pytest.approx(1.0 + 1.0 / 0.25)

    def test_no_inequalities_diagonal(self):
        lp = RelaxedLp([1.0, 1.0], [[1.0, 1.0]], [2.0], np.zeros((0, 2)), [])
        sol = tight_solve(lp)
        H = kkt.hessian_fxx(lp, sol).H
        assert np.allclose(H, np.diag(sol.mu / sol.x**2))

    def test_matches_fd_of_gradient(self):
        # evaluated at the interior witness, where slacks are healthy and the
        # finite-difference truncation error is far below the tolerance
        lp, x0 = gen_feasible_lp(RandomLpSpec(d=3, p=1, q=3), 4)
        sol = BarrierSolution(x=x0, s=lp.G @ x0 - lp.h, y=np.zeros(1), mu=0.1, iterations=0, converged=True)

        def grad(x):
            s = lp.G @ x - lp.h
            return lp.c - sol.mu / x - sol.mu * (lp.G.T @ (1.0 / s))

        J = finite_diff_jacobian(grad, sol.x)
        H = kkt.hessian_fxx(lp, sol).H
        assert np.max(np.abs(J - H)) / np.max(np.abs(J)) < 1e-5

    def test_symmetric_positive_definite(self):
        for seed in range(10):
            lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=1, q=5), seed)
            mu = float(10.0 ** -np.random.default_rng(seed).integers(1, 8))
            sol = tight_solve(lp, mu=mu)
            H = kkt.hessian_fxx(lp, sol).H
            assert np.allclose(H, H.T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(H)) > 0

    def test_not_interior_raises(self):
        lp = RelaxedLp([1.0], np.zeros((0, 1)), [], [[1.0]], [0.5])
        bad = BarrierSolution(x=np.array([0.2]), s=np.array([-0.3]), y=np.zeros(0), mu=1.0, iterations=0, converged=True)
        with pytest.raises(NotInterior):
            kkt.hessian_fxx(lp, bad)


class TestScalarAnalytic:
    def test_dx_dc_equality_free(self):
        # min cx - mu ln x has x = mu/c and dx/dc = -mu/c^2
        lp = RelaxedLp([2.0], np.zeros((0, 1)), [], np.zeros((0, 1)), [])
        sol = tight_solve(lp)
        assert kkt.grad_wrt_c(lp, sol)[0, 0] == pytest.approx(-MU / 4.0, rel=1e-6)

    def test_dx_db_forced_identity(self):
        lp = RelaxedLp([1.0], [[1.0]], [2.0], np.zeros((0, 1)), [])
        sol = tight_solve(lp)
        assert kkt.grad_wrt_b(lp, sol)[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_dx_dA_analytic_limit(self):
        # x = b/A so dx/dA = -b/A^2; barrier bias vanishes at small mu
        lp = RelaxedLp([1.0], [[2.0]], [3.0], np.zeros((0, 1)), [])
        sol = tight_solve(lp, mu=1e-6)
        assert kkt.grad_wrt_A(lp, sol)[0, 0] == pytest.approx(-3.0 / 4.0, rel=1e-3)

    def test_dx_dh_scalar_vs_root_derivative(self):
        lp = RelaxedLp([1.0], np.zeros((0, 1)), [], [[1.0]], [0.7])
        sol = tight_solve(lp)
        formula = kkt.grad_wrt_h(lp, sol)[0, 0]
        fd = finite_diff_jacobian(lambda h: resolve_x(RelaxedLp([1.0], np.zeros((0, 1)), [], [[1.0]], h), sol), lp.h)
        assert formula == pytest.approx(fd[0, 0], rel=1e-4)

    def test_db_row_sums_one_on_budget_constraint(self):
        # sum(x) = b: differentiating the constraint forces row sums of dx/db to 1
        lp = RelaxedLp([1.0, 2.0], [[1.0, 1.0]], [2.0], np.zeros((0, 2)), [])
        sol = tight_solve(lp)
        db = kkt.grad_wrt_b(lp, sol)
        assert db.sum() == pytest.approx(1.0, abs=1e-8)
        fd = finite_diff_jacobian(lambda b: resolve_x(RelaxedLp(lp.c, lp.A, b, lp.G, lp.h), sol), lp.b)
        assert np.max(np.abs(fd - db)) < 1e-6

    def test_dx_dc_degenerate_constant_objective(self):
        # cost parallel to the equality row: objective constant on the feasible set
        lp = RelaxedLp([1.0, 1.0], [[1.0, 1.0]], [2.0], np.zeros((0, 2)), [])
        sol = tight_solve(lp)
        dc = kkt.grad_wrt_c(lp, sol)
        # moving c along the row space cannot move x
        assert np.max(np.abs(dc @ np.array([1.0, 1.0]))) < 1e-9


class TestFdAgreement:
    @pytest.mark.parametrize("block", ["c", "b", "h", "G", "A"])
    def test_block_matches_finite_differences(self, block):
        worst = 0.0
        for seed in range(8):
            lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=2, q=4), seed)
            sol = tight_solve(lp)
            grads = kkt.block_gradients(lp, sol, blocks=(block,))
            analytic = getattr(grads, f"dx_d{block}")
            if block == "c":
                J = finite_diff_jacobian(lambda v: resolve_x(RelaxedLp(v, lp.A, lp.b, lp.G, lp.h), sol), lp.c)
            elif block == "b":
                J = finite_diff_jacobian(lambda v: resolve_x(RelaxedLp(lp.c, lp.A, v, lp.G, lp.h), sol), lp.b)
            elif block == "h":
                J = finite_diff_jacobian(lambda v: resolve_x(RelaxedLp(lp.c, lp.A, lp.b, lp.G, v), sol), lp.h)
            elif block == "G":
                J = finite_diff_jacobian(
                    lambda v: resolve_x(RelaxedLp(lp.c, lp.A, lp.b, v.reshape(lp.q, lp.d), lp.h), sol), lp.G.ravel()
                )
            else:
                J = finite_diff_jacobian(
                    lambda v: resolve_x(RelaxedLp(lp.c, v.reshape(lp.p, lp.d), lp.b, lp.G, lp.h), sol), lp.A.ravel()
                )
            worst = max(worst, fd_mixed_error(J, analytic))
        assert worst <= 1e-3

    def test_p0_reduction_bitwise(self):
        lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=0, q=5), 3)
        sol = tight_solve(lp)
        f = kkt._Factors(lp, sol)
        from scipy.linalg import cho_solve

        dh_general = kkt.grad_wrt_h(lp, sol)
        dh_reduced = -cho_solve(f.Hc, f.f_hx())
        assert np.array_equal(dh_general, dh_reduced)
        dG_general = kkt.grad_wrt_G(lp, sol)
        dG_reduced = np.hstack([-cho_solve(f.Hc, f.f_Gx_row(ell)) for ell in range(lp.q)])
        assert np.array_equal(dG_general, dG_reduced)

    def test_symmetric_rows_give_symmetric_G_sensitivities(self):
        lp = RelaxedLp([1.0, 1.0], np.zeros((0, 2)), [], [[1.0, 2.0], [2.0, 1.0]], [-1.0, -1.0])
        sol = tight_solve(lp)
        dG = kkt.grad_wrt_G(lp, sol)
        d = lp.d
        # swapping variables and rows is a symmetry of this instance
        assert dG[0, 0 * d + 0] == pytest.approx(dG[1, 1 * d + 1], rel=1e-6)
        assert dG[0, 0 * d + 1] == pytest.approx(dG[1, 1 * d + 0], rel=1e-6)


class TestVjp:
    def test_matches_full_jacobians(self):
        lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=2, q=4), 21)
        sol = tight_solve(lp)
        g = kkt.block_gradients(lp, sol)
        u = np.random.default_rng(5).normal(size=lp.d)
        v = kkt.vjp(lp, sol, u, blocks=("c", "b", "h", "G", "A"))
        assert np.allclose(v["c"], u @ g.dx_dc, atol=1e-11)
        assert np.allclose(v["b"], u @ g.dx_db, atol=1e-11)
        assert np.allclose(v["h"], u @ g.dx_dh, atol=1e-11)
        assert np.allclose(v["G"].ravel(), u @ g.dx_dG, atol=1e-11)
        assert np.allclose(v["A"].ravel(), u @ g.dx_dA, atol=1e-11)

    def test_b_block_requires_equalities(self):
        lp, _ = gen_feasible_lp(RandomLpSpec(d=3, p=0, q=3), 0)
        sol = tight_solve(lp)
        with pytest.raises(SingularSystem):
            kkt.vjp(lp, sol, np.ones(3), blocks=("b",))


class TestErrorPaths:
    @pytest.mark.parametrize("p", [0, 2])
    def test_zero_mu_hessian_is_singular(self, p):
        # mu = 0 makes H = 0, which has no Cholesky factor
        lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=p, q=4), 21)
        sol = tight_solve(lp)
        with pytest.raises(SingularSystem, match="not positive definite"):
            kkt.vjp(lp, dataclasses.replace(sol, mu=0.0), np.ones(lp.d))

    @pytest.mark.parametrize("p", [0, 2])
    def test_non_finite_data_raise_value_error(self, p):
        lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=p, q=4), 21)
        sol = tight_solve(lp)
        blocks = ("c", "h", "G") + (("b", "A") if p else ())
        for bad_mu in (np.inf, np.nan):
            with pytest.raises(ValueError, match="infs or NaNs"):
                kkt.vjp(lp, dataclasses.replace(sol, mu=bad_mu), np.ones(lp.d), blocks=blocks)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="infs or NaNs"):
                kkt.vjp(lp, sol, np.array([1.0, bad, 0.0, 0.0]), blocks=blocks)
