import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from tspo.barrier import (
    NEWTON_REG,
    BarrierSolution,
    RelaxedLp,
    _chol_with_reg,
    chol_lower,
    chol_solve,
    phase1_interior,
    relax,
    solve_barrier,
    solve_fixed_mu,
)
from tspo.errors import Infeasible, NumericalFailure
from tspo.milp import StandardFormMilp
from tspo.testutil import RandomLpSpec, gen_feasible_lp, vertex_enumerate_lp


def bisect(fn, lo, hi, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(lo) * fn(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestRelax:
    def test_drops_int_vars_only(self):
        m = StandardFormMilp(c=[1.0], A=np.zeros((0, 1)), b=[], G=[[1.0]], h=[0.0], int_vars=frozenset({0}))
        lp = relax(m)
        assert np.array_equal(lp.c, m.c) and np.array_equal(lp.G, m.G)

    def test_no_int_vars_identity(self):
        m = StandardFormMilp(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[1.0], G=np.zeros((0, 2)), h=[])
        lp = relax(m)
        assert np.array_equal(lp.A, m.A) and np.array_equal(lp.b, m.b)

    def test_relaxation_bounds_integer_optimum(self):
        # LP relaxation objective is a lower bound for the negated knapsack
        from tspo.exact import enumerate_binary, solve_lp_exact

        rng = np.random.default_rng(7)
        f, s = rng.uniform(1, 10, 5), rng.uniform(1, 6, 5)
        m = StandardFormMilp(c=-f, A=np.zeros((0, 5)), b=[],
                             G=np.vstack([-s[None, :], -np.eye(5)]),
                             h=np.concatenate([[-8.0], -np.ones(5)]),
                             int_vars=frozenset(range(5)))
        lp_obj = solve_lp_exact(relax(m)).objective
        int_obj = enumerate_binary(m).objective
        assert lp_obj <= int_obj + 1e-9


def same_bits(a, b):
    return a.shape == b.shape and a.flags.f_contiguous == b.flags.f_contiguous and a.tobytes() == b.tobytes()


class TestCholesky:
    def test_bitwise_equal_to_scipy(self):
        # The Newton iterates, and so the chaotic training trajectories, depend
        # on every bit of the factor and of the solves.
        rng = np.random.default_rng(0)
        for n in range(1, 81):
            B = rng.normal(size=(n, n + 3))
            H = B @ B.T + 1e-3 * np.eye(n)
            ours, ref = chol_lower(H), cho_factor(H, lower=True, check_finite=False)
            assert ours[1] is True and ref[1] is True
            assert same_bits(ours[0], ref[0])
            for rhs in (rng.normal(size=n), rng.normal(size=(n, 3)), rng.normal(size=(3, n)).T):
                assert same_bits(chol_solve(ours, rhs), cho_solve(ref, rhs, check_finite=False))

    def test_not_positive_definite_raises_linalg_error(self):
        with pytest.raises(LinAlgError, match="2-th leading minor"):
            chol_lower(np.ones((3, 3)))

    def test_rank_deficient_takes_first_regularization_rung(self):
        # PSD of rank 2: the unregularized factorization fails at the second
        # pivot (exactly 0 in integer arithmetic); NEWTON_REG * scale repairs it.
        H = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 4.0]])
        with pytest.raises(LinAlgError):
            chol_lower(H)
        scale = max(np.trace(H) / 3, 1.0)
        got = _chol_with_reg(H)
        assert same_bits(got[0], cho_factor(H + NEWTON_REG * scale * np.eye(3), lower=True)[0])
        assert not same_bits(got[0], cho_factor(H + 1e-6 * scale * np.eye(3), lower=True)[0])

    def test_indefinite_raises_numerical_failure(self):
        with pytest.raises(NumericalFailure, match="singular beyond regularization"):
            _chol_with_reg(np.diag([1.0, -1.0]))


class TestFixedMu:
    def test_scalar_stationarity_root(self):
        # min x s.t. x >= 1 at mu=0.01: root of 1 - mu/x - mu/(x-1) beyond 1
        mu = 0.01
        lp = RelaxedLp([1.0], np.zeros((0, 1)), [], [[1.0]], [1.0])
        sol = solve_fixed_mu(lp, mu, tol=1e-12)
        root = bisect(lambda x: 1 - mu / x - mu / (x - 1), 1.0 + 1e-12, 3.0)
        assert sol.x[0] == pytest.approx(root, rel=1e-8)
        assert sol.x[0] == pytest.approx(1.0101, abs=1e-3)

    def test_divergence_guard_on_zero_cost(self):
        # min 0*x with only x >= 1: the barrier rewards x -> inf; guard must trip
        lp = RelaxedLp([0.0], np.zeros((0, 1)), [], [[1.0]], [1.0])
        with pytest.raises(NumericalFailure, match="unbounded"):
            solve_fixed_mu(lp, 1.0, tol=1e-12, max_newton=500)

    def test_bounded_variant_hits_analytic_center(self):
        # adding a box x <= 3 makes the mu=1 problem the analytic center of [1, 3]
        lp = RelaxedLp([0.0], np.zeros((0, 1)), [], [[1.0], [-1.0]], [1.0, -3.0])
        sol = solve_fixed_mu(lp, 1.0, tol=1e-12)
        root = bisect(lambda x: 1 / x + 1 / (x - 1) - 1 / (3 - x), 1.0 + 1e-9, 3.0 - 1e-9)
        assert sol.x[0] == pytest.approx(root, rel=1e-8)

    def test_equality_symmetry(self):
        lp = RelaxedLp([1.0, 1.0], [[1.0, 1.0]], [2.0], np.zeros((0, 2)), [])
        sol = solve_fixed_mu(lp, 0.5, tol=1e-12)
        assert sol.x[0] == pytest.approx(sol.x[1], abs=1e-9)
        assert sol.x.sum() == pytest.approx(2.0, abs=1e-9)


class TestSolveBarrier:
    def test_alloy_toy_vertex(self):
        m = StandardFormMilp(c=[2.0, 3.0], A=np.zeros((0, 2)), b=[], G=[[1.0, 1.0]], h=[1.0])
        sol = solve_barrier(m, 1e-6)
        assert sol.converged
        assert np.allclose(sol.x, [1.0, 0.0], atol=1e-4)
        oracle = vertex_enumerate_lp(relax(m))
        assert float(m.c @ sol.x) == pytest.approx(oracle.objective, abs=1e-4)

    def test_objective_improves_with_smaller_cutoff(self):
        for seed in range(5):
            lp, _ = gen_feasible_lp(RandomLpSpec(d=3, p=1, q=4), seed)
            hi = solve_barrier(lp, 1e-3)
            lo = solve_barrier(lp, 1e-6)
            gap = 1e-6 * (lp.d + lp.q) * 50  # generous duality-gap style bound
            assert float(lp.c @ lo.x) <= float(lp.c @ hi.x) + gap

    def test_monotone_mu_path(self):
        lp, _ = gen_feasible_lp(RandomLpSpec(d=3, p=1, q=4), 11)
        objs = []
        warm = None
        for mu in (1.0, 0.2, 0.04, 0.008, 1.6e-3, 3.2e-4):
            warm = solve_fixed_mu(lp, mu, warm=warm, tol=1e-11)
            objs.append(float(lp.c @ warm.x))
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))

    def test_infeasible_system(self):
        m = StandardFormMilp(c=[1.0], A=np.zeros((0, 1)), b=[], G=[[1.0], [-1.0]], h=[1.0, 0.0])
        with pytest.raises(Infeasible):
            solve_barrier(m, 1e-6)

    def test_interior_invariants(self):
        for seed in range(20):
            lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=2, q=5), seed)
            sol = solve_barrier(lp, 1e-6)
            assert sol.converged
            assert np.all(sol.x > 0)
            assert np.all(lp.G @ sol.x - lp.h > 0)
            assert np.max(np.abs(lp.A @ sol.x - lp.b)) <= 1e-8 * (1 + np.max(np.abs(lp.b)))
            # stationarity residual in the dual convention f_x = A'y
            w = 1.0 / sol.s
            fx = lp.c - sol.mu * (lp.G.T @ w) - sol.mu / sol.x
            assert np.max(np.abs(fx - lp.A.T @ sol.y)) <= 1e-8 * (1 + np.max(np.abs(lp.c)))

    def test_tiny_cutoff_agrees_with_exact_lp(self):
        # at cutoff 1e-8 the barrier objective is within 1e-4 of the vertex optimum
        for seed in range(12):
            lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=0, q=6), seed + 900)
            sol = solve_barrier(lp, 1e-8)
            exact = vertex_enumerate_lp(lp)
            gap = abs(float(lp.c @ sol.x) - exact.objective)
            assert gap <= 1e-4 * (1 + abs(exact.objective))

    def test_warm_start_skips_schedule(self):
        lp, _ = gen_feasible_lp(RandomLpSpec(d=3, p=0, q=4), 2)
        base = solve_barrier(lp, 1e-3)
        again = solve_barrier(lp, 1e-3, warm=base)
        assert again.iterations <= 3
        assert np.allclose(again.x, base.x, atol=1e-9)


class TestPhase1:
    def test_simple_membership(self):
        lp = RelaxedLp([1.0], np.zeros((0, 1)), [], [[1.0]], [1.0])
        x = phase1_interior(lp)
        assert x[0] > 1.0

    def test_simplex_membership(self):
        lp = RelaxedLp([0.0, 0.0], [[1.0, 1.0]], [1.0], np.zeros((0, 2)), [])
        x = phase1_interior(lp)
        assert np.all(x > 0) and x.sum() == pytest.approx(1.0, abs=1e-6)

    def test_random_lps_interior_100(self):
        ok = 0
        for seed in range(100):
            lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=2, q=5), seed + 500)
            x = phase1_interior(lp)
            ok += bool(
                np.all(x > 0)
                and (not lp.q or np.min(lp.G @ x - lp.h) > 0)
                and np.max(np.abs(lp.A @ x - lp.b)) < 1e-6 * (1 + np.max(np.abs(lp.b)))
            )
        assert ok == 100
