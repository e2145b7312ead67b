import dataclasses

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from tspo import barrier, dataio, kkt
from tspo.barrier import (
    CENTERING_TOL,
    MU_DECREASE,
    NEWTON_REG,
    BarrierSolution,
    _chol_with_reg,
    chol_lower,
    chol_solve,
    phase1_interior,
    solve_barrier,
    solve_fixed_mu,
)
from tspo.errors import Infeasible, NumericalFailure
from tspo.cli import build_problem
from tspo.exact import enumerate_binary, solve_lp_exact
from tspo.milp import StandardFormMilp, instantiate
from tspo.problems import synth_spec_for
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
    @pytest.mark.parametrize("name", ["knapsack", "nsp"])
    def test_int_vars_ignored_bitwise(self, name):
        # The LP paths read c, A, b, G, h of a StandardFormMilp and nothing
        # else: dropping int_vars must not change a single bit.
        spec, prob = build_problem(name, {}, 0.25, seed=1)
        theta = dataio.generate(synth_spec_for(spec, m=3, n=1), seed=0).instances[0][1]
        milp = instantiate(prob.stage1, theta)
        lp = dataclasses.replace(milp, int_vars=frozenset())
        assert milp.int_vars and not lp.int_vars
        blocks = ("c", "h", "G") + (("b", "A") if milp.p else ())
        u = np.random.default_rng(0).normal(size=milp.d)
        results = []
        for m in (milp, lp):
            sol = solve_barrier(m, 1e-3)
            grads = kkt.vjp(sol, u, blocks=blocks)
            ex = solve_lp_exact(m)
            arrays = [phase1_interior(m), sol.x, sol.s, sol.y, ex.x, np.array([ex.objective])]
            results.append([a.tobytes() for a in arrays + [grads[k] for k in blocks]] + [sol.iterations, ex.status])
        assert results[0] == results[1]

    def test_relaxation_bounds_integer_optimum(self):
        # LP relaxation objective is a lower bound for the negated knapsack
        rng = np.random.default_rng(7)
        f, s = rng.uniform(1, 10, 5), rng.uniform(1, 6, 5)
        m = StandardFormMilp(c=-f, A=np.zeros((0, 5)), b=[],
                             G=np.vstack([-s[None, :], -np.eye(5)]),
                             h=np.concatenate([[-8.0], -np.ones(5)]),
                             int_vars=frozenset(range(5)))
        lp_obj = solve_lp_exact(m).objective
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
        lp = StandardFormMilp([1.0], np.zeros((0, 1)), [], [[1.0]], [1.0])
        sol = solve_fixed_mu(lp, mu, tol=1e-12)
        root = bisect(lambda x: 1 - mu / x - mu / (x - 1), 1.0 + 1e-12, 3.0)
        assert sol.x[0] == pytest.approx(root, rel=1e-8)
        assert sol.x[0] == pytest.approx(1.0101, abs=1e-3)

    def test_divergence_guard_on_zero_cost(self):
        # min 0*x with only x >= 1: the barrier rewards x -> inf; guard must trip
        lp = StandardFormMilp([0.0], np.zeros((0, 1)), [], [[1.0]], [1.0])
        with pytest.raises(NumericalFailure, match="unbounded"):
            solve_fixed_mu(lp, 1.0, tol=1e-12, max_newton=500)

    def test_bounded_variant_hits_analytic_center(self):
        # adding a box x <= 3 makes the mu=1 problem the analytic center of [1, 3]
        lp = StandardFormMilp([0.0], np.zeros((0, 1)), [], [[1.0], [-1.0]], [1.0, -3.0])
        sol = solve_fixed_mu(lp, 1.0, tol=1e-12)
        root = bisect(lambda x: 1 / x + 1 / (x - 1) - 1 / (3 - x), 1.0 + 1e-9, 3.0 - 1e-9)
        assert sol.x[0] == pytest.approx(root, rel=1e-8)

    def test_equality_symmetry(self):
        lp = StandardFormMilp([1.0, 1.0], [[1.0, 1.0]], [2.0], np.zeros((0, 2)), [])
        sol = solve_fixed_mu(lp, 0.5, tol=1e-12)
        assert sol.x[0] == pytest.approx(sol.x[1], abs=1e-9)
        assert sol.x.sum() == pytest.approx(2.0, abs=1e-9)


class TestSolveBarrier:
    def test_alloy_toy_vertex(self):
        m = StandardFormMilp(c=[2.0, 3.0], A=np.zeros((0, 2)), b=[], G=[[1.0, 1.0]], h=[1.0])
        sol = solve_barrier(m, 1e-6)
        assert sol.converged
        assert np.allclose(sol.x, [1.0, 0.0], atol=1e-4)
        oracle = vertex_enumerate_lp(m)
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
        lp = StandardFormMilp([1.0], np.zeros((0, 1)), [], [[1.0]], [1.0])
        x = phase1_interior(lp)
        assert x[0] > 1.0

    def test_simplex_membership(self):
        lp = StandardFormMilp([0.0, 0.0], [[1.0, 1.0]], [1.0], np.zeros((0, 2)), [])
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


def centred_reference(lp, mu_cutoff):
    """The same mu schedule as solve_barrier, every stage centred to 1e-8
    by its own solve_fixed_mu call; returns (solution, total iterations)."""
    mu, schedule = max(1.0, float(np.abs(lp.c).max())), []
    while mu > mu_cutoff:
        schedule.append(mu)
        mu *= MU_DECREASE
    schedule.append(mu_cutoff)
    sol, iters = None, 0
    for mu in schedule:
        sol = solve_fixed_mu(lp, mu, warm=sol, tol=1e-8)
        assert sol.converged
        iters += sol.iterations
    return sol, iters


def family_relaxations():
    """Stage-1 and stage-2 relaxations of every family: stage 1 under one
    instance's parameters, stage 2 at its barrier commitment under the next's."""
    lps = []
    for name in ("alloy", "knapsack", "nsp", "stocking", "facility"):
        spec, prob = build_problem(name, {}, 0.25, seed=1)
        thetas = [theta for _, theta in dataio.generate(synth_spec_for(spec, m=3, n=4), seed=0).instances]
        for theta, theta_next in zip(thetas, thetas[1:]):
            lp1 = instantiate(prob.stage1, theta)
            x1 = solve_barrier(lp1, 1e-3).x
            lps += [(f"{name} stage 1", lp1), (f"{name} stage 2", prob.stage2_build(x1, theta_next))]
    for seed in range(10):
        lps.append((f"random {seed}", gen_feasible_lp(RandomLpSpec(d=5, p=2, q=6), seed + 40)[0]))
    return lps


class TestInexactCentering:
    def test_cutoff_point_matches_fully_centred_path(self):
        # Loose intermediate stages change the path's iterates but not the
        # cutoff point, which the final stage centres to tol; and they save
        # Newton iterations on every LP (the counts are deterministic).
        for label, lp in family_relaxations():
            sol = solve_barrier(lp, 1e-3)
            ref, ref_iters = centred_reference(lp, 1e-3)
            assert sol.converged, label
            scale = 1.0 + np.abs(ref.x).max()
            assert np.abs(sol.x - ref.x).max() <= 1e-6 * scale, label
            assert sol.iterations < ref_iters, label

    def test_intermediate_stages_are_loose_and_cutoff_is_tight(self, monkeypatch):
        calls = []
        real = barrier._newton_core

        def spy(c, A, b, Gbar, hbar, mu, x0, tol, max_iter, sbar0=None):
            calls.append((c.shape[0], mu, tol))
            return real(c, A, b, Gbar, hbar, mu, x0, tol, max_iter, sbar0)

        lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=1, q=5), 3)
        monkeypatch.setattr(barrier, "_newton_core", spy)
        solve_barrier(lp, 1e-4, tol=1e-9)
        phase1 = [tol for d, _, tol in calls if d == lp.d + 1]  # phase-1 carries one extra variable
        path = [(mu, tol) for d, mu, tol in calls if d == lp.d]
        assert phase1 and all(tol == CENTERING_TOL for tol in phase1)
        assert path[-1] == (1e-4, 1e-9)
        assert len(path) > 2 and all(tol == CENTERING_TOL for _, tol in path[:-1])

    def test_phase1_still_rejects_empty_interiors(self):
        # x1 + x2 <= 1 with x1 >= 1 and x2 >= 0.5: infeasible; and a touching
        # pair (x >= 1, x <= 1) whose only point has no interior.
        for G, h in (([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], [-1.0, 1.0, 0.5]), ([[1.0], [-1.0]], [1.0, -1.0])):
            lp = StandardFormMilp(np.ones(len(G[0])), np.zeros((0, len(G[0]))), [], G, h)
            with pytest.raises(Infeasible):
                phase1_interior(lp)


def nearby_family_pairs():
    """(label, lp, near) for stage 1 and stage 2 of every family: one
    relaxation under an instance's theta and under theta moved by at most
    1e-6 relative, stage 2 at the same barrier commitment."""
    pairs = []
    for name in ("alloy", "knapsack", "nsp", "stocking", "facility"):
        spec, prob = build_problem(name, {}, 0.25, seed=1)
        thetas = [theta for _, theta in dataio.generate(synth_spec_for(spec, m=3, n=2), seed=0).instances]
        for k, theta in enumerate(thetas):
            near = theta * (1 + 1e-6 * np.random.default_rng(k).uniform(-1, 1, theta.shape))
            lp1 = instantiate(prob.stage1, theta)
            x1 = solve_barrier(lp1, 1e-3).x
            pairs += [
                (f"{name} stage 1", lp1, instantiate(prob.stage1, near)),
                (f"{name} stage 2", prob.stage2_build(x1, theta), prob.stage2_build(x1, near)),
            ]
    return pairs


def assert_same_solution(got, ref):
    assert got.x.tobytes() == ref.x.tobytes()
    assert got.s.tobytes() == ref.s.tobytes()
    assert got.y.tobytes() == ref.y.tobytes()
    assert (got.mu, got.iterations, got.converged) == (ref.mu, ref.iterations, ref.converged)


class TestWarmStart:
    def test_nearby_cutoff_point_recentred_without_phase1(self, monkeypatch):
        # Warm from the cutoff point of a nearby theta, the solve centres at
        # the cutoff directly: the same point as the cold path, fewer Newton
        # iterations, and no phase-1.
        cases = []
        for label, lp, near in nearby_family_pairs():
            cases.append((label, near, solve_barrier(lp, 1e-3), solve_barrier(near, 1e-3)))
        calls = []
        real = barrier.phase1_interior
        monkeypatch.setattr(barrier, "phase1_interior", lambda lp: calls.append(lp) or real(lp))
        for label, near, src, cold in cases:
            sol = solve_barrier(near, 1e-3, warm=src)
            assert sol.converged, label
            scale = 1.0 + np.abs(cold.x).max()
            assert np.abs(sol.x - cold.x).max() <= 1e-6 * scale, label
            assert sol.iterations < cold.iterations, label
        assert calls == []

    def test_non_interior_warm_point_gives_the_cold_result(self):
        lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=1, q=5), 3)
        cold = solve_barrier(lp, 1e-3)
        outside = dataclasses.replace(cold, x=-cold.x)
        assert_same_solution(solve_barrier(lp, 1e-3, warm=outside), cold)

    @pytest.mark.parametrize("failure", ["nonconverged", "raises"])
    def test_failed_warm_solve_falls_back_to_cold(self, monkeypatch, failure):
        # The warm cutoff solve (the only Newton call that starts at warm.x)
        # fails; the result is the cold solve's, bit for bit.
        lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=1, q=5), 3)
        cold = solve_barrier(lp, 1e-3)
        warm = solve_barrier(lp, 2e-3)
        real = barrier._newton_core
        warm_calls = []

        def spy(c, A, b, Gbar, hbar, mu, x0, tol, max_iter, sbar0=None):
            if x0 is warm.x:
                warm_calls.append(mu)
                if failure == "raises":
                    raise NumericalFailure("forced")
                return x0, np.zeros(A.shape[0]), Gbar @ x0 - hbar, max_iter, False
            return real(c, A, b, Gbar, hbar, mu, x0, tol, max_iter, sbar0)

        monkeypatch.setattr(barrier, "_newton_core", spy)
        sol = solve_barrier(lp, 1e-3, warm=warm)
        assert warm_calls == [1e-3]
        assert_same_solution(sol, cold)
