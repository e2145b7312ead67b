import numpy as np
import pytest

from tspo import exact
from tspo.cli import build_problem
from tspo.dataio import generate
from tspo.errors import NodeLimitExceeded, TooLarge
from tspo.exact import Status, enumerate_binary, solve_lp_exact, solve_milp_bnb
from tspo.milp import StandardFormMilp, check_feasibility, instantiate
from tspo.problems import synth_spec_for
from tspo.testutil import RandomLpSpec, gen_feasible_lp, vertex_enumerate_lp


def knapsack_milp(f, s, cap):
    d = len(f)
    return StandardFormMilp(
        c=-np.asarray(f, dtype=float),
        A=np.zeros((0, d)),
        b=[],
        G=np.vstack([-np.asarray(s, dtype=float)[None, :], -np.eye(d)]),
        h=np.concatenate([[-float(cap)], -np.ones(d)]),
        int_vars=frozenset(range(d)),
    )


def lp_with_known_optimum(seed, p, q, d=30, scale=1e3):
    """Sparse LP with entries around ``scale``, a redundant equality row and an
    optimum x fixed by construction (c meets the KKT conditions at x).
    Returns the LP and c'x."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 2.0, d) * (rng.random(d) < 0.5)
    A = rng.normal(size=(p, d)) * (rng.random((p, d)) < 0.5)
    A = np.vstack([A, A[0] + A[1]])
    G = rng.normal(size=(q, d)) * (rng.random((q, d)) < 0.5)
    active = rng.random(q) < 0.4
    h = G @ x - np.where(active, 0.0, rng.uniform(0.1, 1.0, q))
    c = A.T @ rng.normal(size=p + 1) + G.T @ (active * rng.uniform(0.0, 1.0, q)) + (x == 0) * rng.uniform(0.0, 1.0, d)
    return StandardFormMilp(c, scale * A, scale * (A @ x), scale * G, scale * h), float(c @ x)


class TestSolveLpExact:
    def test_hand_lp(self):
        lp = StandardFormMilp([2.0, 3.0], np.zeros((0, 2)), [], [[1.0, 1.0]], [1.0])
        sol = solve_lp_exact(lp)
        assert sol.status is Status.OPTIMAL
        assert np.allclose(sol.x, [1.0, 0.0], atol=1e-6)
        assert sol.objective == pytest.approx(2.0, abs=1e-8)

    def test_degenerate_tie_objective_only(self):
        lp = StandardFormMilp([1.0, 1.0], np.zeros((0, 2)), [], [[1.0, 1.0]], [1.0])
        sol = solve_lp_exact(lp)
        assert sol.objective == pytest.approx(1.0, abs=1e-8)

    def test_random_lps_match_vertex_enumeration(self):
        lps = [gen_feasible_lp(RandomLpSpec(d=4, p=1, q=5), seed)[0] for seed in range(30)]
        # Equalities only (q=0).  In the hand LP the one basic solution with a
        # negative entry, x = (-0.5, 0), beats the optimum x = (0, 0.5).
        lps += [gen_feasible_lp(RandomLpSpec(d=4, p=2, q=0), seed)[0] for seed in range(10)]
        lps.append(StandardFormMilp([1.0, 0.0], [[1.0, -1.0]], [-0.5], np.zeros((0, 2)), []))
        for lp in lps:
            a = solve_lp_exact(lp)
            b = vertex_enumerate_lp(lp)
            assert a.status is Status.OPTIMAL and b.status is Status.OPTIMAL
            assert a.objective == pytest.approx(b.objective, abs=1e-6)

    def test_badly_scaled_lps_with_known_optimum(self):
        # Degenerate by construction (zero entries of x, rows active at x), so
        # Bland's rule must treat rounding-level step lengths as ties to stop.
        cases = [(seed, 8, 40) for seed in range(300)] + [(seed, 12, 55) for seed in range(50)]
        for seed, p, q in cases:
            lp, obj = lp_with_known_optimum(seed, p, q)
            sol = solve_lp_exact(lp)
            assert sol.status is Status.OPTIMAL
            assert sol.objective == pytest.approx(obj, rel=1e-6, abs=1e-6), seed

    def test_solution_feasible_per_checker(self):
        for seed in range(10):
            lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=2, q=4), seed + 40)
            sol = solve_lp_exact(lp)
            assert check_feasibility(lp, sol.x, tol=1e-6)

    def test_infeasible_and_unbounded(self):
        bad = StandardFormMilp([1.0], np.zeros((0, 1)), [], [[1.0], [-1.0]], [1.0, 0.0])
        assert solve_lp_exact(bad).status is Status.INFEASIBLE
        ub = StandardFormMilp([-1.0], np.zeros((0, 1)), [], [[1.0]], [1.0])
        assert solve_lp_exact(ub).status is Status.UNBOUNDED

    def test_warm_child_matches_vertex_enumeration(self):
        # Two bound rows in a row, each re-solved by the dual simplex from the
        # previous tableau, against the LP with the rows written out.
        checked = 0
        for seed in range(30):
            lp, _ = gen_feasible_lp(RandomLpSpec(d=4, p=1, q=5), seed)
            sol, rows, rhs = solve_lp_exact(lp), [], []
            for depth in range(2):
                if sol.status is not Status.OPTIMAL:
                    break
                j = int(np.argmax(sol.x))
                if sol.x[j] <= 1e-6:
                    break
                sense, v = (-1, 0.5 * sol.x[j]) if (seed + depth) % 2 else (1, 1.5 * sol.x[j])
                sol = solve_lp_exact(lp, (sol.tableau, (j, sense, v)))
                rows.append(sense * np.eye(lp.d)[j])
                rhs.append(sense * v)
                bounded = StandardFormMilp(lp.c, lp.A, lp.b, np.vstack([lp.G, rows]), np.concatenate([lp.h, rhs]))
                ref = vertex_enumerate_lp(bounded)
                assert sol.status is ref.status, (seed, depth)
                if ref.status is Status.OPTIMAL:
                    assert sol.objective == pytest.approx(ref.objective, abs=1e-6), (seed, depth)
                    assert check_feasibility(bounded, sol.x, tol=1e-6)
                checked += 1
        assert checked >= 40

    def test_fixed_variables(self):
        # x0 pinned to 0 by opposing singleton rows; x1 pinned to 1
        lp = StandardFormMilp(
            [1.0, -2.0, 1.0],
            np.zeros((0, 3)),
            [],
            [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
            [0.0, 1.0, -1.0, 0.5],
        )
        sol = solve_lp_exact(lp)
        assert sol.status is Status.OPTIMAL
        assert sol.x[0] == pytest.approx(0.0, abs=1e-9)
        assert sol.x[1] == pytest.approx(1.0, abs=1e-9)
        assert sol.x[2] == pytest.approx(0.5, abs=1e-6)


class TestBranchAndBound:
    def test_two_item_hand_case(self):
        sol = solve_milp_bnb(knapsack_milp([10, 20], [6, 6], 10))
        assert np.allclose(sol.x, [0.0, 1.0])
        assert sol.objective == pytest.approx(-20.0, abs=1e-9)

    def test_integral_lp_needs_one_node(self):
        # LP optimum already integral: assignment-style structure
        m = StandardFormMilp(
            c=[1.0, 2.0], A=[[1.0, 1.0]], b=[1.0],
            G=np.vstack([-np.eye(2)]), h=-np.ones(2), int_vars=frozenset({0, 1}),
        )
        sol = solve_milp_bnb(m)
        assert sol.node_count == 1
        assert sol.objective == pytest.approx(1.0, abs=1e-8)

    def test_random_knapsacks_match_enumeration(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            m = knapsack_milp(rng.uniform(1, 20, 10), rng.uniform(1, 15, 10), float(rng.uniform(10, 60)))
            a = solve_milp_bnb(m)
            b = enumerate_binary(m)
            assert a.status is b.status is Status.OPTIMAL
            assert a.objective == pytest.approx(b.objective, abs=1e-9)

    def test_node_limit(self):
        rng = np.random.default_rng(1)
        m = knapsack_milp(rng.uniform(1, 20, 10), rng.uniform(1, 15, 10), 40.0)
        with pytest.raises(NodeLimitExceeded):
            solve_milp_bnb(m, node_limit=1)

    def test_bound_log_invariants(self):
        rng = np.random.default_rng(5)
        m = knapsack_milp(rng.uniform(1, 20, 8), rng.uniform(1, 15, 8), 30.0)
        log = []
        sol = solve_milp_bnb(m, log=log)
        assert len(log) == sol.node_count
        # every LP bound is at or below the proven optimum of its subtree,
        # so the global minimum of bounds is at or below the final objective
        assert min(e["bound"] for e in log) <= sol.objective + 1e-9
        for e in log:
            if e["integral"]:
                assert e["bound"] <= sol.objective + 1e-9

    def test_lp_relaxation_bounds_milp(self):
        for seed in range(10):
            rng = np.random.default_rng(seed + 100)
            m = knapsack_milp(rng.uniform(1, 20, 6), rng.uniform(1, 15, 6), 25.0)
            lp_obj = solve_lp_exact(m).objective
            milp_obj = solve_milp_bnb(m).objective
            assert lp_obj <= milp_obj + 1e-9

    def test_infeasible_milp(self):
        m = StandardFormMilp(
            c=[1.0], A=np.zeros((0, 1)), b=[], G=[[1.0], [-1.0]], h=[2.0, -0.5], int_vars=frozenset({0})
        )
        assert solve_milp_bnb(m).status is Status.INFEASIBLE

    def test_one_lp_solve_per_node(self, monkeypatch):
        # perfbench's traced check counts solve_lp_exact calls beneath each
        # solve_milp_bnb call and requires them to equal node_count.
        calls = []
        solve = exact.solve_lp_exact

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(exact, "solve_lp_exact", counted)
        rng = np.random.default_rng(1)
        milps = [knapsack_milp(rng.uniform(1, 20, 10), rng.uniform(1, 15, 10), 40.0)]
        spec, prob = build_problem("nsp", {"n": 3, "k": 2, "s": 3}, 0.25, 0)
        ds = generate(synth_spec_for(spec, m=8, n=10, noise_std=0.2), seed=300)
        milps.append(instantiate(prob.stage1, ds.instances[0][1]))
        for m in milps:
            calls.clear()
            sol = solve_milp_bnb(m)
            assert sol.node_count == len(calls) > 1
            assert sol.tableau is None

    def test_root_feasible_children_infeasible(self, monkeypatch):
        # 2x = 1 with x binary: the root LP has x = 0.5, and the dual simplex
        # proves both x <= 0 and x >= 1 infeasible.
        statuses = []
        solve = exact.solve_lp_exact

        def recorded(*args, **kwargs):
            sol = solve(*args, **kwargs)
            statuses.append((len(args) > 1 and args[1] is not None, sol.status))
            return sol

        monkeypatch.setattr(exact, "solve_lp_exact", recorded)
        m = StandardFormMilp(c=[1.0], A=[[2.0]], b=[1.0], G=[[-1.0]], h=[-1.0], int_vars=frozenset({0}))
        sol = solve_milp_bnb(m)
        assert sol.status is Status.INFEASIBLE and sol.node_count == 3
        assert statuses == [(False, Status.OPTIMAL), (True, Status.INFEASIBLE), (True, Status.INFEASIBLE)]

    def test_mixed_integer_continuous(self):
        # one binary on/off switch with a continuous flow variable
        m = StandardFormMilp(
            c=[5.0, 1.0],
            A=np.zeros((0, 2)),
            b=[],
            G=np.array([[0.0, 1.0], [10.0, -1.0], [-1.0, 0.0]]),
            h=np.array([3.0, 0.0, -1.0]),
            int_vars=frozenset({0}),
        )
        sol = solve_milp_bnb(m)
        # flow >= 3 requires the switch on (flow <= 10 * switch)
        assert sol.status is Status.OPTIMAL
        assert np.allclose(sol.x, [1.0, 3.0], atol=1e-6)


class TestEnumerateBinary:
    def test_single_item_too_big(self):
        m = knapsack_milp([5.0], [2.0], 1.0)
        sol = enumerate_binary(m)
        assert sol.objective == pytest.approx(0.0)
        assert np.allclose(sol.x, [0.0])

    def test_empty_feasible_set(self):
        d = 2
        m = StandardFormMilp(
            c=np.zeros(d), A=np.zeros((0, d)), b=[], G=[[1.0, 1.0], [-1.0, -1.0]], h=[3.0, 0.0],
            int_vars=frozenset(range(d)),
        )
        assert enumerate_binary(m).status is Status.INFEASIBLE

    def test_one_nurse_one_day_hand_roster(self):
        # one nurse, one day, two shifts; exactly one shift must be taken and
        # the demand of shift 0 requires the nurse there
        m = StandardFormMilp(
            c=[-3.0, -4.0],  # prefers shift 1
            A=[[1.0, 1.0]],
            b=[1.0],
            G=np.vstack([[[10.0, 0.0]], -np.eye(2)]),
            h=np.concatenate([[5.0], -np.ones(2)]),
            int_vars=frozenset({0, 1}),
        )
        sol = enumerate_binary(m)
        assert np.allclose(sol.x, [1.0, 0.0])
        assert sol.objective == pytest.approx(-3.0)

    def test_too_large(self):
        m = knapsack_milp(np.ones(21), np.ones(21), 5.0)
        with pytest.raises(TooLarge):
            enumerate_binary(m)

    def test_bnb_agrees_exactly_on_small_instances(self):
        milps = []
        for seed in range(20):
            rng = np.random.default_rng(seed + 77)
            milps.append(knapsack_milp(rng.uniform(1, 9, 7), rng.uniform(1, 6, 7), float(rng.uniform(5, 20))))
        # Rostering with 3 shifts per day: branching bounds leave equality rows
        # whose free variables must all be 0, node LPs with an empty interior.
        spec, prob = build_problem("nsp", {"n": 3, "k": 2, "s": 3}, 0.25, 0)
        ds = generate(synth_spec_for(spec, m=8, n=10, noise_std=0.2), seed=300)
        milps += [instantiate(prob.stage1, theta) for _, theta in ds.instances[:5]]
        # Stage 2 at the enumerated stage-1 optimum under another instance's
        # parameters.  Knapsack may only drop items: its x <= x1 rows have
        # h = 0 where x1_j = 0.  Stocking's split equalities have b = x1.
        for name, params in (("knapsack", {"d": 7, "cap": 15.0}), ("stocking", {"d": 5})):
            spec, prob = build_problem(name, params, 0.25, 0)
            ds = generate(synth_spec_for(spec, m=8, n=10, noise_std=0.2), seed=300)
            thetas = [theta for _, theta in ds.instances[:6]]
            for theta, other in zip(thetas, thetas[1:] + thetas[:1]):
                x1 = enumerate_binary(instantiate(prob.stage1, theta)).x
                milps.append(prob.stage2_build(x1, other))
        assert all(m.d <= 20 for m in milps)
        for m in milps:
            assert solve_milp_bnb(m).objective == pytest.approx(enumerate_binary(m).objective, abs=1e-9)
