import numpy as np
import pytest

from tspo import cli, dataio
from tspo.exact import Status, enumerate_binary, solve_milp_bnb
from tspo.milp import check_feasibility, instantiate
from tspo.problems import (
    AlloySpec,
    FacilitySpec,
    KnapsackSpec,
    NspSpec,
    StockingSpec,
    alloy_problem,
    dimension_report,
    facility_recourse_problem,
    knapsack_problem,
    nsp_demand_cap,
    nsp_problem,
    product_stocking_problem,
    synth_spec_for,
)
from tspo.testutil import finite_diff_jacobian
from tspo.two_stage import post_hoc_regret, stage1_solve, stage2_solve

# The paper-scale instances, as `tspo run` builds them (penalty factor 0.25, seed 0).
PAPER_SCALE = {
    "brass": ("alloy", {"req": "brass"}),
    "titanium": ("alloy", {"req": "titanium"}),
    "knapsack": ("knapsack", {"cap": 100.0}),
    "nsp": ("nsp", {"n": 15, "k": 7, "s": 3}),
}


def paper_scale(name):
    family, params = PAPER_SCALE[name]
    return cli.build_problem(family, params, 0.25, 0)


class TestPenalties:
    def test_alloy_zero_at_identity_and_direct_value(self):
        spec = AlloySpec(K=2, M=1, cost=[2.0, 3.0], req=[1.0], sigma=[0.5, 0.5])
        prob = alloy_problem(spec)
        x = np.array([1.0, 0.5])
        assert prob.penalty_eval(x, x, None) == 0.0
        pen = prob.penalty_eval(np.array([1.0, 0.0]), np.array([2.0, 1.0]), None)
        assert pen == pytest.approx(0.5 * 2 * 1 + 0.5 * 3 * 1)

    def test_knapsack_penalty(self):
        prob = knapsack_problem(KnapsackSpec(d=2, cap=5.0, sigma=0.25))
        theta = np.array([10.0, 20.0, 1.0, 1.0])
        pen = prob.penalty_eval(np.array([1.0, 1.0]), np.array([1.0, 0.0]), theta)
        assert pen == pytest.approx(0.25 * 20.0)
        assert prob.penalty_eval(np.array([1.0, 1.0]), np.array([1.0, 1.0]), theta) == 0.0

    def test_nsp_case_split(self):
        spec = NspSpec(n=1, k=1, s=1, P=np.array([3.0]), m=np.array([10.0]), gamma=np.array([1.0]))
        prob = nsp_problem(spec)
        assert prob.penalty_eval(np.array([0.0]), np.array([1.0, 1.0]), None) == pytest.approx(4.0)
        assert prob.penalty_eval(np.array([1.0]), np.array([0.0, 0.0]), None) == 0.0

    def test_stocking_flip_cost(self):
        spec = StockingSpec(profit=[4.0, 6.0, 3.0], size=[1.0, 1.0, 1.0], surcharge=[3.0, 1.0, 2.0])
        prob = product_stocking_problem(spec)
        x1 = np.array([1.0, 0.0, 1.0])
        x2 = np.concatenate([[0.0, 0.0, 1.0], np.zeros(6)])
        assert prob.penalty_eval(x1, x2, None) == pytest.approx(3.0)
        same = np.concatenate([x1, np.zeros(6)])
        assert prob.penalty_eval(x1, same, None) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_nonnegative_on_reachable_pairs(self, seed):
        rng = np.random.default_rng(seed)
        spec = KnapsackSpec(d=4, cap=8.0, sigma=0.3)
        prob = knapsack_problem(spec)
        theta = np.concatenate([rng.uniform(1, 9, 4), rng.uniform(1, 4, 4)])
        s1 = stage1_solve(prob, theta * rng.uniform(0.7, 1.3, 8))
        s2 = stage2_solve(prob, s1.x, theta)
        assert prob.penalty_eval(s1.x, s2.x, theta) >= -1e-12


class TestDimensions:
    def test_table_scale_counts(self):
        expected = {
            "brass": (10, 12, 20),
            "titanium": (10, 14, 40),
            "knapsack": (10, 21, 10),
            "nsp": (315, 846, 21),
        }
        reports = {name: dimension_report(paper_scale(name)[1]) for name in expected}
        for name, (d, cons, params) in expected.items():
            rep = reports[name]
            assert rep.d == d, name
            assert rep.constraints == cons, name
            assert rep.unknown_parameters == params, name

    def test_nsp_constraint_breakdown(self):
        spec, prob = paper_scale("nsp")
        sk = prob.stage1.skeleton
        t = spec.shifts
        assert sk.p == spec.n * spec.k  # one-shift-per-day equalities
        assert sk.q == t + spec.n * (spec.k - 1) + spec.d  # demand + rest + upper bounds


class TestDerivativeCallbacks:
    def fd_check(self, prob, x1, x2_full, theta, dprimary):
        """dPReg_dx2 against finite differences of objective + penalty in x2."""
        true_milp = instantiate(prob.stage1, theta)
        d1 = len(x1)

        def value(x2_part):
            full = np.asarray(x2_full, dtype=float).copy()
            full[:d1] = x2_part
            return float(true_milp.c @ full[:d1]) + prob.penalty_eval(x1, full, theta)

        J = finite_diff_jacobian(value, np.asarray(x2_full[:d1], dtype=float))
        analytic = np.asarray(prob.dPReg_dx2(x1, x2_full, theta))[:d1]
        assert np.max(np.abs(J - analytic)) <= 1e-6 * (1 + np.max(np.abs(J)))

        def pen_in_x1(x1v):
            return prob.penalty_eval(x1v, x2_full, theta)

        J1 = finite_diff_jacobian(pen_in_x1, np.asarray(x1, dtype=float))
        analytic1 = np.asarray(prob.dPReg_dx1(x1, x2_full, theta))[:d1]
        assert np.max(np.abs(J1 - analytic1)) <= 1e-6 * (1 + np.max(np.abs(J1)))

    def test_alloy_callbacks(self):
        spec = AlloySpec(K=3, M=2, cost=[2.0, 3.0, 1.5], req=[1.0, 0.5], sigma=[0.5, 0.2, 0.9])
        prob = alloy_problem(spec)
        theta = np.random.default_rng(0).uniform(0.2, 0.9, 6)
        x1 = np.array([0.4, 0.7, 0.1])
        x2 = np.array([0.9, 0.8, 0.3])  # strictly above x1: off the kink
        self.fd_check(prob, x1, x2, theta, spec.K)
        assert np.allclose(prob.dPReg_dx2(x1, x2, theta), (1 + spec.sigma) * spec.cost)
        assert np.allclose(prob.dPReg_dx1(x1, x2, theta), -spec.sigma * spec.cost)

    def test_knapsack_callbacks(self):
        spec = KnapsackSpec(d=3, cap=5.0, sigma=0.3)
        prob = knapsack_problem(spec)
        theta = np.array([4.0, 6.0, 2.0, 1.0, 1.5, 1.0])
        x1 = np.array([0.9, 0.8, 0.7])
        x2 = np.array([0.5, 0.3, 0.2])
        self.fd_check(prob, x1, x2, theta, spec.d)
        assert np.allclose(prob.dPReg_dx2(x1, x2, theta), -(1 + spec.sigma) * theta[:3])
        assert np.allclose(prob.dPReg_dx1(x1, x2, theta), spec.sigma * theta[:3])

    def test_nsp_callbacks_off_kink(self):
        rng = np.random.default_rng(1)
        spec = NspSpec(n=2, k=1, s=2, P=np.array([1.0, 4.0, 2.0, 3.0]), m=np.array([10.0, 12.0]),
                       gamma=np.array([0.5, 1.0, 0.25, 2.0]))
        prob = nsp_problem(spec)
        x1 = np.array([0.2, 0.8, 0.6, 0.4])
        x2full = np.concatenate([[0.5, 0.3, 0.9, 0.1], rng.uniform(0, 1, 4)])
        self.fd_check(prob, x1, x2full, np.zeros(2), None)
        coef = spec.gamma * (5 - spec.P) ** 2
        up = x2full[:4] >= x1
        assert np.allclose(prob.dPReg_dx2(x1, x2full, None)[:4], -spec.P + coef * up)
        assert np.allclose(prob.dPReg_dx1(x1, x2full, None), -coef * up)


class TestStage2Feasibility:
    def test_alloy_always_feasible(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            spec = AlloySpec(K=3, M=2, cost=rng.uniform(1, 4, 3), req=rng.uniform(0.5, 2, 2),
                             sigma=rng.uniform(0, 1, 3))
            prob = alloy_problem(spec)
            theta = rng.uniform(0.1, 0.9, 6)
            x1 = rng.uniform(0, 2, 3)
            assert solve_milp_bnb(prob.stage2_build(x1, theta)).status is Status.OPTIMAL

    def test_knapsack_always_feasible(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            spec = KnapsackSpec(d=4, cap=6.0, sigma=0.2)
            prob = knapsack_problem(spec)
            theta = np.concatenate([rng.uniform(1, 9, 4), rng.uniform(1, 4, 4)])
            x1 = rng.integers(0, 2, 4).astype(float)
            assert solve_milp_bnb(prob.stage2_build(x1, theta)).status is Status.OPTIMAL

    def test_nsp_feasible_within_demand_cap(self):
        rng = np.random.default_rng(3)
        spec = NspSpec(n=2, k=2, s=2, P=rng.integers(1, 5, 8).astype(float),
                       m=np.array([11.0, 14.0]), gamma=np.full(8, 0.5))
        prob = nsp_problem(spec)
        cap = nsp_demand_cap(spec)
        for seed in range(5):
            r2 = np.random.default_rng(seed)
            theta = r2.integers(0, cap + 1, 4).astype(float)
            x1 = stage1_solve(prob, theta).x
            other = r2.integers(0, cap + 1, 4).astype(float)
            assert solve_milp_bnb(prob.stage2_build(x1, other)).status is Status.OPTIMAL


class TestStockingEnumeration:
    def test_three_item_pipeline_matches_oracle(self):
        spec = StockingSpec(profit=[4.0, 6.0, 3.0], size=[2.0, 3.0, 2.0], surcharge=[1.0, 0.5, 3.0])
        prob = product_stocking_problem(spec)
        for t_hat, t_true in [(7.0, 4.0), (3.0, 7.0), (5.0, 5.0)]:
            rep = post_hoc_regret(prob, np.array([t_hat]), np.array([t_true]))
            # oracle: enumerate stage-1 and stage-2 decisions directly
            best1, best1_val = None, -np.inf
            for bits in range(8):
                x = np.array([(bits >> i) & 1 for i in range(3)], dtype=float)
                if spec.size @ x <= t_hat and spec.profit @ x > best1_val:
                    best1, best1_val = x, float(spec.profit @ x)
            best2_val = -np.inf
            for bits in range(8):
                x = np.array([(bits >> i) & 1 for i in range(3)], dtype=float)
                if spec.size @ x <= t_true:
                    v = float(spec.profit @ x - spec.surcharge @ np.abs(x - best1))
                    best2_val = max(best2_val, v)
            tov = max(
                float(spec.profit @ np.array([(b >> i) & 1 for i in range(3)], dtype=float))
                for b in range(8)
                if spec.size @ np.array([(b >> i) & 1 for i in range(3)], dtype=float) <= t_true
            )
            assert rep.preg == pytest.approx(tov - best2_val, abs=1e-9)


class TestFacilityEnumeration:
    def test_recourse_matches_greedy_oracle(self):
        spec = FacilitySpec(open_cost=[5.0, 6.0, 4.0], overtime_fee=[2.0, 3.0, 2.5],
                            capacity=[10.0, 12.0, 8.0], overtime_cap=35.0)
        prob = facility_recourse_problem(spec)
        demand = 33.0
        s1 = stage1_solve(prob, np.array([20.0]))
        s2 = stage2_solve(prob, s1.x, np.array([demand]))
        opens = s1.x[:3]
        # greedy oracle: fill the shortfall with the cheapest open facility first
        shortfall = max(0.0, demand - float(spec.capacity @ opens))
        fees = [(spec.overtime_fee[i], i) for i in range(3) if opens[i] > 0.5]
        cost = 0.0
        for fee, i in sorted(fees):
            take = min(shortfall, spec.overtime_cap)
            cost += fee * take
            shortfall -= take
            if shortfall <= 0:
                break
        assert shortfall <= 1e-9
        assert float(spec.overtime_fee @ s2.x[3:]) == pytest.approx(cost, abs=1e-6)


class TestSynthSpecs:
    def test_alloy_clamps(self):
        spec = AlloySpec(K=3, M=2, cost=[1.0, 2.0, 3.0], req=[1.0, 1.0], sigma=[0.1, 0.1, 0.1])
        synth = synth_spec_for(spec, m=4, n=50)
        ds = dataio.generate(synth, seed=0)
        thetas = np.concatenate([th for _, th in ds.instances])
        assert np.all(thetas > 0) and np.all(thetas <= 1.0)

    def test_nsp_integer_demands_under_cap(self):
        spec, _ = paper_scale("nsp")
        synth = synth_spec_for(spec, m=4, n=20)
        ds = dataio.generate(synth, seed=1)
        cap = nsp_demand_cap(spec)
        for _, th in ds.instances:
            assert np.all(th == np.round(th))
            assert np.all((0 <= th) & (th <= cap))

    def test_knapsack_segments_positive(self):
        spec = KnapsackSpec(d=5, cap=10.0, sigma=0.2)
        ds = dataio.generate(synth_spec_for(spec, m=4, n=30), seed=2)
        for _, th in ds.instances:
            assert np.all(th[:5] > 0) and np.all(th[5:] > 0)
