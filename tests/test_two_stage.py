import dataclasses

import numpy as np
import pytest

from tspo import barrier, cli, dataio, two_stage
from tspo.errors import CorrectionInfeasible, SolverFailure
from tspo.exact import enumerate_binary, solve_milp_bnb
from tspo.milp import instantiate
from tspo.predictor import MlpModel, init_mlp
from tspo.problems import (
    AlloySpec,
    FacilitySpec,
    KnapsackSpec,
    NspSpec,
    StockingSpec,
    alloy_problem,
    alloy_scale_up_correction,
    facility_recourse_problem,
    knapsack_problem,
    nsp_demand_cap,
    nsp_problem,
    product_stocking_problem,
    synth_spec_for,
)
from tspo.two_stage import (
    TrainConfig,
    as_predict_fn,
    evaluate,
    perfect_predictor,
    post_hoc_regret,
    proposition1_check,
    stage1_solve,
    stage2_solve,
    surrogate_loss,
    surrogate_loss_grad,
    train,
    true_optimum,
)


def small_alloy(seed=0):
    rng = np.random.default_rng(seed)
    K, M = 3, 2
    spec = AlloySpec(K=K, M=M, cost=rng.uniform(1, 4, K), req=rng.uniform(0.5, 2, M), sigma=rng.uniform(0.1, 1, K))
    theta = rng.uniform(0.1, 0.9, K * M)
    return alloy_problem(spec), spec, theta


def small_knapsack(seed=0, sigma=0.25, d=5):
    rng = np.random.default_rng(seed)
    spec = KnapsackSpec(d=d, cap=float(rng.uniform(5, 12)), sigma=sigma)
    theta = np.concatenate([rng.uniform(1, 10, d), rng.uniform(1, 5, d)])
    return knapsack_problem(spec), spec, theta


def small_nsp(seed=0):
    rng = np.random.default_rng(seed)
    n, k, s = 2, 2, 2
    d = n * k * s
    spec = NspSpec(n=n, k=k, s=s, P=rng.integers(1, 5, d).astype(float),
                   m=rng.integers(10, 21, n).astype(float), gamma=rng.uniform(0.2, 1.0, d))
    cap = nsp_demand_cap(spec)
    theta = rng.integers(0, cap + 1, k * s).astype(float)
    return nsp_problem(spec), spec, theta


class TestHandCases:
    def test_alloy_single_supplier(self):
        spec = AlloySpec(K=1, M=1, cost=[2.0], req=[1.0], sigma=[0.5])
        prob = alloy_problem(spec)
        rep = post_hoc_regret(prob, np.array([2.0]), np.array([1.0]))
        # stage 1 buys 0.5 tons; truth needs 1.0; top-up at surcharge 0.5*2
        assert rep.preg == pytest.approx(0.5, abs=1e-9)
        assert rep.penalty == pytest.approx(0.5, abs=1e-9)
        assert rep.true_opt == pytest.approx(2.0, abs=1e-9)
        assert not rep.stage1_feasible_under_truth

    def test_knapsack_two_items(self):
        prob = knapsack_problem(KnapsackSpec(d=2, cap=10.0, sigma=0.25))
        theta_hat = np.array([10.0, 20.0, 4.0, 4.0])
        theta = np.array([10.0, 20.0, 6.0, 6.0])
        rep = post_hoc_regret(prob, theta_hat, theta)
        assert rep.preg == pytest.approx(2.5, abs=1e-9)
        # oracle pipeline: stage 2 replaced by direct enumeration
        s1 = stage1_solve(prob, theta_hat)
        milp2 = prob.stage2_build(s1.x, theta)
        enum = enumerate_binary(milp2)
        true_milp = instantiate(prob.stage1, theta)
        pen = prob.penalty_eval(s1.x, enum.x, theta)
        tov = enumerate_binary(true_milp).objective
        assert float(true_milp.c @ enum.x) + pen - tov == pytest.approx(rep.preg, abs=1e-9)

    def test_stage2_alloy_topup_constraint(self):
        prob, spec, theta = small_alloy(3)
        theta_hat = np.asarray(theta) * 1.4  # overestimate quality: under-buys
        s1 = stage1_solve(prob, theta_hat)
        s2 = stage2_solve(prob, s1.x, theta)
        assert np.all(s2.x >= s1.x - 1e-8)

    def test_stage2_knapsack_drop_only(self):
        prob, spec, theta = small_knapsack(4)
        theta_hat = theta.copy()
        theta_hat[spec.d:] *= 0.5  # underestimate sizes: over-commits
        s1 = stage1_solve(prob, theta_hat)
        s2 = stage2_solve(prob, s1.x, theta)
        assert np.all(s2.x <= s1.x + 1e-8)

    def test_barrier_stage1_is_interior(self):
        prob, spec, theta = small_knapsack(5)
        sol = stage1_solve(prob, theta, mode="barrier", mu_cutoff=1e-3)
        assert np.all(sol.x > 0) and np.all(sol.x < 1)


class TestRegretProperties:
    @pytest.mark.parametrize("maker", [small_alloy, small_knapsack, small_nsp])
    def test_nonnegative_and_zero_at_truth(self, maker):
        for seed in range(6):
            prob, spec, theta = maker(seed)
            rep0 = post_hoc_regret(prob, theta, theta)
            assert rep0.preg <= 1e-9
            rng = np.random.default_rng(seed + 1000)
            theta_hat = np.asarray(theta) * rng.uniform(0.6, 1.4, size=len(theta))
            if prob.name == "nsp":
                theta_hat = np.clip(np.round(theta_hat), 0, nsp_demand_cap(spec))
            rep = post_hoc_regret(prob, theta_hat, theta)
            assert rep.preg >= -1e-9
            assert rep.preg == pytest.approx(rep.stage2_obj + rep.penalty - rep.true_opt, abs=1e-9)

    def test_report_identity(self):
        prob, spec, theta = small_knapsack(9)
        rep = post_hoc_regret(prob, theta * 0.8, theta)
        assert rep.preg == pytest.approx(rep.stage2_obj + rep.penalty - rep.true_opt, abs=1e-12)


class TestProposition1:
    def test_identity_correction_when_feasible(self):
        prob, spec, theta = small_alloy(1)
        verdict = proposition1_check(prob, theta, theta, correction=lambda x1: x1)
        assert verdict.holds

    def test_scale_up_correction_many_instances(self):
        held = 0
        for seed in range(30):
            prob, spec, theta = small_alloy(seed)
            rng = np.random.default_rng(seed + 5)
            theta_hat = np.asarray(theta) * rng.uniform(0.7, 1.3, size=len(theta))
            verdict = proposition1_check(prob, theta_hat, theta, alloy_scale_up_correction(spec, theta))
            held += verdict.holds
        assert held == 30

    def test_stage2_as_its_own_correction(self):
        prob, spec, theta = small_alloy(2)
        theta_hat = np.asarray(theta) * 1.2

        def corr(x1):
            return prob.extract_x2(stage2_solve(prob, x1, theta).x)

        verdict = proposition1_check(prob, theta_hat, theta, corr)
        assert verdict.holds
        assert verdict.two_stage_value == pytest.approx(verdict.corrected_value, abs=1e-7)

    def test_infeasible_correction_rejected(self):
        prob, spec, theta = small_alloy(3)
        with pytest.raises(CorrectionInfeasible):
            proposition1_check(prob, theta * 1.5, theta, correction=lambda x1: np.zeros_like(x1))


class TestSurrogateGradient:
    def fd_grad(self, problem, net, features, theta, mu, step=1e-5):
        flat = []
        for li in range(len(net.weights)):
            for arr in (net.weights[li], net.biases[li]):
                g = np.zeros_like(arr)
                it = np.nditer(arr, flags=["multi_index"])
                while not it.finished:
                    ix = it.multi_index
                    old = arr[ix]
                    arr[ix] = old + step
                    lp = surrogate_loss(problem, net, features, theta, mu)
                    arr[ix] = old - step
                    lm = surrogate_loss(problem, net, features, theta, mu)
                    arr[ix] = old
                    g[ix] = (lp - lm) / (2 * step)
                    it.iternext()
                flat.append(g.ravel())
        return np.concatenate(flat)

    @staticmethod
    def fd_instance(family):
        """A small problem, its true theta, and a shift added to the untrained
        network's output so that its predictions land in the family's range."""
        if family == "alloy":
            spec = AlloySpec(K=2, M=1, cost=[2.0, 3.0], req=[1.0], sigma=[0.5, 0.4])
            return alloy_problem(spec), np.array([0.8, 0.6]), 0.0
        if family == "knapsack":
            return knapsack_problem(KnapsackSpec(d=2, cap=6.0, sigma=0.25)), np.array([5.0, 7.0, 4.0, 5.0]), 0.0
        if family == "nsp":
            spec = NspSpec(n=2, k=2, s=2, P=[4.0, 1.0, 2.0, 3.0, 1.0, 3.0, 4.0, 2.0], m=[12.0, 15.0],
                           gamma=[0.5, 0.3, 0.8, 0.6, 0.4, 0.7, 0.5, 0.9])
            return nsp_problem(spec), np.array([6.0, 9.0, 4.0, 8.0]), 6.0
        if family == "stocking":
            # Surcharges above the profits and more space than predicted: Stage 2
            # keeps x1, so much of the gradient runs through the Stage-2 b slots.
            profit = np.array([4.0, 6.0, 5.0])
            spec = StockingSpec(profit=profit, size=[2.0, 3.0, 1.0], surcharge=2.0 * profit)
            return product_stocking_problem(spec), np.array([5.0]), 3.5
        spec = FacilitySpec(open_cost=[5.0, 6.0], overtime_fee=[2.0, 2.5], capacity=[10.0, 12.0], overtime_cap=22.0)
        return facility_recourse_problem(spec), np.array([15.0]), 15.0

    # nsp takes d(regret)/d(x1) through Stage-2 h slots next to its theta
    # slots, stocking and facility through b; alloy and knapsack through h.
    @pytest.mark.parametrize("family", ["alloy", "knapsack", "nsp", "stocking", "facility"])
    def test_matches_end_to_end_fd(self, family):
        prob, theta, shift = self.fd_instance(family)
        checked = 0
        seed = 0
        while checked < 4 and seed < 24:
            seed += 1
            rng = np.random.default_rng(seed)
            features = rng.normal(size=(len(theta), 3))
            net = init_mlp((3, 4, 1), seed=seed + 50)
            net.biases[-1] += shift
            try:
                grads = surrogate_loss_grad(prob, net, features, theta, 1e-3)
            except Exception:
                continue  # random net made stage 1 infeasible; try another seed
            flat = np.concatenate([np.concatenate([gw.ravel(), gb.ravel()]) for gw, gb in grads])
            fd = self.fd_grad(prob, net, features, theta, 1e-3)
            err = np.max(np.abs(flat - fd)) / (1e-6 + np.max(np.abs(fd)))
            assert err <= 5e-3
            checked += 1
        assert checked == 4

    @pytest.mark.parametrize("family", ["alloy", "knapsack", "nsp", "stocking", "facility"])
    def test_each_stage_built_once_per_step(self, family, monkeypatch):
        # The KKT step differentiates the LP each stage solve built, carried on
        # its BarrierSolution: one step builds Stage 1 once and Stage 2 once
        # (stage2_build), where rebuilding both for the vjp made four builds.
        prob, theta, shift = self.fd_instance(family)
        built = []
        real = two_stage.instantiate
        monkeypatch.setattr(two_stage, "instantiate", lambda tpl, vec: built.append(tpl) or real(tpl, vec))
        for seed in range(1, 25):
            net = init_mlp((3, 4, 1), seed=seed + 50)
            net.biases[-1] += shift
            built.clear()
            try:
                surrogate_loss_grad(prob, net, np.random.default_rng(seed).normal(size=(len(theta), 3)), theta, 1e-3)
            except SolverFailure:
                continue  # random net made a stage unsolvable; try another seed
            assert len(built) == 2 and built[0] is prob.stage1 and built[1] is prob.stage2
            return
        pytest.fail("no solvable step in 24 seeds")

    def test_zero_upstream_through_zero_network(self):
        spec = KnapsackSpec(d=2, cap=6.0, sigma=0.25)
        prob = knapsack_problem(spec)
        net = init_mlp((3, 4, 1), seed=0)
        for W in net.weights:
            W[:] = 0.0
        # constant prediction from zero features: d(theta_hat)/dw vanishes for
        # all weight layers whose activations are zero
        grads = surrogate_loss_grad(prob, net, np.zeros((4, 3)), np.array([5.0, 7.0, 4.0, 5.0]), 1e-3)
        assert np.max(np.abs(grads[0][0])) == 0.0


class TestTrainEvaluate:
    def test_zero_epochs_identity(self):
        prob, spec, theta = small_knapsack(0)
        synth = synth_spec_for(spec, m=3, n=8)
        ds = dataio.generate(synth, seed=0)
        cfg = TrainConfig(epochs=0, lr=1e-3, hidden=(4,), seed=1, track_validation=False)
        net, hist = train(prob, list(ds.instances), cfg)
        ref = init_mlp((3, 4, 1), seed=1)
        assert all(np.array_equal(a, b) for a, b in zip(net.weights, ref.weights))

    def test_learnable_ground_truth_median_ratio(self):
        # Deterministic linear ground truth: training should cut the
        # validation regret well below its starting value.  One seed's
        # trajectory is chaotic (a 1e-15 change in a barrier point can flip
        # it), so the property checked is the median final/initial ratio over
        # eight network seeds.  Seeds 0-7 give a median of about 0.1-0.2; a
        # negated surrogate gradient gives about 2 and a zeroed one exactly 1.
        spec = KnapsackSpec(d=4, cap=8.0, sigma=1.0)
        prob = knapsack_problem(spec)
        synth = synth_spec_for(spec, m=2, n=40, mapping="linear", noise_std=0.0)
        instances = list(dataio.generate(synth, seed=3).instances)
        ratios = []
        for seed in range(8):
            cfg = TrainConfig(epochs=25, lr=2e-2, hidden=(16,), seed=seed, track_validation=True)
            _, hist = train(prob, instances, cfg)
            ratios.append(hist.mean_val_preg[-1] / hist.mean_val_preg[0])
        assert np.median(ratios) <= 0.3, ratios

    def test_nonconverged_solve_skips_step(self, monkeypatch):
        # Stage 1 reports non-convergence on every fourth step and stage 2 on
        # the steps two later: each such step is skipped and counted.
        real1, real2, real_adam = two_stage.stage1_solve, two_stage.stage2_solve, two_stage.adam_step
        steps, updates = [], []

        def stage1(*args, **kwargs):
            steps.append(None)
            sol = real1(*args, **kwargs)
            return dataclasses.replace(sol, converged=False) if len(steps) % 4 == 1 else sol

        def stage2(*args, **kwargs):
            sol = real2(*args, **kwargs)
            return dataclasses.replace(sol, converged=False) if len(steps) % 4 == 3 else sol

        def adam(*args, **kwargs):
            updates.append(None)
            return real_adam(*args, **kwargs)

        monkeypatch.setattr(two_stage, "stage1_solve", stage1)
        monkeypatch.setattr(two_stage, "stage2_solve", stage2)
        monkeypatch.setattr(two_stage, "adam_step", adam)
        prob, spec, _ = small_knapsack(0)
        ds = dataio.generate(synth_spec_for(spec, m=3, n=12), seed=0)
        cfg = TrainConfig(epochs=2, lr=1e-3, hidden=(4,), seed=1, track_validation=False)
        _, hist = train(prob, list(ds.instances), cfg)
        assert len(steps) == 2 * 12
        assert hist.skipped == 12
        assert len(updates) == 12

    def test_warm_starts_skip_phase1_after_first_epoch(self, monkeypatch):
        # An instance's first step solves both stages cold (two phase-1
        # calls); its later steps start from its previous step's solutions,
        # interior or not (a stage-2 point after x1 moved), and run no
        # phase-1.  The count is deterministic; it was 2 * steps = 120 when
        # every solve was cold, and 30 on both problems while a warm point
        # outside the interior still fell back to the cold path.
        calls = []
        real = barrier.phase1_interior
        monkeypatch.setattr(barrier, "phase1_interior", lambda lp: calls.append(lp) or real(lp))
        for maker in (small_knapsack, small_nsp):
            calls.clear()
            prob, spec, _ = maker(0)
            ds = dataio.generate(synth_spec_for(spec, m=3, n=12), seed=0)
            cfg = TrainConfig(epochs=5, lr=1e-3, hidden=(4,), seed=1, track_validation=False)
            _, hist = train(prob, list(ds.instances), cfg)
            assert hist.skipped == 0, maker.__name__
            assert len(calls) == 2 * 12, maker.__name__

    def test_evaluate_perfect_prediction(self):
        prob, spec, theta = small_knapsack(6)
        synth = synth_spec_for(spec, m=3, n=10)
        ds = dataio.generate(synth, seed=2)
        summary, reports = evaluate(prob, perfect_predictor, list(ds.instances))
        assert summary.mean_preg <= 1e-9
        assert summary.feasibility_fraction == 1.0
        assert summary.mean_tov > 0  # natural (maximization) sense

    def test_evaluate_with_model_adapter(self):
        prob, spec, theta = small_knapsack(7, d=3)
        synth = synth_spec_for(spec, m=3, n=12)
        ds = dataio.generate(synth, seed=5)
        model = MlpModel(init_mlp((3, 4, 1), seed=0))
        summary, reports = evaluate(prob, as_predict_fn(model), list(ds.instances))
        assert len(reports) == 12
        assert summary.mean_preg >= -1e-9


class TestTrueOptimumCache:
    def test_freed_problems_never_share_cached_optima(self):
        # CPython reuses the id of a freed object, so a cache keyed on the
        # problem's identity would hand a new problem an old problem's optimum.
        for seed in range(60):
            _, prob = cli.build_problem("alloy", {"K": 4, "req": "brass"}, 0.25, seed)
            theta = np.full(prob.stage1.t, 0.5)
            fresh = solve_milp_bnb(instantiate(prob.stage1, theta))
            assert true_optimum(prob, theta).objective == fresh.objective, seed
            del prob


class TestHardCommitment:
    def test_facility_stage2_pins_openings(self):
        spec = FacilitySpec(open_cost=[5.0, 6.0, 4.0], overtime_fee=[2.0, 2.5, 3.0],
                            capacity=[10.0, 12.0, 8.0], overtime_cap=40.0)
        prob = facility_recourse_problem(spec)
        for t_hat, t_true in [(15.0, 25.0), (20.0, 8.0), (9.0, 30.0)]:
            s1 = stage1_solve(prob, np.array([t_hat]))
            s2 = stage2_solve(prob, s1.x, np.array([t_true]))
            assert np.array_equal(s2.x[:3], s1.x[:3])

    def test_facility_recourse_covers_demand(self):
        spec = FacilitySpec(open_cost=[5.0, 6.0], overtime_fee=[2.0, 2.5],
                            capacity=[10.0, 12.0], overtime_cap=50.0)
        prob = facility_recourse_problem(spec)
        s1 = stage1_solve(prob, np.array([9.0]))
        s2 = stage2_solve(prob, s1.x, np.array([30.0]))
        x, sg = s2.x[:2], s2.x[2:]
        assert float(spec.capacity @ x + sg.sum()) >= 30.0 - 1e-6
        assert np.any(sg > 1e-6)
