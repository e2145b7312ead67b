import json
import os

import numpy as np
import pytest

from tspo import two_stage
from tspo.cli import ExperimentConfig, build_problem, main, run_experiment, validate_dict
from tspo.errors import SolverFailure


def base_config(**overrides):
    cfg = {
        "problem": "knapsack",
        "problem_params": {"d": 4, "cap": 8.0},
        "data": {"synthetic": {"m": 3, "n": 20, "mapping": "sine-mix", "noise_std": 0.02}, "seed": 11},
        "methods": ["ridge"],
        "penalty_factors": [0.25],
        "runs": 1,
        "train_fraction": 0.7,
        "training": {"epochs": 2, "lr": 1e-3},
    }
    cfg.update(overrides)
    return cfg


class TestValidate:
    def test_valid_config(self):
        assert validate_dict(base_config()) == []

    def test_unknown_method(self):
        errs = validate_dict(base_config(methods=["ridge", "boost"]))
        assert len(errs) == 1 and "boost" in errs[0]

    def test_negative_penalty_factor(self):
        errs = validate_dict(base_config(penalty_factors=[-0.1]))
        assert len(errs) == 1 and "penalty_factors" in errs[0]

    def test_collects_all_errors(self):
        errs = validate_dict(base_config(methods=["zz"], runs=0, penalty_factors=[]))
        assert len(errs) == 3

    def test_cli_validate_exit_codes(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(base_config()))
        assert main(["validate", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(base_config(methods=["zz"])))
        assert main(["validate", str(bad)]) == 2
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        assert main(["validate", str(broken)]) == 2
        assert main(["run", str(broken)]) == 2
        assert main(["validate", str(tmp_path / "missing.json")]) == 2
        # noise_std must be a finite nonnegative number: a string used to pass
        # validation and crash `run` with a raw ValueError, and a negative
        # value was silently treated as 0.
        for noise in ("abc", -0.1, None, True, float("inf")):
            cfg = base_config()
            cfg["data"]["synthetic"]["noise_std"] = noise
            noisy = tmp_path / "noisy.json"
            noisy.write_text(json.dumps(cfg))
            assert main(["validate", str(noisy)]) == 2, noise
            assert main(["run", str(noisy), "--out", str(tmp_path / "out")]) == 2, noise
        cfg = base_config()
        cfg["data"]["synthetic"]["noise_std"] = 0
        assert validate_dict(cfg) == []
        # JSON true loads as a Python bool, which is an int: it used to pass
        # every number and integer check and run as 1.  A string flag used to
        # pass too, and bool("no") turned validation tracking on.
        bad_values = [
            (("runs",), True),
            (("data", "synthetic", "m"), True),
            (("data", "synthetic", "n"), True),
            (("data", "seed"), True),
            (("penalty_factors",), [True]),
            (("training", "lr"), True),
            (("training", "nn_lr"), True),
            (("training", "mu_cutoff"), True),
            (("training", "epochs"), True),
            (("training", "hidden"), [True]),
            (("ridge_lambda",), True),
            (("knn_k",), True),
            (("training", "track_validation"), "no"),
            (("training", "track_validation"), 1),
        ]
        for path, value in bad_values:
            cfg = base_config()
            parent = cfg
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            flagged = tmp_path / "flagged.json"
            flagged.write_text(json.dumps(cfg))
            assert main(["validate", str(flagged)]) == 2, path
            assert main(["run", str(flagged), "--out", str(tmp_path / "out")]) == 2, path
        for flag in (True, False):
            cfg = base_config()
            cfg["training"]["track_validation"] = flag
            assert validate_dict(cfg) == []
        # problem_params used to go unchecked: each of these printed `config
        # ok`, and `run` died with a raw ValueError or KeyError (or, for
        # d=true, silently built d=1).
        bad_params = [
            ("knapsack", {"d": "abc"}),
            ("knapsack", {"d": -3}),
            ("knapsack", {"cap": "x"}),
            ("knapsack", {"d": True}),
            ("alloy", {"req": "bronze"}),
            ("facility", {"capacity": [1, -2]}),
            ("facility", {"capacity": [1, True]}),
        ]
        for problem, params in bad_params:
            flagged = tmp_path / "params.json"
            flagged.write_text(json.dumps(base_config(problem=problem, problem_params=params)))
            assert main(["validate", str(flagged)]) == 2, params
            assert main(["run", str(flagged), "--out", str(tmp_path / "out")]) == 2, params
            assert any(e.startswith("problem_params") for e in validate_dict(json.loads(flagged.read_text())))


class TestBuildProblem:
    def test_penalty_vector_sampling(self):
        spec, prob = build_problem("alloy", {"K": 5, "req": "brass"}, 0.5, seed=3)
        assert np.all(np.abs(spec.sigma - 0.5) <= 0.015 + 1e-12)
        spec2, _ = build_problem("alloy", {"K": 5, "req": "brass"}, 0.5, seed=3)
        assert np.array_equal(spec.sigma, spec2.sigma)

    def test_knapsack_scalar_sigma(self):
        spec, _ = build_problem("knapsack", {"d": 6, "cap": 10.0}, 0.3, seed=0)
        assert spec.sigma == 0.3 and spec.d == 6

    def test_all_problems_construct(self):
        for name in ("alloy", "knapsack", "nsp", "stocking", "facility"):
            spec, prob = build_problem(name, {}, 0.25, seed=1)
            assert prob.name == name


class TestRun:
    def test_row_counts(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            base_config(methods=["ridge", "knn"], penalty_factors=[0.1, 0.5], runs=2)
        )
        out = run_experiment(cfg, str(tmp_path / "out"), base_seed=0)
        detail = open(out["detail"]).read().strip().splitlines()
        assert len(detail) == 1 + 2 * 2 * 2  # header + methods x factors x runs
        summary = open(tmp_path / "out" / "summary.csv").read().strip().splitlines()
        assert len(summary) == 1 + 2 * 2

    def test_rerun_bitwise_identical(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(runs=2))
        a = run_experiment(cfg, str(tmp_path / "a"), base_seed=5)
        b = run_experiment(cfg, str(tmp_path / "b"), base_seed=5)
        assert open(a["detail"]).read() == open(b["detail"]).read()

    def test_summary_recomputable_from_detail(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(runs=3))
        out = run_experiment(cfg, str(tmp_path / "out"), base_seed=2)
        rows = [l.split(",") for l in open(out["detail"]).read().strip().splitlines()[1:]]
        pregs = np.array([float(r[4]) for r in rows])
        srow = open(out["summary"]).read().strip().splitlines()[1].split(",")
        assert float(srow[4]) == pytest.approx(pregs.mean(), rel=1e-9)
        assert float(srow[5]) == pytest.approx(pregs.std(ddof=1), rel=1e-9)

    def test_cli_run_end_to_end(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config()))
        out = tmp_path / "results"
        assert main(["run", str(path), "--out", str(out), "--seed", "1"]) == 0
        assert (out / "detail.csv").exists() and (out / "summary.csv").exists()

    def test_history_emitted_for_2s(self, tmp_path):
        cfg_d = base_config(methods=["2s"])
        cfg_d["data"]["synthetic"]["n"] = 10
        cfg_d["training"] = {"epochs": 1, "lr": 1e-3, "track_validation": True, "hidden": [4]}
        cfg = ExperimentConfig.from_dict(cfg_d)
        out = run_experiment(cfg, str(tmp_path / "out"), base_seed=0)
        hist = open(tmp_path / "out" / "history.csv").read().strip().splitlines()
        assert hist[0].startswith("problem,method")
        assert len(hist) == 1 + 2  # epochs 0 and 1

    def test_skipped_steps_column(self, tmp_path, monkeypatch):
        # Every third surrogate step fails: 2s reports its TrainHistory.skipped,
        # the other methods (which take no surrogate steps) report 0.
        real = two_stage.surrogate_loss_grad
        calls = []

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) % 3 == 0:
                raise SolverFailure("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(two_stage, "surrogate_loss_grad", flaky)
        cfg_d = base_config(methods=["2s", "ridge", "knn"], runs=2)
        cfg_d["data"]["synthetic"]["n"] = 10
        cfg_d["training"] = {"epochs": 2, "lr": 1e-3, "hidden": [4]}
        out = run_experiment(ExperimentConfig.from_dict(cfg_d), str(tmp_path / "out"), base_seed=0)
        lines = open(out["detail"]).read().strip().splitlines()
        assert lines[0].split(",")[-1] == "skipped_steps"
        skipped = {(r[1], r[3]): int(r[-1]) for r in (line.split(",") for line in lines[1:])}
        assert skipped[("ridge", "0")] == skipped[("knn", "1")] == 0
        steps = 2 * 2 * 7  # runs x epochs x training instances
        assert len(calls) == steps
        assert skipped[("2s", "0")] + skipped[("2s", "1")] == steps // 3
