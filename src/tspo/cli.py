"""Experiment runner: train each method on a benchmark, evaluate by exact
two-stage regret, and emit per-run and aggregated CSV tables.

Config files are JSON; see ``validate_dict`` for the full schema check.
Results are deterministic for a fixed config and seed: every random draw
(data, penalty vectors, weight init, shuffling) derives from the declared
seeds, and floats are written with 10 significant digits.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import dataio, problems
from .errors import ConfigError, TspoError
from .predictor import KnnModel, MlpModel, RidgeModel, init_mlp, train_mse
from .two_stage import TrainConfig, as_predict_fn, evaluate, train

log = logging.getLogger("tspo")

PROBLEMS = ("alloy", "knapsack", "nsp", "stocking", "facility")
METHODS = ("2s", "nn", "ridge", "knn")
REQ_PRESETS = {"brass": [627.54, 369.72], "titanium": [0.8, 60.0, 40.0, 2.5]}
# ``training`` keys that set a TrainConfig field, with the type each becomes;
# the others keep TrainConfig's defaults.
TRAIN_FIELDS = {"epochs": int, "lr": float, "mu_cutoff": float, "hidden": tuple, "track_validation": bool}
# The keys each config object may hold; ``validate_dict`` rejects any other.
DATA_KEYS = ("csv", "synthetic", "seed")
SYNTHETIC_KEYS = ("m", "n", "mapping", "noise_std")
TRAINING_KEYS = (*TRAIN_FIELDS, "nn_lr")


@dataclass
class ExperimentConfig:
    problem: str
    problem_params: dict
    data: dict
    methods: list[str]
    penalty_factors: list[float]
    runs: int = 1
    train_fraction: float = 0.7
    training: dict = field(default_factory=dict)
    ridge_lambda: float = 1.0
    knn_k: int = 5

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        errors = validate_dict(raw)
        if errors:
            raise ConfigError(errors)
        return cls(**raw)


def _is_int(v) -> bool:
    # JSON true/false load as Python bools, which are ints.
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _unknown_keys(obj: dict, known, where: str) -> list[str]:
    return [f"{where}{key}: unknown key" for key in obj if key not in known]


def validate_dict(raw: dict) -> list[str]:
    """Full schema check; returns every error found, not just the first."""
    errors: list[str] = []
    if not isinstance(raw, dict):
        return ["config root must be a JSON object"]
    problem = raw.get("problem")
    if problem not in PROBLEMS:
        errors.append(f"problem: must be one of {PROBLEMS}, got {problem!r}")
    params = raw.get("problem_params")
    if not isinstance(params, dict):
        errors.append("problem_params: required object")
    else:
        for key, v in params.items():
            if any(isinstance(e, bool) for e in (v if isinstance(v, list) else [v])):
                errors.append(f"problem_params.{key}: numbers required, got {v!r}")
    pfs = raw.get("penalty_factors")
    if not isinstance(pfs, list) or not pfs:
        errors.append("penalty_factors: nonempty list required")
    else:
        for v in pfs:
            if not _is_number(v) or v < 0:
                errors.append(f"penalty_factors: entries must be nonnegative numbers, got {v!r}")
    if not errors:
        # The family's own spec checks judge the parameter values: build it once.
        try:
            build_problem(problem, params, pfs[0], 0)
        except (ValueError, TypeError, KeyError) as exc:
            errors.append(f"problem_params: cannot build {problem} from {params!r}: {exc}")
    methods = raw.get("methods")
    if not isinstance(methods, list) or not methods:
        errors.append("methods: nonempty list required")
    else:
        for m in methods:
            if m not in METHODS:
                errors.append(f"methods: unknown method {m!r}")
    runs = raw.get("runs", 1)
    if not _is_int(runs) or runs < 1:
        errors.append("runs: positive integer required")
    tf = raw.get("train_fraction", 0.7)
    if not _is_number(tf) or not 0 < tf < 1:
        errors.append("train_fraction: must lie strictly between 0 and 1")
    data = raw.get("data")
    if not isinstance(data, dict):
        errors.append("data: required object")
    else:
        errors += _unknown_keys(data, DATA_KEYS, "data.")
        if "csv" in data:
            if not isinstance(data["csv"], str):
                errors.append("data.csv: path string required")
        elif "synthetic" in data:
            syn = data["synthetic"]
            if not isinstance(syn, dict):
                errors.append("data.synthetic: object required")
            else:
                errors += _unknown_keys(syn, SYNTHETIC_KEYS, "data.synthetic.")
                for key in ("m", "n"):
                    if not _is_int(syn.get(key)) or syn[key] < 1:
                        errors.append(f"data.synthetic.{key}: positive integer required")
                if "mapping" in syn and syn["mapping"] not in dataio.MAPPINGS:
                    errors.append(f"data.synthetic.mapping: must be one of {dataio.MAPPINGS}")
                noise = syn.get("noise_std")
                if "noise_std" in syn and (not _is_number(noise) or not 0 <= noise < math.inf):
                    errors.append(f"data.synthetic.noise_std: nonnegative number required, got {noise!r}")
            if not _is_int(data.get("seed", 0)):
                errors.append("data.seed: integer required")
        else:
            errors.append("data: needs either a `synthetic` block or a `csv` path")
    training = raw.get("training", {})
    if not isinstance(training, dict):
        errors.append("training: object required")
    else:
        errors += _unknown_keys(training, TRAINING_KEYS, "training.")
        for key, kind in (("lr", float), ("nn_lr", float), ("mu_cutoff", float), ("epochs", int)):
            if key in training:
                val = training[key]
                ok = _is_int(val) if kind is int else _is_number(val)
                if not ok or val <= 0:
                    errors.append(f"training.{key}: positive {kind.__name__} required")
        if "hidden" in training and (
            not isinstance(training["hidden"], list)
            or not all(_is_int(v) and v > 0 for v in training["hidden"])
        ):
            errors.append("training.hidden: list of positive integers required")
        if "track_validation" in training and not isinstance(training["track_validation"], bool):
            errors.append("training.track_validation: true or false required")
    for key in ("ridge_lambda",):
        if key in raw and (not _is_number(raw[key]) or raw[key] < 0):
            errors.append(f"{key}: nonnegative number required")
    if "knn_k" in raw and (not _is_int(raw["knn_k"]) or raw["knn_k"] < 1):
        errors.append("knn_k: positive integer required")
    return errors + _unknown_keys(raw, ExperimentConfig.__dataclass_fields__, "")


def build_problem(name: str, params: dict, penalty_factor: float, seed: int):
    """Instantiate a benchmark spec with the given penalty scale.

    Alloy and rostering draw per-entry penalty vectors uniformly from
    [factor - 0.015, factor + 0.015]; the knapsack and stocking problems
    use the scalar factor directly; the facility problem scales overtime
    fees by it.
    """
    rng = np.random.default_rng(seed)
    if name == "alloy":
        K = int(params.get("K", 10))
        req = params.get("req", "brass")
        if isinstance(req, str):
            req = REQ_PRESETS[req]
        req = np.asarray(req, dtype=float)
        cost = np.asarray(params["cost"], dtype=float) if "cost" in params else rng.uniform(1.0, 5.0, size=K)
        spec = problems.AlloySpec(
            K=K, M=len(req), cost=cost, req=req,
            sigma=rng.uniform(penalty_factor - 0.015, penalty_factor + 0.015, size=K).clip(min=0.0),
        )
        return spec, problems.alloy_problem(spec)
    if name == "knapsack":
        spec = problems.KnapsackSpec(d=int(params.get("d", 10)), cap=float(params.get("cap", 25.0)), sigma=penalty_factor)
        return spec, problems.knapsack_problem(spec)
    if name == "nsp":
        n, k, s = int(params.get("n", 3)), int(params.get("k", 3)), int(params.get("s", 2))
        d = n * k * s
        spec = problems.NspSpec(
            n=n, k=k, s=s,
            P=rng.integers(1, 5, size=d).astype(float),
            m=rng.integers(10, 21, size=n).astype(float),
            gamma=rng.uniform(penalty_factor - 0.015, penalty_factor + 0.015, size=d).clip(min=0.0),
        )
        return spec, problems.nsp_problem(spec)
    if name == "stocking":
        d = int(params.get("d", 5))
        profit = np.asarray(params["profit"], dtype=float) if "profit" in params else rng.uniform(2.0, 8.0, size=d)
        size = np.asarray(params["size"], dtype=float) if "size" in params else rng.uniform(1.0, 5.0, size=len(profit))
        spec = problems.StockingSpec(profit=profit, size=size, surcharge=penalty_factor * profit)
        return spec, problems.product_stocking_problem(spec)
    if name == "facility":
        d = int(params.get("d", 4))
        cap = np.asarray(params["capacity"], dtype=float) if "capacity" in params else rng.uniform(8.0, 16.0, size=d)
        open_cost = rng.uniform(3.0, 8.0, size=len(cap)) if "open_cost" not in params else np.asarray(params["open_cost"], dtype=float)
        spec = problems.FacilitySpec(
            open_cost=open_cost,
            overtime_fee=penalty_factor * open_cost,
            capacity=cap,
            overtime_cap=float(np.sum(cap)),
        )
        return spec, problems.facility_recourse_problem(spec)
    raise ConfigError([f"unknown problem {name!r}"])


def _fit_method(method: str, problem, train_set, cfg: ExperimentConfig, seed: int):
    tr = cfg.training
    config = TrainConfig(seed=seed, **{key: cast(tr[key]) for key, cast in TRAIN_FIELDS.items() if key in tr})
    if method == "2s":
        net, history = train(problem, list(train_set), config)
        return as_predict_fn(MlpModel(net)), history
    if method == "nn":
        m = train_set[0][0].shape[1]
        net = init_mlp((m, *config.hidden, 1), seed=seed)
        train_mse(net, list(train_set), epochs=config.epochs, lr=float(tr.get("nn_lr", 1e-3)), seed=seed)
        return as_predict_fn(MlpModel(net)), None
    if method == "ridge":
        return as_predict_fn(RidgeModel(cfg.ridge_lambda).fit(list(train_set))), None
    if method == "knn":
        return as_predict_fn(KnnModel(cfg.knn_k).fit(list(train_set))), None
    raise ConfigError([f"unknown method {method!r}"])


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def run_experiment(cfg: ExperimentConfig, out_dir: str, base_seed: int = 0) -> dict:
    """Execute the full (method x penalty factor x run) grid; write CSVs."""
    os.makedirs(out_dir, exist_ok=True)
    detail_rows = []
    history_rows = []
    for pf in cfg.penalty_factors:
        for run in range(cfg.runs):
            seed = base_seed + run
            spec_obj, problem = build_problem(cfg.problem, cfg.problem_params, pf, seed)
            if "csv" in cfg.data:
                dataset = dataio.load_csv(cfg.data["csv"])
            else:
                syn = cfg.data["synthetic"]
                optional = {key: syn[key] for key in ("mapping", "noise_std") if key in syn}
                synth = problems.synth_spec_for(spec_obj, m=syn["m"], n=syn["n"], **optional)
                dataset = dataio.generate(synth, seed=int(cfg.data.get("seed", 0)) + seed)
            train_set, test_set = dataio.split(dataset, cfg.train_fraction, seed=seed)
            for method in cfg.methods:
                log.info("problem=%s pf=%s run=%d method=%s", cfg.problem, pf, run, method)
                predict, history = _fit_method(method, problem, train_set, cfg, seed)
                summary, _ = evaluate(problem, predict, list(test_set))
                detail_rows.append(
                    (cfg.problem, method, pf, seed, summary.mean_preg, summary.std_preg,
                     summary.mean_tov, summary.feasibility_fraction, 0 if history is None else history.skipped)
                )
                if history is not None:
                    for epoch, val in history.rows():
                        history_rows.append((cfg.problem, method, pf, seed, epoch, val))

    detail_path = os.path.join(out_dir, "detail.csv")
    with open(detail_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("problem,method,penalty_factor,run_seed,mean_preg,std_preg,mean_tov,feasibility_fraction,skipped_steps\n")
        for row in detail_rows:
            fh.write(",".join([row[0], row[1], _fmt(row[2]), str(row[3])] + [_fmt(v) for v in row[4:8]] + [str(row[8])]) + "\n")

    summary_path = os.path.join(out_dir, "summary.csv")
    groups: dict[tuple, list] = {}
    for row in detail_rows:
        groups.setdefault((row[0], row[1], row[2]), []).append(row)
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("problem,method,penalty_factor,runs,mean_preg,std_preg,mean_tov,mean_feasibility\n")
        for (prob, method, pf), rows in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])):
            pregs = np.array([r[4] for r in rows])
            std = float(np.std(pregs, ddof=1)) if len(pregs) > 1 else 0.0
            fh.write(
                ",".join(
                    [prob, method, _fmt(pf), str(len(rows)), _fmt(float(np.mean(pregs))), _fmt(std),
                     _fmt(float(np.mean([r[6] for r in rows]))), _fmt(float(np.mean([r[7] for r in rows])))]
                )
                + "\n"
            )

    if history_rows:
        with open(os.path.join(out_dir, "history.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("problem,method,penalty_factor,run_seed,epoch,mean_val_preg\n")
            for row in history_rows:
                fh.write(",".join([row[0], row[1], _fmt(row[2]), str(row[3]), str(row[4]), _fmt(row[5])]) + "\n")
    return {"detail": detail_path, "summary": summary_path, "rows": len(detail_rows)}


def _setup_logging() -> None:
    level = os.environ.get("TSPO_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(prog="tspo", description="Two-stage regret experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="results")
    p_run.add_argument("--seed", type=int, default=0)
    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = ExperimentConfig.from_dict(json.load(fh))
    except OSError as exc:
        errors = [f"cannot read config: {exc}"]
    except json.JSONDecodeError as exc:
        errors = [f"invalid JSON: {exc}"]
    except ConfigError as exc:
        errors = exc.errors
    else:
        errors = []
    if errors:
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print("config ok")
        return 0
    try:
        result = run_experiment(cfg, args.out, base_seed=args.seed)
    except TspoError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {result['rows']} detail rows to {result['detail']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
