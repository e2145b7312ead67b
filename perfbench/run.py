"""End-to-end and per-layer benchmark of tspo training and exact evaluation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; tspo is imported from ./src.  Each workload
reproduces the ``tspo run`` grid with the library's public functions: build
the problem, generate synthetic data, split, fit each method, and evaluate
every (method, test instance) pair exactly, one ``evaluate`` call per
instance so that a failing instance is counted and the run carries on.

The instances come from a fixed pool (data seed 300), and ``--seed`` sets
its partition into folds.  A pass is the grid over all folds: for each fold
k, fit every method (models seeded with k) on the other folds and evaluate it
on fold k.  So a pass scores every pool instance once, and runs on different
seeds differ in what each model is trained on, not in which instances they
score.

A run repeats the same pass ``max(2, round(S / pass_s))`` times, ``pass_s``
being the workload's pass time on the reference machine (README.md).  Every
fold of every pass gets a fresh problem object, so no pass finds true optima
cached by another and all passes do identical work.  Each fit, each 2s
training step and each evaluation is timed in every pass and its fastest
time is kept: other tenants of a shared machine slow the CPU in bursts of a
fraction of a second to minutes, and the fastest of identical attempts
filters out the shorter ones.

After the timed passes, every evaluation of the first pass is checked
against HiGHS (checks.py), and every later pass must reproduce it exactly.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` tspo's layers are wrapped
(spans.py) and the metrics are the per-layer ones.  A fuller record (the
machine, versions, per-method regrets, failures) goes to perfbench/out/.
"""

import os

# One process, no threads beyond BLAS, and BLAS pinned to one thread.  This
# must happen before numpy is imported.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")


@dataclass(frozen=True)
class Workload:
    problem: str
    params: dict
    n: int  # instances in the pool
    folds: int | None  # seeded folds per pass; None: the fixed 0.7 / 0.3 split of seed 0
    methods: tuple[str, ...]
    epochs_2s: int
    pass_s: float  # seconds per pass on the reference machine


# All workloads: synthetic sine-mix data, m=8 features, noise 0.2, penalty
# factor 0.25, the A5 training settings.  Each one trains some 2s and
# evaluates some instances exactly, so every end-to-end metric exists on
# each.  BENCHMARK.json and README.md say why each workload is there.
WORKLOADS = {
    "knapsack-train": Workload(
        problem="knapsack", params={"d": 10, "cap": 25.0}, n=20, folds=10, methods=("2s",),
        epochs_2s=6, pass_s=12.5,
    ),
    "knapsack-eval": Workload(
        problem="knapsack", params={"d": 10, "cap": 25.0}, n=24, folds=3,
        methods=("2s", "nn", "ridge", "knn"), epochs_2s=5, pass_s=14.0,
    ),
    "nsp-grid": Workload(
        problem="nsp", params={"n": 4, "k": 3, "s": 3}, n=40, folds=None, methods=("2s", "knn"),
        epochs_2s=4, pass_s=13.5,
    ),
}
PENALTY_FACTOR = 0.25
DATA_SEED = 300
TRAIN_FRACTION = 0.7
MU_CUTOFF = 1e-3
TRAINING = dict(lr=5e-4, hidden=(16, 16, 16))
NN_LR, NN_EPOCHS, RIDGE_LAMBDA, KNN_K = 1e-3, 12, 1.0, 5
PERFECT_EVALS = 1  # perfect-predictor evaluations per fold (regret must be 0)


def process_age() -> float:
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22 of proc(5); 2 fields precede the split
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def import_tspo():
    """Import tspo from this checkout's src/, and only from there."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import tspo

    if not os.path.abspath(tspo.__file__).startswith(src + os.sep):
        raise ImportError(f"tspo imported from {tspo.__file__}, not from {src}")


@dataclass
class Record:
    """One exact evaluation: its inputs, its report or exception, its x1."""

    fold: int
    method: str
    index: int
    theta_hat: object
    theta: object
    problem: object
    report: object = None
    error: str | None = None
    x1: object = None


@dataclass
class FoldResult:
    fit_s: dict = field(default_factory=dict)  # method -> seconds
    step_s: list = field(default_factory=list)  # seconds per 2s training step
    eval_s: list = field(default_factory=list)  # seconds per evaluation, in grid order
    steps: int = 0
    skipped: int = 0
    records: list = field(default_factory=list)
    net: object = None
    train_set: list = field(default_factory=list)


def build_problem(w: Workload, seed: int):
    from tspo import cli

    return cli.build_problem(w.problem, w.params, PENALTY_FACTOR, seed)


def make_pool(spec, w: Workload):
    from tspo import dataio, problems

    synth = problems.synth_spec_for(spec, m=8, n=w.n, mapping="sine-mix", noise_std=0.2)
    return dataio.generate(synth, seed=DATA_SEED)


def make_folds(pool, w: Workload, seed: int) -> list[tuple[list, list]]:
    """(train, test) per fold: seeded disjoint folds covering the pool, or the
    fixed split for a workload whose inputs must not depend on the seed."""
    from tspo import dataio

    if w.folds is None:
        train, test = dataio.split(pool, TRAIN_FRACTION, seed=0)
        return [(list(train), list(test))]
    folds, rest = [], pool
    for i in range(w.folds - 1):
        fold, rest = dataio.split(rest, 1.0 / (w.folds - i), seed=seed)
        folds.append(list(fold))
    folds.append(list(rest))
    return [([x for j, f in enumerate(folds) if j != k for x in f], folds[k]) for k in range(w.folds)]


def fit(method, problem, train_set, w: Workload, seed: int, result: FoldResult):
    """Fit one method as ``tspo run`` does."""
    from tspo import predictor, two_stage

    if method == "2s":
        config = two_stage.TrainConfig(
            epochs=w.epochs_2s, mu_cutoff=MU_CUTOFF, seed=seed, track_validation=False, **TRAINING
        )
        net, history = two_stage.train(problem, train_set, config)
        result.steps += w.epochs_2s * len(train_set)
        result.skipped += history.skipped
        result.net = net
        return two_stage.as_predict_fn(predictor.MlpModel(net))
    if method == "nn":
        net = predictor.init_mlp((train_set[0][0].shape[1], *TRAINING["hidden"], 1), seed=seed)
        predictor.train_mse(net, train_set, epochs=NN_EPOCHS, lr=NN_LR, seed=seed)
        return two_stage.as_predict_fn(predictor.MlpModel(net))
    if method == "ridge":
        return two_stage.as_predict_fn(predictor.RidgeModel(RIDGE_LAMBDA).fit(train_set))
    if method == "knn":
        return two_stage.as_predict_fn(predictor.KnnModel(KNN_K).fit(train_set))
    if method == "perfect":
        return two_stage.perfect_predictor
    raise ValueError(method)


def run_fold(k, w: Workload, problem, train_set, test_set, probes) -> FoldResult:
    """Fit every method (models seeded with the fold index k) and evaluate it
    on the fold's test set, timing each unit."""
    from tspo import two_stage
    from tspo.errors import TspoError

    result = FoldResult(train_set=train_set)
    grid = [(m, test_set) for m in w.methods]
    grid.append(("perfect", test_set[:PERFECT_EVALS]))
    for method, instances in grid:
        t0 = time.perf_counter()
        predict = fit(method, problem, train_set, w, k, result)
        t1 = time.perf_counter()
        result.fit_s[method] = t1 - t0
        if method == "2s":
            result.step_s = probes.take_steps(t1)
        seen = []

        def recording(features, theta, predict=predict):
            out = predict(features, theta)
            seen.append(out)
            return out

        for i, (features, theta) in enumerate(instances):
            rec = Record(k, method, i, None, theta, problem)
            t0 = time.perf_counter()
            try:
                _, reports = two_stage.evaluate(problem, recording, [(features, theta)])
                rec.report = reports[0]
            except TspoError as exc:
                rec.error = f"{type(exc).__name__}: {exc}"
            result.eval_s.append(time.perf_counter() - t0)
            sol = probes.take_commitment()
            rec.x1 = None if sol is None else sol.x
            rec.theta_hat = seen.pop() if seen else None
            result.records.append(rec)
    return result


def environment() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    blas_threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = int(fn())
                break
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "machine": f"{platform.machine()} {cpu}, {os.cpu_count()} CPUs, {platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "blas_threads": blas_threads,
    }


def same_outcome(a: Record, b: Record) -> bool:
    """Two passes agree on an evaluation: the same error, or the same report and x1."""
    import numpy as np

    if a.error is not None or b.error is not None:
        return a.error == b.error
    if (a.x1 is None) != (b.x1 is None) or (a.x1 is not None and not np.array_equal(a.x1, b.x1)):
        return False
    return a.report == b.report


def check_run(passes: list[list[FoldResult]], seed: int, tracer) -> dict:
    """Independent checks after the timed work: the failed evaluations of one
    pass, the check errors, and the mean regret per method over the
    evaluations that agreed with HiGHS."""
    import numpy as np

    import checks
    from tspo import two_stage
    from tspo.errors import SolverFailure, TspoError

    oracle = checks.Stage1Oracle()
    failed, wrong, agreeing = [], [], None
    regrets: dict[str, list[float]] = {}
    first = [rec for res in passes[0] for rec in res.records]
    for p, later in enumerate(passes[1:], start=1):
        records = [rec for res in later for rec in res.records]
        diff = sum(not same_outcome(a, b) for a, b in zip(first, records))
        if diff or len(records) != len(first):
            wrong.append(f"pass {p} did not reproduce pass 0: {diff} evaluations differ")
    for rec in first:
        tag = f"fold {rec.fold} {rec.method} test {rec.index}"
        if rec.error is not None:
            failed.append(f"{tag}: raised {rec.error}")
            continue
        x1 = rec.x1
        if x1 is None:  # the commitment was not captured; re-solve Stage 1
            try:
                x1 = two_stage.stage1_solve(rec.problem, rec.theta_hat).x
            except TspoError as exc:
                failed.append(f"{tag}: stage 1 re-solve raised {type(exc).__name__}: {exc}")
                continue
        bad = checks.check_evaluation(oracle, rec.problem, rec.theta_hat, rec.theta, rec.report, x1)
        if bad:
            failed.append(f"{tag}: " + "; ".join(bad))
            continue
        rep = rec.report
        if not checks.regret_nonnegative(rep.preg, rep.true_opt):
            wrong.append(f"{tag}: negative regret {rep.preg!r}")
        if rec.method == "perfect" and not checks.regret_zero(rep.preg, rep.true_opt):
            wrong.append(f"{tag}: perfect predictor regret {rep.preg!r}")
        regrets.setdefault(rec.method, []).append(rep.preg)
        agreeing = agreeing or (rec.problem, rec.theta_hat, rec.theta, rep, x1)
    if agreeing is None:
        wrong.append("no evaluation agreed with HiGHS")

    # Finite differences of the relaxed regret at the last fold's 2s weights.
    last = passes[-1][-1]
    fd_sample = None
    for features, theta in last.train_set:
        try:
            pairs, norm = checks.directional_fd(
                last.records[0].problem, last.net, features, theta, MU_CUTOFF, seed
            )
        except SolverFailure:
            continue
        for fd, analytic in pairs:
            if not checks.fd_agrees(fd, analytic, norm):
                wrong.append(f"finite difference {fd!r} vs gradient {analytic!r} (|grad| {norm:.4g})")
        fd_sample = (*pairs[0], norm)
        break
    if fd_sample is None:
        wrong.append("no training instance gave a surrogate gradient")

    node_pair = None
    if tracer is not None:
        pairs = tracer.bnb_pairs()
        bad_pairs = [p for p in pairs if not checks.nodes_match(*p)]
        if bad_pairs:
            wrong.append(f"{len(bad_pairs)} B&B spans whose LP spans do not total node_count, e.g. {bad_pairs[0]}")
        node_pair = pairs[0] if pairs else None

    if agreeing is not None and fd_sample is not None:
        silent = checks.self_test(oracle, agreeing, fd_sample, agreeing[3].true_opt, node_pair)
        wrong.extend(f"self-test: the {name} did not fire on a corrupted value" for name in silent)

    return {
        "failed": failed,
        "wrong": wrong,
        "mean_regret": {m: float(np.mean(v)) for m, v in regrets.items()},
    }


def best_2s_fit(fold_passes: list[FoldResult]) -> float:
    """A 2s fit at its fastest: each training step at its fastest across the
    passes, plus the fastest remainder (set-up before the first step).  The
    whole fit is one unit when the steps were not clocked."""
    steps = [r.step_s for r in fold_passes]
    if not steps[0] or any(len(s) != len(steps[0]) for s in steps):
        return min(r.fit_s["2s"] for r in fold_passes)
    rest = min(r.fit_s["2s"] - sum(r.step_s) for r in fold_passes)
    return rest + sum(min(ts) for ts in zip(*steps))


def end_to_end_metrics(passes: list[list[FoldResult]], setup_s: float, peak_rss_mb: float) -> dict:
    """Each fit (each 2s step) and each evaluation at its fastest across the
    identical passes: wall_s sums them all, and the rates divide one pass's
    steps and evaluations by the 2s fits' and the evaluations' sums."""
    folds = range(len(passes[0]))
    fit_best = [{m: min(ps[k].fit_s[m] for ps in passes) for m in passes[0][k].fit_s} for k in folds]
    for k in folds:
        fit_best[k]["2s"] = best_2s_fit([ps[k] for ps in passes])
    eval_best = [[min(ts) for ts in zip(*(ps[k].eval_s for ps in passes))] for k in folds]
    train_s = sum(f["2s"] for f in fit_best)
    eval_s = sum(sum(e) for e in eval_best)
    wall_s = sum(sum(f.values()) for f in fit_best) + eval_s
    steps = sum(res.steps for res in passes[0])
    evals = sum(len(res.records) for res in passes[0])
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "train_steps_per_s": (steps / train_s, "1/s"),
        "evals_per_s": (evals / eval_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    try:
        import_tspo()
    except ImportError as exc:
        print(f"cannot import tspo from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    from spans import Probes, Tracer  # perfbench/ is sys.path[0]

    tracer = Tracer() if args.trace else None
    probes = Probes()
    if tracer is not None:
        tracer.install()
    probes.install()

    n_passes = max(2, round(args.seconds / w.pass_s))
    # Every fold of every pass gets its own problem object, and all stay
    # referenced for the run: the true-optimum cache is keyed on id(problem),
    # so a shared problem would carry optima into the next pass and a freed
    # one could lend its id to a new one.
    spec, problem = build_problem(w, 0)
    problems_kept = [problem]
    folds = make_folds(make_pool(spec, w), w, args.seed)
    setup_s = process_age()

    def set_phase(name: str) -> None:
        if tracer is not None:
            tracer.phase = name

    passes = []
    try:
        for p in range(n_passes):
            passes.append([])
            for k, (train_set, test_set) in enumerate(folds):
                if p or k:
                    set_phase("between")
                    problems_kept.append(build_problem(w, k)[1])
                set_phase("timed")
                passes[-1].append(run_fold(k, w, problems_kept[-1], train_set, test_set, probes))
    finally:
        probes.uninstall()
        if tracer is not None:
            tracer.uninstall()
            tracer.phase = "check"
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = end_to_end_metrics(passes, setup_s, peak_rss_mb)

    import checks  # imported after the timed work, so its scipy.optimize counts in neither

    with checks.quiet_stdout():
        found = check_run(passes, args.seed, tracer)
    results = [res for ps in passes for res in ps]
    steps = sum(res.steps for res in results)
    evals = sum(len(res.records) for res in results)
    skipped = sum(res.skipped for res in results)
    failed = n_passes * len(found["failed"]) + skipped
    correct = not found["wrong"]

    if tracer is not None:
        layers = tracer.per_layer(n_passes, skipped)
        metrics = {
            name: {"value": value, "unit": "s" if name.endswith("_s") else "count"} for name, value in layers.items()
        }
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.write_csv(stem + ".spans.csv")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": n_passes,
        "environment": environment(),
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
        "pass_wall_s": [sum(sum(r.fit_s.values()) + sum(r.eval_s) for r in ps) for ps in passes],
        "attempted": steps + evals,
        "training_steps": steps,
        "evaluations": evals,
        "failed": failed,
        "failures_per_pass": found["failed"],
        "check_errors": found["wrong"],
        "mean_regret": found["mean_regret"],
        "metrics": metrics,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} passes={n_passes} trace={args.trace}")
    for key in ("machine", "python", "numpy", "scipy", "blas_threads"):
        print(f"# {key}: {record['environment'][key]}")
    print(f"# attempted {steps + evals} ({steps} 2s steps, {evals} evaluations), failed {failed}")
    for line in found["wrong"]:
        print(f"# CHECK FAILED: {line}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": steps + evals, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
