"""One-off figure: exact evaluation with ``evaluate(jobs=1)`` against ``jobs=2``.

    python3 perfbench/jobs.py [--seed N] [--repeats R]

Uses fold 0 of the knapsack-eval workload: fits its four methods once, then
times one ``evaluate`` call over the fold's test set per method, alternating
the two settings.  Each timing gets a freshly built problem object, so no
setting finds true optima that the other one cached.  ``jobs=2`` runs a
thread pool, so this script, unlike run.py, starts threads.
"""

import argparse
import statistics
import time

from run import WORKLOADS, FoldResult, build_problem, fit, import_tspo, make_folds, make_pool


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    import_tspo()
    from tspo import two_stage

    w = WORKLOADS["knapsack-eval"]
    spec, problem = build_problem(w, 0)
    train_set, test_set = make_folds(make_pool(spec, w), w, args.seed)[0]
    predictors = {m: fit(m, problem, train_set, w, 0, FoldResult()) for m in w.methods}
    keep = [problem]  # problems stay referenced: the true-optimum cache is keyed on id(problem)
    times = {1: [], 2: []}
    for rep in range(args.repeats):
        for jobs in ((1, 2) if rep % 2 == 0 else (2, 1)):
            problem = build_problem(w, 0)[1]
            keep.append(problem)
            t0 = time.perf_counter()
            for predict in predictors.values():
                two_stage.evaluate(problem, predict, test_set, jobs=jobs)
            times[jobs].append(time.perf_counter() - t0)
    n = len(test_set) * len(predictors)
    for jobs, ts in times.items():
        print(f"jobs={jobs}: {n} evaluations, median {statistics.median(ts):.3f} s over {len(ts)} repeats {ts}")
    print(f"speedup jobs=2 over jobs=1: {statistics.median(times[1]) / statistics.median(times[2]):.3f}")


if __name__ == "__main__":
    main()
