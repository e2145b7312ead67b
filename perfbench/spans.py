"""Spans recorded around tspo's layer boundaries, from outside the package.

``Tracer.install()`` replaces the public functions each layer's callers use
(in the namespace of the calling module, since tspo imports names directly)
with wrappers that record a span: name, start, end, parent, the benchmark
phase it ran in, and counts read from the returned value.  Spans stay in
memory; ``write_csv`` writes them out once the run is over.  A layer's self
time is its spans' durations minus the part covered by their child spans.

``Probes`` holds the two wrappers the untraced run keeps.  One records the
exact Stage-1 solution (the commitment x1) of each evaluation, so the
independent checks can re-solve Stage 2 at the program's own x1 without
repeating the Stage-1 solve.  The other notes when each 2s training step
starts (one clock read per step), so that each step can be timed on its own.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from tspo import barrier, cli, dataio, exact, kkt, predictor, two_stage
from tspo.exact import Status

# (module, attribute, span name); each wrapper records one span per call.
_SPANS = (
    (cli, "build_problem", "cli.build_problem"),
    (dataio, "generate", "dataio.generate"),
    (dataio, "split", "dataio.split"),
    (predictor, "train_mse", "predictor.train_mse"),
    (predictor, "knn_predict", "predictor.knn_predict"),
    (two_stage, "forward", "predictor.forward"),
    (two_stage, "backward", "predictor.backward"),
    (two_stage, "adam_step", "predictor.adam"),
    (two_stage, "surrogate_loss_grad", "two_stage.surrogate_grad"),
    (two_stage, "post_hoc_regret", "two_stage.post_hoc_regret"),
    (two_stage, "true_optimum", "two_stage.true_optimum"),
    (two_stage, "instantiate", "milp.instantiate"),
    (two_stage, "solve_milp_bnb", "exact.milp"),
    (exact, "solve_lp_exact", "exact.lp"),
    (kkt, "vjp", "kkt.vjp"),
)

SETUP_LAYERS = ("cli.build_problem", "dataio.generate", "dataio.split")

# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    "predictor.forward_s", "predictor.backward_s", "predictor.adam_s", "predictor.train_mse_s",
    "predictor.knn_predict_s",
    "barrier.stage1_solves", "barrier.stage1_s", "barrier.stage1_newton_iters",
    "barrier.stage2_solves", "barrier.stage2_s", "barrier.stage2_newton_iters",
    "barrier.phase1_calls", "barrier.phase1_s", "barrier.nonconverged",
    "kkt.vjp_calls", "kkt.vjp_s",
    "exact.milp_solves", "exact.milp_s", "exact.bnb_nodes", "exact.lp_solves", "exact.lp_s",
    "exact.lp_infeasible", "exact.lp_newton_iters",
    "two_stage.surrogate_grad_s", "two_stage.post_hoc_regret_s", "two_stage.true_optimum_calls",
    "two_stage.true_optimum_hits", "two_stage.train_skipped",
    "milp.instantiate_calls", "milp.instantiate_s", "problems.stage2_build_s",
    "cli.build_problem_s", "dataio.generate_s", "dataio.split_s",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "attrs", "child_time")

    def __init__(self, name, start, parent, phase):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.phase = phase
        self.attrs = {}
        self.child_time = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


class Tracer:
    """In-memory span recorder; ``install``/``uninstall`` patch tspo's modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else -1
        span = Span(name, time.perf_counter(), parent, self.phase)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.end - span.start

    def current(self) -> Span | None:
        return self.spans[self.stack[-1]] if self.stack else None

    def _wrap(self, fn, name, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(span, result)
            return result

        return wrapper

    def _patch(self, owner, attr, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``; skip a name that a
        refactor removed, so its metrics read 0 instead of the run failing."""
        original = getattr(owner, attr, None)
        if original is not None:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        results = {
            "exact.milp": lambda span, sol: span.attrs.update(nodes=sol.node_count),
            "exact.lp": lambda span, sol: span.attrs.update(infeasible=sol.status is Status.INFEASIBLE),
        }
        for module, attr, name in _SPANS:
            self._patch(module, attr, lambda fn, name=name: self._wrap(fn, name, results.get(name)))

        # Stage solves are barrier spans only in barrier (surrogate) mode; the
        # exact mode is already covered by the exact.milp spans beneath it.
        # ``mode`` is the third positional argument of stage1_solve and the
        # fourth of stage2_solve.
        for attr, name, mode_pos in (("stage1_solve", "barrier.stage1", 2), ("stage2_solve", "barrier.stage2", 3)):
            self._patch(two_stage, attr, lambda fn, name=name, pos=mode_pos: self._stage_wrapper(fn, name, pos))

        # Phase-1 inside a surrogate stage is its own barrier span; inside the
        # exact LP engine it stays part of exact.lp.
        def phase1_wrapper(phase1):
            def wrapper(*args, **kwargs):
                cur = self.current()
                if cur is None or not cur.name.startswith("barrier.stage"):
                    return phase1(*args, **kwargs)
                span = self.open("barrier.phase1")
                try:
                    return phase1(*args, **kwargs)
                finally:
                    self.close(span)

            return wrapper

        self._patch(barrier, "phase1_interior", phase1_wrapper)

        # Newton iterations of the exact LP engine: counted on the enclosing
        # exact.lp span, no span of their own.
        def lp_barrier_wrapper(lp_barrier):
            def wrapper(*args, **kwargs):
                sol = lp_barrier(*args, **kwargs)
                cur = self.current()
                if cur is not None:
                    cur.attrs["newton"] = cur.attrs.get("newton", 0) + sol.iterations
                return sol

            return wrapper

        self._patch(exact, "solve_barrier", lp_barrier_wrapper)
        self._patch(two_stage.TwoStageProblem, "stage2_build", lambda fn: self._wrap(fn, "problems.stage2_build"))

    def _stage_wrapper(self, fn, name, mode_pos):
        def record(span, sol):
            span.attrs.update(newton=sol.iterations, nonconverged=not sol.converged)

        traced = self._wrap(fn, name, record)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mode = kwargs.get("mode", args[mode_pos] if len(args) > mode_pos else "exact")
            return traced(*args, **kwargs) if mode == "barrier" else fn(*args, **kwargs)

        return wrapper

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------------
    def per_layer(self, passes: int, skipped_steps: int) -> dict[str, float]:
        """Per-layer metrics: set-up spans once, the rest summed over the
        timed folds and divided by the number of passes.  ``skipped_steps``
        comes from the TrainHistory values ``train`` returned."""
        n: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        attr: dict[str, float] = defaultdict(float)
        has_milp_child: set[int] = set()
        for span in self.spans:
            if span.phase == "timed" and span.name == "exact.milp" and span.parent >= 0:
                has_milp_child.add(span.parent)
        tov_hits = 0
        for i, span in enumerate(self.spans):
            if span.phase == "setup" and span.name in SETUP_LAYERS:
                self_s["setup:" + span.name] += span.self_time
            if span.phase != "timed":
                continue
            n[span.name] += 1
            self_s[span.name] += span.self_time
            for key, value in span.attrs.items():
                attr[f"{span.name}.{key}"] += float(value)
            if span.name == "two_stage.true_optimum" and i not in has_milp_child:
                tov_hits += 1
        r = float(passes)
        out = {
            "predictor.forward_s": self_s["predictor.forward"] / r,
            "predictor.backward_s": self_s["predictor.backward"] / r,
            "predictor.adam_s": self_s["predictor.adam"] / r,
            "predictor.train_mse_s": self_s["predictor.train_mse"] / r,
            "predictor.knn_predict_s": self_s["predictor.knn_predict"] / r,
            "barrier.phase1_calls": n["barrier.phase1"] / r,
            "barrier.phase1_s": self_s["barrier.phase1"] / r,
            "barrier.nonconverged": (attr["barrier.stage1.nonconverged"] + attr["barrier.stage2.nonconverged"]) / r,
            "kkt.vjp_calls": n["kkt.vjp"] / r,
            "kkt.vjp_s": self_s["kkt.vjp"] / r,
            "exact.milp_solves": n["exact.milp"] / r,
            "exact.milp_s": self_s["exact.milp"] / r,
            "exact.bnb_nodes": attr["exact.milp.nodes"] / r,
            "exact.lp_solves": n["exact.lp"] / r,
            "exact.lp_s": self_s["exact.lp"] / r,
            "exact.lp_infeasible": attr["exact.lp.infeasible"] / r,
            "exact.lp_newton_iters": attr["exact.lp.newton"] / r,
            "two_stage.surrogate_grad_s": self_s["two_stage.surrogate_grad"] / r,
            "two_stage.post_hoc_regret_s": self_s["two_stage.post_hoc_regret"] / r,
            "two_stage.true_optimum_calls": n["two_stage.true_optimum"] / r,
            "two_stage.true_optimum_hits": tov_hits / r,
            "two_stage.train_skipped": skipped_steps / r,
            "milp.instantiate_calls": n["milp.instantiate"] / r,
            "milp.instantiate_s": self_s["milp.instantiate"] / r,
            "problems.stage2_build_s": self_s["problems.stage2_build"] / r,
            "cli.build_problem_s": self_s["setup:cli.build_problem"],
            "dataio.generate_s": self_s["setup:dataio.generate"],
            "dataio.split_s": self_s["setup:dataio.split"],
        }
        for stage in ("stage1", "stage2"):
            out[f"barrier.{stage}_solves"] = n[f"barrier.{stage}"] / r
            out[f"barrier.{stage}_s"] = self_s[f"barrier.{stage}"] / r
            out[f"barrier.{stage}_newton_iters"] = attr[f"barrier.{stage}.newton"] / r
        return {name: out[name] for name in PER_LAYER}

    def bnb_pairs(self) -> list[tuple[int, int]]:
        """(node_count returned, exact.lp spans directly beneath) per B&B span."""
        lp_under: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span.name == "exact.lp" and span.parent >= 0 and self.spans[span.parent].name == "exact.milp":
                lp_under[span.parent] += 1
        return [
            (int(span.attrs["nodes"]), lp_under[i])
            for i, span in enumerate(self.spans)
            if span.name == "exact.milp" and "nodes" in span.attrs
        ]

    def write_csv(self, path: str) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start_s,end_s,parent,phase,attrs\n")
            for i, s in enumerate(self.spans):
                attrs = ";".join(f"{k}={v}" for k, v in s.attrs.items())
                fh.write(f"{i},{s.name},{s.start - t0:.9f},{s.end - t0:.9f},{s.parent},{s.phase},{attrs}\n")


class Probes:
    """Stage-1 commitments of evaluations and start times of 2s steps."""

    def __init__(self):
        self.solutions: list = []
        self.step_starts: list[float] = []
        self._saved: list[tuple[str, object]] = []

    def install(self) -> None:
        def capture(stage1):
            @functools.wraps(stage1)
            def wrapper(*args, **kwargs):
                sol = stage1(*args, **kwargs)
                if kwargs.get("mode", args[2] if len(args) > 2 else "exact") == "exact":
                    self.solutions.append(sol)
                return sol

            return wrapper

        def clock(grad):
            @functools.wraps(grad)
            def wrapper(*args, **kwargs):
                self.step_starts.append(time.perf_counter())
                return grad(*args, **kwargs)

            return wrapper

        for attr, make in (("stage1_solve", capture), ("surrogate_loss_grad", clock)):
            original = getattr(two_stage, attr, None)
            if original is not None:  # without it the checks re-solve, or fits are one unit
                self._saved.append((attr, original))
                setattr(two_stage, attr, make(original))

    def uninstall(self) -> None:
        for attr, original in self._saved:
            setattr(two_stage, attr, original)
        self._saved = []

    def take_commitment(self):
        """The last commitment captured since the previous call, or None."""
        sol = self.solutions[-1] if self.solutions else None
        self.solutions.clear()
        return sol

    def take_steps(self, end: float) -> list[float]:
        """Durations of the steps started since the previous call, the last one
        ending at ``end``: consecutive starts bound each step, Adam included."""
        starts, self.step_starts = self.step_starts, []
        return [b - a for a, b in zip(starts, starts[1:] + [end])]
