"""Independent output checks for the benchmark.

Every exact evaluation is re-solved with ``scipy.optimize.milp`` (HiGHS),
which shares no code with tspo's solvers:

- the Stage-1 optimum under the predicted parameters,
- the Stage-2 optimum at the program's own commitment x1, compared as
  objective plus penalty (the quantity regret is built from),
- the true optimum.

An evaluation that raised from the exact path or disagrees with HiGHS is a
failed operation.  On the evaluations that did not fail, regret must be
nonnegative, and zero for the perfect predictor.  A central finite
difference of ``surrogate_loss`` along two directions must match
``surrogate_loss_grad`` at the trained 2s weights.  ``self_test`` feeds each
check a corrupted value and confirms that it fires.
"""

from __future__ import annotations

import contextlib
import os
import sys
from dataclasses import replace

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from tspo.milp import instantiate
from tspo.two_stage import surrogate_loss, surrogate_loss_grad

OBJ_TOL = 1e-6  # relative to 1 + |objective|; objectives here are O(10)
FD_STEP = 1e-5  # the step of the acceptance suite's gradient checks
FD_TOL = 5e-3  # the acceptance suite's end-to-end gradient tolerance


@contextlib.contextmanager
def quiet_stdout():
    """Send file descriptor 1 to /dev/null: HiGHS prints solver chatter there
    even with ``disp`` off, and the benchmark's last stdout line must be JSON."""
    sys.stdout.flush()
    saved = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    try:
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)
        os.close(devnull)


def highs_solve(model) -> tuple[np.ndarray, float] | None:
    """Optimal (x, objective) of a tspo StandardFormMilp, or None if infeasible.

    The canonical form is min c'x s.t. Ax = b, Gx >= h, x >= 0 with
    integrality on ``int_vars``.  The relative gap is 0, not HiGHS's default
    1e-4, so the optimum is proven.
    """
    constraints = []
    if model.p:
        constraints.append(LinearConstraint(model.A, model.b, model.b))
    if model.q:
        constraints.append(LinearConstraint(model.G, model.h, np.inf))
    integrality = np.zeros(model.d)
    integrality[sorted(model.int_vars)] = 1
    res = milp(
        model.c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(0.0, np.inf),
        options={"mip_rel_gap": 0.0},
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not finish: {res.message}")
    return np.asarray(res.x, dtype=float), float(res.fun)


def same_objective(program: float, reference: float) -> bool:
    return bool(np.isfinite(program)) and abs(program - reference) <= OBJ_TOL * (1.0 + abs(reference))


def regret_nonnegative(preg: float, scale: float) -> bool:
    return preg >= -OBJ_TOL * (1.0 + abs(scale))


def regret_zero(preg: float, scale: float) -> bool:
    return abs(preg) <= OBJ_TOL * (1.0 + abs(scale))


def fd_agrees(fd: float, analytic: float, grad_norm: float) -> bool:
    """Directional derivative check, relative to the gradient's norm (unit directions)."""
    return abs(fd - analytic) <= FD_TOL * (1e-6 + grad_norm)


class Stage1Oracle:
    """HiGHS optima of Stage 1, memoised per (problem, parameters): every
    method evaluated on a test instance shares its true optimum.  Problems
    must stay referenced while the oracle is in use (the key holds their id)."""

    def __init__(self):
        self._memo = {}

    def __call__(self, problem, theta):
        key = (id(problem), np.asarray(theta, dtype=float).tobytes())
        if key not in self._memo:
            self._memo[key] = highs_solve(instantiate(problem.stage1, theta))
        return self._memo[key]


def check_evaluation(oracle: Stage1Oracle, problem, theta_hat, theta, report, x1) -> list[str]:
    """Compare one RegretReport with HiGHS; ``x1`` is the program's commitment.

    Returns the disagreements found, empty when the evaluation agrees.
    """
    bad = []
    stage1 = oracle(problem, theta_hat)
    if stage1 is None or not same_objective(report.stage1_obj, stage1[1]):
        bad.append(f"stage1 {report.stage1_obj!r} vs HiGHS {None if stage1 is None else stage1[1]!r}")
    opt = oracle(problem, theta)
    if opt is None or not same_objective(report.true_opt, opt[1]):
        bad.append(f"true optimum {report.true_opt!r} vs HiGHS {None if opt is None else opt[1]!r}")
    stage2 = highs_solve(problem.stage2_build(np.asarray(x1, dtype=float), theta))
    program_total = report.stage2_obj + report.penalty
    if stage2 is None:
        bad.append("stage2 infeasible under HiGHS")
    else:
        x2 = stage2[0]
        true_c = instantiate(problem.stage1, theta).c
        total = float(true_c @ problem.extract_x2(x2)) + float(problem.penalty_eval(x1, x2, theta))
        if not same_objective(program_total, total):
            bad.append(f"stage2 objective+penalty {program_total!r} vs HiGHS {total!r}")
    return bad


def directional_fd(problem, net, features, theta, mu_cutoff, seed):
    """Central differences of surrogate_loss along the normalised gradient and
    one seeded random unit direction; returns [(fd, analytic)], |grad|."""
    grads = surrogate_loss_grad(problem, net, features, theta, mu_cutoff)
    flat = np.concatenate([np.concatenate([gw.ravel(), gb.ravel()]) for gw, gb in grads])
    norm = float(np.linalg.norm(flat))
    rand = np.random.default_rng(seed).normal(size=flat.size)
    directions = [flat / (norm + 1e-300), rand / np.linalg.norm(rand)]
    params = [a for W, b in zip(net.weights, net.biases) for a in (W, b)]
    saved = [a.copy() for a in params]

    def loss_at(v):
        offset = 0
        for a, a0 in zip(params, saved):
            a[...] = a0 + v[offset : offset + a.size].reshape(a.shape)
            offset += a.size
        return surrogate_loss(problem, net, features, theta, mu_cutoff)

    pairs = []
    try:
        for u in directions:
            fd = (loss_at(FD_STEP * u) - loss_at(-FD_STEP * u)) / (2 * FD_STEP)
            pairs.append((fd, float(flat @ u)))
    finally:
        for a, a0 in zip(params, saved):
            a[...] = a0
    return pairs, norm


def nodes_match(node_count: int, lp_spans: int) -> bool:
    """B&B's returned node count equals the LP solves traced beneath it."""
    return node_count == lp_spans


def self_test(oracle: Stage1Oracle, evaluation, fd_sample, regret_scale: float, node_pair=None) -> list[str]:
    """Feed every check a corrupted value; return the checks that did not fire.

    ``evaluation`` is an agreeing (problem, theta_hat, theta, report, x1) from
    this run, ``fd_sample`` a (fd, analytic, grad_norm) triple that passed,
    and ``node_pair`` a (node_count, lp_spans) pair from a traced run.
    """
    problem, theta_hat, theta, report, x1 = evaluation
    silent = []
    for field, label in (("stage1_obj", "stage1"), ("true_opt", "true optimum"), ("penalty", "stage2")):
        corrupted = replace(report, **{field: getattr(report, field) + 1.0})
        if not any(m.startswith(label) for m in check_evaluation(oracle, problem, theta_hat, theta, corrupted, x1)):
            silent.append(f"HiGHS {label} check")
    if regret_nonnegative(-1e-3 - OBJ_TOL * (1 + abs(regret_scale)), regret_scale):
        silent.append("regret >= 0")
    if regret_zero(1e-3 + OBJ_TOL * (1 + abs(regret_scale)), regret_scale):
        silent.append("perfect predictor regret = 0")
    fd, analytic, norm = fd_sample
    if fd_agrees(fd, 1.1 * analytic + 0.1 * norm, norm):
        silent.append("finite-difference gradient")
    if node_pair is not None and nodes_match(node_pair[0] + 1, node_pair[1]):
        silent.append("B&B node count")
    return silent
