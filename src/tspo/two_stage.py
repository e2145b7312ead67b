"""Two-stage optimization with post-hoc regret: solving, training, evaluation.

Stage 1 solves the parameterized problem under predicted parameters and
commits softly to its solution.  Once true parameters are revealed, Stage 2
re-optimizes with a penalty for deviating from the commitment.  The
post-hoc regret of a prediction is

    preg = obj(x2, theta) + Pen(x1 -> x2, theta) - obj(x*(theta), theta)

which is nonnegative and zero under perfect prediction.  Training treats
the regret of the barrier-relaxed stages as a differentiable surrogate:
its weight gradient is assembled from the analytic regret derivatives, the
KKT implicit Jacobians of both stages, the template slot maps, and network
backpropagation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import kkt
from .barrier import BarrierSolution, solve_barrier
from .errors import (
    CorrectionInfeasible,
    Infeasible,
    NotInterior,
    NumericalFailure,
    SingularSystem,
    SolverFailure,
)
from .exact import ExactSolution, Status, solve_milp_bnb
from .milp import ParamTemplate, StandardFormMilp, backprop_slots, check_feasibility, instantiate
from .predictor import Mlp, adam_step, backward, forward, init_adam, init_mlp

log = logging.getLogger("tspo")


@dataclass(frozen=True)
class TwoStageProblem:
    """One benchmark family: templates, penalty, and regret derivatives.

    ``stage1`` is a template over the parameters theta (length t1).
    ``stage2`` is one template over the concatenation [theta, x1], of length
    t1 + d1: theta fills the Stage-2 entries it fills in Stage 1, and the
    Stage-1 decision x1 (length d1) fills the commitment entries through the
    slots with theta_index >= t1.  Stage-2 variable vectors may carry
    auxiliary penalty variables after their first d1 entries, which are the
    decision comparable with Stage 1.  ``dPReg_dx2`` and ``dPReg_dx1`` are
    the analytic partial derivatives of regret in the final and committed
    solutions; ``dPReg_dx2`` is sized for the full Stage-2 variable vector.
    """

    name: str
    stage1: ParamTemplate
    stage2: ParamTemplate
    penalty_eval: Callable[[np.ndarray, np.ndarray, np.ndarray], float]
    dPReg_dx2: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    dPReg_dx1: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    maximization: bool = False
    # True optima by the bytes of theta; see ``true_optimum``.
    tov_cache: dict[bytes, ExactSolution] = field(default_factory=dict, init=False, compare=False, repr=False)

    def stage2_build(self, x1: np.ndarray, theta: np.ndarray) -> StandardFormMilp:
        return instantiate(self.stage2, np.concatenate([theta, x1]))

    def extract_x2(self, x2_full: np.ndarray) -> np.ndarray:
        return np.asarray(x2_full)[: self.stage1.skeleton.d]


@dataclass(frozen=True)
class RegretReport:
    preg: float
    stage1_obj: float
    stage2_obj: float
    penalty: float
    true_opt: float
    stage1_feasible_under_truth: bool


# Share of the training set, taken from its end, whose regret ``train`` tracks.
VAL_FRACTION = 0.2


@dataclass
class TrainConfig:
    epochs: int = 12
    lr: float = 1e-3
    mu_cutoff: float = 1e-3
    hidden: tuple[int, ...] = (16, 16, 16)
    seed: int = 0
    track_validation: bool = False


def true_optimum(problem: TwoStageProblem, theta: np.ndarray) -> ExactSolution:
    """Optimum under the true parameters; cached on the problem since every
    method evaluated on the same test instance shares this solve."""
    key = np.asarray(theta, dtype=float).tobytes()
    sol = problem.tov_cache.get(key)
    if sol is None:
        sol = solve_milp_bnb(instantiate(problem.stage1, theta))
        problem.tov_cache[key] = sol
    if sol.status is not Status.OPTIMAL:
        raise Infeasible(f"{problem.name}: no true optimum ({sol.status.value})")
    return sol


def stage1_solve(
    problem: TwoStageProblem,
    theta_hat: np.ndarray,
    mode: str = "exact",
    mu_cutoff: float = 1e-3,
    warm: BarrierSolution | None = None,
):
    """Solve Stage 1 under estimated parameters.

    ``exact`` returns the MILP optimum; ``barrier`` returns the interior
    solution of the relaxation at the cutoff (the training surrogate),
    started from ``warm`` when given, interior or not (see ``solve_barrier``).
    """
    milp = instantiate(problem.stage1, theta_hat)
    if mode == "exact":
        sol = solve_milp_bnb(milp)
        if sol.status is not Status.OPTIMAL:
            raise Infeasible(f"{problem.name}: stage 1 {sol.status.value} under estimated parameters")
        return sol
    if mode == "barrier":
        return solve_barrier(milp, mu_cutoff, warm=warm)
    raise ValueError(f"unknown mode {mode!r}")


def stage2_solve(
    problem: TwoStageProblem,
    x1: np.ndarray,
    theta: np.ndarray,
    mode: str = "exact",
    mu_cutoff: float = 1e-3,
    warm: BarrierSolution | None = None,
):
    """Solve the penalty-augmented Stage 2 under true parameters; ``warm``
    as in ``stage1_solve``."""
    milp = problem.stage2_build(np.asarray(x1, dtype=float), theta)
    if mode == "exact":
        sol = solve_milp_bnb(milp)
        if sol.status is not Status.OPTIMAL:
            raise Infeasible(f"{problem.name}: stage 2 {sol.status.value}; benchmark should be feasible by construction")
        return sol
    if mode == "barrier":
        return solve_barrier(milp, mu_cutoff, warm=warm)
    raise ValueError(f"unknown mode {mode!r}")


def post_hoc_regret(problem: TwoStageProblem, theta_hat: np.ndarray, theta: np.ndarray) -> RegretReport:
    """Exact post-hoc regret of predicting ``theta_hat`` when truth is ``theta``."""
    s1 = stage1_solve(problem, theta_hat)
    s2 = stage2_solve(problem, s1.x, theta)
    opt = true_optimum(problem, theta)
    true_milp = instantiate(problem.stage1, theta)
    x2 = problem.extract_x2(s2.x)
    stage2_obj = float(true_milp.c @ x2)
    pen = float(problem.penalty_eval(s1.x, s2.x, theta))
    feas = check_feasibility(true_milp, s1.x)
    return RegretReport(
        preg=stage2_obj + pen - opt.objective,
        stage1_obj=s1.objective,
        stage2_obj=stage2_obj,
        penalty=pen,
        true_opt=opt.objective,
        stage1_feasible_under_truth=feas,
    )


def _surrogate_stages(problem, theta_hat, theta, mu_cutoff, warm=(None, None)):
    """Both relaxed stages at the cutoff, started from the ``warm`` pair.  A
    failed or non-converged solve raises SolverFailure: its point is not the
    stationary one the KKT gradient assumes, so training skips the step."""
    try:
        sol1 = stage1_solve(problem, theta_hat, mode="barrier", mu_cutoff=mu_cutoff, warm=warm[0])
        if not sol1.converged:
            raise NumericalFailure("stage 1 did not converge")
        sol2 = stage2_solve(problem, sol1.x, theta, mode="barrier", mu_cutoff=mu_cutoff, warm=warm[1])
        if not sol2.converged:
            raise NumericalFailure("stage 2 did not converge")
    except (Infeasible, NumericalFailure, SingularSystem) as exc:
        raise SolverFailure(f"{problem.name}: surrogate solve failed: {exc}") from exc
    return sol1, sol2


def surrogate_loss(
    problem: TwoStageProblem,
    net: Mlp,
    features: np.ndarray,
    theta: np.ndarray,
    mu_cutoff: float = 1e-3,
) -> float:
    """Value of the barrier-relaxed regret, up to the constant true optimum
    (used by gradient checks)."""
    theta_hat, _ = forward(net, features)
    sol1, sol2 = _surrogate_stages(problem, theta_hat, theta, mu_cutoff)
    true_milp = instantiate(problem.stage1, theta)
    x2 = problem.extract_x2(sol2.x)
    return float(true_milp.c @ x2) + float(problem.penalty_eval(sol1.x, sol2.x, theta))


def _slot_blocks(template: ParamTemplate, first: int = 0) -> tuple[str, ...]:
    """The blocks holding a slot of parameter entry ``first`` or later."""
    return tuple(dict.fromkeys(s.block for s in template.slots if s.theta_index >= first))


def surrogate_loss_grad(
    problem: TwoStageProblem,
    net: Mlp,
    features: np.ndarray,
    theta: np.ndarray,
    mu_cutoff: float = 1e-3,
    warm: list | None = None,
):
    """Weight gradient of the relaxed regret via both KKT Jacobians.

    Chain: regret derivatives at the relaxed solutions, pulled through the
    Stage-2 solution map (commitment slots), added to the direct regret
    derivative in the commitment, pulled through the Stage-1 solution map
    (parameter slots), and finally through the network.

    ``warm``, when given, is a two-item list of the Stage-1 and Stage-2
    ``BarrierSolution`` to start from (None starts cold).  Once both stages
    have converged it is overwritten in place with their solutions, so a
    caller that keeps one list per instance warm-starts that instance's
    next step.
    """
    theta_hat, tape = forward(net, features)
    sol1, sol2 = _surrogate_stages(problem, theta_hat, theta, mu_cutoff, warm or (None, None))
    if warm is not None:
        warm[:] = (sol1, sol2)

    t1 = problem.stage1.t
    u2 = np.asarray(problem.dPReg_dx2(sol1.x, sol2.x, theta), dtype=float)
    try:
        vjps2 = kkt.vjp(sol2, u2, blocks=_slot_blocks(problem.stage2, t1))
        via_stage2 = backprop_slots(problem.stage2, vjps2)[t1:]  # d(regret)/d(x1) through stage 2
        u1 = via_stage2 + np.asarray(problem.dPReg_dx1(sol1.x, sol2.x, theta), dtype=float)
        vjps1 = kkt.vjp(sol1, u1, blocks=_slot_blocks(problem.stage1))
    except (NumericalFailure, SingularSystem, NotInterior) as exc:
        raise SolverFailure(f"{problem.name}: gradient assembly failed: {exc}") from exc
    dtheta = backprop_slots(problem.stage1, vjps1)
    return backward(net, tape, dtheta)


@dataclass
class TrainHistory:
    epochs: list[int] = field(default_factory=list)
    mean_val_preg: list[float] = field(default_factory=list)
    skipped: int = 0

    def rows(self) -> list[tuple[int, float]]:
        return list(zip(self.epochs, self.mean_val_preg))


def train(problem: TwoStageProblem, instances, config: TrainConfig) -> tuple[Mlp, TrainHistory]:
    """Empirical risk minimization on the surrogate regret.

    Per-instance stochastic steps in a freshly shuffled order each epoch;
    instances whose relaxations fail to solve are skipped with a warning.
    After an instance's first converged step, its barrier solves start warm
    from that step's solutions.  With ``track_validation`` the history
    records exact mean regret after each epoch on a fixed slice: the last
    fifth of the training set, which training also steps on, so it is not a
    held-out validation set.
    """
    if not len(instances):
        raise ValueError("empty training set")
    m = instances[0][0].shape[1]
    net = init_mlp((m, *config.hidden, 1), seed=config.seed)
    state = init_adam(net, lr=config.lr)
    history = TrainHistory()
    n_val = int(round(VAL_FRACTION * len(instances)))
    val = instances[len(instances) - n_val :] if n_val else []
    rng = np.random.default_rng(config.seed)
    order = np.arange(len(instances))
    # Each training instance's last converged (stage 1, stage 2) barrier
    # solutions: its next step re-centres from them instead of running
    # phase-1 and the mu schedule again.
    warm_starts: dict[int, list] = {}

    def validate(epoch: int):
        if not config.track_validation or not val:
            return
        pregs = []
        for features, theta in val:
            theta_hat, _ = forward(net, features)
            pregs.append(post_hoc_regret(problem, theta_hat, theta).preg)
        history.epochs.append(epoch)
        history.mean_val_preg.append(float(np.mean(pregs)))

    validate(0)
    for epoch in range(1, config.epochs + 1):
        rng.shuffle(order)
        for i in order:
            features, theta = instances[i]
            warm = warm_starts.setdefault(int(i), [None, None])
            try:
                grads = surrogate_loss_grad(problem, net, features, theta, config.mu_cutoff, warm=warm)
            except SolverFailure as exc:
                history.skipped += 1
                log.warning("skipping instance %d: %s", i, exc)
                continue
            adam_step(net, state, grads)
        validate(epoch)
    return net, history


@dataclass(frozen=True)
class EvalSummary:
    mean_preg: float
    std_preg: float
    mean_tov: float
    feasibility_fraction: float
    n: int


def evaluate(problem: TwoStageProblem, predict, instances) -> tuple[EvalSummary, list[RegretReport]]:
    """Exact two-stage evaluation of any predictor over a test set.

    ``predict`` is called as predict(features, theta); fitted models ignore
    the second argument.  Reported TOV is in the problem's natural sense
    (sign flipped back for maximization benchmarks).
    """
    reports = [
        post_hoc_regret(problem, np.asarray(predict(features, theta), dtype=float), theta)
        for features, theta in instances
    ]
    pregs = np.array([r.preg for r in reports])
    tovs = np.array([r.true_opt for r in reports])
    if problem.maximization:
        tovs = -tovs
    feas = np.mean([r.stage1_feasible_under_truth for r in reports]) if reports else 0.0
    std = float(np.std(pregs, ddof=1)) if len(pregs) > 1 else 0.0
    return (
        EvalSummary(float(np.mean(pregs)), std, float(np.mean(tovs)), float(feas), len(reports)),
        reports,
    )


def as_predict_fn(model):
    """Wrap a fitted model (with .predict) into the evaluate() calling convention."""

    def predict(features, theta):
        return model.predict(features)

    return predict


def perfect_predictor(features, theta):
    return theta


@dataclass(frozen=True)
class Proposition1Verdict:
    holds: bool
    two_stage_value: float
    corrected_value: float


def proposition1_check(problem: TwoStageProblem, theta_hat, theta, correction) -> Proposition1Verdict:
    """Stage-2 optimization never loses to a hand-written correction.

    Both sides are objective-plus-penalty under the true parameters; the
    correction output must itself be feasible there.
    """
    s1 = stage1_solve(problem, theta_hat)
    x_corr = np.asarray(correction(s1.x), dtype=float)
    true_milp = instantiate(problem.stage1, theta)
    if not check_feasibility(true_milp, x_corr):
        raise CorrectionInfeasible("correction output infeasible under true parameters")
    s2 = stage2_solve(problem, s1.x, theta)
    x2 = problem.extract_x2(s2.x)
    lhs = float(true_milp.c @ x2) + float(problem.penalty_eval(s1.x, s2.x, theta))
    # Penalty comparison needs the corrected point in stage-2 variable shape.
    x_corr_full = np.concatenate([x_corr, np.zeros(len(s2.x) - len(x_corr))]) if len(s2.x) > len(x_corr) else x_corr
    rhs = float(true_milp.c @ x_corr) + float(problem.penalty_eval(s1.x, x_corr_full, theta))
    return Proposition1Verdict(holds=lhs <= rhs + 1e-9, two_stage_value=lhs, corrected_value=rhs)
