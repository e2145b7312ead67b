"""Log-barrier interior-point solver for LP relaxations.

The relaxation of the canonical MILP drops integrality and replaces the
nonnegativity and slack constraints by logarithmic barrier terms:

    min  c'x - mu * sum_j ln(x_j) - mu * sum_i ln(G_i'x - h_i)
    s.t. Ax = b

solved for a fixed barrier weight ``mu`` by a damped Newton method on the
stationarity conditions

    c - mu * X^{-1} 1 - mu * G' S^{-1} 1 - A'y = 0,     Ax = b

with S = diag(Gx - h).  ``solve_barrier`` drives ``mu`` down a geometric
schedule to a caller-chosen cutoff and returns the interior solution at the
cutoff itself, which is the point the KKT gradient module differentiates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import Infeasible, NumericalFailure
from .milp import Assignment, StandardFormMilp, _as_matrix, _as_vector, _freeze

# Geometric mu schedule and interior-point safeguards.
MU_DECREASE = 0.2
BOUNDARY_FRACTION = 0.995
ITERATE_NORM_LIMIT = 1e8
NEWTON_REG = 1e-10


@dataclass(frozen=True)
class RelaxedLp:
    """LP data (integrality dropped) fed to the barrier solver."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    G: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        c = _as_vector(self.c, None, "c")
        d = c.shape[0]
        A = _as_matrix(self.A, None, d, "A")
        b = _as_vector(self.b, A.shape[0], "b")
        G = _as_matrix(self.G, None, d, "G")
        h = _as_vector(self.h, G.shape[0], "h")
        _freeze(c, A, b, G, h)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)

    @property
    def d(self) -> int:
        return self.c.shape[0]

    @property
    def p(self) -> int:
        return self.A.shape[0]

    @property
    def q(self) -> int:
        return self.G.shape[0]


@dataclass(frozen=True)
class BarrierSolution:
    """Interior optimum of the relaxation at barrier weight ``mu``.

    ``x > 0`` and ``s = Gx - h > 0`` strictly; ``y`` are the equality duals
    in the convention  f_x(x) = A'y  at stationarity.
    """

    x: np.ndarray
    s: np.ndarray
    y: np.ndarray
    mu: float
    iterations: int
    converged: bool


def relax(milp: StandardFormMilp) -> RelaxedLp:
    """Drop integrality constraints; coefficient blocks are unchanged."""
    return RelaxedLp(milp.c, milp.A, milp.b, milp.G, milp.h)


def _as_lp(problem) -> RelaxedLp:
    return relax(problem) if isinstance(problem, StandardFormMilp) else problem


def chol_lower(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """Lower Cholesky factor of ``a`` in scipy's ``(factor, lower)`` form.

    This is the LAPACK ``potrf`` call that
    ``scipy.linalg.cho_factor(a, lower=True, check_finite=False)`` makes, so
    the factor is bit-identical; skipping scipy's wrapper layers matters
    because at the sizes here they cost several times the factorization.
    Raises ``LinAlgError`` when ``a`` is not positive definite.
    """
    c, info = dpotrf(a, lower=1, clean=0)
    if info:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    return c, True


def chol_solve(factor: tuple[np.ndarray, bool], rhs: np.ndarray) -> np.ndarray:
    """Solve with a ``chol_lower`` factor; bit-identical to
    ``scipy.linalg.cho_solve(factor, rhs, check_finite=False)``."""
    x, info = dpotrs(factor[0], rhs, lower=1)
    if info:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


def _chol_with_reg(H: np.ndarray):
    try:
        return chol_lower(H)
    except LinAlgError:
        pass
    scale = max(float(np.trace(H)) / max(H.shape[0], 1), 1.0)
    for reg in (NEWTON_REG * scale, 1e-6 * scale):
        try:
            return chol_lower(H + reg * np.eye(H.shape[0]))
        except LinAlgError:
            continue
    raise NumericalFailure("Newton system singular beyond regularization")


def _newton_core(c, A, b, Gbar, hbar, mu, x0, tol, max_iter, sbar0=None):
    """Damped Newton on the fixed-mu stationarity system.

    All barrier terms are rows of ``Gbar`` (slacks ``Gbar x - hbar > 0``);
    the caller folds the x >= 0 barrier in as identity rows when wanted.
    Slacks are carried as their own iterate and updated incrementally, which
    avoids the catastrophic cancellation of recomputing Gx - h once slacks
    shrink toward the barrier weight.  Returns (x, y, sbar, iters, converged).
    """
    d = c.shape[0]
    p = A.shape[0]
    x = np.asarray(x0, dtype=float).copy()
    y = np.zeros(p)
    sbar = (Gbar @ x - hbar) if sbar0 is None else np.asarray(sbar0, dtype=float).copy()
    if (sbar <= 0).any():
        raise NumericalFailure("Newton start point is not strictly interior")
    AT = A.T
    GbarT = Gbar.T
    no_rows = np.zeros(0)

    c_scale = 1.0 + float(np.abs(c).max()) if d else 1.0
    b_scale = 1.0 + (float(np.abs(b).max()) if p else 0.0)
    tol_d = tol * c_scale
    tol_p = tol * b_scale

    def scaled_residual(x, y, sbar):
        """The merit norm the line search compares, and the iterate's state:
        residuals, their max-norms (for the convergence test) and 1/sbar
        (for the next Hessian)."""
        w = 1.0 / sbar
        fx = c - mu * (GbarT @ w)
        rd = fx - AT @ y if p else fx
        rp = A @ x - b if p else no_rows
        rd_max = float(np.abs(rd).max()) if d else 0.0
        rp_max = float(np.abs(rp).max()) if p else 0.0
        return rd_max / c_scale + rp_max / b_scale, (rd, rp, rd_max, rp_max, w)

    base, (rd, rp, rd_max, rp_max, w) = scaled_residual(x, y, sbar)
    for it in range(1, max_iter + 1):
        if rd_max <= tol_d and rp_max <= tol_p:
            return x, y, sbar, it - 1, True
        Gw = Gbar * w[:, None]
        H = mu * (Gw.T @ Gw)
        Hc = _chol_with_reg(H)
        if p:
            HiAT = chol_solve(Hc, AT)
            M = A @ HiAT
            Mc = _chol_with_reg(M)
            dy = chol_solve(Mc, A @ chol_solve(Hc, rd) - rp)
            dx = chol_solve(Hc, AT @ dy - rd)
        else:
            dy = no_rows
            dx = -chol_solve(Hc, rd)

        gdx = Gbar @ dx
        neg = gdx < 0
        alpha_max = float((-sbar[neg] / gdx[neg]).min()) if neg.any() else math.inf
        alpha = min(1.0, BOUNDARY_FRACTION * alpha_max)
        if alpha <= 0 or not math.isfinite(alpha):
            raise NumericalFailure("step length collapsed to zero")

        accepted = False
        for _ in range(40):
            sbar_try = sbar + alpha * gdx
            if (sbar_try > 0).all():
                x_try = x + alpha * dx
                y_try = y + alpha * dy if p else y
                new, trial = scaled_residual(x_try, y_try, sbar_try)
                if new <= (1.0 - 1e-4 * alpha) * base:
                    accepted = True
                    break
            alpha *= 0.5
            if alpha < 1e-12:
                break
        if not accepted:
            # Numerical floor reached; report the best iterate so far.
            return x, y, sbar, it, False
        x, y, sbar, base = x_try, y_try, sbar_try, new
        rd, rp, rd_max, rp_max, w = trial
        if float(np.abs(x).max()) > ITERATE_NORM_LIMIT:
            raise NumericalFailure("iterate norm exceeded limit; relaxation appears unbounded")
    return x, y, sbar, max_iter, False


def _fold(lp: RelaxedLp) -> tuple[np.ndarray, np.ndarray]:
    """Append identity rows so the x >= 0 barrier rides along with G."""
    Gbar = np.vstack([lp.G, np.eye(lp.d)]) if lp.q else np.eye(lp.d)
    hbar = np.concatenate([lp.h, np.zeros(lp.d)]) if lp.q else np.zeros(lp.d)
    return Gbar, hbar


def _quick_interior(lp: RelaxedLp) -> np.ndarray | None:
    """Cheap candidates that are often strictly interior; None if all fail."""
    scale = 1.0 + (float(np.abs(lp.h).max()) if lp.q else 0.0)
    candidates = [np.full(lp.d, 0.5), np.full(lp.d, 0.1), np.ones(lp.d)]
    if lp.p:
        x_ls, *_ = np.linalg.lstsq(lp.A, lp.b, rcond=None)
        candidates = [x_ls] + [x_ls + 0.5]
    for x in candidates:
        if (x > 1e-9).all():
            eq_ok = not lp.p or float(np.abs(lp.A @ x - lp.b).max()) <= 1e-9 * scale
            ineq_ok = not lp.q or float((lp.G @ x - lp.h).min()) > 1e-3 * scale
            if eq_ok and ineq_ok:
                return x
    return None


def phase1_interior(lp: RelaxedLp) -> Assignment:
    """Find a strictly interior point of {x > 0, Gx > h, Ax = b}.

    Minimizes a single infeasibility slack ``t`` added to every barrier
    argument; the region has a strictly interior point iff the optimum is
    negative.  Raises Infeasible otherwise.
    """
    lp = _as_lp(lp)
    x = _quick_interior(lp)
    if x is not None:
        return x
    d, p, q = lp.d, lp.p, lp.q
    x0 = np.linalg.lstsq(lp.A, lp.b, rcond=None)[0] if p else np.ones(d)
    # Box rows keep the auxiliary barrier problem bounded: without them the
    # log terms reward growing x without limit.  Interior points beyond the
    # box are treated as not found, which is fine at the problem scales here.
    box = 1e5 * (1.0 + float(np.abs(x0).max()))
    ones = np.ones((d, 1))
    rows = [np.hstack([np.eye(d), ones])]
    rhs = [np.zeros(d)]
    if q:
        rows.append(np.hstack([lp.G, np.ones((q, 1))]))
        rhs.append(lp.h)
    rows.append(np.hstack([-np.eye(d), np.zeros((d, 1))]))
    rhs.append(np.full(d, -box))
    rows.append(np.concatenate([np.zeros(d), [1.0]])[None, :])  # t >= -1 bounds the objective
    rhs.append(np.array([-1.0]))
    Gaux = np.vstack(rows)
    haux = np.concatenate(rhs)
    caux = np.concatenate([np.zeros(d), [1.0]])
    Aaux = np.hstack([lp.A, np.zeros((p, 1))]) if p else np.zeros((0, d + 1))

    margins = [x0]
    if q:
        margins.append(lp.G @ x0 - lp.h)
    t0 = 1.0 + max(0.0, -float(np.concatenate(margins).min()))
    z = np.concatenate([x0, [t0]])

    scale = 1.0 + (float(np.abs(lp.h).max()) if q else 0.0)
    stop_at = -1e-6 * scale
    mu = 1.0
    saux = None
    while True:
        z, _, saux, _, _ = _newton_core(caux, Aaux, lp.b, Gaux, haux, mu, z, 1e-9, 80, saux)
        if z[-1] < stop_at or mu <= 1e-9:
            break
        mu *= MU_DECREASE
    if z[-1] >= stop_at:
        raise Infeasible("no strictly interior point found (phase-1 slack did not go negative)")
    return z[:d]


def solve_fixed_mu(
    lp: RelaxedLp,
    mu: float,
    warm: BarrierSolution | None = None,
    tol: float = 1e-8,
    max_newton: int = 80,
) -> BarrierSolution:
    """Solve the relaxation at one fixed barrier weight."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    lp = _as_lp(lp)
    x0 = warm.x if warm is not None else phase1_interior(lp)
    Gbar, hbar = _fold(lp)
    x, y, sbar, iters, converged = _newton_core(lp.c, lp.A, lp.b, Gbar, hbar, mu, x0, tol, max_newton)
    return BarrierSolution(x=x, s=sbar[: lp.q].copy(), y=y, mu=mu, iterations=iters, converged=converged)


def solve_barrier(
    problem: StandardFormMilp | RelaxedLp,
    mu_cutoff: float,
    tol: float = 1e-8,
    warm: BarrierSolution | None = None,
) -> BarrierSolution:
    """Follow the decreasing-mu path and return the solution at the cutoff.

    The final stage is solved at ``mu_cutoff`` itself.  A ``warm`` solution
    (e.g. from a nearby problem) skips phase-1 and the schedule and solves
    the cutoff stage directly.
    """
    if mu_cutoff <= 0:
        raise ValueError("mu_cutoff must be positive")
    lp = _as_lp(problem)
    Gbar, hbar = _fold(lp)

    if warm is not None and (Gbar @ warm.x - hbar > 0).all():
        x0 = warm.x
        schedule = [mu_cutoff]
    else:
        x0 = phase1_interior(lp)
        mu0 = max(1.0, float(np.abs(lp.c).max()) if lp.d else 1.0)
        schedule = []
        mu = mu0
        while mu > mu_cutoff:
            schedule.append(mu)
            mu *= MU_DECREASE
        schedule.append(mu_cutoff)

    x = x0
    y = np.zeros(lp.p)
    sbar = None
    total_iters = 0
    converged = False
    stage_tol = max(tol, 1e-8)
    for i, mu in enumerate(schedule):
        this_tol = tol if i == len(schedule) - 1 else stage_tol
        x, y, sbar, iters, converged = _newton_core(lp.c, lp.A, lp.b, Gbar, hbar, mu, x, this_tol, 80, sbar)
        total_iters += iters
    return BarrierSolution(x=x, s=sbar[: lp.q].copy(), y=y, mu=schedule[-1], iterations=total_iters, converged=converged)
