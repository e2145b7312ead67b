"""Log-barrier interior-point solver for LP relaxations.

The solvers take a ``StandardFormMilp`` and ignore its ``int_vars``: the
relaxation drops integrality and replaces the nonnegativity and slack
constraints by logarithmic barrier terms:

    min  c'x - mu * sum_j ln(x_j) - mu * sum_i ln(G_i'x - h_i)
    s.t. Ax = b

solved for a fixed barrier weight ``mu`` by a damped Newton method on the
stationarity conditions

    c - mu * X^{-1} 1 - mu * G' S^{-1} 1 - A'y = 0,     Ax = b

with S = diag(Gx - h).  ``solve_barrier`` drives ``mu`` down a geometric
schedule to a caller-chosen cutoff and returns the interior solution at the
cutoff itself, which is the point the KKT gradient module differentiates.
Only that cutoff stage is solved to the caller's tolerance: the stages
before it, and every stage of phase-1, stop at the loose ``CENTERING_TOL``,
since path following needs only approximate centring between mu updates
(Boyd & Vandenberghe, Convex Optimization, sec. 11.3).  A warm start from
any x, such as a neighbouring problem's cutoff point that lies outside
this problem's interior, is centred at the cutoff by one infeasible-start
Newton stage (sec. 10.3) instead of phase-1 and the whole schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import Infeasible, NumericalFailure
from .milp import StandardFormMilp

# Geometric mu schedule and interior-point safeguards.
MU_DECREASE = 0.2
BOUNDARY_FRACTION = 0.995
ITERATE_NORM_LIMIT = 1e8
NEWTON_REG = 1e-10
# Newton iterations per barrier stage before it is reported as not converged.
MAX_NEWTON = 80
# Scaled-residual tolerance of the path's intermediate stages and of phase-1.
CENTERING_TOL = 1e-1


@dataclass(frozen=True)
class BarrierSolution:
    """Interior optimum of the relaxation ``lp`` at barrier weight ``mu``.

    ``x > 0`` and ``s = Gx - h > 0`` strictly; ``y`` are the equality duals
    in the convention  f_x(x) = A'y  at stationarity.  ``lp`` is the problem
    that was solved, so the solution is all ``kkt.vjp`` needs.
    """

    x: np.ndarray
    s: np.ndarray
    y: np.ndarray
    mu: float
    iterations: int
    converged: bool
    lp: StandardFormMilp = field(repr=False)


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


def _newton_core(c, A, b, Gbar, hbar, mu, x0, tol, sbar0=None):
    """Damped Newton on the fixed-mu stationarity system.

    All barrier terms are rows of ``Gbar`` (slacks ``Gbar x - hbar > 0``);
    the caller folds the x >= 0 barrier in as identity rows when wanted.
    Slacks are carried as their own iterate and updated incrementally, which
    avoids the catastrophic cancellation of recomputing Gx - h once slacks
    shrink toward the barrier weight.  A start outside the interior lifts the
    slacks to ``mu`` and carries the residual r = Gbar x - sbar - hbar, which
    each step of length alpha scales by 1 - alpha (infeasible-start Newton,
    Boyd & Vandenberghe sec. 10.3); the stage converges only once a full
    step has cleared it.  Returns (x, y, sbar, iters, converged).
    """
    d = c.shape[0]
    p = A.shape[0]
    x = np.asarray(x0, dtype=float).copy()
    y = np.zeros(p)
    sbar = (Gbar @ x - hbar) if sbar0 is None else np.asarray(sbar0, dtype=float).copy()
    r = None
    if (sbar <= 0).any():
        lifted = np.maximum(sbar, mu)
        r, sbar = sbar - lifted, lifted
        h_scale = 1.0 + float(np.abs(hbar).max(initial=0.0))
    AT = A.T
    GbarT = Gbar.T
    no_rows = np.zeros(0)

    c_scale = 1.0 + float(np.abs(c).max()) if d else 1.0
    b_scale = 1.0 + (float(np.abs(b).max()) if p else 0.0)
    tol_d = tol * c_scale
    tol_p = tol * b_scale

    def scaled_residual(x, y, sbar, r):
        """The merit norm the line search compares, and the iterate's state:
        residuals, their max-norms (for the convergence test) and 1/sbar
        (for the next Hessian)."""
        w = 1.0 / sbar
        fx = c - mu * (GbarT @ w)
        rd = fx - AT @ y if p else fx
        rp = A @ x - b if p else no_rows
        rd_max = float(np.abs(rd).max()) if d else 0.0
        rp_max = float(np.abs(rp).max()) if p else 0.0
        merit = rd_max / c_scale + rp_max / b_scale
        if r is not None:
            merit += float(np.abs(r).max()) / h_scale
        return merit, (rd, rp, rd_max, rp_max, w)

    base, (rd, rp, rd_max, rp_max, w) = scaled_residual(x, y, sbar, r)
    for it in range(1, MAX_NEWTON + 1):
        if r is None and rd_max <= tol_d and rp_max <= tol_p:
            return x, y, sbar, it - 1, True
        Gw = Gbar * w[:, None]
        H = mu * (Gw.T @ Gw)
        Hc = _chol_with_reg(H)
        # The slack step Gbar dx + r enters the barrier gradient's linearization.
        rhs = rd if r is None else rd + mu * (GbarT @ (w * w * r))
        if p:
            HiAT = chol_solve(Hc, AT)
            M = A @ HiAT
            Mc = _chol_with_reg(M)
            dy = chol_solve(Mc, A @ chol_solve(Hc, rhs) - rp)
            dx = chol_solve(Hc, AT @ dy - rhs)
        else:
            dy = no_rows
            dx = -chol_solve(Hc, rhs)

        ds = Gbar @ dx if r is None else Gbar @ dx + r
        neg = ds < 0
        alpha_max = float((-sbar[neg] / ds[neg]).min()) if neg.any() else math.inf
        alpha = min(1.0, BOUNDARY_FRACTION * alpha_max)
        if alpha <= 0 or not math.isfinite(alpha):
            raise NumericalFailure("step length collapsed to zero")

        accepted = False
        for _ in range(40):
            sbar_try = sbar + alpha * ds
            if (sbar_try > 0).all():
                x_try = x + alpha * dx
                y_try = y + alpha * dy if p else y
                r_try = None if r is None or alpha == 1.0 else (1.0 - alpha) * r
                new, trial = scaled_residual(x_try, y_try, sbar_try, r_try)
                if new <= (1.0 - 1e-4 * alpha) * base:
                    accepted = True
                    break
            alpha *= 0.5
            if alpha < 1e-12:
                break
        if not accepted:
            # Numerical floor reached; report the best iterate so far.
            return x, y, sbar, it, False
        x, y, sbar, r, base = x_try, y_try, sbar_try, r_try, new
        rd, rp, rd_max, rp_max, w = trial
        if float(np.abs(x).max()) > ITERATE_NORM_LIMIT:
            raise NumericalFailure("iterate norm exceeded limit; relaxation appears unbounded")
    return x, y, sbar, MAX_NEWTON, False


def _fold(lp: StandardFormMilp) -> tuple[np.ndarray, np.ndarray]:
    """Append identity rows so the x >= 0 barrier rides along with G."""
    Gbar = np.vstack([lp.G, np.eye(lp.d)]) if lp.q else np.eye(lp.d)
    hbar = np.concatenate([lp.h, np.zeros(lp.d)]) if lp.q else np.zeros(lp.d)
    return Gbar, hbar


def _quick_interior(lp: StandardFormMilp) -> np.ndarray | None:
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


def phase1_interior(lp: StandardFormMilp) -> np.ndarray:
    """Find a strictly interior point of {x > 0, Gx > h, Ax = b}.

    Minimizes a single infeasibility slack ``t`` added to every barrier
    argument; the region has a strictly interior point iff the optimum is
    negative.  Raises Infeasible otherwise.
    """
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
        z, _, saux, _, _ = _newton_core(caux, Aaux, lp.b, Gaux, haux, mu, z, CENTERING_TOL, saux)
        if z[-1] < stop_at or mu <= 1e-9:
            break
        mu *= MU_DECREASE
    if z[-1] >= stop_at:
        raise Infeasible("no strictly interior point found (phase-1 slack did not go negative)")
    return z[:d]


def solve_fixed_mu(
    lp: StandardFormMilp,
    mu: float,
    warm: BarrierSolution | None = None,
    tol: float = 1e-8,
) -> BarrierSolution:
    """Solve the relaxation at one fixed barrier weight, from ``warm.x`` (an
    infeasible start if it is not interior) or else from a phase-1 point."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    x0 = warm.x if warm is not None else phase1_interior(lp)
    return _follow_path(lp, *_fold(lp), x0, [mu], tol)


def solve_barrier(
    lp: StandardFormMilp,
    mu_cutoff: float,
    tol: float = 1e-8,
    warm: BarrierSolution | None = None,
) -> BarrierSolution:
    """Follow the decreasing-mu path and return the solution at the cutoff.

    The final stage is solved at ``mu_cutoff`` itself to ``tol``, the
    stages before it only to ``CENTERING_TOL``.  A ``warm`` solution, such
    as the cutoff point of a nearby problem or of the same training instance
    one epoch earlier, skips phase-1 and the schedule: its x is centred at the
    cutoff directly, by an infeasible-start Newton stage when it is not
    strictly interior for ``lp`` (a stage-2 point after the commitment
    moved).  The cutoff point is unique, so the warm and cold solves agree to
    ``tol``.  When the warm solve raises NumericalFailure or does not
    converge, the result is that of the cold solve, bit for bit; so an LP
    with an empty interior still gets phase-1's Infeasible.
    """
    if mu_cutoff <= 0:
        raise ValueError("mu_cutoff must be positive")
    Gbar, hbar = _fold(lp)
    if warm is not None:
        try:
            sol = _follow_path(lp, Gbar, hbar, warm.x, [mu_cutoff], tol)
            if sol.converged:
                return sol
        except NumericalFailure:
            pass
    mu0 = max(1.0, float(np.abs(lp.c).max()) if lp.d else 1.0)
    schedule = []
    mu = mu0
    while mu > mu_cutoff:
        schedule.append(mu)
        mu *= MU_DECREASE
    schedule.append(mu_cutoff)
    return _follow_path(lp, Gbar, hbar, phase1_interior(lp), schedule, tol)


def _follow_path(lp, Gbar, hbar, x0, schedule, tol) -> BarrierSolution:
    """Centre at each mu of ``schedule`` in turn from ``x0``: loosely, except
    the last stage, which is solved to ``tol``."""
    x = x0
    y = np.zeros(lp.p)
    sbar = None
    total_iters = 0
    converged = False
    for i, mu in enumerate(schedule):
        this_tol = tol if i == len(schedule) - 1 else CENTERING_TOL
        x, y, sbar, iters, converged = _newton_core(lp.c, lp.A, lp.b, Gbar, hbar, mu, x, this_tol, sbar)
        total_iters += iters
    return BarrierSolution(
        x=x, s=sbar[: lp.q].copy(), y=y, mu=schedule[-1], iterations=total_iters, converged=converged, lp=lp
    )
