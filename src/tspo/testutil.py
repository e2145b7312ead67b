"""Shared oracles for the property suites.

These are deliberately independent code paths: the vertex enumerator and the
finite-difference engine use only primitive numpy linear algebra, never the
barrier or KKT machinery they are used to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import TooLarge
from .exact import ExactSolution, Status
from .milp import StandardFormMilp

FD_STEP = 1e-5  # single source of truth for all finite-difference checks


@dataclass(frozen=True)
class RandomLpSpec:
    d: int
    p: int
    q: int
    coeff_scale: float = 1.0
    margin: float = 0.1


def gen_feasible_lp(spec: RandomLpSpec, seed: int) -> tuple[StandardFormMilp, np.ndarray]:
    """Random LP with a known strictly interior witness.

    Samples x0 > 0 first, then sets b = A x0 and h <= G x0 - margin so x0 is
    interior by construction.
    """
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.5, 2.0, size=spec.d)
    A = rng.uniform(-spec.coeff_scale, spec.coeff_scale, size=(spec.p, spec.d))
    b = A @ x0
    G = rng.uniform(-spec.coeff_scale, spec.coeff_scale, size=(spec.q, spec.d))
    h = G @ x0 - rng.uniform(spec.margin, 1.0, size=spec.q)
    c = rng.uniform(0.2, 2.0, size=spec.d)  # positive costs keep the LP bounded below
    return StandardFormMilp(c, A, b, G, h), x0


def fd_mixed_error(J: np.ndarray, analytic: np.ndarray, floor: float = 1e-3) -> float:
    """Worst entrywise disagreement between a finite-difference Jacobian and an
    analytic one, measured relative to the entry with an absolute floor.

    Central differences over re-solves carry an absolute noise floor of
    roughly (solution reproducibility / 2 step) ~ 2.5e-7 per entry here, so a
    pure relative test is meaningless on near-zero entries (e.g. when
    equalities fully determine the solution and the true sensitivity is 0).
    The floor makes a 1e-3 threshold act as rtol 1e-3 with atol 1e-6 on the
    order-one data used throughout.
    """
    J = np.asarray(J)
    K = np.asarray(analytic)
    return float(np.max(np.abs(J - K) / (floor + np.abs(J))))


def finite_diff_jacobian(f, x0: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference Jacobian; column j is df/dx_j."""
    x0 = np.asarray(x0, dtype=float)
    cols = []
    for j in range(x0.shape[0]):
        e = np.zeros_like(x0)
        e[j] = step
        cols.append((np.asarray(f(x0 + e)) - np.asarray(f(x0 - e))) / (2 * step))
    return np.stack(cols, axis=-1)


def _feasible(lp: StandardFormMilp, x: np.ndarray, tol: float) -> bool:
    if np.min(x, initial=np.inf) < -tol:
        return False
    if lp.p and np.max(np.abs(lp.A @ x - lp.b)) > tol:
        return False
    if lp.q and np.min(lp.G @ x - lp.h) < -tol:
        return False
    return True


def _best_vertex(c, A, b, G, h, tol):
    """Enumerate basic solutions of {Ax=b, Gx>=h, x>=0}; return (best_x, best_obj)."""
    d = c.shape[0]
    p = A.shape[0]
    rows = [((A[i], b[i]), True) for i in range(p)]
    rows += [((G[i], h[i]), False) for i in range(G.shape[0])]
    eye = np.eye(d)
    rows += [((eye[j], 0.0), False) for j in range(d)]
    ineq_ids = [k for k, (_, is_eq) in enumerate(rows) if not is_eq]
    need = d - p
    if need < 0:
        need = 0
    lp = StandardFormMilp(c, A, b, G, h)
    best_x, best_obj = None, np.inf
    for combo in combinations(ineq_ids, need):
        act = list(range(p)) + list(combo)
        M = np.array([rows[k][0][0] for k in act], dtype=float).reshape(len(act), d)
        rhs = np.array([rows[k][0][1] for k in act], dtype=float)
        if M.shape[0] != d:
            continue
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)) or not _feasible(lp, x, tol):
            continue
        obj = float(c @ x)
        if obj < best_obj - 1e-12:
            best_x, best_obj = x, obj
    return best_x, best_obj


def vertex_enumerate_lp(lp: StandardFormMilp) -> ExactSolution:
    """Exact LP optimum by enumerating all basic feasible solutions.

    Checks for a descent ray over the recession cone before declaring a
    vertex optimal, so bounded and unbounded instances are distinguished.
    """
    d, p, q = lp.d, lp.p, lp.q
    if d > 6 or d + p + q > 20:
        raise TooLarge(f"vertex enumeration limited to d<=6, d+p+q<=20 (got {d},{p},{q})")
    tol = 1e-8 * (1.0 + float(np.max(np.abs(lp.h))) if q else 1.0)
    best_x, best_obj = _best_vertex(lp.c, lp.A, lp.b, lp.G, lp.h, tol)
    if best_x is None:
        return ExactSolution(x=np.full(d, np.nan), objective=np.nan, status=Status.INFEASIBLE)
    # Recession cone {Ad=0, Gd>=0, d>=0} sliced by sum(d)=1: a descent ray
    # exists iff some vertex of the slice has negative cost.
    A_ray = np.vstack([lp.A, np.ones((1, d))]) if p else np.ones((1, d))
    b_ray = np.concatenate([np.zeros(p), [1.0]])
    ray_x, ray_obj = _best_vertex(lp.c, A_ray, b_ray, lp.G, np.zeros(q), 1e-9)
    if ray_x is not None and ray_obj < -1e-9:
        return ExactSolution(x=np.full(d, np.nan), objective=-np.inf, status=Status.UNBOUNDED)
    return ExactSolution(x=best_x, objective=best_obj, status=Status.OPTIMAL)
