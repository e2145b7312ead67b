"""Exact LP and MILP solving for test-time optimization and oracles.

LPs are solved by a dense two-phase tableau simplex under Bland's rule
(smallest-index entering column, smallest basic index among tied ratios),
which terminates on degenerate LPs and needs no interior point, so node LPs
whose feasible region is a single face or a single point solve like any
other.  MILPs are solved by best-first branch and bound over LP relaxations.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .barrier import RelaxedLp, _as_lp, relax
from .errors import NodeLimitExceeded, TooLarge
from .milp import StandardFormMilp

INT_TOL = 1e-6
# Simplex tolerances, on rows scaled to entries of at most 1.  PIVOT_TOL: the
# smallest usable pivot entry.  COST_TOL: the most negative reduced cost that
# still counts as optimal (times 1 + max|c| in phase 2).  FEAS_TOL: step
# lengths this close tie, and a phase-1 optimum this small (times 1 + max
# rhs) counts as feasible.
PIVOT_TOL = 1e-9
COST_TOL = 1e-9
FEAS_TOL = 1e-9


class Status(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class ExactSolution:
    x: np.ndarray
    objective: float
    status: Status
    node_count: int = 0


def _lp_feasible(lp: RelaxedLp, x: np.ndarray, tol: float) -> bool:
    if np.min(x, initial=np.inf) < -tol:
        return False
    if lp.p and float(np.max(np.abs(lp.A @ x - lp.b))) > tol:
        return False
    if lp.q and float(np.min(lp.G @ x - lp.h)) < -tol:
        return False
    return True


def _pivot(T: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    basis[r] = j


def _bland(T: np.ndarray, basis: np.ndarray, cost_tol: float) -> bool:
    """Pivot the tableau to optimality under Bland's rule; False if unbounded.

    The last row holds the reduced costs and, in its last entry, minus the
    objective; the last column holds the basic values.
    """
    m = T.shape[0] - 1
    while True:
        enter = np.flatnonzero(T[m, :-1] < -cost_tol)
        if enter.size == 0:
            return True
        j = int(enter[0])
        col = T[:m, j]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if rows.size == 0:
            return False
        # Rounding leaves degenerate basic values at +-1e-10 or so; they all
        # tie at ratio 0, as Bland's rule needs to stay finite.
        ratios = np.maximum(T[rows, -1], 0.0) / col[rows]
        ties = rows[ratios <= ratios.min() + FEAS_TOL]
        _pivot(T, basis, int(ties[np.argmin(basis[ties])]), j)


def solve_lp_exact(problem: RelaxedLp | StandardFormMilp) -> ExactSolution:
    """Exact LP optimum by a dense two-phase tableau simplex.

    The LP is put in equality form [A 0; G -I][x; s] = [b; h] with slacks
    s >= 0, each row signed so that its right-hand side is nonnegative.
    Phase 1 minimises the sum of one artificial per row; artificials left
    basic at level zero are pivoted out, or their row is dropped as
    redundant.  Phase 2 then minimises c'x from that basis, and the basic
    values are recomputed with one solve on the final basis matrix.
    """
    lp = _as_lp(problem)
    d, q = lp.d, lp.q
    M = np.block([[lp.A, np.zeros((lp.p, q))], [lp.G, -np.eye(q)]])
    rhs = np.concatenate([lp.b, lp.h])
    # Flip rows to rhs >= 0 and scale down those with entries above 1, so
    # that the absolute tolerances below hold on badly scaled data too.
    scale = np.where(rhs < 0, -1.0, 1.0) / np.max(np.abs(M), axis=1, initial=1.0)
    M *= scale[:, None]
    rhs *= scale
    m, n = M.shape

    # Phase 1.  Artificial k has index n + k; it starts basic in row k and,
    # once it leaves, never re-enters, so its column is not kept.
    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = M
    T[:m, -1] = rhs
    T[m] = -T[:m].sum(axis=0)
    basis = np.arange(n, n + m)
    _bland(T, basis, COST_TOL)
    if -T[m, -1] > FEAS_TOL * (1.0 + float(np.max(rhs, initial=0.0))):
        return ExactSolution(np.full(d, np.nan), np.nan, Status.INFEASIBLE)

    # An artificial still basic (at level zero) is pivoted out.  If its row
    # is zero over the real columns, its constraint is redundant: both go.
    live = np.ones(m + 1, dtype=bool)  # tableau rows
    kept = np.ones(m, dtype=bool)  # constraints
    for r in np.flatnonzero(basis >= n):
        j = int(np.argmax(np.abs(T[r, :n])))
        if abs(T[r, j]) > PIVOT_TOL:
            _pivot(T, basis, int(r), j)
        else:
            live[r] = False
            kept[basis[r] - n] = False
    T = T[live]
    basis = basis[live[:m]]

    # Phase 2: reduced costs of c'x relative to the feasible basis.
    cost = np.concatenate([lp.c, np.zeros(q)])
    T[-1, :n] = cost - cost[basis] @ T[:-1, :n]
    T[-1, -1] = -cost[basis] @ T[:-1, -1]
    if not _bland(T, basis, COST_TOL * (1.0 + float(np.max(np.abs(lp.c), initial=0.0)))):
        return ExactSolution(np.full(d, np.nan), -np.inf, Status.UNBOUNDED)

    xs = np.zeros(n)
    xs[basis] = np.linalg.solve(M[kept][:, basis], rhs[kept])
    x = xs[:d]
    return ExactSolution(x, float(lp.c @ x), Status.OPTIMAL)


def _lex_smaller(a: np.ndarray, b: np.ndarray) -> bool:
    ra, rb = np.round(a, 9), np.round(b, 9)
    for u, v in zip(ra, rb):
        if u != v:
            return u < v
    return False


def _with_bounds(lp: RelaxedLp, bounds: tuple[tuple[int, int, float], ...]) -> RelaxedLp:
    """Append branching rows: (j, +1, v) means x_j >= v; (j, -1, v) means x_j <= v."""
    if not bounds:
        return lp
    rows = np.zeros((len(bounds), lp.d))
    rhs = np.zeros(len(bounds))
    for k, (j, sense, v) in enumerate(bounds):
        rows[k, j] = float(sense)
        rhs[k] = v if sense > 0 else -v
    return RelaxedLp(lp.c, lp.A, lp.b, np.vstack([lp.G, rows]), np.concatenate([lp.h, rhs]))


def solve_milp_bnb(
    milp: StandardFormMilp,
    node_limit: int = 10**6,
    log: list | None = None,
) -> ExactSolution:
    """Best-first branch and bound on LP relaxations.

    Branches on the most fractional integer variable with floor/ceil bound
    rows; ties among equal-objective incumbents resolve to the
    lexicographically smallest solution so reruns are deterministic.
    """
    base = relax(milp)
    int_idx = np.array(sorted(milp.int_vars), dtype=int)
    if int_idx.size == 0:
        lp_sol = solve_lp_exact(base)
        return replace(lp_sol, node_count=1)

    counter = itertools.count()
    heap: list[tuple[float, int, tuple]] = [(-np.inf, next(counter), ())]
    inc_x: np.ndarray | None = None
    inc_obj = np.inf
    nodes = 0

    def try_incumbent(x: np.ndarray):
        nonlocal inc_x, inc_obj
        cand = x.copy()
        cand[int_idx] = np.round(cand[int_idx])
        if not _lp_feasible(base, cand, 1e-9 * (1.0 + float(np.max(np.abs(cand))))):
            return
        obj = float(milp.c @ cand)
        if obj < inc_obj - 1e-9 or inc_x is None:
            inc_x, inc_obj = cand, obj
        elif abs(obj - inc_obj) <= 1e-9 and _lex_smaller(cand, inc_x):
            inc_x = cand

    while heap:
        bound_est, _, bounds = heapq.heappop(heap)
        if bound_est >= inc_obj - 1e-9:
            continue
        if nodes >= node_limit:
            raise NodeLimitExceeded(f"branch and bound exceeded {node_limit} nodes")
        nodes += 1
        sol = solve_lp_exact(_with_bounds(base, bounds))
        if sol.status is Status.INFEASIBLE:
            if log is not None:
                log.append({"bound": np.inf, "incumbent": inc_obj, "integral": False})
            continue
        if sol.status is Status.UNBOUNDED:
            return ExactSolution(np.full(milp.d, np.nan), -np.inf, Status.UNBOUNDED, nodes)
        frac = np.abs(sol.x[int_idx] - np.round(sol.x[int_idx]))
        integral = bool(np.max(frac, initial=0.0) <= INT_TOL)
        if log is not None:
            log.append({"bound": sol.objective, "incumbent": inc_obj, "integral": integral})
        if integral:
            try_incumbent(sol.x)
            continue
        if not bounds:
            # Rounding heuristics at the root seed the incumbent for pruning.
            floored = sol.x.copy()
            floored[int_idx] = np.floor(floored[int_idx] + 1e-9)
            try_incumbent(floored)
            try_incumbent(sol.x)
        if sol.objective >= inc_obj - 1e-9:
            continue
        j = int(int_idx[int(np.argmax(np.minimum(frac, 1.0 - frac)))])
        fl = float(np.floor(sol.x[j]))
        heapq.heappush(heap, (sol.objective, next(counter), bounds + ((j, -1, fl),)))
        heapq.heappush(heap, (sol.objective, next(counter), bounds + ((j, 1, fl + 1.0),)))
    if inc_x is None:
        return ExactSolution(np.full(milp.d, np.nan), np.nan, Status.INFEASIBLE, nodes)
    return ExactSolution(inc_x, inc_obj, Status.OPTIMAL, nodes)


def enumerate_binary(milp: StandardFormMilp, chunk: int = 8192) -> ExactSolution:
    """Exhaustive scan over {0,1}^d; the oracle all MILP paths are checked against."""
    d = milp.d
    if d > 20:
        raise TooLarge(f"enumeration limited to d<=20 (got {d})")
    shifts = d - 1 - np.arange(d)
    best_x, best_obj = None, np.inf
    for start in range(0, 2**d, chunk):
        idx = np.arange(start, min(start + chunk, 2**d), dtype=np.int64)
        X = ((idx[:, None] >> shifts) & 1).astype(float)
        ok = np.ones(X.shape[0], dtype=bool)
        if milp.p:
            ok &= np.max(np.abs(X @ milp.A.T - milp.b), axis=1) <= 1e-6
        if milp.q:
            ok &= np.min(X @ milp.G.T - milp.h, axis=1) >= -1e-6
        if not np.any(ok):
            continue
        objs = X[ok] @ milp.c
        k = int(np.argmin(objs))
        if objs[k] < best_obj:  # strict: the first hit in lexicographic order wins ties
            best_obj = float(objs[k])
            best_x = X[ok][k].copy()
    if best_x is None:
        return ExactSolution(np.full(d, np.nan), np.nan, Status.INFEASIBLE, node_count=2**d)
    return ExactSolution(best_x, best_obj, Status.OPTIMAL, node_count=2**d)
