"""Exact LP and MILP solving for test-time optimization and oracles.

LPs are solved by a dense tableau simplex under Bland's rule
(smallest-index entering column, smallest basic index among tied ratios),
which terminates on degenerate LPs and needs no interior point, so node LPs
whose feasible region is a single face or a single point solve like any
other.  MILPs are solved by best-first branch and bound over LP
relaxations: the root LP starts from a slack crash basis, and each child
re-solves from its parent's final tableau by the dual simplex.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgesv

from .errors import NodeLimitExceeded, TooLarge
from .milp import StandardFormMilp, check_feasibility

INT_TOL = 1e-6
ENUM_CHUNK = 8192  # candidate assignments per block of ``enumerate_binary``
NODE_LIMIT = 10**6  # LP solves after which ``solve_milp_bnb`` gives up
# Simplex tolerances, on rows scaled to entries of at most 1.  PIVOT_TOL: the
# smallest usable pivot entry.  COST_TOL: the most negative reduced cost that
# still counts as optimal (times 1 + max|c| in phase 2; dual ratios this close
# tie).  FEAS_TOL: primal step lengths this close tie, a basic value this
# negative still counts as feasible, and a phase-1 optimum this small (times
# 1 + max rhs) counts as feasible.
PIVOT_TOL = 1e-9
COST_TOL = 1e-9
FEAS_TOL = 1e-9


class Status(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Tableau:
    """Final simplex state of one LP, from which a child LP is re-solved.

    ``T`` has one row per constraint plus a last row of reduced costs, and
    one column per variable plus a last column of basic values.  The
    variables are x, one slack per G row, then one slack per entry of
    ``bounds``.  ``M`` and ``rhs`` are the root LP's rows in the scaled,
    signed equality form ``solve_lp_exact`` builds, without the rows phase 1
    dropped as redundant; every node of one branch and bound shares them.
    Bound t, ``(j, sense, v)``, is the row ``-sense x_j + s_t = -sense v``
    after them, i.e. x_j >= v for sense +1 and x_j <= v for sense -1.
    """

    T: np.ndarray
    basis: np.ndarray
    M: np.ndarray
    rhs: np.ndarray
    bounds: tuple[tuple[int, int, float], ...] = ()


@dataclass(frozen=True)
class ExactSolution:
    x: np.ndarray
    objective: float
    status: Status
    node_count: int = 0
    # Final tableau of an optimal LP solve, to warm-start child LPs.
    tableau: Tableau | None = field(default=None, compare=False, repr=False)


def _pivot(T: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= col[:, None] * T[r]
    basis[r] = j


def _bland(T: np.ndarray, basis: np.ndarray, cost_tol: float) -> bool:
    """Pivot the tableau to optimality under Bland's rule; False if unbounded.

    The last row holds the reduced costs and, in its last entry, minus the
    objective; the last column holds the basic values.
    """
    m = T.shape[0] - 1
    while True:
        enter = (T[m, :-1] < -cost_tol).nonzero()[0]
        if enter.size == 0:
            return True
        j = int(enter[0])
        col = T[:m, j]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return False
        # Rounding leaves degenerate basic values at +-1e-10 or so; they all
        # tie at ratio 0, as Bland's rule needs to stay finite.
        ratios = np.maximum(T[rows, -1], 0.0) / col[rows]
        ties = rows[ratios <= ratios.min() + FEAS_TOL]
        _pivot(T, basis, int(ties[np.argmin(basis[ties])]), j)


def _dual(T: np.ndarray, basis: np.ndarray, cost_tol: float) -> bool:
    """Pivot a dual-feasible tableau to primal feasibility by the dual
    simplex; False if the LP is infeasible.

    Bland-style choices keep it finite on degenerate LPs: the leaving row is
    the infeasible row with the smallest basic index, the entering column
    the smallest index among the tied minimum ratios.  A negative row with
    no negative entry proves infeasibility.
    """
    m = T.shape[0] - 1
    while True:
        rows = (T[:m, -1] < -FEAS_TOL).nonzero()[0]
        if rows.size == 0:
            return True
        r = int(rows[basis[rows].argmin()])
        cols = (T[r, :-1] < -PIVOT_TOL).nonzero()[0]
        if cols.size == 0:
            return False
        ratios = np.maximum(T[m, cols], 0.0) / -T[r, cols]
        _pivot(T, basis, r, int(cols[ratios <= ratios.min() + cost_tol][0]))


def _root_tableau(lp: StandardFormMilp) -> Tableau | None:
    """Phase 1 from a slack crash basis, then phase-2 reduced costs; None if
    the LP is infeasible."""
    d, p, q = lp.d, lp.p, lp.q
    m, n = p + q, d + q
    # Scale rows down to entries of at most 1, so that the absolute
    # tolerances hold on badly scaled data too, and sign them to rhs >= 0.
    # A G row with h_i <= 0 is signed so that its slack (scaled with the row)
    # is a unit column: it starts basic and the row needs no artificial.
    K = np.vstack([lp.A, lp.G])
    sign = np.concatenate([np.where(lp.b < 0, -1.0, 1.0), np.where(lp.h > 0, 1.0, -1.0)])
    scale = sign / np.max(np.abs(K), axis=1, initial=1.0)
    M = np.zeros((m, n))
    M[:, :d] = scale[:, None] * K
    M[p:, d:] = np.diag(-sign[p:])
    rhs = scale * np.concatenate([lp.b, lp.h])
    crash = np.concatenate([np.zeros(p, dtype=bool), lp.h <= 0])

    # Phase 1 over the other rows.  Artificial k has index n + k; it starts
    # basic in row k and, once it leaves, never re-enters, so its column is
    # not kept.
    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = M
    T[:m, -1] = rhs
    basis = np.where(crash, d - p + np.arange(m), n + np.arange(m))
    kept = np.ones(m, dtype=bool)  # constraints
    if not crash.all():
        T[m] = -T[:m][~crash].sum(axis=0)
        _bland(T, basis, COST_TOL)
        if -T[m, -1] > FEAS_TOL * (1.0 + float(np.max(rhs, initial=0.0))):
            return None
        # An artificial still basic (at level zero) is pivoted out.  If its
        # row is zero over the real columns, its constraint is redundant:
        # both go.
        live = np.ones(m + 1, dtype=bool)  # tableau rows
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
    return Tableau(T, basis, M[kept], rhs[kept])


def _child_tableau(parent: Tableau, bound: tuple[int, int, float], cost_tol: float) -> Tableau | None:
    """The parent's final tableau with one more bound row, made feasible by
    the dual simplex; None if the child LP is infeasible."""
    j, sense, v = bound
    P = parent.T
    m, n = P.shape[0] - 1, P.shape[1] - 1
    # The new row and its slack column go before the reduced-cost row and
    # the basic-value column.
    T = np.zeros((m + 2, n + 2))
    T[:m, :n] = P[:m, :n]
    T[:m, -1] = P[:m, -1]
    T[-1, :n] = P[-1, :n]
    T[-1, -1] = P[-1, -1]
    # -sense x_j + s = -sense v, reduced against the row of x_j, which is
    # basic since it is fractional at the parent.
    r = int((parent.basis == j).nonzero()[0][0])
    T[m, :n] = sense * P[r, :n]
    T[m, j] = 0.0
    T[m, n] = 1.0
    T[m, -1] = sense * (P[r, -1] - v)
    basis = np.concatenate([parent.basis, [n]])
    if not _dual(T, basis, cost_tol):
        return None
    return Tableau(T, basis, parent.M, parent.rhs, parent.bounds + (bound,))


def _basic_solve(tab: Tableau) -> np.ndarray:
    """All variables at the tableau's basis, by one solve on the basis matrix."""
    m0, n0 = tab.M.shape
    k = len(tab.bounds)
    rows = np.zeros((k, n0 + k))
    rhs = np.empty(k)
    for t, (j, sense, v) in enumerate(tab.bounds):
        rows[t, j] = -sense
        rows[t, n0 + t] = 1.0
        rhs[t] = -sense * v
    basis = tab.basis
    root = basis < n0
    B = np.zeros((m0 + k, m0 + k))
    B[:m0, root] = tab.M[:, basis[root]]
    B[m0:] = rows[:, basis]
    xs = np.zeros(n0 + k)
    if not basis.size:
        return xs  # no constraint rows: every variable is nonbasic at zero
    _, _, xb, info = dgesv(B, np.concatenate([tab.rhs, rhs]))
    if info:
        raise LinAlgError("singular basis matrix")
    xs[basis] = xb
    return xs


def solve_lp_exact(
    lp: StandardFormMilp,
    warm: tuple[Tableau, tuple[int, int, float]] | None = None,
) -> ExactSolution:
    """Exact optimum of the LP relaxation of ``lp`` (its ``int_vars`` are
    ignored) by a dense tableau simplex.

    The LP is put in equality form [A 0; G -I][x; s] = [b; h] with slacks
    s >= 0, each row scaled down to entries of at most 1 and signed so that
    its right-hand side is nonnegative.  The start is a slack crash basis:
    each G row with h_i <= 0 is signed so that its slack is a unit column,
    and that slack starts basic.  Phase 1 minimises the sum of one
    artificial per other row (equalities, and G rows with h_i > 0), and is
    skipped when there are none; artificials left basic at level zero are
    pivoted out, or their row is dropped as redundant.  Phase 2 then
    minimises c'x from that basis.

    With ``warm=(tableau, (j, sense, v))`` the LP is ``lp`` plus the
    bound rows of ``tableau`` plus one more, x_j >= v (sense +1) or
    x_j <= v (sense -1), where ``tableau`` is the final state of the LP
    without the new row and x_j is basic in it.  The new row is added with
    its slack basic, and the dual simplex restores feasibility.

    Either way the basic values are recomputed with one solve on the final
    basis matrix, so the tableau's rounding drift never reaches x, and an
    optimal solution carries its final tableau for warm starts.
    """
    cost_tol = COST_TOL * (1.0 + float(np.max(np.abs(lp.c), initial=0.0)))
    tab = _root_tableau(lp) if warm is None else _child_tableau(*warm, cost_tol)
    if tab is None:
        return ExactSolution(np.full(lp.d, np.nan), np.nan, Status.INFEASIBLE)
    if not _bland(tab.T, tab.basis, cost_tol):
        return ExactSolution(np.full(lp.d, np.nan), -np.inf, Status.UNBOUNDED)
    xs = _basic_solve(tab)
    # Children branch on these values, so the tableau takes them too: a
    # child's bound row then cuts off exactly the x reported here.
    tab.T[:-1, -1] = xs[tab.basis]
    x = xs[: lp.d]
    return ExactSolution(x, float(lp.c @ x), Status.OPTIMAL, tableau=tab)


def _lex_smaller(a: np.ndarray, b: np.ndarray) -> bool:
    ra, rb = np.round(a, 9), np.round(b, 9)
    for u, v in zip(ra, rb):
        if u != v:
            return u < v
    return False


def solve_milp_bnb(milp: StandardFormMilp) -> ExactSolution:
    """Best-first branch and bound on LP relaxations.

    Branches on the most fractional integer variable with floor/ceil bound
    rows.  Each child LP is re-solved from its parent's final tableau (see
    ``solve_lp_exact``); the two children share it, and it is freed once
    both are popped.  Among equal-objective incumbents the lexicographically
    smallest of those found is kept, so reruns are deterministic.  Which
    incumbents are found depends on the LP vertices along the search, so
    with tied optima this need not be the lexicographically smallest optimum.
    An LP (no ``int_vars``) is solved at the root, in one node.  Raises
    NodeLimitExceeded after ``NODE_LIMIT`` LP solves.
    """
    int_idx = np.array(sorted(milp.int_vars), dtype=int)
    counter = itertools.count()
    # (bound estimate, tiebreak, warm start of solve_lp_exact; None at the root)
    heap: list[tuple[float, int, tuple | None]] = [(-np.inf, next(counter), None)]
    inc_x: np.ndarray | None = None
    inc_obj = np.inf
    nodes = 0

    def try_incumbent(x: np.ndarray):
        nonlocal inc_x, inc_obj
        cand = x.copy()
        cand[int_idx] = np.round(cand[int_idx])
        if not check_feasibility(milp, cand, 1e-9 * (1.0 + float(np.max(np.abs(cand))))):
            return
        obj = float(milp.c @ cand)
        if obj < inc_obj - 1e-9 or inc_x is None:
            inc_x, inc_obj = cand, obj
        elif abs(obj - inc_obj) <= 1e-9 and _lex_smaller(cand, inc_x):
            inc_x = cand

    while heap:
        bound_est, _, warm = heapq.heappop(heap)
        if bound_est >= inc_obj - 1e-9:
            continue
        if nodes >= NODE_LIMIT:
            raise NodeLimitExceeded(f"branch and bound exceeded {NODE_LIMIT} nodes")
        nodes += 1
        sol = solve_lp_exact(milp, warm)
        if sol.status is Status.INFEASIBLE:
            continue
        if sol.status is Status.UNBOUNDED:
            return ExactSolution(np.full(milp.d, np.nan), -np.inf, Status.UNBOUNDED, nodes)
        frac = np.abs(sol.x[int_idx] - np.round(sol.x[int_idx]))
        if np.max(frac, initial=0.0) <= INT_TOL:
            try_incumbent(sol.x)
            continue
        if warm is None:
            # Rounding heuristics at the root seed the incumbent for pruning.
            floored = sol.x.copy()
            floored[int_idx] = np.floor(floored[int_idx] + 1e-9)
            try_incumbent(floored)
            try_incumbent(sol.x)
        if sol.objective >= inc_obj - 1e-9:
            continue
        j = int(int_idx[int(np.argmax(np.minimum(frac, 1.0 - frac)))])
        fl = float(np.floor(sol.x[j]))
        heapq.heappush(heap, (sol.objective, next(counter), (sol.tableau, (j, -1, fl))))
        heapq.heappush(heap, (sol.objective, next(counter), (sol.tableau, (j, 1, fl + 1.0))))
    if inc_x is None:
        return ExactSolution(np.full(milp.d, np.nan), np.nan, Status.INFEASIBLE, nodes)
    return ExactSolution(inc_x, inc_obj, Status.OPTIMAL, nodes)


def enumerate_binary(milp: StandardFormMilp) -> ExactSolution:
    """Exhaustive scan over {0,1}^d; the oracle all MILP paths are checked against."""
    d = milp.d
    if d > 20:
        raise TooLarge(f"enumeration limited to d<=20 (got {d})")
    shifts = d - 1 - np.arange(d)
    best_x, best_obj = None, np.inf
    for start in range(0, 2**d, ENUM_CHUNK):
        idx = np.arange(start, min(start + ENUM_CHUNK, 2**d), dtype=np.int64)
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
