"""Benchmark problem families as two-stage constructors.

Three main families (ore blending with unknown concentrations, a
profit/size-uncertain 0-1 knapsack, nurse rostering with unknown patient
demand) plus two modelling demonstrations (product stocking with symmetric
change surcharges, facility opening with hard commitments and overtime
recourse).  Each constructor packages the Stage-1 parameter template over theta, the
penalty-augmented Stage-2 template over [theta, x1], the penalty function,
and the analytic regret derivatives used by the surrogate gradient.

Maximization problems are stored negated; every template below is written
for the canonical minimization form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CorrectionInfeasible
from .milp import ParamTemplate, Slot, StandardFormMilp
from .two_stage import TwoStageProblem


@dataclass(frozen=True)
class AlloySpec:
    """Ore purchasing: K supplier sites, M required metals."""

    K: int
    M: int
    cost: np.ndarray  # price per ton, length K
    req: np.ndarray  # tons required per metal, length M
    sigma: np.ndarray  # last-minute surcharge factors, length K

    def __post_init__(self):
        cost = np.asarray(self.cost, dtype=float)
        req = np.asarray(self.req, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if cost.shape != (self.K,) or req.shape != (self.M,) or sigma.shape != (self.K,):
            raise ValueError("inconsistent alloy spec shapes")
        if np.any(cost <= 0) or np.any(req < 0) or np.any(sigma < 0):
            raise ValueError("cost must be positive; req and sigma nonnegative")
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "req", req)
        object.__setattr__(self, "sigma", sigma)


def alloy_problem(spec: AlloySpec) -> TwoStageProblem:
    """Covering LP with the concentration matrix unknown.

    Stage 1 buys ore to meet metal requirements under estimated
    concentrations; Stage 2 may only buy more (x >= x1), paying the
    surcharged price (1 + sigma_k) cost_k on the top-up.  Parameters are
    the concentrations flattened site-major: theta[k*M + m] = con[k, m].
    """
    K, M = spec.K, spec.M
    skeleton1 = StandardFormMilp(c=spec.cost, A=np.zeros((0, K)), b=[], G=np.zeros((M, K)), h=spec.req)
    slots1 = tuple(Slot("G", (m, k), k * M + m) for m in range(M) for k in range(K))
    stage1 = ParamTemplate(skeleton1, slots1, t=K * M)

    # Stage 2 over [con, x1]: the same concentration slots, plus x >= x1.
    G2 = np.vstack([np.zeros((M, K)), np.eye(K)])
    skeleton2 = StandardFormMilp(
        c=(1.0 + spec.sigma) * spec.cost, A=np.zeros((0, K)), b=[], G=G2, h=np.concatenate([spec.req, np.zeros(K)])
    )
    slots2 = slots1 + tuple(Slot("h", M + k, K * M + k) for k in range(K))
    stage2 = ParamTemplate(skeleton2, slots2, t=K * M + K)

    pen_rate = spec.sigma * spec.cost

    def penalty_eval(x1, x2_full, theta):
        return float(pen_rate @ (np.asarray(x2_full)[:K] - np.asarray(x1)))

    def dPReg_dx2(x1, x2_full, theta):
        return (1.0 + spec.sigma) * spec.cost

    def dPReg_dx1(x1, x2_full, theta):
        return -pen_rate

    return TwoStageProblem(
        name="alloy",
        stage1=stage1,
        stage2=stage2,
        penalty_eval=penalty_eval,
        dPReg_dx2=dPReg_dx2,
        dPReg_dx1=dPReg_dx1,
        maximization=False,
    )


def alloy_scale_up_correction(spec: AlloySpec, theta: np.ndarray):
    """Proportional top-up: scale x1 by the smallest factor meeting all requirements."""
    con = np.asarray(theta, dtype=float).reshape(spec.K, spec.M)

    def correction(x1: np.ndarray) -> np.ndarray:
        got = con.T @ x1
        needed = []
        for m in range(spec.M):
            if spec.req[m] <= 0:
                continue
            if got[m] <= 0:
                raise CorrectionInfeasible("scale-up cannot meet a requirement from a zero yield")
            needed.append(spec.req[m] / got[m])
        scale = max([1.0] + needed)
        return scale * np.asarray(x1, dtype=float)

    return correction


@dataclass(frozen=True)
class KnapsackSpec:
    """Proxy-buyer 0-1 knapsack: unknown per-item profits and sizes."""

    d: int
    cap: float
    sigma: float  # apology factor on dropped items

    def __post_init__(self):
        if self.cap <= 0 or self.sigma < 0 or self.d < 1:
            raise ValueError("cap must be positive, sigma nonnegative, d >= 1")


def knapsack_problem(spec: KnapsackSpec) -> TwoStageProblem:
    """Stage 1 accepts requests under estimated profits/sizes; Stage 2 may
    only drop accepted items (x <= x1), paying sigma * profit per drop.

    theta = [profits (d), sizes (d)].  Stored negated: costs are -profits
    and the capacity row is -sizes' x >= -cap.
    """
    d = spec.d
    G1 = np.vstack([np.zeros((1, d)), -np.eye(d)])
    h1 = np.concatenate([[-spec.cap], -np.ones(d)])
    skeleton1 = StandardFormMilp(c=np.zeros(d), A=np.zeros((0, d)), b=[], G=G1, h=h1, int_vars=frozenset(range(d)))
    slots1 = tuple(Slot("c", j, j, scale=-1.0) for j in range(d))
    slots1 += tuple(Slot("G", (0, j), d + j, scale=-1.0) for j in range(d))
    stage1 = ParamTemplate(skeleton1, slots1, t=2 * d)

    # Stage 2 over [profits, sizes, x1], with x <= x1.  Up to a constant,
    # the drop penalty sigma f'(x1 - x) makes each kept item worth (1 + sigma) f.
    skeleton2 = StandardFormMilp(
        c=np.zeros(d), A=np.zeros((0, d)), b=[], G=G1, h=np.concatenate([[-spec.cap], np.zeros(d)]),
        int_vars=frozenset(range(d)),
    )
    slots2 = tuple(Slot("c", j, j, scale=-(1.0 + spec.sigma)) for j in range(d))
    slots2 += slots1[d:] + tuple(Slot("h", 1 + j, 2 * d + j, scale=-1.0) for j in range(d))
    stage2 = ParamTemplate(skeleton2, slots2, t=3 * d)

    def penalty_eval(x1, x2_full, theta):
        f = np.asarray(theta[:d], dtype=float)
        return float(spec.sigma * (f @ (np.asarray(x1) - np.asarray(x2_full)[:d])))

    def dPReg_dx2(x1, x2_full, theta):
        return -(1.0 + spec.sigma) * np.asarray(theta[:d], dtype=float)

    def dPReg_dx1(x1, x2_full, theta):
        return spec.sigma * np.asarray(theta[:d], dtype=float)

    return TwoStageProblem(
        name="knapsack",
        stage1=stage1,
        stage2=stage2,
        penalty_eval=penalty_eval,
        dPReg_dx2=dPReg_dx2,
        dPReg_dx1=dPReg_dx1,
        maximization=True,
    )


@dataclass(frozen=True)
class NspSpec:
    """Nurse rostering: n nurses, k days, s shifts per day."""

    n: int
    k: int
    s: int
    P: np.ndarray  # shift preferences in {1,2,3,4}, length n*k*s
    m: np.ndarray  # patients servable per nurse, length n
    gamma: np.ndarray  # reassignment penalty factors, length n*k*s

    def __post_init__(self):
        d = self.n * self.k * self.s
        P = np.asarray(self.P, dtype=float)
        mm = np.asarray(self.m, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        if P.shape != (d,) or mm.shape != (self.n,) or gamma.shape != (d,):
            raise ValueError("inconsistent rostering spec shapes")
        if not np.all(np.isin(P, (1, 2, 3, 4))) or np.any(mm <= 0) or np.any(gamma < 0):
            raise ValueError("P entries must be 1..4, m positive, gamma nonnegative")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "m", mm)
        object.__setattr__(self, "gamma", gamma)

    @property
    def d(self) -> int:
        return self.n * self.k * self.s

    @property
    def shifts(self) -> int:
        return self.k * self.s


def _nsp_constraints(spec: NspSpec):
    """Demand rows G1, one-shift-per-day equalities A, night-morning rows G2."""
    n, k, s, d, t = spec.n, spec.k, spec.s, spec.d, spec.shifts
    G1 = np.zeros((t, d))
    for j in range(t):
        for i in range(n):
            G1[j, i * t + j] = spec.m[i]
    A = np.zeros((n * k, d))
    for i in range(n):
        for day in range(k):
            A[i * k + day, i * t + day * s : i * t + (day + 1) * s] = 1.0
    G2 = np.zeros((n * (k - 1), d))
    for i in range(n):
        for day in range(k - 1):
            G2[i * (k - 1) + day, i * t + day * s + s - 1] = -1.0
            G2[i * (k - 1) + day, i * t + (day + 1) * s] = -1.0
    return G1, A, G2


def nsp_problem(spec: NspSpec) -> TwoStageProblem:
    """Roster maximizing preferences under unknown per-shift patient demand.

    Stage 2 reuses the roster constraints with true demand; the
    reassignment penalty gamma_i (5 - P_i)^2 applies only where a nurse
    gains a shift (x2_i >= x1_i), linearized through auxiliary indicator
    variables sigma >= x - x1.
    """
    n, k, s, d, t = spec.n, spec.k, spec.s, spec.d, spec.shifts
    G1, A, G2 = _nsp_constraints(spec)
    box = -np.eye(d)
    h1 = np.concatenate([np.zeros(t), -np.ones(n * (k - 1)), -np.ones(d)])
    skeleton1 = StandardFormMilp(
        c=-spec.P, A=A, b=np.ones(n * k), G=np.vstack([G1, G2, box]), h=h1, int_vars=frozenset(range(d))
    )
    stage1 = ParamTemplate(skeleton1, tuple(Slot("h", j, j) for j in range(t)), t=t)

    pen_coef = spec.gamma * (5.0 - spec.P) ** 2

    # Stage 2 over [demand, x1] on variables [x, sigma].
    Gfull = np.vstack(
        [
            np.hstack([G1, np.zeros((t, d))]),
            np.hstack([G2, np.zeros((G2.shape[0], d))]),
            np.hstack([-np.eye(d), np.eye(d)]),  # sigma - x >= -x1
            np.hstack([box, np.zeros((d, d))]),
            np.hstack([np.zeros((d, d)), box]),
        ]
    )
    skeleton2 = StandardFormMilp(
        c=np.concatenate([-spec.P, pen_coef]),
        A=np.hstack([A, np.zeros((A.shape[0], d))]),
        b=np.ones(n * k),
        G=Gfull,
        h=np.concatenate([np.zeros(t), -np.ones(n * (k - 1)), np.zeros(d), -np.ones(d), -np.ones(d)]),
        int_vars=frozenset(range(2 * d)),
    )
    base = t + G2.shape[0]
    slots2 = stage1.slots + tuple(Slot("h", base + i, t + i, scale=-1.0) for i in range(d))
    stage2 = ParamTemplate(skeleton2, slots2, t=t + d)

    def penalty_eval(x1, x2_full, theta):
        gain = np.maximum(np.asarray(x2_full)[:d] - np.asarray(x1), 0.0)
        return float(pen_coef @ gain)

    def dPReg_dx2(x1, x2_full, theta):
        up = np.asarray(x2_full)[:d] >= np.asarray(x1)
        return np.concatenate([-spec.P + pen_coef * up, np.zeros(d)])

    def dPReg_dx1(x1, x2_full, theta):
        up = np.asarray(x2_full)[:d] >= np.asarray(x1)
        return -pen_coef * up

    return TwoStageProblem(
        name="nsp",
        stage1=stage1,
        stage2=stage2,
        penalty_eval=penalty_eval,
        dPReg_dx2=dPReg_dx2,
        dPReg_dx1=dPReg_dx1,
        maximization=True,
    )


def nsp_demand_cap(spec: NspSpec) -> int:
    """Largest per-shift demand every roster structure can cover.

    Round-robin assignment (nurse i always takes shift i mod s) is feasible
    for any demand at or below the worst shift's coverage; staying one unit
    under it also leaves the uniform fractional roster strictly interior.
    """
    cover = [sum(spec.m[i] for i in range(spec.n) if i % spec.s == shift) for shift in range(spec.s)]
    return int(min(cover)) - 1


@dataclass(frozen=True)
class StockingSpec:
    """Product stocking with symmetric order-change surcharges; space unknown."""

    profit: np.ndarray
    size: np.ndarray
    surcharge: np.ndarray

    def __post_init__(self):
        profit = np.asarray(self.profit, dtype=float)
        size = np.asarray(self.size, dtype=float)
        surcharge = np.asarray(self.surcharge, dtype=float)
        if not (profit.shape == size.shape == surcharge.shape) or profit.ndim != 1:
            raise ValueError("profit, size, surcharge must be equal-length vectors")
        if np.any(size < 0) or np.any(surcharge < 0):
            raise ValueError("sizes and surcharges must be nonnegative")
        object.__setattr__(self, "profit", profit)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "surcharge", surcharge)

    @property
    def d(self) -> int:
        return self.profit.shape[0]


def product_stocking_problem(spec: StockingSpec) -> TwoStageProblem:
    """Soft commitment with a symmetric |x2 - x1| surcharge.

    The absolute value is linearized with split variables: Stage-2 works on
    [x, up, down] with x - up + down = x1, charging the surcharge on both
    split parts.  theta = [available space] (t = 1).
    """
    d = spec.d
    G1 = np.vstack([-spec.size[None, :], -np.eye(d)])
    skeleton1 = StandardFormMilp(
        c=-spec.profit, A=np.zeros((0, d)), b=[], G=G1, h=np.concatenate([[0.0], -np.ones(d)]),
        int_vars=frozenset(range(d)),
    )
    stage1 = ParamTemplate(skeleton1, (Slot("h", 0, 0, scale=-1.0),), t=1)

    # Stage 2 over [space, x1] on variables [x, up, down].
    G2 = np.zeros((1 + 3 * d, 3 * d))
    G2[0, :d] = -spec.size
    G2[1:, :] = -np.eye(3 * d)
    skeleton2 = StandardFormMilp(
        c=np.concatenate([-spec.profit, spec.surcharge, spec.surcharge]),
        A=np.hstack([np.eye(d), -np.eye(d), np.eye(d)]),
        b=np.zeros(d),
        G=G2,
        h=np.concatenate([[0.0], -np.ones(3 * d)]),
        int_vars=frozenset(range(3 * d)),
    )
    stage2 = ParamTemplate(skeleton2, stage1.slots + tuple(Slot("b", i, 1 + i) for i in range(d)), t=1 + d)

    def penalty_eval(x1, x2_full, theta):
        return float(spec.surcharge @ np.abs(np.asarray(x2_full)[:d] - np.asarray(x1)))

    def dPReg_dx2(x1, x2_full, theta):
        sign = np.sign(np.asarray(x2_full)[:d] - np.asarray(x1))
        return np.concatenate([-spec.profit + spec.surcharge * sign, np.zeros(2 * d)])

    def dPReg_dx1(x1, x2_full, theta):
        sign = np.sign(np.asarray(x2_full)[:d] - np.asarray(x1))
        return -spec.surcharge * sign

    return TwoStageProblem(
        name="stocking",
        stage1=stage1,
        stage2=stage2,
        penalty_eval=penalty_eval,
        dPReg_dx2=dPReg_dx2,
        dPReg_dx1=dPReg_dx1,
        maximization=True,
    )


@dataclass(frozen=True)
class FacilitySpec:
    """Facility opening (hard commitment) with overtime recourse; demand unknown."""

    open_cost: np.ndarray
    overtime_fee: np.ndarray
    capacity: np.ndarray
    overtime_cap: float  # per-facility overtime ceiling; at least the largest demand

    def __post_init__(self):
        oc = np.asarray(self.open_cost, dtype=float)
        of = np.asarray(self.overtime_fee, dtype=float)
        cap = np.asarray(self.capacity, dtype=float)
        if not (oc.shape == of.shape == cap.shape) or oc.ndim != 1:
            raise ValueError("facility vectors must have equal length")
        if np.any(oc < 0) or np.any(of < 0) or np.any(cap < 0) or self.overtime_cap <= 0:
            raise ValueError("facility data must be nonnegative with positive overtime cap")
        object.__setattr__(self, "open_cost", oc)
        object.__setattr__(self, "overtime_fee", of)
        object.__setattr__(self, "capacity", cap)

    @property
    def d(self) -> int:
        return self.open_cost.shape[0]


def facility_recourse_problem(spec: FacilitySpec) -> TwoStageProblem:
    """Hard-committed openings plus free-to-change overtime recourse.

    Variables are [open flags x, overtime amounts sg]; demand is met by
    sum(capacity_i x_i) + sum(sg_i) with sg_i <= cap * x_i linking overtime
    to open facilities.  Stage 2 pins x to the Stage-1 openings with
    equality rows (the infinite-penalty commitment) and re-optimizes the
    recourse; the penalty function itself is identically zero.
    """
    d = spec.d
    U = float(spec.overtime_cap)

    def make_skeleton(with_commitment: bool) -> StandardFormMilp:
        demand = np.concatenate([spec.capacity, np.ones(d)])[None, :]
        link = np.hstack([U * np.eye(d), -np.eye(d)])
        box = np.hstack([-np.eye(d), np.zeros((d, d))])
        G = np.vstack([demand, link, box])
        h = np.concatenate([[0.0], np.zeros(d), -np.ones(d)])
        A = np.hstack([np.eye(d), np.zeros((d, d))]) if with_commitment else np.zeros((0, 2 * d))
        b = np.zeros(d) if with_commitment else np.zeros(0)
        return StandardFormMilp(
            c=np.concatenate([spec.open_cost, spec.overtime_fee]),
            A=A, b=b, G=G, h=h, int_vars=frozenset(range(d)),
        )

    stage1 = ParamTemplate(make_skeleton(False), (Slot("h", 0, 0),), t=1)
    # Stage 2 over [demand, x1]: the openings x1[:d] pin x through b.
    slots2 = stage1.slots + tuple(Slot("b", i, 1 + i) for i in range(d))
    stage2 = ParamTemplate(make_skeleton(True), slots2, t=1 + 2 * d)

    def penalty_eval(x1, x2_full, theta):
        return 0.0

    def dPReg_dx2(x1, x2_full, theta):
        return np.concatenate([spec.open_cost, spec.overtime_fee])

    def dPReg_dx1(x1, x2_full, theta):
        return np.zeros(2 * d)

    return TwoStageProblem(
        name="facility",
        stage1=stage1,
        stage2=stage2,
        penalty_eval=penalty_eval,
        dPReg_dx2=dPReg_dx2,
        dPReg_dx1=dPReg_dx1,
        maximization=False,
    )


@dataclass(frozen=True)
class DimensionReport:
    name: str
    d: int
    p: int
    q: int
    constraints: int  # equalities + inequality rows + nonnegativity bounds
    t: int
    unknown_parameters: int  # per-item count for the knapsack, t otherwise


def dimension_report(problem: TwoStageProblem) -> DimensionReport:
    """Stage-1 size summary in the convention used for benchmark reporting.

    The constraint count tallies equality rows, inequality rows (explicit
    upper bounds included), and the x >= 0 bounds.  The knapsack's unknown
    count is per item: each item's profit and size are two of its t = 2d
    parameters, each predicted from its own feature row.
    """
    sk = problem.stage1.skeleton
    unknown = sk.d if problem.name == "knapsack" else problem.stage1.t
    return DimensionReport(
        name=problem.name,
        d=sk.d,
        p=sk.p,
        q=sk.q,
        constraints=sk.p + sk.q + sk.d,
        t=problem.stage1.t,
        unknown_parameters=unknown,
    )


def synth_spec_for(problem_spec, m: int, n: int, mapping: str = "sine-mix", noise_std: float = 0.02):
    """Synthetic-data recipe whose parameter ranges match the problem domain."""
    from .dataio import Segment, SynthSpec

    if isinstance(problem_spec, AlloySpec):
        t = problem_spec.K * problem_spec.M
        segs = (Segment(0, t, lo=0.02, hi=1.0, scale=0.49, offset=0.51),)
    elif isinstance(problem_spec, KnapsackSpec):
        d = problem_spec.d
        segs = (
            Segment(0, d, lo=0.5, hi=12.0, scale=4.5, offset=5.5),  # profits
            Segment(d, 2 * d, lo=0.5, hi=9.0, scale=3.5, offset=4.5),  # sizes
        )
        t = 2 * d
    elif isinstance(problem_spec, NspSpec):
        t = problem_spec.shifts
        cap = nsp_demand_cap(problem_spec)
        segs = (Segment(0, t, lo=0.0, hi=float(cap), scale=cap / 2.0, offset=cap / 2.0, integer=True),)
    elif isinstance(problem_spec, StockingSpec):
        total = float(np.sum(problem_spec.size))
        segs = (Segment(0, 1, lo=0.2 * total, hi=0.95 * total, scale=0.3 * total, offset=0.55 * total),)
        t = 1
    elif isinstance(problem_spec, FacilitySpec):
        total = float(np.sum(problem_spec.capacity))
        segs = (Segment(0, 1, lo=0.2 * total, hi=0.9 * total, scale=0.3 * total, offset=0.5 * total),)
        t = 1
    else:
        raise TypeError(f"no synthetic recipe for {type(problem_spec).__name__}")
    return SynthSpec(t=t, m=m, n=n, mapping=mapping, noise_std=noise_std, segments=segs)
