"""Canonical MILP representation and parameter templates.

Every optimization problem in the toolkit is stored in one canonical
minimization form:

    min c'x  s.t.  Ax = b,  Gx >= h,  x >= 0,  x_j integer for j in int_vars

Maximization problems are stored with a negated objective, and the sign is
flipped back only when results are reported.  There is no separate LP type:
the LP solvers (``barrier``, ``exact.solve_lp_exact``) and ``kkt`` read the
same ``StandardFormMilp`` and ignore its ``int_vars``.

A ``ParamTemplate`` is a MILP skeleton plus linear slots mapping a parameter
vector into entries of the coefficient blocks, which is how
unknown-parameter problems are represented before prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFinite

BLOCKS = ("c", "A", "b", "G", "h")


def _as_matrix(a, rows: int | None, cols: int, name: str) -> np.ndarray:
    m = np.atleast_2d(np.asarray(a, dtype=float))
    if rows == 0 and m.size == 0:
        m = m.reshape(0, cols)
    if m.ndim != 2 or m.shape[1] != cols or (rows is not None and m.shape[0] != rows):
        raise DimensionMismatch(f"{name} has shape {m.shape}, expected ({rows}, {cols})")
    return m


def _as_vector(a, n: int | None, name: str) -> np.ndarray:
    v = np.asarray(a, dtype=float).reshape(-1)
    if n is not None and v.shape[0] != n:
        raise DimensionMismatch(f"{name} has length {v.shape[0]}, expected {n}")
    return v


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True)
class StandardFormMilp:
    """One concrete MILP in canonical minimization form."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    G: np.ndarray
    h: np.ndarray
    int_vars: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        c = _as_vector(self.c, None, "c")
        d = c.shape[0]
        A = _as_matrix(self.A, None, d, "A")
        b = _as_vector(self.b, A.shape[0], "b")
        G = _as_matrix(self.G, None, d, "G")
        h = _as_vector(self.h, G.shape[0], "h")
        int_vars = frozenset(int(j) for j in self.int_vars)
        if any(j < 0 or j >= d for j in int_vars):
            raise DimensionMismatch(f"int_vars {sorted(int_vars)} out of range for d={d}")
        for name, arr in (("c", c), ("A", A), ("b", b), ("G", G), ("h", h)):
            if not np.all(np.isfinite(arr)):
                raise NonFinite(f"{name} contains NaN or infinite entries")
        _freeze(c, A, b, G, h)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "int_vars", int_vars)

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
class Slot:
    """One linear coefficient slot: block entry = scale * theta[theta_index]."""

    block: str
    index: int | tuple[int, int]
    theta_index: int
    scale: float = 1.0

    def __post_init__(self):
        if self.block not in BLOCKS:
            raise ValueError(f"unknown block {self.block!r}")


@dataclass(frozen=True)
class ParamTemplate:
    """A MILP skeleton with linear parameter slots.

    Instantiating with a finite parameter vector of length ``t`` yields a
    valid ``StandardFormMilp``; entries not covered by a slot are taken from
    the skeleton unchanged.
    """

    skeleton: StandardFormMilp
    slots: tuple[Slot, ...]
    t: int

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))
        sk = self.skeleton
        shapes = {"c": (sk.d,), "b": (sk.p,), "h": (sk.q,), "A": (sk.p, sk.d), "G": (sk.q, sk.d)}
        for s in self.slots:
            idx = s.index if isinstance(s.index, tuple) else (s.index,)
            shape = shapes[s.block]
            if len(idx) != len(shape) or any(i < 0 or i >= n for i, n in zip(idx, shape)):
                raise DimensionMismatch(f"slot index {s.index} out of range for block {s.block}")
            if s.theta_index < 0 or s.theta_index >= self.t:
                raise DimensionMismatch(f"slot theta_index {s.theta_index} out of range for t={self.t}")


def instantiate(template: ParamTemplate, theta: np.ndarray) -> StandardFormMilp:
    """Fill a template's slots with ``theta`` and return the concrete MILP.

    Only the blocks that hold a slot are copied.  The others are the
    skeleton's own read-only arrays, shared by every instance, so a kept
    instance costs the memory of its slotted blocks alone.
    """
    theta = _as_vector(theta, None, "theta")
    if theta.shape[0] != template.t:
        raise DimensionMismatch(f"theta has length {theta.shape[0]}, expected {template.t}")
    if not np.all(np.isfinite(theta)):
        raise NonFinite("theta contains NaN or infinite entries")
    sk = template.skeleton
    blocks = {name: getattr(sk, name) for name in BLOCKS}
    for name in {s.block for s in template.slots}:
        blocks[name] = blocks[name].copy()
    for s in template.slots:
        blocks[s.block][s.index] = s.scale * theta[s.theta_index]
    return StandardFormMilp(blocks["c"], blocks["A"], blocks["b"], blocks["G"], blocks["h"], sk.int_vars)


def backprop_slots(template: ParamTemplate, block_grads: dict[str, np.ndarray]) -> np.ndarray:
    """Pull gradients w.r.t. slotted coefficient entries back to the parameter vector.

    ``block_grads`` maps block names to arrays shaped like that block holding
    d(loss)/d(entry); missing blocks contribute nothing.
    """
    out = np.zeros(template.t)
    for s in template.slots:
        g = block_grads.get(s.block)
        if g is not None:
            out[s.theta_index] += s.scale * g[s.index]
    return out


def check_feasibility(milp: StandardFormMilp, x: np.ndarray, tol: float = 1e-6) -> bool:
    """Whether the worst violation of any constraint group at ``x`` (equality,
    inequality, nonnegativity, integrality) is at most ``tol``."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    x = _as_vector(x, milp.d, "x")
    eq = float(np.max(np.abs(milp.A @ x - milp.b))) if milp.p else 0.0
    ineq = float(np.max(milp.h - milp.G @ x)) if milp.q else 0.0
    ineq = max(ineq, 0.0)
    bound = max(float(np.max(-x)) if milp.d else 0.0, 0.0)
    if milp.int_vars:
        idx = sorted(milp.int_vars)
        ints = float(np.max(np.abs(x[idx] - np.round(x[idx]))))
    else:
        ints = 0.0
    return max(eq, ineq, bound, ints) <= tol
