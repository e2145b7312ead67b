"""Implicit differentiation of the barrier optimum w.r.t. problem data.

At a strictly interior stationary point of

    f(x) = c'x - mu * sum_j ln(x_j) - mu * sum_i ln(G_i'x - h_i),  s.t. Ax = b

the optimality system  f_x(x) = A'y,  Ax = b  defines x as an implicit
function of (c, A, b, G, h).  Differentiating it gives, with H = f_xx and
M = A H^{-1} A',

    dx/dv = (H^{-1} A' M^{-1} A H^{-1} - H^{-1}) f_vx        for v in {c, G, h}
    dx/db = H^{-1} A' M^{-1}
    dx/dA_ik = H^{-1} (-A' M^{-1} (x_k e_i + y_i A H^{-1} e_k) + y_i e_k)

where f_vx holds the mixed second derivatives of the barrier objective.
With no equality constraints the projector collapses to -H^{-1}.

Training pulls one upstream vector u back through each solve, so
:func:`vjp` returns u' dx/dv for each block without ever materializing a
Jacobian (the G block alone would be d x (q*d)).  It differentiates a
``BarrierSolution`` in the problem it carries, reading ``c, A, b, G, h`` of
that ``StandardFormMilp`` and ignoring ``int_vars``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError

from .barrier import BarrierSolution, chol_lower, chol_solve
from .errors import NotInterior, SingularSystem

EQ_REG = 1e-12  # added to A H^{-1} A' before factorization


def _factor(a: np.ndarray) -> tuple[np.ndarray, bool]:
    # Non-finite data raise ValueError here, as scipy's check_finite does.
    c, lower = chol_lower(np.asarray_chkfinite(a))
    return np.asarray_chkfinite(c), lower


def _solve(factor: tuple[np.ndarray, bool], rhs: np.ndarray) -> np.ndarray:
    return chol_solve(factor, np.asarray_chkfinite(rhs))


class _Factors:
    """Shared factorization of H (and A H^{-1} A' when equalities exist).

    ``Hc`` and ``Mc`` are in scipy's ``(factor, lower)`` form.
    """

    def __init__(self, sol: BarrierSolution):
        self.lp = lp = sol.lp
        self.s = lp.G @ sol.x - lp.h if lp.q else np.zeros(0)
        if (sol.x <= 0).any() or (lp.q and (self.s <= 0).any()):
            raise NotInterior("solution is not strictly interior")
        # H = f_xx: the x >= 0 barrier on the diagonal plus the G rows' terms.
        H = np.diag(sol.mu / sol.x**2)
        if lp.q:
            Gw = lp.G / self.s[:, None]
            H = H + sol.mu * (Gw.T @ Gw)
        self.H = H
        try:
            self.Hc = _factor(self.H)
        except LinAlgError as exc:
            raise SingularSystem(f"barrier Hessian not positive definite: {exc}") from exc
        self.p = lp.p
        if self.p:
            self.HiAT = _solve(self.Hc, lp.A.T)
            M = lp.A @ self.HiAT + EQ_REG * np.eye(self.p)
            try:
                self.Mc = _factor(M)
            except LinAlgError as exc:
                raise SingularSystem(f"A H^-1 A' not invertible: {exc}") from exc

    def h_solve(self, rhs: np.ndarray) -> np.ndarray:
        return _solve(self.Hc, rhs)

    def m_solve(self, rhs: np.ndarray) -> np.ndarray:
        return _solve(self.Mc, rhs)

    def project(self, rhs: np.ndarray) -> np.ndarray:
        """Apply (H^{-1} A' M^{-1} A H^{-1} - H^{-1}) columnwise."""
        if not self.p:
            return -self.h_solve(rhs)
        inner = self.h_solve(rhs)
        return self.HiAT @ self.m_solve(self.lp.A @ inner) - inner


def vjp(sol: BarrierSolution, upstream: np.ndarray, blocks=("c",)) -> dict[str, np.ndarray]:
    """Vector-Jacobian products u' dx/dv of the solution ``sol`` for each
    requested block v of the problem ``sol.lp`` it solved.

    Returns arrays shaped like the blocks themselves (length d for c, length
    p for b, length q for h, q x d for G, p x d for A), so the results feed
    straight into template slot backpropagation.
    """
    lp = sol.lp
    u = np.asarray(upstream, dtype=float).reshape(lp.d)
    f = _Factors(sol)
    mu, x, y, s = sol.mu, sol.x, sol.y, f.s
    out: dict[str, np.ndarray] = {}
    # The projector is symmetric, so u' (P g) = (P u)' g for every rhs g.
    v = f.project(u)
    for name in blocks:
        if name == "c":
            out["c"] = v.copy()
        elif name == "h":
            out["h"] = -mu * (lp.G @ v) / s**2 if lp.q else np.zeros(0)
        elif name == "G":
            if lp.q:
                Gv = lp.G @ v
                out["G"] = mu * np.outer(Gv / s**2, x) - mu * np.outer(1.0 / s, v)
            else:
                out["G"] = np.zeros((0, lp.d))
        elif name == "b":
            if not lp.p:
                raise SingularSystem("b block requires equality rows")
            out["b"] = f.m_solve(lp.A @ f.h_solve(u))
        elif name == "A":
            if not lp.p:
                raise SingularSystem("A block requires equality rows")
            r = f.h_solve(u)
            z = f.m_solve(lp.A @ r)
            g = r - f.h_solve(lp.A.T @ z)
            out["A"] = -np.outer(z, x) + np.outer(y, g)
        else:
            raise ValueError(f"unknown block {name!r}")
    return out
