"""Implicit differentiation of the barrier optimum w.r.t. problem data.

At a strictly interior stationary point of

    f(x) = c'x - mu * sum_j ln(x_j) - mu * sum_i ln(G_i'x - h_i),  s.t. Ax = b

the optimality system  f_x(x) = A'y,  Ax = b  defines x as an implicit
function of (c, A, b, G, h).  Differentiating it gives, with H = f_xx and
M = A H^{-1} A',

    dx/dv = (H^{-1} A' M^{-1} A H^{-1} - H^{-1}) f_vx        for v in {c, G, h}
    dx/db = H^{-1} A' M^{-1}
    dx/dA_ik = H^{-1} (-A' M^{-1} (x_k e_i - y_i A H^{-1} e_k) - y_i e_k)

where f_vx holds the mixed second derivatives of the barrier objective.
With no equality constraints the projector collapses to -H^{-1}.

Full Jacobians are provided for the small-problem test suites; the
vector-Jacobian products in :func:`vjp` are what the training loop uses, so
flattened d x (q*d) blocks never have to be materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError

from .barrier import BarrierSolution, RelaxedLp, chol_lower, chol_solve
from .errors import NotInterior, SingularSystem

EQ_REG = 1e-12  # added to A H^{-1} A' before factorization


@dataclass(frozen=True)
class BarrierHessian:
    H: np.ndarray


@dataclass(frozen=True)
class BlockGradients:
    """Requested Jacobian blocks of the barrier optimum.

    Flattened blocks use row-major coefficient order: column l*d + r of
    ``dx_dG`` is d(x)/d(G[l, r]); column i*d + k of ``dx_dA`` is
    d(x)/d(A[i, k]).
    """

    dx_dc: np.ndarray | None = None
    dx_db: np.ndarray | None = None
    dx_dh: np.ndarray | None = None
    dx_dG: np.ndarray | None = None
    dx_dA: np.ndarray | None = None


def _slacks(lp: RelaxedLp, sol: BarrierSolution) -> np.ndarray:
    s = lp.G @ sol.x - lp.h if lp.q else np.zeros(0)
    if (sol.x <= 0).any() or (lp.q and (s <= 0).any()):
        raise NotInterior("solution is not strictly interior")
    return s


def hessian_fxx(lp: RelaxedLp, sol: BarrierSolution) -> BarrierHessian:
    """Second derivatives of the barrier objective at the solution."""
    s = _slacks(lp, sol)
    H = np.diag(sol.mu / sol.x**2)
    if lp.q:
        Gw = lp.G / s[:, None]
        H = H + sol.mu * (Gw.T @ Gw)
    return BarrierHessian(H=H)


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

    def __init__(self, lp: RelaxedLp, sol: BarrierSolution):
        self.lp = lp
        self.sol = sol
        self.s = _slacks(lp, sol)
        self.H = hessian_fxx(lp, sol).H
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

    def f_hx(self) -> np.ndarray:
        """d x q matrix of mixed derivatives w.r.t. h entries."""
        w2 = 1.0 / self.s**2
        return -self.sol.mu * (self.lp.G * w2[:, None]).T

    def f_Gx_row(self, ell: int) -> np.ndarray:
        """d x d matrix F with F[j, r] = d f_{x_j} / d G[ell, r]."""
        mu, x = self.sol.mu, self.sol.x
        w = 1.0 / self.s[ell]
        return mu * w**2 * np.outer(self.lp.G[ell], x) - mu * w * np.eye(self.lp.d)


def grad_wrt_c(lp: RelaxedLp, sol: BarrierSolution) -> np.ndarray:
    """d x d Jacobian dx/dc.

    The mixed derivative w.r.t. the cost vector is the identity, so this is
    the bare projector; only the decision rows are returned (slack variables
    of the inequality reformulation never appear here).
    """
    f = _Factors(lp, sol)
    return f.project(np.eye(lp.d))


def grad_wrt_b(lp: RelaxedLp, sol: BarrierSolution) -> np.ndarray:
    """d x p Jacobian dx/db = H^{-1} A' M^{-1}."""
    if not lp.p:
        raise SingularSystem("dx/db requires at least one equality row")
    f = _Factors(lp, sol)
    return f.m_solve(f.HiAT.T).T


def grad_wrt_h(lp: RelaxedLp, sol: BarrierSolution) -> np.ndarray:
    """d x q Jacobian dx/dh."""
    f = _Factors(lp, sol)
    return f.project(f.f_hx())


def grad_wrt_G(lp: RelaxedLp, sol: BarrierSolution) -> np.ndarray:
    """d x (q*d) Jacobian over the flattened inequality matrix."""
    f = _Factors(lp, sol)
    out = np.empty((lp.d, lp.q * lp.d))
    for ell in range(lp.q):
        out[:, ell * lp.d : (ell + 1) * lp.d] = f.project(f.f_Gx_row(ell))
    return out


def grad_wrt_A(lp: RelaxedLp, sol: BarrierSolution) -> np.ndarray:
    """d x (p*d) Jacobian over the flattened equality matrix.

    Differentiating the optimality system w.r.t. A[i, k] gives
    H dx - A' dy = y_i e_k  and  A dx = -x_k e_i, hence
    dx = H^{-1} (-A' M^{-1} (x_k e_i + y_i A H^{-1} e_k) + y_i e_k).
    """
    if not lp.p:
        raise SingularSystem("dx/dA requires at least one equality row")
    f = _Factors(lp, sol)
    x, y = sol.x, sol.y
    AHi = f.HiAT.T
    out = np.empty((lp.d, lp.p * lp.d))
    eye_p = np.eye(lp.p)
    for i in range(lp.p):
        for k in range(lp.d):
            v = x[k] * eye_p[i] + y[i] * AHi[:, k]
            rhs = -lp.A.T @ f.m_solve(v)
            rhs[k] += y[i]
            out[:, i * lp.d + k] = f.h_solve(rhs)
    return out


def block_gradients(lp: RelaxedLp, sol: BarrierSolution, blocks=("c", "b", "h", "G", "A")) -> BlockGradients:
    kw = {}
    for name in blocks:
        if name == "c":
            kw["dx_dc"] = grad_wrt_c(lp, sol)
        elif name == "b":
            kw["dx_db"] = grad_wrt_b(lp, sol)
        elif name == "h":
            kw["dx_dh"] = grad_wrt_h(lp, sol)
        elif name == "G":
            kw["dx_dG"] = grad_wrt_G(lp, sol)
        elif name == "A":
            kw["dx_dA"] = grad_wrt_A(lp, sol)
        else:
            raise ValueError(f"unknown block {name!r}")
    return BlockGradients(**kw)


def vjp(lp: RelaxedLp, sol: BarrierSolution, upstream: np.ndarray, blocks=("c",)) -> dict[str, np.ndarray]:
    """Vector-Jacobian products u' dx/dv for each requested block.

    Returns arrays shaped like the blocks themselves (length d for c, length
    p for b, length q for h, q x d for G, p x d for A), so the results feed
    straight into template slot backpropagation.
    """
    u = np.asarray(upstream, dtype=float).reshape(lp.d)
    f = _Factors(lp, sol)
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
