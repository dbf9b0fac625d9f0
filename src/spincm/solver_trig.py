"""Exact solution of the trigonometric family on J^-1(0).

exp(+it L(+i inf)) and exp(-it L(-i inf)) factorize in the parabolic subgroups
P^{+/-}_{pi'} as block-unipotent n_{+/-} times Levi g_{+/-}.  L(+/-i inf) is
block triangular, so g_{+/-} = exp(+/-it Lam_{+/-}) for its block-diagonal
part Lam_{+/-}, and the Levi conjugation problem is in closed form:

    M(t) = g_-(t)^-1 e^{2i q0} g_+(t) = e^{it Lam_-} e^{2i q0} e^{it Lam_+}
         = x(t) d(t) x(t)^-1,            M'(t) = i (Lam_- M + M Lam_+).

The shared Kato transport of ``exact`` carries an eigenvector matrix k(t) of M
with Pi_h(k^-1 k') = 0 and l(t) = log d(t), so q(t) = l(t) / 2i with no
branch tracking; k(t) = x(t) h(t) is the factor k_+(0, t).  On M k = k d the
transport velocity is autonomous,

    B = k^-1 M' k = i (k^-1 Lam_- k d + d k^-1 Lam_+ k),

one solve of k against [Lam_- k | Lam_+ k] with no M(t) and no expm; M solves
a linear ODE, so the drift off M k = k d stays at the integration error (see
``exact``).  Then

    xi(t) = k(t)^-1 xi0 k(t)
    p(t)  = k(t)^-1 L0(+/-i inf) k(t) minus the time-t non-Cartan part of the
            limiting Lax value; both sign branches are computed and compared.

``parabolic_factor`` runs only at the output times, for the recorded n, g
and the M(t) that polishes the state and whose eigenvalues the transport
checks for collisions; ``path(t)`` builds M(t) from two expm only for
collision location.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from . import exact
from .errors import BreakdownError, ValidationError
from .models import lax_limit, trig_limit_tail

P_SIGN_TOL = 1e-8


@dataclass
class TrigFactorization(exact.Factorization):
    """Per-time parabolic factors, Levi conjugation data and k_+(0,t)=x(t)h(t).

    k_plus is the transported eigenvector matrix; x is k_plus with unit-norm
    columns times their geometric mean, divided by the principal N-th root of
    det k_plus (``exact.present``), so det x = 1 and x(0) = I, and
    h = k_plus / x columnwise."""

    times: np.ndarray
    n_plus: list
    n_minus: list
    g_plus: list
    g_minus: list
    x: list
    d: list  # diagonal vectors of the Levi conjugation problem
    h: list  # diagonal vectors
    k_plus: list
    diagnostics: dict = field(default_factory=dict)


def parabolic_factor(ctx, subset, A, sign):
    """Unique factorization A = n g of a block-triangular invertible matrix,
    with n block-unipotent in N^{sign}_{pi'} and g in the Levi G_{pi'}."""
    if sign not in ("+", "-"):
        raise ValidationError("sign must be '+' or '-'")
    A = np.asarray(A, dtype=complex)
    N = A.shape[0]
    blocks = [list(b) for b in subset.partition]
    scale = max(1.0, float(np.abs(A).max()))
    # membership: entries strictly below (sign +) / above (sign -) the block
    # structure must vanish
    lowmask = np.zeros((N, N), dtype=bool)
    for blk in blocks:
        lo, hi = min(blk), max(blk)
        if sign == "+":
            lowmask[hi + 1:, lo:hi + 1] = True
        else:
            lowmask[:lo, lo:hi + 1] = True
    if np.abs(A[lowmask]).max(initial=0.0) > 1e-9 * scale:
        raise ValidationError(
            f"matrix is not block {'upper' if sign == '+' else 'lower'} "
            f"triangular for the given pi'")
    g = np.zeros_like(A)
    for blk in blocks:
        sub = A[np.ix_(blk, blk)]
        if abs(np.linalg.det(sub)) < 1e-12 * max(1.0, scale ** len(blk)):
            raise BreakdownError("singular diagonal block in parabolic factorization")
        g[np.ix_(blk, blk)] = sub
    n = A @ np.linalg.inv(g)
    return n, g


def solve_trig(spec, pt0, times, tol=1e-10):
    """Exact trigonometric flow through pt0 in J^-1(0) at the given times,
    transported at error tolerance `tol`.

    Returns (Trajectory, TrigFactorization), or for a ReducedPoint pt0 a
    reduced Trajectory and None (``exact.solve``).  Raises BreakdownError on
    Levi eigenvalue collision, and flags an internal error if the two sign
    branches of p(t) disagree beyond 1e-8.
    """
    return exact.solve(spec, pt0, times, tol, family="trigonometric",
                       provenance="exact-trig",
                       factorization=TrigFactorization, setup=_setup)


def _setup(spec, pt0):
    """The closed-form M(t), the velocity B(k, d) and the state map of the
    module docstring."""
    ctx = spec.ctx
    subset = spec.subset
    Lp = lax_limit(spec, pt0, "trig_plus_i_inf")
    Lm = lax_limit(spec, pt0, "trig_minus_i_inf")
    levi = spec.mask_span | np.eye(ctx.N, dtype=bool)
    Lam_p, Lam_m = np.where(levi, Lp, 0.0), np.where(levi, Lm, 0.0)
    e2iq0 = np.exp(2j * pt0.q)
    xi0 = pt0.xi
    N = ctx.N

    def path(t):
        return expm(1j * t * Lam_m) @ (e2iq0[:, None] * expm(1j * t * Lam_p))

    def velocity(t, k, d):
        X = exact.left_divide(k, np.concatenate((Lam_m @ k, Lam_p @ k), axis=1))
        return 1j * (X[:, :N] * d + d[:, None] * X[:, N:])

    def node(t):
        np_, gp = parabolic_factor(ctx, subset, expm(1j * t * Lp), "+")
        nm, gm = parabolic_factor(ctx, subset, expm(-1j * t * Lm), "-")

        def finish(k, logd):
            x, h = exact.present(k)
            q_t = logd / 2j
            kinv = np.linalg.inv(k)
            xi_t = kinv @ xi0 @ k
            p_plus, p_minus = (kinv @ L0 @ k - trig_limit_tail(spec, q_t, xi_t, sign)
                               for sign, L0 in ((1.0, Lp), (-1.0, Lm)))
            mism = float(np.abs(p_plus - p_minus).max())
            if mism > P_SIGN_TOL:
                raise RuntimeError(
                    f"internal error: the two sign branches of p(t) disagree by "
                    f"{mism:.3e} at t={t}")
            off = p_plus - np.diag(np.diag(p_plus))
            residuals = {"p_sign_mismatch": mism,
                         "p_offdiag_residual": float(np.abs(off).max(initial=0.0))}
            return ((q_t, np.diag(p_plus), xi_t), residuals,
                    (np_, nm, gp, gm, x, np.exp(logd), h, k))
        return np.linalg.solve(gm, e2iq0[:, None] * gp), finish

    return path, velocity, 2j * pt0.q, node
