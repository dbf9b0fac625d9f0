"""Exact solution of the trigonometric family on J^-1(0).

exp(+it L(+i inf)) and exp(-it L(-i inf)) factorize in the parabolic subgroups
P^{+/-}_{pi'} as block-unipotent n_{+/-} times Levi g_{+/-}, and the Levi
conjugation problem is

    M(t) = g_-(t)^-1 e^{2i q0} g_+(t) = x(t) d(t) x(t)^-1.

``path(t)`` builds M(t) so, stacked over the whole output grid in one call
before the transport (or at one complex t of collision location): one
``expm`` per sign over the stack and one ``parabolic_factor`` on each
stack, with (n_+, n_-, g_+, g_-) as its stacked factors.  On a grid, the
stack ends before the first time at which a diagonal block of either
exponential is singular, where the solve ends in a BreakdownError.
L(+/-i inf) is block triangular with block-diagonal part Lam_{+/-}, so
M'(t) = i (Lam_- M + M Lam_+).  The shared
Kato transport of ``exact`` carries an eigenvector matrix k(t) of M with
Pi_h(k^-1 k') = 0 and l(t) = log d(t), so q(t) = l(t) / 2i with no branch
tracking; k(t) = x(t) h(t) is the factor k_+(0, t).  On M k = k d the
transport velocity is autonomous,

    B = k^-1 M' k = i (k^-1 Lam_- k d + d k^-1 Lam_+ k),

one solve of k against [Lam_- k | Lam_+ k], written into one (N, 2N)
buffer built once (for a stack of k, one stacked solve into an (m, N, 2N)
buffer built per stack height), with no M(t) and no expm; M solves a linear
ODE, so the drift off M k = k d stays at the integration error (see
``exact``).  Then, on the stack of output times,

    xi(t) = k(t)^-1 xi0 k(t)
    p(t)  = diag P,  P = k(t)^-1 L(+i inf) k(t)
                         - off-diagonal L(+i inf)(q(t), xi(t));
            L(-i inf) = L(+i inf) + 2i xi gives the same p on J^-1(0).

``expm`` imports scipy's at its first call, so importing this module loads
no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import exact
from .errors import BreakdownError, ValidationError
from .models import lax_limit


@dataclass
class TrigFactorization(exact.Factorization):
    """Per-time parabolic factors, Levi conjugation data and k_+(0,t)=x(t)h(t).

    k_plus is the transported eigenvector matrix; x is k_plus with unit-norm
    columns times their geometric mean, divided by the principal N-th root of
    det k_plus (``exact.present``), so det x = 1 and x(0) = I, and
    h = k_plus / x columnwise."""

    times: np.ndarray
    n_plus: np.ndarray
    n_minus: np.ndarray
    g_plus: np.ndarray
    g_minus: np.ndarray
    x: np.ndarray
    d: np.ndarray  # diagonal vectors of the Levi conjugation problem
    h: np.ndarray  # diagonal vectors
    k_plus: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def expm(A):
    """The matrix exponential of A, or of each matrix of a stack A (..., N, N),
    by scipy's ``expm``, which the first call imports."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(A)


def parabolic_factor(spec, A, sign):
    """Unique factorization A = n g of a block-triangular invertible matrix,
    or of each matrix of a stack A (..., N, N), with n block-unipotent in
    N^{sign}_{pi'} and g in the Levi G_{pi'} of the trigonometric model
    `spec`."""
    if sign not in ("+", "-"):
        raise ValidationError("sign must be '+' or '-'")
    A = np.asarray(A, dtype=complex)
    scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))
    # membership: the entries at the negative (sign +) / positive (sign -)
    # roots outside the span of pi' must vanish
    below, above = spec.mask_minus, spec.mask_plus
    outside = A[..., below if sign == "+" else above]
    if np.any(np.abs(outside).max(axis=-1, initial=0.0) > 1e-9 * scale):
        raise ValidationError(
            f"matrix is not block {'upper' if sign == '+' else 'lower'} "
            f"triangular for the given pi'")
    if np.any(singular_blocks(spec, A)):
        raise BreakdownError("singular diagonal block in parabolic factorization")
    g = np.where(below | above, 0.0, A)
    n = A @ np.linalg.inv(g)
    return n, g


def singular_blocks(spec, A):
    """Whether a diagonal block of pi' is singular in A, or in each matrix of
    a stack A (..., N, N): |det| < 1e-12 scale^|block| with
    scale = max(1, max |A|)."""
    scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))
    bad = np.zeros(A.shape[:-2], dtype=bool)
    for blk in spec.subset.partition:
        idx = list(blk)
        pivot = (A[..., idx[0], idx[0]] if len(blk) == 1
                 else np.linalg.det(A[..., idx, :][..., idx]))
        bad |= np.abs(pivot) < 1e-12 * scale ** len(blk)
    return bad


def solve_trig(spec, pt0, times, tol=1e-10):
    """Exact trigonometric flow through pt0 in J^-1(0) at the given times,
    transported at error tolerance `tol`.

    Returns (Trajectory, TrigFactorization), or for a ReducedPoint pt0 a
    reduced Trajectory and None (``exact.solve``).  Raises BreakdownError on
    Levi eigenvalue collision, at the first time where the family's path has
    no factorization, and at the first output time where xi(t) leaves
    J^-1(0) or the state fails its check.
    """
    return exact.solve(spec, pt0, times, tol, family="trigonometric",
                       provenance="exact-trig",
                       factorization=TrigFactorization, setup=_setup)


def _setup(spec, pt0):
    """M(t) from the parabolic factors, the velocity B(k, d), q = l/2i and
    the limit L(+i inf)."""
    N = spec.ctx.N
    Lp = lax_limit(spec, pt0, "trig_plus_i_inf")
    Lm = lax_limit(spec, pt0, "trig_minus_i_inf")
    levi = spec.mask_span | np.eye(N, dtype=bool)
    Lam_p, Lam_m = np.where(levi, Lp, 0.0), np.where(levi, Lm, 0.0)
    e2iq0 = np.exp(2j * pt0.q)

    def path(t):
        t = np.asarray(t)[..., None, None]
        Ep, Em = expm(1j * t * Lp), expm(-1j * t * Lm)
        if t.ndim == 3:  # a grid: up to its first singular block
            bad = np.flatnonzero(singular_blocks(spec, Ep)
                                 | singular_blocks(spec, Em))
            if bad.size:
                Ep, Em = Ep[:bad[0]], Em[:bad[0]]
        np_, gp = parabolic_factor(spec, Ep, "+")
        nm, gm = parabolic_factor(spec, Em, "-")
        return np.linalg.solve(gm, e2iq0[:, None] * gp), (np_, nm, gp, gm)

    LK = np.empty((N, 2 * N), dtype=complex)  # Lam_- k | Lam_+ k
    LKm, LKp = LK[:, :N], LK[:, N:]
    stacks = {}  # Lam_- k | Lam_+ k of a stack of k, by its height

    def stacked(k, d):
        m = len(k)
        if m not in stacks:
            stacks[m] = np.empty((m, N, 2 * N), dtype=complex)
        LKs = stacks[m]
        np.matmul(Lam_m, k, out=LKs[:, :, :N])
        np.matmul(Lam_p, k, out=LKs[:, :, N:])
        X = exact.left_divide(k, LKs)
        return 1j * (X[:, :, :N] * d[:, None, :] + d[:, :, None] * X[:, :, N:])

    def velocity(t, k, d):
        if k.ndim == 3:
            return stacked(k, d)
        np.matmul(Lam_m, k, out=LKm)
        np.matmul(Lam_p, k, out=LKp)
        X = exact.left_divide(k, LK)
        return 1j * (X[:, :N] * d + d[:, None] * X[:, N:])

    return (path, velocity, 2j * pt0.q, lambda logd: logd / 2j,
            ("trig_plus_i_inf", Lp))
