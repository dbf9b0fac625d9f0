"""Exact solution of the rational family on J^-1(0) by matrix factorization.

The flow reduces to diagonalizing M(t) = q0 + t*L(inf) inside the reductive
subgroup attached to Delta' (blockwise), by the eigenvector matrix k(t) with
Pi_h(k^-1 k') = 0 that the shared Kato transport of ``exact`` carries, and
conjugating:

    q(t)  = d(t)
    xi(t) = k(t)^-1 xi0 k(t)
    p(t)  = diag P,  P = k(t)^-1 L(inf) k(t) - off-diagonal L(inf)(q(t), xi(t))
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import exact
from .models import lax_limit


@dataclass
class RationalFactorization(exact.Factorization):
    """Per-time factors g(t) (block, det 1, g(0)=I), d(t), h(t), k(t)=g(t)h(t).

    k is the transported eigenvector matrix; g is k with unit-norm columns
    times their geometric mean, divided by the principal N-th root of det k
    (``exact.present``), and h = k / g columnwise."""

    times: np.ndarray
    g: np.ndarray
    d: np.ndarray  # diagonal vectors
    h: np.ndarray  # diagonal vectors
    k: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def solve_rational(spec, pt0, times, tol=1e-10):
    """Exact rational flow through pt0 in J^-1(0) at the given output times,
    transported at error tolerance `tol`.

    Returns (Trajectory, RationalFactorization), or for a ReducedPoint pt0 a
    reduced Trajectory and None (``exact.solve``).  On an eigenvalue collision
    raises BreakdownError carrying the collision time and the partial results,
    as at the first output time where xi(t) leaves J^-1(0) or the state
    fails its check.
    """
    return exact.solve(spec, pt0, times, tol, family="rational",
                       provenance="exact-rational",
                       factorization=RationalFactorization, setup=_setup)


def _setup(spec, pt0):
    """M(t) = q0 + t L(inf) broadcast over t (no path factors), the velocity
    k^-1 L(inf) k, q = d and the one limit L(inf)."""
    Linf = lax_limit(spec, pt0, "rational_inf")
    Q0 = np.diag(pt0.q)
    return (lambda t: (Q0 + np.asarray(t)[..., None, None] * Linf, ()),
            lambda t, k, d: exact.left_divide(k, Linf @ k), None,
            lambda d: d, ("rational_inf", Linf))
