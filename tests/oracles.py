"""Independent test oracles.

Weierstrass functions by truncated symmetrized lattice sums: terms carry
Taylor counterterms through lambda^-7 so the summand decays like lambda^-8,
the omitted moment sums are restored via S4 = sum' lambda^-4 and
S6 = sum' lambda^-6, and those two scalars are themselves computed by
Richardson extrapolation of square truncations across K, 2K, 4K, 8K
(tail exponents 2, 3, 4 for the symmetric square).  Entirely independent of
the theta-series evaluators in spincm.special.

The root sets of Delta' and pi' straight from their definitions, with no
partition or mask of spincm.liecore.

The paper's Lax-equation and invariant-function checks, on the kernels of
spincm.models: the closed-form r-matrix action (R(q)M)(z), the residual of
L' = [L, R(q)M] along the flow, and the Hamiltonian as the contour average
of (L(z), L(z)).
"""

import math

import numpy as np

from spincm import special
from spincm.errors import ValidationError
from spincm.models import (PhasePoint, _check_momentum_zero, _check_z_regular,
                           _lax_matrix, alpha_matrix, check_regular,
                           contour_radius, eom, lax, lax_batch)


def pi_root_sets(N, members):
    """(<pi'>, Obar_+, Obar_-) for pi' = {alpha_(k+1) : k in members}: the
    roots (i, j) whose i and j lie in one run of consecutive chosen simple
    roots (every alpha_(k+1) with min(i, j) <= k < max(i, j) chosen), and the
    positive / negative roots outside them, as sets of 0-based pairs."""
    roots = [(i, j) for i in range(N) for j in range(N) if i != j]
    span = {(i, j) for i, j in roots
            if all(k in members for k in range(min(i, j), max(i, j)))}
    plus = {(i, j) for i, j in roots if i < j and (i, j) not in span}
    return span, plus, {(j, i) for i, j in plus}


def partitions(items):
    """Every partition of the list items, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in partitions(rest):
        yield [[first]] + part
        for b in range(len(part)):
            yield part[:b] + [[first] + part[b]] + part[b + 1:]


def delta_of_partition(blocks):
    """Delta' of a partition: the roots (i, j), i != j, in one block."""
    return {(i, j) for blk in blocks for i in blk for j in blk if i != j}


def mask_roots(mask):
    """The roots (i, j) an (N, N) mask holds, to compare with the sets above."""
    return set(map(tuple, np.argwhere(mask).tolist()))


def _square_points(lat, K):
    """All lattice points m*2w1 + n*2w2 with |m|,|n| <= K, origin excluded."""
    m, n = np.meshgrid(np.arange(-K, K + 1), np.arange(-K, K + 1))
    pts = (2.0 * lat.omega1) * m.ravel() + (2.0 * lat.omega2) * n.ravel()
    keep = (m.ravel() != 0) | (n.ravel() != 0)
    return pts[keep]


def _extrapolate(Ks, vals, exps):
    """Solve v(K) = v + sum_e a_e K^-e for v, exactly (len(Ks) == len(exps)+1)."""
    A = np.array([[1.0] + [float(K) ** (-e) for e in exps] for K in Ks])
    sol = np.linalg.solve(A.astype(complex), np.asarray(vals, dtype=complex))
    return sol[0]


def lattice_moment(lat, j, Ks=(128, 256, 512, 1024)):
    """S_j = sum' lambda^-j by Richardson-extrapolated square truncations."""
    vals = [np.sum(_square_points(lat, K) ** (-float(j))) for K in Ks]
    return _extrapolate(Ks, vals, exps=(2, 3, 4))


class LatticeOracle:
    """Counterterm-subtracted symmetrized lattice sums for wp, wp', zeta, sigma."""

    def __init__(self, lat, K=128):
        self.lat = lat
        self.K = K
        self.pts = _square_points(lat, K)
        self.S4 = lattice_moment(lat, 4)
        self.S6 = lattice_moment(lat, 6)

    def wp(self, z):
        lam = self.pts
        terms = ((z - lam) ** -2 - lam ** -2 - 2 * z * lam ** -3
                 - 3 * z**2 * lam ** -4 - 4 * z**3 * lam ** -5
                 - 5 * z**4 * lam ** -6)
        return z ** -2 + terms.sum() + 3 * z**2 * self.S4 + 5 * z**4 * self.S6

    def wp_prime(self, z):
        lam = self.pts
        terms = (-2 * (z - lam) ** -3 - 2 * lam ** -3 - 6 * z * lam ** -4
                 - 12 * z**2 * lam ** -5 - 20 * z**3 * lam ** -6
                 - 30 * z**4 * lam ** -7)
        return -2 * z ** -3 + terms.sum() + 6 * z * self.S4 + 20 * z**3 * self.S6

    def zeta(self, z):
        lam = self.pts
        terms = (1.0 / (z - lam) + 1.0 / lam + z * lam ** -2 + z**2 * lam ** -3
                 + z**3 * lam ** -4 + z**4 * lam ** -5)
        return 1.0 / z + terms.sum() - z**3 * self.S4


    def sigma(self, z):
        lam = self.pts
        u = z / lam
        logs = np.log1p(-u) + u + u**2 / 2 + u**3 / 3 + u**4 / 4 + u**5 / 5
        return z * np.exp(logs.sum() - (z**4 / 4) * self.S4)


def r_action_on_M(spec, pt, z):
    """Closed-form (R(q) M)(z) on J^-1(0), M(z) = L(z)/z."""
    _check_momentum_zero(pt.xi)
    zs = _check_z_regular(spec, z)
    z = complex(zs[0])
    check_regular(spec, pt.q)
    N = spec.ctx.N
    xi = pt.xi
    A = alpha_matrix(pt.q)
    M = lax(spec, pt, z) / z

    if spec.family == "rational":
        out = -0.5 * M
        m = spec.mask_active
        out[m] -= xi[m] / A[m] ** 2
        return out

    if spec.family == "trigonometric":
        cz = complex(special._cot(zs)[0])
        out = 0.5 * M - cz * np.diag(pt.p)
        # phi_a(q, z) = -(R(q) + cot z): the kernel of L(z), read at xi = 1
        phi = -_lax_matrix(spec, pt.q, 0.0, np.ones((N, N)), cz)
        comp = spec.mask_plus | spec.mask_minus
        out[comp] += phi[comp] * cz * xi[comp]
        ms = spec.mask_span
        out[ms] -= phi[ms] * (phi[ms] + 1.0 / np.tan(A[ms] + z)) * xi[ms]
        return out

    m = spec.mask_active
    l, zw, zz, ldz, _ = special.lame_parts(spec.lattice, A[m], z)
    out = 0.5 * M - zz * np.diag(pt.p)
    # l (zeta(w) + zeta(z) - zeta(w+z)), with l zeta(w+z) = dl/dz + l zeta(z)
    out[m] += (l * zw - ldz) * xi[m]
    return out


def lax_residual(spec, pt, z, delta=1e-4):
    """|| d/dt L(z) - [L(z), (R(q)M)(z)] || with the time derivative taken by a
    central difference of step `delta` along the straight line x +/- delta f(x),
    f the vector field of ``eom``: the same O(delta^2) approximation of
    d/dt L(x(t)) as a difference along the flow."""
    _check_momentum_zero(pt.xi)
    RM = r_action_on_M(spec, pt, z)
    L0 = lax(spec, pt, z)
    f = eom(spec, pt)
    plus, minus = (PhasePoint(q=pt.q + h * f[0], p=pt.p + h * f[1],
                              xi=pt.xi + h * f[2]) for h in (delta, -delta))
    dL = (lax(spec, plus, z) - lax(spec, minus, z)) / (2.0 * delta)
    return float(np.linalg.norm(dL - (L0 @ RM - RM @ L0)))


def contour_hamiltonian(spec, pt, n_samples=64):
    """(1/2) contour-average of (L(z), L(z)) on |z| = r: the invariant-function
    definition of the Hamiltonian, by trapezoidal quadrature."""
    if n_samples < 16:
        raise ValidationError("n_samples must be >= 16")
    r = contour_radius(spec)
    zs = r * np.exp(2j * math.pi * np.arange(n_samples) / n_samples)
    Ls = lax_batch(spec, pt, zs)
    vals = np.einsum("kij,kji->k", Ls, Ls)
    return complex(0.5 * vals.mean())
