"""Elliptic spectral-curve apparatus: characteristic polynomial of the Lax
matrix, the gauge-transformed doubly periodic Lax L^e, genericity checks,
and branch-point counting by the argument principle.

The spectral curve C: det(L(z) - wI) = 0 is an N-sheeted cover of the torus;
projecting instead to the w-line gives a degree-N map to P^1 whose
ramification points are the zeros of Res_w(I, dI/dz), an elliptic function D
of z.  Counting those zeros in a fundamental parallelogram gives B, and
g = B/2 - N + 1 recovers the genus (N^2 - N + 2)/2 for generic data.

Generic data (GA2) has a spin matrix xi with N distinct nonzero eigenvalues
mu_i.  Then every sheet runs off as mu_i/z at the puncture z = 0, the
w-projection has degree N, and D has a pole of order exactly N^2 + N at
z = 0, its only pole in the cell.  An elliptic function has as many zeros as
poles, so B = N^2 + N is known analytically.  The cell contours measure zeros
minus poles, a sum that is 0 in exact arithmetic; B is reported as that sum
plus N^2 + N, so the count checks that the contours resolve every zero, not
the genus formula.  A singular xi lowers both the degree and the pole order,
by an amount that the spectrum alone does not fix (at N = 3 the order is 9,
not 12), so GA2 excludes it.

The genericity grid and the contours are evaluated over whole arrays of z,
in blocks of Z_BLOCK: one ``models.lax_pair`` call for the stacked L(z) and
dL/dz (one lattice reduction and one theta pass per argument set), one
batched Faddeev-LeVerrier recursion and one stacked eigvals call per block.
The subcell contours share one node grid: the branch function is evaluated
once per node, in one call, and each contour gathers its values from it;
only their refinement midpoints are evaluated on their own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import special
from .errors import DomainError, ValidationError
from .models import alpha_matrix, lax, lax_pair, _check_momentum_zero

GA_GAP_TOL = 1e-8
GA1_GRID = 20  # GA1 is sampled on a GA1_GRID x GA1_GRID grid of the cell
MAX_DOUBLINGS = 6  # sampling doublings of a winding-number contour
# spectral parameters per stacked evaluation of the branch function (bounds
# the memory of the theta series and the Lax stacks)
Z_BLOCK = 128
# argument-principle contours: the cell is cut into CELL_GRID x CELL_GRID
# subcells with EDGE_SAMPLES points per subcell edge before refinement
CELL_GRID = 4
EDGE_SAMPLES = 24


# ---------------------------------------------------------------------------
# characteristic polynomial machinery
# ---------------------------------------------------------------------------

def _charpoly(L, Ldz=None):
    """Coefficients c of det(wI - L) = sum_k c[k] w^k (monic, c[..., N] = 1) by
    the Faddeev-LeVerrier recursion over a stack L of shape (..., N, N); with
    Ldz also returns dc/dz."""
    N = L.shape[-1]
    eye = np.eye(N)
    c = np.zeros(L.shape[:-2] + (N + 1,), dtype=complex)
    c[..., N] = 1.0
    M = np.broadcast_to(eye, L.shape)
    cd = Md = None
    if Ldz is not None:
        cd = np.zeros_like(c)
        Md = np.zeros(L.shape, dtype=complex)
    for k in range(1, N + 1):
        A = L @ M
        c[..., N - k] = -np.trace(A, axis1=-2, axis2=-1) / k
        if Ldz is not None:
            Ad = Ldz @ M + L @ Md
            cd[..., N - k] = -np.trace(Ad, axis1=-2, axis2=-1) / k
            Md = Ad + cd[..., N - k, None, None] * eye
        M = A + c[..., N - k, None, None] * eye
    return (c, cd) if Ldz is not None else c


def _horner(c, w):
    """sum_k c[..., k] w^k at the points w[..., j], for each leading index."""
    out = np.zeros(w.shape, dtype=complex)
    for k in range(c.shape[-1] - 1, -1, -1):
        out = out * w + c[..., k, None]
    return out


def _sheet_partials(spec, pt, zs):
    """(dI/dw, dI/dz) of I(z, w) = det(wI - L(z)) at the N sheets w_i(z) over
    each z of zs: two arrays of shape (len(zs), N).  Evaluated in blocks of
    Z_BLOCK spectral parameters, one stacked eigvals call per block."""
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    N = spec.ctx.N
    dw = np.empty((zs.size, N), dtype=complex)
    dz = np.empty((zs.size, N), dtype=complex)
    slope = np.arange(1, N + 1)
    for s in range(0, zs.size, Z_BLOCK):
        blk = zs[s:s + Z_BLOCK]
        L, Ldz = lax_pair(spec, pt, blk)
        c, cd = _charpoly(L, Ldz)
        roots = np.linalg.eigvals(L)
        dw[s:s + Z_BLOCK] = _horner(c[:, 1:] * slope, roots)
        dz[s:s + Z_BLOCK] = _horner(cd, roots)
    return dw, dz


@dataclass
class SpectralSample:
    """Coefficients a_0..a_{N-1} of det(L(z) - wI) = (-w)^N + a_{N-1}(-w)^{N-1}
    + ... + a_0 at one spectral parameter z."""

    z: complex
    a: np.ndarray


def char_poly_coeffs(spec, pt, z):
    """Spectral sample at z; a_{N-1} = tr L(z) vanishes for traceless data."""
    L = lax(spec, pt, z)
    c = _charpoly(L)
    N = L.shape[0]
    a = np.array([(-1.0) ** (N - k) * c[k] for k in range(N)])
    return SpectralSample(z=complex(z), a=a)


def gauge_lax(spec, pt, z):
    """Doubly periodic gauge of the elliptic Lax matrix:
    (L^e)_ij = L_ij * exp(-zeta(z) (q_i - q_j))."""
    if spec.family != "elliptic":
        raise ValidationError("gauge_lax requires the elliptic family")
    _check_momentum_zero(pt.xi)
    L = lax(spec, pt, z)
    zz = special.zeta_w(spec.lattice, z)
    return L * np.exp(-zz * alpha_matrix(pt.q))


# ---------------------------------------------------------------------------
# genericity
# ---------------------------------------------------------------------------

@dataclass
class GenericityReport:
    ga1_ok: bool
    ga1_min: float
    ga2_ok: bool
    ga2_min_gap: float
    ga2_min_abs: float

    def to_json_dict(self):
        return {"ga1": bool(self.ga1_ok), "ga1_min": self.ga1_min,
                "ga2": bool(self.ga2_ok), "ga2_min_gap": self.ga2_min_gap,
                "ga2_min_abs": self.ga2_min_abs,
                "grid": f"{GA1_GRID}x{GA1_GRID}"}


def genericity_check(spec, pt):
    """GA2: N distinct nonzero eigenvalues of xi (smallest gap and smallest
    modulus both at least GA_GAP_TOL).  GA1: lower bound of |dI/dw| + |dI/dz|
    over curve points sampled on a z-grid."""
    if spec.family != "elliptic":
        raise ValidationError("genericity_check requires the elliptic family")
    lam = np.linalg.eigvals(pt.xi)
    i, j = np.triu_indices(len(lam), 1)
    diff = lam[i] - lam[j]
    # hypot is the scalar complex abs bit for bit; numpy's complex abs is not
    gap = np.hypot(diff.real, diff.imag).min(initial=np.inf)
    min_abs = np.abs(lam).min()
    ga2 = bool(gap >= GA_GAP_TOL and min_abs >= GA_GAP_TOL)

    lat = spec.lattice
    ss = (np.arange(GA1_GRID) + 0.61803) / GA1_GRID
    uu = (np.arange(GA1_GRID) + 0.38196) / GA1_GRID
    s, u = np.meshgrid(ss, uu, indexing="ij")
    zs = ((2 * s - 1) * lat.omega1 + (2 * u - 1) * lat.omega2).ravel()
    zs = zs[lat.lattice_distance(zs) >= 1e-3]
    dw, dz = _sheet_partials(spec, pt, zs)
    ga1_min = np.min(np.abs(dw) + np.abs(dz), initial=np.inf)
    ga1 = bool(ga1_min >= GA_GAP_TOL)
    return GenericityReport(ga1_ok=ga1, ga1_min=float(ga1_min), ga2_ok=ga2,
                            ga2_min_gap=float(gap),
                            ga2_min_abs=float(min_abs))


# ---------------------------------------------------------------------------
# branch points and genus
# ---------------------------------------------------------------------------

def _branch_function(spec, pt):
    """D(z) = prod_i dI/dz(z, w_i(z)) over the sheets: an elliptic function of z
    whose zeros are the ramification points of the w-projection.  D maps an
    array of z to the array of its values."""
    def D(zs):
        return np.prod(_sheet_partials(spec, pt, zs)[1], axis=-1)
    return D


def _winding(fun, points, vals):
    """Winding number of fun along a closed polyline, doubling the sampling
    until phase steps are resolved and the total is integer; None on failure.
    fun maps an array of points to their values; `vals` are the values at
    `points`, and each refinement evaluates only the new midpoints."""
    pts = np.asarray(points, dtype=complex)
    for refine in range(MAX_DOUBLINGS + 1):
        if refine:
            mids = 0.5 * (pts + np.roll(pts, -1))
            pts = np.stack([pts, mids], axis=-1).ravel()
            vals = np.stack([vals, fun(mids)], axis=-1).ravel()
        if np.any(vals == 0) or not np.all(np.isfinite(vals)):
            return None
        steps = np.angle(np.roll(vals, -1) / vals)
        total = steps.sum() / (2.0 * math.pi)
        if np.abs(steps).max() < 2.6 and abs(total - round(total)) < 0.05:
            return int(round(total))
    return None


def branch_count_genus(spec, pt):
    """(B, genus) with genus = B/2 - N + 1; requires GA1 and GA2 (DomainError).

    B is the number of zeros of the branch function D in a fundamental
    parallelogram.  Under GA2, D has one pole in the cell, of the analytic
    order N^2 + N at z = 0, and as many zeros as poles, so B = N^2 + N.  The
    argument principle on CELL_GRID x CELL_GRID subcells measures zeros minus
    poles, 0 in exact arithmetic, and B is that sum plus N^2 + N: the count
    differs from N^2 + N only where a contour misses a zero."""
    if spec.family != "elliptic":
        raise ValidationError("branch_count_genus requires the elliptic family")
    rep = genericity_check(spec, pt)
    if not (rep.ga1_ok and rep.ga2_ok):
        raise DomainError("genericity assumptions fail: "
                          f"GA1={rep.ga1_ok}, GA2={rep.ga2_ok}")
    return _count_branch_points(spec, pt)


def _count_branch_points(spec, pt):
    """branch_count_genus without its genericity gate, for callers that have
    already run genericity_check.

    The cell base + [0, 1] 2 omega_1 + [0, 1] 2 omega_2 is an n x n grid, n =
    CELL_GRID * EDGE_SAMPLES.  D is evaluated once, in one call, on the grid
    nodes (a, b) that lie on a subcell line (a or b a multiple of
    EDGE_SAMPLES); each subcell's counter-clockwise ring of 4 EDGE_SAMPLES
    nodes gathers its values from that array, and its refinement evaluates
    only the ring's new midpoints.  Neighbouring rings read the same values
    along their shared edge, so the sum of the windings is the winding of D
    along the outer boundary.  Its opposite edges are evaluated at their own
    nodes, a period apart, not identified with each other: identified, the
    sum would vanish by construction and B = N^2 + N would check nothing;
    evaluated, a missed or extra zero moves B."""
    lat = spec.lattice
    N = spec.ctx.N
    D = _branch_function(spec, pt)
    p1, p2 = 2 * lat.omega1, 2 * lat.omega2

    m, n = EDGE_SAMPLES, CELL_GRID * EDGE_SAMPLES
    a, b = np.indices((n + 1, n + 1))
    on_line = (a % m == 0) | (b % m == 0)
    # index of grid node (a, b) among those on a line
    node = np.cumsum(on_line).reshape(on_line.shape) - 1
    # a subcell's ring as (a, b) offsets from its corner node (i m, j m)
    k, zero, full = np.arange(m), np.zeros(m, dtype=int), np.full(m, m)
    da = np.concatenate([k, full, m - k, zero])
    db = np.concatenate([zero, k, full, m - k])
    rings = [node[i * m + da, j * m + db]
             for i, j in itertools.product(range(CELL_GRID), repeat=2)]
    s, u = a[on_line] / n, b[on_line] / n

    for jitter in (0.0, 0.0371 + 0.0213j, -0.0241 + 0.0431j):
        # base corner placing the lattice point 0 at the center of a subcell
        base = -(1.0 + 1.0 / CELL_GRID) * (lat.omega1 + lat.omega2)
        base = base + jitter * (p1 + p2)
        Z = base + s * p1 + u * p2
        vals = D(Z)
        total = 0
        for ring in rings:
            w = _winding(D, Z[ring], vals[ring])
            if w is None:
                break
            total += w
        else:
            # total is zeros minus poles of the elliptic D; under GA2 its one
            # pole in the cell, at z = 0, has order N^2 + N
            B = total + N * (N + 1)
            return int(B), int(B // 2 - N + 1)
    raise RuntimeError("branch counting failed: contour through a zero even "
                       "after jittering the fundamental domain")
