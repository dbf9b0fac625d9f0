"""The three spin Calogero-Moser families over sl(N,C).

Hamiltonians, Lax operators L(q,p,xi)(z), limiting Lax values, Hamiltonian
vector fields on the full and reduced phase spaces, and the closed-form
r-matrix actions (R(q)M)(z) entering the Lax equations.

All three families share the shape

    H = 1/2 tr p^2 - 1/2 sum_{a in A} kappa_a(q) xi_a xi_{-a} - c0 * sum_i xi_i^2

with family kernel kappa and active root set A:

    rational:       A = Delta',  kappa = 1/a(q)^2,                    c0 = 0
    trigonometric:  A = Delta,   kappa = csc^2 a(q) - 1/3  on <pi'>,
                                 kappa = -1/3              elsewhere,  c0 = 1/3
    elliptic:       A = Delta,   kappa = wp(a(q)),                    c0 = 0

The -1/3 constant on roots outside <pi'> is forced by the contour-integral
definition of the Hamiltonian applied to the trigonometric Lax operator
(the z^0 Laurent coefficient of csc^2 z is 1/3); with it the Lax equation
and the factorization solution hold exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special
from .errors import (ContractError, DomainError, PoleError, ValidationError,
                     require_keys)
from .liecore import (LieContext, RootSubset, coroot_diagonal, reduce_gauge,
                      validate_root_subset)
from .special import EllipticLattice, cot_c

REGULARITY_MARGIN = 1e-6
MOMENTUM_TOL = 1e-10

FAMILIES = ("rational", "trigonometric", "elliptic")


# ---------------------------------------------------------------------------
# phase points
# ---------------------------------------------------------------------------

def _vec(x, N, name):
    v = np.asarray(x, dtype=complex).reshape(-1)
    if v.size != N:
        raise ValidationError(f"{name} must have {N} entries, got {v.size}")
    if abs(v.sum()) > 1e-10 * max(1.0, np.abs(v).max(initial=0.0)) * N:
        raise ValidationError(f"{name} must be traceless (sum={v.sum():.3e})")
    return v


def check_state(q, p, m, reduced=False):
    """(q, p, m) as complex arrays after the checks of a phase point: q and p
    traceless vectors of one length N and m an N x N matrix, either a traceless
    xi or, when `reduced`, an s with zero diagonal and s_{a_i} = 1 within 1e-8,
    returned with those entries snapped to exactly 1 and 0."""
    N = np.size(q)
    q, p = _vec(q, N, "q"), _vec(p, N, "p")
    m = np.asarray(m, dtype=complex)
    if m.shape != (N, N):
        raise ValidationError(f"{'s' if reduced else 'xi'} must be {N}x{N}, got {m.shape}")
    if not reduced:
        if abs(np.trace(m)) > 1e-10 * max(1.0, np.abs(m).max(initial=0.0)) * N:
            raise ValidationError("xi must be traceless")
        return q, p, m
    m = m.copy()
    if np.abs(np.diag(m)).max(initial=0.0) > 1e-10:
        raise ValidationError("s must have zero diagonal")
    for k in range(N - 1):
        if abs(m[k, k + 1] - 1.0) > 1e-8:
            raise ValidationError(
                f"s_(alpha_{k + 1}) = {m[k, k + 1]} != 1 on a reduced point")
        m[k, k + 1] = 1.0
    np.fill_diagonal(m, 0.0)
    return q, p, m


class _Point:
    """``check_state`` on construction and the [[re, im]] JSON codec, shared by
    PhasePoint and ReducedPoint; `_matrix` names the N x N field."""

    _matrix = None

    def __post_init__(self):
        self.q, self.p, m = check_state(self.q, self.p, getattr(self, self._matrix),
                                        reduced=self._matrix == "s")
        setattr(self, self._matrix, m)

    def to_json_dict(self):
        return {key: [[z.real, z.imag] for z in getattr(self, key).ravel()]
                for key in ("q", "p", self._matrix)}

    @classmethod
    def from_json_dict(cls, d):
        keys = ("q", "p", cls._matrix)
        require_keys(d, keys, "point")
        q, p, m = (np.array([complex(a, b) for a, b in d[key]]) for key in keys)
        if m.size != q.size ** 2:
            raise ValidationError(f"{cls._matrix} must have {q.size ** 2} "
                                  f"entries, got {m.size}")
        return cls(q, p, m.reshape(q.size, q.size))


@dataclass
class PhasePoint(_Point):
    """(q, p, xi) with q, p Cartan elements stored as diagonal vectors."""

    q: np.ndarray
    p: np.ndarray
    xi: np.ndarray

    _matrix = "xi"

    def momentum(self):
        """J = -Pi_h(xi), as a diagonal vector."""
        return -np.diag(self.xi)


@dataclass
class ReducedPoint(_Point):
    """(q, p, s) on TU x g_red: s has zero diagonal and s_{a_i} = 1 exactly."""

    q: np.ndarray
    p: np.ndarray
    s: np.ndarray

    _matrix = "s"


def reduce_point(ctx, pt):
    """Reduction (q,p,xi) -> (q,p, g(xi)^-1 xi g(xi)); requires xi in U."""
    return ReducedPoint(q=pt.q.copy(), p=pt.p.copy(), s=reduce_gauge(ctx, pt.xi))


# ---------------------------------------------------------------------------
# model specification
# ---------------------------------------------------------------------------

@dataclass
class ModelSpec:
    """One of the three families together with its root-subset / lattice data."""

    ctx: LieContext
    family: str
    subset: RootSubset = None
    lattice: EllipticLattice = None

    def __post_init__(self):
        # regular_roots: (rows, cols), in row-major order, of the roots whose
        # kernel depends on q; regularity is checked on their values
        if self.family not in FAMILIES:
            raise ValidationError(f"family must be one of {FAMILIES}")
        N = self.ctx.N
        off = ~np.eye(N, dtype=bool)
        if self.family == "rational":
            if self.subset is None or self.subset.kind != "delta":
                raise ValidationError("rational family needs a Delta' subset")
            if self.subset.partition is None:
                self.subset = validate_root_subset(self.ctx, self.subset)
            self.mask_active = _mask(N, self.subset.members)
            self.regular_roots = np.nonzero(self.mask_active)
        elif self.family == "trigonometric":
            if self.subset is None or self.subset.kind != "pi":
                raise ValidationError("trigonometric family needs a pi' subset")
            if self.subset.span is None:
                self.subset = validate_root_subset(self.ctx, self.subset)
            self.mask_span = _mask(N, self.subset.span)
            self.mask_plus = _mask(N, self.subset.obar_plus)
            self.mask_minus = _mask(N, self.subset.obar_minus)
            self.mask_active = off
            self.regular_roots = np.nonzero(self.mask_span)
        else:
            if self.lattice is None:
                raise ValidationError("elliptic family needs a lattice")
            self.mask_active = off
            # wp is even and wp' odd in a(q): the i < j roots stand for all
            self.regular_roots = np.triu_indices(N, 1)

    def to_json_dict(self):
        d = {"N": self.ctx.N, "family": self.family}
        if self.subset is not None:
            d["root_subset"] = self.subset.to_json_dict()
        if self.lattice is not None:
            d["lattice"] = self.lattice.to_json_dict()
        return d


def _mask(N, pairs):
    m = np.zeros((N, N), dtype=bool)
    for i, j in pairs:
        m[i, j] = True
    return m


def rational_model(ctx, subset):
    return ModelSpec(ctx=ctx, family="rational",
                     subset=validate_root_subset(ctx, subset))


def trig_model(ctx, subset):
    return ModelSpec(ctx=ctx, family="trigonometric",
                     subset=validate_root_subset(ctx, subset))


def elliptic_model(ctx, lattice):
    return ModelSpec(ctx=ctx, family="elliptic", lattice=lattice)


def model_from_json_dict(d):
    from .liecore import build_sl_context
    require_keys(d, ("N", "family"), "model")
    fam = d["family"]
    if fam not in FAMILIES:
        raise ValidationError(f"unknown family {fam!r}")
    require_keys(d, ("lattice",) if fam == "elliptic" else ("root_subset",), "model")
    ctx = build_sl_context(int(d["N"]))
    if fam == "rational":
        return rational_model(ctx, RootSubset.from_json_dict(d["root_subset"]))
    if fam == "trigonometric":
        return trig_model(ctx, RootSubset.from_json_dict(d["root_subset"]))
    return elliptic_model(ctx, EllipticLattice.from_json_dict(d["lattice"]))


# ---------------------------------------------------------------------------
# kernels, regularity
# ---------------------------------------------------------------------------

def alpha_matrix(q):
    """Matrix of root values a(q): A[i, j] = q_i - q_j."""
    q = np.asarray(q)
    return q[:, None] - q[None, :]


def singular_distance(spec, w):
    """Distance of root values w to the family's singular set ({0}, pi*Z, Lambda)."""
    w = np.asarray(w, dtype=complex)
    if spec.family == "rational":
        return np.abs(w)
    if spec.family == "trigonometric":
        return np.abs(w - math.pi * np.round(w.real / math.pi))
    return spec.lattice.lattice_distance(w)


def _require_regular(w, dist, rows, cols):
    """Raise DomainError naming the first root (rows[k], cols[k]) whose value
    w[k] lies closer than REGULARITY_MARGIN (dist[k]) to the singular set."""
    bad = dist < REGULARITY_MARGIN
    if bad.any():
        k = bad.argmax()
        raise DomainError(
            f"singular configuration: alpha(q) = {w[k]:.3e} for root "
            f"eps_{rows[k] + 1}-eps_{cols[k] + 1} is within {REGULARITY_MARGIN} "
            f"of the singular set")


def check_regular(spec, q):
    """Raise DomainError naming the offending root if q is closer than
    REGULARITY_MARGIN to the singular set along any kernel-relevant root
    (the first one in row-major order)."""
    i, j = spec.regular_roots
    q = np.asarray(q)
    w = q[i] - q[j]
    _require_regular(w, singular_distance(spec, w), i, j)


def _kernel_matrices(spec, q):
    """(K, Kp): kappa_a(q) and d kappa / d a(q) filled on the active mask, after
    the regularity check of ``check_regular`` (same error, same root), in one
    pass.  Elliptic: one lattice reduction and one theta-series pass over the
    i < j roots give wp and wp'; K is mirrored as even and Kp as odd."""
    N = spec.ctx.N
    K = np.zeros((N, N), dtype=complex)
    Kp = np.zeros((N, N), dtype=complex)
    i, j = spec.regular_roots
    w = q[i] - q[j]
    if spec.family == "elliptic":
        z0, _, _ = spec.lattice.reduce(w)
        _require_regular(w, np.abs(z0), i, j)
        k, kp = spec.lattice._wp_pair(z0)
        K[i, j] = K[j, i] = k
        Kp[i, j], Kp[j, i] = kp, -kp
        return K, Kp
    _require_regular(w, singular_distance(spec, w), i, j)
    if spec.family == "rational":
        K[i, j] = 1.0 / w**2
        Kp[i, j] = -2.0 / w**3
    else:
        s = np.sin(w)
        K[i, j] = 1.0 / s**2 - 1.0 / 3.0
        Kp[i, j] = -2.0 * np.cos(w) / s**3
        K[spec.mask_plus | spec.mask_minus] = -1.0 / 3.0
    return K, Kp


def _c0(spec):
    return 1.0 / 3.0 if spec.family == "trigonometric" else 0.0


# ---------------------------------------------------------------------------
# Hamiltonian, equations of motion
# ---------------------------------------------------------------------------

def hamiltonian(spec, pt):
    """Closed-form Hamiltonian of the family at a regular point."""
    K, _ = _kernel_matrices(spec, pt.q)
    xi = pt.xi
    h = 0.5 * np.sum(pt.p**2) - 0.5 * np.sum(K * xi * xi.T)
    c0 = _c0(spec)
    if c0:
        h -= c0 * np.sum(np.diag(xi) ** 2)
    return complex(h)


def _grad_xi(spec, K, xi):
    """Trace-form gradient of H in xi: -sum kappa_a xi_a e_a - 2 c0 Pi_h xi."""
    G = -(K * xi)
    c0 = _c0(spec)
    if c0:
        G = G - 2.0 * c0 * np.diag(np.diag(xi))
    return G


def eom(spec, pt):
    """(q_dot, p_dot, xi_dot) of the family's Hamiltonian vector field."""
    K, Kp = _kernel_matrices(spec, pt.q)
    xi = pt.xi
    W = Kp * xi * xi.T
    pdot = 0.5 * (W.sum(axis=1) - W.sum(axis=0))
    G = _grad_xi(spec, K, xi)
    xidot = xi @ G - G @ xi
    return pt.p.copy(), pdot, xidot


def reduced_hamiltonian(spec, rpt):
    """Hamiltonian of the reduced system on TU x g_red."""
    K, _ = _kernel_matrices(spec, rpt.q)
    return complex(0.5 * np.sum(rpt.p**2) - 0.5 * np.sum(K * rpt.s * rpt.s.T))


def _cartan_correction(spec, K, s):
    """Diagonal of the Cartan correction sum_{i,j} C_ji X_j h_{a_i} in the
    reduced vector field, where X_j = sum_{a in A, a_j - a in Delta}
    N_{a, a_j - a} kappa_a s_a s_{a_j - a}."""
    N = spec.ctx.N
    X = np.zeros(N - 1, dtype=complex)
    Ks = K * s
    for j in range(N - 1):
        for b in range(N):
            if b != j and b != j + 1:
                X[j] += Ks[j, b] * s[b, j + 1]  # alpha = (j, b), N = +1
                X[j] -= Ks[b, j + 1] * s[j, b]  # alpha = (b, j+1), N = -1
    return coroot_diagonal(spec.ctx, X)


def reduced_eom(spec, rpt):
    """(q_dot, p_dot, s_dot) with s_dot = [s, M]; M carries the Cartan
    correction that keeps s_{a_i} = 1 along the flow."""
    K, Kp = _kernel_matrices(spec, rpt.q)
    s = rpt.s
    W = Kp * s * s.T
    pdot = 0.5 * (W.sum(axis=1) - W.sum(axis=0))
    M = -(K * s) + np.diag(_cartan_correction(spec, K, s))
    sdot = s @ M - M @ s
    return rpt.p.copy(), pdot, sdot


# ---------------------------------------------------------------------------
# Lax operators
# ---------------------------------------------------------------------------

def _check_z_regular(spec, zs):
    """The spectral parameters as a complex array; PoleError for the first one
    within POLE_TOL of a z-pole of L(z)."""
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    if spec.family == "rational":
        near = np.zeros(zs.shape)
        dist = np.abs(zs)
    elif spec.family == "trigonometric":
        near = math.pi * np.round(zs.real / math.pi)
        dist = np.abs(zs - near)
    else:
        z0, _, _ = spec.lattice.reduce(zs)
        near = zs - z0
        dist = np.abs(z0)
    bad = np.flatnonzero(dist < special.POLE_TOL)
    if bad.size:
        k = bad[0]
        raise PoleError(f"{spec.family} Lax pole at z={zs[k]}",
                        nearest=near[k].item())
    return zs


def lax(spec, pt, z):
    """The Lax matrix L(q,p,xi)(z) of the family."""
    return lax_batch(spec, pt, [z])[0]


def lax_batch(spec, pt, zs):
    """L(q,p,xi)(z) stacked over an array of spectral parameters: shape
    (len(zs), N, N)."""
    check_regular(spec, pt.q)
    zs = _check_z_regular(spec, zs)
    N = spec.ctx.N
    xi = pt.xi
    A = alpha_matrix(pt.q)
    out = np.zeros((zs.size, N, N), dtype=complex)
    diag = np.arange(N)
    out[:, diag, diag] = pt.p

    if spec.family == "rational":
        m = spec.mask_active
        out[:, m] += xi[m] / A[m]
        out += xi / zs[:, None, None]
        return out

    if spec.family == "trigonometric":
        ms = spec.mask_span
        out[:, ms] += xi[ms] / np.tan(A[ms])
        out[:, spec.mask_plus] += -1j * xi[spec.mask_plus]
        out[:, spec.mask_minus] += 1j * xi[spec.mask_minus]
        out += cot_c(zs)[:, None, None] * xi
        return out

    lat = spec.lattice
    m = spec.mask_active
    out[:, diag, diag] += special.zeta_w(lat, zs)[:, None] * np.diag(xi)
    out[:, m] -= special.l_func(lat, A[m][None, :], zs[:, None]) * xi[m]
    return out


def lax_limit(spec, pt, which):
    """Limiting Lax values: z -> infinity (rational) or z -> +/- i*infinity (trig).

    rational_inf lands in g_Delta' (Cartan + Delta' root spaces); the trig
    limits land in the parabolic subalgebras p^{+/-}_{pi'} by construction.
    """
    check_regular(spec, pt.q)
    xi = pt.xi
    A = alpha_matrix(pt.q)
    P = np.diag(pt.p)
    if which == "rational_inf":
        if spec.family != "rational":
            raise ValidationError("rational_inf limit requires the rational family")
        m = spec.mask_active
        out = P.copy()
        out[m] += xi[m] / A[m]
        return out
    if which in ("trig_plus_i_inf", "trig_minus_i_inf"):
        if spec.family != "trigonometric":
            raise ValidationError(f"{which} limit requires the trigonometric family")
        sign = 1.0 if which == "trig_plus_i_inf" else -1.0
        return (P - sign * 1j * np.diag(np.diag(xi))
                + trig_limit_tail(spec, pt.q, xi, sign))
    raise ValidationError(f"unknown limit {which!r}")


def trig_limit_tail(spec, q, xi, sign):
    """The root-space part of the trigonometric L(sign * i inf) at (q, xi)."""
    A = alpha_matrix(q)
    out = np.zeros_like(xi)
    ms = spec.mask_span
    out[ms] += (1.0 / np.tan(A[ms]) - sign * 1j) * xi[ms]
    mo = spec.mask_plus if sign > 0 else spec.mask_minus
    out[mo] += -sign * 2j * xi[mo]
    return out


def _check_momentum_zero(pt):
    scale = max(1.0, float(np.abs(pt.xi).max(initial=0.0)))
    if np.abs(np.diag(pt.xi)).max(initial=0.0) > MOMENTUM_TOL * scale:
        raise ContractError("requires J^-1(0): Pi_h(xi) must vanish")


def r_action_on_M(spec, pt, z):
    """Closed-form (R(q) M)(z) on J^-1(0), M(z) = L(z)/z."""
    _check_momentum_zero(pt)
    z = complex(_check_z_regular(spec, z)[0])
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
        cz = cot_c(z)
        out = 0.5 * M - cz * np.diag(pt.p)
        # phi_a(q, z) per root class
        phi = np.zeros((N, N), dtype=complex)
        ms = spec.mask_span
        phi[ms] = -(1.0 / np.tan(A[ms]) + cz)
        phi[spec.mask_plus] = -(cz - 1j)
        phi[spec.mask_minus] = -(cz + 1j)
        comp = spec.mask_plus | spec.mask_minus
        out[comp] += phi[comp] * cz * xi[comp]
        caq = 1.0 / np.tan(A[ms])
        out[ms] += phi[ms] * (caq + cz - 1.0 / np.tan(A[ms] + z)) * xi[ms]
        return out

    lat = spec.lattice
    zz = special.zeta_w(lat, z)
    out = 0.5 * M - zz * np.diag(pt.p)
    m = spec.mask_active
    out[m] += (special.l_func(lat, A[m], z)
               * (special.zeta_w(lat, A[m]) + zz - special.zeta_w(lat, A[m] + z))
               * xi[m])
    return out


def lax_residual(spec, pt, z, delta=1e-4):
    """|| d/dt L(z) - [L(z), (R(q)M)(z)] || with the time derivative taken by a
    central difference of step `delta` along the straight line x +/- delta f(x),
    f the vector field of ``eom``: the same O(delta^2) approximation of
    d/dt L(x(t)) as a difference along the flow."""
    _check_momentum_zero(pt)
    RM = r_action_on_M(spec, pt, z)
    L0 = lax(spec, pt, z)
    f = eom(spec, pt)
    plus, minus = (PhasePoint(q=pt.q + h * f[0], p=pt.p + h * f[1],
                              xi=pt.xi + h * f[2]) for h in (delta, -delta))
    dL = (lax(spec, plus, z) - lax(spec, minus, z)) / (2.0 * delta)
    return float(np.linalg.norm(dL - (L0 @ RM - RM @ L0)))


def contour_radius(spec):
    """Half the distance from 0 to the nearest z-singularity of L(z)."""
    if spec.family == "rational":
        return 0.5
    if spec.family == "trigonometric":
        return math.pi / 2.0
    return spec.lattice._min_period / 2.0


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
