"""The three spin Calogero-Moser families over sl(N,C).

Hamiltonians, Lax operators L(q,p,xi)(z), limiting Lax values and
Hamiltonian vector fields on the full and reduced phase spaces.  The reduced
field is the full field at the lift xi := s projected onto the gauge slice
s_{a_i} = 1; ``eom`` gives either, as the point's type chooses.

The rational and trigonometric L(z), its limits at z -> inf and
z -> +/- i inf and the exact solvers' momentum maps all read one formula,
``_lax_matrix``.  One ``_nearest_singular`` per family serves the
regularity check of the root values and the z-pole check of L(z).

All three families share the shape

    H = 1/2 tr p^2 - 1/2 sum_{a in A} kappa_a(q) xi_a xi_{-a} - c0 * sum_i xi_i^2

with family kernel kappa and active root set A:

    rational:       A = Delta',  kappa = 1/a(q)^2,                    c0 = 0
    trigonometric:  A = Delta,   kappa = csc^2 a(q) - 1/3  on <pi'>,
                                 kappa = -1/3              elsewhere,  c0 = 1/3
    elliptic:       A = Delta,   kappa = wp(a(q)),                    c0 = 0

The c0 term is the diagonal of the kernel matrix: with K_ii = 2 c0 and
K_a = kappa_a on A (0 on the other roots),
H = 1/2 tr p^2 - 1/2 sum_ij K_ij xi_ij xi_ji.

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
                     _integral, require_keys)
from .liecore import (LieContext, RootSubset, block_mask, coroot_diagonal,
                      reduce_gauge, snap_simple_roots, validate_root_subset)
from .special import EllipticLattice

REGULARITY_MARGIN = 1e-6
MOMENTUM_TOL = 1e-10

FAMILIES = ("rational", "trigonometric", "elliptic")


# ---------------------------------------------------------------------------
# phase points
# ---------------------------------------------------------------------------

def check_rows(q, p, m, reduced=False, xi=None):
    """The checks of a phase point over a stack of rows, q and p (T, N) and m
    (T, N, N): (n, error), the first row that fails a test and that test's
    error there, else (T, None).  In order: with the lift `xi` (T, N, N),
    J^-1(0), |diag xi| <= MOMENTUM_TOL max(1, max |xi|) (a ContractError;
    the only test when q is None); q and p of length N, finite and
    traceless, |sum| <= 1e-10 max(1, max |.|) N; m N x N, finite, and a
    traceless xi or, when `reduced`, an s with |diag s| <= 1e-10 and
    s_{a_i} = 1 within 1e-8, then set to exactly 0 and 1 in m
    (ValidationErrors).  A row's verdict is the same alone as in a stack."""
    n, error = len(xi if q is None else q), None

    def test(bad, err):  # err(r): the test's error at row r
        nonlocal n, error
        if bad[:n].any():  # a row before those flagged so far
            n = int(bad.argmax())
            error = err(n)

    def untraced(total, a):  # |.| as the scalar one, np.hypot: numpy's
        # array |.| of a complex differs from it in the last bit
        scale = np.fmax(1.0, np.abs(a).reshape(len(a), -1).max(axis=-1, initial=0.0))
        return np.hypot(total.real, total.imag) > 1e-10 * scale * N

    if xi is not None:
        scale = np.fmax(1.0, np.abs(xi).max(axis=(-2, -1), initial=0.0))
        test(np.abs(xi.diagonal(0, -2, -1)).max(axis=-1, initial=0.0)
             > MOMENTUM_TOL * scale,
             lambda r: ContractError("requires J^-1(0): Pi_h(xi) must vanish"))
    if q is None:
        return n, error
    N, every = q.shape[-1], np.ones(len(q), dtype=bool)

    def finite(name, v):
        test(~np.isfinite(v.reshape(len(v), -1)).all(axis=-1),
             lambda r: ValidationError(f"{name} must be finite"))

    for name, v in (("q", q), ("p", p)):
        if v.shape[-1] != N:
            test(every, lambda r: ValidationError(
                f"{name} must have {N} entries, got {v.shape[-1]}"))
        finite(name, v)
        total = v.sum(axis=-1)
        test(untraced(total, v), lambda r: ValidationError(
            f"{name} must be traceless (sum={total[r]:.3e})"))
    label = "s" if reduced else "xi"
    if m.shape[1:] != (N, N):
        test(every, lambda r: ValidationError(
            f"{label} must be {N}x{N}, got {m.shape[1:]}"))
        return n, error
    finite(label, m)
    if not reduced:
        test(untraced(np.trace(m, axis1=1, axis2=2), m),
             lambda r: ValidationError("xi must be traceless"))
    else:
        test(np.abs(m.diagonal(0, 1, 2)).max(axis=-1, initial=0.0) > 1e-10,
             lambda r: ValidationError("s must have zero diagonal"))
        m[:, range(N), range(N)] = 0.0
        bad = snap_simple_roots(m)
        k = bad.argmax(axis=-1)  # each row's first failing simple root
        test(bad.any(axis=-1), lambda r: ValidationError(
            f"s_(alpha_{k[r] + 1}) = {m[r, k[r], k[r] + 1]} != 1 on a "
            f"reduced point"))
    return n, error


def check_state(q, p, m, reduced=False):
    """(q, p, m) of one phase point as complex arrays after ``check_rows`` on
    a stack of one, raising its error; a reduced m is a snapped copy."""
    q = np.asarray(q, dtype=complex).reshape(1, -1)
    p = np.asarray(p, dtype=complex).reshape(1, -1)
    m = (np.array if reduced else np.asarray)(m, dtype=complex)
    _, error = check_rows(q, p, m[None], reduced)
    if error is not None:
        raise error
    return q[0], p[0], m


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


@dataclass
class ReducedPoint(_Point):
    """(q, p, s) on TU x g_red: s has zero diagonal and s_{a_i} = 1 exactly."""

    q: np.ndarray
    p: np.ndarray
    s: np.ndarray

    _matrix = "s"

    @property
    def xi(self):
        """The lift xi := s, at which the library reads a reduced point."""
        return self.s


def reduce_point(ctx, pt):
    """Reduction (q,p,xi) -> (q,p, g(xi)^-1 xi g(xi)); requires xi in U."""
    return ReducedPoint(q=pt.q.copy(), p=pt.p.copy(), s=reduce_gauge(ctx, pt.xi))


# ---------------------------------------------------------------------------
# model specification
# ---------------------------------------------------------------------------

@dataclass
class ModelSpec:
    """One of the three families together with its root-subset / lattice data.

    The (N, N) root masks come from ``block_mask`` of the subset's partition:
    ``mask_active``, the roots with a kernel (Delta', else all roots), and
    for pi' ``mask_span`` (<pi'>, inside the blocks) and ``mask_plus`` /
    ``mask_minus`` (Obar_+ / Obar_-, the positive / negative roots outside).
    """

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
        self.mask_active = ~np.eye(N, dtype=bool)
        if self.family == "elliptic":
            if self.lattice is None:
                raise ValidationError("elliptic family needs a lattice")
            # wp is even and wp' odd in a(q): the i < j roots stand for all
            self.regular_roots = np.triu_indices(N, 1)
            return
        kind, name = {"rational": ("delta", "a Delta'"),
                      "trigonometric": ("pi", "a pi'")}[self.family]
        if self.subset is None or self.subset.kind != kind:
            raise ValidationError(f"{self.family} family needs {name} subset")
        if self.subset.partition is None:
            self.subset = validate_root_subset(self.ctx, self.subset)
        block = block_mask(N, self.subset.partition)
        self.regular_roots = np.nonzero(block)
        if self.family == "rational":
            self.mask_active = block
            return
        self.mask_span = block
        self.mask_plus = np.triu(~block, 1)
        self.mask_minus = np.tril(~block, -1)
        # the constant root kernel of L(z): -i on Obar_+, +i on Obar_-
        self.obar_kernel = 1j * (self.mask_minus.astype(float) - self.mask_plus)

    def to_json_dict(self):
        d = {"N": self.ctx.N, "family": self.family}
        if self.subset is not None:
            d["root_subset"] = self.subset.to_json_dict()
        if self.lattice is not None:
            d["lattice"] = self.lattice.to_json_dict()
        return d


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
    ctx = build_sl_context(_integral(d["N"]))
    if fam == "rational":
        return rational_model(ctx, RootSubset.from_json_dict(d["root_subset"]))
    if fam == "trigonometric":
        return trig_model(ctx, RootSubset.from_json_dict(d["root_subset"]))
    return elliptic_model(ctx, EllipticLattice.from_json_dict(d["lattice"]))


# ---------------------------------------------------------------------------
# kernels, regularity
# ---------------------------------------------------------------------------

def alpha_matrix(q):
    """Matrix of root values a(q): A[..., i, j] = q_i - q_j over q's last axis."""
    q = np.asarray(q)
    return q[..., :, None] - q[..., None, :]


def _nearest_singular(spec, w):
    """(nearest point, distance) of the values w to the family's singular set
    ({0}, pi*Z, Lambda): that of the root values a(q) and of the z-poles of L(z)."""
    w = np.asarray(w, dtype=complex)
    if spec.family == "rational":
        return np.zeros(w.shape), np.abs(w)
    if spec.family == "trigonometric":
        near = math.pi * np.round(w.real / math.pi)
        return near, np.abs(w - near)
    z0, _, _ = spec.lattice.reduce(w)
    return w - z0, np.abs(z0)


def _require_regular(w, dist, rows, cols):
    """Raise DomainError naming the first root (rows[k], cols[k]) whose value
    lies closer than REGULARITY_MARGIN to the singular set.  w and dist hold
    the root values and their distances over (..., roots) and are searched in
    row-major order, so on a stack of configurations the error is that of its
    first offending one."""
    bad = dist < REGULARITY_MARGIN
    if bad.any():
        k = bad.argmax()
        r = k % len(rows)
        raise DomainError(
            f"singular configuration: alpha(q) = {w.flat[k]:.3e} for root "
            f"eps_{rows[r] + 1}-eps_{cols[r] + 1} is within {REGULARITY_MARGIN} "
            f"of the singular set")


def check_regular(spec, q):
    """Raise DomainError naming the offending root if q is closer than
    REGULARITY_MARGIN to the singular set along any kernel-relevant root
    (the first one in row-major order).  q may be a stack (..., N) of
    configurations: the error is then that of the first offending one."""
    i, j = spec.regular_roots
    q = np.asarray(q)
    w = q[..., i] - q[..., j]
    _require_regular(w, _nearest_singular(spec, w)[1], i, j)


def _kernels(spec, lead=()):
    """fill(q) -> (K, Kp): kappa_a(q) and d kappa / d a(q) on the active mask
    at the configurations q of shape lead + (N,), after the regularity check
    of ``check_regular`` (same error, same root), in one pass over the stack.
    K also carries 2 c0 on its diagonal, so that the Hamiltonian's c0 term is
    the diagonal of -1/2 sum_ij K_ij xi_ij xi_ji and the field's gradient is
    K * xi alone.  K and Kp are two lead + (N, N) buffers built here, and
    every call writes the q-dependent entries in place; the rest are set
    once (0, the diagonal 2 c0 and the trigonometric -1/3 outside <pi'>).

    Rational and trigonometric: the distance to the singular set is computed
    here, and ``_require_regular`` runs only when a value is under the
    margin.  Then one reciprocal per root, r = 1/a(q) (trigonometric:
    1/sin a(q)), gives K = r^2 (minus 1/3 on <pi'>) and Kp = -2 r^3
    (times cos a(q)).  Elliptic: one call of the lattice's buffered wp/wp'
    evaluator, built here for the stack, reduces the i < j roots, checks
    their distance and makes one theta-series pass; K is mirrored as even and
    Kp as odd.  So Kp_ji = -Kp_ij, bit for bit for the rational and
    elliptic kernels and as far as libm's sin and cos are odd and even for
    the trigonometric one."""
    N = spec.ctx.N
    K = np.zeros(lead + (N, N), dtype=complex)
    Kp = np.zeros_like(K)
    Kf, Kpf = K.reshape(lead + (N * N,)), Kp.reshape(lead + (N * N,))
    i, j = spec.regular_roots
    # the last-axis indices of the roots in q and (row-major) in K: on one
    # configuration plain index arrays, on a stack the same after its open
    # index grids, which index several times faster than (..., index)
    grid = tuple(g[..., None] for g in np.indices(lead, sparse=True))
    qi, qj, ij, ji = ((*grid, a) if lead else a
                      for a in (i, j, i * N + j, j * N + i))
    if spec.family == "elliptic":
        w = np.empty(lead + (len(i),), dtype=complex)  # the root values
        evaluate = spec.lattice._wp_evaluator(
            w.shape, REGULARITY_MARGIN,
            lambda w, z0, dist: _require_regular(w, dist, i, j))

        def fill(q):
            _, _, k, kp = evaluate(np.subtract(q[qi], q[qj], out=w))
            Kf[ij] = Kf[ji] = k
            Kpf[ij], Kpf[ji] = kp, -kp
            return K, Kp
        return fill
    rational = spec.family == "rational"
    if not rational:
        K[..., spec.mask_plus | spec.mask_minus] = -1.0 / 3.0
        Kf[..., ::N + 1] = 2.0 / 3.0  # 2 c0
    # the root values, their distances, r and r^2; the constants as complex
    # 0-d arrays, which a ufunc takes without converting a Python float
    w, dist, r, r2 = (np.empty(lead + (len(i),), dtype=t)
                      for t in (complex, float, complex, complex))
    minus_two, third = np.array(-2.0 + 0j), np.array(1.0 / 3.0 + 0j)

    def fill(q):
        np.subtract(q[qi], q[qj], out=w)
        # the distance to the singular set of ``_nearest_singular``: {0}, pi*Z
        if rational:
            np.abs(w, out=dist)
        else:
            np.abs(w - math.pi * np.rint(w.real / math.pi), out=dist)
        if np.minimum.reduce(dist, axis=None, initial=np.inf) < REGULARITY_MARGIN:
            _require_regular(w, dist, i, j)
        np.reciprocal(w if rational else np.sin(w), out=r)
        np.multiply(r, r, out=r2)
        Kf[ij] = r2 if rational else np.subtract(r2, third)
        np.multiply(r, r2, out=r)
        if not rational:
            np.multiply(r, np.cos(w), out=r)
        np.multiply(r, minus_two, out=r)
        Kpf[ij] = r
        return K, Kp
    return fill


def _kernel_matrices(spec, q):
    """(K, Kp) of ``_kernels`` at q (..., N), in fresh buffers."""
    q = np.asarray(q)
    return _kernels(spec, q.shape[:-1])(q)


# ---------------------------------------------------------------------------
# Hamiltonian, equations of motion
# ---------------------------------------------------------------------------

def hamiltonian(spec, pt):
    """Closed-form Hamiltonian of the family at a regular point,
    1/2 tr p^2 - 1/2 sum_ij K_ij xi_ij xi_ji with the kernel matrix K of
    ``_kernels`` (its diagonal 2 c0 gives the c0 term); on a ReducedPoint the
    reduced one, at its lift pt.xi = s (diag s = 0 zeroes the c0 term).

    On a stacked point -- q and p of shape (..., N), xi (..., N, N), as
    ``rk.Trajectory.point`` gives for a slice -- it is the array (...) of the
    Hamiltonians, from one regularity check and one kernel pass over the
    stack; a single point is the case of no leading axes."""
    K, _ = _kernel_matrices(spec, pt.q)
    xi = pt.xi
    h = 0.5 * np.sum(pt.p**2, axis=-1) \
        - 0.5 * np.sum(K * xi * np.swapaxes(xi, -1, -2), axis=(-2, -1))
    return complex(h) if np.ndim(h) == 0 else h


def packed_field(spec, reduced=False):
    """The vector field as field(t, z) -> z_dot on the packed complex state
    z = q | p | row-major m, with m = xi, or m = s when `reduced`; built once
    per integration and passed to ``rk.dop853`` as it is (the field is
    autonomous: t is unused).  The integrator calls it at every stage and at
    every sample inside a step, for the sample's defect.

    Full, with the kernel matrices K, Kp of ``_kernels``: q_dot = p; p_dot =
    the row sums of W = Kp * m * m^T, which is 1/2 (row sums - column sums)
    because Kp is odd and m * m^T symmetric, so W is antisymmetric; and
    m_dot = [X, m] = X m - m X with X = K * m, minus the trace-form gradient
    (K's diagonal 2 c0 makes X = K * m + 2 c0 Pi_h m).  Reduced: the full
    field at the lift xi := s, projected onto the gauge slice by adding
    [s, D] with the diagonal D = coroot_diagonal(s_dot_{a_i}), which makes
    s_dot_{a_i} = 0.

    Every call writes q_dot | p_dot | m_dot into one buffer and returns it:
    the same array each call, overwritten by the next one.

    A stack of states z (M, 2N + N^2) at times t (M,) -- the samples inside
    one integrator step -- gives the stack of their fields, row for row the
    field of each state alone, from one regularity check and one kernel pass
    over the stack.  Its kernels and buffers are built at the first stack of
    each height M; a single state keeps its own unstacked code."""
    ctx = spec.ctx
    N = ctx.N
    kernels = _kernels(spec)
    out = np.empty(2 * N + N * N, dtype=complex)
    qd, pd, md = out[:N], out[N:2 * N], out[2 * N:].reshape(N, N)
    W, X, XM = (np.empty((N, N), dtype=complex) for _ in range(3))
    stacks = {}

    def stacked(z):
        M = len(z)
        if M not in stacks:
            o = np.empty((M, 2 * N + N * N), dtype=complex)
            stacks[M] = (_kernels(spec, (M,)), o, o[:, :N], o[:, N:2 * N],
                         o[:, 2 * N:].reshape(M, N, N),
                         *(np.empty((M, N, N), dtype=complex) for _ in range(3)))
        kernels_m, o, qd, pd, md, W, X, XM = stacks[M]
        q, p, m = z[:, :N], z[:, N:2 * N], z[:, 2 * N:].reshape(M, N, N)
        K, Kp = kernels_m(q)
        np.multiply(Kp, m, out=W)
        np.multiply(W, m.transpose(0, 2, 1), out=W)
        np.add.reduce(W, axis=2, out=pd)
        qd[:] = p
        np.multiply(K, m, out=X)
        np.matmul(X, m, out=md)
        np.subtract(md, np.matmul(m, X, out=XM), out=md)
        if reduced:
            d = coroot_diagonal(ctx, md.diagonal(1, 1, 2))
            np.add(md, m * (d[:, None, :] - d[:, :, None]), out=md)
        return o

    def field(t, z):
        if z.ndim == 2:
            return stacked(z)
        q, p, m = z[:N], z[N:2 * N], z[2 * N:].reshape(N, N)
        K, Kp = kernels(q)
        np.multiply(Kp, m, out=W)
        np.multiply(W, m.T, out=W)
        np.add.reduce(W, axis=1, out=pd)
        qd[:] = p
        np.multiply(K, m, out=X)
        np.dot(X, m, out=md)
        np.subtract(md, np.dot(m, X, out=XM), out=md)
        if reduced:
            d = coroot_diagonal(ctx, md.diagonal(1))
            np.add(md, m * (d[None, :] - d[:, None]), out=md)
        return out
    return field


def eom(spec, pt):
    """(q_dot, p_dot, xi_dot) of the family's Hamiltonian vector field
    (``packed_field``); on a ReducedPoint, (q_dot, p_dot, s_dot) on
    TU x g_red, the full field at the lift xi := s projected onto the gauge
    slice: the point's type chooses the flow."""
    N = spec.ctx.N
    field = packed_field(spec, isinstance(pt, ReducedPoint))
    zd = field(0.0, np.concatenate([pt.q, pt.p, pt.xi.ravel()]))
    return zd[:N], zd[N:2 * N], zd[2 * N:].reshape(N, N)


# ---------------------------------------------------------------------------
# Lax operators
# ---------------------------------------------------------------------------

def _check_z_regular(spec, zs):
    """The spectral parameters as a complex array; PoleError for the first one
    within POLE_TOL of a z-pole of L(z)."""
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    _require_z_regular(spec, zs, *_nearest_singular(spec, zs))
    return zs


def _require_z_regular(spec, zs, near, dist):
    """Raise PoleError for the first z of zs whose distance `dist` to the
    z-poles of L(z) is under POLE_TOL, naming its nearest pole `near`."""
    bad = np.flatnonzero(dist < special.POLE_TOL)
    if bad.size:
        k = bad[0]
        raise PoleError(f"{spec.family} Lax pole at z={zs[k]}",
                        nearest=near[k].item())


def _lax_matrix(spec, q, p, xi, c):
    """diag(p) + (R(q) + c) o xi, the rational or trigonometric Lax matrix,
    broadcast over the leading axes of q (..., N), p (..., N), xi (..., N, N)
    and c (...), with no checks.  R is the family's root kernel, zero on the
    diagonal,

        rational:       R = 1/a(q) on Delta', 0 on the other roots
        trigonometric:  R = cot a(q) on <pi'>, -i on Obar_+, +i on Obar_-

    and c the z-part: 1/z or cot z at a finite z, with the limits 0 at
    z -> inf and -/+ i at z -> +/- i inf."""
    xi = np.asarray(xi, dtype=complex)
    A = alpha_matrix(q)
    # the q-dependent part of R o xi, then c plus the constant part of R
    root = np.zeros(np.broadcast_shapes(xi.shape, A.shape), dtype=complex)
    c = np.asarray(c)[..., None, None]
    if spec.family == "rational":
        np.divide(xi, A, out=root, where=spec.mask_active)
    else:
        np.divide(xi, np.tan(A), out=root, where=spec.mask_span)
        c = c + spec.obar_kernel
    return c * xi + root + np.asarray(p)[..., None] * np.eye(xi.shape[-1])


def lax(spec, pt, z):
    """The Lax matrix L(q,p,xi)(z) of the family."""
    return lax_batch(spec, pt, [z])[0]


def lax_batch(spec, pt, zs):
    """L(q,p,xi)(z) stacked over an array of spectral parameters: shape
    (len(zs), N, N).  On a stacked point (see ``hamiltonian``) the shape is
    (..., len(zs), N, N), from one regularity check over the stack, one
    z-pole check and one root kernel per configuration."""
    if spec.family == "elliptic":
        return _elliptic_lax(spec, pt, zs, dz=False)
    check_regular(spec, pt.q)
    zs = _check_z_regular(spec, zs)
    c = 1.0 / zs if spec.family == "rational" else special._cot(zs)
    return _lax_matrix(spec, pt.q[..., None, :], pt.p[..., None, :],
                       pt.xi[..., None, :, :], c)


def lax_pair(spec, pt, zs):
    """(L(z), dL/dz) of the elliptic family stacked over an array of spectral
    parameters, each of shape (len(zs), N, N) -- (..., len(zs), N, N) on a
    stacked point -- after the checks of every Lax builder
    (``check_regular``, then the z poles): one ``special.lame_parts`` call
    over (..., z, root) gives both."""
    if spec.family != "elliptic":
        raise ValidationError("lax_pair requires the elliptic family")
    return _elliptic_lax(spec, pt, zs, dz=True)


def _elliptic_lax(spec, pt, zs, dz):
    """The elliptic L(z) of ``lax_batch``, or with `dz` the pair of
    ``lax_pair``; without `dz`, ``lame_parts`` builds no d/dz parts.  The
    checks of ``check_regular`` and ``_check_z_regular`` (same errors, same
    order) read the reductions of ``lame_parts``' w and z passes."""
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    N = spec.ctx.N
    p, xi = pt.p[..., None, :], pt.xi[..., None, :, :]
    m = spec.mask_active
    w = alpha_matrix(pt.q)[..., None, m]
    # the i < j roots of regular_roots among the active ones, row-major
    upper = np.triu(m)[m]
    i, j = spec.regular_roots

    def check(w0, z0):
        _require_regular(w[..., 0, upper], np.abs(w0[..., 0, upper]), i, j)
        _require_z_regular(spec, zs, zs - z0[:, 0], np.abs(z0[:, 0]))
    l, _, zz, ldz, wpz = special.lame_parts(spec.lattice, w, zs[:, None], dz,
                                            check)
    L = np.zeros(np.shape(l)[:-1] + (N, N), dtype=complex)
    diag = np.arange(N)
    xi_diag = np.diagonal(xi, axis1=-2, axis2=-1)
    L[..., diag, diag] = p + zz * xi_diag
    L[..., m] -= l * xi[..., m]
    if not dz:
        return L
    dL = np.zeros_like(L)
    dL[..., diag, diag] = -wpz * xi_diag
    dL[..., m] -= ldz * xi[..., m]
    return L, dL


# the limits of lax_limit: which -> (family, the limit of the z-part c)
LAX_LIMITS = {"rational_inf": ("rational", 0.0),
              "trig_plus_i_inf": ("trigonometric", -1j),
              "trig_minus_i_inf": ("trigonometric", 1j)}


def lax_limit(spec, pt, which):
    """Limiting Lax values: z -> infinity (rational) or z -> +/- i*infinity (trig).

    rational_inf lands in g_Delta' (Cartan + Delta' root spaces); the trig
    limits land in the parabolic subalgebras p^{+/-}_{pi'} by construction.
    """
    check_regular(spec, pt.q)
    if which not in LAX_LIMITS:
        raise ValidationError(f"unknown limit {which!r}")
    family, c = LAX_LIMITS[which]
    if spec.family != family:
        raise ValidationError(f"{which} limit requires the {family} family")
    return _lax_matrix(spec, pt.q, pt.p, pt.xi, c)


def _check_momentum_zero(xi):
    """The J^-1(0) test of ``check_rows`` on one xi, raising its error."""
    _, error = check_rows(None, None, None, xi=np.asarray(xi)[None])
    if error is not None:
        raise error


def contour_radius(spec):
    """Half the distance from 0 to the nearest z-singularity of L(z)."""
    if spec.family == "rational":
        return 0.5
    if spec.family == "trigonometric":
        return math.pi / 2.0
    return spec.lattice._min_period / 2.0
