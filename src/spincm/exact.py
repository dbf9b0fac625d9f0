"""The driver shared by the exact solvers of the rational and trigonometric
families.

Both solvers diagonalize a block-diagonal family matrix path
M(t) = k(t) diag(d(t)) k(t)^-1 and conjugate by k(t).  ``transport``
integrates Kato's adiabatic transport equation (Kato 1950) for the
eigenvector matrix k and l = d (or l = log d for a group-valued path) on the
oracle's Dormand-Prince core ``rk.dp5``.  With the velocity B = k^-1 M' k:

    k' = k W,   W_ij = B_ij / (d_j - d_i) for i != j in one block, W_ii = 0,
    l' = diag(B)   (l = d),     or     l' = diag(B) / d   (l = log d).

From k(0) = I, Pi_h(k^-1 k') = 0 and det k = 1 hold by construction, and
log d needs no branch tracking.  The transport's f writes k W and l' into one
buffer that it reuses (``rk.dp5`` copies each stage value).

Before the integration, one ``path`` call gives M and the family's factors
over the output grid, up to the first output time at which the family's
factorization breaks down, and stacked blockwise eigenvalues of M give the
within-block gaps and discriminants D (analytic in t, with a zero at each
collision).  The intervals are scanned in order: a phase turn of D over 2 rad
hands the interval to ``locate_collision``, which finds that zero by a
complex secant iteration on M at complex t, until one collides.  The start
of that interval, else the output time before the path's breakdown, is the
transport's last output time, fixed before the transport starts, so it never
steps into the collision.  A run that ends early anyway (a step whose eigen
gap falls below GAP_COLLIDE, an output interval that takes more than
STALL_STEPS accepted steps, or a collapsed step) always ends in a
BreakdownError, never in a silent state.

A family supplies ``setup(spec, pt0) -> (path, velocity, log0, position,
limits)``: ``path(t)`` returns M(t) and the family's factors, stacked over
a grid of times t (shapes (T, N, N)) up to the first time at which the
factorization breaks down (a shorter stack), or at one complex t for
collision location; ``velocity(t, k, d)`` returns B from the transported
state alone; log0 is None when l = d, else l(0) = log d(0);
``position(l)`` maps the stacked l to q; ``limits`` maps names of
``models.LAX_LIMITS`` to L0, that limit of L at pt0 (two sign branches for
the trigonometric family).  Each gives P = k^-1 L0 k minus the off-diagonal
part of the same limit at (q(t), xi(t) = k^-1 xi0 k), and p = diag P.  The
velocity may use M k = k diag(d) in place of M(t): when M solves a linear
ODE M' = A M + M C, the transported M~ = k diag(d) k^-1 solves the same ODE
from the same start, so the state drifts off M k = k diag(d) only by the
integration error.  One stacked polish against the path's M at the output
times reached, after the integration, removes that drift from the output,
and its size before the polish, max |k^-1 M k - diag d| / max(1, |d|), is
the diagnostic ``eig_residual``.

``solve`` checks the input, runs the transport, maps the stack to states,
checks each row and writes it into the trajectory's packed array, stacks
the factors (the path's, then g, d, h, k), keeps the diagnostics and
attaches the partial results to a ``BreakdownError``; a ``ReducedPoint`` is
solved from its lift xi0 := s0 with each row written through the gauge
reduction.  A row that fails its check (``check_state``, or the two sign
branches of p disagreeing) ends the solve in a BreakdownError at its time.

``left_divide`` calls numpy's own LAPACK ``zgesv`` gufunc, so a rational
solve loads no scipy; only the trigonometric path's ``expm`` does.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, fields
from itertools import combinations

import numpy as np
from numpy.linalg._umath_linalg import solve as _solve

from .errors import BreakdownError, DomainError, ValidationError
from .liecore import block_mask, reduce_gauge
from .models import (LAX_LIMITS, PhasePoint, ReducedPoint,
                     _check_momentum_zero, _lax_matrix, check_regular,
                     check_state)
from .rk import Trajectory, check_tol, dp5

GAP_COLLIDE = 1e-6
P_SIGN_TOL = 1e-8
# accepted transport steps within one output interval beyond which a run has
# stalled: the presets, the agreement sweep and the benchmark's exact jobs
# take at most 141, and a one-interval [0, 3] trig-sl3 grid at tol 1e-13 772
STALL_STEPS = 5000


@dataclass
class Factorization:
    """Per-time factors of an exact solve.  Subclasses declare ``times``, one
    field per factor (stacked over the times), and ``diagnostics``."""

    def to_json_dict(self):
        out = {}
        for f in fields(self):
            val = getattr(self, f.name)
            if f.name == "times":
                out[f.name] = list(map(float, val))
            elif f.name == "diagnostics":
                out[f.name] = {k: float(v) for k, v in val.items()}
            else:
                out[f.name] = [[[z.real, z.imag] for z in np.asarray(m).ravel()]
                               for m in val]
        return out


def present(k):
    """(g, h) with k = g diag(h) for each matrix of a stack k (..., N, N): g
    is k with unit-norm columns times their geometric mean, divided by the
    principal N-th root of det k (which stays close to 1), so det g = 1 and
    g(0) = I."""
    N = k.shape[-1]
    norms = np.linalg.norm(k, axis=-2)
    dets = np.linalg.det(k)
    root = np.reshape([complex(z) ** (1.0 / N) for z in dets.ravel()], dets.shape)
    s = np.exp(np.log(norms).mean(axis=-1)) / root
    return k * (s[..., None] / norms)[..., None, :], norms / s[..., None]


def _validate_times(times):
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValidationError("times must be a 1-d grid with at least 2 nodes")
    if not np.isfinite(times).all():
        raise ValidationError("times must be finite")
    if abs(times[0]) > 1e-14:
        raise ValidationError("times must start at 0")
    if np.any(np.diff(times) <= 0):
        raise ValidationError("times must be strictly increasing")
    return times


def left_divide(k, rhs):
    """k^-1 rhs for the transported eigenvector matrix k (N, N) and a complex
    rhs (N, M), by numpy's private gufunc ``numpy.linalg._umath_linalg.solve``:
    the LAPACK ``zgesv`` behind ``np.linalg.solve``, called without that
    wrapper's per-call type and error-state set-up, which costs several times
    the solve at these sizes.  On an exactly singular k the gufunc fills the
    result with NaN and raises the floating-point invalid flag; the velocities
    run inside ``transport``, which ignores that flag over the whole run, so
    they see only the DomainError."""
    X = _solve(k, rhs)
    if cmath.isnan(X.item(0)):
        raise DomainError("singular transported eigenvector matrix")
    return X


def block_gap(d, same):
    """Minimal within-block eigenvalue distance of each row of d (..., N)
    (inf without such pairs)."""
    return np.abs(d[..., :, None] - d[..., None, :])[..., same].min(
        axis=-1, initial=np.inf)


def block_eigvals(M, blocks):
    """Eigenvalues of a block-diagonal M (..., N, N), each at the indices of
    its block."""
    vals = M.diagonal(axis1=-2, axis2=-1).astype(complex)
    for blk in blocks:
        if len(blk) > 1:
            idx = list(blk)
            vals[..., idx] = np.linalg.eigvals(M[..., idx, :][..., idx])
    return vals


def _discriminant(vals, blocks):
    """Product over the blocks of the squared within-block eigenvalue
    differences of each row of vals (..., N): analytic in t, with a zero at
    each collision."""
    D = np.ones(vals.shape[:-1], dtype=complex)
    for blk in blocks:
        for i, j in combinations(blk, 2):
            D *= (vals[..., i] - vals[..., j]) ** 2
    return D


def locate_collision(path, blocks, same, t_lo, t_hi):
    """The BreakdownError at the eigenvalue collision in [t_lo, t_hi], or
    None.  It root-finds the within-block discriminant product D(t) of the
    block-diagonal M(t) = path(t)[0] by a complex secant iteration: D is
    analytic with a simple zero at an eigenvalue collision, so this resolves
    sqrt-type collisions that pointwise gap thresholds cannot.  A collision
    is a located zero numerically on the real axis inside the bracket."""
    def disc(t):
        return _discriminant(block_eigvals(path(t)[0], blocks), blocks)[()]

    span = t_hi - t_lo
    t0, t1 = complex(t_lo), complex(t_hi)
    d0, d1 = disc(t0), disc(t1)
    dscale = max(abs(d0), abs(d1), 1e-300)
    for _ in range(80):
        if d1 == d0:
            break
        t2 = t1 - d1 * (t1 - t0) / (d1 - d0)
        if abs(t2 - 0.5 * (t_lo + t_hi)) > 2.0 * span:
            break  # wandered out of the bracket: no root here
        t0, d0 = t1, d1
        t1 = t2
        d1 = disc(t1)
        if abs(t1 - t0) < 1e-13 * max(1.0, abs(t1)) or d1 == 0:
            break
    on_axis = abs(t1.imag) <= 1e-7 * max(span, abs(t1.real))
    inside = (t_lo - 0.5 * span) <= t1.real <= (t_hi + 0.5 * span)
    if not (on_axis and inside and abs(d1) <= 1e-10 * dscale):
        return None
    t_star = float(t1.real)
    gap = float(block_gap(block_eigvals(path(t_star)[0], blocks), same))
    return BreakdownError(f"factorization breakdown: eigenvalue collision at "
                          f"t = {t_star:.9g} (gap {gap:.3e})", time=t_star, gap=gap)


def transport(path, velocity, blocks, times, tol, log0):
    """Kato transport of the eigenvector matrix of a block-diagonal path over
    the output grid `times` (see the module docstring).

    Returns (k, l, path_factors, diagnostics, error): the polished k and l
    at the output times reached, stacked; the path's stacked factors at
    them; the smallest eigen gap seen, f-evaluations, rejected steps and the
    largest eigen residual before the polish; and a BreakdownError (not
    raised) if the run ended before times[-1], else None.
    """
    Ms, factors = path(times)
    defined, N = Ms.shape[0], Ms.shape[-1]  # M at times[:defined]
    nk = N * N
    group = log0 is not None
    same = block_mask(N, blocks)
    vals = block_eigvals(Ms, blocks)
    path_gaps = block_gap(vals, same)
    # the last output time: the start of the first interval over which the
    # discriminants turn by more than 2 rad and a collision is located there,
    # else the last one with an M
    D = _discriminant(vals, blocks)
    with np.errstate(divide="ignore", invalid="ignore"):
        turns = (D[:-1] != 0) & (np.abs(np.angle(D[1:] / D[:-1])) > 2.0)
    end, collision = defined - 1, None
    for c in np.flatnonzero(turns):
        collision = locate_collision(path, blocks, same, times[c], times[c + 1])
        if collision is not None:
            end = c
            break

    def eigs(ell):
        return np.exp(ell) if group else ell

    def off_block(B, d, out):
        """W_ij = B_ij / (d_j - d_i) for i != j in one block; `out` holds the
        zeros elsewhere."""
        return np.divide(B, d[..., None, :] - d[..., :, None], out=out, where=same)

    W = np.zeros((N, N), dtype=complex)
    out = np.empty(nk + N, dtype=complex)  # k' | l', reused by every call
    kdot, ldot, out_real = out[:nk].reshape(N, N), out[nk:], out.view(float)

    def f(t, y):
        z = y.view(complex)
        k, ell = z[:nk].reshape(N, N), z[nk:]
        d = eigs(ell)
        B = velocity(t, k, d)
        np.matmul(k, off_block(B, d, W), out=kdot)
        if group:
            np.divide(B.diagonal(), d, out=ldot)
        else:
            ldot[:] = B.diagonal()
        return out_real

    rows = np.empty((len(times), nk + N), dtype=complex)  # k | l, unpolished
    guard_gap = [np.inf]
    interval = [1, 0]  # the next output time's index, accepted steps toward it

    def guard(t, y):
        gap = block_gap(eigs(y.view(complex)[nk:]), same)
        guard_gap[0] = min(guard_gap[0], gap)
        interval[1] += 1
        if interval[1] > STALL_STEPS:
            return False
        # past an output time, as ``dp5`` delivers a sample
        if interval[0] <= end and t >= times[interval[0]] - 1e-12:
            interval[:] = interval[0] + 1, 0
        return gap >= GAP_COLLIDE

    y0 = np.concatenate([np.eye(N, dtype=complex).ravel(),
                         np.diag(Ms[0]) if log0 is None else log0]).astype(complex)
    with np.errstate(invalid="ignore"):  # left_divide's flag on a singular k
        t, stats, done = dp5(f, y0.view(float), times[:end + 1], tol,
                             rows.view(float).__setitem__, guard)

    # the polish: one first-order eigen-correction of each (k, l) against M
    # itself, in the transport's gauge: R = k^-1 M k = diag(d) + E gives
    # k (I + W(R)) and diag R, with errors O(E^2), so the trace of l is exact
    k, ell = rows[:done, :nk].reshape(done, N, N), rows[:done, nk:]
    d = eigs(ell)
    R = np.linalg.solve(k, Ms[:done] @ k)
    dr = R.diagonal(axis1=1, axis2=2)
    residual = (np.abs(R - d[:, :, None] * np.eye(N)).max(axis=(1, 2))
                / np.maximum(1.0, np.abs(d).max(axis=1)))
    k = k + k @ off_block(R, d, np.zeros_like(R))
    ell = ell + np.log(dr / d) if group else dr.copy()

    # the path gaps at the output times up to the first one not reached
    min_gap = float(min(guard_gap[0], path_gaps[:done + 1].min()))
    diags = {"min_gap": min_gap, "nfev": float(stats["nfev"]),
             "nrejected": float(stats["nrejected"]),
             "eig_residual": float(residual.max())}
    error = collision
    if done <= end:
        error = locate_collision(
            path, blocks, same, times[done - 1], times[done]) or BreakdownError(
            f"factorization breakdown: the transport stalled at t = {t:.9g} "
            f"(eigen gap {min_gap:.3e}) with no eigenvalue collision located",
            time=t, gap=min_gap)
    elif error is None and defined < len(times):
        error = BreakdownError(
            f"factorization breakdown at t = {times[defined]:.9g}: the "
            f"family's path has no factorization there",
            time=float(times[defined]), gap=min_gap)
    return k, ell, tuple(fac[:done] for fac in factors), diags, error


def solve(spec, pt0, times, tol=1e-10, *, family, provenance, factorization,
          setup):
    """Exact flow of a `family` model through pt0 at the given output times,
    with the transport integrated at error tolerance `tol`.

    Returns (Trajectory, factorization); for a ReducedPoint pt0, the reduced
    trajectory of the lift xi0 := s0 (rows s = g(xi)^-1 xi g(xi)) and None.
    On an eigenvalue collision raises BreakdownError carrying the collision
    time and the partial results.  So does the first output time at which the
    solver's own output fails a check -- the two sign branches of p(t)
    disagreeing beyond P_SIGN_TOL, or the state failing ``check_state`` --
    with that time and the rows before it.
    """
    if spec.family != family:
        raise ValidationError(f"the exact {family} solver requires a {family} "
                              f"ModelSpec")
    check_tol(tol)
    reduced = isinstance(pt0, ReducedPoint)
    if reduced:
        pt0 = PhasePoint(q=pt0.q, p=pt0.p, xi=pt0.s)
    _check_momentum_zero(pt0)
    check_regular(spec, pt0.q)
    times = _validate_times(times)

    path, velocity, log0, position, limits = setup(spec, pt0)
    k, ell, path_factors, diags, error = transport(
        path, velocity, spec.subset.partition, times, tol, log0)
    ts = times[:len(k)]  # the output times reached
    kinv = np.linalg.inv(k)
    xi = kinv @ pt0.xi @ k
    q = position(ell)
    N = spec.ctx.N
    off = ~np.eye(N, dtype=bool)
    P = [kinv @ L0 @ k - _lax_matrix(spec, q, 0.0, xi * off, LAX_LIMITS[which][1])
         for which, L0 in limits.items()]
    p = P[0][:, range(N), range(N)]

    # the rows up to the first output time whose state fails a check
    n, failed = ts.size, None
    if len(P) == 2:
        mism = np.abs(P[0] - P[1]).max(axis=(1, 2))
        bad = np.flatnonzero(mism > P_SIGN_TOL)
        if bad.size:
            n = bad[0]
            failed = (f"the two sign branches of p(t) disagree by "
                      f"{mism[n]:.3e} > P_SIGN_TOL")
    y = np.empty((n, 2 * N + N * N), dtype=complex)
    for i in range(n):
        try:
            # diag s = diag xi: the reduced check is at least as strict
            row = (check_state(q[i], p[i], reduce_gauge(spec.ctx, xi[i]),
                               reduced=True)
                   if reduced else check_state(q[i], p[i], xi[i]))
        except ValidationError as exc:
            n, failed = i, f"the state fails its check: {exc}"
            break
        y[i] = np.concatenate([v.ravel() for v in row])
    if failed is not None:
        error = BreakdownError(f"factorization breakdown at t = {ts[n]:.9g}: "
                               f"{failed}", time=float(ts[n]), gap=diags["min_gap"])
        ts, y, k, ell = ts[:n], y[:n], k[:n], ell[:n]
        path_factors = tuple(fac[:n] for fac in path_factors)
    if len(P) == 2:
        diags["p_sign_mismatch"] = float(mism[:n].max(initial=0.0))
    diags["p_offdiag_residual"] = float(np.abs(P[0][:n, off]).max(initial=0.0))

    traj = Trajectory(times=ts, y=y, reduced=reduced, provenance=provenance,
                      stats=dict(diags))
    g, h = present(k)
    d = ell if log0 is None else np.exp(ell)
    fact = None if reduced else factorization(
        ts, *path_factors, g, d, h, k, diagnostics=diags)
    if error is not None:
        traj.breakdown_time = error.time
        error.partial, error.factors = traj, fact
        raise error
    return traj, fact
