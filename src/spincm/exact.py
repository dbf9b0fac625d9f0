"""The driver shared by the exact solvers of the rational and trigonometric
families.

Both solvers diagonalize a block-diagonal family matrix path
M(t) = k(t) diag(d(t)) k(t)^-1 and conjugate by k(t).  ``transport``
integrates Kato's adiabatic transport equation (Kato 1950) for the
eigenvector matrix k and l = d (or l = log d for a group-valued path) on the
oracle's DOP853 core ``rk.dop853``.  With the velocity B = k^-1 M' k:

    k' = k W,   W_ij = B_ij / (d_j - d_i) for i != j in one block, W_ii = 0,
    l' = diag(B)   (l = d),     or     l' = diag(B) / d   (l = log d).

From k(0) = I, Pi_h(k^-1 k') = 0 and det k = 1 hold by construction, and
log d needs no branch tracking.  The transport's f writes k W and l' into one
complex buffer that it reuses (``rk.dop853`` copies each stage value), and
``rk.dop853`` writes each output row into the transport's complex row array:
the state at the end of a step, or the defect-checked continuous extension
at an output time inside one, so the steps run freely over the grid.  The
m >= 2 output rows inside one step reach f as one stack (m, N^2 + N) at
their times (m,), and f makes one velocity call on the stacked k
(m, N, N) and d (m, N), so the family's velocity and ``left_divide`` take
such stacks (with buffers built per stack height); a DomainError from that
call, a singular k in any row, retries the step onto its first output
time, the conservative choice.
The within-block index pairs (``block_pairs``) are fixed before the run: f
gathers B and scatters W over their flat indices, and the guard, the gaps
and the discriminants read the eigenvalues at them.

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
gap falls below GAP_COLLIDE, a row that fails the solve's check, or a
collapsed step) always ends in a BreakdownError, never in a silent state.

A family supplies ``setup(spec, pt0) -> (path, velocity, log0, position,
limit)``: ``path(t)`` returns M(t) and the family's factors, stacked over
a grid of times t (shapes (T, N, N)) up to the first time at which the
factorization breaks down (a shorter stack), or at one complex t for
collision location; ``velocity(t, k, d)`` returns B from the transported
state alone, or the stack B (m, N, N) from t (m,), k (m, N, N), d (m, N);
log0 is None when l = d, else l(0) = log d(0);
``position(l)`` maps the stacked l to q; ``limit`` is (name, L0): a name
of ``models.LAX_LIMITS`` and L0, that one limit of L at pt0.  It gives
P = k^-1 L0 k minus the off-diagonal part of the same limit at
(q(t), xi(t) = k^-1 xi0 k), and p = diag P.  The velocity may use
M k = k diag(d) in place of M(t): when M solves a linear ODE
M' = A M + M C, the transported M~ = k diag(d) k^-1 solves the same ODE
from the same start, so the state drifts off M k = k diag(d) only by the
integration error.  One stacked polish against the path's M at the output
times removes that drift from the rows, and its size before the polish,
max |k^-1 M k - diag d| / max(1, |d|), over the rows written, is the
diagnostic ``eig_residual``.

``solve`` checks the input, runs the transport with its row check (the
polished rows mapped to states and checked by ``models.check_rows``, the
checks of an input point), writes the rows into the trajectory's packed
array, stacks the factors (the path's, then g, d, h, k), keeps the
diagnostics and attaches the partial results to a ``BreakdownError``; a
``ReducedPoint`` is solved from its lift ``pt0.xi`` = s0, its rows reduced
at once.  The transport's guard runs the check on the rows delivered so far
at its T-th, 2T-th, 4T-th, ... call (T output times), and one stacked pass
over the rows reached keeps those before the first failing row, which ends
the solve in a BreakdownError at its time with that check's message.  A
regular solve takes fewer steps than it has output times, so only that pass
checks it.  The largest |diag xi(t)| over the rows kept is
``momentum_residual``.

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
from .liecore import reduce_gauge
from .models import (LAX_LIMITS, ReducedPoint, _check_momentum_zero,
                     _lax_matrix, check_regular, check_rows)
from .rk import Trajectory, check_tol, dop853

GAP_COLLIDE = 1e-6


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
    rhs (N, M), or for each of the stacks k (m, N, N) and rhs (m, N, M), by
    numpy's private gufunc ``numpy.linalg._umath_linalg.solve``: the LAPACK
    ``zgesv`` behind ``np.linalg.solve``, called without that wrapper's
    per-call type and error-state set-up, which costs several times the
    solve at these sizes.  On an exactly singular k (any k of a stack) the
    gufunc fills its result with NaN and raises the floating-point invalid
    flag; the velocities run inside ``transport``, which ignores that flag
    over the whole run, so they see only the DomainError."""
    X = _solve(k, rhs)
    if (cmath.isnan(X.item(0)) if X.ndim == 2
            else any(map(cmath.isnan, X[:, 0, 0].tolist()))):
        raise DomainError("singular transported eigenvector matrix")
    return X


def block_pairs(blocks):
    """The within-block index pairs i < j of a partition, block by block in
    the order of ``combinations``, as two index arrays (I, J)."""
    pairs = [ij for blk in blocks for ij in combinations(blk, 2)]
    return np.array(pairs, dtype=np.intp).reshape(-1, 2).T


def block_gap(d, pairs):
    """Minimal within-block eigenvalue distance of each row of d (..., N)
    over the pairs (I, J) of ``block_pairs`` (inf without such pairs)."""
    I, J = pairs
    return np.abs(d[..., I] - d[..., J]).min(axis=-1, initial=np.inf)


def block_eigvals(M, blocks):
    """Eigenvalues of a block-diagonal M (..., N, N), each at the indices of
    its block."""
    vals = M.diagonal(axis1=-2, axis2=-1).astype(complex)
    for blk in blocks:
        if len(blk) > 1:
            idx = list(blk)
            vals[..., idx] = np.linalg.eigvals(M[..., idx, :][..., idx])
    return vals


def _discriminant(vals, pairs):
    """Product over the within-block pairs (I, J) of the squared eigenvalue
    differences of each row of vals (..., N): analytic in t, with a zero at
    each collision."""
    D = np.ones(vals.shape[:-1], dtype=complex)
    for i, j in pairs.T.tolist():
        D *= (vals[..., i] - vals[..., j]) ** 2
    return D


def locate_collision(path, blocks, pairs, t_lo, t_hi):
    """The BreakdownError at the eigenvalue collision in [t_lo, t_hi], or
    None.  It root-finds the within-block discriminant product D(t) of the
    block-diagonal M(t) = path(t)[0] by a complex secant iteration: D is
    analytic with a simple zero at an eigenvalue collision, so this resolves
    sqrt-type collisions that pointwise gap thresholds cannot.  A collision
    is a located zero numerically on the real axis inside the bracket."""
    def disc(t):
        return _discriminant(block_eigvals(path(t)[0], blocks), pairs)[()]

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
    gap = float(block_gap(block_eigvals(path(t_star)[0], blocks), pairs))
    return BreakdownError(f"factorization breakdown: eigenvalue collision at "
                          f"t = {t_star:.9g} (gap {gap:.3e})", time=t_star, gap=gap)


def transport(path, velocity, blocks, times, tol, log0, check):
    """Kato transport of the eigenvector matrix of a block-diagonal path over
    the output grid `times` (see the module docstring), up to its first row
    that fails ``check(k, l) -> (n, error, states)``: on polished stacks k
    and l, the first failing row (else their length), its error (else None)
    and the caller's states of the rows.

    Returns (k, l, states, path_factors, diagnostics, error): the polished k
    and l at the output times up to the first failing row, stacked; the
    states of every row reached; the path's stacked factors at the rows
    kept; the smallest eigen gap seen, f-evaluations, rejected steps and the
    largest eigen residual before the polish over the rows kept; and a
    BreakdownError (not raised) if the rows end before times[-1], else None.

    The collision pre-scan stays next to the gap guard: both end the run at
    the same output time, but the guard only once the gap is under
    GAP_COLLIDE, after the costliest steps.  Without the scan
    ``collision-sl2`` and ``trig-sl2-breakdown`` write the same rows and
    breakdown_at from 784 -> 3,720 and 651 -> 3,449 f-evaluations.
    """
    Ms, factors = path(times)
    defined, N = Ms.shape[0], Ms.shape[-1]  # M at times[:defined]
    nk = N * N
    group = log0 is not None
    pairs = block_pairs(blocks)
    # W's entries, the ordered within-block pairs (r, c), r != c, and their
    # flat indices into an N x N matrix
    r, c = np.concatenate((pairs, pairs[::-1]), axis=1)
    flat = r * N + c
    vals = block_eigvals(Ms, blocks)
    path_gaps = block_gap(vals, pairs)
    # the last output time: the start of the first interval over which the
    # discriminants turn by more than 2 rad and a collision is located there,
    # else the last one with an M
    D = _discriminant(vals, pairs)
    with np.errstate(divide="ignore", invalid="ignore"):
        turns = (D[:-1] != 0) & (np.abs(np.angle(D[1:] / D[:-1])) > 2.0)
    end, collision = defined - 1, None
    for i in np.flatnonzero(turns):
        collision = locate_collision(path, blocks, pairs, times[i], times[i + 1])
        if collision is not None:
            end = i
            break

    def eigs(ell):
        return np.exp(ell) if group else ell

    W = np.zeros((N, N), dtype=complex)
    Wf = W.reshape(nk)
    out = np.empty(nk + N, dtype=complex)  # k' | l', reused by every call
    kdot, ldot = out[:nk].reshape(N, N), out[nk:]
    # per stack height: k' | l', W and the flat indices of W's entries over
    # the stack (take and put are several times faster than [:, flat])
    stacks = {}

    def stacked(t, y):
        m = len(y)
        if m not in stacks:
            o = np.empty((m, nk + N), dtype=complex)
            stacks[m] = (o, o[:, :nk].reshape(m, N, N), o[:, nk:],
                         np.zeros((m, N, N), dtype=complex),
                         (np.arange(m)[:, None] * nk + flat).ravel())
        o, kdot, ldot, Wm, at = stacks[m]
        k, ell = y[:, :nk].reshape(m, N, N), y[:, nk:]
        d = eigs(ell)
        B = velocity(t, k, d)
        Wm.put(at, B.reshape(m, nk).take(flat, axis=1)
               / (d.take(c, axis=1) - d.take(r, axis=1)))
        np.matmul(k, Wm, out=kdot)
        Bd = B.diagonal(0, 1, 2)
        if group:
            np.divide(Bd, d, out=ldot)
        else:
            ldot[:] = Bd
        return o

    def f(t, y):
        if y.ndim == 2:
            return stacked(t, y)
        k, ell = y[:nk].reshape(N, N), y[nk:]
        d = eigs(ell)
        B = velocity(t, k, d)
        Wf[flat] = B.take(flat) / (d[c] - d[r])
        np.matmul(k, W, out=kdot)
        if group:
            np.divide(B.diagonal(), d, out=ldot)
        else:
            ldot[:] = B.diagonal()
        return out

    rows = np.empty((len(times), nk + N), dtype=complex)  # k | l, unpolished

    def polish(n):
        """(k, l, residual) of the first n rows: one first-order
        eigen-correction of each (k, l) against M itself, in the transport's
        gauge: R = k^-1 M k = diag(d) + E gives k (I + W(R)) and diag R, with
        errors O(E^2), so the trace of l is exact."""
        k, ell = rows[:n, :nk].reshape(n, N, N), rows[:n, nk:]
        d = eigs(ell)
        R = np.linalg.solve(k, Ms[:n] @ k)
        dr = R.diagonal(axis1=1, axis2=2)
        residual = (np.abs(R - d[:, :, None] * np.eye(N)).max(axis=(1, 2))
                    / np.maximum(1.0, np.abs(d).max(axis=1)))
        WR = np.zeros_like(R)
        WR.reshape(n, nk)[:, flat] = R.reshape(n, nk)[:, flat] / (d[:, c] - d[:, r])
        return k + k @ WR, ell + np.log(dr / d) if group else dr.copy(), residual

    gap_seen, calls, check_at, ok = np.inf, 0, len(times), True

    def guard(y, n):
        """The eigen gap of y, and the row check on the n rows delivered at
        the T-th, 2T-th, 4T-th, ... call; False from the first failing row on."""
        nonlocal gap_seen, calls, check_at, ok
        gap = block_gap(eigs(y[nk:]), pairs)
        gap_seen, calls = min(gap_seen, gap), calls + 1
        if ok and calls == check_at:
            check_at *= 2
            try:
                ok = check(*polish(n)[:2])[0] == n
            except DomainError:  # a row outside U fails
                ok = False
        return ok and gap >= GAP_COLLIDE

    y0 = np.concatenate([np.eye(N, dtype=complex).ravel(),
                         np.diag(Ms[0]) if log0 is None else log0])
    with np.errstate(invalid="ignore"):  # left_divide's flag on a singular k
        t, stats, done = dop853(f, y0, times[:end + 1], tol, rows, guard)
    k, ell, residual = polish(done)
    n, exc, states = check(k, ell)

    # the path gaps at the output times up to the first one not reached
    min_gap = float(min(gap_seen, path_gaps[:done + 1].min()))
    diags = {"min_gap": min_gap, "nfev": float(stats["nfev"]),
             "nrejected": float(stats["nrejected"]),
             "eig_residual": float(residual[:n].max(initial=0.0))}
    error = collision
    if exc is not None:
        error = BreakdownError(
            f"factorization breakdown at t = {times[n]:.9g}: the state fails "
            f"its check: {exc}", time=float(times[n]), gap=min_gap)
    elif done <= end:
        error = locate_collision(
            path, blocks, pairs, times[done - 1], times[done]) or BreakdownError(
            f"factorization breakdown: the transport stalled at t = {t:.9g} "
            f"(eigen gap {min_gap:.3e}) with no eigenvalue collision located",
            time=t, gap=min_gap)
    elif error is None and defined < len(times):
        error = BreakdownError(
            f"factorization breakdown at t = {times[defined]:.9g}: the "
            f"family's path has no factorization there",
            time=float(times[defined]), gap=min_gap)
    return k[:n], ell[:n], states, tuple(fac[:n] for fac in factors), diags, error


def solve(spec, pt0, times, tol=1e-10, *, family, provenance, factorization,
          setup):
    """Exact flow of a `family` model through pt0 at the given output times,
    with the transport integrated at error tolerance `tol`.

    Returns (Trajectory, factorization); for a ReducedPoint pt0, the reduced
    trajectory of its lift pt0.xi = s0, the point itself passed to `setup`
    (rows s = g(xi)^-1 xi g(xi)), and None.
    On an eigenvalue collision raises BreakdownError carrying the collision
    time and the partial results.  So does the first output time whose state
    fails ``models.check_rows`` -- xi(t) off J^-1(0) (the test of pt0), or
    q, p, xi or s failing a test of an input point -- with that time and the
    rows before it.  A row outside U raises the reduction's DomainError.
    """
    if spec.family != family:
        raise ValidationError(f"the exact {family} solver requires a {family} "
                              f"ModelSpec")
    check_tol(tol)
    reduced = isinstance(pt0, ReducedPoint)
    _check_momentum_zero(pt0.xi)
    check_regular(spec, pt0.q)
    times = _validate_times(times)

    path, velocity, log0, position, (which, L0) = setup(spec, pt0)
    N = spec.ctx.N
    off = ~np.eye(N, dtype=bool)

    def check(k, ell):
        """``check_rows``' (n, error) on the states of polished stacks k, l,
        and those states (q, p, m, xi, P): m = xi, or s on a reduced solve."""
        kinv = np.linalg.inv(k)
        xi = kinv @ pt0.xi @ k
        q = position(ell)
        with np.errstate(invalid="ignore"):  # a non-finite row fails check_rows
            P = kinv @ L0 @ k - _lax_matrix(spec, q, 0.0, xi * off,
                                            LAX_LIMITS[which][1])
        p = P[:, range(N), range(N)]
        m = reduce_gauge(spec.ctx, xi) if reduced else xi
        return (*check_rows(q, p, m, reduced, xi=xi), (q, p, m, xi, P))

    k, ell, (q, p, m, xi, P), path_factors, diags, error = transport(
        path, velocity, spec.subset.partition, times, tol, log0, check)
    n = len(k)  # the rows up to the first output time whose state fails
    ts = times[:n]
    y = np.concatenate((q[:n], p[:n], m[:n].reshape(n, N * N)), axis=1)
    diags["momentum_residual"] = float(np.abs(xi[:n, ~off]).max(initial=0.0))
    diags["p_offdiag_residual"] = float(np.abs(P[:n, off]).max(initial=0.0))

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
