"""Independent numerical oracle: adaptive Dormand-Prince 5(4) integration of the
full or reduced equations of motion over complex phase space, with output at
equally spaced sample times, singularity-margin abort, and invariant auditing.

The step / accept / sample loop is one core, ``dp5``, over a packed complex
state and a callable f(t, y) on it; the exact solvers run their transport
ODE on it too.  The stages and the embedded error control run on the
buffers' stacked real/imaginary coordinates, so the standard error norm
applies unchanged.  The state and the seven stage slopes share one real
(8, n) array [y | K_0 .. K_6], and each step scales the tableau [A; ERR] by
its step size once, so a stage input and the error estimate are one
matrix-vector product each.  A step allocates no state array: the stage
inputs, the error estimate and its scale live in buffers built before the
step loop, and f may return one buffer that it reuses.  Each sample is
written into a row of the caller's array; a run ends early only on a failed
step (the guard, the stall budget STALL_STEPS per output interval, or a
collapsed step), with fewer samples.  The oracle's f is
``models.packed_field``, built once per integration; its regularity check,
at y0 and at every stage, is the singularity-margin abort.

A ``Trajectory`` is one complex array y of shape (T, 2N + N^2), row i the
packed q | p | row-major xi (or s) at times[i]; the oracle and the exact
solvers write their samples straight into it.

Invariant auditing reads the whole trajectory at once, through the stacked
point ``Trajectory.point(slice(None))``: ``conserved`` makes one
``models.hamiltonian`` call (one regularity check and one kernel pass over
(T, roots); elliptic: one lattice reduction and one theta pass) and one
stacked momentum norm, and ``audit`` adds one ``models.lax_batch`` call for
the (T, K, N, N) Lax matrices and one ``eigvals`` over them.  A singular
row raises the DomainError of the first one, as a check row by row would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError
from .models import (PhasePoint, ReducedPoint, contour_radius, hamiltonian,
                     lax_batch, packed_field)

# Dormand-Prince 5(4) tableau (Dormand & Prince 1980); row i of _A holds the
# stage weights of stage i, and the 5th-order weights are its last row
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                 -17253 / 339200, 22 / 525, -1 / 40])
# [A; ERR]: times the step size h, rows 0..6 give the stage inputs' slope
# coefficients and row 7 the error estimate's
_AE = np.vstack([_A, _ERR])
# accepted steps within one output interval beyond which a run has stalled:
# the oracle takes at most 547 on the presets (trig-sl2 to t = 15), the exact
# transport at most 141 on the presets, the agreement sweep and the
# benchmark's exact jobs, and 772 on a one-interval [0, 3] trig-sl3 grid at
# tol 1e-13
STALL_STEPS = 5000


@dataclass
class Trajectory:
    """The packed states y (see the module docstring; read-only) at `times`,
    with provenance and step statistics.  q, p and xi (s on a reduced
    trajectory) are views of y of shapes (T, N), (T, N) and (T, N, N)."""

    times: np.ndarray
    y: np.ndarray
    reduced: bool
    provenance: str
    stats: dict = field(default_factory=dict)
    blowup: bool = False
    last_good_time: float = None
    breakdown_time: float = None

    def __post_init__(self):
        self.y.flags.writeable = False
        self.N = N = math.isqrt(self.y.shape[1] + 1) - 1
        self.q, self.p = self.y[:, :N], self.y[:, N:2 * N]
        self.xi = self.y[:, 2 * N:].reshape(-1, N, N)

    def point(self, i, cls=None):
        """The state at row i as a `cls` on views of the row, unchecked: by
        default a ReducedPoint on a reduced trajectory, else a PhasePoint; a
        PhasePoint of a reduced row is its lift xi := s.  For a slice i it is
        the stacked point of those rows: q and p of shape (T, N), the matrix
        (T, N, N)."""
        if cls is None:
            cls = ReducedPoint if self.reduced else PhasePoint
        N, row = self.N, self.y[i]
        pt = cls.__new__(cls)
        pt.q, pt.p = row[..., :N], row[..., N:2 * N]
        setattr(pt, pt._matrix, row[..., 2 * N:].reshape(row.shape[:-1] + (N, N)))
        return pt


def check_tol(tol):
    """The error tolerance accepted by the integrators: 1e-13 <= tol <= 1e-3."""
    if not (1e-13 <= tol <= 1e-3):
        raise ValidationError(f"tol={tol} outside [1e-13, 1e-3]")


def dp5(f, y0, sample_times, tol, out, guard=None):
    """Adaptive Dormand-Prince 5(4) of y' = f(t, y) from the complex state
    y0 at sample_times[0] to sample_times[-1].

    Steps are clamped to land on every sample time; sample i goes into row
    i of the complex array `out` (row 0 is y0).  An accepted step must give
    a finite state (an infinite or NaN entry fails the step) that passes
    ``guard(y)``, if a guard is given, and be at most the STALL_STEPS-th
    accepted step since the last sample; a stage raising DomainError
    shrinks the step.  The one way a run ends early is a
    failed step: one that fails the guard, one past the stall budget, or a
    step size that collapses.

    Times are compared with slacks that scale with the grid: in units of
    u = min(1, 1e6 x the smallest sample spacing), a step is clamped onto a
    sample time 1e-14 u short of it, the run ends 1e-14 u short of the last
    one, a sample is delivered 1e-12 u short of its time, and a step
    collapses under 1e-15 max(u, |t|) (1e-12 max(u, |t|) after a
    DomainError).  On a grid whose samples lie 1e-6 or more apart u = 1;
    on a finer one every slack stays under a millionth of the spacing, so a
    step delivers only the samples it reached.

    Buffers: f takes and returns complex arrays; every stage value is copied
    into the stage array, so f may return one buffer that it reuses; the y
    given to f and guard is one of the step's own buffers, valid only during
    the call.  The stages and the error norm run on the buffers' real views:
    y and the slopes K_0..K_6 are the rows of one real array YK, and each
    step fills C = [1 | h A; 0 | h ERR] with one multiplication, so stage i
    is evaluated at C[i, :i+1] @ YK[:i+1] and the error estimate is
    C[7] @ YK, scaled by tol (1 + max(|y|, |y1|)) with |y| kept from the last
    accepted step, and its norm is one dot product.  The last stage is
    evaluated at y + h A[6] K, which is the 5th-order solution (its weights
    are A[6] and c7 = 1): it becomes the new state when the step is accepted.

    Returns (t, stats, n): the time reached, {nsteps, nrejected, nfev}, and
    the number of samples delivered; a run that ended early delivered fewer
    than len(sample_times).
    """
    ts = np.asarray(sample_times, dtype=float).tolist()
    t, t_end = ts[0], ts[-1]
    u = min(1.0, 1e6 * float(np.diff(sample_times).min(initial=np.inf)))
    y0 = np.asarray(y0, dtype=complex)
    n = 2 * y0.size
    # [y | K_0 .. K_6] and the step's coefficients C = [1 | h A; 0 | h ERR]
    YK = np.empty((8, n))
    YKc = YK.view(complex)
    y, yc = YK[0], YKc[0]
    yc[:] = y0
    out[0] = yc
    C = np.zeros((8, 8))
    C[:7, 0] = 1.0
    hAE = C[:, 1:]
    nxt, since = 1, 0
    h = min(1e-3, (t_end - t) / 100)
    YKc[1] = f(t, yc)
    nfev, nsteps, nrej = 1, 0, 0
    # stage inputs (ys, and y1 for the last stage), the error, |y|, |y1|, scale
    ys, y1, err, ay, ay1, sc = (np.empty(n) for _ in range(6))
    y1c = y1.view(complex)
    np.abs(y, out=ay)
    stages = [(float(_C[i]), C[i, :i + 1], YK[:i + 1], YKc[i + 1], yi, yi.view(complex))
              for i, yi in zip(range(1, 7), [ys] * 5 + [y1])]
    err_row = C[7]

    while t < t_end - 1e-14 * u:
        h_step = min(h, t_end - t)
        clamped = h_step < h
        if nxt < len(ts) and t + h_step >= ts[nxt] - 1e-14 * u:
            h_step = ts[nxt] - t
            clamped = True
        if h_step < 1e-15 * max(u, abs(t)):
            break
        np.multiply(_AE, h_step, out=hAE)
        try:
            for c, ci, YKi, Ki, yi, yic in stages:
                np.matmul(ci, YKi, out=yi)
                Ki[:] = f(t + c * h_step, yic)
        except DomainError:
            # a trial stage left the domain (singular margin): shrink, then stop
            nrej += 1
            if h_step < 1e-12 * max(u, abs(t)):
                break
            h = h_step * 0.25
            continue
        nfev += 6
        np.matmul(err_row, YK, out=err)
        np.abs(y1, out=ay1)
        np.maximum(ay, ay1, out=sc)
        sc *= tol
        sc += tol
        err /= sc
        enorm = math.sqrt(float(np.dot(err, err)) / n)
        accepted = enorm <= 1.0
        if accepted:
            since += 1
            # not < inf: an infinite or NaN entry
            if (not np.maximum.reduce(ay1) < math.inf
                    or (guard is not None and not guard(y1c)) or since > STALL_STEPS):
                break
            t += h_step
            y[:] = y1
            ay, ay1 = ay1, ay
            YK[1] = YK[7]  # FSAL
            nsteps += 1
            while nxt < len(ts) and t >= ts[nxt] - 1e-12 * u:
                out[nxt] = yc
                nxt, since = nxt + 1, 0
        else:
            nrej += 1
        fac = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** (-0.2)))
        if not accepted:
            h = h_step * min(1.0, fac)
        elif clamped:
            h = max(h, h_step * fac)
        else:
            h = h_step * fac

    return t, {"nsteps": nsteps, "nrejected": nrej, "nfev": nfev}, nxt


def integrate(spec, pt0, t_end, samples=200, tol=1e-10):
    """Adaptive RK5(4) trajectory of pt0 at `samples` equally spaced times,
    with the vector field of ``models.packed_field`` built once.

    Aborts cleanly (blowup flag + last good time) when the configuration comes
    within the kernel pass's REGULARITY_MARGIN of the singular set: every
    stage checks it, the last one at the new state, and a stage that fails
    shrinks the step until the step size collapses.  An output interval past
    ``dp5``'s stall budget ends the run the same way.  A pt0 within that
    margin raises the DomainError of the field's first evaluation.
    """
    check_tol(tol)
    if samples < 2:
        raise ValidationError("samples must be >= 2")
    if not math.isfinite(t_end):
        raise ValidationError(f"t_end={t_end} is not finite")
    if t_end <= 0:
        raise ValidationError("t_end must be positive")
    reduced = isinstance(pt0, ReducedPoint)
    N = spec.ctx.N
    sample_times = np.linspace(0.0, float(t_end), int(samples))
    out = np.empty((sample_times.size, 2 * N + N * N), dtype=complex)
    y0 = np.concatenate([pt0.q, pt0.p, getattr(pt0, pt0._matrix).ravel()])
    t, stats, n = dp5(packed_field(spec, reduced), y0, sample_times, tol, out)
    blowup = n < sample_times.size
    return Trajectory(times=sample_times[:n], y=out[:n], reduced=reduced,
                      provenance="oracle", stats=stats, blowup=blowup,
                      last_good_time=float(t) if blowup else None)


# ---------------------------------------------------------------------------
# invariant auditing
# ---------------------------------------------------------------------------

def default_z_samples(spec):
    """{0.7, 1.3i, 0.4+0.4i} scaled into the family's analyticity annulus."""
    base = np.array([0.7, 1.3j, 0.4 + 0.4j])
    if spec.family == "rational":
        return list(base)
    scale = 0.45 * 2.0 * contour_radius(spec) / 1.3
    return list(base * scale)


@dataclass
class InvariantReport:
    """Per-time conserved quantities and their maximal drifts over a trajectory."""

    times: np.ndarray
    z_samples: list
    energy: np.ndarray          # (T,)
    momentum_norm: np.ndarray   # (T,)
    eigenvalues: np.ndarray     # (T, K, N), in eigvals' order
    energy_drift: float
    momentum_drift: float
    eig_drift: float

    def to_json_dict(self):
        return {
            "z_samples": [[z.real, z.imag] for z in map(complex, self.z_samples)],
            "energy_drift": self.energy_drift,
            "momentum_drift": self.momentum_drift,
            "eig_drift": self.eig_drift,
        }


def conserved(spec, traj):
    """(energy, momentum_norm) at each sample of a trajectory: the
    Hamiltonian and the norm of diag xi, each over all rows at once.  A
    reduced trajectory is audited at its lift xi := s; its momentum norm is
    that of diag s, 0 on the slice."""
    energy = hamiltonian(spec, traj.point(slice(None), PhasePoint))
    d = np.diagonal(traj.xi, axis1=1, axis2=2).copy()
    # the two dot products of np.linalg.norm per row, as stacked 1 x N @ N x 1
    re, im = d.real[:, None, :], d.imag[:, None, :]
    sq = re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2)
    return energy, np.sqrt(sq[:, 0, 0])


def drift(values):
    """max over the samples of |values - values[0]|."""
    return float(np.abs(values - values[0]).max())


def audit(spec, traj, z_samples=None):
    """Energy, momentum norm and Lax eigenvalues along a trajectory, with drifts.

    eig_drift is the largest two-sided nearest-eigenvalue (Hausdorff)
    distance between spec L(z; t) and spec L(z; 0) over the samples t and
    z: max(max_i min_j, max_j min_i) of |E[t, z, i] - E[0, z, j]|.  While it
    is below half the smallest eigen gap of L(z; 0) it equals the drift of
    the eigenvalues matched one to one.

    None of these can see a constant torus conjugation xi -> h xi h^-1 (h
    diagonal), which maps solutions on J^-1(0) to solutions; only a
    comparison of xi with an independent solution (``compare``'s sup_xi)
    checks that angle.
    """
    if z_samples is None:
        z_samples = default_z_samples(spec)
    energy, mom = conserved(spec, traj)
    eigs = np.linalg.eigvals(lax_batch(spec, traj.point(slice(None), PhasePoint),
                                       z_samples))
    dist = np.abs(eigs[:, :, :, None] - eigs[0, :, None, :])  # (T, K, N, N)
    return InvariantReport(
        times=traj.times, z_samples=list(z_samples), energy=energy,
        momentum_norm=mom, eigenvalues=eigs,
        energy_drift=drift(energy), momentum_drift=drift(mom),
        eig_drift=float(max(dist.min(axis=3).max(), dist.min(axis=2).max())),
    )


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def trajectory_csv_lines(traj, meta=None):
    """CSV lines: '#' metadata, mandatory header row, one row per sample."""
    lines = [f"# {key}: {val}" for key, val in (meta or {}).items()]
    N = traj.N
    cols = ["t"]
    for name in ("q", "p"):
        for i in range(1, N + 1):
            cols += [f"Re_{name}_{i}", f"Im_{name}_{i}"]
    label = "s" if traj.reduced else "xi"
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            cols += [f"Re_{label}_{i}_{j}", f"Im_{label}_{i}_{j}"]
    lines.append(",".join(cols))
    rows = np.column_stack([traj.times, traj.y.view(float)])
    lines.extend(",".join(map(repr, row)) for row in rows.tolist())
    return lines
