"""Independent numerical oracle: adaptive Dormand-Prince 5(4) integration of the
full or reduced equations of motion over complex phase space, with output at
equally spaced sample times, singularity-margin abort, and invariant auditing.

The step / accept / sample loop is one core, ``dp5``, over a packed real state
and a callable f(t, y); the exact solvers run their transport ODE on it too.
Complex states are integrated as stacked real/imaginary coordinates so the
standard embedded error control applies unchanged.

A ``Trajectory`` is one complex array y of shape (T, 2N + N^2), row i the
packed q | p | row-major xi (or s) at times[i]; the oracle and the exact
solvers write their samples straight into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .continuation import best_assignment
from .errors import DomainError, ValidationError
from .models import (PhasePoint, ReducedPoint, check_regular, contour_radius,
                     eom, hamiltonian, lax_batch, reduced_eom,
                     reduced_hamiltonian, singular_distance)

SINGULAR_MARGIN = 1e-6

# Dormand-Prince 5(4) tableau (Dormand & Prince 1980); row i of _A holds the
# stage weights of stage i
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
_B5 = _A[6]
_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                 -17253 / 339200, 22 / 525, -1 / 40])


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
        """The state at row i as a `cls` on views of the row: by default a
        ReducedPoint on a reduced trajectory, else a PhasePoint; a PhasePoint
        of a reduced row is its lift xi := s."""
        if cls is None:
            cls = ReducedPoint if self.reduced else PhasePoint
        return _on_row(cls.__new__(cls), self.y[i], self.N)


def _on_row(pt, row, N):
    """pt with its fields re-pointed at views of a packed row q | p | m,
    unchecked."""
    pt.q, pt.p = row[:N], row[N:2 * N]
    setattr(pt, pt._matrix, row[2 * N:].reshape(N, N))
    return pt


def check_tol(tol):
    """The error tolerance accepted by the integrators: 1e-13 <= tol <= 1e-3."""
    if not (1e-13 <= tol <= 1e-3):
        raise ValidationError(f"tol={tol} outside [1e-13, 1e-3]")


def dp5(f, y0, sample_times, tol, guard, on_sample, fixed_step=None):
    """Adaptive Dormand-Prince 5(4) of y' = f(t, y) from y0 at sample_times[0]
    to sample_times[-1], over a packed real state y.

    Steps are clamped to land on every sample time, where
    ``on_sample(i, y)`` is called (also for i = 0, with y0); a true return
    value stops the run.  An accepted step must give a finite state that
    passes ``guard(t, y)``; a stage raising DomainError shrinks the step.  The
    run also stops early when a step fails the guard or the step size
    collapses.  `fixed_step` disables the error control (used for order
    verification).

    Returns (t, stats, stopped, n): the time reached, {nsteps, nrejected,
    nfev}, whether the run stopped before sample_times[-1], and the number of
    samples delivered.
    """
    t = float(sample_times[0])
    t_end = float(sample_times[-1])
    y = np.asarray(y0, dtype=float)
    stopped = bool(on_sample(0, y))
    nxt = 1
    h = fixed_step if fixed_step else min(1e-3, (t_end - t) / 100)
    K = np.empty((7, y.size))
    K[0] = f(t, y)
    nfev, nsteps, nrej = 1, 0, 0

    while not stopped and t < t_end - 1e-14:
        h_step = min(h, t_end - t)
        clamped = h_step < h
        if nxt < len(sample_times) and t + h_step >= sample_times[nxt] - 1e-14:
            h_step = sample_times[nxt] - t
            clamped = True
        if h_step < 1e-15 * max(1.0, abs(t)):
            stopped = True
            break
        try:
            for i in range(1, 7):
                K[i] = f(t + _C[i] * h_step, y + h_step * (_A[i, :i] @ K[:i]))
        except DomainError:
            # a trial stage left the domain (singular margin): shrink, then stop
            nrej += 1
            if h_step < 1e-12 * max(1.0, abs(t)):
                stopped = True
                break
            h = h_step * 0.25
            continue
        nfev += 6
        y1 = y + h_step * (_B5 @ K)
        if fixed_step is None:
            err = h_step * (_ERR @ K)
            sc = tol + tol * np.maximum(np.abs(y), np.abs(y1))
            enorm = float(np.sqrt(np.mean((err / sc) ** 2)))
        else:
            enorm = 0.0
        accepted = enorm <= 1.0
        if accepted:
            if not np.all(np.isfinite(y1)) or not guard(t + h_step, y1):
                stopped = True
                break
            t += h_step
            y = y1
            K[0] = K[6]  # FSAL
            nsteps += 1
            while not stopped and nxt < len(sample_times) and \
                    t >= sample_times[nxt] - 1e-12:
                stopped = bool(on_sample(nxt, y))
                nxt += 1
        else:
            nrej += 1
        if fixed_step is None:
            fac = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** (-0.2)))
            if not accepted:
                h = h_step * min(1.0, fac)
            elif clamped:
                h = max(h, h_step * fac)
            else:
                h = h_step * fac

    return t, {"nsteps": nsteps, "nrejected": nrej, "nfev": nfev}, stopped, nxt


def _margin(spec, y, N):
    q = y.view(complex)[:N]
    i, j = spec.regular_roots
    return float(singular_distance(spec, q[i] - q[j]).min(initial=np.inf))


def integrate(spec, pt0, t_end, samples=200, tol=1e-10, fixed_step=None):
    """Adaptive RK5(4) trajectory of pt0 at `samples` equally spaced times.

    Aborts cleanly (blowup flag + last good time) when the configuration comes
    within SINGULAR_MARGIN of the singular set.  `fixed_step` disables the
    error control (used for order verification).
    """
    check_tol(tol)
    if samples < 2:
        raise ValidationError("samples must be >= 2")
    if t_end <= 0:
        raise ValidationError("t_end must be positive")
    reduced = isinstance(pt0, ReducedPoint)
    check_regular(spec, pt0.q)
    N = spec.ctx.N
    rhs = reduced_eom if reduced else eom
    pt = type(pt0).__new__(type(pt0))  # re-pointed at each stage's state

    def f(t, y):
        qd, pd, md = rhs(spec, _on_row(pt, y.view(complex), N))
        return np.concatenate([qd, pd, md.ravel()]).view(float)

    sample_times = np.linspace(0.0, float(t_end), int(samples))
    out = np.empty((sample_times.size, 2 * (2 * N + N * N)))  # real rows of y
    y0 = np.concatenate([pt0.q, pt0.p, getattr(pt0, pt0._matrix).ravel()])
    t, stats, blowup, n = dp5(
        f, y0.view(float), sample_times, tol,
        guard=lambda t, y: _margin(spec, y, N) >= SINGULAR_MARGIN,
        on_sample=out.__setitem__, fixed_step=fixed_step)
    return Trajectory(times=sample_times[:n], y=out[:n].view(complex),
                      reduced=reduced, provenance="oracle", stats=stats,
                      blowup=blowup, last_good_time=float(t) if blowup else None)


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


def match_eigenvalues(prev, new):
    """Permutation of `new` minimizing the total distance to `prev`, by
    ``continuation.best_assignment`` on the cost |new[j] - prev[i]|."""
    new = np.asarray(new)
    return new[best_assignment(np.abs(new[None, :] - np.asarray(prev)[:, None]))]


@dataclass
class InvariantReport:
    """Per-time conserved quantities and their maximal drifts over a trajectory."""

    times: np.ndarray
    z_samples: list
    energy: np.ndarray          # (T,)
    momentum_norm: np.ndarray   # (T,)
    eigenvalues: np.ndarray     # (T, K, N), continuation-matched in t
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


def audit(spec, traj, z_samples=None):
    """Energy, momentum norm and Lax eigenvalues along a trajectory, with drifts.

    None of these can see a constant torus conjugation xi -> h xi h^-1 (h
    diagonal), which maps solutions on J^-1(0) to solutions; only a
    comparison of xi with an independent solution (``compare``'s sup_xi)
    checks that angle.
    """
    if z_samples is None:
        z_samples = default_z_samples(spec)
    T = len(traj.y)
    H = reduced_hamiltonian if traj.reduced else hamiltonian
    energy = np.array([H(spec, traj.point(it)) for it in range(T)])
    mom = np.zeros(T) if traj.reduced else np.array(
        [np.linalg.norm(d) for d in np.diagonal(traj.xi, axis1=1, axis2=2)])
    eigs = np.linalg.eigvals([lax_batch(spec, traj.point(it, PhasePoint), z_samples)
                              for it in range(T)])
    for k, ev in enumerate(eigs[0]):
        eigs[0, k] = ev[np.lexsort((ev.imag, ev.real))]
    for it in range(1, T):
        for k in range(len(z_samples)):
            eigs[it, k] = match_eigenvalues(eigs[it - 1, k], eigs[it, k])
    return InvariantReport(
        times=traj.times, z_samples=list(z_samples), energy=energy,
        momentum_norm=mom, eigenvalues=eigs,
        energy_drift=float(np.abs(energy - energy[0]).max()),
        momentum_drift=float(np.abs(mom - mom[0]).max()),
        eig_drift=float(np.abs(eigs - eigs[0]).max()),
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
