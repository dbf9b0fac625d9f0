"""The driver shared by the exact solvers of the rational and trigonometric
families.

A ``CartanWalk`` follows the blockwise eigendecomposition of a family matrix
path M(t) over the output grid; ``solve`` checks the input, walks, records a
state and the factors at each node, keeps the diagnostics and attaches the
partial results to a ``BreakdownError``.  A family supplies
``setup(spec, pt0) -> (path, log0, node)``: ``path(t)`` returns M(t) and
its exact derivative, log0 starts the walk's branch-tracked log of the
eigenvalue path (None for none), and ``node(t, walk)`` returns the state at
t, a dict of residuals (their maxima become diagnostics) and one factor per
field of its ``Factorization``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .continuation import CartanWalk
from .errors import BreakdownError, ValidationError
from .models import (PhasePoint, _check_momentum_zero, check_regular,
                     reduce_point)
from .rk import Trajectory


@dataclass
class Factorization:
    """Per-time factors of an exact solve.  Subclasses declare ``times``, one
    list field per factor, and ``diagnostics``."""

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


def _validate_times(times):
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValidationError("times must be a 1-d grid with at least 2 nodes")
    if abs(times[0]) > 1e-14:
        raise ValidationError("times must start at 0")
    if np.any(np.diff(times) <= 0):
        raise ValidationError("times must be strictly increasing")
    return times


def solve(spec, pt0, times, *, family, provenance, factorization, setup):
    """Exact flow of a `family` model through pt0 at the given output times.

    Returns (Trajectory, factorization).  On an eigenvalue collision raises
    BreakdownError carrying the collision time and the partial results.
    """
    if spec.family != family:
        raise ValidationError(f"the exact {family} solver requires a {family} "
                              f"ModelSpec")
    _check_momentum_zero(pt0)
    check_regular(spec, pt0.q)
    times = _validate_times(times)

    path, log0, node = setup(spec, pt0)
    walk = CartanWalk(path, spec.subset.partition, log0=log0)
    out_times, states, worst = [], [], {}
    columns = [[] for _ in fields(factorization)[1:-1]]

    def emit(t):
        state, residuals, factors = node(t, walk)
        for key, val in residuals.items():
            worst[key] = max(worst.get(key, 0.0), val)
        out_times.append(t)
        states.append(state)
        for col, fac in zip(columns, factors):
            col.append(fac)

    def wrap_up():
        diags = {"min_gap": float(walk.min_gap), **worst,
                 "pivot_jumps": float(walk.pivot.pivot_jumps)}
        ts = np.array(out_times)
        traj = Trajectory(times=ts, states=states, provenance=provenance,
                          stats=dict(diags))
        return traj, factorization(ts, *columns, diagnostics=diags)

    emit(0.0)
    try:
        for t_next in times[1:]:
            walk.advance_interval(float(t_next))
            emit(float(t_next))
    except BreakdownError as exc:
        traj, fact = wrap_up()
        traj.breakdown_time = exc.time
        exc.partial, exc.factors = traj, fact
        raise
    return wrap_up()


def solve_reduced(solve_full, spec, rpt0, times):
    """Reduced exact flow: lift s0 to xi0 := s0 (g(s0) = identity), solve with
    `solve_full`, and push each state through the gauge reduction."""
    pt0 = PhasePoint(q=rpt0.q, p=rpt0.p, xi=rpt0.s)
    try:
        traj, _fact = solve_full(spec, pt0, times)
    except BreakdownError as exc:
        exc.factors = None  # full-space factors, not those of the reduced flow
        if exc.partial is not None:
            exc.partial = _reduce_traj(spec.ctx, exc.partial)
        raise
    return _reduce_traj(spec.ctx, traj)


def _reduce_traj(ctx, traj):
    states = [reduce_point(ctx, st) for st in traj.states]
    return Trajectory(times=traj.times, states=states,
                      provenance=traj.provenance, stats=dict(traj.stats),
                      breakdown_time=traj.breakdown_time)
