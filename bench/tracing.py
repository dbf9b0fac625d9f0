"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps public functions of the modules of ``spincm``
(the layers) so that each call records a span -- name, start, end and the
span that caused it -- and updates work counters.  Spans are kept in
compact arrays in memory and written out at the end.  A layer's self time is
its spans' duration minus the part covered by their child spans.

The program is not changed: every wrapper is undone by ``uninstall()``.
A name the program no longer has is skipped and reported, so a later change
that renames a function shows up as a missing layer, not as a crash.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np


def _size(x):
    return int(np.size(x))


def _l_points(args):
    return int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)


def _step_stats(traj, counts):
    """rk.nfev / nsteps / nrejected from an oracle trajectory's stats."""
    for k in ("nfev", "nsteps", "nrejected"):
        counts["rk." + k] += int(traj.stats.get(k, 0))


_SPECIAL_POINTS = ("special.points", lambda a: _size(a[1]))

# (module, attribute, span name, (counter, points per call) or None, scope
#  [, counter of the result])
# scope "all": replace the function wherever a spincm module imported it;
# scope "here": only in the named module (calls made by that module).
SPANS = [
    ("spincm.cli", "main", "cli.main", None, "all"),
    ("spincm.cli", "_write_lines", "cli.write", None, "here"),
    ("spincm.cli", "_write_json", "cli.write", None, "here"),
    ("spincm.rk", "trajectory_csv_lines", "cli.write", None, "all"),
    ("spincm.special", "wp", "special.wp", _SPECIAL_POINTS, "all"),
    ("spincm.special", "wp_prime", "special.wp_prime", _SPECIAL_POINTS, "all"),
    ("spincm.special", "zeta_w", "special.zeta_w", _SPECIAL_POINTS, "all"),
    ("spincm.special", "sigma_w", "special.sigma_w", _SPECIAL_POINTS, "all"),
    ("spincm.special", "l_func", "special.l_func", ("special.points", _l_points), "all"),
    ("spincm.special", "l_func_dz", "special.l_func_dz", ("special.points", _l_points), "all"),
    ("spincm.special", "EllipticLattice.reduce", "special.reduce", None, "all"),
    ("spincm.special", "EllipticLattice.__init__", "special.lattice_build", None, "all"),
    ("spincm.models", "eom", "models.eom", None, "all"),
    ("spincm.models", "reduced_eom", "models.eom", None, "all"),
    ("spincm.models", "lax_batch", "models.lax_batch", ("models.lax_points", lambda a: len(a[2])), "all"),
    ("spincm.rk", "integrate", "rk.integrate", None, "all", _step_stats),
    ("spincm.rk", "audit", "rk.audit", None, "all"),
    ("spincm.rk", "match_eigenvalues", "rk.match", None, "all"),
    ("spincm.continuation", "CartanWalk.advance_interval", "continuation.interval", None, "all"),
    ("spincm.continuation", "PivotPath.advance", "continuation.node", None, "all"),
    ("spincm.continuation", "CartanWalk._restore", "continuation.halving", None, "all"),
    ("spincm.continuation", "best_assignment", "continuation.assign", None, "all"),
    ("spincm.continuation", "locate_collision", "continuation.collision", None, "all"),
    ("spincm.solver_rational", "solve_rational", "solver_rational.solve", None, "all"),
    ("spincm.solver_rational", "solve_rational_reduced", "solver_rational.solve", None, "all"),
    ("spincm.solver_trig", "solve_trig", "solver_trig.solve", None, "all"),
    ("spincm.solver_trig", "solve_trig_reduced", "solver_trig.solve", None, "all"),
    ("spincm.solver_trig", "parabolic_factor", "solver_trig.parabolic", None, "all"),
    ("spincm.solver_trig", "expm", "solver_trig.expm", None, "here"),
    ("spincm.spectral", "genericity_check", "spectral.genericity", None, "all"),
    ("spincm.spectral", "branch_count_genus", "spectral.branch", None, "all"),
    ("spincm.spectral", "lax", "spectral.lax", None, "here"),
]

SPECIAL_KERNELS = ("special.wp", "special.wp_prime", "special.zeta_w", "special.sigma_w",
                   "special.l_func", "special.l_func_dz")

# per-layer metrics: name -> ("self", span names) | ("calls", span names) | ("count", key)
PER_LAYER = {
    "cli.jobs": ("calls", ("cli.main",)),
    "cli.main_s": ("self", ("cli.main",)),
    "cli.write_s": ("self", ("cli.write",)),
    "special.calls": ("calls", SPECIAL_KERNELS),
    "special.points": ("count", "special.points"),
    "special.s": ("self", SPECIAL_KERNELS + ("special.reduce", "special.lattice_build")),
    "special.reduce_calls": ("calls", ("special.reduce",)),
    "special.lattice_builds": ("calls", ("special.lattice_build",)),
    "models.eom_calls": ("calls", ("models.eom",)),
    "models.eom_s": ("self", ("models.eom",)),
    "models.lax_calls": ("calls", ("models.lax_batch",)),
    "models.lax_points": ("count", "models.lax_points"),
    "models.lax_s": ("self", ("models.lax_batch",)),
    "rk.integrate_s": ("self", ("rk.integrate",)),
    "rk.nfev": ("count", "rk.nfev"),
    "rk.nsteps": ("count", "rk.nsteps"),
    "rk.nrejected": ("count", "rk.nrejected"),
    "rk.audit_s": ("self", ("rk.audit",)),
    "rk.match_calls": ("calls", ("rk.match",)),
    "rk.match_s": ("self", ("rk.match",)),
    "continuation.intervals": ("calls", ("continuation.interval",)),
    "continuation.nodes": ("calls", ("continuation.node",)),
    "continuation.halvings": ("calls", ("continuation.halving",)),
    "continuation.eig_calls": ("count", "continuation.eig_calls"),
    "continuation.assign_calls": ("calls", ("continuation.assign",)),
    "continuation.assign_s": ("self", ("continuation.assign",)),
    "continuation.collision_s": ("self", ("continuation.collision",)),
    "solver_rational.solve_s": ("self", ("solver_rational.solve",)),
    "solver_trig.solve_s": ("self", ("solver_trig.solve",)),
    "solver_trig.expm_calls": ("calls", ("solver_trig.expm",)),
    "solver_trig.expm_s": ("self", ("solver_trig.expm",)),
    "solver_trig.parabolic_calls": ("calls", ("solver_trig.parabolic",)),
    "spectral.genericity_s": ("self", ("spectral.genericity",)),
    "spectral.branch_s": ("self", ("spectral.branch",)),
    "spectral.lax_evals": ("calls", ("spectral.lax",)),
    "spectral.eigvals_calls": ("count", "spectral.eigvals_calls"),
}


def _resolve(module, attr):
    obj = importlib.import_module(module)
    *owners, name = attr.split(".")
    for o in owners:
        obj = getattr(obj, o)
    return obj, name


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = []
        self.counts = Counter()
        self.missing = []
        self._undo = []
        self.rounds = []  # (first span, end span, counts at end)

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name, points, after=None):
        nid = self._id(name)
        counts, stack = self.counts, self.stack
        name_id, parent, t0, t1 = self.name_id, self.parent, self.t0, self.t1
        clock = time.perf_counter
        key, points = points if points is not None else (None, None)

        def wrapper(*args, **kwargs):
            if points is not None:
                counts[key] += points(args)
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            t1.append(0.0)
            t0.append(0.0)
            stack.append(idx)
            t0[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, counts)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, name, new):
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                           else getattr(owner, name)))
        setattr(owner, name, new)

    def install(self):
        for module, attr, span, points, scope, *after in SPANS:
            try:
                owner, name = _resolve(module, attr)
                fn = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            wrapped = self._wrap(fn, span, points, *after)
            self._patch(owner, name, wrapped)
            if scope == "all" and not isinstance(owner, type):
                for modname, mod in list(sys.modules.items()):
                    if (modname.startswith("spincm") and mod is not owner
                            and getattr(mod, name, None) is fn):
                        self._patch(mod, name, wrapped)
        self._count_linalg()

    def _count_linalg(self):
        """np.linalg.eig / eigvals calls, charged to the innermost traced
        layer when that is continuation (eig) or spectral (eigvals)."""
        counts, stack, name_id, names = self.counts, self.stack, self.name_id, self.names
        for fname, prefix, key in (("eig", "continuation.", "continuation.eig_calls"),
                                   ("eigvals", "spectral.", "spectral.eigvals_calls")):
            fn = getattr(np.linalg, fname)

            def counted(*args, _fn=fn, _prefix=prefix, _key=key, **kwargs):
                if stack and names[name_id[stack[-1]]].startswith(_prefix):
                    counts[_key] += 1
                return _fn(*args, **kwargs)
            self._patch(np.linalg, fname, counted)

    def uninstall(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    def mark_round(self, first_span):
        self.rounds.append((first_span, len(self.name_id), Counter(self.counts)))

    def self_times(self):
        t0 = np.frombuffer(self.t0, dtype=float)
        dur = np.frombuffer(self.t1, dtype=float) - t0
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def per_round(self):
        """Per-layer metrics of each round: counts and self times."""
        selft = self.self_times()
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        out = []
        prev = Counter()
        for first, end, counts in self.rounds:
            rid = ids[first:end]
            rself = selft[first:end]
            calls = np.bincount(rid, minlength=len(self.names))
            selfs = np.bincount(rid, weights=rself, minlength=len(self.names))
            delta = counts - prev
            prev = counts
            row = {}
            for metric, (kind, what) in PER_LAYER.items():
                if kind == "count":
                    row[metric] = int(delta.get(what, 0))
                    continue
                nids = [self._ids[n] for n in what if n in self._ids]
                if kind == "calls":
                    row[metric] = int(sum(calls[i] for i in nids))
                else:
                    row[metric] = float(sum(selfs[i] for i in nids))
            out.append(row)
        return out

    def dump(self, path):
        """Write every span (name, start, end, parent) and the counters."""
        np.savez_compressed(
            path, names=np.array(json.dumps(self.names)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.t0, dtype=float),
            end=np.frombuffer(self.t1, dtype=float),
            rounds=np.array([[a, b] for a, b, _ in self.rounds], dtype=np.int64))
