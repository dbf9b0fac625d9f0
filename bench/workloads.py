"""The four workloads: their inputs, made from the seed, and their operations.

An operation is one call of the program's front door (``spincm.cli.main``)
with the arguments a user would type, followed by the checks of
``checks.py`` on what it wrote.  Every round of a workload runs the same
operations in the same order.

Inputs are presets (always with the CLI's default ``--seed 0``, so a preset
is the same input in every run) and seeded points, passed to the program as
``--model``/``--init`` JSON.  A seeded point is a symmetry image, drawn from
``--seed``, of a base point drawn once from a fixed stream.  A fresh random
point per seed would make the amount of work depend on the seed (the
oracle's step count varies by +-40% between random elliptic points), and
that spread would hide any change of the program.  An image relabels the
particles (where the model is symmetric under it) and conjugates xi by unit
phases: the input differs per seed, while the trajectory, the checks, the
work done and the outcome of every check stay the same.

Some ``compare`` jobs on rational seeded points fail by a known fault of
the exact solver (``FAULTS``); they fail on every seed and in every round,
so the share of failed operations is the same in every run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

LATTICE = {"omega1": [1.0, 0.0], "omega2": [0.35, 0.8]}

# known faults of the exact solver, by name
FAULTS = {
    "pivot-reanchor": ("continuation.PivotPath.advance re-anchors a pivot without "
                       "carrying the gauge jump into the Cartan quadrature"),
    "fixed-fine": ("CartanWalk.advance_interval integrates the Cartan velocity "
                   "by fixed-substep Simpson without an error estimate"),
}
# the only problems an operation naming a known fault may have: both faults
# are a diagonal conjugation of xi, so q and p must still agree
FAULT_TAGS = {"compare_fail", "sup_xi"}

# the fault by which `compare` fails on the seeded point of (family, N), on
# every seed: the pivot re-anchor where the walk re-anchors a pivot (sup_xi
# of order 1 to 20), otherwise the quadrature (sup_xi of 1e-3)
SEEDED_FAULTS = {("rational", 3): "fixed-fine", ("rational", 4): "pivot-reanchor",
                 ("rational", 6): "fixed-fine", ("rational", 7): "pivot-reanchor"}

WORKLOADS = ("exact-compare", "large-n", "elliptic-oracle", "spectral-curve")


@dataclass
class Op:
    """One CLI job and the check of its output."""

    name: str
    argv: list
    out: Path
    check: Callable  # (exit code, {op name: (exit code, out path)}) -> problems
    fault: str = None

    def classify(self, problems):
        """'ok', 'fault' (only the known fault's problems) or 'wrong'."""
        if not problems:
            return "ok"
        if self.fault and {tag for tag, _ in problems} <= FAULT_TAGS:
            return "fault"
        return "wrong"


@dataclass
class Workload:
    name: str
    ops: list = field(default_factory=list)
    warmup: int = 0  # index of the op run by each set-up probe


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def full_delta(N):
    return {"kind": "delta",
            "members": [[i + 1, j + 1] for i in range(N) for j in range(N) if i != j]}


def model_json(family, N):
    if family == "rational":
        return {"N": N, "family": "rational", "root_subset": full_delta(N)}
    if family == "trigonometric":
        return {"N": N, "family": "trigonometric",
                "root_subset": {"kind": "pi", "members": [1]}}
    return {"N": N, "family": "elliptic", "lattice": LATTICE}


def regular_point(family, N, rng, scale=0.4):
    """Random point on J^-1(0), at least 0.2 from the singular set along
    every root whose kernel depends on q (rational full Delta': all roots;
    trigonometric pi' = {alpha_1}: the roots of its span)."""
    if family == "rational":
        mask = ~np.eye(N, dtype=bool)
    else:
        mask = checks.same_block_mask(N, checks.pi_blocks(N, [0]))
    while True:
        q = np.linspace(0.75, -0.75, N) * (0.8 + 0.4 * rng.uniform())
        q = q + 0.1 * rng.standard_normal(N) + 0j * rng.standard_normal(N)
        q = q - q.mean()
        A = checks.alpha_matrix(q)
        dist = np.abs(A) if family == "rational" else np.abs(A - math.pi * np.round(A.real / math.pi))
        if dist[mask].min() >= 0.2:
            break
    p = rng.standard_normal(N) + 0j * rng.standard_normal(N)
    p = p - p.mean()
    xi = scale * (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    np.fill_diagonal(xi, 0.0)
    return q, p, xi


def elliptic_point(N, rng, scale):
    """Random elliptic point: q spread inside the fundamental cell."""
    q = (np.linspace(0.45, -0.45, N) * (0.9 + 0.2 * rng.uniform())
         + 0.05 * rng.standard_normal(N) + 0.08j * rng.standard_normal(N))
    q = q - q.mean()
    p = 0.3 * rng.standard_normal(N)
    p = p - p.mean()
    xi = scale * (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    np.fill_diagonal(xi, 0.0)
    return q, p, xi


def symmetry_image(q, p, xi, rng, relabel):
    """(q, p, xi) relabelled by a random permutation (if `relabel`) and with
    xi conjugated by a random diagonal matrix of unit phases; both are
    symmetries of the Hamiltonian flow."""
    N = len(q)
    perm = rng.permutation(N) if relabel else np.arange(N)
    phases = np.exp(2j * np.pi * rng.uniform(size=N))
    xi = xi[np.ix_(perm, perm)]
    return q[perm], p[perm], phases[:, None] * xi / phases[None, :]


def seeded_point(family, N, seed, stream, scale=0.4):
    """Image under `seed` of the base point of (family, N) drawn from a fixed
    stream.  Relabelling is a symmetry of the rational family with the full
    Delta' and of the elliptic family; for the trigonometric family with
    pi' = {alpha_1} only the phases are drawn."""
    base = np.random.default_rng((2005, N, stream))
    if family == "elliptic":
        q, p, xi = elliptic_point(N, base, scale)
    else:
        q, p, xi = regular_point(family, N, base, scale)
    return symmetry_image(q, p, xi, _rng(seed, stream), relabel=family != "trigonometric")


def init_json(q, p, xi):
    cpx = lambda v: [[float(z.real), float(z.imag)] for z in np.ravel(v)]  # noqa: E731
    return {"q": cpx(q), "p": cpx(p), "xi": cpx(xi)}


# ---------------------------------------------------------------------------
# workload construction
# ---------------------------------------------------------------------------

class _Plan:
    def __init__(self, name, outdir):
        self.wl = Workload(name)
        self.outdir = Path(outdir)
        self.models = {}   # input label -> model JSON dict
        self.params = {}   # input label -> (t_end, samples)
        self._lattice_sum = None

    # -- inputs ----------------------------------------------------------------
    def preset(self, name):
        from spincm.presets import load_preset
        data = load_preset(name, seed=0)
        pt = data["init"]
        m = pt.s if hasattr(pt, "s") else pt.xi
        self.models[name] = data["model"].to_json_dict()
        self.params[name] = (data["defaults"]["t_end"], int(data["defaults"]["samples"]))
        return name, ["--preset", name], (np.asarray(pt.q), np.asarray(pt.p), np.asarray(m))

    def point(self, label, model, q, p, xi, t_end, samples, tol):
        mpath = self.outdir / f"{label}.model.json"
        ipath = self.outdir / f"{label}.init.json"
        mpath.write_text(json.dumps(model))
        ipath.write_text(json.dumps(init_json(q, p, xi)))
        self.models[label] = model
        self.params[label] = (t_end, samples)
        args = ["--model", str(mpath), "--init", str(ipath), "--t-end", repr(t_end),
                "--samples", str(samples), "--tol", repr(tol)]
        if model["family"] in checks.THRESHOLD:
            args += ["--threshold", repr(checks.THRESHOLD[model["family"]])]
        return label, args, (q, p, xi)

    def seeded(self, family, N, seed, stream):
        """The seeded rational or trigonometric point of (family, N) on
        t in [0, 1] (rational) or [0, 0.3] (trigonometric), 31 samples."""
        q, p, xi = seeded_point(family, N, seed, stream)
        t_end = 1.0 if family == "rational" else 0.3
        return self.point(f"seeded-{family[:4]}-n{N}", model_json(family, N), q, p, xi,
                          t_end, 31, 1e-12)

    def lattice_sum(self):
        if self._lattice_sum is None:
            self._lattice_sum = checks.LatticeSum(complex(*LATTICE["omega1"]),
                                                  complex(*LATTICE["omega2"]))
        return self._lattice_sum

    # -- operations ------------------------------------------------------------
    def op(self, command, inp, check, fault=None, warmup=False):
        label, args, _ = inp
        suffix = "csv" if command in ("simulate", "exact") else "json"
        name = f"{command}:{label}"
        out = self.outdir / f"{command}.{label}.{suffix}"
        if warmup:
            self.wl.warmup = len(self.wl.ops)
        self.wl.ops.append(Op(name, [command] + args + ["--out", str(out)], out, check, fault))
        return name

    def simulate(self, inp, extra=(), warmup=False):
        label = inp[0]
        samples = self.params[label][1]

        def check(code, outs):
            if code != 0:
                return checks.check_exit(code, 0)
            traj = checks.read_trajectory(outs[f"simulate:{label}"][1])
            problems = checks.check_simulate(code, traj, samples)
            for fn in extra:
                problems += fn(traj)
            return problems
        return self.op("simulate", inp, check, warmup=warmup)

    def exact(self, inp, extra=()):
        label = inp[0]
        model = self.models[label]
        samples = self.params[label][1]
        thr = checks.THRESHOLD[model["family"]]

        def check(code, outs):
            if code != 0:
                return checks.check_exit(code, 0)
            traj = checks.read_trajectory(outs[f"exact:{label}"][1])
            problems = checks.check_exact(code, traj, samples)
            problems += checks.check_energy(traj, model)
            if model["family"] == "rational":
                problems += checks.check_rational_eigenflow(traj, model)
            oracle = checks.read_trajectory(outs[f"simulate:{label}"][1])
            problems += checks.check_agree(traj, oracle, thr)
            for fn in extra:
                problems += fn(traj)
            return problems
        return self.op("exact", inp, check)

    def compare(self, inp, fault=None, warmup=False):
        label = inp[0]
        thr = checks.THRESHOLD[self.models[label]["family"]]

        def check(code, outs):
            path = outs[f"compare:{label}"][1]
            report = checks.read_json(path) if code in (0, 1) else None
            return checks.check_compare(code, report, thr)
        return self.op("compare", inp, check, fault=fault, warmup=warmup)

    def audit(self, inp, warmup=False):
        label = inp[0]

        def check(code, outs):
            if code != 0:
                return checks.check_exit(code, 0)
            return checks.check_audit(code, checks.read_json(outs[f"audit:{label}"][1]))
        return self.op("audit", inp, check, warmup=warmup)

    def curve(self, inp, warmup=False):
        label, _, (_, _, xi) = inp

        def check(code, outs):
            if code != 0:
                return checks.check_exit(code, 0)
            return checks.check_curve(code, checks.read_json(outs[f"curve:{label}"][1]), xi)
        return self.op("curve", inp, check, warmup=warmup)

    def elliptic_checks(self, label):
        """Own-Hamiltonian energy drift with the lattice-sum ℘, and the
        program's ℘ at the root values of the first and last state."""
        model = self.models[label]
        ls = self.lattice_sum()
        from spincm.special import EllipticLattice
        lat = EllipticLattice(complex(*LATTICE["omega1"]), complex(*LATTICE["omega2"]))

        def energy(traj):
            return checks.check_energy(traj, model, wp=ls.wp, stride=10)

        def wp_values(traj):
            off = ~np.eye(traj.N, dtype=bool)
            z = np.concatenate([checks.alpha_matrix(traj.q[k])[off] for k in (0, -1)])
            return checks.check_wp(ls, lat, z)
        return (energy, wp_values)


def _rng(seed, salt):
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, salt])


def build(name, seed, outdir):
    """Workload `name` with inputs drawn from `seed`; inputs go to `outdir`."""
    b = _Plan(name, outdir)
    if name == "exact-compare":
        for preset in ("rational-sl2", "rational-sl3", "rational-sl3-full", "trig-sl2",
                       "trig-sl3", "reduced-rational-sl2", "free-flight"):
            inp = b.preset(preset)
            extra = ()
            if preset == "free-flight":
                q0, p0, _ = inp[2]
                extra = (lambda traj, q0=q0, p0=p0: checks.check_free_flight(traj, q0, p0),)
            b.simulate(inp, extra=extra)
            b.exact(inp, extra=extra)
            b.compare(inp, warmup=(preset == "rational-sl2"))

        def collision_blowup(code, outs):
            if code != 4:
                return checks.check_exit(code, 4)
            return checks.check_blowup(
                code, checks.read_trajectory(outs["simulate:collision-sl2"][1]),
                checks.COLLISION_T, 1e-6)

        def collision_breakdown(code, outs):
            if code != 3:
                return checks.check_exit(code, 3)
            return checks.check_breakdown(
                code, checks.read_trajectory(outs["exact:collision-sl2"][1]),
                checks.COLLISION_T, 1e-9)

        def trig_breakdown(code, outs):
            if code != 3:
                return checks.check_exit(code, 3)
            # the exact collision time and the oracle's blow-up time agree
            oracle = checks.read_trajectory(outs["simulate:trig-sl2-breakdown"][1])
            return checks.check_breakdown(
                code, checks.read_trajectory(outs["exact:trig-sl2-breakdown"][1]),
                oracle.footer["blowup_at"], 1e-6)

        inp = b.preset("collision-sl2")
        b.op("simulate", inp, collision_blowup)
        b.op("exact", inp, collision_breakdown)
        inp = b.preset("trig-sl2-breakdown")
        b.op("simulate", inp, lambda code, outs: checks.check_exit(code, 4))
        b.op("exact", inp, trig_breakdown)
        for k, (family, N) in enumerate((("rational", 3), ("rational", 4),
                                         ("trigonometric", 3), ("trigonometric", 4))):
            inp = b.seeded(family, N, seed, k)
            b.simulate(inp)
            b.exact(inp)
            b.compare(inp, fault=SEEDED_FAULTS.get((family, N)))
    elif name == "large-n":
        for k, (family, N) in enumerate((("rational", 6), ("rational", 7),
                                         ("trigonometric", 6), ("trigonometric", 7))):
            inp = b.seeded(family, N, seed, 4 + k)
            b.audit(inp, warmup=(k == 0))
            b.compare(inp, fault=SEEDED_FAULTS.get((family, N)))
    elif name == "elliptic-oracle":
        inps = [b.preset(p) for p in ("nilpotent-xi-sl2", "elliptic-sl2", "elliptic-sl3")]
        q, p, xi = seeded_point("elliptic", 4, seed, 8, scale=0.3)
        inps.append(b.point("seeded-elli-n4", model_json("elliptic", 4), q, p, xi, 0.3, 31,
                            1e-12))
        for inp in inps:
            b.simulate(inp, extra=b.elliptic_checks(inp[0]), warmup=(inp[0] == "nilpotent-xi-sl2"))
            b.audit(inp)
    elif name == "spectral-curve":
        inps = [b.preset(p) for p in ("nilpotent-xi-sl2", "elliptic-sl2", "elliptic-sl3")]
        q, p, xi = seeded_point("elliptic", 4, seed, 9, scale=0.5)
        inps.append(b.point("seeded-elli-n4", model_json("elliptic", 4), q, p, xi, 1.0, 101,
                            1e-10))
        for inp in inps:
            b.curve(inp, warmup=(inp[0] == "nilpotent-xi-sl2"))
    else:
        raise ValueError(f"unknown workload {name!r}; one of {WORKLOADS}")
    return b.wl
