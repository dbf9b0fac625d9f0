"""Adaptive RK oracle: accuracy, order, blow-up semantics, auditing, CSV."""

import itertools

import numpy as np
import pytest

from sampling import random_point, random_reduced
from spincm.errors import DomainError, ValidationError
from spincm.liecore import build_sl_context, delta_subset, pi_subset
from spincm.models import (PhasePoint, check_regular, elliptic_model,
                           hamiltonian, lax_batch, lax_pair, packed_field,
                           rational_model, trig_model)
from spincm.rk import (Trajectory, audit, conserved, default_z_samples, dop853,
                       integrate, trajectory_csv_lines)
from spincm.special import EllipticLattice

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = E12.T


def full_delta(n):
    return delta_subset([(i, j) for i in range(n) for j in range(n) if i != j])


@pytest.fixture(scope="module")
def spec2():
    return rational_model(build_sl_context(2), full_delta(2))


def test_free_flight_exact(spec2):
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=np.zeros((2, 2)))
    tr = integrate(spec2, pt, 1.0, samples=11, tol=1e-10)
    assert np.allclose(tr.q[-1], [3, -3], atol=1e-12)
    assert len(tr.times) == 11
    assert tr.provenance == "oracle"
    rep = audit(spec2, tr)
    assert rep.energy_drift < 1e-12
    assert rep.momentum_drift < 1e-12
    assert rep.eig_drift < 1e-12


def test_tol_and_argument_validation(spec2):
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=np.zeros((2, 2)))
    for bad in (1e-14, 1e-2):
        with pytest.raises(ValidationError):
            integrate(spec2, pt, 1.0, tol=bad)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            integrate(spec2, pt, bad)
    with pytest.raises(ValidationError):
        integrate(spec2, pt, 1.0, samples=1)


def test_energy_drift_rational_sl2(spec2):
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=E12 + E21)
    tr = integrate(spec2, pt, 1.0, samples=101, tol=1e-10)
    rep = audit(spec2, tr)
    assert rep.energy_drift <= 1e-9


def test_blowup_flag_before_nan(spec2):
    pt = PhasePoint(q=[1, -1], p=[-1, 1], xi=E12 + E21)  # collision at t*=2/3
    tr = integrate(spec2, pt, 1.0, samples=101, tol=1e-10)
    assert tr.blowup
    assert tr.last_good_time is not None
    assert abs(tr.last_good_time - 2.0 / 3.0) < 1e-3
    assert tr.times[-1] <= tr.last_good_time + 1e-12
    assert np.all(np.isfinite(tr.y))


def test_eighth_order_convergence(spec2):
    """Step halving changes the global error by a factor consistent with an
    8th-order method (free flight is integrated exactly, so a nonlinear
    trajectory is used).  Each interval of a grid of spacing H <= 0.1 is
    its own run, clamped onto its end: at a loose tol its steps are H/100,
    H/20, H/4 and the rest of H, all accepted, so halving H halves every
    step.  The reference is the same grid at H/8."""
    pt = PhasePoint(q=[0.4, -0.4], p=[1, -1], xi=E12 + E21)
    field = packed_field(spec2)
    y0 = np.concatenate([pt.q, pt.p, pt.xi.ravel()])

    def run(H):
        y, out = y0, np.empty((2, y0.size), dtype=complex)
        for a, b in itertools.pairwise(np.linspace(0.0, 1.0, round(1.0 / H) + 1)):
            _, stats, n = dop853(field, y, [a, b], 1.0, out)
            assert n == 2 and stats == {"nsteps": 4, "nrejected": 0, "nfev": 49}
            y = out[1].copy()
        return y
    ref = run(0.05 / 8)
    ratio = np.abs(run(0.05) - ref).max() / np.abs(run(0.025) - ref).max()
    assert 128.0 <= ratio <= 512.0


# (nfev, nsteps, nrejected) of `integrate` on each preset at its defaults,
# on the DOP853 core `rk.dop853`
ORACLE_COUNTS = {
    "collision-sl2": (2270, 169, 7), "elliptic-sl2": (1713, 104, 13),
    "elliptic-sl3": (793, 45, 6), "free-flight": (184, 6, 0),
    "nilpotent-xi-sl2": (119, 5, 0), "rational-sl2": (259, 11, 0),
    "rational-sl3": (319, 15, 0), "rational-sl3-full": (349, 17, 0),
    "reduced-rational-sl2": (259, 11, 0), "trig-sl2": (292, 13, 0),
    "trig-sl2-breakdown": (1962, 153, 4), "trig-sl3": (290, 13, 2),
}


@pytest.mark.parametrize("name", sorted(ORACLE_COUNTS))
def test_oracle_counts_pinned(name):
    from spincm.presets import load_preset, preset_names
    assert sorted(ORACLE_COUNTS) == preset_names()
    data = load_preset(name)
    d = data["defaults"]
    tr = integrate(data["model"], data["init"], d["t_end"], samples=int(d["samples"]),
                   tol=d.get("tol", 1e-10))
    s = tr.stats
    assert (s["nfev"], s["nsteps"], s["nrejected"]) == ORACLE_COUNTS[name]


@pytest.mark.parametrize("name, last_good", [
    ("collision-sl2", 0.6666666666691463), ("trig-sl2-breakdown", 0.31312015211968797)])
def test_oracle_runs_into_a_singularity_without_alternating(name, last_good):
    """On the runs into the singular set the steps shrink geometrically
    towards the collision; the predictive step-size factor follows that
    shrink, so at most 10% of the steps are rejected (an error-norm-only
    factor rejects about one step per accepted step: 166 of 172 and 152 of
    156), and the blow-up time stays within 1e-9 of that factor's
    (`last_good`)."""
    from spincm.presets import load_preset
    data = load_preset(name)
    d = data["defaults"]
    tr = integrate(data["model"], data["init"], d["t_end"], samples=int(d["samples"]),
                   tol=d.get("tol", 1e-10))
    assert tr.blowup and abs(tr.last_good_time - last_good) <= 1e-9
    assert tr.stats["nrejected"] <= 0.1 * tr.stats["nsteps"]


def test_dp5_f_may_reuse_its_buffer():
    """dop853 copies every stage value: an f that returns one buffer per
    shape that it overwrites gives the same samples and counts, bit for bit,
    as an f that returns fresh arrays.  f takes a state (n,) at a time t, or
    a stack (m, n) of the samples inside a step at their times (m,), and the
    run makes stacked calls."""
    A = np.random.default_rng(5).standard_normal((6, 6))
    stacked = []

    def fresh(t, y):
        stacked.append(y.ndim == 2)
        return np.sin(y) @ A.T - np.asarray(t)[..., None] * y

    bufs = {}

    def reused(t, y):
        buf = bufs.setdefault(y.shape, np.empty(y.shape, dtype=complex))
        buf[:] = fresh(t, y)
        return buf

    runs = []
    for f in (fresh, reused):
        out = np.empty((21, 6), dtype=complex)
        _, stats, n = dop853(f, np.linspace(-1.0, 1.0, 6), np.linspace(0, 2, 21),
                          1e-9, out)
        assert n == 21 and stats["nfev"] > 6 * 21
        runs.append((out.tobytes(), stats))
    assert runs[0] == runs[1] and any(stacked)


@pytest.mark.parametrize("case", ["guard", "domain", "nan", "overflow"])
def test_dp5_ends_early_only_on_a_failed_step(case):
    """dop853 on f = -y over 11 nodes of [0, 1]: a guard that fails on the
    state past t = 0.55, y < exp(-0.55), an f that raises DomainError on a
    state or a stack with a time past 0.55, or one that returns NaN at those
    times ends the run with 6 samples, in rows 0..5 of `out`; the rows after
    them stay untouched.  The guard's second argument n is the number of
    samples delivered: rows 0..n-1 of `out` already hold their final
    samples, at times before the guarded state's, and n grows to the 6
    samples of the run.  A constant f = 1e308 from y0 = 0 over 11 nodes of
    [0, 10] at tol 1e-3 overflows the state on its way to t = 2 while the
    error estimate stays finite: 2 samples."""
    def f(t, y):
        late = np.asarray(t)[..., None] > 0.55
        if case == "overflow":
            return np.full(y.shape, 1e308, dtype=complex)
        if case == "domain" and late.any():
            raise DomainError("past 0.55")
        if case == "nan":
            return np.where(late, np.nan, -y)
        return -y

    delivered = []

    def guard(y, n):
        delivered.append((n, out[:n].copy(), -np.log(y[0].real)))
        return y[0].real >= np.exp(-0.55)

    if case == "overflow":
        times, y0, tol, kept = np.linspace(0.0, 10.0, 11), np.zeros(2), 1e-3, 2
        expected = 1e308 * times[:kept, None]
    else:
        times, y0, tol, kept = np.linspace(0.0, 1.0, 11), np.ones(2), 1e-9, 6
        expected = np.exp(-times[:kept, None])
    out = np.full((11, 2), np.nan, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, n = dop853(f, y0, times, tol, out, guard if case == "guard" else None)
    assert n == kept
    if case == "guard":
        ns = [n for n, _, _ in delivered]
        assert ns == sorted(ns) and ns[-1] == kept
        for n, rows, t in delivered:
            assert np.array_equal(rows, out[:n]) and times[n - 1] < t
    assert np.allclose(out[:kept], expected, rtol=1e-8, atol=0)
    assert np.isnan(out[kept:]).all()


def _logged_decay(log, bad_time=None):
    """f = -y that logs each call as (times, rows): a time and 1 for a state,
    the times (m,) and m for a stack.  At `bad_time` a stacked row gets a
    wrong slope, so that the defect there fails."""
    def f(t, y):
        log.append((np.atleast_1d(t).tolist(), 1 if y.ndim == 1 else len(y)))
        dy = -y
        if bad_time is not None and y.ndim == 2:
            dy = np.where(np.asarray(t)[:, None] == bad_time, 1.0 + 0j, dy)
        return dy
    return f


def test_dp5_samples_inside_a_step_take_one_stacked_call():
    """f = -y over 21 nodes of [0, 1] at tol 1e-6: the steps outgrow the
    grid, and all m >= 2 samples inside a step go to f in one call of m
    rows, at their consecutive grid times, with one such call per step (12
    stage calls and the 3 of the continuous extension in between); nfev
    counts every row, and each sample equals exp(-t)."""
    times = np.linspace(0.0, 1.0, 21)
    log = []
    out = np.empty((21, 1), dtype=complex)
    _, stats, n = dop853(_logged_decay(log), np.ones(1), times, 1e-6, out)
    assert n == 21 and stats["nrejected"] == 0
    assert stats["nfev"] == sum(rows for _, rows in log)
    stacks = [i for i, (_, rows) in enumerate(log) if rows > 1]
    assert stacks
    for i in stacks:
        ts, rows = log[i]
        j = int(np.flatnonzero(times == ts[0])[0])
        assert rows >= 2 and ts == times[j:j + rows].tolist()
    assert all(b - a >= 15 for a, b in zip(stacks, stacks[1:]))
    assert np.allclose(out[:, 0], np.exp(-times), rtol=1e-6, atol=0)


def test_dp5_failed_samples_leave_their_rows_untouched():
    """A step whose stacked samples fail their defect (a wrong slope at
    t = 0.6, not the first of its stack) writes none of their rows; a guard
    that then fails every later state ends the run at the samples delivered
    before that step, and every row after them stays untouched."""
    times = np.linspace(0.0, 1.0, 11)
    bad = times[6]
    log = []
    out = np.full((11, 1), np.nan, dtype=complex)

    def guard(y, n):
        return not any(rows > 1 and bad in ts for ts, rows in log)

    _, _, n = dop853(_logged_decay(log, bad), np.ones(1), times, 1e-6, out, guard)
    assert any(rows > 1 and ts.index(bad) > 0 for ts, rows in log if bad in ts)
    assert 0 < n < 6 and np.isnan(out[n:]).all()
    assert np.allclose(out[:n, 0], np.exp(-times[:n]), rtol=1e-6, atol=0)


def test_dp5_failed_defect_retries_onto_its_sample():
    """A defect that fails at a sample inside a stacked call, not its first
    (t = 0.6 on 11 nodes of [0, 1]), rejects the step and retries it onto
    that sample: the next step that passes its error test ends at t = 0.6,
    and the run goes on to deliver every sample."""
    times = np.linspace(0.0, 1.0, 11)
    bad = times[6]
    log, ends = [], []
    out = np.empty((11, 1), dtype=complex)

    def guard(y, n):
        ends.append((len(log), -np.log(y[0].real)))
        return True

    _, stats, n = dop853(_logged_decay(log, bad), np.ones(1), times, 1e-6, out, guard)
    failing = [i for i, (ts, rows) in enumerate(log) if rows > 1 and bad in ts]
    assert n == 11 and stats["nrejected"] == 1 and len(failing) == 1
    assert log[failing[0]][0].index(bad) > 0
    retry = next(t for i, t in ends if i > failing[0])
    assert abs(retry - bad) < 1e-6
    assert np.allclose(out[:, 0], np.exp(-times), rtol=1e-6, atol=0)
def test_short_horizon_delivers_each_sample_at_its_time():
    """rational-sl2 to t = 1e-10 over 101 samples, 1e-12 apart: each row
    holds the state at its own time.  No two consecutive rows are equal, and
    q stays on the free flight q0 + p0 t (the force moves it by
    1/2 |p_dot| t^2 < 1e-20) up to the rounding of 100 steps on |q| ~ 1,
    under one ulp of |q| per step."""
    from spincm.presets import load_preset
    data = load_preset("rational-sl2")
    pt = data["init"]
    tr = integrate(data["model"], pt, 1e-10, samples=101)
    assert not tr.blowup and len(tr.times) == 101
    assert not any(np.array_equal(a, b) for a, b in zip(tr.y[:-1], tr.y[1:]))
    free = pt.q + tr.times[:, None] * pt.p
    assert np.abs(tr.q - free).max() <= 100 * np.spacing(np.abs(pt.q).max())


def test_audit_pure(spec2):
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=E12 + E21)
    tr = integrate(spec2, pt, 0.5, samples=21, tol=1e-10)
    r1 = audit(spec2, tr)
    r2 = audit(spec2, tr)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert r1.energy_drift == r2.energy_drift


def test_audit_pole_z_sample(spec2):
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=E12 + E21)
    tr = integrate(spec2, pt, 0.1, samples=5, tol=1e-10)
    from spincm.errors import PoleError
    with pytest.raises(PoleError):
        audit(spec2, tr, z_samples=[0.0])


@pytest.mark.parametrize("name", sorted(ORACLE_COUNTS))
def test_stacked_audit_matches_rows(name):
    """conserved and audit work on the whole stacked trajectory at once; the
    per-row reference is hamiltonian, np.linalg.norm and the Lax builders at
    each row.  Rational sums in the same order (equal bits); the other
    families' theta or sine products over a longer stack may round
    differently in the last digits."""
    from spincm.presets import load_preset
    data = load_preset(name)
    spec, d = data["model"], data["defaults"]
    tr = integrate(spec, data["init"], d["t_end"], samples=int(d["samples"]),
                   tol=d.get("tol", 1e-10))
    rows = [tr.point(k) for k in range(len(tr.times))]
    energy, mom = conserved(spec, tr)
    ref = np.array([hamiltonian(spec, pt) for pt in rows])
    if spec.family == "rational":
        assert np.array_equal(energy, ref)
    else:
        assert np.abs(energy - ref).max() <= 1e-13
    # the same two dot products per row
    assert np.array_equal(mom, [np.linalg.norm(np.diag(pt.xi)) for pt in rows])
    zs = default_z_samples(spec)
    eigs = audit(spec, tr, zs).eigenvalues
    if spec.family == "elliptic":
        ref = np.linalg.eigvals([lax_pair(spec, pt, zs)[0] for pt in rows])
        assert np.abs(eigs - ref).max() <= 1e-13
    else:
        ref = np.linalg.eigvals([lax_batch(spec, pt, zs) for pt in rows])
        assert np.array_equal(eigs, ref)


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_stacked_checks_name_first_singular_row(family):
    """A trajectory whose rows 2 and 3 are singular (on different roots):
    conserved and audit raise the DomainError of the first one, as the
    per-row loop did."""
    ctx = build_sl_context(3)
    spec = {"rational": lambda: rational_model(ctx, full_delta(3)),
            "trigonometric": lambda: trig_model(ctx, pi_subset([0, 1])),
            "elliptic": lambda: elliptic_model(
                ctx, EllipticLattice(1.0, 0.35 + 0.8j))}[family]()
    qs = np.array([[0.9, -0.2, -0.7], [1.0, -0.3, -0.7],
                   [1.0, -0.5 + 1e-8, -0.5 - 1e-8],
                   [0.3 + 1e-8, 0.3 - 1e-8, -0.6]], dtype=complex)
    xi = np.ones((3, 3)) - np.eye(3)
    y = np.column_stack([qs, np.tile([0.2, 0.1, -0.3], (4, 1)),
                         np.tile(xi.ravel(), (4, 1))]).astype(complex)
    tr = Trajectory(times=np.arange(4.0), y=y, reduced=False, provenance="test")
    with pytest.raises(DomainError) as want:
        check_regular(spec, tr.q[2])
    with pytest.raises(DomainError) as later:
        check_regular(spec, tr.q[3])
    assert str(later.value) != str(want.value)
    for fn in (conserved, audit):
        with pytest.raises(DomainError) as got:
            fn(spec, tr)
        assert str(got.value) == str(want.value), fn.__name__


def test_eigenvalue_matching():
    """eig_drift is the drift of the eigenvalues of L(z; t) matched one to
    one to those of L(z; 0), the matching found by enumerating all
    permutations."""
    from spincm.presets import load_preset
    for name in ("rational-sl3", "trig-sl3", "elliptic-sl3"):
        data = load_preset(name)
        spec, d = data["model"], data["defaults"]
        tr = integrate(spec, data["init"], d["t_end"], samples=int(d["samples"]),
                       tol=d.get("tol", 1e-10))
        rep = audit(spec, tr)
        eigs = rep.eigenvalues
        perms = [list(p) for p in itertools.permutations(range(spec.ctx.N))]
        matched = 0.0
        for it in range(len(eigs)):
            for k in range(len(rep.z_samples)):
                cost = np.abs(eigs[it, k][perms] - eigs[0, k])
                matched = max(matched, cost[np.argmin(cost.sum(axis=1))].max())
        assert rep.eig_drift == matched, name


def test_conservation_sl3_rational():
    spec = rational_model(build_sl_context(3), full_delta(3))
    pt = random_point(spec, np.random.default_rng(21), scale=0.5)
    tr = integrate(spec, pt, 2.0, samples=41, tol=1e-10)
    rep = audit(spec, tr, default_z_samples(spec))
    assert rep.energy_drift <= 1e-8
    assert rep.momentum_drift <= 1e-9
    assert rep.eig_drift <= 1e-7


def test_reduced_trajectory_and_audit():
    spec = trig_model(build_sl_context(3), pi_subset([0]))
    rpt = random_reduced(spec, np.random.default_rng(5), scale=0.3)
    tr = integrate(spec, rpt, 0.3, samples=16, tol=1e-10)
    assert tr.reduced
    rep = audit(spec, tr)
    assert rep.energy_drift < 1e-9
    assert np.abs(tr.xi[:, 0, 1] - 1.0).max() < 1e-8


def test_csv_lines(spec2):
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=E12 + E21)
    tr = integrate(spec2, pt, 0.2, samples=5, tol=1e-10)
    lines = trajectory_csv_lines(tr, {"seed": 0})
    assert lines[0].startswith("#")
    header = [l for l in lines if not l.startswith("#")][0]
    cols = header.split(",")
    assert cols[0] == "t"
    assert "Re_q_1" in cols and "Im_xi_2_2" in cols
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 5
    assert all(len(row.split(",")) == len(cols) for row in data)
    floats = [float(x) for x in data[-1].split(",")]
    assert abs(floats[0] - 0.2) < 1e-12


def test_csv_round_trip(spec2):
    """Every CSV cell parses back with float() to exactly the trajectory's
    times and packed states, for a full and a reduced trajectory."""
    spec3 = trig_model(build_sl_context(3), pi_subset([0]))
    rpt = random_reduced(spec3, np.random.default_rng(5), scale=0.3)
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=E12 + E21)
    for tr in (integrate(spec2, pt, 0.2, samples=5, tol=1e-10),
               integrate(spec3, rpt, 0.3, samples=7, tol=1e-10)):
        rows = [l for l in trajectory_csv_lines(tr) if not l.startswith("#")][1:]
        cells = np.array([[float(x) for x in row.split(",")] for row in rows])
        assert np.array_equal(cells[:, 0], tr.times)
        assert np.array_equal(cells[:, 1:], tr.y.view(float))
    assert tr.reduced and "Re_s_1_2" in trajectory_csv_lines(tr)[0]


def test_default_z_samples_inside_annulus():
    lat = EllipticLattice(1.0, 0.35 + 0.8j)
    for spec in (rational_model(build_sl_context(2), full_delta(2)),
                 trig_model(build_sl_context(2), pi_subset([0])),
                 elliptic_model(build_sl_context(2), lat)):
        zs = default_z_samples(spec)
        assert len(zs) == 3
        from spincm.models import contour_radius
        if spec.family != "rational":
            assert all(abs(z) < 2 * contour_radius(spec) for z in zs)
