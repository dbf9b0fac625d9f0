"""The exact solvers against the oracle at every N they accept: a seeded sweep
over N = 2..8 and five root-subset shapes, at the bounds of the fault-point
tests, or a breakdown where the oracle blows up."""

import math

import numpy as np
import pytest

from sampling import random_point
from spincm import exact
from spincm.errors import BreakdownError
from spincm.liecore import build_sl_context, delta_subset, pi_subset
from spincm.models import (PhasePoint, elliptic_model, rational_model,
                           trig_model)
from spincm.presets import load_preset
from spincm.rk import dop853, integrate
from spincm.solver_rational import solve_rational
from spincm.solver_trig import solve_trig
from spincm.special import EllipticLattice


def _pairs(blocks):
    return [(i, j) for blk in blocks for i in blk for j in blk if i != j]


def _shape(name, N):
    """(spec, solve) of one sweep shape at rank N - 1."""
    ctx = build_sl_context(N)
    if name == "rational-full":
        return rational_model(ctx, delta_subset(_pairs([range(N)]))), solve_rational
    if name == "rational-2blocks":
        half = (N + 1) // 2
        blocks = [range(half), range(half, N)]
        return rational_model(ctx, delta_subset(_pairs(blocks))), solve_rational
    members = {"trig-all": range(N - 1), "trig-a1": [0], "trig-none": []}[name]
    return trig_model(ctx, pi_subset(members)), solve_trig


SHAPES = ("rational-full", "rational-2blocks", "trig-all", "trig-a1", "trig-none")


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("N", range(2, 9))
@pytest.mark.parametrize("shape", SHAPES)
def test_exact_agrees_with_oracle(shape, N, seed):
    """random_point at spread max(1.5, (N - 1)/2) on [0, 0.3], 31 samples,
    tol 1e-12: xi within 1e-6 and q, p within 1e-9 of the oracle, or a
    BreakdownError within 1e-6 of the oracle's blowup time."""
    spec, solve = _shape(shape, N)
    pt = random_point(spec, np.random.default_rng(seed), scale=0.4,
                      spread=max(1.5, 0.5 * (N - 1)))
    times = np.linspace(0, 0.3, 31)
    tro = integrate(spec, pt, 0.3, samples=31, tol=1e-12)
    try:
        tre, _ = solve(spec, pt, times, 1e-12)
    except BreakdownError as exc:
        assert tro.blowup and abs(exc.time - tro.last_good_time) <= 1e-6
        return
    assert not tro.blowup
    for attr, bound in (("xi", 1e-6), ("q", 1e-9), ("p", 1e-9)):
        assert np.abs(getattr(tre, attr) - getattr(tro, attr)).max() <= bound, attr


# -- the trigonometric -> rational scaling limit, no oracle in the loop ----------

def _scaling_gaps(rat, trig, seed):
    """(gap(0.01), gap(0.03)), gap(eps) the sup gap of q, p and xi between the
    rational flow from a random_point of `rat` at tau in [0, 1] and the
    trigonometric flow from (eps q, p, eps xi) read at t = eps tau as
    (q/eps, p, xi/eps), both solved at tol 1e-13."""
    N = rat.ctx.N
    pt = random_point(rat, np.random.default_rng(seed), scale=0.4,
                      spread=max(1.5, 0.5 * (N - 1)))
    tau = np.linspace(0, 1, 21)
    ref, _ = solve_rational(rat, pt, tau, 1e-13)

    def gap(eps):
        tr, _ = solve_trig(trig, PhasePoint(q=eps * pt.q, p=pt.p, xi=eps * pt.xi),
                           eps * tau, 1e-13)
        return max(np.abs(tr.q / eps - ref.q).max(), np.abs(tr.p - ref.p).max(),
                   np.abs(tr.xi / eps - ref.xi).max())
    return gap(0.01), gap(0.03)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("N", [2, 3, 4, 6])
def test_trig_solver_scales_to_the_rational_one(N, seed):
    """With pi' = Pi every root has the kernel csc^2 a - 1/3 = 1/a^2 + a^2/15
    + O(a^4), so the trigonometric flow from (eps q, p, eps xi), read at
    t = eps tau as (q/eps, p, xi/eps), is the rational flow with
    Delta' = Delta from (q, p, xi) at tau up to O(eps^4).  The two exact
    solvers share only the transport, so this checks each one's xi, torus
    angle included, against the other.  The sup gap of the three at
    eps = 0.01 stays under 5e-8 (measured 1.6e-10 to 2.1e-8), and from
    eps = 0.03 it falls by 3^4 = 81 within a factor 2 (measured 80.9 to
    81.1)."""
    fine, coarse = _scaling_gaps(_shape("rational-full", N)[0],
                                 _shape("trig-all", N)[0], seed)
    assert fine <= 5e-8
    assert 40.5 <= coarse / fine <= 162


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("N, members", [(3, [0]), (4, [0]), (4, [1]), (4, [0, 2]),
                                        (5, [0, 1])])
def test_trig_solver_scales_to_the_rational_one_on_a_proper_pi(N, members, seed):
    """With pi' a proper subset of Pi the roots inside <pi'> keep the kernel
    csc^2 a - 1/3 = 1/a^2 + O(a^2), but the -1/3 on the roots outside is not
    cancelled: in the scaling of the test above it adds O(eps^2) to H.  So
    the trigonometric flow from (eps q, p, eps xi), read at t = eps tau as
    (q/eps, p, xi/eps), is the rational flow with Delta' = <pi'> (the roots
    inside the blocks of the partition of pi') from (q, p, xi) at tau up to
    O(eps^2) only.  The sup gap at eps = 0.01 stays under 1e-4 (measured
    8.2e-6 to 5.8e-5), and from eps = 0.03 it falls by 3^2 = 9 within a
    factor 2 (measured 8.999 to 9.006)."""
    trig = trig_model(build_sl_context(N), pi_subset(members))
    rat = rational_model(build_sl_context(N),
                         delta_subset(_pairs(trig.subset.partition)))
    fine, coarse = _scaling_gaps(rat, trig, seed)
    assert fine <= 1e-4
    assert 4.5 <= coarse / fine <= 18


# -- breakdown at N = 4: real symmetric positive xi, converging p -------------

def _collision_course(N, xi_scale, q_step, p_step):
    """q = q_step * (N - 1, N - 3, ..., 1 - N) and p = -p_step times the same
    ladder (the particles converge), xi real symmetric with entries in
    [0.5, 1] * xi_scale off the diagonal, as collision-sl2 is at N = 2."""
    S = np.random.default_rng(0).uniform(0.5, 1.0, (N, N))
    S = xi_scale * (S + S.T) / 2
    np.fill_diagonal(S, 0.0)
    ladder = np.linspace(N - 1, 1 - N, N)
    return PhasePoint(q=q_step * ladder, p=-p_step * ladder, xi=S.astype(complex))


@pytest.mark.parametrize("family, t_end, samples", [
    # the last row before the collision at t = 0.4421 is t = 0.425; on a
    # grid with a row at t = 0.44, 0.002 before it, the oracle at tol 1e-12
    # and 1e-13 agree to 1.5e-10 in p (test_oracle_tol_gap_near_collision)
    pytest.param("rational", 1.0, 41, id="rational-n4"),
    pytest.param("trigonometric", 1.5, 151, id="trig-n4")])
def test_breakdown_n4_matches_oracle(family, t_end, samples):
    """An N = 4 point on a collision course (full Delta', pi' = Pi) breaks
    down within 1e-6 of the oracle's blowup time, with the partial rows
    within the bounds of the agreement sweep."""
    N = 4
    if family == "rational":
        spec, solve = _shape("rational-full", N)
        pt = _collision_course(N, 1.0, 0.5, 0.5)
    else:
        spec, solve = _shape("trig-all", N)
        pt = _collision_course(N, 0.2, np.pi / 16, 0.25)
    times = np.linspace(0, t_end, samples)
    tro = integrate(spec, pt, t_end, samples=samples, tol=1e-12)
    with pytest.raises(BreakdownError) as exc:
        solve(spec, pt, times, 1e-12)
    e = exc.value
    assert tro.blowup and abs(e.time - tro.last_good_time) <= 1e-6
    part = e.partial
    rows = len(part.times)
    assert rows > 1 and part.times[-1] < e.time
    for attr, bound in (("xi", 1e-6), ("q", 1e-9), ("p", 1e-9)):
        assert np.abs(getattr(part, attr) - getattr(tro, attr)[:rows]).max() <= bound, attr


def test_oracle_tol_gap_near_collision():
    """The N = 4 rational collision-course point on 101 samples of [0, 1]:
    the oracle at tol 1e-12 and at tol 1e-13 agree in p within 1e-9 on every
    row that both deliver, t = 0.44 included, 0.002 before the collision at
    0.44208: the oracle's own error there stays under the agreement sweep's
    p bound (1.5e-10)."""
    spec, _ = _shape("rational-full", 4)
    pt = _collision_course(4, 1.0, 0.5, 0.5)
    a, b = (integrate(spec, pt, 1.0, samples=101, tol=tol) for tol in (1e-12, 1e-13))
    n = min(len(a.times), len(b.times))
    assert a.blowup and b.blowup and a.times[n - 1] == 0.44
    assert np.abs(a.p[:n] - b.p[:n]).max() <= 1e-9


@pytest.mark.parametrize("preset, solve, pinned", [
    ("trig-sl2-breakdown", solve_trig,
     (466, 5, 0.10060477321862651, 0.31312015211944494)),
    ("collision-sl2", solve_rational,
     (613, 9, 0.11532562594670874, 0.6666666666666666))])
def test_breakdown_diagnostics_pinned(preset, solve, pinned):
    """The breakdown presets' transport work, smallest eigen gap and
    collision time, to the last digit: the collision scan stops the
    transport before it steps into the collision."""
    data = load_preset(preset)
    d = data["defaults"]
    with pytest.raises(BreakdownError) as exc:
        solve(data["model"], data["init"], np.linspace(0, d["t_end"], d["samples"]),
              d["tol"])
    diags = exc.value.factors.diagnostics
    assert (diags["nfev"], diags["nrejected"], diags["min_gap"],
            exc.value.time) == pinned


# -- the elliptic oracle through the trigonometric degeneration ---------------

@pytest.mark.parametrize("name, solve", [
    ("rational-sl3-full", solve_rational), ("rational-sl3", solve_rational),
    ("trig-sl2", solve_trig), ("trig-sl3", solve_trig)])
def test_stacked_transport_field_is_the_field_of_each_row(name, solve, monkeypatch):
    """The transport's f on a stack of its own trajectory rows (M, n) at their
    times (M,) gives row by row its value on each row alone, within 1e-13
    of the largest entry: stacks of 2 and of all the rows."""
    runs = []

    def spy(f, y0, times, tol, out, guard):
        result = dop853(f, y0, times, tol, out, guard)
        runs.append((f, times, out[:result[2]].copy()))
        return result

    data = load_preset(name)
    d = data["defaults"]
    monkeypatch.setattr(exact, "dop853", spy)
    solve(data["model"], data["init"], np.linspace(0, d["t_end"], d["samples"]),
          d["tol"])
    monkeypatch.undo()
    (f, times, rows), = runs
    for sl in (slice(1, 3), slice(None)):
        ts, Y = times[sl], rows[sl]
        stack = f(ts, Y).copy()
        single = np.array([f(t, y).copy() for t, y in zip(ts, Y)])
        assert np.abs(stack - single).max() <= 1e-13 * np.abs(single).max()


@pytest.mark.parametrize("N", [2, 3, 4])
def test_elliptic_oracle_tends_to_exact_trig(N):
    """With omega1 = pi/2 and omega2 = iT, wp(w) = csc^2 w - 1/3 + O(|nome|^2)
    with |nome| = e^-2T, and on J^-1(0) the trigonometric c0 term has zero
    gradient: the elliptic oracle tends to the exact trigonometric flow with
    pi' = Pi.  On [0, 0.5], 26 samples, both at tol 1e-12, the sup gap over
    q, p and xi is <= 1e-10 at T = 8, and gap(4i) / gap(6i) lies within a
    factor 3 of the |nome|^2 ratio e^8."""
    ctx = build_sl_context(N)
    trig = trig_model(ctx, pi_subset(range(N - 1)))
    times = np.linspace(0, 0.5, 26)
    for seed in (0, 1):
        pt = random_point(trig, np.random.default_rng(seed), spread=0.3 * (N - 1) + 0.6)
        tre, _ = solve_trig(trig, pt, times, 1e-12)
        gap = {}
        for T in (4, 6, 8):
            spec = elliptic_model(ctx, EllipticLattice(math.pi / 2, T * 1j))
            tro = integrate(spec, pt, 0.5, samples=26, tol=1e-12)
            assert not tro.blowup
            gap[T] = max(np.abs(getattr(tre, a) - getattr(tro, a)).max()
                         for a in ("q", "p", "xi"))
        assert gap[8] <= 1e-10, (seed, gap)
        assert math.exp(8) / 3 <= gap[4] / gap[6] <= 3 * math.exp(8), (seed, gap)
