"""Exact rational factorization solver against the RK oracle and its own
structural identities."""

import numpy as np
import pytest

from sampling import random_point, random_reduced
from spincm.continuation import CartanWalk, PivotPath
from spincm.errors import BreakdownError, ContractError, ValidationError
from spincm.liecore import build_sl_context, delta_subset
from spincm.models import (PhasePoint, ReducedPoint, lax, lax_limit,
                           r_action_on_M, reduce_point)
from spincm.rk import integrate
from spincm.solver_rational import solve_rational, solve_rational_reduced

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = E12.T


def full_delta(n):
    return delta_subset([(i, j) for i in range(n) for j in range(n) if i != j])


@pytest.fixture(scope="module")
def spec2():
    return rational2()


def rational2():
    from spincm.models import rational_model
    return rational_model(build_sl_context(2), full_delta(2))


def sup_gap(ta, tb, attr):
    return max(np.abs(getattr(a, attr) - getattr(b, attr)).max()
               for a, b in zip(ta.states, tb.states))


# -- blockwise diagonalization along a path (the walk under both solvers) -------

def test_diagonalize_diagonal_matrix():
    M = np.diag([3.0, 1.0, -4.0]).astype(complex)
    path = PivotPath(((0, 1, 2),), M)
    path.advance(M)
    assert np.allclose(path.g, np.eye(3))
    assert np.allclose(path.d, [3, 1, -4])


def test_diagonalize_sl2_example():
    M0 = np.diag([3.0, -3.0]).astype(complex)
    K = np.array([[0.0, 0.5], [-0.5, 0.0]], dtype=complex)
    walk = CartanWalk(lambda t: (M0 + t * K, K), ((0, 1),))
    walk.advance_interval(1.0)
    g, d, _, _ = walk.factors()
    lam = np.sqrt(9 - 0.25)
    assert abs(abs(d[0]) - lam) < 1e-12 and abs(d[0] + d[1]) < 1e-12
    assert np.abs(g @ np.diag(d) @ np.linalg.inv(g) - (M0 + K)).max() < 1e-12
    assert abs(np.linalg.det(g) - 1.0) < 1e-12


def test_diagonalize_blockwise():
    M = np.zeros((3, 3), dtype=complex)
    M[:2, :2] = [[1.0, 0.5], [0.5, -1.0]]
    path = PivotPath(((0, 1), (2,)), np.diag(np.diag(M)))
    path.advance(M)
    g, d = path.g, path.d
    assert abs(d[2] - M[2, 2]) < 1e-14
    assert abs(g[2, 2]) > 0 and np.abs(g[2, :2]).max() < 1e-14
    assert np.abs(g @ np.diag(d) @ np.linalg.inv(g) - M).max() < 1e-12


def test_diagonalize_continuation():
    M0 = np.array([[1.0, 0.3], [-0.3, -1.0]], dtype=complex)
    path = PivotPath(((0, 1),), np.diag(np.diag(M0)))
    path.advance(M0)
    g0, d0 = path.g.copy(), path.d.copy()
    path.advance(M0 + 0.01 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.abs(path.g - g0).max() < 0.05
    assert np.abs(path.d - d0).max() < 0.05


# -- solve_rational -------------------------------------------------------------

def test_solve_free(spec2):
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=np.zeros((2, 2)))
    times = np.linspace(0, 1, 11)
    tr, fact = solve_rational(spec2, pt, times)
    for t, st in zip(tr.times, tr.states):
        assert np.allclose(st.q, pt.q + t * pt.p, atol=1e-13)
        assert np.allclose(st.p, pt.p, atol=1e-13)
        assert np.abs(st.xi).max() == 0.0
        assert tr.provenance == "exact-rational"


def test_solve_sl2_matches_oracle(spec2):
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=E12 + E21)
    times = np.linspace(0, 1, 101)
    tre, _ = solve_rational(spec2, pt, times)
    tro = integrate(spec2, pt, 1.0, samples=101, tol=1e-12)
    for attr in ("q", "p", "xi"):
        assert sup_gap(tre, tro, attr) <= 1e-6


def test_solve_sl3_partition_matches_oracle():
    from spincm.models import rational_model
    spec = rational_model(build_sl_context(3), delta_subset([(0, 1), (1, 0)]))
    pt = random_point(spec, np.random.default_rng(11), scale=0.5)
    times = np.linspace(0, 0.5, 51)
    tre, _ = solve_rational(spec, pt, times)
    tro = integrate(spec, pt, 0.5, samples=51, tol=1e-12)
    for attr in ("q", "p", "xi"):
        assert sup_gap(tre, tro, attr) <= 1e-6


def test_factorization_identities(spec2):
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=E12 + E21)
    times = np.linspace(0, 1, 41)
    _, fact = solve_rational(spec2, pt, times)
    Linf = lax_limit(spec2, pt, "rational_inf")
    Q0 = np.diag(pt.q)
    for t, g, d, h, k in zip(fact.times, fact.g, fact.d, fact.h, fact.k):
        target = Q0 + t * Linf
        assert np.abs(k @ np.diag(d) @ np.linalg.inv(k) - target).max() < 1e-9
        assert np.abs(g @ np.diag(d) @ np.linalg.inv(g) - target).max() < 1e-10
        assert abs(np.linalg.det(g) - 1.0) < 1e-10
        assert np.abs(g * h[None, :] - k).max() < 1e-10
    assert np.allclose(fact.g[0], np.eye(2), atol=1e-12)
    assert np.allclose(fact.d[0], pt.q)
    # Cartan condition Pi_h(k^-1 k') = 0, via 5-point stencil on the k-path
    dt = fact.times[1] - fact.times[0]
    for m in range(2, len(fact.times) - 2):
        kdot = (8 * (fact.k[m + 1] - fact.k[m - 1])
                - (fact.k[m + 2] - fact.k[m - 2])) / (12 * dt)
        cart = np.diag(np.linalg.solve(fact.k[m], kdot))
        assert np.abs(cart).max() < 1e-6


def test_isospectrality_along_exact_flow(spec2):
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=E12 + E21)
    tre, _ = solve_rational(spec2, pt, np.linspace(0, 1, 41))
    z0 = 0.7
    ev0 = np.sort_complex(np.linalg.eigvals(lax(spec2, tre.states[0], z0)))
    for st in tre.states:
        ev = np.sort_complex(np.linalg.eigvals(lax(spec2, st, z0)))
        assert np.abs(ev - ev0).max() <= 1e-8


def test_breakdown_at_analytic_time(spec2):
    pt = PhasePoint(q=[1, -1], p=[-1, 1], xi=E12 + E21)
    with pytest.raises(BreakdownError) as exc:
        solve_rational(spec2, pt, np.linspace(0, 1, 101))
    e = exc.value
    assert abs(e.time - 2.0 / 3.0) <= 1e-3
    assert e.partial is not None
    assert e.partial.times[-1] < e.time
    assert e.factors is not None


def test_one_level_set_tolerance(spec2):
    """J^-1(0) is checked with one tolerance: diag xi = +/-5e-11 is accepted by
    the solver and the r-matrix action alike, +/-2e-10 by neither."""
    for eps, ok in ((5e-11, True), (2e-10, False)):
        pt = PhasePoint(q=[1, -1], p=[2, -2], xi=E12 + E21 + np.diag([eps, -eps]))
        if ok:
            tr, _ = solve_rational(spec2, pt, np.linspace(0, 0.5, 6))
            assert len(tr.states) == 6
            assert np.all(np.isfinite(r_action_on_M(spec2, pt, 1.0)))
            continue
        with pytest.raises(ContractError):
            solve_rational(spec2, pt, np.linspace(0, 0.5, 6))
        with pytest.raises(ContractError):
            r_action_on_M(spec2, pt, 1.0)


def test_solver_validations(spec2):
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=E12 + E21)
    bad_xi = E12 + E21 + np.diag([0.2, -0.2])
    with pytest.raises(ContractError):
        solve_rational(spec2, PhasePoint(q=[1, -1], p=[2, -2], xi=bad_xi),
                       np.linspace(0, 1, 5))
    with pytest.raises(ValidationError):
        solve_rational(spec2, pt, np.linspace(0.5, 1, 5))
    with pytest.raises(ValidationError):
        from spincm.models import trig_model
        from spincm.liecore import pi_subset
        solve_rational(trig_model(build_sl_context(2), pi_subset([0])), pt,
                       np.linspace(0, 1, 5))


# -- reduced flows ---------------------------------------------------------------

def test_reduced_constraint_and_oracles(spec2):
    s0 = E12 + 0.8 * E21
    rpt = ReducedPoint(q=[1, -1], p=[2, -2], s=s0)
    times = np.linspace(0, 1, 51)
    trr = solve_rational_reduced(spec2, rpt, times)
    for st in trr.states:
        assert st.s[0, 1] == 1.0
    tro = integrate(spec2, rpt, 1.0, samples=51, tol=1e-12)
    assert sup_gap(trr, tro, "q") <= 1e-6
    assert sup_gap(trr, tro, "p") <= 1e-6
    assert sup_gap(trr, tro, "s") <= 1e-6


def test_reduced_equals_reduction_of_full(spec2):
    s0 = E12 + 0.8 * E21
    rpt = ReducedPoint(q=[1, -1], p=[2, -2], s=s0)
    times = np.linspace(0, 1, 26)
    trr = solve_rational_reduced(spec2, rpt, times)
    trf, _ = solve_rational(spec2, PhasePoint(q=rpt.q, p=rpt.p, xi=s0), times)
    for a, b in zip(trf.states, trr.states):
        red = reduce_point(spec2.ctx, a)
        assert np.abs(red.s - b.s).max() <= 1e-8
        assert np.abs(a.p - b.p).max() <= 1e-10


def test_reduced_sl3_matches_reduced_eom():
    from spincm.models import rational_model
    spec = rational_model(build_sl_context(3), delta_subset([(0, 1), (1, 0)]))
    rpt = random_reduced(spec, np.random.default_rng(5), scale=0.4)
    times = np.linspace(0, 0.5, 26)
    trr = solve_rational_reduced(spec, rpt, times)
    tro = integrate(spec, rpt, 0.5, samples=26, tol=1e-12)
    assert sup_gap(trr, tro, "q") <= 1e-6
    assert sup_gap(trr, tro, "s") <= 1e-6


def test_reduced_depends_only_on_s0(spec2):
    """Two lifts of s0 related by the diagonal action give identical s(t), p(t)."""
    s0 = E12 + 0.8 * E21
    rpt = ReducedPoint(q=[1, -1], p=[2, -2], s=s0)
    times = np.linspace(0, 1, 21)
    trr = solve_rational_reduced(spec2, rpt, times)
    h = np.array([np.exp(0.3 + 0.2j), np.exp(-0.3 - 0.2j)])
    xi_other = s0 * np.outer(h, 1.0 / h)
    tr_other, _ = solve_rational(
        spec2, PhasePoint(q=rpt.q, p=rpt.p, xi=xi_other), times)
    for a, b in zip(tr_other.states, trr.states):
        red = reduce_point(spec2.ctx, a)
        assert np.abs(red.s - b.s).max() <= 1e-9
        assert np.abs(a.p - b.p).max() <= 1e-9


def test_solve_non_contiguous_partition():
    """Delta' partitions need not be into consecutive index intervals."""
    from spincm.models import rational_model
    spec = rational_model(build_sl_context(3), delta_subset([(0, 2), (2, 0)]))
    assert spec.subset.partition == ((0, 2), (1,))
    rng = np.random.default_rng(78)
    xi = 0.4 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    np.fill_diagonal(xi, 0.0)
    pt = PhasePoint(q=[0.55, 0.05, -0.6], p=[0.2, -0.1, -0.1], xi=xi)
    times = np.linspace(0, 0.4, 41)
    tre, _ = solve_rational(spec, pt, times)
    tro = integrate(spec, pt, 0.4, samples=41, tol=1e-12)
    for attr in ("q", "p", "xi"):
        assert sup_gap(tre, tro, attr) <= 1e-6


# -- known faults of the Cartan quadrature ----------------------------------------
# Rational full Delta', N = 3, t in [0, 1]: on these points q and p agree with
# the oracle, while xi(t) is off by a diagonal conjugation that energy, J and
# the Lax spectrum cannot see.

FAULT_SEEDS = {
    3: "PivotPath re-anchors a pivot (2 jumps here) without carrying the gauge "
       "jump into the Cartan quadrature: sup_xi 3.3",
    5: "fixed-substep Simpson quadrature of CartanWalk.advance_interval misses "
       "the velocity spike (no pivot jump): sup_xi 1.2e-2",
}


def _fault_case(seed):
    from spincm.models import rational_model
    spec = rational_model(build_sl_context(3), full_delta(3))
    pt = random_point(spec, np.random.default_rng(seed), scale=0.4)
    times = np.linspace(0, 1, 31)
    tre, _ = solve_rational(spec, pt, times)
    tro = integrate(spec, pt, 1.0, samples=31, tol=1e-12)
    return tre, tro


@pytest.mark.parametrize("seed", sorted(FAULT_SEEDS))
def test_fault_points_q_p_match_oracle(seed):
    tre, tro = _fault_case(seed)
    assert sup_gap(tre, tro, "q") <= 1e-9
    assert sup_gap(tre, tro, "p") <= 1e-9


@pytest.mark.parametrize("seed", [
    pytest.param(seed, marks=pytest.mark.xfail(strict=True, reason=reason))
    for seed, reason in sorted(FAULT_SEEDS.items())])
def test_fault_points_xi_matches_oracle(seed):
    tre, tro = _fault_case(seed)
    assert sup_gap(tre, tro, "xi") <= 1e-6
