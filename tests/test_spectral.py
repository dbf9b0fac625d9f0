"""Spectral curve apparatus: characteristic polynomial, gauged Lax,
genericity, branch counting, isospectral drift."""

import numpy as np
import pytest

from sampling import random_point
from spincm import spectral
from spincm.errors import DomainError, ValidationError
from spincm.liecore import build_sl_context
from spincm.models import PhasePoint, elliptic_model, lax
from spincm.presets import load_preset
from spincm.rk import audit, integrate
from spincm.special import EllipticLattice
from spincm.spectral import (GA1_GRID, Z_BLOCK, _branch_function,
                             _count_branch_points, _winding,
                             branch_count_genus, char_poly_coeffs, gauge_lax,
                             genericity_check)

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = E12.T


@pytest.fixture(scope="module")
def lat():
    return EllipticLattice(1.0, 0.35 + 0.8j)


@pytest.fixture(scope="module")
def spec2(lat):
    return elliptic_model(build_sl_context(2), lat)


@pytest.fixture(scope="module")
def pt2():
    return PhasePoint(q=[0.31 + 0.11j, -0.31 - 0.11j], p=[0.4, -0.4],
                      xi=E12 + 2 * E21)


def test_char_poly_free(spec2):
    pt = PhasePoint(q=[0.31, -0.31], p=[2, -2], xi=np.zeros((2, 2)))
    ss = char_poly_coeffs(spec2, pt, 0.3 + 0.2j)
    assert abs(ss.a[0] - (-4.0)) < 1e-13
    assert abs(ss.a[1]) < 1e-13


def test_char_poly_traceless_and_matches_eigs(spec2, pt2):
    z = 0.28 - 0.17j
    ss = char_poly_coeffs(spec2, pt2, z)
    assert abs(ss.a[1]) <= 1e-12  # a_{N-1} = tr L = 0
    lam = np.linalg.eigvals(lax(spec2, pt2, z))
    # det(L - wI) = (lam1 - w)(lam2 - w): a0 = lam1*lam2
    assert abs(ss.a[0] - lam[0] * lam[1]) < 1e-10


def test_char_poly_doubly_periodic(spec2, pt2, lat):
    z = 0.3 + 0.2j
    a0 = char_poly_coeffs(spec2, pt2, z).a
    for w in (2 * lat.omega1, 2 * lat.omega2):
        a1 = char_poly_coeffs(spec2, pt2, z + w).a
        assert np.abs(a1 - a0).max() <= 1e-9


def test_gauge_lax(spec2, pt2, lat):
    z = 0.3 + 0.2j
    Le = gauge_lax(spec2, pt2, z)
    L = lax(spec2, pt2, z)
    assert np.allclose(np.diag(Le), np.diag(L))  # diagonal unchanged
    for w in (2 * lat.omega1, 2 * lat.omega2):
        assert np.abs(gauge_lax(spec2, pt2, z + w) - Le).max() <= 1e-9
    ev1 = np.sort_complex(np.linalg.eigvals(Le))
    ev2 = np.sort_complex(np.linalg.eigvals(L))
    assert np.abs(ev1 - ev2).max() < 1e-12
    # char poly from L and from L^e agree
    from spincm.spectral import _charpoly
    assert np.abs(_charpoly(Le) - _charpoly(L)).max() <= 1e-10


def test_gauge_lax_validations(spec2, pt2):
    from spincm.liecore import build_sl_context, delta_subset
    from spincm.models import rational_model
    specr = rational_model(build_sl_context(2),
                           delta_subset([(0, 1), (1, 0)]))
    with pytest.raises(ValidationError):
        gauge_lax(specr, pt2, 0.3)


def test_genericity(spec2, pt2):
    rep = genericity_check(spec2, pt2)
    assert rep.ga2_ok and abs(rep.ga2_min_gap - 2 * np.sqrt(2)) < 1e-12
    assert abs(rep.ga2_min_abs - np.sqrt(2)) < 1e-12
    assert rep.ga1_ok and rep.ga1_min > 1e-8
    nilp = PhasePoint(q=[0.31, -0.31], p=[0.4, -0.4], xi=E12)
    rep2 = genericity_check(spec2, nilp)
    assert not rep2.ga2_ok
    d = rep2.to_json_dict()
    assert d["ga2"] is False and d["grid"] == "20x20"


def test_ga1_finite_where_root_plus_z_is_a_lattice_point(spec2, lat):
    """q_1 - q_2 + z is exactly the lattice point 0 at the GA1 grid point
    (7, 11): there l = 0 and zeta(w+z) is infinite, while dL/dz is finite."""
    s = (np.arange(GA1_GRID) + 0.61803) / GA1_GRID
    u = (np.arange(GA1_GRID) + 0.38196) / GA1_GRID
    g = (2 * s[7] - 1) * lat.omega1 + (2 * u[11] - 1) * lat.omega2
    pt = PhasePoint(q=[-g / 2, g / 2], p=[0.4, -0.4], xi=E12 + 2 * E21)
    assert pt.q[0] - pt.q[1] + g == 0.0
    rep = genericity_check(spec2, pt)
    assert np.isfinite(rep.ga1_min) and rep.ga1_ok


def test_branch_count_genus_sl2(spec2, pt2):
    B, g = branch_count_genus(spec2, pt2)
    assert (B, g) == (6, 2)
    assert B % 2 == 0
    assert B == 2 * (g + 2 - 1)  # Riemann-Hurwitz consistency, N=2


def test_branch_count_requires_genericity(spec2):
    free = PhasePoint(q=[0.31, -0.31], p=[0.4, -0.4], xi=np.zeros((2, 2)))
    with pytest.raises(DomainError):
        branch_count_genus(spec2, free)


def test_singular_xi_is_not_generic(lat):
    # distinct eigenvalues 0, +-sqrt(2): the sheet with eigenvalue 0 stays
    # finite at z = 0, so the pole order of the branch function there is not
    # N^2 + N and the count is refused
    spec = elliptic_model(build_sl_context(3), lat)
    xi = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    pt = PhasePoint(q=[0.31 + 0.11j, -0.02 + 0.05j, -0.29 - 0.16j],
                    p=[0.4, -0.1, -0.3], xi=xi)
    rep = genericity_check(spec, pt)
    assert rep.ga1_ok and not rep.ga2_ok
    assert abs(rep.ga2_min_gap - np.sqrt(2)) < 1e-12
    assert rep.ga2_min_abs < 1e-12
    with pytest.raises(DomainError):
        branch_count_genus(spec, pt)


def _generic_n4_point(seed):
    rng = np.random.default_rng(seed)
    N, scale = 4, 0.5
    q = (np.linspace(0.45, -0.45, N) * (0.9 + 0.2 * rng.uniform())
         + 0.05 * rng.standard_normal(N) + 0.08j * rng.standard_normal(N))
    q = q - q.mean()
    p = 0.3 * rng.standard_normal(N)
    p = p - p.mean()
    xi = scale * (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    np.fill_diagonal(xi, 0.0)
    return PhasePoint(q=q, p=p, xi=xi)


def test_branch_count_generic_n4_with_zero_near_puncture(lat):
    # a generic N = 4 point whose branch function has a zero close to z = 0;
    # measuring the pole order on small circles around 0 used to fail here
    spec = elliptic_model(build_sl_context(4), lat)
    assert branch_count_genus(spec, _generic_n4_point(3)) == (20, 7)


@pytest.fixture
def sheet_calls(monkeypatch):
    """The z array of every spectral._sheet_partials call, in order."""
    calls = []
    sheet_partials = spectral._sheet_partials

    def counted(spec, pt, zs):
        calls.append(np.asarray(zs))
        return sheet_partials(spec, pt, zs)
    monkeypatch.setattr(spectral, "_sheet_partials", counted)
    return calls


def test_branch_count_evaluates_one_node_grid(sheet_calls):
    # the 4 x 4 subcell lines of the 96 x 96 grid hold 945 nodes, each
    # evaluated once, where 16 rings of 96 points were 1,536 evaluations
    d = load_preset("elliptic-sl2")
    assert _count_branch_points(d["model"], d["init"]) == (6, 2)
    assert [zs.size for zs in sheet_calls] == [945]
    assert len(set(np.round(sheet_calls[0], 12))) == 945


@pytest.mark.parametrize("seed, sizes", [(3, [945]), (2, [945, 96, 96])])
def test_branch_count_refines_at_new_points_only(lat, sheet_calls, seed, sizes):
    # after the node grid, a ring that needs refinement evaluates only its
    # 96 new midpoints: the point of seed 2 refines two rings once each
    spec = elliptic_model(build_sl_context(4), lat)
    assert _count_branch_points(spec, _generic_n4_point(seed)) == (20, 7)
    assert [zs.size for zs in sheet_calls] == sizes
    zs = np.concatenate(sheet_calls)
    assert len(set(np.round(zs, 12))) == zs.size


def test_branch_count_sees_an_extra_zero(monkeypatch):
    # D(z) (z - z0) has one zero more than D in the cell.  The contours sum
    # to the winding along the cell's outer boundary, whose opposite edges
    # are evaluated rather than identified, so B counts it: N^2 + N + 1
    d = load_preset("elliptic-sl2")
    z0 = 0.213 + 0.117j
    branch = spectral._branch_function
    monkeypatch.setattr(spectral, "_branch_function",
                        lambda spec, pt: lambda zs: branch(spec, pt)(zs) * (zs - z0))
    assert _count_branch_points(d["model"], d["init"])[0] == 7


@pytest.mark.parametrize("n", [2, 3, 4])
def test_branch_function_array_matches_single_z(lat, n):
    spec = elliptic_model(build_sl_context(n), lat)
    pt = random_point(spec, np.random.default_rng(n), scale=0.5)
    D = _branch_function(spec, pt)
    # more points than one block, so the blocks are stitched together
    k = np.arange(Z_BLOCK + 20)
    zs = 0.6 * np.exp(2j * np.pi * k / k.size) + 0.1 * (k % 3)
    vals = D(zs)
    assert vals.shape == zs.shape
    one = np.array([D(np.array([z]))[0] for z in zs])
    assert np.all(np.abs(vals - one) <= 1e-13 * np.abs(one))


def test_winding_evaluates_each_point_once():
    seen = []

    def fun(zs):
        seen.extend(zs)
        return zs - (0.99 + 0.5j)

    # the zero sits just inside the right edge, a quarter of the way down
    # from the top corner: the phase step across it is resolved only after
    # two doublings (4 -> 8 -> 16 points)
    square = np.array([-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j])
    assert _winding(fun, square, fun(square)) == 1
    assert len(seen) == 16
    assert len(set(np.round(seen, 12))) == 16


def test_isospectral_drift_free(spec2):
    pt = PhasePoint(q=[0.31, -0.31], p=[2, -2], xi=np.zeros((2, 2)))
    tr = integrate(spec2, pt, 1.0, samples=11, tol=1e-10)
    assert audit(spec2, tr).eig_drift <= 1e-12


def test_isospectral_drift_sl2(spec2, pt2):
    tr = integrate(spec2, pt2, 1.0, samples=21, tol=1e-10)
    assert audit(spec2, tr).eig_drift <= 1e-7


def test_isospectral_drift_sl3(lat):
    spec = elliptic_model(build_sl_context(3), lat)
    pt = random_point(spec, np.random.default_rng(9), scale=0.5)
    tr = integrate(spec, pt, 1.0, samples=21, tol=1e-10)
    assert audit(spec, tr).eig_drift <= 1e-6
