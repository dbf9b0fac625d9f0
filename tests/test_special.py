"""cot and the Weierstrass functions, cross-validated against the
independent lattice-sum oracle."""

import math

import numpy as np
import pytest

from oracles import LatticeOracle
from spincm.errors import PoleError, ValidationError
from spincm.special import (EllipticLattice, _cot, l_func, lame_parts,
                            sigma_w, wp, wp_prime, zeta_w)


@pytest.fixture(scope="module")
def lat():
    return EllipticLattice(1.0, 0.35 + 0.8j)


@pytest.fixture(scope="module")
def oracle(lat):
    return LatticeOracle(lat, K=128)


def rand_z(lat, rng, n, margin=0.15):
    out = []
    while len(out) < n:
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if lat.lattice_distance(z) > margin:
            out.append(z)
    return np.array(out)


# -- cot ---------------------------------------------------------------------

def cot(z):
    return _cot(np.asarray(z, dtype=complex))


def test_cot_examples():
    assert abs(cot(math.pi / 4) - 1.0) < 1e-14
    assert abs(cot(math.pi / 2)) < 1e-14
    for x in (0.0, 0.7, -2.0):
        assert abs(cot(x + 50j) + 1j) < 1e-15
        assert abs(cot(x - 50j) - 1j) < 1e-15


def test_cot_array_matches_scalar():
    zs = np.array([[0.7, -2.0 + 0.3j], [1.1 - 40j, 0.2 + 60j]])
    out = cot(zs)
    assert out.shape == zs.shape and cot(0.7).shape == ()
    for z, c in zip(zs.ravel(), out.ravel()):
        assert c == cot(z)
        if abs(z.imag) < 5:
            assert abs(c - np.cos(z) / np.sin(z)) < 1e-14


# -- lattice construction ----------------------------------------------------

def test_lattice_requires_upper_half_plane():
    with pytest.raises(ValidationError):
        EllipticLattice(1.0, 0.5 - 0.2j)


def test_legendre_relation(lat):
    assert abs(lat.eta1 * lat.omega2 - lat.eta2 * lat.omega1
               - 1j * math.pi / 2) < 1e-10


def test_differential_equation(lat):
    rng = np.random.default_rng(2)
    zs = rand_z(lat, rng, 20)
    P, Pp = wp(lat, zs), wp_prime(lat, zs)
    assert np.abs(Pp**2 - (4 * P**3 - lat.g2 * P - lat.g3)).max() < 1e-9


def test_periodicity_and_quasi_periodicity(lat):
    rng = np.random.default_rng(3)
    zs = rand_z(lat, rng, 20)
    for w, eta in ((2 * lat.omega1, 2 * lat.eta1), (2 * lat.omega2, 2 * lat.eta2)):
        assert np.abs(wp(lat, zs + w) - wp(lat, zs)).max() < 1e-10
        assert np.abs(wp_prime(lat, zs + w) - wp_prime(lat, zs)).max() < 1e-10
        assert np.abs(zeta_w(lat, zs + w) - zeta_w(lat, zs) - eta).max() < 1e-10
        fac = -np.exp(eta * (zs + w / 2))
        assert np.abs(sigma_w(lat, zs + w) - fac * sigma_w(lat, zs)).max() < 1e-9


def test_oddness(lat):
    rng = np.random.default_rng(4)
    zs = rand_z(lat, rng, 10)
    assert np.abs(zeta_w(lat, -zs) + zeta_w(lat, zs)).max() < 1e-12
    assert np.abs(sigma_w(lat, -zs) + sigma_w(lat, zs)).max() < 1e-12
    assert np.abs(wp(lat, -zs) - wp(lat, zs)).max() < 1e-10
    assert np.abs(wp_prime(lat, -zs) + wp_prime(lat, zs)).max() < 1e-10


def test_laurent_behaviour(lat):
    z = 1e-3
    assert abs(wp(lat, z) - z**-2) <= abs(lat.g2) * z**2 / 10 + 1e-6
    assert abs(zeta_w(lat, z) - 1.0 / z) < 1e-6
    assert abs(sigma_w(lat, z) / z - 1.0) < 1e-6


def test_sigma_exact_zero_on_lattice(lat):
    assert sigma_w(lat, 0.0) == 0.0
    assert sigma_w(lat, 2 * lat.omega1) == 0.0
    # w + z exactly on the lattice: l vanishes and dl/dz = -sigma'(w+z) /
    # (sigma(w) sigma(z)) is finite, sigma'(2 w1) = -exp(2 eta1 w1)
    w, z = 0.3 + 0.2j, 2 * lat.omega1 - 0.3 - 0.2j
    l, _, _, ldz, _ = lame_parts(lat, w, z)
    ref = np.exp(2 * lat.eta1 * lat.omega1) / (sigma_w(lat, w) * sigma_w(lat, z))
    assert l == 0.0 and abs(ldz - ref) <= 1e-13 * abs(ref)


def test_pole_errors(lat):
    for fn in (wp, wp_prime, zeta_w):
        with pytest.raises(PoleError):
            fn(lat, 2 * lat.omega1 + 1e-12)
    with pytest.raises(PoleError):
        l_func(lat, 1e-12, 0.3)


@pytest.mark.parametrize("k", [1, 2])
def test_pole_errors_name_the_lattice_point(lat, k):
    """PoleError.nearest is the lattice point 2 w_k near z = 2 w_k + 1e-10,
    not the offset of z from it."""
    pole = 2 * (lat.omega1 if k == 1 else lat.omega2)
    z = pole + 1e-10
    for fn in (lambda: wp(lat, z), lambda: wp_prime(lat, z),
               lambda: zeta_w(lat, z), lambda: l_func(lat, z, 0.3),
               lambda: l_func(lat, 0.3, z)):
        with pytest.raises(PoleError) as exc:
            fn()
        assert abs(exc.value.nearest - pole) < 1e-9


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_lame_parts_match_per_argument_evaluators(lat, N):
    """lame_parts on the root values of a point (w) against a spread of z,
    entry by entry: l against three separate sigma_w calls, the zetas
    against zeta_w, dl/dz against l (zeta(w+z) - zeta(z)) from zeta_w (to
    1e-13 of its terms) and wp(z) against wp; some w + z leave the cell."""
    rng = np.random.default_rng(30 + N)
    off = ~np.eye(N, dtype=bool)
    while True:
        x, y = rng.uniform(-0.45, 0.45, (2, N))
        q = 2 * lat.omega1 * x + 2 * lat.omega2 * y
        w = (q[:, None] - q[None, :])[off]
        if lat.lattice_distance(w).min() >= 0.05:
            break
    W, Z = w[None, :], rand_z(lat, rng, 7)[:, None]
    l, zw, zz, ldz, wpz = lame_parts(lat, W, Z)
    assert l.shape == ldz.shape == (7, w.size)
    lref = -sigma_w(lat, W + Z) / (sigma_w(lat, W) * sigma_w(lat, Z))
    zwz_ref, zz_ref = zeta_w(lat, W + Z), zeta_w(lat, Z)
    refs = ((l, lref, np.abs(lref)), (zw, zeta_w(lat, W), np.abs(zeta_w(lat, W))),
            (zz, zz_ref, np.abs(zz_ref)),
            (ldz, lref * (zwz_ref - zz_ref), np.abs(lref) * (np.abs(zwz_ref) + np.abs(zz_ref))),
            (wpz, wp(lat, Z), np.abs(wp(lat, Z))))
    for mine, ref, scale in refs:
        mine, ref, scale = np.broadcast_arrays(mine, ref, scale)
        assert np.all(np.abs(mine - ref) <= 1e-13 * scale)
    _, m, n = lat.reduce(W + Z)
    assert np.any((m != 0) | (n != 0))  # the reduction moved some w + z


def test_lame_parts_vs_lattice_sum_oracle(lat, oracle):
    """Same tolerance as test_theta_vs_lattice_sum_oracle."""
    ws = np.array([0.3 + 0.2j, -0.25 + 0.1j, 0.45 - 0.3j])
    zs = np.array([0.2 - 0.35j, 0.35 + 0.15j])
    l, zw, zz, ldz, wpz = lame_parts(lat, ws[None, :], zs[:, None])
    for a, z in enumerate(zs):
        for b, w in enumerate(ws):
            lref = -oracle.sigma(w + z) / (oracle.sigma(w) * oracle.sigma(z))
            for mine, ref in ((l[a, b], lref), (zw[0, b], oracle.zeta(w)),
                              (zz[a, 0], oracle.zeta(z)),
                              (ldz[a, b], lref * (oracle.zeta(w + z) - oracle.zeta(z))),
                              (wpz[a, 0], oracle.wp(z))):
                assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))


def test_l_func_identities(lat):
    rng = np.random.default_rng(5)
    ws = rand_z(lat, rng, 12)
    zs = rand_z(lat, rng, 12)
    # addition-type identity relating l and wp
    assert np.abs(l_func(lat, ws, zs) * l_func(lat, -ws, zs)
                  - (wp(lat, zs) - wp(lat, ws))).max() < 1e-9
    # quasi-periodicity in z
    for w2, eta in ((2 * lat.omega1, lat.eta1), (2 * lat.omega2, lat.eta2)):
        lhs = l_func(lat, ws, zs + w2)
        rhs = np.exp(2 * eta * ws) * l_func(lat, ws, zs)
        assert np.abs(lhs - rhs).max() < 1e-9
    # antisymmetry consequence of sigma oddness
    assert np.abs(l_func(lat, -ws, zs) + l_func(lat, ws, -zs)).max() < 1e-12


def test_further_l_zeta_identities(lat):
    rng = np.random.default_rng(6)
    cnt = 0
    while cnt < 50:
        x, y, z = rand_z(lat, rng, 3, margin=0.2)
        if lat.lattice_distance(x + y) < 0.1 or lat.lattice_distance(x + z) < 0.1 \
                or lat.lattice_distance(y + z) < 0.1 \
                or abs(wp(lat, x) - wp(lat, y)) < 0.1:
            continue
        cnt += 1
        lhs = l_func(lat, x, z) * l_func(lat, y, z) * (
            zeta_w(lat, x + z) - zeta_w(lat, x) - zeta_w(lat, y + z) + zeta_w(lat, y))
        rhs = l_func(lat, x + y, z) * (wp(lat, x) - wp(lat, y))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))
        lhs3 = zeta_w(lat, x + y) - zeta_w(lat, x) - zeta_w(lat, y)
        rhs3 = 0.5 * (wp_prime(lat, x) - wp_prime(lat, y)) / (wp(lat, x) - wp(lat, y))
        assert abs(lhs3 - rhs3) <= 1e-8 * max(1.0, abs(rhs3))


def test_trig_degeneration():
    """As Im tau -> oo the lattice functions become trigonometric: with
    w1 = pi/2, eta1 = pi/6, so sigma(z) = sin z e^{z^2/6} and
    zeta(z) = cot z + z/3."""
    lat = EllipticLattice(math.pi / 2, 40j)
    for z in (0.3, 0.7 + 0.2j, 1.1 - 0.3j):
        assert abs(wp(lat, z) - (1.0 / np.sin(z) ** 2 - 1.0 / 3.0)) < 1e-4
    for z in (0.3, 0.7 + 0.2j, 1.1 - 0.3j, 1e-7 + 2e-8j):
        sigma = np.sin(z) * np.exp(z * z / 6)
        zeta = np.cos(z) / np.sin(z) + z / 3
        assert abs(sigma_w(lat, z) - sigma) <= 1e-12 * abs(sigma)
        assert abs(zeta_w(lat, z) - zeta) <= 1e-12 * abs(zeta)


def direct_theta_rows(lat, v, k):
    """The leading k theta rows from np.sin and np.cos of every odd harmonic
    (2n+1) v, against the lattice's series coefficients."""
    arg = np.multiply.outer(lat._odd, np.ravel(v))
    th = lat._series[:k] @ np.concatenate([np.sin(arg), np.cos(arg)])
    return th.reshape((k,) + np.shape(v))


@pytest.mark.parametrize("im_tau, nmax", [(0.8, 9), (0.1, 16), (0.02, 32)])
def test_theta_rows_match_direct_harmonics(im_tau, nmax):
    """theta_1 and its three derivatives from the angle-addition harmonics
    against sin and cos of every harmonic, each row within 1e-12 of its
    largest magnitude: on random cell points, |z| ~ 1e-7 and points next to
    the cell corners (largest |Im v|), as a flat, a 0-d and a stacked
    (T, K, N, N) argument."""
    lat = EllipticLattice(1.0, 0.35 + 1j * im_tau)
    assert lat._odd.size == nmax
    rng = np.random.default_rng(11)
    x, y = rng.uniform(-0.5, 0.5, (2, 28))
    corners = (1 - 1e-6) * np.array([1, 1, -1, -1]) * (
        lat.omega1 + np.array([1, -1, 1, -1]) * lat.omega2)
    tiny = 1e-7 * np.exp(2j * np.pi * rng.uniform(size=4))
    z = np.concatenate([2 * lat.omega1 * x + 2 * lat.omega2 * y, corners, tiny])
    for v in (lat._v(z), lat._v(z).reshape(2, 2, 3, 3), lat._v(corners[0]),
              lat._v(tiny[0])):
        mine, ref = lat._theta_rows(v, 4), direct_theta_rows(lat, v, 4)
        assert mine.shape == ref.shape == (4,) + v.shape
        mine, ref = mine.reshape(4, -1), ref.reshape(4, -1)
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(mine - ref) <= 1e-12 * scale)


def test_theta_vs_lattice_sum_oracle(lat, oracle):
    rng = np.random.default_rng(7)
    n = 0
    while n < 50:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) > abs(lat.omega1) or lat.lattice_distance(z) < 0.1:
            continue
        n += 1
        for mine, ref in ((wp, oracle.wp), (wp_prime, oracle.wp_prime),
                          (zeta_w, oracle.zeta), (sigma_w, oracle.sigma)):
            a, b = mine(lat, z), ref(z)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_lattice_json_roundtrip(lat):
    d = lat.to_json_dict()
    back = EllipticLattice.from_json_dict(d)
    assert back.omega1 == lat.omega1 and back.omega2 == lat.omega2
