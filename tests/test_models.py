"""Hamiltonians, Lax operators, equations of motion, r-matrix actions."""

import itertools
import math

import numpy as np
import pytest

from oracles import (LatticeOracle, contour_hamiltonian, delta_of_partition,
                     lax_residual, mask_roots, partitions, pi_root_sets,
                     r_action_on_M)
from sampling import random_point, random_reduced
from spincm import special
from spincm.errors import ContractError, DomainError, PoleError, ValidationError
from spincm.liecore import (build_sl_context, coroot_diagonal, delta_subset,
                            pi_subset)
from spincm.models import (LAX_LIMITS, PhasePoint, ReducedPoint,
                           _kernel_matrices, alpha_matrix, check_regular,
                           elliptic_model, eom, hamiltonian, lax, lax_batch,
                           lax_limit, lax_pair, packed_field, rational_model,
                           reduce_point, trig_model)
from spincm.presets import load_preset
from spincm.rk import audit, default_z_samples, integrate
from spincm.special import EllipticLattice, wp, wp_prime
from spincm.spectral import (_sheet_partials, branch_count_genus,
                             char_poly_coeffs, gauge_lax, genericity_check)

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = E12.T


def ctx(n):
    return build_sl_context(n)


def full_delta(n):
    return delta_subset([(i, j) for i in range(n) for j in range(n) if i != j])


@pytest.fixture(scope="module")
def lat():
    return EllipticLattice(1.0, 0.35 + 0.8j)


@pytest.fixture(scope="module")
def families(lat):
    return {
        "rational": rational_model(ctx(3), full_delta(3)),
        "trigonometric": trig_model(ctx(3), pi_subset([0])),
        "elliptic": elliptic_model(ctx(3), lat),
    }


@pytest.fixture(scope="module")
def spec_r2():
    return rational_model(ctx(2), full_delta(2))


@pytest.fixture(scope="module")
def spec_t2():
    return trig_model(ctx(2), pi_subset([0]))


# -- root masks ------------------------------------------------------------------

def _row_major(roots):
    return tuple(np.array(sorted(roots), dtype=int).reshape(-1, 2).T)


def test_root_masks_match_definitions():
    """The ModelSpec masks and regular roots against the root sets of the
    definitions: every pi' of sl(N), N = 2..6, and every Delta' (one per
    partition of {1..N}) of sl(N), N = 2..5."""
    for n in range(2, 7):
        off = {(i, j) for i in range(n) for j in range(n) if i != j}
        for keep in itertools.product([False, True], repeat=n - 1):
            members = [k for k in range(n - 1) if keep[k]]
            spec = trig_model(ctx(n), pi_subset(members))
            span, plus, minus = pi_root_sets(n, members)
            assert mask_roots(spec.mask_span) == span, (n, members)
            assert mask_roots(spec.mask_plus) == plus, (n, members)
            assert mask_roots(spec.mask_minus) == minus, (n, members)
            assert mask_roots(spec.mask_active) == off
            assert np.array_equal(spec.regular_roots, _row_major(span))
        if n > 5:
            continue
        for blocks in partitions(list(range(n))):
            delta = delta_of_partition(blocks)
            spec = rational_model(ctx(n), delta_subset(sorted(delta)))
            assert spec.subset.partition == tuple(sorted(map(tuple, blocks)))
            assert mask_roots(spec.mask_active) == delta, (n, blocks)
            assert np.array_equal(spec.regular_roots, _row_major(delta))


# -- phase point validation ---------------------------------------------------

def test_phase_point_validation():
    with pytest.raises(ValidationError):
        PhasePoint(q=[1, 1], p=[0, 0], xi=np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        PhasePoint(q=[1, -1], p=[0, 0], xi=np.eye(2))
    with pytest.raises(ValidationError):
        ReducedPoint(q=[1, -1], p=[0, 0], s=np.array([[0, 2], [0, 0]]))
    rp = ReducedPoint(q=[1, -1], p=[0, 0], s=np.array([[0, 1 + 1e-10], [0.5, 0]]))
    assert rp.s[0, 1] == 1.0


def test_point_json_roundtrip():
    pt = PhasePoint(q=[1j, -1j], p=[2, -2], xi=E12 + 0.5j * E21)
    back = PhasePoint.from_json_dict(pt.to_json_dict())
    assert np.allclose(back.q, pt.q) and np.allclose(back.xi, pt.xi)
    rp = ReducedPoint(q=[1, -1], p=[0, 0], s=E12 + 0.3 * E21)
    back = ReducedPoint.from_json_dict(rp.to_json_dict())
    assert np.allclose(back.s, rp.s)


# -- Hamiltonians --------------------------------------------------------------

def test_hamiltonian_examples(spec_r2, spec_t2, lat):
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=E12 + E21)
    assert abs(hamiltonian(spec_r2, pt) - 3.75) < 1e-14
    free = PhasePoint(q=[1, -1], p=[2, -2], xi=np.zeros((2, 2)))
    assert abs(hamiltonian(spec_r2, free) - 4.0) < 1e-14
    spec_e2 = elliptic_model(ctx(2), lat)
    free_e = PhasePoint(q=[0.31, -0.31], p=[2, -2], xi=np.zeros((2, 2)))
    assert abs(hamiltonian(spec_e2, free_e) - 4.0) < 1e-14
    ptt = PhasePoint(q=[math.pi / 8, -math.pi / 8], p=[1, -1], xi=E12 + E21)
    assert abs(hamiltonian(spec_t2, ptt) - (-2.0 / 3.0)) < 1e-12


def test_hamiltonian_singular_configuration(spec_r2):
    with pytest.raises(DomainError):
        hamiltonian(spec_r2, PhasePoint(q=[1e-8, -1e-8], p=[0, 0], xi=E12 + E21))


# -- Lax operators -------------------------------------------------------------

def test_lax_examples(spec_r2):
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=E12 + E21)
    assert np.allclose(lax(spec_r2, pt, 1.0),
                       np.array([[2, 1.5], [0.5, -2]], dtype=complex))
    free = PhasePoint(q=[1, -1], p=[2, -2], xi=np.zeros((2, 2)))
    assert np.allclose(lax(spec_r2, free, 0.37), np.diag([2.0, -2.0]))
    with pytest.raises(PoleError):
        lax(spec_r2, pt, 0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_elliptic_lax_batch_matches_single_z(lat, n):
    spec = elliptic_model(ctx(n), lat)
    pt = random_point(spec, np.random.default_rng(n), scale=0.5)
    zs = np.array([0.31 + 0.17j, -0.42 + 0.05j, 0.9 + 0.7j, 2.3 - 1.1j, 0.01j])
    Ls = lax_batch(spec, pt, zs)
    assert Ls.shape == (len(zs), n, n)
    for z, L in zip(zs, Ls):
        one = lax(spec, pt, z)
        assert np.abs(L - one).max() <= 1e-13 * np.abs(one).max()


def test_elliptic_lax_batch_pole(lat):
    spec = elliptic_model(ctx(3), lat)
    pt = random_point(spec, np.random.default_rng(0), scale=0.5)
    pole = 2 * lat.omega1 + 2 * lat.omega2
    zs = [0.3 + 0.2j, pole + 1e-10, 0.5]
    with pytest.raises(PoleError) as exc:
        lax_batch(spec, pt, zs)
    assert abs(exc.value.nearest - pole) < 1e-9
    with pytest.raises(PoleError) as pair:
        lax_pair(spec, pt, zs)
    assert str(pair.value) == str(exc.value)
    assert pair.value.nearest == exc.value.nearest


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lax_pair_dz_matches_central_difference(lat, n):
    """dL/dz of lax_pair against a central difference of lax_batch in z, whose
    L it returns as its first output."""
    spec = elliptic_model(ctx(n), lat)
    pt = random_point(spec, np.random.default_rng(n), scale=0.5)
    zs = np.array([0.31 + 0.17j, -0.42 + 0.05j, 0.9 + 0.7j, 2.3 - 1.1j, 0.2j])
    L, dL = lax_pair(spec, pt, zs)
    assert np.array_equal(L, lax_batch(spec, pt, zs))
    h = 1e-5
    fd = (lax_batch(spec, pt, zs + h) - lax_batch(spec, pt, zs - h)) / (2 * h)
    assert np.abs(dL - fd).max() <= 1e-8 * np.abs(dL).max()


def test_trig_lax_batch_matches_cot(spec_t2):
    # L(z) depends on z only through cot(z) xi: check it on both sides of the
    # real axis and far from it, where the one-sided forms saturate
    pt = PhasePoint(q=[0.4, -0.4], p=[0.3, -0.3], xi=E12 + 2 * E21)
    zs = np.array([0.7, 0.9 - 0.4j, 1.1 + 0.3j, 0.2 + 50j, -0.6 - 50j])
    Ls = lax_batch(spec_t2, pt, zs)
    cot = special._cot(zs)
    for c, L in zip(cot, Ls):
        dL = L - Ls[0] - (c - cot[0]) * pt.xi
        assert np.abs(dL).max() <= 1e-14
    with pytest.raises(PoleError) as exc:
        lax_batch(spec_t2, pt, [0.5, math.pi + 1e-12])
    assert exc.value.nearest == pytest.approx(math.pi)


def test_lax_limit_examples(spec_r2, spec_t2):
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=E12 + E21)
    assert np.allclose(lax_limit(spec_r2, pt, "rational_inf"),
                       np.array([[2, 0.5], [-0.5, -2]], dtype=complex))
    free = PhasePoint(q=[0.3, -0.3], p=[1, -1], xi=np.zeros((2, 2)))
    for which in ("trig_plus_i_inf", "trig_minus_i_inf"):
        assert np.allclose(lax_limit(spec_t2, free, which), np.diag([1.0, -1.0]))
    spec_t0 = trig_model(ctx(2), pi_subset([]))
    pt0 = PhasePoint(q=[0.3, -0.3], p=[0, 0], xi=E12 + E21)
    assert np.allclose(lax_limit(spec_t0, pt0, "trig_plus_i_inf"), -2j * E12)
    with pytest.raises(ValidationError):
        lax_limit(spec_r2, pt, "trig_plus_i_inf")


def test_trig_limit_is_actual_limit(spec_t2):
    pt = PhasePoint(q=[math.pi / 8, -math.pi / 8], p=[1, -1], xi=E12 + E21)
    far = lax(spec_t2, pt, 0.4 + 40j)
    assert np.abs(lax_limit(spec_t2, pt, "trig_plus_i_inf") - far).max() < 1e-14
    far = lax(spec_t2, pt, 0.4 - 40j)
    assert np.abs(lax_limit(spec_t2, pt, "trig_minus_i_inf") - far).max() < 1e-14
    # N = 3: pi' = {alpha_1} and pi' = {} have roots outside the span, whose
    # entries the limits read from Obar_+/-
    rng = np.random.default_rng(7)
    for members in ([0], []):
        spec = trig_model(ctx(3), pi_subset(members))
        pt = random_point(spec, rng, scale=0.5, momentum_zero=False)
        for which, z in (("trig_plus_i_inf", 0.4 + 40j),
                         ("trig_minus_i_inf", 0.4 - 40j)):
            assert np.abs(lax_limit(spec, pt, which) - lax(spec, pt, z)).max() < 1e-14
    # rational, Delta' one block of sl(3): L(z) - L(inf) = xi / z
    spec = rational_model(ctx(3), delta_subset([(0, 1), (1, 0)]))
    pt = random_point(spec, rng, scale=0.5, momentum_zero=False)
    far = lax(spec, pt, 1e10)
    assert np.abs(lax_limit(spec, pt, "rational_inf") - far).max() < 1e-9


# the trigonometric kernel at N = 3, pi' = {alpha_1}: with q = (w/2, -w/2, 0)
# the span roots +/-alpha_1 take the values +/-w, and the entries of L(z) at
# eps_1 - eps_3, eps_2 - eps_3 (Obar_+) and their negatives (Obar_-) have no
# root term; xi has unit-modulus entries off the diagonal
_XI3 = np.array([[0, 1, 1j], [-1, 0, (1 + 1j) / math.sqrt(2)],
                 [-1j, (1 - 1j) / math.sqrt(2), 0]])
_OBAR_PLUS, _OBAR_MINUS = ((0, 2), (1, 2)), ((2, 0), (2, 1))


def _trig_lax3(w, z):
    spec = trig_model(ctx(3), pi_subset([0]))
    pt = PhasePoint(q=[w / 2, -w / 2, 0], p=[0, 0, 0], xi=_XI3)
    return lax_batch(spec, pt, [z])[0]


def test_trig_lax_kernel_examples():
    L = _trig_lax3(math.pi / 4, math.pi / 2)
    assert abs(L[0, 1] - 1.0 * _XI3[0, 1]) < 1e-14
    for ij in _OBAR_PLUS:
        assert abs(L[ij] + 1j * _XI3[ij]) < 1e-14
    for ij in _OBAR_MINUS:
        assert abs(L[ij] - 1j * _XI3[ij]) < 1e-14


def test_trig_lax_kernel_matches_sine_forms():
    rng = np.random.default_rng(0)
    for _ in range(25):
        w = complex(rng.uniform(0.2, 1.2), rng.uniform(-0.5, 0.5))
        z = complex(rng.uniform(0.2, 1.2), rng.uniform(-0.5, 0.5))
        L = _trig_lax3(w, z)
        for ij, a in (((0, 1), w), ((1, 0), -w)):
            assert abs(L[ij] - np.sin(a + z) / (np.sin(a) * np.sin(z)) * _XI3[ij]) < 1e-12
        for ij in _OBAR_PLUS:
            assert abs(L[ij] - np.exp(-1j * z) / np.sin(z) * _XI3[ij]) < 1e-12
        for ij in _OBAR_MINUS:
            assert abs(L[ij] - np.exp(1j * z) / np.sin(z) * _XI3[ij]) < 1e-12


# -- equations of motion --------------------------------------------------------

def test_eom_rational_example(spec_r2):
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=E12 + E21)
    qd, pd, xd = eom(spec_r2, pt)
    assert np.allclose(qd, [2, -2])
    assert np.allclose(pd, [-0.25, 0.25])
    G = -0.25 * (E12 + E21)
    assert np.allclose(xd, pt.xi @ G - G @ pt.xi)


def test_eom_free(families):
    for spec in families.values():
        pt = random_point(spec, np.random.default_rng(0), scale=0.0)
        qd, pd, xd = eom(spec, pt)
        assert np.allclose(qd, pt.p)
        assert np.abs(pd).max() < 1e-15 and np.abs(xd).max() < 1e-15


def test_eom_elliptic_wp_prime(lat):
    spec = elliptic_model(ctx(2), lat)
    a = 0.31
    pt = PhasePoint(q=[a, -a], p=[0.5, -0.5], xi=E12 + E21)
    _, pd, _ = eom(spec, pt)
    assert np.allclose(pd, wp_prime(lat, 2 * a) * np.array([1.0, -1.0]))


def _fd_gradients(spec, pt, h=1e-5):
    """Finite-difference Poisson-form gradients (delta1, delta2, delta)."""
    N = spec.ctx.N

    def H(q, p, xi):
        return hamiltonian(spec, PhasePoint(q=q, p=p, xi=xi))

    def diag_grad(update):
        grads = np.zeros(N, dtype=complex)
        for a in range(N - 1):
            d = np.zeros(N)
            d[a], d[a + 1] = 1.0, -1.0
            der = (update(h * d) - update(-h * d)) / (2 * h)
            grads[a] = der
        out = np.zeros(N, dtype=complex)
        for a in range(N - 2, -1, -1):
            out[a] = grads[a] + out[a + 1]
        return out - out.mean()

    d1 = diag_grad(lambda d: H(pt.q + d, pt.p, pt.xi))
    d2 = diag_grad(lambda d: H(pt.q, pt.p + d, pt.xi))
    grad = np.zeros((N, N), dtype=complex)
    for a in range(N):
        for b in range(N):
            if a == b:
                continue
            dxi = np.zeros((N, N), dtype=complex)
            dxi[a, b] = h
            grad[b, a] = (H(pt.q, pt.p, pt.xi + dxi)
                          - H(pt.q, pt.p, pt.xi - dxi)) / (2 * h)
    diag = np.zeros(N, dtype=complex)
    for a in range(N - 1):
        dxi = np.zeros((N, N), dtype=complex)
        dxi[a, a], dxi[a + 1, a + 1] = h, -h
        der = (H(pt.q, pt.p, pt.xi + dxi) - H(pt.q, pt.p, pt.xi - dxi)) / (2 * h)
        diag[a] = der
    for a in range(N - 2, -1, -1):
        grad[a, a] = diag[a] + grad[a + 1, a + 1]
    return d1, d2, grad


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_eom_equals_poisson_form(families, family):
    spec = families[family]
    rng = np.random.default_rng(hash(family) % 2**32)
    for _ in range(20):
        pt = random_point(spec, rng, momentum_zero=False)
        qd, pd, xd = eom(spec, pt)
        d1, d2, grad = _fd_gradients(spec, pt)
        assert np.abs(qd - d2).max() < 1e-6
        assert np.abs(pd + d1).max() < 1e-6
        assert np.abs(xd - (pt.xi @ grad - grad @ pt.xi)).max() < 1e-6


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_momentum_conserved_on_level_set(families, family):
    spec = families[family]
    rng = np.random.default_rng(3)
    for _ in range(10):
        pt = random_point(spec, rng, momentum_zero=True)
        _, _, xd = eom(spec, pt)
        assert np.abs(np.diag(xd)).max() < 1e-12


# -- reduced system -------------------------------------------------------------

def test_reduced_cartan_correction_empty_for_sl2(spec_r2):
    """At N = 2 the full field keeps s_(a_1) = 1, so the projection adds
    nothing: eom of the reduced point is eom of the lift xi := s, bit for
    bit."""
    rng = np.random.default_rng(4)
    rpt = random_reduced(spec_r2, rng)
    lift = PhasePoint(q=rpt.q, p=rpt.p, xi=rpt.s)
    for mine, full in zip(eom(spec_r2, rpt), eom(spec_r2, lift)):
        assert np.array_equal(mine, full)


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_reduced_flow_stays_in_g_red(families, family):
    spec = families[family]
    rng = np.random.default_rng(5)
    for _ in range(20):
        rpt = random_reduced(spec, rng)
        _, _, sd = eom(spec, rpt)
        assert abs(np.trace(sd)) < 1e-10
        for k in range(spec.ctx.N - 1):
            assert abs(sd[k, k + 1]) < 1e-10


def test_reduced_eom_matches_reduction_of_full_flow(families):
    """s_dot from eom of a reduced point == d/dt of g(xi)^-1 xi g(xi) along
    the full flow, for every family (the trigonometric one has the c0
    term)."""
    rng = np.random.default_rng(6)
    delta = 1e-5
    for spec in families.values():
        for _ in range(5):
            rpt = random_reduced(spec, rng)
            pt = PhasePoint(q=rpt.q, p=rpt.p, xi=rpt.s)  # lift: g(s) = identity
            # central difference along the straight lines x +/- delta f(x)
            f = eom(spec, pt)
            plus, minus = (reduce_point(spec.ctx, PhasePoint(
                q=pt.q + h * f[0], p=pt.p + h * f[1], xi=pt.xi + h * f[2]))
                for h in (delta, -delta))
            fd_s = (plus.s - minus.s) / (2 * delta)
            fd_q = (plus.q - minus.q) / (2 * delta)
            fd_p = (plus.p - minus.p) / (2 * delta)
            qd, pd, sd = eom(spec, rpt)
            assert np.abs(sd - fd_s).max() < 1e-6
            assert np.abs(qd - fd_q).max() < 1e-6
            assert np.abs(pd - fd_p).max() < 1e-6


def _same_bits(a, b):
    """a and b equal bit for bit: arrays, numbers, tuples and dataclasses of
    them."""
    if hasattr(a, "__dataclass_fields__"):
        a, b = vars(a), vars(b)
        assert a.keys() == b.keys()
        a, b = list(a.values()), list(b.values())
    if isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _same_bits(x, y)
        return
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert _bits(a) == _bits(b)


@pytest.mark.parametrize("name", ["elliptic-sl2", "elliptic-sl3", "trig-sl3",
                                  "rational-sl3-full"])
def test_reduced_point_is_read_at_its_lift(name):
    """Every public entry point takes a ReducedPoint and reads it at its lift
    xi := s: each gives on rpt, bit for bit, what it gives on
    PhasePoint(q, p, xi=s); eom follows the point's type and gives the
    reduced field; the elliptic curve keeps its genus."""
    data = load_preset(name)
    spec = data["model"]
    rpt = reduce_point(spec.ctx, data["init"])
    lift = PhasePoint(q=rpt.q, p=rpt.p, xi=rpt.s)
    assert rpt.xi is rpt.s
    zs = default_z_samples(spec)
    calls = [lambda pt: hamiltonian(spec, pt),
             lambda pt: lax(spec, pt, zs[0]),
             lambda pt: lax_batch(spec, pt, zs),
             lambda pt: char_poly_coeffs(spec, pt, zs[1])]
    if spec.family == "elliptic":
        calls += [lambda pt: lax_pair(spec, pt, zs),
                  lambda pt: gauge_lax(spec, pt, zs[2]),
                  lambda pt: genericity_check(spec, pt)]
    else:
        calls += [lambda pt, which=which: lax_limit(spec, pt, which)
                  for which, (family, _) in LAX_LIMITS.items()
                  if family == spec.family]
    for call in calls:
        _same_bits(call(rpt), call(lift))
    N = spec.ctx.N
    zd = packed_field(spec, True)(0.0, np.concatenate([rpt.q, rpt.p, rpt.s.ravel()]))
    _same_bits(eom(spec, rpt), (zd[:N], zd[N:2 * N], zd[2 * N:].reshape(N, N)))
    if spec.family == "elliptic":
        assert branch_count_genus(spec, rpt) == {"elliptic-sl2": (6, 2),
                                                 "elliptic-sl3": (12, 4)}[name]


def test_reduce_point_requires_U(spec_r2):
    pt = PhasePoint(q=[1, -1], p=[0, 0], xi=E21.astype(complex))
    with pytest.raises(DomainError):
        reduce_point(spec_r2.ctx, pt)


# -- r-matrix action and the Lax equation ---------------------------------------

def test_r_action_rational_examples(spec_r2):
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=E12 + E21)
    RM = r_action_on_M(spec_r2, pt, 1.0)
    expected = -0.5 * lax(spec_r2, pt, 1.0) - 0.25 * (E12 + E21)
    assert np.abs(RM - expected).max() < 1e-14
    free = PhasePoint(q=[1, -1], p=[2, -2], xi=np.zeros((2, 2)))
    z = 0.7 + 0.2j
    assert np.abs(r_action_on_M(spec_r2, free, z) + np.diag(free.p) / (2 * z)).max() < 1e-14


def test_r_action_requires_level_set(spec_r2):
    xi = E12 + E21 + np.diag([0.1, -0.1])
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=xi)
    with pytest.raises(ContractError, match="J\\^-1\\(0\\)"):
        r_action_on_M(spec_r2, pt, 1.0)


def test_r_action_elliptic_kernel_spot_check(lat):
    """Coefficient of xi_a e_a equals l(a(q),z) (zeta(a(q)) + zeta(z) - zeta(a(q)+z))."""
    from spincm.special import l_func, zeta_w
    spec = elliptic_model(ctx(2), lat)
    pt = PhasePoint(q=[0.31, -0.31], p=[0.4, -0.4], xi=E12 + 2 * E21)
    z = 0.3 + 0.2j
    RM = r_action_on_M(spec, pt, z)
    M = lax(spec, pt, z) / z
    w = 0.62  # alpha(q) for the (0,1) root
    kern = l_func(lat, w, z) * (zeta_w(lat, w) + zeta_w(lat, z) - zeta_w(lat, w + z))
    assert abs((RM - 0.5 * M)[0, 1] - kern * pt.xi[0, 1]) < 1e-12


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_lax_residual_small(families, family):
    spec = families[family]
    rng = np.random.default_rng(8)
    zs = {"rational": [1.0, 0.6 + 0.3j], "trigonometric": [0.7, 0.9 - 0.4j],
          "elliptic": [0.3 + 0.2j, -0.41 + 0.17j]}[family]
    for _ in range(5):
        pt = random_point(spec, rng, scale=0.25, margin=0.55, p_scale=0.35)
        for z in zs:
            assert lax_residual(spec, pt, z, 1e-4) < 1e-6


def test_lax_residual_free(families):
    for spec in families.values():
        pt = random_point(spec, np.random.default_rng(1), scale=0.0)
        assert lax_residual(spec, pt, 0.45 + 0.2j, 1e-4) < 1e-12


# -- contour Hamiltonian ----------------------------------------------------------

def test_contour_examples(spec_r2, spec_t2):
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=E12 + E21)
    assert abs(contour_hamiltonian(spec_r2, pt, 64) - 3.75) < 1e-10
    ptt = PhasePoint(q=[math.pi / 8, -math.pi / 8], p=[1, -1], xi=E12 + E21)
    assert abs(contour_hamiltonian(spec_t2, ptt, 128) - (-2.0 / 3.0)) < 1e-8
    free = PhasePoint(q=[1, -1], p=[2, -2], xi=np.zeros((2, 2)))
    assert abs(contour_hamiltonian(spec_r2, free, 64) - 4.0) < 1e-13
    with pytest.raises(ValidationError):
        contour_hamiltonian(spec_r2, pt, 8)


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_contour_equals_closed_form(families, family):
    spec = families[family]
    rng = np.random.default_rng(9)
    for _ in range(5):
        pt = random_point(spec, rng, momentum_zero=False)
        a = contour_hamiltonian(spec, pt, 128)
        b = hamiltonian(spec, pt)
        assert abs(a - b) <= 1e-8 * max(1.0, abs(b))


# -- the kernel pass -------------------------------------------------------------

def _in_cell_q(lat, N, rng, margin=0.05):
    """Traceless q with entries spread over the fundamental cell, so that some
    root values q_i - q_j leave it; every root value at least `margin` from
    the lattice."""
    while True:
        x, y = rng.uniform(-0.45, 0.45, (2, N))
        q = 2 * lat.omega1 * x + 2 * lat.omega2 * y
        q = q - q.mean()
        A = alpha_matrix(q)
        off = ~np.eye(N, dtype=bool)
        if lat.lattice_distance(A[off]).min() >= margin:
            return q


def test_elliptic_kernels_match_per_root_evaluators(lat):
    """One reduction and one theta pass on the i < j roots, mirrored, give the
    per-root wp and wp' of every off-diagonal entry; K is exactly even and Kp
    exactly odd."""
    rng = np.random.default_rng(11)
    moved = 0
    for N in range(2, 6):
        spec = elliptic_model(ctx(N), lat)
        off = ~np.eye(N, dtype=bool)
        for _ in range(10):
            q = _in_cell_q(lat, N, rng)
            A = alpha_matrix(q)
            K, Kp = _kernel_matrices(spec, q)
            ref_k, ref_kp = wp(lat, A[off]), wp_prime(lat, A[off])
            assert np.all(np.abs(K[off] - ref_k) <= 1e-13 * np.abs(ref_k))
            assert np.all(np.abs(Kp[off] - ref_kp) <= 1e-13 * np.abs(ref_kp))
            assert np.array_equal(K, K.T) and np.array_equal(Kp, -Kp.T)
            assert not K.diagonal().any() and not Kp.diagonal().any()
            _, m, n = lat.reduce(A[off])
            moved += np.count_nonzero((m != 0) | (n != 0))
    assert moved > 0  # the reduction moved root values across the cell


def test_elliptic_kernels_match_lattice_sum_oracle(lat):
    """Same tolerance as test_special.py::test_theta_vs_lattice_sum_oracle."""
    oracle = LatticeOracle(lat, K=128)
    q = np.array([0.9 + 0.1j, -0.15 - 0.05j, -0.75 - 0.05j])  # a_13 leaves the cell
    spec = elliptic_model(ctx(3), lat)
    A = alpha_matrix(q)
    assert lat.reduce(A[0, 2])[1:] != (0, 0)
    K, Kp = _kernel_matrices(spec, q)
    for i, j in zip(*np.nonzero(~np.eye(3, dtype=bool))):
        for mine, ref in ((K[i, j], oracle.wp(A[i, j])),
                          (Kp[i, j], oracle.wp_prime(A[i, j]))):
            assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))


def _count_lattice_passes(monkeypatch):
    """Counts, filled in as the program runs, of the calls of every function
    built by ``EllipticLattice._wp_evaluator`` ("evaluate": one lattice
    reduction and one theta pass each), of ``EllipticLattice.reduce`` and of
    ``EllipticLattice._theta_rows``, with the argument shapes in "shapes"."""
    counts = {"evaluate": 0, "reduce": 0, "_theta_rows": 0, "shapes": []}
    build = EllipticLattice._wp_evaluator

    def counted_build(self, *args):
        evaluate = build(self, *args)

        def counted(w):
            counts["evaluate"] += 1
            counts["shapes"].append(w.shape)
            return evaluate(w)
        return counted
    monkeypatch.setattr(EllipticLattice, "_wp_evaluator", counted_build)
    for name in ("reduce", "_theta_rows"):
        orig = getattr(EllipticLattice, name)

        def counted(self, z, *args, _orig=orig, _name=name):
            counts[_name] += 1
            if _name == "reduce":
                counts["shapes"].append(np.shape(z))
            return _orig(self, z, *args)
        monkeypatch.setattr(EllipticLattice, name, counted)
    return counts


@pytest.mark.parametrize("fn, reduced", [(eom, False), (eom, True),
                                         (hamiltonian, False)],
                         ids=["eom", "reduced_eom", "hamiltonian"])
def test_elliptic_rhs_is_one_kernel_pass(lat, monkeypatch, fn, reduced):
    """One elliptic RHS or Hamiltonian: one call of the wp/wp' evaluator
    (1 lattice reduction, 1 theta pass), no other reduction or theta pass,
    and no call to the per-root wp / wp'."""
    spec = elliptic_model(ctx(3), lat)
    rpt = random_reduced(spec, np.random.default_rng(12))
    pt = rpt if reduced else PhasePoint(q=rpt.q, p=rpt.p, xi=rpt.s)
    counts = _count_lattice_passes(monkeypatch)

    def forbidden(*args):
        raise AssertionError("per-root evaluator called")
    monkeypatch.setattr(special, "wp", forbidden)
    monkeypatch.setattr(special, "wp_prime", forbidden)
    fn(spec, pt)
    assert counts == {"evaluate": 1, "reduce": 0, "_theta_rows": 0,
                      "shapes": [(3,)]}


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_stacked_kernel_pass_is_the_single_point_pass(lat, N):
    """_kernel_matrices on a stack q (T, N) gives the T single-point calls'
    kernels: bit for bit for the rational and trigonometric families, whose
    kernels are elementwise.  The elliptic stack and a single point run one
    evaluator; its theta product is one BLAS product over all the stack's
    values, whose last bits depend on the number of columns (OpenBLAS, and
    zgemv for one column), so there they agree to 1e-13 relative.  An empty
    stack (0, N) gives two empty (0, N, N) arrays, and a real elliptic stack
    the kernels of the same stack as complex numbers."""
    rng = np.random.default_rng(40 + N)
    specs = (rational_model(ctx(N), full_delta(N)),
             trig_model(ctx(N), pi_subset(range(N - 1))),
             elliptic_model(ctx(N), lat))
    q = 0.5 * (rng.standard_normal((7, N)) + 1j * rng.standard_normal((7, N)))
    q -= q.mean(axis=1, keepdims=True)
    for spec in specs:
        stacked = _kernel_matrices(spec, q)
        for t in range(len(q)):
            for whole, one in zip(stacked, _kernel_matrices(spec, q[t])):
                if spec.family == "elliptic":
                    assert np.all(np.abs(whole[t] - one) <= 1e-13 * np.abs(one))
                else:
                    assert np.array_equal(whole[t], one)
        assert all(k.shape == (0, N, N)
                   for k in _kernel_matrices(spec, np.zeros((0, N), complex)))
    for whole, real in zip(_kernel_matrices(spec, q.real.astype(complex)),
                           _kernel_matrices(spec, q.real)):
        assert np.array_equal(whole, real)


def test_audit_reduces_four_times(monkeypatch):
    """An elliptic audit makes 4 lattice reductions: the Hamiltonian's kernel
    pass over (T, roots), then lame_parts' w, z and w + z, whose w and z
    reductions also serve the regularity and z-pole checks of the Lax path."""
    data = load_preset("elliptic-sl3")
    spec, d = data["model"], data["defaults"]
    traj = integrate(spec, data["init"], d["t_end"], samples=d["samples"],
                     tol=d["tol"])
    counts = _count_lattice_passes(monkeypatch)
    audit(spec, traj)
    assert counts["evaluate"] + counts["reduce"] == 4
    assert counts["shapes"] == [(51, 3), (51, 1, 6), (3, 1), (51, 3, 6)]


_ZS = np.array([0.31 + 0.17j, -0.42 + 0.05j, 0.9 + 0.7j])


@pytest.mark.parametrize("call, reductions", [
    (lambda spec, pt: lax_batch(spec, pt, _ZS), 3),
    (lambda spec, pt: r_action_on_M(spec, pt, _ZS[0]), 8),
    (lambda spec, pt: _sheet_partials(spec, pt, _ZS), 3),
], ids=["lax_batch", "r_action_on_M", "sheet_partials_block"])
def test_elliptic_lax_paths_reduce_once_per_argument_set(lat, monkeypatch, call,
                                                         reductions):
    """The elliptic Lax paths: one reduction per argument set (w, z, w+z) of
    each lame_parts call, whose w and z reductions also serve the regularity
    and z-pole checks (r_action_on_M: its own two checks and lame_parts, plus
    one lax); none goes through the public per-argument evaluators."""
    spec = elliptic_model(ctx(3), lat)
    pt = random_point(spec, np.random.default_rng(13), scale=0.5)
    count = [0]
    orig = EllipticLattice.reduce

    def counted(*args):
        count[0] += 1
        return orig(*args)
    monkeypatch.setattr(EllipticLattice, "reduce", counted)

    def forbidden(*args):
        raise AssertionError("public per-argument evaluator called")
    for name in ("sigma_w", "l_func", "zeta_w", "wp"):
        monkeypatch.setattr(special, name, forbidden)
    call(spec, pt)
    assert count[0] == reductions


def test_elliptic_lax_batch_builds_no_dz_parts(lat, monkeypatch):
    """lax_batch builds L alone: none of its sigma/zeta passes asks for the wp
    row, which lax_pair's z pass adds for dL/dz."""
    spec = elliptic_model(ctx(3), lat)
    pt = random_point(spec, np.random.default_rng(13), scale=0.5)
    asked = []
    orig = EllipticLattice._sigma_zeta

    def spy(self, z, wp=False):
        asked.append(wp)
        return orig(self, z, wp)
    monkeypatch.setattr(EllipticLattice, "_sigma_zeta", spy)
    lax_batch(spec, pt, _ZS)
    assert asked == [False, False, False]
    lax_pair(spec, pt, _ZS)
    assert asked[3:] == [False, True, False]


_S3 = np.array([[0, 1, 0.3], [0.2, 0, 1], [0.5, -0.4, 0]], dtype=complex)


@pytest.mark.parametrize("family, q, root", [
    ("rational", [0.3 + 2.5e-8, -0.6, 0.3 - 2.5e-8], "eps_1-eps_3"),
    ("trigonometric", [math.pi / 2 + 0.1 + 2.5e-8, -math.pi / 2 + 0.1 - 2.5e-8, -0.2],
     "eps_1-eps_2"),
    # q_1 - q_3 within 1e-7 of the lattice point 2 w1 = 2
    ("elliptic", [1.1 + 2.5e-8, -0.2, -0.9 - 2.5e-8], "eps_1-eps_3"),
])
def test_kernel_pass_checks_regularity(families, family, q, root):
    spec = families[family]
    q = np.array(q, dtype=complex)
    with pytest.raises(DomainError) as ref:
        check_regular(spec, q)
    assert root in str(ref.value)
    p = np.array([0.1, -0.3, 0.2])
    for fn, pt in ((eom, PhasePoint(q=q, p=p, xi=_S3)),
                   (hamiltonian, PhasePoint(q=q, p=p, xi=_S3)),
                   (eom, ReducedPoint(q=q, p=p, s=_S3))):
        with pytest.raises(DomainError) as err:
            fn(spec, pt)
        assert str(err.value) == str(ref.value)
    for reduced in (False, True):
        z = np.concatenate([q, p, _S3.ravel()])
        with pytest.raises(DomainError) as err:
            packed_field(spec, reduced)(0.0, z)
        assert str(err.value) == str(ref.value)
        # a stack raises the error of its first singular row
        regular = np.concatenate([np.array([0.9, 0.1, -1.0]), p, _S3.ravel()])
        with pytest.raises(DomainError) as err:
            packed_field(spec, reduced)(np.zeros(3), np.stack([regular, z, z]))
        assert str(err.value) == str(ref.value)


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("name", ["rational-sl3-full", "trig-sl3", "elliptic-sl2",
                                  "elliptic-sl3"])
def test_stacked_field_is_the_field_of_each_state(name, reduced):
    """packed_field on a stack of states (M, n) at times (M,), as the
    integrator calls it on the samples inside a step, gives row by row the
    field of each state alone: bit for bit for the rational and
    trigonometric kernels, within 1e-13 of the largest entry for the
    elliptic theta series, whose one product over the stack sums in another
    order.  Stacks of 2 and 5 rows of an oracle trajectory, each twice (the
    second call reuses the stack's buffers)."""
    data = load_preset(name)
    spec = data["model"]
    pt = reduce_point(spec.ctx, data["init"]) if reduced else data["init"]
    tr = integrate(spec, pt, 0.3, samples=6)
    field = packed_field(spec, reduced)
    for rows in (slice(1, 3), slice(0, 6), slice(1, 3)):
        ts, Z = tr.times[rows], np.ascontiguousarray(tr.y[rows])
        stack = field(ts, Z).copy()
        single = np.array([field(t, z).copy() for t, z in zip(ts, Z)])
        if spec.family == "elliptic":
            assert np.abs(stack - single).max() <= 1e-13 * np.abs(single).max()
        else:
            _same_bits(stack, single)


def test_elliptic_collision_course_blows_up():
    """a(q) = q_1 - q_2 runs into the lattice point 2 w1 = 2: the oracle stops
    with the blowup flag and a last good time instead of raising.  The lattice
    is rectangular, so wp is real on the real line and the flow stays real."""
    spec = elliptic_model(ctx(2), EllipticLattice(1.0, 0.8j))
    pt = PhasePoint(q=[0.6, -0.6], p=[1.0, -1.0], xi=E12 + E21)
    tr = integrate(spec, pt, 1.0, samples=101, tol=1e-10)
    assert tr.blowup and tr.last_good_time is not None
    assert tr.last_good_time < 0.4  # the free flight would reach a = 2 at t = 0.4
    assert tr.times[-1] <= tr.last_good_time + 1e-12
    assert np.all(np.isfinite(tr.y))


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


# the relative gap allowed between packed_field and the formula of
# _fresh_field, fixed from float64: each entry is a sum of at most N = 5
# products of a few roundings each, summed in another order
FIELD_RTOL = 32 * np.finfo(float).eps


def _fresh_field(spec, q, p, m, reduced):
    """The packed field by fresh arrays, from the formulas of the Hamiltonian
    of the module docstring: p_dot = 1/2 (row sums - column sums) of
    Kp * m * m^T and m_dot = [m, G] with G = -K * m - 2 c0 Pi_h m, K the
    root kernel alone (zero diagonal)."""
    K, Kp = _kernel_matrices(spec, q)
    K = np.where(np.eye(len(q), dtype=bool), 0.0, K)
    W = Kp * m * m.T
    pdot = 0.5 * (W.sum(axis=1) - W.sum(axis=0))
    G = -(K * m)
    if spec.family == "trigonometric":
        G = G - 2.0 * (1.0 / 3.0) * np.diag(np.diag(m))
    mdot = m @ G - G @ m
    if reduced:
        d = coroot_diagonal(spec.ctx, np.diagonal(mdot, 1))
        mdot = mdot + m * (d[None, :] - d[:, None])
    return np.concatenate([p, pdot, mdot.ravel()])


def _field_cases(spec, rng):
    """(reduced, point): four full points off J^-1(0) and four reduced
    points."""
    for reduced in (False, True):
        for _ in range(4):
            if reduced:
                yield reduced, random_reduced(spec, rng)
            else:
                yield reduced, random_point(spec, rng, momentum_zero=False)


def _family_spec(family, N, lat):
    return {"rational": lambda: rational_model(ctx(N), full_delta(N)),
            "trigonometric": lambda: trig_model(ctx(N), pi_subset([0])),
            "elliptic": lambda: elliptic_model(ctx(N), lat)}[family]()


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_packed_field_is_eom(lat, family):
    """One field closure evaluated on a run of points gives, bit for bit,
    eom of each (the reduced field on a reduced point) and the field of a
    fresh closure: its reused buffers carry nothing from one call to the
    next."""
    rng = np.random.default_rng(23)
    for N in range(2, 6):
        spec = _family_spec(family, N, lat)
        fields = {reduced: packed_field(spec, reduced) for reduced in (False, True)}
        for reduced, pt in _field_cases(spec, rng):
            z = np.concatenate([pt.q, pt.p, pt.xi.ravel()])
            zdot = fields[reduced](0.0, z)
            qd, pd, md = eom(spec, pt)
            assert _bits(zdot) == _bits(np.concatenate([qd, pd, md.ravel()]))
            assert _bits(zdot) == _bits(packed_field(spec, reduced)(0.0, z))


@pytest.mark.parametrize("family", ["rational", "trigonometric", "elliptic"])
def test_packed_field_matches_formula(lat, family):
    """packed_field against the field of ``_fresh_field``'s formulas, within
    FIELD_RTOL of the largest entry: its p_dot is the row sums of
    Kp * m * m^T alone, and its m_dot = [K * m + 2 c0 Pi_h m, m]."""
    rng = np.random.default_rng(23)
    for N in range(2, 6):
        spec = _family_spec(family, N, lat)
        for reduced, pt in _field_cases(spec, rng):
            z = np.concatenate([pt.q, pt.p, pt.xi.ravel()])
            zdot = packed_field(spec, reduced)(0.0, z)
            ref = _fresh_field(spec, pt.q, pt.p, pt.xi, reduced)
            assert np.abs(zdot - ref).max() <= FIELD_RTOL * np.abs(ref).max()


# the relative gap allowed between Kp_ij and -Kp_ji for the trigonometric
# kernel -2 cos a / sin^3 a, fixed from float64: libm need not give sin and
# cos exactly odd and even, and a few ulps of each grow threefold here
KP_ODD_RTOL = 16 * np.finfo(float).eps


def test_field_kernel_is_odd(lat):
    """The Kp of the kernel pass that packed_field reads is odd,
    Kp^T = -Kp: the identity behind its p_dot = row sums of Kp * m * m^T.
    Bit for bit for the rational kernel (full Delta' and a two-block
    Delta') and the elliptic one (wp' mirrored); for the trigonometric one,
    over every pi', within KP_ODD_RTOL of |Kp|."""
    rng = np.random.default_rng(31)
    for N in range(2, 6):
        specs = [rational_model(ctx(N), full_delta(N)), elliptic_model(ctx(N), lat)]
        if N > 2:
            half = (N + 1) // 2
            blocks = [list(range(half)), list(range(half, N))]
            specs.append(rational_model(
                ctx(N), delta_subset(sorted(delta_of_partition(blocks)))))
        for spec in specs:
            for _ in range(4):
                _, Kp = _kernel_matrices(spec, random_point(spec, rng, q_imag=0.3).q)
                assert np.array_equal(Kp.T, -Kp)
        for keep in itertools.product([False, True], repeat=N - 1):
            spec = trig_model(ctx(N), pi_subset([k for k in range(N - 1) if keep[k]]))
            for _ in range(4):
                _, Kp = _kernel_matrices(spec, random_point(spec, rng, q_imag=0.3).q)
                assert np.all(np.abs(Kp.T + Kp) <= KP_ODD_RTOL * np.abs(Kp))


def test_random_point_spread():
    """Rational full Delta' at N = 8: the default spread leaves the 7 gaps
    below the 0.3 margin, so only a wider spread gives a regular point."""
    spec = rational_model(ctx(8), full_delta(8))
    pt = random_point(spec, np.random.default_rng(1), spread=4.0)
    check_regular(spec, pt.q)
    i, j = spec.regular_roots
    assert np.abs(pt.q[i] - pt.q[j]).min() >= 0.3


@pytest.mark.parametrize("reduced", [False, True])
def test_non_finite_rows_fail_their_field(reduced):
    """models.check_rows refuses a NaN or an infinite entry in q, p or the
    matrix with a ValidationError naming the field, at the first such row;
    every other test passes a NaN (each is a `>` comparison)."""
    from spincm import models
    N, T = 3, 6
    rng = np.random.default_rng(4)
    q = rng.standard_normal((T, N)) + 0j
    q -= q.mean(axis=1, keepdims=True)
    p = q[::-1].copy()
    xi = rng.standard_normal((T, N, N)) + 0j
    xi[:, range(N), range(N)] = 0.0
    if reduced:
        xi[:, range(N - 1), range(1, N)] = 1.0
    label = "s" if reduced else "xi"
    for field, r, c, bad in (("q", 3, 0, np.nan), ("p", 2, 1, np.inf),
                             (label, 4, 5, -np.inf), (label, 1, 2, np.nan)):
        arrs = {"q": q.copy(), "p": p.copy(), label: xi.copy()}
        arrs[field].reshape(T, -1)[r, c] = bad
        n, error = models.check_rows(arrs["q"], arrs["p"], arrs[label], reduced)
        assert (n, type(error), str(error)) == (
            r, ValidationError, f"{field} must be finite"), (field, r)
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            models.check_state(arrs["q"][r], arrs["p"][r], arrs[label][r], reduced)
    assert models.check_rows(q, p, xi.copy(), reduced) == (T, None)


@pytest.mark.parametrize("reduced", [False, True])
def test_row_verdict_is_the_row_alone(monkeypatch, reduced):
    """models.check_rows over a stack of 8 rows gives each row the verdict
    of the one-point checks on that row alone (_check_momentum_zero, then
    check_state): the first failing row and its error.  The rows are on
    J^-1(0), one of them moved to within 3 ulps of a test's bound in a
    random complex direction (a sum v - v + s is exactly s), so that a |.|
    computed otherwise than the one-point check's would flip some verdicts.
    For xi's trace, MOMENTUM_TOL is raised to 1, read at call time, so that
    the J^-1(0) test passes first.  A reduced row is s = xi with its
    simple-root entries 1, on the lift xi: with max |xi| > 1, a diag xi
    that passes J^-1(0) fails "s must have zero diagonal" and nothing
    earlier."""
    from spincm import models
    N, T = 3, 8
    eps = np.finfo(float).eps
    rng = np.random.default_rng(3)
    cases = zero_diagonal = 0
    for _ in range(400):
        q = rng.standard_normal((T, N)) + 1j * rng.standard_normal((T, N))
        q -= q.mean(axis=1, keepdims=True)
        p = rng.standard_normal((T, N)) + 1j * rng.standard_normal((T, N))
        p -= p.mean(axis=1, keepdims=True)
        xi = 3.0 * (rng.standard_normal((T, N, N)) + 1j * rng.standard_normal((T, N, N)))
        xi[:, range(N), range(N)] = 0.0
        i, which = rng.integers(T), rng.integers(4)
        step = (1.0 + rng.integers(-3, 4) * eps) * np.exp(2j * np.pi * rng.uniform())
        monkeypatch.setattr(models, "MOMENTUM_TOL", 1.0 if which == 3 else 1e-10)
        if which == 0:  # |diag xi| at MOMENTUM_TOL max(1, max |xi|)
            xi[i, 0, 0] = models.MOMENTUM_TOL * max(1.0, float(np.abs(xi[i]).max())) * step
            xi[i, 1, 1] = -xi[i, 0, 0]
        else:  # |trace| of q, p or xi at 1e-10 max(1, max |.|) N, exactly
            a = (q, p, xi)[which - 1][i]
            v = a.reshape(-1)[1]
            top = float(np.abs(a).max()) if which == 3 else abs(v)
            row = np.array([v, -v, 1e-10 * max(1.0, top) * N * step])
            if which == 3:
                a[range(N), range(N)] = row
            else:
                a[:] = row
        m = xi.copy()
        if reduced:
            m[:, range(N - 1), range(1, N)] = 1.0
        want, alone = T, None
        for r in range(T):
            try:
                models._check_momentum_zero(xi[r])
                models.check_state(q[r], p[r], m[r], reduced)
            except (ContractError, ValidationError) as exc:
                want, alone = r, exc
                break
        n, error = models.check_rows(q, p, m, reduced, xi=xi)
        assert n == want
        assert (type(error), str(error)) == (type(alone), str(alone))
        cases += want < T
        if reduced and which == 0 and isinstance(alone, ValidationError):
            assert np.abs(xi[i]).max() > 1.0
            assert str(alone) == "s must have zero diagonal"
            zero_diagonal += 1
    assert 50 <= cases <= 350
    assert zero_diagonal >= 10 if reduced else zero_diagonal == 0
