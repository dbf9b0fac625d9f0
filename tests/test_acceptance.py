"""Acceptance criteria for the whole artifact.

Each criterion runs at its stated tolerance and prints one pass/fail line
(visible with `pytest -s tests/test_acceptance.py`).
"""

import functools

import numpy as np
import pytest

from oracles import LatticeOracle, contour_hamiltonian, lax_residual
from sampling import random_point, random_reduced
from spincm.cli import main as cli_main
from spincm.errors import BreakdownError
from spincm.liecore import build_sl_context, delta_subset, pi_subset
from spincm.models import (PhasePoint, ReducedPoint, elliptic_model,
                           hamiltonian, lax_limit, rational_model, reduce_point,
                           trig_model, alpha_matrix)
from spincm.rk import audit, default_z_samples, integrate
from spincm.solver_rational import solve_rational
from spincm.solver_trig import solve_trig
from spincm.special import (EllipticLattice, l_func, sigma_w, wp, wp_prime,
                            zeta_w)
from spincm.spectral import branch_count_genus, char_poly_coeffs, gauge_lax

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = E12.T

LAT = EllipticLattice(1.0, 0.35 + 0.8j)


def full_delta(n):
    return delta_subset([(i, j) for i in range(n) for j in range(n) if i != j])


def families(n):
    return {
        "rational": rational_model(build_sl_context(n), full_delta(n)),
        "trigonometric": trig_model(build_sl_context(n), pi_subset([0])),
        "elliptic": elliptic_model(build_sl_context(n), LAT),
    }


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} [{desc}]: FAIL")
                raise
            print(f"ACCEPTANCE {num} [{desc}]: PASS")
        return wrapper
    return deco


def rand_regular_z(rng, n, margin=0.18):
    out = []
    while len(out) < n:
        z = complex(rng.uniform(-0.85, 0.85), rng.uniform(-0.85, 0.85))
        if LAT.lattice_distance(z) > margin:
            out.append(z)
    return out


def sup_gap(ta, tb, attr):
    return float(np.abs(getattr(ta, attr) - getattr(tb, attr)).max())


@criterion(1, "special-function identity suite")
def test_criterion_1_special_functions():
    rng = np.random.default_rng(101)
    # Legendre relation
    assert abs(LAT.eta1 * LAT.omega2 - LAT.eta2 * LAT.omega1
               - 1j * np.pi / 2) <= 1e-10
    # identity (i) and quasi-periodicity of zeta, sigma, l: 50 points each
    for _ in range(50):
        w, z = rand_regular_z(rng, 2)
        lhs = l_func(LAT, w, z) * l_func(LAT, -w, z)
        rhs = wp(LAT, z) - wp(LAT, w)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))
        for per, eta in ((2 * LAT.omega1, LAT.eta1), (2 * LAT.omega2, LAT.eta2)):
            assert abs(zeta_w(LAT, z + per) - zeta_w(LAT, z) - 2 * eta) \
                <= 1e-8 * max(1.0, abs(zeta_w(LAT, z)))
            sig = -np.exp(2 * eta * (z + per / 2)) * sigma_w(LAT, z)
            assert abs(sigma_w(LAT, z + per) - sig) <= 1e-8 * max(1.0, abs(sig))
            lq = np.exp(2 * eta * w) * l_func(LAT, w, z)
            assert abs(l_func(LAT, w, z + per) - lq) <= 1e-8 * max(1.0, abs(lq))
    # identities (ii) and (iii): 50 random triples
    done = 0
    while done < 50:
        x, y, z = rand_regular_z(rng, 3, margin=0.2)
        if (LAT.lattice_distance(x + y) < 0.12 or LAT.lattice_distance(x + z) < 0.12
                or LAT.lattice_distance(y + z) < 0.12
                or abs(wp(LAT, x) - wp(LAT, y)) < 0.2):
            continue
        done += 1
        lhs = l_func(LAT, x, z) * l_func(LAT, y, z) * (
            zeta_w(LAT, x + z) - zeta_w(LAT, x)
            - zeta_w(LAT, y + z) + zeta_w(LAT, y))
        rhs = l_func(LAT, x + y, z) * (wp(LAT, x) - wp(LAT, y))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))
        lhs3 = zeta_w(LAT, x + y) - zeta_w(LAT, x) - zeta_w(LAT, y)
        rhs3 = 0.5 * (wp_prime(LAT, x) - wp_prime(LAT, y)) / (wp(LAT, x) - wp(LAT, y))
        assert abs(lhs3 - rhs3) <= 1e-8 * max(1.0, abs(rhs3))
    # theta-series vs lattice-sum oracle on |z| <= |omega1|
    oracle = LatticeOracle(LAT, K=128)
    done = 0
    while done < 50:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) > abs(LAT.omega1) or LAT.lattice_distance(z) < 0.1:
            continue
        done += 1
        for mine, ref in ((wp, oracle.wp), (wp_prime, oracle.wp_prime),
                          (zeta_w, oracle.zeta), (sigma_w, oracle.sigma)):
            b = ref(z)
            assert abs(mine(LAT, z) - b) <= 1e-10 * max(1.0, abs(b))


@criterion(2, "contour Hamiltonian == closed form")
def test_criterion_2_hamiltonian_consistency():
    for name, spec in families(3).items():
        rng = np.random.default_rng(202)
        for _ in range(20):
            pt = random_point(spec, rng, scale=0.5, momentum_zero=False)
            a = contour_hamiltonian(spec, pt, 128)
            b = hamiltonian(spec, pt)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b)), name


@criterion(3, "Lax-equation residual")
def test_criterion_3_lax_residual():
    zsets = {"rational": [1.0, 0.6 + 0.3j, -0.8],
             "trigonometric": [0.7, 0.9 - 0.4j, 1.2j],
             "elliptic": [0.3 + 0.2j, -0.41 + 0.17j, 0.55]}
    for name, spec in families(3).items():
        rng = np.random.default_rng(303)
        for _ in range(20):
            pt = random_point(spec, rng, scale=0.25, margin=0.55, p_scale=0.35)
            for z in zsets[name]:
                assert lax_residual(spec, pt, z, 1e-4) <= 1e-6, name


@criterion(4, "conservation under the oracle, sl(3)")
def test_criterion_4_conservation():
    for name, spec in families(3).items():
        pt = random_point(spec, np.random.default_rng(404), scale=0.4)
        traj = integrate(spec, pt, 2.0, samples=41, tol=1e-10)
        assert not traj.blowup, name
        rep = audit(spec, traj, default_z_samples(spec))
        assert rep.energy_drift <= 1e-8, name
        assert rep.momentum_drift <= 1e-9, name
        assert rep.eig_drift <= 1e-7, name


@criterion(5, "exact vs oracle, rational")
def test_criterion_5_rational_exact():
    cases = [
        (rational_model(build_sl_context(2), full_delta(2)),
         PhasePoint(q=[1, -1], p=[2, -2], xi=E12 + E21)),
        (rational_model(build_sl_context(3), full_delta(3)),
         random_point(rational_model(build_sl_context(3), full_delta(3)),
                      np.random.default_rng(505), scale=0.5)),
        (rational_model(build_sl_context(3), delta_subset([(0, 1), (1, 0)])),
         random_point(rational_model(build_sl_context(3),
                                     delta_subset([(0, 1), (1, 0)])),
                      np.random.default_rng(506), scale=0.5)),
    ]
    times = np.linspace(0.0, 1.0, 101)
    for spec, pt in cases:
        tre, _ = solve_rational(spec, pt, times)
        tro = integrate(spec, pt, 1.0, samples=101, tol=1e-12)
        for attr in ("q", "p", "xi"):
            assert sup_gap(tre, tro, attr) <= 1e-6
    # reduced variant against the reduced-equations oracle
    spec2 = cases[0][0]
    rpt = ReducedPoint(q=[1, -1], p=[2, -2], s=E12 + 0.8 * E21)
    trr = solve_rational(spec2, rpt, times)[0]
    tror = integrate(spec2, rpt, 1.0, samples=101, tol=1e-12)
    for attr in ("q", "p", "xi"):
        assert sup_gap(trr, tror, attr) <= 1e-6
    spec3 = cases[2][0]
    rpt3 = random_reduced(spec3, np.random.default_rng(507), scale=0.4)
    trr3 = solve_rational(spec3, rpt3, np.linspace(0, 1, 51))[0]
    tror3 = integrate(spec3, rpt3, 1.0, samples=51, tol=1e-12)
    for attr in ("q", "p", "xi"):
        assert sup_gap(trr3, tror3, attr) <= 1e-6


@criterion(6, "exact vs oracle, trigonometric")
def test_criterion_6_trig_exact():
    spec2 = trig_model(build_sl_context(2), pi_subset([0]))
    pt2 = PhasePoint(q=[np.pi / 8, -np.pi / 8], p=[1, -1], xi=E12 + E21)
    spec3 = trig_model(build_sl_context(3), pi_subset([0]))
    pt3 = random_point(spec3, np.random.default_rng(606), scale=0.35)
    times = np.linspace(0.0, 0.5, 101)
    for spec, pt in ((spec2, pt2), (spec3, pt3)):
        tre, fact = solve_trig(spec, pt, times)
        tro = integrate(spec, pt, 0.5, samples=101, tol=1e-12)
        for attr in ("q", "p", "xi"):
            assert sup_gap(tre, tro, attr) <= 1e-5
        # dual-sign internal agreement of p(t):
        # |P(+i inf) - P(-i inf)| = 2 max |diag xi(t)|
        assert 2 * fact.diagnostics["momentum_residual"] <= 1e-8
        # limiting-Lax Lax equation along the exact flow (5-point stencil)
        dense = np.linspace(0.0, 0.5, 251)
        trd, _ = solve_trig(spec, pt, dense)
        dt = dense[1] - dense[0]
        Lp = [lax_limit(spec, trd.point(i), "trig_plus_i_inf") for i in range(len(dense))]
        Lm = [lax_limit(spec, trd.point(i), "trig_minus_i_inf") for i in range(len(dense))]
        for m in range(2, len(dense) - 2, 25):
            st = trd.point(m)
            A = alpha_matrix(st.q)
            G = np.zeros_like(st.xi)
            ms = spec.mask_span
            G[ms] = -st.xi[ms] / np.sin(A[ms]) ** 2
            for Ls in (Lp, Lm):
                dL = (8 * (Ls[m + 1] - Ls[m - 1])
                      - (Ls[m + 2] - Ls[m - 2])) / (12 * dt)
                assert np.abs(dL - (Ls[m] @ G - G @ Ls[m])).max() <= 1e-5
    # reduced variants
    rpt2 = ReducedPoint(q=[np.pi / 8, -np.pi / 8], p=[1, -1], s=E12 + 0.8 * E21)
    trr = solve_trig(spec2, rpt2, times)[0]
    tror = integrate(spec2, rpt2, 0.5, samples=101, tol=1e-12)
    for attr in ("q", "p", "xi"):
        assert sup_gap(trr, tror, attr) <= 1e-5
    rpt3 = random_reduced(spec3, np.random.default_rng(607), scale=0.3)
    trr3 = solve_trig(spec3, rpt3, np.linspace(0, 0.5, 51))[0]
    tror3 = integrate(spec3, rpt3, 0.5, samples=51, tol=1e-12)
    for attr in ("q", "p", "xi"):
        assert sup_gap(trr3, tror3, attr) <= 1e-5


@criterion(7, "reduction compatibility (pi_0-equivariance)")
def test_criterion_7_reduction_compatibility():
    for name, spec in families(3).items():
        rpt = random_reduced(spec, np.random.default_rng(707), scale=0.35)
        t_end = 0.5
        lift = PhasePoint(q=rpt.q, p=rpt.p, xi=rpt.s)
        tr_full = integrate(spec, lift, t_end, samples=26, tol=1e-12)
        tr_red = integrate(spec, rpt, t_end, samples=26, tol=1e-12)
        for i in range(len(tr_red.y)):
            red = reduce_point(spec.ctx, tr_full.point(i))
            assert np.abs(red.s - tr_red.xi[i]).max() <= 1e-6, name
        assert np.abs(tr_full.q - tr_red.q).max() <= 1e-6, name
    # exact flows where available
    times = np.linspace(0.0, 0.5, 26)
    spec_r = rational_model(build_sl_context(3), full_delta(3))
    rpt = random_reduced(spec_r, np.random.default_rng(708), scale=0.35)
    tr_full, _ = solve_rational(spec_r, PhasePoint(q=rpt.q, p=rpt.p, xi=rpt.s),
                                times)
    tr_red = solve_rational(spec_r, rpt, times)[0]
    for i in range(len(times)):
        assert np.abs(reduce_point(spec_r.ctx, tr_full.point(i)).s - tr_red.xi[i]).max() <= 1e-6
    spec_t = trig_model(build_sl_context(3), pi_subset([0]))
    rpt = random_reduced(spec_t, np.random.default_rng(709), scale=0.3)
    tr_full, _ = solve_trig(spec_t, PhasePoint(q=rpt.q, p=rpt.p, xi=rpt.s),
                            times)
    tr_red = solve_trig(spec_t, rpt, times)[0]
    for i in range(len(times)):
        assert np.abs(reduce_point(spec_t.ctx, tr_full.point(i)).s - tr_red.xi[i]).max() <= 1e-6


@criterion(8, "spectral-curve genus (quantitative)")
def test_criterion_8_genus():
    spec2 = elliptic_model(build_sl_context(2), LAT)
    pt2 = PhasePoint(q=[0.31 + 0.11j, -0.31 - 0.11j], p=[0.4, -0.4],
                     xi=E12 + 2 * E21)
    B2, g2 = branch_count_genus(spec2, pt2)
    assert (B2, g2) == (6, 2)
    assert g2 == (2 * 2 - 2 + 2) // 2
    spec3 = elliptic_model(build_sl_context(3), LAT)
    rng = np.random.default_rng(808)
    xi3 = 0.6 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    np.fill_diagonal(xi3, 0.0)
    pt3 = PhasePoint(q=[0.45 + 0.05j, 0.02 - 0.11j, -0.47 + 0.06j],
                     p=[0.3, -0.1, -0.2], xi=xi3)
    B3, g3 = branch_count_genus(spec3, pt3)
    assert (B3, g3) == (12, 4)
    assert g3 == (3 * 3 - 3 + 2) // 2


@criterion(9, "gauge periodicity of the elliptic Lax")
def test_criterion_9_gauge_periodicity():
    spec = elliptic_model(build_sl_context(2), LAT)
    rng = np.random.default_rng(909)
    for _ in range(5):
        pt = random_point(spec, rng, scale=0.5, q_imag=0.1)
        zs = rand_regular_z(rng, 3)
        for z in zs:
            Le = gauge_lax(spec, pt, z)
            a0 = char_poly_coeffs(spec, pt, z).a
            for per in (2 * LAT.omega1, 2 * LAT.omega2):
                assert np.abs(gauge_lax(spec, pt, z + per) - Le).max() <= 1e-9
                a1 = char_poly_coeffs(spec, pt, z + per).a
                assert np.abs(a1 - a0).max() <= 1e-9


@criterion(10, "breakdown semantics at the analytic collision time")
def test_criterion_10_breakdown(tmp_path):
    spec = rational_model(build_sl_context(2), full_delta(2))
    pt = PhasePoint(q=[1, -1], p=[-1, 1], xi=E12 + E21)
    with pytest.raises(BreakdownError) as exc:
        solve_rational(spec, pt, np.linspace(0, 1, 101))
    assert abs(exc.value.time - 2.0 / 3.0) <= 1e-3
    assert exc.value.partial is not None and len(exc.value.partial.times) > 0
    out = tmp_path / "breakdown.csv"
    code = cli_main(["exact", "--preset", "collision-sl2", "--out", str(out)])
    assert code == 3
    text = out.read_text()
    rows = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(rows) > 1  # header + partial data
    t_rep = None
    for line in text.splitlines():
        if line.startswith("# breakdown_at:"):
            t_rep = float(line.split(":")[1])
    assert t_rep is not None and abs(t_rep - 2.0 / 3.0) <= 1e-3
