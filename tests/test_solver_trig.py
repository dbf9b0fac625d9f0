"""Exact trigonometric factorization solver: parabolic/Levi components and the
assembled flow against the RK oracle."""

import numpy as np
import pytest
from scipy.linalg import expm

from oracles import pi_root_sets
from sampling import random_point, random_reduced
from spincm import exact, solver_trig
from spincm.errors import BreakdownError, ValidationError
from spincm.exact import left_divide, transport
from spincm.liecore import build_sl_context, pi_subset
from spincm.models import (PhasePoint, ReducedPoint, lax, lax_limit,
                           reduce_point, trig_model)
from spincm.presets import load_preset
from spincm.rk import integrate
from spincm.solver_trig import parabolic_factor, solve_trig

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = E12.T


@pytest.fixture(scope="module")
def ctx2():
    return build_sl_context(2)


@pytest.fixture(scope="module")
def spec2(ctx2):
    return trig_model(ctx2, pi_subset([0]))


def sup_gap(ta, tb, attr):
    return float(np.abs(getattr(ta, attr) - getattr(tb, attr)).max())


# -- parabolic factorization -----------------------------------------------------

def test_parabolic_empty_levi(ctx2):
    spec = trig_model(ctx2, pi_subset([]))
    A = np.array([[1, 1], [0, 1]], dtype=complex)
    n, g = parabolic_factor(spec, A, "+")
    assert np.allclose(n, A) and np.allclose(g, np.eye(2))
    A2 = np.array([[2, 1], [0, 0.5]], dtype=complex)
    n2, g2 = parabolic_factor(spec, A2, "+")
    assert np.allclose(g2, np.diag([2.0, 0.5]))
    assert np.allclose(n2, [[1, 2], [0, 1]])
    assert np.abs(n2 @ g2 - A2).max() < 1e-15


def test_parabolic_full_levi(spec2):
    A = np.array([[1.1, 0.4], [0.2, (1 + 0.4 * 0.2 / 1.1) / 1.1]], dtype=complex)
    n, g = parabolic_factor(spec2, A, "+")
    assert np.allclose(n, np.eye(2))
    assert np.allclose(g, A)


def test_parabolic_rejects_wrong_shape(ctx2):
    spec = trig_model(ctx2, pi_subset([]))
    A = np.array([[1, 0], [1, 1]], dtype=complex)
    with pytest.raises(ValidationError):
        parabolic_factor(spec, A, "+")
    n, g = parabolic_factor(spec, A, "-")  # lower is fine for sign -
    assert np.allclose(n @ g, A)
    with pytest.raises(BreakdownError):
        parabolic_factor(spec, np.array([[0, 1], [0, 1]], dtype=complex), "+")
    # a stack is factorized and checked matrix by matrix, each against its
    # own scale: a 1e-6 entry outside the blocks fails next to a 1e6 I
    good = np.array([[1, 1], [0, 1]], dtype=complex)
    n, g = parabolic_factor(spec, np.stack([good, 2 * good]), "+")
    assert np.array_equal(n[1], parabolic_factor(spec, 2 * good, "+")[0])
    assert np.allclose(n @ g, np.stack([good, 2 * good]))
    tiny = np.array([[1, 0], [1e-6, 1]], dtype=complex)
    with pytest.raises(ValidationError):
        parabolic_factor(spec, np.stack([1e6 * np.eye(2), tiny]), "+")
    with pytest.raises(BreakdownError):
        parabolic_factor(spec, np.stack([good, [[0, 1], [0, 1]]]), "+")


def test_parabolic_sl3():
    spec = trig_model(build_sl_context(3), pi_subset([0]))
    rng = np.random.default_rng(2)
    L = np.zeros((3, 3), dtype=complex)
    L[:2, :2] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    L[2, 2] = -np.trace(L)
    L[0, 2], L[1, 2] = 0.3 + 0.1j, -0.2j
    A = expm(1j * 0.3 * L)
    n, g = parabolic_factor(spec, A, "+")
    assert np.abs(n @ g - A).max() < 1e-12
    assert np.abs(n[2, :2]).max() < 1e-14 and abs(n[2, 2] - 1) < 1e-14
    assert np.abs(g[:2, 2]).max() == 0.0


@pytest.mark.parametrize("N, members", [(4, [0, 2]), (5, [1])])
def test_parabolic_membership_masks(N, members):
    """A block-triangular A for sign + (-) may carry entries at the span of
    pi' but at no root outside it below (above) the blocks: one entry at
    any such root raises ValidationError."""
    spec = trig_model(build_sl_context(N), pi_subset(members))
    span, obar_plus, obar_minus = pi_root_sets(N, members)
    for sign, outside in (("+", obar_minus), ("-", obar_plus)):
        for i, j in span:
            A = np.eye(N, dtype=complex)
            A[i, j] = 0.5
            n, g = parabolic_factor(spec, A, sign)
            assert np.abs(n @ g - A).max() < 1e-15 and g[i, j] == 0.5
        for i, j in outside:
            A = np.eye(N, dtype=complex)
            A[i, j] = 0.5
            with pytest.raises(ValidationError):
                parabolic_factor(spec, A, sign)


# -- the transported log of a group-valued path -----------------------------------

def test_cartan_log_unwraps_free_path():
    """On a free path diag(e^{2i(q0 + t p)}) the transported log follows
    2i(q0 + t p) past the branch cut of the principal log."""
    q0 = np.array([0.4, -0.4])
    p = np.array([3.0, -3.0])  # 2*q(t) leaves (-pi, pi] well before t=1

    def Mfun(t):
        """M(t), stacked over an array of times."""
        return np.exp(2j * (q0 + np.asarray(t)[..., None] * p))[..., None] * np.eye(2)

    times = np.linspace(0, 1.0, 60)
    _, logds, _, diags, error = transport(
        lambda t: (Mfun(t), ()),
        lambda t, k, d: left_divide(k, Mfun(t) * 2j * p @ k),
        ((0,), (1,)), times, 1e-10, 2j * q0)
    out = list(zip(times, logds))
    assert error is None and len(out) == len(times)
    for t, logd in out:
        assert np.abs(logd / 2j - (q0 + t * p)).max() < 1e-12


def test_cartan_log_constant_and_errors():
    """A constant group-valued path keeps its log exactly.  A path whose
    derivative turns NaN at t = 0.5 stalls the transport with no eigenvalue
    collision to locate: the run ends in BreakdownError there, with the
    states before it recorded and none past it."""
    q0 = np.array([0.2, -0.2])
    M = np.diag(np.exp(2j * q0))
    out = []

    def run(Mdot):
        times = np.linspace(0, 1, 5)
        _, logds, _, diags, error = transport(
            lambda t: (np.broadcast_to(M, np.shape(t) + M.shape), ()),
            lambda t, k, d: left_divide(k, Mdot(t) @ k),
            ((0,), (1,)), times, 1e-10, 2j * q0)
        out[:] = zip(times, logds)
        return diags, error

    zero, nan = np.zeros((2, 2), dtype=complex), np.full((2, 2), np.nan + 0j)
    diags, error = run(lambda t: zero)
    assert error is None and len(out) == 5
    assert all(np.abs(logd / 2j - q0).max() == 0 for _, logd in out)
    with np.errstate(invalid="ignore"):
        diags, error = run(lambda t: nan if np.real(t) > 0.5 else zero)
    assert isinstance(error, BreakdownError) and "stalled" in str(error)
    assert abs(error.time - 0.5) < 1e-6
    assert [t for t, _ in out] == [0.0, 0.25, 0.5]
    assert diags["nrejected"] > 0


def test_transport_ends_before_the_path_breaks_down():
    """A path with M only at its first three output times (a factorization
    that breaks down at the fourth) ends the transport at the third, in a
    BreakdownError at the fourth time, with the rows and factors before it."""
    q0 = np.array([0.2, -0.2])
    M = np.diag(np.exp(2j * q0))
    times = np.linspace(0, 1, 6)

    def path(t):
        stack = np.broadcast_to(M, np.shape(t) + M.shape)
        return stack[:3], (stack[:3],)

    zero = np.zeros((2, 2), dtype=complex)
    k, logds, factors, diags, error = transport(
        path, lambda t, k, d: left_divide(k, zero @ k), ((0,), (1,)), times,
        1e-10, 2j * q0)
    assert isinstance(error, BreakdownError) and error.time == times[3]
    assert "no factorization" in str(error)
    assert len(k) == len(logds) == len(factors[0]) == 3
    assert np.abs(logds / 2j - q0).max() == 0


def test_path_ends_before_its_first_singular_block():
    """On trig-sl2 over [0, 15] (101 output times) |det exp(+/-itL(+/-i inf))|
    = 1 falls under 1e-12 scale^2 first at t = 14.25: the path over the grid
    stops there (95 matrices), while the path at that one time raises."""
    data = load_preset("trig-sl2")
    spec = data["model"]
    path = solver_trig._setup(spec, data["init"])[0]
    times = np.linspace(0, 15, 101)
    Ms, factors = path(times)
    assert len(Ms) == 95 and times[95] == 14.25
    assert all(len(fac) == 95 for fac in factors)
    with pytest.raises(BreakdownError):
        path(times[95])


def test_stalled_transport_is_breakdown(monkeypatch):
    """An output interval that takes more than STALL_STEPS accepted steps
    ends the solve in a BreakdownError naming the stall, with the rows
    before it; the same solve passes at the default budget."""
    data = load_preset("trig-sl3")
    spec, pt = data["model"], data["init"]
    times = np.linspace(0, 0.3, 4)
    traj, _ = solve_trig(spec, pt, times, 1e-12)
    assert len(traj.times) == 4
    monkeypatch.setattr(exact, "STALL_STEPS", 3)
    with pytest.raises(BreakdownError) as exc:
        solve_trig(spec, pt, times, 1e-12)
    assert "stalled" in str(exc.value)
    part = exc.value.partial
    assert 0 < exc.value.time < 0.1 and list(part.times) == [0.0]


# -- the closed-form Levi path -------------------------------------------------------

@pytest.mark.parametrize("N, members", [(3, [0]), (4, [0, 1])])
def test_closed_form_levi_path(N, members):
    """The path's M(t) = g_-^-1 e^{2i q0} g_+ of the parabolic factors equals
    the closed form e^{it Lam_-} e^{2i q0} e^{it Lam_+} (Lam_+/- the Levi
    parts of L(+/-i inf)), also at the complex t of collision location, and
    on blockwise eigenpairs M k = k d the velocity equals k^-1 M'(t) k."""
    ctx = build_sl_context(N)
    spec = trig_model(ctx, pi_subset(members))
    pt = random_point(spec, np.random.default_rng(N), scale=0.4)
    path, velocity, *_ = solver_trig._setup(spec, pt)
    Lp = lax_limit(spec, pt, "trig_plus_i_inf")
    Lm = lax_limit(spec, pt, "trig_minus_i_inf")
    levi = spec.mask_span | np.eye(N, dtype=bool)
    Lam_p, Lam_m = np.where(levi, Lp, 0.0), np.where(levi, Lm, 0.0)
    e2iq0 = np.diag(np.exp(2j * pt.q))

    def closed_form(t):
        return expm(1j * t * Lam_m) @ e2iq0 @ expm(1j * t * Lam_p)

    for t in (0.05, 0.2, 0.15 + 0.08j):
        M, (n_plus, n_minus, g_plus, g_minus) = path(t)
        assert np.abs(M - closed_form(t)).max() <= 1e-12
        assert np.abs(M - np.linalg.solve(g_minus, e2iq0 @ g_plus)).max() <= 1e-14
        assert np.abs(n_plus @ g_plus - expm(1j * t * Lp)).max() <= 1e-12
        assert np.abs(n_minus @ g_minus - expm(-1j * t * Lm)).max() <= 1e-12
    dt = 1e-5
    for t in (0.05, 0.2):
        M = path(t)[0]
        k, d = np.zeros((N, N), dtype=complex), np.zeros(N, dtype=complex)
        for blk in spec.subset.partition:
            idx = np.ix_(blk, blk)
            d[list(blk)], k[idx] = np.linalg.eig(M[idx])
        central = (path(t + dt)[0] - path(t - dt)[0]) / (2 * dt)
        assert np.abs(velocity(t, k, d) - np.linalg.solve(k, central @ k)).max() <= 1e-7


def _count_expm(monkeypatch):
    """Counts of solver_trig's expm calls and of the matrices they
    exponentiate: all, and those made while locating a collision."""
    count = {"expm": 0, "matrices": 0, "collision": 0, "collision_matrices": 0,
             "in_collision": False}
    expm0, collision0 = solver_trig.expm, exact.locate_collision

    def counted_expm(A):
        matrices = int(np.prod(np.shape(A)[:-2]))
        count["expm"] += 1
        count["matrices"] += matrices
        if count["in_collision"]:
            count["collision"] += 1
            count["collision_matrices"] += matrices
        return expm0(A)

    def counted_collision(*args):
        count["in_collision"] = True
        try:
            return collision0(*args)
        finally:
            count["in_collision"] = False

    monkeypatch.setattr(solver_trig, "expm", counted_expm)
    monkeypatch.setattr(exact, "locate_collision", counted_collision)
    return count


def test_expm_per_node_and_sample(monkeypatch):
    """A trig-sl3 solve, which meets no collision, makes exactly two expm
    calls, one per sign over the stack of all output times (the parabolic
    factors, which also give the M(t) that polishes the state and is scanned
    for collisions), so two matrices per output time, and none per
    transport f-evaluation."""
    count = _count_expm(monkeypatch)
    data = load_preset("trig-sl3")
    times = np.linspace(0, data["defaults"]["t_end"], data["defaults"]["samples"])
    _, fact = solve_trig(data["model"], data["init"], times)
    assert fact.diagnostics["nfev"] > len(times)
    assert count["expm"] == 2 and count["matrices"] == 2 * len(times)
    assert count["collision"] == 0


def test_expm_in_breakdown_solve(monkeypatch):
    """A trig-sl2-breakdown solve builds the path of the whole output grid
    once, before the transport: two expm calls on two matrices per output
    time, plus those of collision location, which builds M(t) from the path
    at one complex t per call."""
    count = _count_expm(monkeypatch)
    data = load_preset("trig-sl2-breakdown")
    times = np.linspace(0, data["defaults"]["t_end"], data["defaults"]["samples"])
    with pytest.raises(BreakdownError):
        solve_trig(data["model"], data["init"], times)
    assert count["collision"] > 0
    assert count["collision_matrices"] == count["collision"]
    assert count["expm"] - count["collision"] == 2
    assert count["matrices"] - count["collision_matrices"] == 2 * len(times)


def test_eig_residual_bounds_drift():
    """The transport's drift off M k = k d, measured before the polish at the
    output times, stays at the integration error on trig-sl3 at tol 1e-12."""
    data = load_preset("trig-sl3")
    times = np.linspace(0, data["defaults"]["t_end"], data["defaults"]["samples"])
    tr, fact = solve_trig(data["model"], data["init"], times, 1e-12)
    assert 0 < fact.diagnostics["eig_residual"] <= 1e-9
    assert tr.stats["eig_residual"] == fact.diagnostics["eig_residual"]


# -- the assembled flow ------------------------------------------------------------

def test_solve_free(spec2):
    pt = PhasePoint(q=[0.3, -0.3], p=[2, -2], xi=np.zeros((2, 2)))
    times = np.linspace(0, 1.0, 21)
    tr, fact = solve_trig(spec2, pt, times)
    assert np.allclose(tr.q, pt.q + tr.times[:, None] * pt.p, atol=1e-10)
    assert np.allclose(tr.p, pt.p, atol=1e-10)
    assert tr.provenance == "exact-trig"


def test_solve_sl2_matches_oracle(spec2):
    pt = PhasePoint(q=[np.pi / 8, -np.pi / 8], p=[1, -1], xi=E12 + E21)
    times = np.linspace(0, 0.5, 51)
    tre, fact = solve_trig(spec2, pt, times)
    tro = integrate(spec2, pt, 0.5, samples=51, tol=1e-12)
    for attr in ("q", "p", "xi"):
        assert sup_gap(tre, tro, attr) <= 1e-6
    assert fact.diagnostics["p_sign_mismatch"] <= 1e-8


def test_solve_sl3_matches_oracle():
    spec = trig_model(build_sl_context(3), pi_subset([0]))
    pt = random_point(spec, np.random.default_rng(7), scale=0.4)
    times = np.linspace(0, 0.3, 31)
    tre, _ = solve_trig(spec, pt, times)
    tro = integrate(spec, pt, 0.3, samples=31, tol=1e-12)
    for attr in ("q", "p", "xi"):
        assert sup_gap(tre, tro, attr) <= 1e-5


def test_factorization_identities(spec2):
    pt = PhasePoint(q=[np.pi / 8, -np.pi / 8], p=[1, -1], xi=E12 + E21)
    times = np.linspace(0, 0.5, 201)
    _, fact = solve_trig(spec2, pt, times)
    Lp = lax_limit(spec2, pt, "trig_plus_i_inf")
    Lm = lax_limit(spec2, pt, "trig_minus_i_inf")
    e2iq0 = np.diag(np.exp(2j * pt.q))
    for m in range(0, len(fact.times), 10):
        t = fact.times[m]
        assert np.abs(expm(1j * t * Lp)
                      - fact.n_plus[m] @ fact.g_plus[m]).max() < 1e-10
        assert np.abs(expm(-1j * t * Lm)
                      - fact.n_minus[m] @ fact.g_minus[m]).max() < 1e-10
        B = np.linalg.solve(fact.g_minus[m], e2iq0 @ fact.g_plus[m])
        x, d = fact.x[m], fact.d[m]
        assert np.abs(x @ np.diag(d) @ np.linalg.inv(x) - B).max() < 1e-10
        assert np.abs(fact.x[m] * fact.h[m][None, :] - fact.k_plus[m]).max() < 1e-10
    # Cartan condition Pi_h(k_+^-1 k_+') = 0 via a 5-point stencil
    dt = fact.times[1] - fact.times[0]
    for m in range(2, len(fact.times) - 2):
        kdot = (8 * (fact.k_plus[m + 1] - fact.k_plus[m - 1])
                - (fact.k_plus[m + 2] - fact.k_plus[m - 2])) / (12 * dt)
        cart = np.diag(np.linalg.solve(fact.k_plus[m], kdot))
        assert np.abs(cart).max() < 1e-6


def test_limit_lax_equation(spec2):
    """d/dt L(+/-i inf)(t) == [L(+/-i inf)(t), -sum_span csc^2(a(q)) xi_a e_a]."""
    pt = PhasePoint(q=[np.pi / 8, -np.pi / 8], p=[1, -1], xi=E12 + E21)
    times = np.linspace(0, 0.5, 251)
    tre, _ = solve_trig(spec2, pt, times)
    dt = times[1] - times[0]
    Ls = {s: [lax_limit(spec2, tre.point(i), s) for i in range(len(times))]
          for s in ("trig_plus_i_inf", "trig_minus_i_inf")}
    from spincm.models import alpha_matrix
    for m in range(2, len(times) - 2, 10):
        st = tre.point(m)
        A = alpha_matrix(st.q)
        G = np.zeros_like(st.xi)
        ms = spec2.mask_span
        G[ms] = -st.xi[ms] / np.sin(A[ms]) ** 2
        for s in Ls:
            dL = (8 * (Ls[s][m + 1] - Ls[s][m - 1])
                  - (Ls[s][m + 2] - Ls[s][m - 2])) / (12 * dt)
            comm = Ls[s][m] @ G - G @ Ls[s][m]
            assert np.abs(dL - comm).max() <= 1e-5


def test_conjugation_consistency(spec2):
    """L(q(t),p(t),xi(t))(z) == k_+(0,t)^-1 L0(z) k_+(0,t)."""
    pt = PhasePoint(q=[np.pi / 8, -np.pi / 8], p=[1, -1], xi=E12 + E21)
    times = np.linspace(0, 0.5, 11)
    tre, fact = solve_trig(spec2, pt, times)
    for z in (0.7, 1.1j, 0.5 - 0.4j):
        L0 = lax(spec2, pt, z)
        for i, k in enumerate(fact.k_plus):
            lhs = lax(spec2, tre.point(i), z)
            rhs = np.linalg.solve(k, L0) @ k
            assert np.abs(lhs - rhs).max() <= 1e-7


def test_k_minus_membership(spec2):
    """k_-(+/-i inf, t) = exp(+/-it L0(+/-i inf)) k_+(0,t) lies in P^{+/-}."""
    pt = PhasePoint(q=[np.pi / 8, -np.pi / 8], p=[1, -1], xi=E12 + E21)
    times = np.linspace(0, 0.5, 11)
    _, fact = solve_trig(spec2, pt, times)
    Lp = lax_limit(spec2, pt, "trig_plus_i_inf")
    Lm = lax_limit(spec2, pt, "trig_minus_i_inf")
    for t, k in zip(fact.times, fact.k_plus):
        km_p = expm(1j * t * Lp) @ k
        km_m = expm(-1j * t * Lm) @ k
        # pi' = pi for sl(2): the parabolic subgroups are everything; check the
        # finer statement through the block structure of the empty subset case
        assert np.all(np.isfinite(km_p)) and np.all(np.isfinite(km_m))


def test_k_minus_membership_proper_parabolic():
    """With pi' a proper subset, the k_- factors really are block triangular."""
    ctx = build_sl_context(3)
    spec = trig_model(ctx, pi_subset([0]))
    pt = random_point(spec, np.random.default_rng(7), scale=0.4)
    times = np.linspace(0, 0.3, 11)
    _, fact = solve_trig(spec, pt, times)
    Lp = lax_limit(spec, pt, "trig_plus_i_inf")
    Lm = lax_limit(spec, pt, "trig_minus_i_inf")
    for t, k in zip(fact.times, fact.k_plus):
        km_p = expm(1j * t * Lp) @ k
        km_m = expm(-1j * t * Lm) @ k
        assert np.abs(km_p[2, :2]).max() <= 1e-9  # below the block: P^+
        assert np.abs(km_m[:2, 2]).max() <= 1e-9  # above the block: P^-


def test_cot_branch_relation_along_flow(spec2):
    """c(a(q))+i = e^{2i a(q)} (c(a(q))-i) along the solved path (branch trip-wire)."""
    pt = PhasePoint(q=[np.pi / 8, -np.pi / 8], p=[1, -1], xi=E12 + E21)
    tre, _ = solve_trig(spec2, pt, np.linspace(0, 0.5, 26))
    for q in tre.q:
        w = q[0] - q[1]
        c = 1.0 / np.tan(w)
        assert abs((c + 1j) - np.exp(2j * w) * (c - 1j)) < 1e-12


def test_reduced_flows(spec2):
    s0 = E12 + 0.8 * E21
    rpt = ReducedPoint(q=[np.pi / 8, -np.pi / 8], p=[1, -1], s=s0)
    times = np.linspace(0, 0.5, 26)
    trr = solve_trig(spec2, rpt, times)[0]
    assert np.all(trr.xi[:, 0, 1] == 1.0)
    # against reduction of the full exact flow
    trf, _ = solve_trig(spec2, PhasePoint(q=rpt.q, p=rpt.p, xi=s0), times)
    for i in range(len(times)):
        assert np.abs(reduce_point(spec2.ctx, trf.point(i)).s - trr.xi[i]).max() <= 1e-8
    # against the RK oracle of the reduced equations
    tro = integrate(spec2, rpt, 0.5, samples=26, tol=1e-12)
    assert sup_gap(trr, tro, "q") <= 1e-6
    assert sup_gap(trr, tro, "xi") <= 1e-6


def test_reduced_sl3():
    spec = trig_model(build_sl_context(3), pi_subset([0]))
    rpt = random_reduced(spec, np.random.default_rng(3), scale=0.3)
    times = np.linspace(0, 0.3, 16)
    trr = solve_trig(spec, rpt, times)[0]
    tro = integrate(spec, rpt, 0.3, samples=16, tol=1e-12)
    assert sup_gap(trr, tro, "q") <= 1e-5
    assert sup_gap(trr, tro, "xi") <= 1e-5


def test_trig_breakdown_detected(spec2):
    pt = PhasePoint(q=[np.pi / 8, -np.pi / 8], p=[-1, 1],
                    xi=0.2 * (E12 + E21))
    with pytest.raises(BreakdownError) as exc:
        solve_trig(spec2, pt, np.linspace(0, 1.5, 151))
    assert exc.value.partial is not None
    assert 0 < exc.value.time < 1.5


def test_solve_complex_q_datum():
    """Fully complex phase-space data (q, p off the real slice)."""
    spec = trig_model(build_sl_context(3), pi_subset([1]))  # pi' = {alpha_2}
    rng = np.random.default_rng(77)
    xi = 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    np.fill_diagonal(xi, 0.0)
    q = np.array([0.5 + 0.1j, 0.05 - 0.15j, -0.55 + 0.05j])
    p = np.array([0.2 - 0.1j, -0.1 + 0.05j, -0.1 + 0.05j])
    pt = PhasePoint(q=q - q.mean(), p=p - p.mean(), xi=xi)
    times = np.linspace(0, 0.4, 41)
    tre, fact = solve_trig(spec, pt, times)
    tro = integrate(spec, pt, 0.4, samples=41, tol=1e-12)
    for attr in ("q", "p", "xi"):
        assert sup_gap(tre, tro, attr) <= 1e-6
    assert fact.diagnostics["p_sign_mismatch"] <= 1e-8


# -- beyond N = 4: trigonometric N = 5, 6 against the oracle -------------------------

@pytest.mark.parametrize("N, members", [pytest.param(5, [0, 2], id="n5-a1a3"),
                                        pytest.param(6, [0, 2, 3], id="n6-a1a3a4")])
def test_beyond_n4_matches_oracle(N, members):
    """Seeded points on [0, 0.3], 31 samples: the solve agrees with the oracle
    at tol 1e-12, or breaks down within 1e-6 of the oracle's blowup time."""
    spec = trig_model(build_sl_context(N), pi_subset(members))
    pt = random_point(spec, np.random.default_rng(0), scale=0.4)
    times = np.linspace(0, 0.3, 31)
    tro = integrate(spec, pt, 0.3, samples=31, tol=1e-12)
    try:
        tre, _ = solve_trig(spec, pt, times)
    except BreakdownError as exc:
        assert tro.blowup and abs(exc.time - tro.last_good_time) <= 1e-6
        return
    assert not tro.blowup
    assert sup_gap(tre, tro, "xi") <= 1e-6
    assert sup_gap(tre, tro, "q") <= 1e-9
    assert sup_gap(tre, tro, "p") <= 1e-9
