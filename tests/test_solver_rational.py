"""Exact rational factorization solver against the RK oracle and its own
structural identities."""

import warnings

import numpy as np
import pytest

from oracles import r_action_on_M
from sampling import random_point, random_reduced
from spincm import exact, models, solver_rational, solver_trig
from spincm.exact import left_divide, present, transport
from spincm.errors import (BreakdownError, ContractError, DomainError,
                           ValidationError)
from spincm.liecore import build_sl_context, delta_subset, pi_subset
from spincm.models import (PhasePoint, ReducedPoint, lax, lax_limit,
                           rational_model, reduce_point, trig_model)
from spincm.presets import load_preset
from spincm.rk import integrate
from spincm.solver_rational import solve_rational
from spincm.solver_trig import solve_trig

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
    return float(np.abs(getattr(ta, attr) - getattr(tb, attr)).max())


# -- Kato transport along a block-diagonal path (under both solvers) ------------

def col(t):
    """t, scalar or an array of times, as a (..., 1, 1) array to scale an
    (N, N) matrix by, once per time."""
    return np.asarray(t)[..., None, None]


def every_row(k, d):
    """A transport's row check that accepts every row."""
    return len(k), None, None


def run_transport(M, Mdot, blocks, times, tol=1e-12):
    """(times, k, d) at the output times of the transport along M(t), M
    stacked over an array of times."""
    k, d, _, _, diags, error = transport(lambda t: (M(t), ()),
                                         lambda t, k, d: left_divide(k, Mdot @ k),
                                         blocks, times, tol, None, every_row)
    assert error is None and diags["nfev"] > 1
    return list(zip(times, k, d))


@pytest.mark.parametrize("N", range(2, 8))
def test_left_divide_is_numpy_solve(N):
    """left_divide gives the bits of np.linalg.solve on random complex k, with
    right-hand sides N x N and N x 2N."""
    rng = np.random.default_rng(N)
    k = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    for m in (N, 2 * N):
        rhs = rng.standard_normal((N, m)) + 1j * rng.standard_normal((N, m))
        assert np.array_equal(left_divide(k, rhs), np.linalg.solve(k, rhs))


SINGULAR_K = [np.zeros((3, 3), dtype=complex),
              np.array([[1, 2, 3], [2, 4, 6], [1, 1, 1]], dtype=complex),
              np.diag([1.0, 0.0]).astype(complex)]


@pytest.mark.parametrize("k", SINGULAR_K, ids=["zero", "rank-2", "diag"])
def test_left_divide_singular_k_raises_without_warning(k):
    """An exactly singular k raises the DomainError and emits no warning:
    called directly under the error state that ``transport`` holds, and from
    a velocity inside ``transport`` (at its first f-evaluation, and past
    t = 0.4, where the failed stages end the run in a stall)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"), pytest.raises(
                DomainError, match="singular transported eigenvector matrix"):
            left_divide(k, np.eye(len(k), dtype=complex))
        N = len(k)
        E = np.eye(N, k=1, dtype=complex)
        M, block = np.diag(np.arange(N)).astype(complex), (tuple(range(N)),)
        path = lambda t: (M + col(t) * E, ())
        times = np.linspace(0.0, 1.0, 5)
        with pytest.raises(DomainError, match="singular transported"):
            transport(path, lambda t, kk, d: left_divide(k, E @ kk),
                      block, times, 1e-10, None, every_row)
        kt, *_, error = transport(
            path, lambda t, kk, d: left_divide(kk if t < 0.4 else k, E @ kk),
            block, times, 1e-10, None, every_row)
    assert len(kt) == 2 and isinstance(error, BreakdownError)
    assert "stalled" in str(error) and 0.4 - 1e-9 <= error.time <= 0.4


def test_diagonalize_diagonal_matrix():
    """A constant diagonal path is already diagonal: k stays the identity and
    d the diagonal."""
    M = np.diag([3.0, 1.0, -4.0]).astype(complex)
    zero = np.zeros((3, 3), dtype=complex)
    for t, k, d in run_transport(lambda t: np.broadcast_to(M, np.shape(t) + M.shape),
                                 zero, ((0, 1, 2),),
                                 np.linspace(0, 1, 3)):
        assert np.allclose(k, np.eye(3))
        assert np.allclose(d, [3, 1, -4])


def test_diagonalize_sl2_example():
    """M(t) = diag(3, -3) + t K has eigenvalues +/-sqrt(9 - t^2/4); the
    transported d(t) follows that branch, k diagonalizes M with det k = 1,
    and the presented g has det 1 and starts at the identity."""
    M0 = np.diag([3.0, -3.0]).astype(complex)
    K = np.array([[0.0, 0.5], [-0.5, 0.0]], dtype=complex)
    for t, k, d in run_transport(lambda t: M0 + col(t) * K, K, ((0, 1),),
                                 np.linspace(0, 1, 11)):
        lam = np.sqrt(9 - 0.25 * t * t)
        assert np.abs(d - [lam, -lam]).max() < 1e-12
        assert np.abs(k @ np.diag(d) @ np.linalg.inv(k) - (M0 + t * K)).max() < 1e-12
        assert abs(np.linalg.det(k) - 1.0) < 1e-10
        g, h = present(k)
        assert abs(np.linalg.det(g) - 1.0) < 1e-12
        assert np.abs(g * h[None, :] - k).max() < 1e-12
        if t == 0:
            assert np.abs(g - np.eye(2)).max() < 1e-15


def test_present_stack_is_per_matrix():
    """present on a stack of matrices is, bit for bit, the per-matrix
    presentation: unit columns times their geometric mean over the
    principal N-th root of det k (a Python complex power)."""
    def reference(k):
        norms = np.linalg.norm(k, axis=0)
        s = np.exp(np.log(norms).mean()) / complex(np.linalg.det(k)) ** (1.0 / len(k))
        return k * (s / norms)[None, :], norms / s

    rng = np.random.default_rng(11)
    for N in range(2, 8):
        K = rng.standard_normal((6, N, N)) + 1j * rng.standard_normal((6, N, N))
        g, h = present(K)
        for i in range(len(K)):
            for gi, hi in (present(K[i]), reference(K[i])):
                assert np.array_equal(g[i], gi) and np.array_equal(h[i], hi)


def test_diagonalize_blockwise():
    """Blocks stay decoupled: k is block-diagonal and the singleton keeps its
    diagonal entry."""
    M1 = np.zeros((3, 3), dtype=complex)
    M1[:2, :2] = [[1.0, 0.5], [0.5, -1.0]]
    M1[2, 2] = 0.25
    M0 = np.diag(np.diag(M1))
    Mdot = M1 - M0
    t, k, d = run_transport(lambda t: M0 + col(t) * Mdot, Mdot, ((0, 1), (2,)),
                            np.linspace(0, 1, 5))[-1]
    assert abs(d[2] - 0.25) < 1e-14
    assert np.abs(k[2, :2]).max() == 0 and np.abs(k[:2, 2]).max() == 0
    assert np.abs(k @ np.diag(d) @ np.linalg.inv(k) - M1).max() < 1e-12


def test_diagonalize_continuation():
    """The transported eigenpairs move continuously: from diag(M0) to M0 on
    [0, 1], then by 0.01 X on [1, 1.01], k and d move by little."""
    M0 = np.array([[1.0, 0.3], [-0.3, -1.0]], dtype=complex)
    D0 = np.diag(np.diag(M0))
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    def path(t):
        """(M(t), M'(t)), stacked over an array of times."""
        first = col(np.real(t) <= 1.0)
        return (np.where(first, D0 + col(t) * (M0 - D0), M0 + (col(t) - 1.0) * X),
                np.where(first, M0 - D0, X))

    times = np.array([0.0, 0.5, 1.0, 1.01])
    k, d, _, _, diags, error = transport(
        lambda t: (path(t)[0], ()), lambda t, k, d: left_divide(k, path(t)[1] @ k),
        ((0, 1),), times, 1e-12, None, every_row)
    assert error is None
    out = list(zip(times, k, d))
    (_, k0, d0), (_, k1, d1) = out[-2], out[-1]
    for t, k, d in out:
        assert np.abs(k @ np.diag(d) @ np.linalg.inv(k) - path(t)[0]).max() < 1e-12
    assert np.abs(k1 - k0).max() < 0.05
    assert np.abs(d1 - d0).max() < 0.05


# -- the stacked path of both exact solvers ----------------------------------------

@pytest.mark.parametrize("family, members", [("rational", None),
                                             ("trigonometric", [0, 1])])
def test_stacked_path_is_per_time_path(family, members):
    """path(times) stacks M and the factors of path(t) at each time: bit for
    bit for the rational family, to 1e-15 for the trigonometric one."""
    ctx = build_sl_context(4)
    if family == "rational":
        spec, setup = rational_model(ctx, full_delta(4)), solver_rational._setup
    else:
        spec, setup = trig_model(ctx, pi_subset(members)), solver_trig._setup
    pt = random_point(spec, np.random.default_rng(5), scale=0.4)
    path = setup(spec, pt)[0]
    times = np.linspace(0, 0.3, 31)
    Ms, factors = path(times)
    assert Ms.shape == (31, 4, 4) and len(factors) == (0 if family == "rational" else 4)
    for i, t in enumerate(times):
        M, fac = path(t)
        for stacked, single in zip((Ms,) + factors, (M,) + fac):
            if family == "rational":
                assert np.array_equal(stacked[i], single)
            else:
                assert np.abs(stacked[i] - single).max() <= 1e-15


def _count_path_and_eigvals(monkeypatch, module):
    """Counts of the path calls of `module`'s solver and of eigvals calls,
    made outside collision location."""
    count = {"path": 0, "eigvals": 0, "in_collision": False}
    setup0, collision0, eigvals0 = (module._setup, exact.locate_collision,
                                    np.linalg.eigvals)

    def setup(spec, pt0):
        path, *rest = setup0(spec, pt0)

        def counted_path(t):
            count["path"] += not count["in_collision"]
            return path(t)
        return (counted_path, *rest)

    def counted_collision(*args):
        count["in_collision"] = True
        try:
            return collision0(*args)
        finally:
            count["in_collision"] = False

    def counted_eigvals(a):
        count["eigvals"] += not count["in_collision"]
        return eigvals0(a)

    monkeypatch.setattr(module, "_setup", setup)
    monkeypatch.setattr(exact, "locate_collision", counted_collision)
    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    return count


@pytest.mark.parametrize("preset, module, breaks", [
    ("rational-sl3-full", solver_rational, False),
    ("trig-sl3", solver_trig, False),
    ("collision-sl2", solver_rational, True),
    ("trig-sl2-breakdown", solver_trig, True)])
def test_one_path_call_per_solve(monkeypatch, preset, module, breaks):
    """Outside collision location a solve makes one path call, over the
    whole output grid, and one eigvals call per block of two or more: the
    transport's per-sample callback only stores its row."""
    count = _count_path_and_eigvals(monkeypatch, module)
    data = load_preset(preset)
    d = data["defaults"]
    solve = solve_rational if module is solver_rational else solve_trig
    times = np.linspace(0, d["t_end"], d["samples"])
    try:
        _, fact = solve(data["model"], data["init"], times, d["tol"])
        assert not breaks
    except BreakdownError as exc:
        assert breaks
        fact = exc.factors
    blocks = sum(len(b) > 1 for b in data["model"].subset.partition)
    assert fact.diagnostics["nfev"] > len(times)
    assert count["path"] == 1 and count["eigvals"] == blocks


# -- solve_rational -------------------------------------------------------------

def test_solve_free(spec2):
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=np.zeros((2, 2)))
    times = np.linspace(0, 1, 11)
    tr, fact = solve_rational(spec2, pt, times)
    assert np.allclose(tr.q, pt.q + tr.times[:, None] * pt.p, atol=1e-13)
    assert np.allclose(tr.p, pt.p, atol=1e-13)
    assert np.abs(tr.xi).max() == 0.0
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
    ev0 = np.sort_complex(np.linalg.eigvals(lax(spec2, tre.point(0), z0)))
    for i in range(len(tre.times)):
        ev = np.sort_complex(np.linalg.eigvals(lax(spec2, tre.point(i), z0)))
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
            assert len(tr.y) == 6
            assert np.all(np.isfinite(r_action_on_M(spec2, pt, 1.0)))
            continue
        with pytest.raises(ContractError):
            solve_rational(spec2, pt, np.linspace(0, 0.5, 6))
        with pytest.raises(ContractError):
            r_action_on_M(spec2, pt, 1.0)


@pytest.mark.parametrize("preset, solve", [("rational-sl3-full", solve_rational),
                                           ("trig-sl3", solve_trig)])
def test_row_off_momentum_zero_is_breakdown(monkeypatch, preset, solve):
    """Each output row meets the input's J^-1(0) check: with MOMENTUM_TOL at
    1e-20 the exact start passes and the first row that the transport moves
    off diag xi = 0 by rounding ends the solve at times[1], one row kept."""
    monkeypatch.setattr(models, "MOMENTUM_TOL", 1e-20)
    data = load_preset(preset)
    dfl = data["defaults"]
    times = np.linspace(0.0, dfl["t_end"], dfl["samples"])
    with pytest.raises(BreakdownError, match=r"J\^-1\(0\)") as exc:
        solve(data["model"], data["init"], times, dfl["tol"])
    assert exc.value.time == times[1]
    assert len(exc.value.partial.y) == 1


def test_row_off_traceless_q_is_breakdown(monkeypatch):
    """The stacked row check ends a solve at the first row that fails any
    of the row checks, with that row's own message: a position map that
    moves q off trace zero from row 5 on ends rational-sl3-full at times[5]
    on "q must be traceless", five rows kept."""
    setup0 = solver_rational._setup

    def setup(spec, pt0):
        path, velocity, log0, position, limit = setup0(spec, pt0)

        def broken(ell):
            q = position(ell).copy()
            q[5:, 0] += 1e-3
            return q
        return path, velocity, log0, broken, limit

    monkeypatch.setattr(solver_rational, "_setup", setup)
    data = load_preset("rational-sl3-full")
    dfl = data["defaults"]
    times = np.linspace(0.0, dfl["t_end"], dfl["samples"])
    with pytest.raises(BreakdownError, match="q must be traceless") as exc:
        solve_rational(data["model"], data["init"], times, dfl["tol"])
    assert exc.value.time == times[5]
    assert len(exc.value.partial.y) == 5


def test_solver_validations(spec2):
    pt = PhasePoint(q=[1, -1], p=[2, -2], xi=E12 + E21)
    bad_xi = E12 + E21 + np.diag([0.2, -0.2])
    with pytest.raises(ContractError):
        solve_rational(spec2, PhasePoint(q=[1, -1], p=[2, -2], xi=bad_xi),
                       np.linspace(0, 1, 5))
    with pytest.raises(ValidationError):
        solve_rational(spec2, pt, np.linspace(0.5, 1, 5))
    with pytest.raises(ValidationError):
        solve_rational(spec2, pt, [0.0, 0.5, np.inf])
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
    trr = solve_rational(spec2, rpt, times)[0]
    assert np.all(trr.xi[:, 0, 1] == 1.0)
    tro = integrate(spec2, rpt, 1.0, samples=51, tol=1e-12)
    assert sup_gap(trr, tro, "q") <= 1e-6
    assert sup_gap(trr, tro, "p") <= 1e-6
    assert sup_gap(trr, tro, "xi") <= 1e-6


def test_reduced_equals_reduction_of_full(spec2):
    s0 = E12 + 0.8 * E21
    rpt = ReducedPoint(q=[1, -1], p=[2, -2], s=s0)
    times = np.linspace(0, 1, 26)
    trr = solve_rational(spec2, rpt, times)[0]
    trf, _ = solve_rational(spec2, PhasePoint(q=rpt.q, p=rpt.p, xi=s0), times)
    for i in range(len(times)):
        red = reduce_point(spec2.ctx, trf.point(i))
        assert np.abs(red.s - trr.xi[i]).max() <= 1e-8
    assert np.abs(trf.p - trr.p).max() <= 1e-10


def test_reduced_sl3_matches_reduced_eom():
    from spincm.models import rational_model
    spec = rational_model(build_sl_context(3), delta_subset([(0, 1), (1, 0)]))
    rpt = random_reduced(spec, np.random.default_rng(5), scale=0.4)
    times = np.linspace(0, 0.5, 26)
    trr = solve_rational(spec, rpt, times)[0]
    tro = integrate(spec, rpt, 0.5, samples=26, tol=1e-12)
    assert sup_gap(trr, tro, "q") <= 1e-6
    assert sup_gap(trr, tro, "xi") <= 1e-6


@pytest.mark.parametrize("family", ["rational", "trigonometric"])
def test_exact_solve_of_reduced_point_is_reduced_lift(family):
    """solve_* on a ReducedPoint: each row is reduce_point of the same row of
    the lift's full solve, bit for bit, and no factorization comes back."""
    ctx = build_sl_context(3)
    if family == "rational":
        spec, solve, seed = rational_model(ctx, full_delta(3)), solve_rational, 708
    else:
        spec, solve, seed = trig_model(ctx, pi_subset([0])), solve_trig, 709
    rpt = random_reduced(spec, np.random.default_rng(seed), scale=0.3)
    times = np.linspace(0.0, 0.3, 7)
    trr, fact = solve(spec, rpt, times)
    trf, _ = solve(spec, PhasePoint(q=rpt.q, p=rpt.p, xi=rpt.s), times)
    assert fact is None and trr.reduced
    red = [reduce_point(spec.ctx, trf.point(i)) for i in range(len(times))]
    assert np.array_equal(trr.y, [np.concatenate([r.q, r.p, r.s.ravel()]) for r in red])


def test_exact_reduced_breakdown_is_reduced_with_no_factors(spec2):
    """The reduced breakdown point of the CLI test: the partial trajectory is
    reduced and the full flow's factors are not attached."""
    rpt = ReducedPoint(q=[1, -1], p=[-1, 1], s=E12 + E21)
    with pytest.raises(BreakdownError) as exc:
        solve_rational(spec2, rpt, np.linspace(0.0, 1.0, 101))
    assert exc.value.partial.reduced and exc.value.factors is None
    assert np.all(exc.value.partial.xi[:, 0, 1] == 1.0)


def test_reduced_depends_only_on_s0(spec2):
    """Two lifts of s0 related by the diagonal action give identical s(t), p(t)."""
    s0 = E12 + 0.8 * E21
    rpt = ReducedPoint(q=[1, -1], p=[2, -2], s=s0)
    times = np.linspace(0, 1, 21)
    trr = solve_rational(spec2, rpt, times)[0]
    h = np.array([np.exp(0.3 + 0.2j), np.exp(-0.3 - 0.2j)])
    xi_other = s0 * np.outer(h, 1.0 / h)
    tr_other, _ = solve_rational(
        spec2, PhasePoint(q=rpt.q, p=rpt.p, xi=xi_other), times)
    for i in range(len(times)):
        red = reduce_point(spec2.ctx, tr_other.point(i))
        assert np.abs(red.s - trr.xi[i]).max() <= 1e-9
    assert np.abs(tr_other.p - trr.p).max() <= 1e-9


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


# -- former faults of the Cartan quadrature ---------------------------------------
# The walk that the transport replaced was off in xi(t) by a diagonal
# conjugation that energy, J and the Lax spectrum cannot see, at these points:
# its pivot re-anchor gave sup_xi 3.3 (rational N = 3, seed 3) and 5.4
# (N = 6, seed 3), its fixed-substep Simpson quadrature 1.2e-2 (N = 3, seed 5),
# 8.8e-7 (N = 3, seed 7), 5.9e-4 (N = 4, seed 0) and 2.5e-6 (trigonometric
# N = 4, pi' = {alpha_1, alpha_2}, seed 0).  Rational full Delta' on
# t in [0, 1], trigonometric on [0, 0.3], 31 samples, oracle at tol 1e-12.

FAULT_POINTS = [pytest.param("rational", 3, 3, id="3"),  # the former xfails
                pytest.param("rational", 3, 5, id="5"),
                pytest.param("rational", 3, 7, id="n3-7"),
                pytest.param("rational", 4, 0, id="n4-0"),
                pytest.param("rational", 6, 3, id="n6-3"),
                pytest.param("trigonometric", 4, 0, id="trig-n4-0"),
                pytest.param("trigonometric", 4, 3, id="trig-n4-3")]


def _fault_case(seed, family="rational", N=3):
    from spincm.models import rational_model, trig_model
    from spincm.liecore import pi_subset
    from spincm.solver_trig import solve_trig
    ctx = build_sl_context(N)
    if family == "rational":
        spec, solve, t_end = rational_model(ctx, full_delta(N)), solve_rational, 1.0
    else:
        spec, solve, t_end = trig_model(ctx, pi_subset([0, 1])), solve_trig, 0.3
    pt = random_point(spec, np.random.default_rng(seed), scale=0.4)
    times = np.linspace(0, t_end, 31)
    tre, _ = solve(spec, pt, times)
    tro = integrate(spec, pt, t_end, samples=31, tol=1e-12)
    return tre, tro


@pytest.mark.parametrize("seed", [3, 5])
def test_fault_points_q_p_match_oracle(seed):
    tre, tro = _fault_case(seed)
    assert sup_gap(tre, tro, "q") <= 1e-9
    assert sup_gap(tre, tro, "p") <= 1e-9


@pytest.mark.parametrize("family, N, seed", FAULT_POINTS)
def test_fault_points_xi_matches_oracle(family, N, seed):
    tre, tro = _fault_case(seed, family, N)
    assert sup_gap(tre, tro, "xi") <= 1e-6


def test_non_finite_row_ends_the_solve():
    """An output row that is not finite fails the finite test of
    models.check_rows: the exact solve ends in the row check's
    BreakdownError at that row's time, with the rows before it."""
    data = load_preset("rational-sl2")

    def setup(spec, pt0):
        path, velocity, log0, position, limit = solver_rational._setup(spec, pt0)

        def nan_from_row_5(d):
            q = position(d).copy()
            q[5:, 0] = np.nan
            return q
        return path, velocity, log0, nan_from_row_5, limit
    times = np.linspace(0.0, 1.0, 11)
    with pytest.raises(BreakdownError) as exc:
        exact.solve(data["model"], data["init"], times, 1e-10, family="rational",
                    provenance="exact-rational",
                    factorization=solver_rational.RationalFactorization, setup=setup)
    assert exc.value.time == times[5]
    assert str(exc.value).endswith("the state fails its check: q must be finite")
    assert np.array_equal(exc.value.partial.times, times[:5])
