"""Root data, subsets, and the gauge reduction map."""

import cmath
import itertools

import numpy as np
import pytest

from oracles import mask_roots
from spincm.errors import DomainError, ValidationError
from spincm.liecore import (RootSubset, build_sl_context, delta_subset,
                            gauge_group_element, partition_from_pairs,
                            pi_subset, reduce_gauge, validate_root_subset)
from spincm.models import trig_model


def root_sum(a, b):
    """a + b as an (i, j) pair when it is a root of sl(N), else None."""
    (i, j), (k, l) = a, b
    if j == k and i != l:
        return (i, l)
    if l == i and j != k:
        return (k, j)
    return None


def test_a1_a2_root_data():
    ctx2 = build_sl_context(2)
    assert set(ctx2.roots) == {(0, 1), (1, 0)}
    assert np.allclose(ctx2.inv_cartan, [[0.5]])
    ctx3 = build_sl_context(3)
    assert len(ctx3.roots) == 6
    assert np.allclose(ctx3.inv_cartan, np.array([[2, 1], [1, 2]]) / 3.0)


def test_build_context_rejects_small_n():
    with pytest.raises(ValidationError):
        build_sl_context(1)


def test_validate_delta_subset():
    ctx = build_sl_context(3)
    sub = validate_root_subset(ctx, delta_subset([(0, 1), (1, 0)]))
    assert sub.partition == ((0, 1), (2,))
    with pytest.raises(ValidationError):
        validate_root_subset(ctx, delta_subset([(0, 1)]))  # not symmetric
    with pytest.raises(ValidationError):
        # pairwise relations {1~2, 2~3} without 1~3: not closed
        validate_root_subset(ctx, delta_subset([(0, 1), (1, 0), (1, 2), (2, 1)]))


def test_validate_pi_subset():
    ctx = build_sl_context(3)
    spec = trig_model(ctx, pi_subset([0]))
    assert spec.subset.partition == ((0, 1), (2,))
    span, plus, minus = (mask_roots(m) for m in
                         (spec.mask_span, spec.mask_plus, spec.mask_minus))
    assert span == {(0, 1), (1, 0)}
    assert plus == {(0, 2), (1, 2)}
    assert minus == {(2, 0), (2, 1)}
    # disjoint union is the whole root system
    assert span | plus | minus == set(ctx.roots)
    assert len(span) + len(plus) + len(minus) == len(ctx.roots)
    with pytest.raises(ValidationError):
        validate_root_subset(ctx, pi_subset([5]))


def test_closed_symmetric_iff_partition_n3():
    """Brute force over all symmetric subsets of the A2 roots: closure under
    addition is equivalent to transitivity of the derived relation."""
    ctx = build_sl_context(3)
    pos = [(0, 1), (0, 2), (1, 2)]
    for keep in itertools.product([False, True], repeat=3):
        members = []
        for flag, (i, j) in zip(keep, pos):
            if flag:
                members += [(i, j), (j, i)]
        closed = True
        mset = set(members)
        for a in mset:
            for b in mset:
                s = root_sum(a, b)
                if s is not None and s not in mset:
                    closed = False
        # transitivity: the partition regenerates exactly the member set
        part = partition_from_pairs(3, mset)
        regen = {(i, j) for blk in part for i in blk for j in blk if i != j}
        assert closed == (regen == mset)
        if closed:
            validate_root_subset(ctx, delta_subset(members))
        else:
            with pytest.raises(ValidationError):
                validate_root_subset(ctx, delta_subset(members))


def test_gauge_group_element_examples():
    ctx = build_sl_context(2)
    xi = np.array([[0, 4], [1, 0]], dtype=complex)
    g = gauge_group_element(ctx, xi)
    assert np.allclose(g, np.diag([2.0, 0.5]))
    xi1 = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.allclose(gauge_group_element(ctx, xi1), np.eye(2))
    ctx3 = build_sl_context(3)
    eps = np.zeros((3, 3), dtype=complex)
    eps[0, 1] = eps[1, 2] = 1.0
    assert np.allclose(gauge_group_element(ctx3, eps + eps.T), np.eye(3))
    with pytest.raises(DomainError):
        gauge_group_element(ctx, np.array([[0, 0], [1, 0]], dtype=complex))


def test_reduce_examples():
    ctx = build_sl_context(2)
    c = 0.3 - 0.2j
    xi = np.array([[0, 4], [c, 0]], dtype=complex)
    s = reduce_gauge(ctx, xi)
    assert s[0, 1] == 1.0
    assert abs(s[1, 0] - 4 * c) < 1e-14
    xi2 = np.array([[0, 4], [0, 0]], dtype=complex)
    s2 = reduce_gauge(ctx, xi2)
    assert s2[0, 1] == 1.0 and s2[1, 0] == 0.0
    # fixed point: sum of simple root vectors +/-
    ctx3 = build_sl_context(3)
    eps = np.zeros((3, 3), dtype=complex)
    eps[0, 1] = eps[1, 2] = eps[1, 0] = eps[2, 1] = 1.0
    assert np.allclose(reduce_gauge(ctx3, eps), eps)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_reduction_normalizes_simple_roots(N):
    ctx = build_sl_context(N)
    assert len(ctx.roots) == N * (N - 1)
    A = 2 * np.eye(N - 1) - np.eye(N - 1, k=1) - np.eye(N - 1, k=-1)
    assert np.abs(ctx.inv_cartan @ A - np.eye(N - 1)).max() < 1e-12
    rng = np.random.default_rng(100 + N)
    for _ in range(100):
        xi = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        xi -= np.diag(np.diag(xi))
        s = reduce_gauge(ctx, xi)
        for k in range(N - 1):
            assert abs(s[k, k + 1] - 1.0) < 1e-12


def _reduce_row(ctx, xi):
    """The gauge reduction of one matrix, entry by entry: cmath.log of each
    simple-root entry, the matrix-vector product inv_cartan.T @ logs, and
    s_(alpha_k) := 1."""
    N = ctx.N
    logs = np.array([cmath.log(xi[k, k + 1]) for k in range(N - 1)])
    coeff = ctx.inv_cartan.T @ logs
    diag = np.zeros(N, dtype=complex)
    diag[:-1] += coeff
    diag[1:] -= coeff
    gd = np.exp(diag)
    s = xi * np.outer(1.0 / gd, gd)
    s[range(N - 1), range(1, N)] = 1.0
    return s


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_stacked_reduce_gauge_is_the_row_loop(N):
    """reduce_gauge and gauge_group_element over a stack equal them row by
    row, and the row-by-row arithmetic, bit for bit; 500 rows of N = 6 are
    above numpy's temporary-elision size.  A stack with one row outside U
    raises that row's DomainError."""
    ctx = build_sl_context(N)
    rng = np.random.default_rng(40 + N)
    for scale in (0.3, 1.0, 5.0):
        xi = scale * (rng.standard_normal((500, N, N))
                      + 1j * rng.standard_normal((500, N, N)))
        xi[:, range(N), range(N)] = 0.0
        s = reduce_gauge(ctx, xi)
        assert np.array_equal(s, [reduce_gauge(ctx, x) for x in xi])
        assert np.array_equal(s, [_reduce_row(ctx, x) for x in xi])
        assert np.array_equal(gauge_group_element(ctx, xi[:7]),
                              [gauge_group_element(ctx, x) for x in xi[:7]])
    k = rng.integers(N - 1)
    xi[3, k, k + 1] = 0.0
    with pytest.raises(DomainError, match=fr"^outside U: xi_\(alpha_{k + 1}\) = 0$"):
        reduce_gauge(ctx, xi[:8])


def test_h_equivariance_branch_safe():
    """reduce(q,p,xi) == reduce(q,p, h xi h^-1) for diagonal unimodular h with
    arguments in the branch-safe region."""
    ctx = build_sl_context(3)
    rng = np.random.default_rng(17)
    for _ in range(25):
        xi = 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        xi -= np.diag(np.diag(xi))
        for k in range(2):
            xi[k, k + 1] = 1.0 + 0.3 * (rng.standard_normal()
                                        + 1j * rng.standard_normal())
        w = 0.4 * rng.standard_normal(3) + 0.4j * rng.standard_normal(3)
        w -= w.mean()
        h = np.exp(w)
        xi_h = xi * np.outer(h, 1.0 / h)
        assert np.abs(reduce_gauge(ctx, xi) - reduce_gauge(ctx, xi_h)).max() < 1e-12


def test_root_subset_json_roundtrip():
    ctx = build_sl_context(3)
    sub = validate_root_subset(ctx, delta_subset([(0, 1), (1, 0)]))
    d = sub.to_json_dict()
    assert d == {"kind": "delta", "members": [[1, 2], [2, 1]]}
    back = validate_root_subset(ctx, RootSubset.from_json_dict(d))
    assert back.members == sub.members
    subp = validate_root_subset(ctx, pi_subset([0]))
    dp = subp.to_json_dict()
    assert dp == {"kind": "pi", "members": [1]}
    assert RootSubset.from_json_dict(dp).members == (0,)
