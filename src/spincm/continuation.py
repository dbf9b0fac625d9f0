"""Blockwise eigenvalues, eigenvalue collisions and the assignment helper.

Shared by both exact solvers, whose matrix paths M(t) are block-diagonal with
respect to a partition of {0..N-1}: eigenvalues are taken per block, the
within-block discriminant D(t) (analytic in t, with a zero at each collision)
flags a collision by the turn of its phase, and ``locate_collision`` finds
its zero by a complex secant iteration.

Matching (of Lax eigenvalues in ``rk.audit``) goes through one helper,
``best_assignment``: the shortest augmenting path method (Crouse 2016),
O(N^3), step for step as scipy's ``linear_sum_assignment``, whose import would
cost about 20 MB of memory.  Tie rule: each step scans the unassigned columns
from the highest index down and takes the first of least reduced cost, or a
later free column of equal cost.  Among optima of exactly equal cost the
result is thus a fixed function of the cost matrix (the identity for a
constant one), not always the lexicographically first permutation.
"""

from __future__ import annotations

import math

import numpy as np


def best_assignment(cost):
    """Permutation p minimizing sum_i cost[i, p[i]] over a square real cost
    matrix (see the module docstring for the method and the tie rule)."""
    c = np.asarray(cost, dtype=float).tolist()
    n = len(c)
    u, v = [0.0] * n, [0.0] * n  # dual variables of rows and columns
    col4row, row4col, path = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        # shortest augmenting path from row `cur` to a free column
        spc = [math.inf] * n
        in_rows, in_cols = [False] * n, [False] * n
        remaining = list(range(n - 1, -1, -1))
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            in_rows[i] = True
            index, lowest = -1, math.inf
            ci, ui = c[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest, index = spc[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            in_cols[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in range(n):
            if in_rows[i] and i != cur:
                u[i] += min_val - spc[col4row[i]]
        for j in range(n):
            if in_cols[j]:
                v[j] -= min_val - spc[j]
        j = sink
        while True:  # augment along the path back to row `cur`
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.array(col4row)


def same_block(blocks, N):
    """(N, N) mask of the index pairs i != j inside one block."""
    same = np.zeros((N, N), dtype=bool)
    for blk in blocks:
        same[np.ix_(blk, blk)] = True
    np.fill_diagonal(same, False)
    return same


def block_gap(d, same):
    """Minimal within-block eigenvalue distance (inf without such pairs)."""
    return float(np.abs(d[:, None] - d[None, :])[same].min(initial=np.inf))


def block_eigvals(M, blocks):
    """Eigenvalues of a block-diagonal M, each at the indices of its block."""
    vals = np.diag(M).astype(complex)
    for blk in blocks:
        if len(blk) > 1:
            idx = list(blk)
            vals[idx] = np.linalg.eigvals(M[np.ix_(idx, idx)])
    return vals


def _discriminant(vals, blocks):
    """Product over the blocks of the squared within-block eigenvalue
    differences: analytic in t, with a zero at each collision."""
    D = 1.0 + 0.0j
    for blk in blocks:
        for i in range(len(blk)):
            for j in range(i + 1, len(blk)):
                D *= (vals[blk[i]] - vals[blk[j]]) ** 2
    return D


GAP_COLLIDE = 1e-6


def locate_collision(path, blocks, t_lo, t_hi):
    """Root-find the within-block discriminant product D(t) of the
    block-diagonal path(t) = M(t) by a complex secant iteration.  D is
    analytic with a simple zero at an eigenvalue collision, so this resolves
    sqrt-type collisions that pointwise gap thresholds cannot.

    Returns (t_star, collided): the real collision-time estimate and whether
    the located zero is numerically on the real axis inside the bracket.
    """
    def disc(t):
        return _discriminant(block_eigvals(path(t), blocks), blocks)

    span = t_hi - t_lo
    t0, t1 = complex(t_lo), complex(t_hi)
    d0, d1 = disc(t0), disc(t1)
    dscale = max(abs(d0), abs(d1), 1e-300)
    for _ in range(80):
        if d1 == d0:
            break
        t2 = t1 - d1 * (t1 - t0) / (d1 - d0)
        if abs(t2 - 0.5 * (t_lo + t_hi)) > 2.0 * span:
            break  # wandered out of the bracket: no root here
        t0, d0 = t1, d1
        t1 = t2
        d1 = disc(t1)
        if abs(t1 - t0) < 1e-13 * max(1.0, abs(t1)) or d1 == 0:
            break
    on_axis = abs(t1.imag) <= 1e-7 * max(span, abs(t1.real))
    inside = (t_lo - 0.5 * span) <= t1.real <= (t_hi + 0.5 * span)
    small = abs(d1) <= 1e-10 * dscale
    return float(t1.real), bool(on_axis and inside and small)
