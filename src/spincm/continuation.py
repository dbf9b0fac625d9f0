"""Blockwise eigendecomposition with continuation along a matrix path.

Shared by both exact solvers: matrices block-diagonal with respect to a
partition of {0..N-1} are diagonalized per block, and eigenvector columns are
matched to the previous step by maximal overlap.  One gauge is used, the pivot
gauge of ``PivotPath``: a fixed component of each eigenvector is scaled to
exactly 1.  It is local in time and therefore accumulates no gauge drift, and
the Cartan velocity Pi_h(g^-1 g') is available in closed form from
first-order eigenvector perturbation.  ``CartanWalk`` integrates it with
composite Simpson over FINE substeps per output interval, along one callable
``path(t) -> (M, Mdot)`` that gives the exact derivative with the matrix.

Matching (here, and of Lax eigenvalues in ``rk.audit``) goes through one
helper, ``best_assignment``: the shortest augmenting path method (Crouse 2016),
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

from .errors import BreakdownError, DomainError, GridError, ValidationError


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


def block_gap(d, blocks):
    """Minimal within-block pairwise eigenvalue distance (inf for singletons)."""
    gap = np.inf
    for blk in blocks:
        if len(blk) < 2:
            continue
        vals = d[list(blk)]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                gap = min(gap, abs(vals[i] - vals[j]))
    return gap


def _eig_blocks(M, blocks):
    """Eigen-decompose each block; returns full-size (vals, vecs) with vecs
    supported on their blocks."""
    N = M.shape[0]
    vals = np.zeros(N, dtype=complex)
    vecs = np.zeros((N, N), dtype=complex)
    for blk in blocks:
        idx = list(blk)
        if len(idx) == 1:
            vals[idx[0]] = M[idx[0], idx[0]]
            vecs[idx[0], idx[0]] = 1.0
            continue
        vals[idx], vecs[np.ix_(idx, idx)] = np.linalg.eig(M[np.ix_(idx, idx)])
    return vals, vecs


def _discriminant(vals, blocks):
    """Product over the blocks of the squared within-block eigenvalue
    differences: analytic in t, with a zero at each collision."""
    D = 1.0 + 0.0j
    for blk in blocks:
        for i in range(len(blk)):
            for j in range(i + 1, len(blk)):
                D *= (vals[blk[i]] - vals[blk[j]]) ** 2
    return D


def _match(blocks, ref_vecs, vals, vecs):
    """Permute eigenpairs within blocks to maximize overlap with ref columns."""
    vals_out = vals.copy()
    vecs_out = vecs.copy()
    for blk in blocks:
        idx = list(blk)
        if len(idx) < 2:
            continue
        ref = ref_vecs[np.ix_(idx, idx)]
        new = vecs[np.ix_(idx, idx)]
        refn = ref / np.linalg.norm(ref, axis=0, keepdims=True)
        newn = new / np.linalg.norm(new, axis=0, keepdims=True)
        overlap = np.abs(refn.conj().T @ newn)
        perm = best_assignment(-overlap)
        vals_out[idx] = vals[idx][perm]
        vecs_out[np.ix_(idx, idx)] = new[:, perm]
    return vals_out, vecs_out


FINE = 4  # Simpson substeps per output interval before any halving
GAP_REFINE = 1e-4
GAP_COLLIDE = 1e-6
MAX_HALVINGS = 12
LOG_JUMP = 2.5  # radians; spec contract is "jump > pi between grid points"


def locate_collision(path, blocks, t_lo, t_hi):
    """Root-find the within-block discriminant product D(t) by a complex secant
    iteration.  D is analytic with a simple zero at an eigenvalue collision, so
    this resolves sqrt-type collisions that pointwise gap thresholds cannot.

    Returns (t_star, collided): the real collision-time estimate and whether
    the located zero is numerically on the real axis inside the bracket.
    """
    def disc(t):
        return _discriminant(_eig_blocks(path(t)[0], blocks)[0], blocks)

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


def simpson_increment(fvals, h):
    """Composite Simpson over an even number of uniform panels."""
    n = len(fvals) - 1
    acc = np.zeros_like(fvals[0])
    for m in range(0, n, 2):
        acc = acc + (h / 3.0) * (fvals[m] + 4.0 * fvals[m + 1] + fvals[m + 2])
    return acc


class PivotPath:
    """Continuation-tracked blockwise eigendecomposition in the pivot gauge.

    Starts from a diagonal matrix (g = identity); ``advance(M)`` re-matches to
    the previous node.  ``cartan_velocity(Mdot)`` returns the diagonal of
    W = g^-1 g' in closed form; together with the gauge-invariance of
    k(t) = g(t) h(t) this gives the Cartan quadrature without finite
    differences of eigenvectors.
    """

    def __init__(self, blocks, M0):
        M0 = np.asarray(M0, dtype=complex)
        N = M0.shape[0]
        off = M0 - np.diag(np.diag(M0))
        if np.abs(off).max(initial=0.0) > 1e-9 * max(1.0, np.abs(M0).max()):
            raise ValidationError("continuation must start from a diagonal matrix")
        self.blocks = [list(b) for b in blocks]
        self.N = N
        self.g = np.eye(N, dtype=complex)
        self.d = np.diag(M0).copy()
        self.pivots = np.arange(N)
        self._same_block = np.zeros((N, N), dtype=bool)
        for blk in self.blocks:
            self._same_block[np.ix_(blk, blk)] = True
        np.fill_diagonal(self._same_block, False)
        self.min_gap_seen = block_gap(self.d, self.blocks)
        self.pivot_jumps = 0

    def advance(self, M):
        """Move the decomposition to M; returns the within-block eigen gap."""
        vals, vecs = _eig_blocks(np.asarray(M, dtype=complex), self.blocks)
        vals, vecs = _match(self.blocks, self.g, vals, vecs)
        # pivot normalization: v_c[pivot_c] == 1
        for c in range(self.N):
            pv = vecs[self.pivots[c], c]
            nrm = np.abs(vecs[:, c]).max()
            if abs(pv) < 0.2 * nrm:
                # re-anchor the pivot; gauge jump is absorbed by the caller
                self.pivots[c] = int(np.argmax(np.abs(vecs[:, c])))
                pv = vecs[self.pivots[c], c]
                self.pivot_jumps += 1
            vecs[:, c] /= pv
        self.g = vecs
        self.d = vals
        gap = block_gap(vals, self.blocks)
        self.min_gap_seen = min(self.min_gap_seen, gap)
        return gap

    def cartan_velocity(self, Mdot):
        """diag(W) for W = g^-1 g' in the pivot gauge, from g^-1 Mdot g."""
        B = np.linalg.solve(self.g, np.asarray(Mdot, dtype=complex) @ self.g)
        denom = self.d[None, :] - self.d[:, None]  # denom[j,i] = d_i - d_j
        W = np.zeros_like(B)
        m = self._same_block
        W[m] = B[m] / denom[m]
        wdiag = np.zeros(self.N, dtype=complex)
        for i in range(self.N):
            # v_i[pivot_i] == 1 along the path, so (g W)[pivot_i, i] == 0
            wdiag[i] = -np.dot(self.g[self.pivots[i], :], W[:, i])
        return wdiag


class CartanWalk:
    """Walks a block-diagonalizable analytic matrix path M(t) from t = 0,
    tracking the pivot-gauge eigendecomposition and the cumulative Cartan
    quadrature Lambda(t), so that k(t) = g(t) exp(-Lambda(t)) satisfies
    Pi_h(k^-1 k') = 0.  ``path(t)`` returns (M(t), M'(t)).

    With ``log0`` given, additionally tracks a continuous entrywise logarithm
    of the eigenvalue path d(t) (branch unwrapping for group-valued paths).
    Near-collisions halve the substep (up to MAX_HALVINGS); a genuine
    eigenvalue collision raises BreakdownError with the located time.
    """

    def __init__(self, path, blocks, log0=None):
        self.path = path
        self.blocks = [list(b) for b in blocks]
        M0, Mdot0 = path(0.0)
        self.pivot = PivotPath(self.blocks, M0)
        self.t = 0.0
        self.w = self.pivot.cartan_velocity(Mdot0)  # at the current node
        self.Lam = np.zeros(self.pivot.N, dtype=complex)
        self._logdet = 0.0 + 0.0j
        self._det_prev = 1.0 + 0.0j
        self.min_gap = np.inf
        self.logd = None if log0 is None else np.asarray(log0, dtype=complex).copy()

    # -- bookkeeping ---------------------------------------------------------
    def _snapshot(self):
        return (self.pivot.g.copy(), self.pivot.d.copy(), self.pivot.pivots.copy(),
                self._logdet, self._det_prev, self.min_gap,
                None if self.logd is None else self.logd.copy(), self.w)

    def _restore(self, s):
        (self.pivot.g, self.pivot.d, self.pivot.pivots,
         self._logdet, self._det_prev, self.min_gap) = (
            s[0].copy(), s[1].copy(), s[2].copy(), s[3], s[4], s[5])
        self.logd = None if s[6] is None else s[6].copy()
        self.w = s[7]

    def _breakdown(self, t_lo, t_hi):
        t_star, collided = locate_collision(self.path, self.blocks, t_lo, t_hi)
        if collided:
            vals, _ = _eig_blocks(self.path(t_star)[0], self.blocks)
            gap = block_gap(vals, self.blocks)
            raise BreakdownError(
                f"factorization breakdown: eigenvalue collision at "
                f"t = {t_star:.9g} (gap {gap:.3e})", time=t_star, gap=gap)

    def _node(self, t):
        """Advance to t and its Cartan velocity; returns (gap, branch jump)."""
        M, Mdot = self.path(t)
        d_prev = self.pivot.d.copy()
        gap = self.pivot.advance(M)
        jump = False
        if self.logd is not None:
            ratio = self.pivot.d / d_prev
            if np.abs(ratio).min() < 1e-300:
                raise DomainError("vanishing diagonal entry on the group path")
            steps = np.log(ratio)
            if np.abs(steps.imag).max() > LOG_JUMP:
                jump = True
            else:
                self.logd = self.logd + steps
        self.w = self.pivot.cartan_velocity(Mdot)
        det = np.linalg.det(self.pivot.g)
        self._logdet += np.log(det / self._det_prev)
        self._det_prev = det
        self.min_gap = min(self.min_gap, gap)
        return gap, jump

    # -- the walk -------------------------------------------------------------
    def advance_interval(self, t_next):
        """Walk [self.t, t_next] with FINE substeps, halving the substep when
        the eigen gap drops below GAP_REFINE or the branch log jumps; raises
        BreakdownError at a genuine collision, GridError if branch tracking
        cannot be stabilized."""
        t_start = self.t
        saved = self._snapshot()
        n = FINE
        for attempt in range(MAX_HALVINGS + 1):
            ts = np.linspace(t_start, t_next, n + 1)
            hstep = ts[1] - ts[0]
            ws = [self.w]
            D_prev = _discriminant(self.pivot.d, self.blocks)
            t_prev = t_start
            trouble = False
            jumped = False
            for t in ts[1:]:
                gap, jump = self._node(t)
                ws.append(self.w)
                if gap < GAP_COLLIDE:
                    self._breakdown(t_start, t_next)
                D_now = _discriminant(self.pivot.d, self.blocks)
                if D_prev != 0 and abs(np.angle(D_now / D_prev)) > 2.0:
                    # discriminant phase flip: collision candidate in (t_prev, t)
                    self._breakdown(t_prev, t)
                D_prev, t_prev = D_now, t
                if gap < GAP_REFINE or jump:
                    trouble = True
                    jumped = jump
                    if attempt < MAX_HALVINGS:
                        break
            if not trouble or attempt == MAX_HALVINGS:
                if trouble:
                    self._breakdown(t_start, t_next)
                    if jumped:
                        raise GridError(
                            f"branch tracking failed in ({t_start:.6g}, "
                            f"{t_next:.6g}) after {MAX_HALVINGS} halvings")
                self.Lam = self.Lam + simpson_increment(ws, hstep)
                self.t = t_next
                return
            self._restore(saved)
            n *= 2

    def factors(self):
        """(g_det1, d, h, k) at the current node; k = g*h is gauge-invariant and
        g is presented det-normalized with a continuously tracked N-th root."""
        s = np.exp(-self._logdet / self.pivot.N)
        g_pres = s * self.pivot.g
        h_raw = np.exp(-self.Lam)
        h_pres = h_raw / s
        k = self.pivot.g * h_raw[None, :]
        return g_pres, self.pivot.d.copy(), h_pres, k
