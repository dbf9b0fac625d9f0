"""Root data of sl(N,C) in the defining representation: the roots, the root
subsets Delta' and pi', and the diagonal gauge reduction s = g(xi)^-1 xi g(xi).

Roots a = eps_i - eps_j are encoded as ordered index pairs (i, j), i != j,
enumerated lexicographically; positive roots have i < j.  Under the trace
form (X,Y) = tr(XY) the coroot h_a is H_a = E_ii - E_jj.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError, _integral, require_keys


@dataclass(frozen=True)
class LieContext:
    """Root data for sl(N,C): the roots and the inverse Cartan matrix."""

    N: int
    roots: tuple  # ordered (i, j) pairs, lexicographic
    inv_cartan: np.ndarray  # (N-1, N-1)


def build_sl_context(N):
    """Construct the sl(N,C) root datum in the defining representation."""
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise ValidationError(f"N must be an integer >= 2, got {N!r}")
    N = int(N)
    roots = tuple((i, j) for i in range(N) for j in range(N) if i != j)

    # Cartan matrix A_ij = a_j(h_{a_i}) = tr(H_i H_j) for sl(N).
    A = np.zeros((N - 1, N - 1))
    for i in range(N - 1):
        A[i, i] = 2.0
        if i + 1 < N - 1:
            A[i, i + 1] = -1.0
            A[i + 1, i] = -1.0
    return LieContext(N=N, roots=roots, inv_cartan=np.linalg.inv(A))


@dataclass
class RootSubset:
    """A closed symmetric root subset Delta' ('delta') or a simple subset pi' ('pi').

    ``validate_root_subset`` attaches the partition of {0..N-1} both stand for:
    Delta' and <pi'> are the roots inside its blocks (for pi', the runs of
    consecutive chosen simple roots), as ``block_mask`` gives them.
    """

    kind: str  # "delta" | "pi"
    members: tuple
    partition: tuple = None  # derived: tuple of sorted index tuples

    def to_json_dict(self):
        if self.kind == "delta":
            members = [[i + 1, j + 1] for (i, j) in self.members]
        else:
            members = [k + 1 for k in self.members]
        return {"kind": self.kind, "members": members}

    @staticmethod
    def from_json_dict(d):
        require_keys(d, ("kind", "members"), "root subset")
        kind = d["kind"]
        if kind == "delta":
            members = tuple((_integral(i) - 1, _integral(j) - 1)
                            for i, j in d["members"])
        elif kind == "pi":
            members = tuple(_integral(k) - 1 for k in d["members"])
        else:
            raise ValidationError(f"unknown root-subset kind {kind!r}")
        return RootSubset(kind=kind, members=members)


def delta_subset(pairs):
    """RootSubset of kind 'delta' from (i, j) pairs (0-based)."""
    return RootSubset(kind="delta", members=tuple(tuple(p) for p in pairs))


def pi_subset(indices):
    """RootSubset of kind 'pi' from simple-root positions (0-based: alpha_{k+1})."""
    return RootSubset(kind="pi", members=tuple(int(k) for k in indices))


def partition_from_pairs(N, pairs):
    """Union-find partition of {0..N-1} generated by i ~ j for (i, j) in pairs."""
    parent = list(range(N))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    blocks = {}
    for k in range(N):
        blocks.setdefault(find(k), []).append(k)
    return tuple(tuple(sorted(b)) for b in sorted(blocks.values()))


def block_mask(N, partition):
    """(N, N) mask of the index pairs i != j inside one block of partition."""
    mask = np.zeros((N, N), dtype=bool)
    for block in partition:
        mask[np.ix_(block, block)] = True
    np.fill_diagonal(mask, False)
    return mask


def _one_based(indices):
    """A 0-based index tuple, nested or not, as the 1-based one of the JSON."""
    return tuple(_one_based(k) if isinstance(k, tuple) else k + 1 for k in indices)


def validate_root_subset(ctx, subset):
    """Validate and attach the partition; ValidationError names violations by
    the 1-based indices of the model JSON."""
    N = ctx.N
    if subset.kind == "delta":
        members = set()
        for pair in subset.members:
            i, j = pair
            if not (0 <= i < N and 0 <= j < N) or i == j:
                raise ValidationError(
                    f"root pair {_one_based(pair)} out of range for N={N}")
            members.add((i, j))
        for (i, j) in members:
            if (j, i) not in members:
                raise ValidationError(
                    f"Delta' not symmetric: ({i + 1},{j + 1}) present but "
                    f"({j + 1},{i + 1}) missing")
        partition = partition_from_pairs(N, members)
        # a symmetric Delta' is closed iff it is all roots of its partition
        full = set(map(tuple, np.argwhere(block_mask(N, partition)).tolist()))
        if members != full:
            raise ValidationError(
                f"Delta' not closed: partition {_one_based(partition)} "
                f"requires {_one_based(min(full - members))}")
        return RootSubset(kind="delta", members=tuple(sorted(members)),
                          partition=partition)

    if subset.kind == "pi":
        for k in subset.members:
            if not (0 <= k < N - 1):
                raise ValidationError(
                    f"simple-root index {k + 1} out of range for N={N}")
        members = tuple(sorted(set(subset.members)))
        # <pi'> = roots inside the interval blocks generated by the chosen simples
        partition = partition_from_pairs(N, [(k, k + 1) for k in members])
        return RootSubset(kind="pi", members=members, partition=partition)

    raise ValidationError(f"unknown root-subset kind {subset.kind!r}")


def gauge_group_element(ctx, xi):
    """The diagonal gauge g(xi) = exp(sum_ij C_ji log(xi_{a_j}) h_{a_i}), principal log,
    of each xi of a stack (..., N, N).

    Requires xi in U: xi_{a_i} != 0 for every simple root.
    """
    xi = np.asarray(xi, dtype=complex)
    simple = xi.diagonal(1, -2, -1)
    scale = np.fmax(1.0, np.abs(xi).max(axis=(-2, -1), initial=0.0))
    # |.| as the scalar one: numpy's array |.| of a complex differs from it
    outside = np.hypot(simple.real, simple.imag) <= 1e-12 * scale[..., None]
    if outside.any():
        k = np.argwhere(outside)[0][-1]
        raise DomainError(f"outside U: xi_(alpha_{k + 1}) = 0")
    logs = np.array([cmath.log(v) for v in simple.ravel()], dtype=complex)
    d = np.exp(coroot_diagonal(ctx, logs.reshape(simple.shape)))
    return d[..., None, :] * np.eye(ctx.N)


def coroot_diagonal(ctx, x):
    """Diagonal of sum_ij C_ji x_j h_{a_i} for x (..., N-1) indexed by the
    simple roots, over leading axes."""
    coeff = (ctx.inv_cartan.T @ x[..., None])[..., 0]
    diag = np.zeros(x.shape[:-1] + (ctx.N,), dtype=complex)
    diag[..., :-1] += coeff
    diag[..., 1:] -= coeff
    return diag


def snap_simple_roots(s):
    """The simple-root entries of a stack s (..., N, N) that are not 1 within
    1e-8, as a mask (..., N-1); the others are set to exactly 1 in place."""
    N = s.shape[-1]
    simple = s.diagonal(1, -2, -1)
    bad = np.hypot(simple.real - 1.0, simple.imag) > 1e-8
    s[..., range(N - 1), range(1, N)] = np.where(bad, simple, 1.0)
    return bad


def reduce_gauge(ctx, xi):
    """s = g(xi)^-1 xi g(xi) of each xi of a stack (..., N, N); simple-root
    entries of s are snapped to exactly 1."""
    gd = gauge_group_element(ctx, xi).diagonal(0, -2, -1)
    # np.multiply, as `*` on a large temporary swaps the operands (elision)
    s = np.multiply(xi, (1.0 / gd)[..., :, None] * gd[..., None, :])
    bad = snap_simple_roots(s)
    if bad.any():
        *row, k = np.argwhere(bad)[0]
        raise RuntimeError(f"gauge reduction failed: s_(alpha_{k + 1}) = "
                           f"{s[(*row, k, k + 1)]}")
    return s
