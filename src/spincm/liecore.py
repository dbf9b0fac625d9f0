"""Root-system and Chevalley-basis machinery for sl(N,C) in the defining representation.

Conventions: the invariant pairing is the trace form (X,Y) = tr(XY), under which
(e_a, e_-a) = 1, [e_a, e_-a] = H_a and h_{a_i} = H_{a_i}.  Roots a = eps_i - eps_j
are encoded as ordered index pairs (i, j), i != j, enumerated lexicographically;
positive roots have i < j.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError, require_keys

TRACELESS_TOL = 1e-12


def _check_traceless(X, name="matrix"):
    scale = max(1.0, float(np.abs(X).max(initial=0.0)))
    if abs(np.trace(X)) > TRACELESS_TOL * scale * X.shape[0]:
        raise ValidationError(f"{name} is not traceless (trace={np.trace(X):.3e})")


@dataclass(frozen=True)
class LieContext:
    """Root data for sl(N,C): roots, Chevalley basis, pairings and projections."""

    N: int
    roots: tuple  # ordered (i, j) pairs, lexicographic
    cartan_matrix: np.ndarray  # (N-1, N-1)
    inv_cartan: np.ndarray  # (N-1, N-1)
    x_basis: np.ndarray = field(repr=False)  # (N-1, N, N) orthonormal Cartan basis

    def root_index(self, pair):
        try:
            return self.roots.index(tuple(pair))
        except ValueError:
            raise ValidationError(f"{pair} is not a root index pair for N={self.N}")

    def e(self, alpha):
        """Root vector e_alpha = E_ij as an N x N matrix."""
        i, j = self._pair(alpha)
        m = np.zeros((self.N, self.N), dtype=complex)
        m[i, j] = 1.0
        return m

    def coroot(self, alpha):
        """H_alpha = E_ii - E_jj (equals h_alpha under the trace form)."""
        i, j = self._pair(alpha)
        m = np.zeros((self.N, self.N), dtype=complex)
        m[i, i] = 1.0
        m[j, j] = -1.0
        return m

    def _pair(self, alpha):
        if isinstance(alpha, (int, np.integer)):
            return self.roots[int(alpha)]
        return tuple(alpha)

    def struct_const(self, alpha, beta):
        """N_{a,b} with [e_a, e_b] = N_{a,b} e_{a+b}; None when a+b is not a root."""
        i, j = self._pair(alpha)
        k, l = self._pair(beta)
        if j == k and l == i:
            return None  # beta == -alpha
        if j == k and i != l:
            return 1
        if l == i and j != k:
            return -1
        return None

    def add_roots(self, alpha, beta):
        """Index of a+b when it is a root, else None."""
        i, j = self._pair(alpha)
        k, l = self._pair(beta)
        if j == k and i != l:
            return self.root_index((i, l))
        if l == i and j != k:
            return self.root_index((k, j))
        return None


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
    C = np.linalg.inv(A)

    # Orthonormal traceless diagonal basis under tr(XY):
    # x_k ~ diag(1,...,1,-k,0,...,0)/sqrt(k(k+1)).
    xs = np.zeros((N - 1, N, N), dtype=complex)
    for k in range(1, N):
        d = np.zeros(N)
        d[:k] = 1.0
        d[k] = -k
        xs[k - 1] = np.diag(d / np.sqrt(k * (k + 1)))

    return LieContext(N=N, roots=roots, cartan_matrix=A,
                      inv_cartan=C, x_basis=xs)


def project_cartan(X):
    """Projection Pi_h onto the Cartan subalgebra: the diagonal part."""
    X = np.asarray(X, dtype=complex)
    _check_traceless(X, "project_cartan input")
    return np.diag(np.diag(X))


def root_coefficient(X, alpha, ctx=None):
    """xi_alpha = (X, e_{-alpha}) = X_ij for alpha = eps_i - eps_j."""
    X = np.asarray(X)
    if ctx is not None:
        i, j = ctx._pair(alpha)
    else:
        i, j = tuple(alpha)
    n = X.shape[0]
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ValidationError(f"invalid root index pair ({i},{j}) for size {n}")
    return X[i, j]


@dataclass
class RootSubset:
    """A closed symmetric root subset Delta' ('delta') or a simple subset pi' ('pi').

    Derived data is attached by ``validate_root_subset``: for 'delta' the induced
    partition of {0..N-1}; for 'pi' the root span and the positive/negative
    complements of the span.
    """

    kind: str  # "delta" | "pi"
    members: tuple
    # derived (filled by validate_root_subset):
    partition: tuple = None          # delta: tuple of sorted index tuples
    span: tuple = None               # pi: root indices of <pi'>
    obar_plus: tuple = None          # pi: positive roots outside the span
    obar_minus: tuple = None

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
            members = tuple((int(i) - 1, int(j) - 1) for i, j in d["members"])
        elif kind == "pi":
            members = tuple(int(k) - 1 for k in d["members"])
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


def roots_of_partition(partition):
    """All (i, j), i != j with i, j in a common block."""
    out = []
    for block in partition:
        for i in block:
            for j in block:
                if i != j:
                    out.append((i, j))
    return sorted(out)


def validate_root_subset(ctx, subset):
    """Validate and attach derived data; raises ValidationError naming violations."""
    N = ctx.N
    if subset.kind == "delta":
        members = set()
        for pair in subset.members:
            i, j = pair
            if not (0 <= i < N and 0 <= j < N) or i == j:
                raise ValidationError(f"root pair {pair} out of range for N={N}")
            members.add((i, j))
        for (i, j) in members:
            if (j, i) not in members:
                raise ValidationError(
                    f"Delta' not symmetric: ({i},{j}) present but ({j},{i}) missing")
        partition = partition_from_pairs(N, members)
        # a symmetric Delta' is closed iff it is all roots of its partition
        full = set(roots_of_partition(partition))
        if members != full:
            missing = sorted(full - members)
            raise ValidationError(
                f"Delta' not closed: partition {partition} requires {missing[0]}")
        return RootSubset(kind="delta", members=tuple(sorted(members)),
                          partition=partition)

    if subset.kind == "pi":
        for k in subset.members:
            if not (0 <= k < N - 1):
                raise ValidationError(f"simple-root index {k} out of range for N={N}")
        members = tuple(sorted(set(subset.members)))
        # <pi'> = roots inside the interval blocks generated by the chosen simples
        pairs = [(k, k + 1) for k in members]
        partition = partition_from_pairs(N, pairs)
        span = tuple(sorted(roots_of_partition(partition)))
        span_set = set(span)
        obar_plus = tuple((i, j) for (i, j) in ctx.roots
                          if i < j and (i, j) not in span_set)
        obar_minus = tuple((j, i) for (i, j) in obar_plus)
        return RootSubset(kind="pi", members=members, partition=partition,
                          span=span, obar_plus=obar_plus, obar_minus=obar_minus)

    raise ValidationError(f"unknown root-subset kind {subset.kind!r}")


def gauge_group_element(ctx, xi):
    """The diagonal gauge g(xi) = exp(sum_ij C_ji log(xi_{a_j}) h_{a_i}), principal log.

    Requires xi in U: xi_{a_i} != 0 for every simple root.
    """
    xi = np.asarray(xi, dtype=complex)
    N = ctx.N
    scale = max(1.0, float(np.abs(xi).max(initial=0.0)))
    logs = np.zeros(N - 1, dtype=complex)
    for k in range(N - 1):
        v = xi[k, k + 1]
        if abs(v) <= 1e-12 * scale:
            raise DomainError(f"outside U: xi_(alpha_{k + 1}) = 0")
        logs[k] = cmath.log(v)
    return np.diag(np.exp(coroot_diagonal(ctx, logs)))


def coroot_diagonal(ctx, x):
    """Diagonal of sum_ij C_ji x_j h_{a_i} for x indexed by the simple roots."""
    coeff = ctx.inv_cartan.T @ x
    diag = np.zeros(ctx.N, dtype=complex)
    diag[:-1] += coeff
    diag[1:] -= coeff
    return diag


def reduce_gauge(ctx, xi):
    """s = g(xi)^-1 xi g(xi); simple-root entries of s are snapped to exactly 1."""
    g = gauge_group_element(ctx, xi)
    gd = np.diag(g)
    s = xi * np.outer(1.0 / gd, gd)
    for k in range(ctx.N - 1):
        if abs(s[k, k + 1] - 1.0) > 1e-8:
            raise RuntimeError(
                f"gauge reduction failed: s_(alpha_{k + 1}) = {s[k, k + 1]}")
        s[k, k + 1] = 1.0
    return s
