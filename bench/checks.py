"""Output checks of the benchmark, made apart from the program.

Everything a check compares against is computed here from the inputs: a
direct lattice sum for the Weierstrass function, each family's Hamiltonian,
the eigenvalues of q0 + t L(inf) for the rational family, the analytic
collision time of ``collision-sl2`` and the genus formula of the spectral
curve.  The only module of the program these functions call is
``spincm.special.wp`` (the values the ℘ check is about).

A check returns a list of problems, each a ``(tag, message)`` pair; an empty
list means the operation's outputs are correct.  Tags let an operation that
is known to fail declare which failures are the known fault.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.linalg import eig as scipy_eig
from scipy.optimize import linear_sum_assignment

# acceptance bounds of the audit (absolute), as in the acceptance criteria
ENERGY_BOUND = 1e-8
MOMENTUM_BOUND = 1e-9
EIG_BOUND = 1e-7
# exact-vs-oracle thresholds of the paper
THRESHOLD = {"rational": 1e-6, "trigonometric": 1e-5}

COLLISION_T = 2.0 / 3.0   # analytic collision time of the collision-sl2 preset
WP_REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# output parsing
# ---------------------------------------------------------------------------

class Trajectory:
    """A trajectory CSV written by the program: times, q, p, the spin matrix,
    and the '#' footer lines as floats."""

    def __init__(self, text):
        lines = text.splitlines()
        header_at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        cols = lines[header_at].split(",")
        self.footer = {}
        rows = []
        for ln in lines[header_at + 1:]:
            if ln.startswith("#"):
                key, _, val = ln[1:].partition(":")
                self.footer[key.strip()] = float(val)
            elif ln:
                rows.append([float(v) for v in ln.split(",")])
        data = np.array(rows, dtype=float).reshape(len(rows), len(cols))
        N = sum(1 for c in cols if c.startswith("Re_q_"))
        z = data[:, 1::2] + 1j * data[:, 2::2]
        self.N = N
        self.t = data[:, 0]
        self.q = z[:, :N]
        self.p = z[:, N:2 * N]
        self.m = z[:, 2 * N:].reshape(len(rows), N, N)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_trajectory(path):
    with open(path) as fh:
        return Trajectory(fh.read())


# ---------------------------------------------------------------------------
# independent mathematics
# ---------------------------------------------------------------------------

def alpha_matrix(q):
    q = np.asarray(q)
    return q[:, None] - q[None, :]


def pi_blocks(N, pi_members):
    """Partition of {0..N-1} joined by the simple roots alpha_k, k in pi'
    (0-based: alpha_k joins k and k+1)."""
    blocks = [[i] for i in range(N)]
    for k in sorted(pi_members):
        a = next(b for b in blocks if k in b)
        b = next(b for b in blocks if k + 1 in b)
        if a is not b:
            a.extend(b)
            blocks.remove(b)
    return [sorted(b) for b in blocks]


def same_block_mask(N, blocks):
    m = np.zeros((N, N), dtype=bool)
    for b in blocks:
        m[np.ix_(b, b)] = True
    np.fill_diagonal(m, False)
    return m


class LatticeSum:
    """Weierstrass ℘ of the lattice 2*w1 Z + 2*w2 Z by a direct lattice sum.

    Terms carry counterterms through lambda^-6, so the truncated symmetric
    square converges like its lambda^-8 tail; the two moments the
    counterterms remove, S4 and S6, are summed over growing squares (row by
    row, to keep memory small) and Richardson-extrapolated.
    """

    def __init__(self, omega1, omega2, K=64):
        self.p1, self.p2 = 2 * complex(omega1), 2 * complex(omega2)
        self.pts = self._square(K)
        Ks = (128, 256, 512, 1024)
        self.S4 = self._extrapolate(Ks, [self._moment(K4, 4) for K4 in Ks])
        self.S6 = self._extrapolate(Ks, [self._moment(K6, 6) for K6 in Ks])

    def _square(self, K):
        m, n = np.meshgrid(np.arange(-K, K + 1), np.arange(-K, K + 1))
        keep = (m != 0) | (n != 0)
        return (self.p1 * m[keep] + self.p2 * n[keep]).astype(complex)

    def _moment(self, K, j):
        n = np.arange(-K, K + 1)
        acc = 0j
        for m in range(-K, K + 1):
            row = self.p1 * m + self.p2 * n
            if m == 0:
                row = row[n != 0]
            acc += np.sum(row ** (-float(j)))
        return acc

    @staticmethod
    def _extrapolate(Ks, vals, exps=(2, 3, 4)):
        A = np.array([[1.0] + [float(K) ** (-e) for e in exps] for K in Ks])
        return np.linalg.solve(A.astype(complex), np.asarray(vals, dtype=complex))[0]

    def wp(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.empty(z.shape, dtype=complex)
        lam = self.pts
        for idx, zz in np.ndenumerate(z):
            terms = ((zz - lam) ** -2 - lam ** -2 - 2 * zz * lam ** -3
                     - 3 * zz ** 2 * lam ** -4 - 4 * zz ** 3 * lam ** -5
                     - 5 * zz ** 4 * lam ** -6)
            out[idx] = (zz ** -2 + terms.sum() + 3 * zz ** 2 * self.S4
                        + 5 * zz ** 4 * self.S6)
        return out


def hamiltonian(model, q, p, m, wp=None):
    """H = 1/2 tr p^2 - 1/2 sum_a kappa_a(q) m_a m_-a - c0 sum_i m_ii^2 for the
    family of `model` (a model JSON dict); `wp` evaluates ℘ (elliptic only)."""
    N = len(q)
    A = alpha_matrix(q)
    off = ~np.eye(N, dtype=bool)
    kappa = np.zeros((N, N), dtype=complex)
    c0 = 0.0
    fam = model["family"]
    if fam == "rational":
        mask = np.zeros((N, N), dtype=bool)
        for i, j in model["root_subset"]["members"]:
            mask[i - 1, j - 1] = True
        kappa[mask] = 1.0 / A[mask] ** 2
    elif fam == "trigonometric":
        span = same_block_mask(N, pi_blocks(N, [k - 1 for k in model["root_subset"]["members"]]))
        kappa[off] = -1.0 / 3.0
        kappa[span] = 1.0 / np.sin(A[span]) ** 2 - 1.0 / 3.0
        c0 = 1.0 / 3.0
    else:
        kappa[off] = wp(A[off])
    h = 0.5 * np.sum(p ** 2) - 0.5 * np.sum(kappa * m * m.T)
    return complex(h - c0 * np.sum(np.diag(m) ** 2))


def rational_linf(model, q, p, m):
    """L(inf) = diag(p) + sum_{Delta'} m_a / a(q) e_a."""
    N = len(q)
    L = np.diag(np.asarray(p, dtype=complex))
    A = alpha_matrix(q)
    for i, j in model["root_subset"]["members"]:
        L[i - 1, j - 1] += m[i - 1, j - 1] / A[i - 1, j - 1]
    return L


def eigen_flow(Q0, Linf, t):
    """Eigenvalues of Q0 + t*Linf and their t-derivatives (Hellmann-Feynman)."""
    w, vl, vr = scipy_eig(Q0 + t * Linf, left=True, right=True)
    num = np.einsum("ik,ij,jk->k", vl.conj(), Linf, vr)
    den = np.einsum("ik,ik->k", vl.conj(), vr)
    return w, num / den


def match(a, b):
    """max |a_i - b_perm(i)| over the best pairing of two vectors."""
    cost = np.abs(np.subtract.outer(a, b))
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].max()), c


# ---------------------------------------------------------------------------
# checks, one per kind of program output
# ---------------------------------------------------------------------------

def _bound(problems, tag, value, bound):
    if not value <= bound:
        problems.append((tag, f"{tag} = {value:.3e} exceeds {bound:.0e}"))


def check_exit(code, expected):
    return [] if code == expected else [("exit", f"exit code {code}, expected {expected}")]


def check_compare(code, report, threshold):
    """compare: exit 0, pass, and every sup-norm gap within the threshold."""
    problems = []
    if code == 1 and report is not None and report.get("pass") is False:
        problems.append(("compare_fail", "compare reports a gap over its threshold"))
    elif code != 0:
        return check_exit(code, 0)
    for key in ("sup_q", "sup_p", "sup_xi"):
        _bound(problems, key, report[key], threshold)
    if report["threshold"] != threshold:
        problems.append(("threshold", f"threshold {report['threshold']} != {threshold}"))
    return problems


def check_audit(code, report):
    problems = check_exit(code, 0)
    if problems:
        return problems
    _bound(problems, "energy_drift", report["energy_drift"], ENERGY_BOUND)
    _bound(problems, "momentum_drift", report["momentum_drift"], MOMENTUM_BOUND)
    _bound(problems, "eig_drift", report["eig_drift"], EIG_BOUND)
    if report["blowup"]:
        problems.append(("blowup", "audit trajectory blew up"))
    return problems


def check_simulate(code, traj, samples):
    problems = check_exit(code, 0)
    if problems:
        return problems
    if len(traj.t) != samples:
        problems.append(("rows", f"{len(traj.t)} rows, expected {samples}"))
    _bound(problems, "energy_drift", traj.footer["energy_drift"], ENERGY_BOUND)
    _bound(problems, "momentum_drift", traj.footer["momentum_drift"], MOMENTUM_BOUND)
    return problems


def check_exact(code, traj, samples):
    """exact: all rows, J = 0 kept (zero diagonal spin) and the spin matrix
    stays conjugate to its initial value (same eigenvalues)."""
    problems = check_exit(code, 0)
    if problems:
        return problems
    if len(traj.t) != samples:
        problems.append(("rows", f"{len(traj.t)} rows, expected {samples}"))
    scale = max(1.0, float(np.abs(traj.m[0]).max()))
    diag = float(np.abs(np.diagonal(traj.m, axis1=1, axis2=2)).max())
    _bound(problems, "spin_diagonal", diag / scale, 1e-9)
    ev0 = np.linalg.eigvals(traj.m[0])
    spread = max(match(np.linalg.eigvals(mk), ev0)[0] for mk in traj.m)
    _bound(problems, "spin_spectrum", spread / scale, 1e-8)
    return problems


def check_energy(traj, model, wp=None, bound=ENERGY_BOUND, stride=1):
    """Energy of the written trajectory by the benchmark's own Hamiltonian."""
    rows = list(range(0, len(traj.t), stride))
    if rows[-1] != len(traj.t) - 1:
        rows.append(len(traj.t) - 1)
    E = [hamiltonian(model, traj.q[k], traj.p[k], traj.m[k], wp) for k in rows]
    problems = []
    _bound(problems, "own_energy_drift", max(abs(e - E[0]) for e in E), bound)
    return problems


def check_rational_eigenflow(traj, model):
    """Rational family: q(t) are the eigenvalues of q0 + t L(inf), and p(t)
    their t-derivatives."""
    Q0 = np.diag(traj.q[0])
    Linf = rational_linf(model, traj.q[0], traj.p[0], traj.m[0])
    gq = gp = 0.0
    for k, t in enumerate(traj.t):
        w, dw = eigen_flow(Q0, Linf, t)
        dq, perm = match(traj.q[k], w)
        gq = max(gq, dq)
        gp = max(gp, float(np.abs(traj.p[k] - dw[perm]).max()))
    problems = []
    _bound(problems, "eigen_q", gq, 1e-8)
    _bound(problems, "eigen_p", gp, 1e-7)
    return problems


def check_agree(exact, oracle, threshold):
    """Exact q and p against the oracle's, at the family threshold."""
    problems = []
    if exact.t.shape != oracle.t.shape or np.abs(exact.t - oracle.t).max() > 1e-12:
        return [("times", "exact and oracle sample times differ")]
    _bound(problems, "agree_q", float(np.abs(exact.q - oracle.q).max()), threshold)
    _bound(problems, "agree_p", float(np.abs(exact.p - oracle.p).max()), threshold)
    return problems


def check_free_flight(traj, q0, p0, tol=1e-12):
    """q(t) = q0 + p0 t and p(t) = p0 exactly."""
    q_exact = np.asarray(q0)[None, :] + traj.t[:, None] * np.asarray(p0)[None, :]
    problems = []
    _bound(problems, "free_q", float(np.abs(traj.q - q_exact).max()), tol)
    _bound(problems, "free_p", float(np.abs(traj.p - np.asarray(p0)).max()), tol)
    return problems


def check_breakdown(code, traj, t_expected=None, tol=1e-9):
    """exact through a collision: exit 3, a breakdown time inside the run,
    every written row before it (and within `tol` of `t_expected`)."""
    problems = check_exit(code, 3)
    if problems:
        return problems
    t_b = traj.footer.get("breakdown_at")
    if t_b is None:
        return [("breakdown_at", "no breakdown_at footer")]
    if not traj.t[-1] < t_b:
        problems.append(("breakdown_at", f"rows written past breakdown {t_b}"))
    if t_expected is not None:
        _bound(problems, "breakdown_at", abs(t_b - t_expected), tol)
    return problems


def check_blowup(code, traj, t_expected, tol):
    """simulate into a collision: exit 4 and a blow-up time near the collision."""
    problems = check_exit(code, 4)
    if problems:
        return problems
    t_b = traj.footer.get("blowup_at")
    if t_b is None:
        return [("blowup_at", "no blowup_at footer")]
    _bound(problems, "blowup_at", abs(t_b - t_expected), tol)
    return problems


def check_curve(code, report, xi):
    """curve: GA2 read from the spin matrix's own eigenvalues; for generic
    data GA1 holds, genus = (N^2 - N + 2)/2 and B = 2(genus + N - 1)."""
    problems = check_exit(code, 0)
    if problems:
        return problems
    N = xi.shape[0]
    lam = np.linalg.eigvals(xi)
    gap = min(abs(lam[i] - lam[j]) for i in range(N) for j in range(i + 1, N))
    if abs(report["ga2_min_gap"] - gap) > 1e-9 * max(1.0, gap):
        problems.append(("ga2_gap", f"ga2_min_gap {report['ga2_min_gap']} != {gap}"))
    if gap < 1e-8:
        if report["ga2"] or report["genus"] is not None or report["B"] is not None:
            problems.append(("ga2", "degenerate spin reported generic"))
        return problems
    genus = (N * N - N + 2) // 2
    if not (report["ga1"] and report["ga2"]):
        problems.append(("genericity", f"GA1={report['ga1']} GA2={report['ga2']}"))
    if report["genus"] != genus:
        problems.append(("genus", f"genus {report['genus']}, expected {genus}"))
    if report["B"] != 2 * (genus + N - 1):
        problems.append(("B", f"B {report['B']}, expected {2 * (genus + N - 1)}"))
    return problems


def check_wp(lattice_sum, lattice, z):
    """The program's ℘ at root values against the direct lattice sum."""
    from spincm import special
    ours = lattice_sum.wp(z)
    theirs = special.wp(lattice, z)
    err = float(np.max(np.abs(theirs - ours) / np.maximum(1.0, np.abs(ours))))
    problems = []
    _bound(problems, "wp_lattice_sum", err, WP_REL_TOL)
    return problems
