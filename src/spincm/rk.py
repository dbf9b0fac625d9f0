"""Independent numerical oracle: adaptive DOP853 integration (Hairer,
Norsett & Wanner, Solving ODEs I, II.5-6) of the full or reduced equations
of motion over complex phase space, with output at equally spaced sample
times, singularity-margin abort, and invariant auditing.

The step / accept / sample loop is one core, ``dop853``, over a packed
complex state and a callable f(t, y) on it; the exact solvers run their
transport ODE on it too.  The stages and the embedded 8(5,3) error control
run on the buffers' stacked real/imaginary coordinates, so the standard
error norm applies unchanged; ``dop853`` says how its buffers make each
stage one matrix product and a step allocate no state array.  Steps run
freely over the sample times (the one clamp is onto the last): a sample
inside a step comes from the 7th-order continuous extension, and its defect
u' - f(u) is checked, and steers the step size, like the error estimate.
The samples inside one step share its stages, so they take one pass (Hairer,
Norsett & Wanner, II.6): their states in one product, f once on their stack
and their defect norms in one reduction; so f takes a state or a stack of
states, and a DomainError from that one call retries the step onto its
first inner sample.
The step-size factor is DOP853's 0.9 norm^(-1/8), capped after an
unclamped accepted step by Gustafsson's predictive factor (Gustafsson, ACM
TOMS 20 (1994); Hairer & Wanner, Solving ODEs II, IV.8), which carries the
last ratio of accepted steps: steps that shrink geometrically into the
singular set follow the shrink instead of alternating between an accepted
and a rejected step.  Each sample is written into a row of the caller's
array; a run ends early only on a failed step (the guard, a non-finite
state, or a collapsed step), with fewer samples: there is no step budget.
The oracle's f is ``models.packed_field``, built once per integration; its
regularity check, at y0, at every stage and at every stack of samples, is
the singularity-margin abort.

A ``Trajectory`` is one complex array y of shape (T, 2N + N^2), row i the
packed q | p | row-major xi (or s) at times[i]; the oracle and the exact
solvers write their samples straight into it.

Invariant auditing reads the whole trajectory at once, through the stacked
point ``Trajectory.point(slice(None))``: ``conserved`` makes one
``models.hamiltonian`` call (one regularity check and one kernel pass over
(T, roots); elliptic: one lattice reduction and one theta pass) and one
stacked momentum norm, and ``audit`` adds one ``models.lax_batch`` call for
the (T, K, N, N) Lax matrices and one ``eigvals`` over them.  A singular
row raises the DomainError of the first one, as a check row by row would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError
from .models import (PhasePoint, ReducedPoint, contour_radius, hamiltonian,
                     lax_batch, packed_field)

# DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed., II.5-6;
# Hairer's Fortran DOP853), as in scipy/integrate/_ivp/dop853_coefficients.py.
# Stages 0..11 make the step, stage 12 is f at the 8th-order solution (its
# weights are _A[12], c = 1) and stages 13..15 serve the dense output; row i
# of _A holds the nonzero weights {j: a_ij} of stage i
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
    1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778])
_A = np.zeros((16, 16))
for _i, _row in enumerate([
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
]):
    _A[_i, list(_row)] = list(_row.values())
_B = _A[12]
# the embedded error estimators of orders 5 and 3, over the stages 0..11
_E5 = np.zeros(16)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]
_E3 = _B.copy()
_E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1]
# the 7th-order continuous extension: with x = (s - t) / h in [0, 1],
# u(s) = y + h sum_i w_i(x) _G[i] . K over the stages K_0..K_15, where the
# rows of _G are B, e_0 - B, 2B - e_0 - e_12 and the four rows of D, and the
# weights are the fixed polynomials w_i = x^a (1-x)^b, (a, b) = (1, 0),
# (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3): the running products of
# the factors x, 1-x, x, 1-x, ...  Their derivatives are
# w_i' = x^(a-1) (1-x)^(b-1) (a - (a+b) x) = w_{i-2} (a - (a+b) x), with
# w_{-2} = w_{-1} = 1.  At one x, [1, x] _LIN is the row of the seven
# factors and the seven a - (a+b) x
_LIN = np.array([[0.0, 1, 0, 1, 0, 1, 0, 1, 1, 2, 2, 3, 3, 4],
                 [1, -1, 1, -1, 1, -1, 1, 0, -2, -3, -4, -5, -6, -7]])
_D = np.zeros((4, 16))
for _i, _row in enumerate([
    [-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3],
]):
    _D[_i, [0] + list(range(5, 16))] = _row
_G = np.vstack([_B, np.eye(16)[0] - _B, 2 * _B - np.eye(16)[0] - np.eye(16)[12], _D])
# the step's coefficient rows over [y | K_0 .. K_15], times h in columns 1..:
# rows 0..10 the inputs of stages 1..11, row 11 the 8th-order solution y1
# (the input of stage 12), rows 12..14 the inputs of stages 13..15, and rows
# 15, 16 the two error estimates (no y term)
_STEP = np.zeros((17, 17))
_STEP[:15, 0] = 1.0
_STEP[:15, 1:] = _A[1:]
_STEP[15:, 1:] = [_E5, _E3]
del _i, _row


@dataclass
class Trajectory:
    """The packed states y (see the module docstring; read-only) at `times`,
    with provenance and step statistics.  q, p and xi (s on a reduced
    trajectory) are views of y of shapes (T, N), (T, N) and (T, N, N)."""

    times: np.ndarray
    y: np.ndarray
    reduced: bool
    provenance: str
    stats: dict = field(default_factory=dict)
    blowup: bool = False
    last_good_time: float = None
    breakdown_time: float = None

    def __post_init__(self):
        self.y.flags.writeable = False
        self.N = N = math.isqrt(self.y.shape[1] + 1) - 1
        self.q, self.p = self.y[:, :N], self.y[:, N:2 * N]
        self.xi = self.y[:, 2 * N:].reshape(-1, N, N)

    def point(self, i):
        """The state at row i on views of the row, unchecked: a ReducedPoint
        on a reduced trajectory (its ``xi`` is the lift xi := s), else a
        PhasePoint.  For a slice i it is the stacked point of those rows: q
        and p of shape (T, N), the matrix (T, N, N)."""
        cls = ReducedPoint if self.reduced else PhasePoint
        N, row = self.N, self.y[i]
        pt = cls.__new__(cls)
        pt.q, pt.p = row[..., :N], row[..., N:2 * N]
        setattr(pt, pt._matrix, row[..., 2 * N:].reshape(row.shape[:-1] + (N, N)))
        return pt


def check_tol(tol):
    """The error tolerance accepted by the integrators: 1e-13 <= tol <= 1e-3."""
    if not (1e-13 <= tol <= 1e-3):
        raise ValidationError(f"tol={tol} outside [1e-13, 1e-3]")


def _factor(norm):
    """The step size's factor after a step whose error or defect norm is
    `norm`: 0.9 norm^(-1/8) within [0.2, 5] (0.2 for a NaN norm)."""
    return 5.0 if norm == 0.0 else min(5.0, max(0.2, 0.9 * norm ** -0.125))


def _sample_pass(m, n):
    """The buffers of ``dop853``'s pass over m samples inside a step, on n
    real coordinates, with their views.  Per sample: [1, x] (m, 2) (view
    x); the weights w then w' (m, 14) (views w, w[:, :5], w'[:, 2:], and
    (2m, 7), a row w then a row w' per sample); the rows [1 | h w G] and
    [0 | h w' G] (2m, 17) (view of the G columns); their products u and
    h u' (2m, n) (views U and D of the rows u and h u', their complex views,
    and D's rows as (m, 1, n) and (m, n, 1)); D's squared row norms
    (m, 1, 1); U's finite entries (m, n); h f (m, n/2)."""
    X = np.ones((m, 2))
    W = np.empty((m, 14))
    WG = np.zeros((2 * m, 17))
    WG[0::2, 0] = 1.0
    UD = np.empty((2 * m, n))
    U, D = UD[0::2], UD[1::2]
    return (X, X[:, 1], W, W[:, :7], W[:, :5], W[:, 9:], W.reshape(2 * m, 7), WG,
            WG[:, 1:], UD, U, U.view(complex), D, D.view(complex), D[:, None],
            D[..., None], np.empty((m, 1, 1)), np.empty((m, n), dtype=bool),
            np.empty((m, n // 2), dtype=complex))


def dop853(f, y0, sample_times, tol, out, guard=None):
    """Adaptive DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5-6) of
    y' = f(t, y) from the complex state y0 at sample_times[0] to
    sample_times[-1].

    Steps run freely over the sample times; the one clamp is onto the last.
    Sample i goes into row i of the complex array `out` (row 0 is y0): a
    sample at the end of an accepted step is its state, one strictly inside
    comes from the 7th-order continuous extension u (3 more stages per step
    with such samples) and must be finite and pass a defect check:
    h (u'(s) - f(s, u(s))), scaled like the error estimate, has an RMS norm
    of at most 1.  The m samples s_j inside one step come from the same
    stages, so one pass checks them all: the weights and their derivatives
    at every x_j = (s_j - t) / h, one product for every u(s_j) and
    h u'(s_j), one call of f on the stack of the finite ones (on the state
    itself when m = 1; each row counts as one f-evaluation) and one
    reduction for their defect norms.  The first sample that is not finite
    or fails its defect retries the step clamped onto that sample, and the
    step after the retry is at most the failed one times the step-size
    factor of that sample's defect; a DomainError from the extension's
    stages or from the call of f on the samples retries the step onto its
    first inner sample, the nearest one.  The samples' rows of `out` are
    written only when all of them pass, so a run that ends early leaves
    every row after its last delivered sample untouched.

    An accepted step must give a finite state (an infinite or NaN entry
    fails the step) that passes ``guard(y, n)``, if a guard is given, where n
    is the number of samples delivered so far (rows 0 .. n - 1 of `out`); a
    step that fails there and reaches past the next sample time is retried
    onto it.  A DomainError from stage 1 through stage 12 (the guard
    included) shrinks the step.  The one way a run ends early is a failed
    step: one that fails the guard or the finite state without reaching past
    a sample, or a step size that collapses.

    Times are compared with slacks that scale with the grid: in units of
    u = min(1, 1e6 x the smallest sample spacing), a step is clamped onto the
    last sample time 1e-14 u short of it, the run ends 1e-14 u short of it,
    a step delivers as its end state every sample 1e-12 u short of its end
    time or nearer, and a step collapses under 1e-15 max(u, |t|) (1e-12
    max(u, |t|) after a DomainError).  On a grid whose samples lie 1e-6 or
    more apart u = 1; on a finer one every slack stays under a millionth of
    the spacing.

    Buffers: f takes and returns complex arrays: f(t, y) of a state y (n,)
    at a time t, and, at the m >= 2 samples inside a step, the stack (m, n)
    of f at the states y (m, n) at the times t (m,).  Every value f returns
    is copied or used before its next call, so f may return one buffer per
    shape that it reuses; the y given to f and guard is one of the step's
    own buffers, valid only during the call.  The stages, the error norm
    and the samples run on the buffers' real views: y and the slopes
    K_0..K_15 are the rows of one real array YK, and each step fills its
    coefficients C = [1 | h A; 0 | h E5; 0 | h E3] with one multiplication,
    so a stage input, the 8th-order solution y1 and the two error estimates
    are one matrix product each; so are [u; h u'] of all the samples inside
    a step, from their rows [1 | h w G; 0 | h w' G] (the pass's buffers are
    built at the first step with that many samples).  The error norm is
    DOP853's 8(5,3) one,
    |e5|^2 / sqrt(n (|e5|^2 + 0.01 |e3|^2)) with the estimates scaled by
    tol (1 + max(|y|, |y1|)) (|y| kept from the last accepted step).  The
    step size follows the larger of the error norm and the step's largest
    sample defect by the factor 0.9 norm^(-1/8) within [0.2, 5].  After an
    accepted step of size h that was not clamped and whose norm is positive,
    the factor is also at most Gustafsson's predictive one,
    0.9 (h / h_acc) (e_acc / norm^2)^(1/8) within [0.2, 5], where h_acc and
    e_acc = max(0.01, norm) are those of the last such step (none before
    the first).  A rejected or clamped step neither uses nor sets h_acc and
    e_acc, and the cap after a retry onto a sample still applies.  Stage 12,
    f at y1, is evaluated once the error is accepted and becomes the next
    step's stage 0.

    Returns (t, stats, n): the time reached, {nsteps, nrejected, nfev}, and
    the number of samples delivered; a run that ended early delivered fewer
    than len(sample_times).
    """
    tarr = np.asarray(sample_times, dtype=float)
    ts = tarr.tolist()
    t, t_end = ts[0], ts[-1]
    u = min(1.0, 1e6 * float(np.diff(tarr).min(initial=np.inf)))
    y0 = np.asarray(y0, dtype=complex)
    n = 2 * y0.size
    # [y | K_0 .. K_15] and the step's coefficients
    YK = np.empty((17, n))
    YKc = YK.view(complex)
    y, yc = YK[0], YKc[0]
    yc[:] = y0
    out[0] = yc
    C = _STEP.copy()
    hAE = C[:, 1:]
    # the sample passes' buffers, by number of samples in the step
    passes = {}
    nxt = 1
    # the step size, and its cap for the step after a retry onto a sample
    h, hcap = min(1e-3, (t_end - t) / 100), math.inf
    # the last accepted step that set the predictive term, and its norm
    h_acc = e_acc = None
    YKc[1] = f(t, yc)
    nfev, nsteps, nrej = 1, 0, 0
    # stage inputs (ys, and y1), |y|, |y1|, the scale
    ys, y1, ay, ay1, sc = (np.empty(n) for _ in range(5))
    # the errors, their rows as (2, 1, n) and (2, n, 1), and their squares
    err = np.empty((2, n))
    err_r, err_c, e2 = err[:, None], err[..., None], np.empty((2, 1, 1))
    y1c = y1.view(complex)
    np.abs(y, out=ay)
    stages = [(float(_C[i]), C[i - 1, :i + 1], YK[:i + 1], YKc[i + 1], ys.view(complex))
              for i in (*range(1, 12), 13, 14, 15)]
    main, extra = stages[:11], stages[11:]
    y1_row, err_rows = C[11, :13], C[15:, :13]

    while t < t_end - 1e-14 * u:
        h_step = min(h, t_end - t)
        clamped = h_step < h
        if t + h_step >= t_end - 1e-14 * u:
            h_step = t_end - t
            clamped = True
        if h_step < 1e-15 * max(u, abs(t)):
            break
        np.multiply(_STEP[:, 1:], h_step, out=hAE)
        try:
            for c, ci, YKi, Ki, yic in main:
                np.matmul(ci, YKi, out=ys)
                Ki[:] = f(t + c * h_step, yic)
            nfev += 11
            np.matmul(y1_row, YK[:13], out=y1)
            np.matmul(err_rows, YK[:13], out=err)
            np.abs(y1, out=ay1)
            np.maximum(ay, ay1, out=sc)
            sc *= tol
            sc += tol
            err /= sc
            e5, e3 = np.matmul(err_r, err_c, out=e2).ravel().tolist()
            enorm = e5 / math.sqrt((e5 + 0.01 * e3) * n) if e5 else 0.0
            if not enorm <= 1.0:
                nrej, h = nrej + 1, h_step * _factor(enorm)
                continue
            t1 = t + h_step
            # the samples strictly inside the step: rows nxt .. inner - 1
            inner = nxt
            while inner < len(ts) and ts[inner] < t1 - 1e-12 * u:
                inner += 1
            # not < inf: an infinite or NaN entry
            if (not np.maximum.reduce(ay1) < math.inf
                    or (guard is not None and not guard(y1c, nxt))):
                if inner == nxt:
                    break
                # retry onto the next sample before ending the run
                nrej, h = nrej + 1, ts[nxt] - t
                continue
            YKc[13] = f(t1, y1c)
        except DomainError:
            # a trial stage left the domain (singular margin): shrink, then stop
            nrej += 1
            if h_step < 1e-12 * max(u, abs(t)):
                break
            h = h_step * 0.25
            continue
        nfev += 1
        # the samples strictly inside the step, rows nxt .. inner - 1, in one
        # pass: the first that is not finite or over its defect bound fails,
        # and a DomainError fails the first sample; their rows are written
        # only when all pass
        failed, dnorm, m = None, 0.0, inner - nxt
        if m:
            if m not in passes:
                passes[m] = _sample_pass(m, n)
            (X, x, W, w, w5, dw2, Wr, WG, wG, UD, U, Uc, D, Dc, Drow, Dcol, ss,
             finite, hF) = passes[m]
            try:
                for c, ci, YKi, Ki, yic in extra:
                    np.matmul(ci, YKi, out=ys)
                    Ki[:] = f(t + c * h_step, yic)
                nfev += 3
                # [1, x] _LIN gives the factors of w and the linear factors of
                # w' at each sample's x; then WG [y | K_0 .. K_15] = [u; h u']
                np.subtract(tarr[nxt:inner], t, out=x)
                np.divide(x, h_step, out=x)
                np.matmul(X, _LIN, out=W)
                np.multiply.accumulate(w, axis=1, out=w)
                np.multiply(dw2, w5, out=dw2)
                np.multiply(W, h_step, out=W)
                np.matmul(Wr, _G, out=wG)
                np.matmul(WG, YK, out=UD)
                # the samples before the first with an infinite or NaN entry
                good = m
                if not np.logical_and.reduce(np.isfinite(U, out=finite), axis=None):
                    good = int(np.argmin(np.logical_and.reduce(finite, axis=1)))
                    Uc, D, Dc, ss, hF = Uc[:good], D[:good], Dc[:good], ss[:good], hF[:good]
                    Drow, Dcol = D[:, None], D[..., None]
                if good:
                    # f on the state of one sample, else on the stack
                    F = f(ts[nxt], Uc[0]) if m == 1 else f(tarr[nxt:nxt + good], Uc)
                    nfev += good
                    # the scaled defects h (u' - f(s, u)) / sc and their norms
                    np.subtract(Dc, np.multiply(F, h_step, out=hF), out=Dc)
                    np.divide(D, sc, out=D)
                    np.matmul(Drow, Dcol, out=ss)
                    for j, sq in enumerate(ss.ravel().tolist(), nxt):
                        dn = math.sqrt(sq / n)
                        if not dn <= 1.0:  # also NaN
                            failed, dnorm = j, dn
                            break
                        dnorm = max(dnorm, dn)
                if failed is None and good < m:
                    failed, dnorm = nxt + good, math.inf
                if failed is None:
                    out[nxt:inner] = Uc
            except DomainError:
                failed, dnorm = nxt, math.inf
        if failed is not None:
            # retry onto the failing sample; the step after it is no longer
            # than the defect allows
            nrej, h, hcap = nrej + 1, ts[failed] - t, h_step * _factor(dnorm)
            continue
        t = t1
        y[:] = y1
        ay, ay1 = ay1, ay
        YK[1] = YK[13]  # FSAL
        nsteps, nxt = nsteps + 1, inner
        while nxt < len(ts) and t >= ts[nxt] - 1e-12 * u:
            out[nxt] = yc
            nxt += 1
        norm = max(enorm, dnorm)
        h_new = h_step * _factor(norm)
        if not clamped and norm:
            # Gustafsson's predictive factor: the last step ratio carries a
            # geometric shrink, as into the singular set, that norm misses
            if h_acc is not None:
                h_new = min(h_new, h_step * max(
                    0.2, 0.9 * (h_step / h_acc) * (e_acc / norm ** 2) ** 0.125))
            h_acc, e_acc = h_step, max(1e-2, norm)
        h, hcap = min(max(h, h_new) if clamped else h_new, hcap), math.inf

    return t, {"nsteps": nsteps, "nrejected": nrej, "nfev": nfev}, nxt


def integrate(spec, pt0, t_end, samples=200, tol=1e-10):
    """Adaptive DOP853 trajectory of pt0 at `samples` equally spaced
    times, with the vector field of ``models.packed_field`` built once.

    Aborts cleanly (blowup flag + last good time) when the configuration comes
    within the kernel pass's REGULARITY_MARGIN of the singular set: every
    stage checks it, one of them at the new state, and a stage that fails
    shrinks the step until the step size collapses (a sample that fails
    retries the step onto it).  A pt0 within that margin raises the
    DomainError of the field's first evaluation.
    """
    check_tol(tol)
    if samples < 2:
        raise ValidationError("samples must be >= 2")
    if not math.isfinite(t_end):
        raise ValidationError(f"t_end={t_end} is not finite")
    if t_end <= 0:
        raise ValidationError("t_end must be positive")
    reduced = isinstance(pt0, ReducedPoint)
    N = spec.ctx.N
    sample_times = np.linspace(0.0, float(t_end), int(samples))
    out = np.empty((sample_times.size, 2 * N + N * N), dtype=complex)
    y0 = np.concatenate([pt0.q, pt0.p, pt0.xi.ravel()])
    t, stats, n = dop853(packed_field(spec, reduced), y0, sample_times, tol, out)
    blowup = n < sample_times.size
    return Trajectory(times=sample_times[:n], y=out[:n], reduced=reduced,
                      provenance="oracle", stats=stats, blowup=blowup,
                      last_good_time=float(t) if blowup else None)


# ---------------------------------------------------------------------------
# invariant auditing
# ---------------------------------------------------------------------------

def default_z_samples(spec):
    """{0.7, 1.3i, 0.4+0.4i} scaled into the family's analyticity annulus."""
    base = np.array([0.7, 1.3j, 0.4 + 0.4j])
    if spec.family == "rational":
        return list(base)
    scale = 0.45 * 2.0 * contour_radius(spec) / 1.3
    return list(base * scale)


@dataclass
class InvariantReport:
    """Per-time conserved quantities and their maximal drifts over a trajectory."""

    times: np.ndarray
    z_samples: list
    energy: np.ndarray          # (T,)
    momentum_norm: np.ndarray   # (T,)
    eigenvalues: np.ndarray     # (T, K, N), in eigvals' order
    energy_drift: float
    momentum_drift: float
    eig_drift: float

    def to_json_dict(self):
        return {
            "z_samples": [[z.real, z.imag] for z in map(complex, self.z_samples)],
            "energy_drift": self.energy_drift,
            "momentum_drift": self.momentum_drift,
            "eig_drift": self.eig_drift,
        }


def conserved(spec, traj):
    """(energy, momentum_norm) at each sample of a trajectory: the
    Hamiltonian and the norm of diag xi, each over all rows at once.  A
    reduced trajectory is audited at its lift xi := s; its momentum norm is
    that of diag s, 0 on the slice."""
    energy = hamiltonian(spec, traj.point(slice(None)))
    d = np.diagonal(traj.xi, axis1=1, axis2=2).copy()
    # the two dot products of np.linalg.norm per row, as stacked 1 x N @ N x 1
    re, im = d.real[:, None, :], d.imag[:, None, :]
    sq = re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2)
    return energy, np.sqrt(sq[:, 0, 0])


def drift(values):
    """max over the samples of |values - values[0]|."""
    return float(np.abs(values - values[0]).max())


def audit(spec, traj, z_samples=None):
    """Energy, momentum norm and Lax eigenvalues along a trajectory, with drifts.

    eig_drift is the largest two-sided nearest-eigenvalue (Hausdorff)
    distance between spec L(z; t) and spec L(z; 0) over the samples t and
    z: max(max_i min_j, max_j min_i) of |E[t, z, i] - E[0, z, j]|.  While it
    is below half the smallest eigen gap of L(z; 0) it equals the drift of
    the eigenvalues matched one to one.

    None of these can see a constant torus conjugation xi -> h xi h^-1 (h
    diagonal), which maps solutions on J^-1(0) to solutions; only a
    comparison of xi with an independent solution (``compare``'s sup_xi)
    checks that angle.
    """
    if z_samples is None:
        z_samples = default_z_samples(spec)
    energy, mom = conserved(spec, traj)
    eigs = np.linalg.eigvals(lax_batch(spec, traj.point(slice(None)), z_samples))
    dist = np.abs(eigs[:, :, :, None] - eigs[0, :, None, :])  # (T, K, N, N)
    return InvariantReport(
        times=traj.times, z_samples=list(z_samples), energy=energy,
        momentum_norm=mom, eigenvalues=eigs,
        energy_drift=drift(energy), momentum_drift=drift(mom),
        eig_drift=float(max(dist.min(axis=3).max(), dist.min(axis=2).max())),
    )


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def trajectory_csv_lines(traj, meta=None):
    """CSV lines: '#' metadata, mandatory header row, one row per sample."""
    lines = [f"# {key}: {val}" for key, val in (meta or {}).items()]
    N = traj.N
    cols = ["t"]
    for name in ("q", "p"):
        for i in range(1, N + 1):
            cols += [f"Re_{name}_{i}", f"Im_{name}_{i}"]
    label = "s" if traj.reduced else "xi"
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            cols += [f"Re_{label}_{i}_{j}", f"Im_{label}_{i}_{j}"]
    lines.append(",".join(cols))
    rows = np.column_stack([traj.times, traj.y.view(float)])
    lines.extend(",".join(map(repr, row)) for row in rows.tolist())
    return lines
