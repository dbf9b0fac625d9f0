"""Scalar kernels of the Lax operators: cot (``_cot``, the z-part of the
trigonometric L(z), whose poles on pi*Z ``models`` checks; the rational and
trigonometric root kernels are built in ``models``) and the Weierstrass
functions wp, wp', zeta, sigma and l(w,z) of a period lattice.

Weierstrass evaluation goes through Jacobi theta_1 series in the nome (spectrally
accurate); arguments are reduced to the centered fundamental cell and the exact
quasi-periodicity factors are reapplied.  theta_1 and its first three
derivatives come from one product of a fixed (4, 2*nmax) coefficient array with
the stacked sines and cosines of the odd harmonics (2n+1) v.  For sigma and
zeta (``EllipticLattice._theta_rows``, called on up to thousands of arguments)
the harmonics come from one sin v, cos v pair by angle addition; the wp/wp'
evaluator, called once per integrator stage on the N(N-1)/2 root values,
takes sin and cos of every harmonic, as two ufuncs cost less than a loop
over the harmonics at that size.  wp and wp' come from that one function,
``EllipticLattice._wp_evaluator``: built once per argument shape, it reduces
the arguments, makes that one series pass and turns th1^(k)/th1 and their
powers into the rows wp, wp, wp', -wp' by one product with a fixed matrix, all
into buffers allocated at build time; the kernel pass of ``models`` builds one
per vector field or stacked Hamiltonian and puts those rows into K and Kp, and
``wp``, ``wp_prime`` and the lattice's e-values build a fresh one.  sigma,
zeta = sigma'/sigma and, when asked, wp at one argument set cost one
reduction and one pass over the leading rows (``EllipticLattice._sigma_zeta``,
whose wp row serves d/dz L(z) from the same pass), which also gives sigma'
with no division by theta_1; ``lame_parts`` gives l(w,z), zeta(w), zeta(z),
d/dz l(w,z) and wp(z) -- all that the elliptic L(z) and dL/dz, and the
r-matrix action of the test oracles, need -- from one such pass per argument
set.  Weierstrass arguments closer than POLE_TOL to a lattice point raise
PoleError.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import PoleError, ValidationError, require_keys

POLE_TOL = 1e-8


def _as_array(z):
    arr = np.asarray(z, dtype=complex)
    return arr, arr.ndim == 0


def _cot(z):
    """cot z of the complex array z, stable for large |Im z| (saturates to
    -/+ i) by one-sided exponential forms with |w| <= 1.  Its poles on pi*Z
    are not checked: the caller checks them (``models._check_z_regular``)."""
    up = z.imag >= 0.0
    w = np.exp(np.where(up, 2j, -2j) * z)
    return np.where(up, 1j * (w + 1.0) / (w - 1.0), 1j * (1.0 + w) / (1.0 - w))


class EllipticLattice:
    """Period lattice Lambda = 2w1 Z + 2w2 Z with Im(w2/w1) > 0.

    Carries the derived quasi-period constants eta1, eta2, the invariants g2, g3
    and precomputed theta-series coefficients.  Immutable after construction.
    """

    def __init__(self, omega1, omega2):
        self.omega1 = complex(omega1)
        self.omega2 = complex(omega2)
        if self.omega1 == 0:
            raise ValidationError("omega1 must be nonzero")
        self.tau = self.omega2 / self.omega1
        if self.tau.imag <= 0:
            raise ValidationError(f"Im(omega2/omega1) = {self.tau.imag} must be > 0")
        self.nome = cmath.exp(1j * math.pi * self.tau)

        im = math.pi * self.tau.imag
        nmax = int(math.ceil(0.6 + math.sqrt(0.36 + 48.0 / im))) + 3
        nmax = min(max(nmax, 8), 400)
        n = np.arange(nmax)
        self._odd = 2 * n + 1
        # a_n = 2 (-1)^n q^{(n+1/2)^2}, computed in log form to avoid underflow order issues
        logq = cmath.log(self.nome)
        expo = (n + 0.5) ** 2 * logq
        coef = 2.0 * (-1.0) ** n * np.exp(expo)
        # rows theta_1 and its first three derivatives, against [sin; cos](odd*v)
        zero = np.zeros(nmax)
        self._series = np.array([
            np.concatenate([coef, zero]),
            np.concatenate([zero, coef * self._odd]),
            np.concatenate([-coef * self._odd**2, zero]),
            np.concatenate([zero, -coef * self._odd**3])])

        th1p0 = np.sum(coef * self._odd)
        th1ppp0 = -np.sum(coef * self._odd**3)
        self._th1p0 = th1p0
        self.eta1 = -(math.pi**2) * th1ppp0 / (12.0 * self.omega1 * th1p0)
        # zeta(w2) at w2 itself, unreduced (the reduction would need eta2)
        th = self._theta_rows(self._v(self.omega2), 2)
        self.eta2 = self.eta1 * self.omega2 / self.omega1 \
            + (math.pi / (2 * self.omega1)) * (th[1] / th[0])

        legendre = self.eta1 * self.omega2 - self.eta2 * self.omega1
        if abs(legendre - 1j * math.pi / 2) > 1e-10 * max(1.0, abs(legendre)):
            raise ValidationError(
                f"lattice failed Legendre relation check: {legendre}")

        # real 2x2 change of basis for argument reduction
        p1, p2 = 2 * self.omega1, 2 * self.omega2
        self._basis_inv = np.linalg.inv(
            np.array([[p1.real, p2.real], [p1.imag, p2.imag]]))
        self._min_period = min(abs(p1), abs(p2), abs(p1 + p2), abs(p1 - p2))

        e1, e2, e3 = map(complex, _wp_at(self, [self.omega1, self.omega2,
                                                self.omega1 + self.omega2],
                                         0, "wp"))
        self.e_values = (e1, e2, e3)
        self.g2 = 2.0 * (e1**2 + e2**2 + e3**2)
        self.g3 = 4.0 * e1 * e2 * e3

    # -- serialization ------------------------------------------------------
    def to_json_dict(self):
        return {"omega1": [self.omega1.real, self.omega1.imag],
                "omega2": [self.omega2.real, self.omega2.imag]}

    @staticmethod
    def from_json_dict(d):
        require_keys(d, ("omega1", "omega2"), "lattice")
        return EllipticLattice(complex(*d["omega1"]), complex(*d["omega2"]))

    # -- reduction ----------------------------------------------------------
    def reduce(self, z):
        """z0 in the centered fundamental cell and the integers (m, n) removed:
        z = z0 + 2m*w1 + 2n*w2."""
        arr, scalar = _as_array(z)
        # rows (Re z, Im z) as a float view, in the period basis
        mn = np.rint(arr.reshape(-1, 1).view(float) @ self._basis_inv.T).astype(int)
        m = mn[:, 0].reshape(arr.shape)
        n = mn[:, 1].reshape(arr.shape)
        z0 = arr - 2 * self.omega1 * m - 2 * self.omega2 * n
        if scalar:
            return complex(z0), int(m), int(n)
        return z0, m, n

    def lattice_distance(self, z):
        z0, _, _ = self.reduce(z)
        return np.abs(z0)

    def _check_pole(self, z, z0, what):
        """PoleError naming the lattice point z - z0 of the first |z0| < POLE_TOL."""
        bad = np.abs(z0) < POLE_TOL
        if np.any(bad):
            k = np.flatnonzero(np.ravel(bad))[0]
            raise PoleError(f"{what} pole within {POLE_TOL} of a lattice point",
                            nearest=complex(np.ravel(z)[k] - np.ravel(z0)[k]))

    # -- theta core ---------------------------------------------------------
    def _theta_rows(self, v, k):
        """theta_1 and its first k - 1 derivatives at the array v: the leading
        k rows of the series times [sin; cos] of the odd harmonics (2n+1) v,
        shape (k,) + v.shape.

        The harmonics take one complex sin v, cos v pair: row n + 1 is row n
        turned by the angle 2v (sin(a + 2v) = sin a cos 2v + cos a sin 2v,
        cos(a + 2v) = cos a cos 2v - sin a sin 2v), written in place into the
        [sin; cos] buffer.  This is as accurate as sin and cos of every
        harmonic; the doubling form (blocks turned by 2v, 4v, 8v, ...) makes
        fewer numpy calls but is no faster.  ``_wp_evaluator`` keeps sin and
        cos of every harmonic: on the N(N-1)/2 arguments of one integrator
        stage, a loop over the harmonics costs several times the two ufuncs."""
        nmax = self._odd.size
        x = v.ravel()
        sc = np.empty((2 * nmax, x.size), dtype=complex)
        sin, cos = sc[:nmax], sc[nmax:]
        s, c = np.sin(x, out=sin[0]), np.cos(x, out=cos[0])
        s2, c2 = 2.0 * s * c, c * c - s * s
        for n in range(1, nmax):
            s, c = (np.add(s * c2, c * s2, out=sin[n]),
                    np.subtract(c * c2, s * s2, out=cos[n]))
        th = self._series[:k] @ sc
        return th.reshape((k,) + v.shape)

    def _v(self, z):
        return math.pi * np.asarray(z, dtype=complex) / (2.0 * self.omega1)

    # -- evaluators -----------------------------------------------------------
    def _sigma_zeta(self, z, wp=False):
        """(z0, sigma, sigma', zeta) at the array z -- with wp appended when
        `wp` -- from one reduction and one product of the leading series rows;
        z0 is the reduced z, for pole checks.  Unchecked: on a lattice point
        sigma is exactly 0, sigma' finite and zeta, wp are not finite."""
        z0, m, n = self.reduce(z)
        th = self._theta_rows(self._v(z0), 3 if wp else 2)
        eta = 2.0 * self.eta1 * m + 2.0 * self.eta2 * n
        gauss = np.exp(self.eta1 * z0**2 / (2 * self.omega1))
        base = (2 * self.omega1 / math.pi) * gauss * th[0] / self._th1p0
        fac = (-1.0) ** (m + n + m * n) * np.exp(
            eta * (z0 + m * self.omega1 + n * self.omega2))
        c = math.pi / (2 * self.omega1)
        lin = self.eta1 * z0 / self.omega1 + eta
        # sigma' = sigma zeta, with no division by th1: base holds th1
        dsigma = fac * (base * lin + gauss * th[1] / self._th1p0)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = th[1:] / th[0]  # th1' / th1 (and th1'' / th1)
            out = (z0, base * fac, dsigma, self.eta1 * z0 / self.omega1 + c * r[0] + eta)
            if wp:
                out += (-self.eta1 / self.omega1 - c**2 * (r[1] - r[0]**2),)
        return out

    def _wp_evaluator(self, shape, margin, fail):
        """evaluate(w) -> rows at a complex array w of `shape`: rows, of shape
        (4,) + shape, holds wp, wp, wp' and -wp' at w -- the four entries
        that the elliptic kernel pass of ``models`` writes per root.  With z0
        the w reduced as by ``reduce`` and dist = |z0|, fail(w, z0, dist) is
        called before the theta pass when some dist < margin (to raise).
        Built once per shape: every array, rows included, is a buffer
        allocated here and overwritten by the next call.

        The period coordinates of w, rounded in place, times the periods give
        the lattice shift; the harmonics (2n+1) v are one outer product with
        z0.  With f = th1'/th1 and r_k = th1^(k)/th1, f' = r2 - f^2 and
        f'' = r3 - 3 r2 f + 2 f^3, so wp = -eta1/w1 - c^2 f' and
        wp' = -c^3 f'' with c = pi / 2w1: one product of a fixed (4, 7)
        matrix with the rows (1, f, r2, r3, f^2, r2 f, f^3) gives the four
        rows, the constant -eta1/w1 on the row of ones and -wp' from the
        negated coefficients of wp' (the same sums negated, so bit for bit)."""
        size, nmax = math.prod(shape), self._odd.size
        # period coordinates of w, then the lattice shift (Re, Im) removed
        xy, shift = np.empty((size, 2)), np.empty(size, dtype=complex)
        z0 = np.empty(shape, dtype=complex)
        dist = np.empty(shape)
        arg = np.empty((nmax, size), dtype=complex)
        sc = np.empty((2 * nmax, size), dtype=complex)
        th = np.empty((4, size), dtype=complex)
        terms = np.empty((7, size), dtype=complex)
        terms[0] = 1.0
        rows = np.empty((4,) + shape, dtype=complex)
        # views of the buffers, taken here so that a call takes none
        shift_xy, shift_v, z0_v, rows_v = (
            shift.view(float).reshape(size, 2), shift.reshape(shape),
            z0.reshape(size), rows.reshape(4, size))
        sin, cos, th0, th_k = sc[:nmax], sc[nmax:], th[0], th[1:]
        # rows (f, r2, r3), (f^2, r2 f) and f^3 of terms, and f, (f, r2), f^2;
        # no product writes over an operand (in place, numpy rounds a
        # one-element complex product differently)
        ratios, sq, cube = terms[1:4], terms[4:6], terms[6]
        f, f_r2, f_sq = terms[1], terms[1:3], terms[4]
        # the constants, as complex arrays where numpy would cast them
        series = self._series.astype(complex)
        harmonics = (math.pi / (2.0 * self.omega1)) * self._odd[:, None]
        basis = self._basis_inv.T
        periods = np.array([[2 * self.omega1], [2 * self.omega2]]).view(float)
        c = math.pi / (2 * self.omega1)
        wp_row = [-self.eta1 / self.omega1, 0, -c**2, 0, c**2, 0, 0]
        wpp_row = [0, 0, 0, -c**3, 0, 3 * c**3, -2 * c**3]
        combine = np.array([wp_row, wp_row, wpp_row, np.negative(wpp_row)],
                           dtype=complex)

        def evaluate(w):
            np.matmul(w.reshape(-1, 1).view(float), basis, out=xy)
            np.rint(xy, out=xy)
            np.matmul(xy, periods, out=shift_xy)
            np.subtract(w, shift_v, out=z0)
            np.abs(z0, out=dist)
            if np.minimum.reduce(dist, axis=None, initial=np.inf) < margin:
                fail(w, z0, dist)
            np.multiply(harmonics, z0_v, out=arg)
            np.sin(arg, out=sin)
            np.cos(arg, out=cos)
            np.matmul(series, sc, out=th)
            np.divide(th_k, th0, out=ratios)
            np.multiply(f_r2, f, out=sq)
            np.multiply(f_sq, f, out=cube)
            np.matmul(combine, terms, out=rows_v)
            return rows
        return evaluate


def _wp_at(lat, z, k, what):
    """wp (k = 0) or wp' (k = 2) at z, row k of a fresh ``_wp_evaluator``
    that raises PoleError within POLE_TOL of the lattice."""
    arr, scalar = _as_array(z)

    def pole(w, z0, dist):
        lat._check_pole(w, z0, what)
    out = lat._wp_evaluator(arr.shape, POLE_TOL, pole)(arr)[k]
    return complex(out) if scalar else out


def wp(lat, z):
    """Weierstrass P function."""
    return _wp_at(lat, z, 0, "wp")


def wp_prime(lat, z):
    """Derivative of the Weierstrass P function."""
    return _wp_at(lat, z, 2, "wp'")


def zeta_w(lat, z):
    """Weierstrass zeta function (quasi-periodic: zeta(z+2w_i) = zeta(z) + 2 eta_i)."""
    arr, scalar = _as_array(z)
    z0, _, _, out = lat._sigma_zeta(arr)
    lat._check_pole(arr, z0, "zeta")
    return complex(out) if scalar else out


def sigma_w(lat, z):
    """Weierstrass sigma function (entire; exact 0 on the lattice)."""
    arr, scalar = _as_array(z)
    out = lat._sigma_zeta(arr)[1]
    return complex(out) if scalar else out


def lame_parts(lat, w, z, dz=True, check=None):
    """(l(w,z), zeta(w), zeta(z), d/dz l(w,z), wp(z)) with w + z broadcast,
    from one reduction and one theta pass per argument set (w, z, w+z); with
    `dz` false, the last two are None and the z pass has no wp row.

    l(w,z) = -sigma(w+z) / (sigma(w) sigma(z)) and
    d/dz l = -sigma'(w+z) / (sigma(w) sigma(z)) - l zeta(z), both finite also
    where w + z is a lattice point; PoleError, as from l_func, when w or z is
    within POLE_TOL of a lattice point.  A caller's own domain checks go in
    `check(w0, z0)`, called with the reduced w and z before the pole checks."""
    warr = np.asarray(w, dtype=complex)
    zarr = np.asarray(z, dtype=complex)
    w0, sw, _, zw = lat._sigma_zeta(warr)
    z0, sz, _, zz, *wpz = lat._sigma_zeta(zarr, wp=dz)
    if check is not None:
        check(w0, z0)
    lat._check_pole(warr, w0, "l(w,z) in w")
    lat._check_pole(zarr, z0, "l(w,z) in z")
    _, swz, dswz, _ = lat._sigma_zeta(warr + zarr)
    l = -swz / (sw * sz)
    if not dz:
        return l, zw, zz, None, None
    return l, zw, zz, -dswz / (sw * sz) - l * zz, wpz[0]


def l_func(lat, w, z):
    """l(w,z) = -sigma(w+z) / (sigma(w) sigma(z))."""
    out = lame_parts(lat, w, z)[0]
    return complex(out) if (np.ndim(w) == 0 and np.ndim(z) == 0) else out
