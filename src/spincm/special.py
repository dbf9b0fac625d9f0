"""Scalar kernels of the Lax operators: cot (the z-part of the trigonometric
L(z); the rational and trigonometric root kernels are built in ``models``)
and the Weierstrass functions wp, wp', zeta, sigma and l(w,z) of a period
lattice.

Weierstrass evaluation goes through Jacobi theta_1 series in the nome (spectrally
accurate); arguments are reduced to the centered fundamental cell and the exact
quasi-periodicity factors are reapplied.  theta_1 and its first three
derivatives come from one product of a fixed (4, 2*nmax) coefficient array with
the stacked sines and cosines.  wp and wp' come from one function,
``EllipticLattice._wp_evaluator``: built once per argument shape, it reduces
the arguments and makes that one series pass into buffers allocated at build
time; the kernel pass of ``models`` builds one per vector field or stacked
Hamiltonian, and ``wp``, ``wp_prime`` and the lattice's e-values build a fresh
one.  sigma, zeta = sigma'/sigma and, when asked, wp at one argument set cost
one reduction and one pass over the leading rows
(``EllipticLattice._sigma_zeta``, whose wp row serves d/dz L(z) from the same
pass), which also gives sigma' with no division by theta_1; ``lame_parts``
gives l(w,z), zeta(w), zeta(z), d/dz l(w,z) and wp(z) -- all that the
elliptic L(z) and dL/dz, and the r-matrix action of the test oracles, need --
from one such pass per argument set.  Points closer than POLE_TOL to a pole
raise PoleError.
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


def cot_c(z):
    """cot z of a scalar or an array, stable for large |Im z| (saturates to
    -/+ i) by one-sided exponential forms with |w| <= 1; poles on pi*Z."""
    arr, scalar = _as_array(z)
    near = math.pi * np.round(arr.real / math.pi)
    bad = np.flatnonzero(np.abs(arr - near) < POLE_TOL)
    if bad.size:
        raise PoleError(f"cot pole at z={arr.flat[bad[0]]}",
                        nearest=near.flat[bad[0]].item())
    out = _cot(arr)
    return complex(out) if scalar else out


def _cot(z):
    """cot z of the array z by the forms of ``cot_c``, unchecked: for callers
    that have checked the poles themselves."""
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
                                         2, "wp"))
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
        k rows of the series times [sin; cos], shape (k,) + v.shape."""
        arg = np.multiply.outer(self._odd, v.ravel())
        th = self._series[:k] @ np.concatenate([np.sin(arg), np.cos(arg)])
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
        """evaluate(w) -> (z0, dist, wp, wp') at a complex array w of `shape`:
        z0 is w reduced as by ``reduce``, dist = |z0|, and wp and wp' at z0
        come from one product of the four series rows with [sin; cos] of all
        the values.  When some dist < margin, fail(w, z0, dist) is called
        before that product (to raise).  Built once per shape: every array,
        those returned included, is a buffer allocated here and overwritten
        by the next call.

        With f = th1'/th1 and r_k = th1^(k)/th1, f' = r2 - f^2 and
        f'' = r3 - 3 r2 f + 2 f^3, so wp = -eta1/w1 - c^2 f' and
        wp' = -c^3 f'' with c = pi / 2w1.  Each term is computed in the order
        written; an operation on two rows at once is the same operation on
        each row."""
        size, nmax = math.prod(shape), self._odd.size
        # period coordinates of w, their nearest integers (m, n), and
        # (2 w1 m, 2 w2 n)
        xy = np.empty((size, 2))
        mn = np.empty((size, 2), dtype=int)
        shift = np.empty((size, 2), dtype=complex)
        z0 = np.empty(shape, dtype=complex)
        dist = np.empty(shape)
        v = np.empty(size, dtype=complex)
        arg = np.empty((nmax, size), dtype=complex)
        sc = np.empty((2 * nmax, size), dtype=complex)
        th = np.empty((4, size), dtype=complex)
        # rows (f, r2, r3, f^3), (3 r2, 2 f^3), (f^2, 3 r2 f), (f', f'') and
        # (c^2 f', -c^3 f'')
        ratios, k32, sq, fd, scaled = (np.empty((rows, size), dtype=complex)
                                       for rows in (4, 2, 2, 2, 2))
        wp = np.empty(shape, dtype=complex)
        # views of the buffers, taken here so that a call takes none
        shift_m, shift_n = (shift[:, k].reshape(shape) for k in (0, 1))
        z0_v, wp_v = z0.reshape(size), wp.reshape(size)
        sin, cos, th0, th_k = sc[:nmax], sc[nmax:], th[0], th[1:]
        f, r_k, r23, cube, r2_cube = (ratios[0], ratios[:3], ratios[1:3],
                                      ratios[3], ratios[1::2])
        (three_r2, two_cube), (f_sq, three_r2_f), fpp = k32, sq, fd[1]
        c2_fp, out = scaled[0], (z0, dist, wp, scaled[1].reshape(shape))
        # the constants, as complex arrays where numpy would cast them
        series = self._series.astype(complex)
        odd = self._odd[:, None].astype(complex)
        basis = self._basis_inv.T
        periods = np.array([2 * self.omega1, 2 * self.omega2])
        v_den = 2.0 * self.omega1
        c = math.pi / (2 * self.omega1)
        wp_0 = -self.eta1 / self.omega1
        three_two = np.array([[3.0], [2.0]], dtype=complex)
        powers = np.array([[c**2], [-(c**3)]])

        def evaluate(w):
            np.matmul(w.reshape(-1, 1).view(float), basis, out=xy)
            np.rint(xy, out=mn, casting="unsafe")
            np.multiply(periods, mn, out=shift)
            np.subtract(w, shift_m, out=z0)
            np.subtract(z0, shift_n, out=z0)
            np.abs(z0, out=dist)
            if np.minimum.reduce(dist, axis=None, initial=np.inf) < margin:
                fail(w, z0, dist)
            np.multiply(math.pi, z0_v, out=v)
            np.divide(v, v_den, out=v)
            np.multiply(odd, v, out=arg)
            np.sin(arg, out=sin)
            np.cos(arg, out=cos)
            np.matmul(series, sc, out=th)
            np.divide(th_k, th0, out=r_k)
            # no product writes over an operand: in place, numpy rounds a
            # one-element complex product differently
            np.power(f, 3, out=cube)
            np.multiply(three_two, r2_cube, out=k32)
            np.square(f, out=f_sq)
            np.multiply(three_r2, f, out=three_r2_f)
            np.subtract(r23, sq, out=fd)
            np.add(fpp, two_cube, out=fpp)
            np.multiply(powers, fd, out=scaled)
            np.subtract(wp_0, c2_fp, out=wp_v)
            return out
        return evaluate


def _wp_at(lat, z, k, what):
    """wp (k = 2) or wp' (k = 3) at z, through a fresh ``_wp_evaluator``
    that raises PoleError within POLE_TOL of the lattice."""
    arr, scalar = _as_array(z)

    def pole(w, z0, dist):
        lat._check_pole(w, z0, what)
    out = lat._wp_evaluator(arr.shape, POLE_TOL, pole)(arr)[k]
    return complex(out) if scalar else out


def wp(lat, z):
    """Weierstrass P function."""
    return _wp_at(lat, z, 2, "wp")


def wp_prime(lat, z):
    """Derivative of the Weierstrass P function."""
    return _wp_at(lat, z, 3, "wp'")


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


def l_func_dz(lat, w, z):
    """d/dz l(w,z) = l(w,z) (zeta(w+z) - zeta(z))."""
    return lame_parts(lat, w, z)[3]
