"""Scalar kernels of the Lax operators: cot, the three-case trigonometric kernel,
and the Weierstrass functions wp, wp', zeta, sigma and l(w,z) of a period lattice.

Weierstrass evaluation goes through Jacobi theta_1 series in the nome (spectrally
accurate); arguments are reduced to the centered fundamental cell and the exact
quasi-periodicity factors are reapplied.  theta_1 and its first three
derivatives come from one product of a fixed (4, 2*nmax) coefficient array with
the stacked sines and cosines, so wp and wp' at the same reduced points cost one
series pass (``EllipticLattice._wp_pair``).  Points closer than POLE_TOL to a
pole raise PoleError.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import PoleError, ValidationError, require_keys

POLE_TOL = 1e-8

_ROOT_CLASSES = ("span", "plusbar", "minusbar")


def _nearest_pi_multiple(z):
    return math.pi * round(z.real / math.pi)


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
    up = arr.imag >= 0.0
    w = np.exp(np.where(up, 2j, -2j) * arr)
    out = np.where(up, 1j * (w + 1.0) / (w - 1.0), 1j * (1.0 + w) / (1.0 - w))
    return complex(out) if scalar else out


def phi_alpha(w, z, root_class):
    """Three-case trigonometric kernel.

    span:     -sin(w+z)/(sin w sin z) = -(cot w + cot z)
    plusbar:  -e^{-iz}/sin z
    minusbar: -e^{+iz}/sin z
    """
    if root_class not in _ROOT_CLASSES:
        raise ValidationError(f"root_class must be one of {_ROOT_CLASSES}")
    z = complex(z)
    near = _nearest_pi_multiple(z)
    if abs(z - near) < POLE_TOL:
        raise PoleError(f"kernel pole at z={z}", nearest=near)
    if root_class == "span":
        return -(cot_c(w) + cot_c(z))
    # stable one-sided exponential forms of -e^{-/+iz}/sin z
    if root_class == "plusbar":
        if z.imag >= 0.0:
            return -2j / (cmath.exp(2j * z) - 1.0)
        e = cmath.exp(-2j * z)
        return -2j * e / (1.0 - e)
    if z.imag >= 0.0:
        e = cmath.exp(2j * z)
        return -2j * e / (e - 1.0)
    return -2j / (1.0 - cmath.exp(-2j * z))


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
        self._coef = 2.0 * (-1.0) ** n * np.exp(expo)
        # rows theta_1 and its first three derivatives, against [sin; cos](odd*v)
        zero = np.zeros(nmax)
        self._series = np.array([
            np.concatenate([self._coef, zero]),
            np.concatenate([zero, self._coef * self._odd]),
            np.concatenate([-self._coef * self._odd**2, zero]),
            np.concatenate([zero, -self._coef * self._odd**3])])

        th1p0 = np.sum(self._coef * self._odd)
        th1ppp0 = -np.sum(self._coef * self._odd**3)
        self._th1p0 = th1p0
        self.eta1 = -(math.pi**2) * th1ppp0 / (12.0 * self.omega1 * th1p0)
        self.eta2 = self._zeta_noreduce(self.omega2)

        legendre = self.eta1 * self.omega2 - self.eta2 * self.omega1
        if abs(legendre - 1j * math.pi / 2) > 1e-10 * max(1.0, abs(legendre)):
            raise ValidationError(
                f"lattice failed Legendre relation check: {legendre}")

        # real 2x2 change of basis for argument reduction
        p1, p2 = 2 * self.omega1, 2 * self.omega2
        self._basis_inv = np.linalg.inv(
            np.array([[p1.real, p2.real], [p1.imag, p2.imag]]))
        self._min_period = min(abs(p1), abs(p2), abs(p1 + p2), abs(p1 - p2))

        e1, e2, e3 = (complex(self._wp_pair(w)[0]) for w in
                      (self.omega1, self.omega2, self.omega1 + self.omega2))
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

    def _check_pole(self, z0, what):
        bad = np.abs(z0) < POLE_TOL
        if np.any(bad):
            off = np.asarray(z0).ravel()[np.flatnonzero(np.ravel(bad))[0]]
            raise PoleError(f"{what} pole within {POLE_TOL} of a lattice point",
                            nearest=complex(off))

    # -- theta core ---------------------------------------------------------
    def _theta_ratios(self, v):
        """f = th1'/th1, f' and f'' at v (arrays), from one series product."""
        v = np.asarray(v, dtype=complex)
        arg = np.multiply.outer(self._odd, v.ravel())
        th = self._series @ np.concatenate([np.sin(arg), np.cos(arg)])
        f, r2, r3 = (th[1:] / th[0]).reshape((3,) + v.shape)  # th1^(k) / th1
        return f, r2 - f**2, r3 - 3.0 * r2 * f + 2.0 * f**3

    def _theta1(self, v):
        """theta_1 alone (sigma needs no logarithmic derivatives)."""
        v = np.asarray(v, dtype=complex)
        arg = np.multiply.outer(self._odd, v)
        coef = self._coef.reshape((-1,) + (1,) * v.ndim)
        return np.sum(coef * np.sin(arg), axis=0)

    def _v(self, z):
        return math.pi * np.asarray(z, dtype=complex) / (2.0 * self.omega1)

    # -- raw (no reduction) evaluators ---------------------------------------
    def _zeta_noreduce(self, z):
        f, _, _ = self._theta_ratios(self._v(z))
        return self.eta1 * z / self.omega1 + (math.pi / (2 * self.omega1)) * f

    def _wp_pair(self, z):
        """(wp, wp') at z, taken as already reduced, from one theta pass."""
        _, fp, fpp = self._theta_ratios(self._v(z))
        c = math.pi / (2 * self.omega1)
        return -self.eta1 / self.omega1 - c**2 * fp, -(c**3) * fpp


def wp(lat, z):
    """Weierstrass P function."""
    arr, scalar = _as_array(z)
    z0, _, _ = lat.reduce(arr)
    lat._check_pole(z0, "wp")
    out = lat._wp_pair(z0)[0]
    return complex(out) if scalar else out


def wp_prime(lat, z):
    """Derivative of the Weierstrass P function."""
    arr, scalar = _as_array(z)
    z0, _, _ = lat.reduce(arr)
    lat._check_pole(z0, "wp'")
    out = lat._wp_pair(z0)[1]
    return complex(out) if scalar else out


def zeta_w(lat, z):
    """Weierstrass zeta function (quasi-periodic: zeta(z+2w_i) = zeta(z) + 2 eta_i)."""
    arr, scalar = _as_array(z)
    z0, m, n = lat.reduce(arr)
    lat._check_pole(z0, "zeta")
    out = lat._zeta_noreduce(z0) + 2.0 * lat.eta1 * m + 2.0 * lat.eta2 * n
    return complex(out) if scalar else out


def sigma_w(lat, z):
    """Weierstrass sigma function (entire; exact 0 on the lattice)."""
    arr, scalar = _as_array(z)
    z0, m, n = lat.reduce(arr)
    th = lat._theta1(lat._v(z0))
    base = (2 * lat.omega1 / math.pi) * np.exp(
        lat.eta1 * z0**2 / (2 * lat.omega1)) * th / lat._th1p0
    eta = 2.0 * lat.eta1 * m + 2.0 * lat.eta2 * n
    fac = (-1.0) ** (m + n + m * n) * np.exp(
        eta * (z0 + m * lat.omega1 + n * lat.omega2))
    out = base * fac
    return complex(out) if scalar else out


def l_func(lat, w, z):
    """l(w,z) = -sigma(w+z) / (sigma(w) sigma(z))."""
    warr, wscalar = _as_array(w)
    zarr, zscalar = _as_array(z)
    w0, _, _ = lat.reduce(warr)
    z0, _, _ = lat.reduce(zarr)
    lat._check_pole(w0, "l(w,z) in w")
    lat._check_pole(z0, "l(w,z) in z")
    out = -sigma_w(lat, warr + zarr) / (sigma_w(lat, warr) * sigma_w(lat, zarr))
    return complex(out) if (wscalar and zscalar) else out


def l_func_dz(lat, w, z):
    """d/dz l(w,z) = l(w,z) (zeta(w+z) - zeta(z))."""
    return l_func(lat, w, z) * (zeta_w(lat, np.asarray(w) + np.asarray(z))
                                - zeta_w(lat, z))
