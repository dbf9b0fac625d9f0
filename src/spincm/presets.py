"""Named model/initial-condition presets for the CLI and the test suite.

Each preset is a function of a seed returning a dict with keys ``model``
(ModelSpec), ``init`` (PhasePoint or ReducedPoint) and ``defaults`` (CLI
parameter defaults).  Randomized presets derive all entries from the seed, so
identical seeds give identical runs.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .liecore import build_sl_context, delta_subset, pi_subset
from .models import (PhasePoint, ReducedPoint, elliptic_model, rational_model,
                     trig_model)
from .special import EllipticLattice

_E = {}


def _offdiag(rng, N, scale):
    xi = scale * (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    np.fill_diagonal(xi, 0.0)
    return xi


def _full_delta(N):
    return delta_subset([(i, j) for i in range(N) for j in range(N) if i != j])


def _lattice():
    return EllipticLattice(1.0, 0.35 + 0.8j)


def preset(name):
    def deco(fn):
        _E[name] = fn
        return fn
    return deco


def preset_names():
    return sorted(_E)


def load_preset(name, seed=0):
    if name not in _E:
        raise ValidationError(f"unknown preset {name!r}; available: {preset_names()}")
    return _E[name](seed)


@preset("free-flight")
def _free(seed):
    ctx = build_sl_context(2)
    return {
        "model": rational_model(ctx, _full_delta(2)),
        "init": PhasePoint(q=[1, -1], p=[2, -2], xi=np.zeros((2, 2))),
        "defaults": {"t_end": 1.0, "samples": 101, "tol": 1e-10},
    }


@preset("rational-sl2")
def _rat2(seed):
    ctx = build_sl_context(2)
    xi = np.array([[0, 1], [1, 0]], dtype=complex)
    return {
        "model": rational_model(ctx, _full_delta(2)),
        "init": PhasePoint(q=[1, -1], p=[2, -2], xi=xi),
        "defaults": {"t_end": 1.0, "samples": 101, "tol": 1e-10,
                     "threshold": 1e-6},
    }


@preset("rational-sl3")
def _rat3(seed):
    ctx = build_sl_context(3)
    rng = np.random.default_rng(seed)
    xi = _offdiag(rng, 3, 0.5)
    return {
        "model": rational_model(ctx, delta_subset([(0, 1), (1, 0)])),
        "init": PhasePoint(q=[0.8, 0.1, -0.9], p=[0.2, -0.3, 0.1], xi=xi),
        "defaults": {"t_end": 1.0, "samples": 101, "tol": 1e-10,
                     "threshold": 1e-6},
    }


@preset("rational-sl3-full")
def _rat3f(seed):
    ctx = build_sl_context(3)
    rng = np.random.default_rng(seed)
    xi = _offdiag(rng, 3, 0.5)
    return {
        "model": rational_model(ctx, _full_delta(3)),
        "init": PhasePoint(q=[0.9, 0.05, -0.95], p=[0.3, -0.1, -0.2], xi=xi),
        "defaults": {"t_end": 1.0, "samples": 101, "tol": 1e-10,
                     "threshold": 1e-6},
    }


@preset("trig-sl2")
def _trig2(seed):
    ctx = build_sl_context(2)
    xi = np.array([[0, 1], [1, 0]], dtype=complex)
    return {
        "model": trig_model(ctx, pi_subset([0])),
        "init": PhasePoint(q=[np.pi / 8, -np.pi / 8], p=[1, -1], xi=xi),
        "defaults": {"t_end": 0.5, "samples": 101, "tol": 1e-10,
                     "threshold": 1e-5},
    }


@preset("trig-sl3")
def _trig3(seed):
    ctx = build_sl_context(3)
    rng = np.random.default_rng(seed)
    xi = _offdiag(rng, 3, 0.4)
    return {
        "model": trig_model(ctx, pi_subset([0])),
        "init": PhasePoint(q=[0.5, 0.1, -0.6], p=[0.3, -0.1, -0.2], xi=xi),
        "defaults": {"t_end": 0.3, "samples": 61, "tol": 1e-10,
                     "threshold": 1e-5},
    }


@preset("elliptic-sl2")
def _ell2(seed):
    ctx = build_sl_context(2)
    xi = np.array([[0, 1], [2, 0]], dtype=complex)  # distinct eigenvalues, det != 0
    return {
        "model": elliptic_model(ctx, _lattice()),
        "init": PhasePoint(q=[0.31 + 0.11j, -0.31 - 0.11j], p=[0.4, -0.4], xi=xi),
        "defaults": {"t_end": 1.0, "samples": 101, "tol": 1e-10},
    }


@preset("elliptic-sl3")
def _ell3(seed):
    ctx = build_sl_context(3)
    rng = np.random.default_rng(seed + 9)
    xi = _offdiag(rng, 3, 0.6)
    return {
        "model": elliptic_model(ctx, _lattice()),
        "init": PhasePoint(q=[0.45 + 0.05j, 0.02 - 0.11j, -0.47 + 0.06j],
                           p=[0.3, -0.1, -0.2], xi=xi),
        "defaults": {"t_end": 1.0, "samples": 51, "tol": 1e-10},
    }


@preset("collision-sl2")
def _coll(seed):
    # analytic eigenvalue collision of q0 + t L(inf) at t* = 2/3
    ctx = build_sl_context(2)
    xi = np.array([[0, 1], [1, 0]], dtype=complex)
    return {
        "model": rational_model(ctx, _full_delta(2)),
        "init": PhasePoint(q=[1, -1], p=[-1, 1], xi=xi),
        "defaults": {"t_end": 1.0, "samples": 101, "tol": 1e-10,
                     "t_star": 2.0 / 3.0},
    }


@preset("trig-sl2-breakdown")
def _trigbreak(seed):
    # heads into sin(alpha(q)) = 0; the Levi factorization collides en route
    ctx = build_sl_context(2)
    xi = 0.2 * np.array([[0, 1], [1, 0]], dtype=complex)
    return {
        "model": trig_model(ctx, pi_subset([0])),
        "init": PhasePoint(q=[np.pi / 8, -np.pi / 8], p=[-1, 1], xi=xi),
        "defaults": {"t_end": 1.5, "samples": 151, "tol": 1e-10},
    }


@preset("nilpotent-xi-sl2")
def _nilp(seed):
    ctx = build_sl_context(2)
    xi = np.array([[0, 1], [0, 0]], dtype=complex)
    return {
        "model": elliptic_model(ctx, _lattice()),
        "init": PhasePoint(q=[0.31, -0.31], p=[0.4, -0.4], xi=xi),
        "defaults": {"t_end": 0.5, "samples": 51, "tol": 1e-10},
    }


@preset("reduced-rational-sl2")
def _red2(seed):
    ctx = build_sl_context(2)
    s = np.array([[0, 1], [0.8, 0]], dtype=complex)
    return {
        "model": rational_model(ctx, _full_delta(2)),
        "init": ReducedPoint(q=[1, -1], p=[2, -2], s=s),
        "defaults": {"t_end": 1.0, "samples": 101, "tol": 1e-10,
                     "threshold": 1e-6},
    }
