"""spincm: spin Calogero-Moser systems over sl(N,C).

Closed-form Hamiltonians, Lax operators with spectral parameter, equations of
motion for three kernel families (rational, trigonometric, elliptic), a generic
adaptive Runge-Kutta oracle, exact factorization solvers for the rational and
trigonometric families, and the elliptic spectral-curve apparatus.
"""

__version__ = "0.1.0"

from .liecore import (LieContext, RootSubset, build_sl_context, delta_subset,
                      pi_subset, validate_root_subset)
from .models import (ModelSpec, PhasePoint, ReducedPoint, elliptic_model,
                     eom, hamiltonian, lax, lax_limit, rational_model,
                     reduce_point, trig_model)
from .rk import Trajectory, audit, integrate
from .solver_rational import solve_rational
from .solver_trig import solve_trig
from .special import EllipticLattice
from .spectral import branch_count_genus, char_poly_coeffs, gauge_lax, genericity_check

__all__ = [
    "LieContext", "RootSubset", "build_sl_context", "delta_subset",
    "pi_subset", "validate_root_subset", "ModelSpec", "PhasePoint",
    "ReducedPoint", "elliptic_model", "eom", "hamiltonian", "lax",
    "lax_limit", "rational_model", "reduce_point", "trig_model",
    "Trajectory", "audit", "integrate", "solve_rational", "solve_trig",
    "EllipticLattice", "branch_count_genus", "char_poly_coeffs",
    "gauge_lax", "genericity_check",
]
