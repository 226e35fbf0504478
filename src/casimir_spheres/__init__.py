"""High-temperature Casimir free energy between two spheres.

Three models share the geometry machinery: a scalar field with
Dirichlet boundary conditions (conformally invariant reference), two
Drude spheres in vacuum, and two dielectric spheres in an electrolyte.
All reduced free energies are dimensionless; multiply by -k_B T for the
physical free energy.
"""

__version__ = "0.1.0"

from .errors import (AccuracyWarning, CasimirError, ConvergenceError,
                     DomainError, FitError, QuadratureError)
from .geometry import (PLANE, ReducedGeometry, SphereGeometry,
                       free_energy_si, from_invariants, reduce)
from .scalar import ZETA3, f_pfa, f_sc_roundtrip, f_sc_total
from .drude import (CapacitanceMatrix, capacitance_coeffs, f1_dvd,
                    f_dvd_dipole, f_dvd_total)
from .electrolyte import (QuadratureSettings, ValueWithError, f1_ded,
                          f_ded_dipole, f_ded_roundtrip, f_ded_total)
from .rational import (DED_PARAMS, DVD_PARAMS, FitResult,
                       RationalModelParams, builtin_params, f_approx,
                       max_deviation, phi_rm, phi_u, refit)
from . import validation

__all__ = [
    "__version__",
    "AccuracyWarning", "CasimirError", "ConvergenceError", "DomainError",
    "FitError", "QuadratureError",
    "PLANE", "ReducedGeometry", "SphereGeometry", "free_energy_si",
    "from_invariants", "reduce",
    "ZETA3", "f_pfa", "f_sc_roundtrip", "f_sc_total",
    "CapacitanceMatrix", "capacitance_coeffs", "f1_dvd", "f_dvd_dipole",
    "f_dvd_total",
    "QuadratureSettings", "ValueWithError", "f1_ded", "f_ded_dipole",
    "f_ded_roundtrip", "f_ded_total",
    "DED_PARAMS", "DVD_PARAMS", "FitResult", "RationalModelParams",
    "builtin_params", "f_approx", "max_deviation", "phi_rm", "phi_u",
    "refit", "validation",
]
