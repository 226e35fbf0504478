"""Two-sphere configuration and the derived dimensionless invariants.

The physical setup is two spheres of radii R1 and R2 whose surfaces are a
gap L apart, so their centers sit at a distance L + R1 + R2.  The
plane-sphere configuration is represented by an infinite second radius.
All downstream model evaluations depend on the geometry only through the
conformal invariant y (equivalently its arcosh), the symmetric radius
ratio u, and derived ratios collected in :class:`ReducedGeometry`.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import DomainError

__all__ = [
    "PLANE",
    "SphereGeometry",
    "ReducedGeometry",
    "reduce",
    "from_invariants",
    "free_energy_si",
]

#: Distinguished radius value meaning "the second body is a plane".
PLANE = math.inf
#: Boltzmann constant in J/K, exact in the 2019 SI (``scipy.constants.Boltzmann``).
Boltzmann = 1.380649e-23


@dataclass(frozen=True)
class SphereGeometry:
    """Physical two-sphere configuration.

    Parameters
    ----------
    L : float
        Surface-to-surface gap, any consistent length unit, > 0.
    R1 : float
        Radius of sphere 1, > 0 and finite.
    R2 : float
        Radius of sphere 2, > 0.  Pass ``PLANE`` (infinity) for the
        plane-sphere configuration.
    """

    L: float
    R1: float
    R2: float

    def __post_init__(self):
        if not (self.L > 0 and math.isfinite(self.L)):
            raise DomainError(f"gap L must be positive and finite, got {self.L}")
        if not (self.R1 > 0 and math.isfinite(self.R1)):
            raise DomainError(f"radius R1 must be positive and finite, got {self.R1}")
        if not self.R2 > 0:
            raise DomainError(f"radius R2 must be positive (or PLANE), got {self.R2}")

    @property
    def is_plane(self) -> bool:
        return math.isinf(self.R2)


@dataclass(frozen=True)
class ReducedGeometry:
    """The two invariants (y, u) of a configuration, and ratios derived from them.

    Two instances are equal, and hash alike, exactly when their y and u
    are; the other attributes are worked out from these two.  Sphere 1 is
    the larger body: the plane at u = 0, otherwise the larger sphere.

    Attributes
    ----------
    y : float
        Conformal invariant, > 1 and finite.
    u : float
        Symmetric radius-ratio parameter in [0, 1/4]; 0 marks the
        plane-sphere case, 1/4 equal radii.
    z : float
        Squared center distance over R1*R2, 2(y - 1) + 1/u; infinite for
        the plane case.
    varpi : float
        arcosh(y), > 0.
    alpha1, alpha2 : float
        Radius ratios R1/R2 >= 1 and R2/R1 <= 1, with alpha1*alpha2 = 1.
        alpha1 is the larger root (1 - 2u + sqrt(1 - 4u)) / (2u) of
        u = alpha / (1 + alpha)^2; for u = 0 it is infinite and alpha2 is
        0.  Below u = 5.6e-309 alpha1 overflows a double, and
        :class:`DomainError` is raised.
    """

    y: float
    u: float
    z: float = field(init=False, repr=False, compare=False)
    varpi: float = field(init=False, repr=False, compare=False)
    alpha1: float = field(init=False, repr=False, compare=False)
    alpha2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        y, u = self.y, self.u
        if not (isinstance(y, (int, float)) and y > 1 and math.isfinite(y)):
            raise DomainError(f"invariant y must satisfy y > 1, got {y}")
        if not 0.0 <= u <= 0.25:
            raise DomainError(f"radius-ratio parameter u must lie in [0, 1/4], got {u}")
        # as floats: a numpy y or u makes z a numpy scalar, whose overflow warns where a float's raises
        y, u = float(y), float(u)
        if u == 0.0:
            u, z, alpha1 = 0.0, math.inf, math.inf
        else:
            # rationalized form: the "-" root as 2u/(1 - 2u + sqrt(1 - 4u)) stays
            # accurate for small u
            s = math.sqrt(1.0 - 4.0 * u)
            alpha1 = (1.0 - 2.0 * u + s) / (2.0 * u)
            if math.isinf(alpha1):
                raise DomainError(f"radius-ratio parameter u = {u:.3g} is too small for a double "
                                  "radius ratio; u = 0 is the plane")
            z = 2.0 * (y - 1.0) + 1.0 / u
        for name, value in (("y", y), ("u", u), ("z", z), ("varpi", _arcosh(y)),
                            ("alpha1", alpha1), ("alpha2", 1.0 / alpha1)):
            object.__setattr__(self, name, value)

    @property
    def is_plane(self) -> bool:
        return self.u == 0.0


def _arcosh(y: float) -> float:
    # log1p form avoids cancellation as y -> 1; where d (y + 1) overflows
    # (y > 1.3e154), arcosh(y) = log(2y) to double precision
    d = y - 1.0
    s = d * (y + 1.0)
    if math.isinf(s):
        return math.log(2.0) + math.log(y)
    return math.log1p(d + math.sqrt(s))


def reduce(geom: SphereGeometry) -> ReducedGeometry:
    """Map a physical configuration onto its dimensionless invariants.

    The invariant is computed from the expanded form
    y = 1 + L/R_eff + (u/2)(L/R_eff)^2, R_eff = R1 R2/(R1 + R2), which is
    an exact rewriting of (distance^2 - R1^2 - R2^2) / (2 R1 R2) but free
    of cancellation for L much smaller than the radii.  Radii whose sum
    squared overflows, whose product underflows or whose ratio overflows
    a double raise :class:`DomainError`.  The result does not depend on
    which sphere is given as R1.

    Parameters
    ----------
    geom : SphereGeometry

    Returns
    -------
    ReducedGeometry
    """
    if geom.is_plane:
        return ReducedGeometry(1.0 + geom.L / geom.R1, 0.0)
    L, R1, R2 = geom.L, geom.R1, geom.R2
    # (R1 + R2)**2 must stay finite, R1 R2 normal and R1/R2 finite
    if not (R1 + R2 <= math.sqrt(sys.float_info.max) and R1 * R2 >= sys.float_info.min
            and max(R1, R2) / min(R1, R2) < math.inf):
        raise DomainError(f"radii R1 = {R1:.3g} and R2 = {R2:.3g} leave the range of a double "
                          "in (R1 + R2)^2, R1 R2 or R1/R2")
    # guard rounding at the equal-radius boundary
    u = min(R1 * R2 / (R1 + R2) ** 2, 0.25)
    x = L / (R1 * R2 / (R1 + R2))
    return ReducedGeometry(1.0 + x + 0.5 * u * x * x, u)


def from_invariants(y: float, u: float) -> ReducedGeometry:
    """The :class:`ReducedGeometry` of (y, u); the same as ``ReducedGeometry(y, u)``.

    Parameters
    ----------
    y : float
        Conformal invariant, > 1.
    u : float
        Radius-ratio parameter in [0, 1/4].

    Returns
    -------
    ReducedGeometry
    """
    return ReducedGeometry(y, u)


def free_energy_si(f: float, T: float) -> tuple[float, float, float]:
    """Convert a reduced free energy to SI quantities at temperature T.

    Parameters
    ----------
    f : float
        Reduced (dimensionless) free energy.
    T : float
        Temperature in kelvin, > 0.

    Returns
    -------
    tuple
        ``(energy_J, energy_kBT, entropy_kB)`` where ``energy_J`` is
        -kB*T*f in joules, ``energy_kBT = -f`` and ``entropy_kB = f``.
    """
    if not T > 0:
        raise DomainError(f"temperature must be positive, got {T}")
    if not math.isfinite(f):
        raise DomainError(f"reduced free energy must be finite, got {f}")
    return (-Boltzmann * T * f, -f, f)
