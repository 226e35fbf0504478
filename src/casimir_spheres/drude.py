"""Reduced free energy for two Drude spheres in vacuum.

The total is the scalar Dirichlet result minus half the log of the
determinant of the dimensionless two-sphere capacitance matrix.  The
capacitance coefficients are classical electrostatics series in
q = exp(-varpi); they are evaluated here in an overflow-safe form that
also tracks det - 1 directly, which matters at large separation where
the determinant approaches 1 and f is a tiny difference of much larger
terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .geometry import ReducedGeometry
from .scalar import _series_sum, f_sc_total

__all__ = [
    "CapacitanceMatrix",
    "capacitance_coeffs",
    "f_dvd_total",
    "f1_dvd",
    "f_dvd_dipole",
]


@dataclass(frozen=True)
class CapacitanceMatrix:
    """Dimensionless capacitance matrix of the two-sphere conductor system.

    The physical matrix is 4*pi*eps0*sqrt(R1 R2) times this one, sphere 1
    being the larger body.  For the plane-sphere case, whose body 1 is the
    plane, the stored entries are limits rescaled to keep the determinant
    finite: c11 is the sphere's coefficient in units of 4*pi*eps0 times
    its radius, c22 = 1 and c12 = 0, so det = c11.

    Note: the determinant exceeds 1 at any finite separation and tends to
    1 from above at large distance, as 1/(2y).  ``det_minus_one`` avoids
    the cancellation in det - 1, but its own terms still cancel at large
    y: it is rounding noise from y of about 1e15 (7.6e-16 at u = 0.1) and
    can be negative (-5e-21 at y = 1e20).
    """

    c11: float
    c22: float
    c12: float
    det: float
    det_minus_one: float


def _capacitance_sums(varpi: float, tol: float, scales=()) -> list[float]:
    """The capacitance series, summed in one pass of :func:`_series_sum`.

    One self series per ``(sa, sb)`` in ``scales``,
    Sum_n sinh(varpi) / (sa sinh(n varpi) + sb sinh((n+1) varpi)),
    then the mutual series Sum_{m>=1} sinh(varpi)/sinh(m varpi).  The
    self terms are evaluated as e^{(1-n)varpi}(1-e^{-2varpi}) /
    [sa (1-e^{-2n varpi}) + sb e^{varpi} (1-e^{-2(n+1)varpi})], stable for
    both small and large varpi; the mutual term at m = n + 1 shares its
    denominator factor and its power of q = e^{-varpi}.  Raises
    :class:`ConvergenceError` where a scale sb e^varpi overflows (y near
    the largest double), since every self term would be 0 there.
    """
    q = math.exp(-varpi)
    e2 = -math.expm1(-2.0 * varpi)
    try:
        ew = math.exp(varpi)
    except OverflowError:
        ew = math.inf
    if any(sb * ew == math.inf for _, sb in scales):
        raise ConvergenceError(f"capacitance series: its scale overflows at varpi = {varpi:.6g}")

    def terms(n):
        b = -np.expm1(-2.0 * (n + 1.0) * varpi)
        mutual = q ** n * e2 / b
        if not scales:  # the plane: the stack below overflows in q ** (n - 1.0) at y - 1 = 1e308
            return mutual[None]
        a = -np.expm1(-2.0 * n * varpi)
        num = q ** (n - 1.0) * e2
        return np.stack([num / (sa * a + sb * ew * b) for sa, sb in scales] + [mutual])

    return _series_sum(terms, tol, "capacitance")


def capacitance_coeffs(red: ReducedGeometry, tol: float = 1e-12) -> CapacitanceMatrix:
    """Dimensionless capacitance coefficients and determinant.

    Index 1 is the larger body (``red.alpha1 >= 1``); the plane-sphere
    entries are described at :class:`CapacitanceMatrix`.

    Parameters
    ----------
    red : ReducedGeometry
    tol : float
        Relative truncation tolerance of each series.

    Returns
    -------
    CapacitanceMatrix
    """
    if red.is_plane:
        [s1] = _capacitance_sums(red.varpi, tol)
        return CapacitanceMatrix(c11=s1, c22=1.0, c12=0.0, det=s1, det_minus_one=s1 - 1.0)
    sa1 = math.sqrt(red.alpha1)
    sa2 = math.sqrt(red.alpha2)
    c11, c22, mutual = _capacitance_sums(red.varpi, tol, ((sa1, sa2), (sa2, sa1)))
    c12 = -mutual / math.sqrt(red.z)
    # det - 1 without cancellation: c11 = sa1 (1 + d1), c22 = sa2 (1 + d2)
    # and sa1*sa2 = 1, so det - 1 = sa1*B + sa2*A + A*B - c12^2 with
    # A = c11 - sa1, B = c22 - sa2 (the n >= 1 partial sums).
    A = c11 - sa1
    B = c22 - sa2
    det_m1 = sa1 * B + sa2 * A + A * B - c12 * c12
    return CapacitanceMatrix(c11=c11, c22=c22, c12=c12, det=1.0 + det_m1, det_minus_one=det_m1)


def f_dvd_total(red: ReducedGeometry, tol: float = 1e-12) -> float:
    """Total reduced free energy, all round trips.

    f = f_scalar - log1p(det - 1) / 2.  Reliable, to about 1e-3 relative
    against the dipole law 3/(8y^3), up to y of about 1e4.  Further out
    det - 1 is lost to cancellation, and the value with it: at y = 1e5 it
    is 0.65 to 0.79 times the dipole law, from y = 1e6 it can be negative
    (-4.1e-18 at y = 1e10, u = 1/4), and from y of about 1e15 it is
    rounding noise of order 1e-16 or about 1/(2y).  ROADMAP.md, item 5,
    describes the fix.
    """
    cap = capacitance_coeffs(red, tol)
    return f_sc_total(red, tol) - 0.5 * math.log1p(cap.det_minus_one)


def f1_dvd(red: ReducedGeometry) -> float:
    """Single round-trip contribution (closed form).

    Reduces to 3 / (4(2y+1)(y^2-1)) for equal radii and to
    1 / (4y(y^2-1)) for the plane-sphere case.
    """
    y = red.y
    f1sc = y / (4.0 * (y * y - 1.0))
    if red.is_plane:
        return 1.0 / (4.0 * y * (y * y - 1.0))
    return f1sc + 0.5 / red.z - 0.5 * (
        1.0 / (2.0 * y + red.alpha1) + 1.0 / (2.0 * y + red.alpha2)
    )


def f_dvd_dipole(red: ReducedGeometry) -> float:
    """Large-distance dipolar asymptote: 3/(8y^3), or 1/(4y^3) for u = 0."""
    try:
        y3 = red.y ** 3
    except OverflowError:  # from y = 5.6e102, where the asymptote underflows to 0
        y3 = math.inf
    return 0.25 / y3 if red.is_plane else 0.375 / y3
