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
    "mutual_capacitance_maxwell",
    "f_dvd_total",
    "f1_dvd",
    "f_dvd_dipole",
]


@dataclass(frozen=True)
class CapacitanceMatrix:
    """Dimensionless capacitance matrix of the two-sphere conductor system.

    The physical matrix is 4*pi*eps0*sqrt(R1 R2) times this one.  For the
    plane-sphere case the stored entries are the rescaled limits
    (c11*sqrt(R2/R1), c22*sqrt(R1/R2), c12) which keep the determinant
    finite; there c12 degenerates to 0.

    Note: the determinant exceeds 1 at any finite separation and tends to
    1 from above at large distance, so ``det_minus_one`` is positive and
    is the numerically safe quantity at large y.
    """

    c11: float
    c22: float
    c12: float
    det: float
    det_minus_one: float


def _self_series(varpi: float, sa: float, sb: float, tol: float) -> float:
    """Sum_n sinh(varpi) / (sa sinh(n varpi) + sb sinh((n+1) varpi)).

    Evaluated as e^{(1-n)varpi}(1-e^{-2varpi}) /
    [sa (1-e^{-2n varpi}) + sb e^{varpi} (1-e^{-2(n+1)varpi})],
    stable for both small and large varpi.  Raises
    :class:`ConvergenceError` where the scale sb e^varpi overflows (y near
    the largest double), since every term would be 0 there.
    """
    q = math.exp(-varpi)
    e2 = -math.expm1(-2.0 * varpi)
    try:
        ew = math.exp(varpi)
    except OverflowError:
        ew = math.inf
    if sb * ew == math.inf:
        raise ConvergenceError(f"capacitance series: its scale overflows at varpi = {varpi:.6g}")

    def term(n):
        num = q ** (n - 1.0) * e2
        den = sa * (-np.expm1(-2.0 * n * varpi)) + sb * ew * (-np.expm1(-2.0 * (n + 1.0) * varpi))
        return num / den

    return _series_sum(term, tol, "capacitance")


def _mutual_series(varpi: float, tol: float) -> float:
    """Sum_{m>=1} sinh(varpi)/sinh(m varpi)."""
    q = math.exp(-varpi)
    e2 = -math.expm1(-2.0 * varpi)

    def term(n):  # n = 0, 1, ... maps to m = n + 1
        m = n + 1.0
        return q ** (m - 1.0) * e2 / (-np.expm1(-2.0 * m * varpi))

    return _series_sum(term, tol, "mutual capacitance")


def capacitance_coeffs(red: ReducedGeometry, tol: float = 1e-12) -> CapacitanceMatrix:
    """Dimensionless capacitance coefficients and determinant.

    Parameters
    ----------
    red : ReducedGeometry
    tol : float
        Relative truncation tolerance of each series.

    Returns
    -------
    CapacitanceMatrix
    """
    w = red.varpi
    if red.is_plane:
        s1 = _mutual_series(w, tol)
        return CapacitanceMatrix(c11=s1, c22=1.0, c12=0.0, det=s1, det_minus_one=s1 - 1.0)
    sa1 = math.sqrt(red.alpha1)
    sa2 = math.sqrt(red.alpha2)
    c11 = _self_series(w, sa1, sa2, tol)
    c22 = _self_series(w, sa2, sa1, tol)
    c12 = -_mutual_series(w, tol) / math.sqrt(red.z)
    # det - 1 without cancellation: c11 = sa1 (1 + d1), c22 = sa2 (1 + d2)
    # and sa1*sa2 = 1, so det - 1 = sa1*B + sa2*A + A*B - c12^2 with
    # A = c11 - sa1, B = c22 - sa2 (the n >= 1 partial sums).
    A = c11 - sa1
    B = c22 - sa2
    det_m1 = sa1 * B + sa2 * A + A * B - c12 * c12
    return CapacitanceMatrix(c11=c11, c22=c22, c12=c12, det=1.0 + det_m1, det_minus_one=det_m1)


def mutual_capacitance_maxwell(red: ReducedGeometry, tol: float = 1e-12) -> float:
    """Mutual capacitance C12 normalized by 4*pi*eps0 (a length).

    Equals -(R1 R2 / center_distance) * sum_{m>=1} sinh(varpi)/sinh(m varpi)
    in the length unit carried by ``red.r_eff``; identical to
    sqrt(R1 R2) * c12.
    """
    uz = 1.0 if red.is_plane else red.u * red.z
    return -red.r_eff / math.sqrt(uz) * _mutual_series(red.varpi, tol)


def f_dvd_total(red: ReducedGeometry, tol: float = 1e-12) -> float:
    """Total reduced free energy, all round trips.

    f = f_scalar - log1p(det - 1) / 2; positive for every valid geometry.
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
