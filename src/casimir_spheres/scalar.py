"""Reduced free energy for a scalar field with Dirichlet boundary conditions.

This is the conformally invariant reference model: every quantity depends
on the geometry only through y = cosh(varpi).  Round-trip contributions
have the closed form cosh(r*varpi) / (4 r sinh^2(r*varpi)); the total is
their sum, and the short-distance behavior is the proximity-force result
zeta(3) / (8(y-1)) shared by all models.
"""
from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DomainError
from .geometry import ReducedGeometry

__all__ = ["ZETA3", "f_sc_roundtrip", "f_sc_total", "f_pfa"]

ZETA3 = 1.2020569031595942854

#: Hard cap on summed round trips before reporting non-convergence.
MAX_TERMS = 10**7

_CHUNK = 4096
_HEAD = 32
#: Candidate window ends past the head, four per octave up to 2 chunks.
_ENDS = [round(_HEAD * 2.0 ** (k / 4)) for k in range(1, 33)]
#: Indices of a sum's first call: the head, then one probe per window end.
_FIRST = np.array([*range(_HEAD), *(e - 1 for e in _ENDS)], dtype=float)
_FIRST.setflags(write=False)


def _roundtrip_terms(varpi: float, r: np.ndarray) -> np.ndarray:
    # cosh(x)/sinh^2(x) = 2 e^{-x} (1 + e^{-2x}) / (1 - e^{-2x})^2, overflow-safe
    x = r * varpi
    e = np.exp(-x)
    e2 = e * e
    return 2.0 * e * (1.0 + e2) / ((1.0 - e2) ** 2 * 4.0 * r)


def f_sc_roundtrip(red: ReducedGeometry, r: int) -> float:
    """Contribution of exactly r round trips.

    Parameters
    ----------
    red : ReducedGeometry
    r : int
        Round-trip order, >= 1.

    Returns
    -------
    float
        cosh(r*varpi) / (4 r sinh^2(r*varpi)), strictly positive and
        strictly decreasing in r.
    """
    if r < 1 or int(r) != r:
        raise DomainError(f"round-trip order must be a positive integer, got {r}")
    return float(_roundtrip_terms(red.varpi, np.asarray([float(r)]))[0])


def _series_sum(term_fn, tol: float, what: str) -> float:
    """Sum term_fn(n) for n = 0, 1, ... until term < tol * partial sum.

    ``term_fn`` maps a float array of indices to the positive terms.  The
    cost follows the number of terms needed, about ln(1/tol)/varpi for
    the series in q = exp(-varpi), not a fixed chunk.  The first call
    asks for the head (n < 32) and one probe term per candidate window
    end.  A probe below tol times the head's sum lies at or past the
    stopping term, so the next window ends at the first such probe.

    Windows never cross a multiple of 4096.  Each 4096-term chunk keeps
    one running sum, carried from window to window, and the total of the
    earlier chunks is added to it; so every split of a chunk into windows
    gives the same bits as summing the chunk at once.
    """
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tolerance must lie in (0, 1), got {tol}")
    first = term_fn(_FIRST)
    terms, probes = first[:_HEAD], first[_HEAD:]
    end = None
    total = carry = 0.0
    hi = _HEAD
    while True:
        part = np.cumsum(np.concatenate(([carry], terms)))[1:]
        csum = total + part
        small = np.nonzero(terms < tol * csum)[0]
        if small.size:
            return float(csum[small[0]])
        carry = part[-1]
        if hi % _CHUNK == 0:
            if hi >= MAX_TERMS:
                raise ConvergenceError(
                    f"{what} series did not converge within {MAX_TERMS} terms")
            total, carry = float(csum[-1]), 0.0
        if end is None:
            hit = np.nonzero(probes < tol * carry)[0]
            end = _ENDS[hit[0]] if hit.size else 0
        lo = hi
        hi = (lo // _CHUNK + 1) * _CHUNK
        if lo < end < hi:
            hi = end
        terms = term_fn(np.arange(lo, hi, dtype=float))


def f_sc_total(red: ReducedGeometry, tol: float = 1e-12) -> float:
    """Sum of all round-trip contributions.

    The series is truncated once the current term drops below ``tol``
    times the partial sum.  Only the terms up to there are evaluated,
    about ln(1/tol)/varpi of them: a few at large y, a count that grows
    like 1/varpi near contact.  Exceeding the cap raises
    :class:`ConvergenceError`.

    Parameters
    ----------
    red : ReducedGeometry
    tol : float
        Relative truncation tolerance, 0 < tol < 1.

    Returns
    -------
    float
    """
    varpi = red.varpi
    return _series_sum(lambda n: _roundtrip_terms(varpi, n + 1.0), tol,
                       f"round-trip (varpi={varpi:.3e})")


def f_pfa(red: ReducedGeometry) -> float:
    """Proximity-force (short-distance) limit zeta(3) / (8(y-1))."""
    return ZETA3 / (8.0 * (red.y - 1.0))
