"""Reduced free energy for a scalar field with Dirichlet boundary conditions.

This is the conformally invariant reference model: every quantity depends
on the geometry only through y = cosh(varpi).  Round-trip contributions
have the closed form cosh(r*varpi) / (4 r sinh^2(r*varpi)); the total is
their sum, and the short-distance behavior is the proximity-force result
zeta(3) / (8(y-1)) shared by all models.
"""
from __future__ import annotations

from functools import lru_cache

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


def _series_sum(term_fn, tol: float, what: str) -> list[float]:
    """Sum each row of term_fn(n), n = 0, 1, ..., until term < tol * partial sum.

    ``term_fn`` maps a float array of n indices to a (k, n) array of
    positive terms, one row per series; the k sums are returned, each
    stopped at its own first term below ``tol`` times its partial sum.
    The cost follows the number of terms needed, about ln(1/tol)/varpi
    for the series in q = exp(-varpi), not a fixed chunk.  The first
    call asks for the head (n < 32) and one probe term per candidate
    window end.  A probe below tol times its row's head sum lies at or
    past that row's stopping term, so the next window ends at the first
    such probe; rows share their windows, which run to the farthest end
    any unfinished row needs.

    Windows never cross a multiple of 4096.  Each 4096-term chunk of a
    row keeps one running sum, carried from window to window, and the
    total of the earlier chunks is added to it; so every split of a chunk
    into windows gives the same bits as summing the chunk at once, and
    each row's sum is the one it has when summed alone.
    """
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tolerance must lie in (0, 1), got {tol}")
    first = term_fn(_FIRST)
    terms, probes = first[:, :_HEAD], first[:, _HEAD:]
    sums = [None] * len(first)
    ends = None
    total, carry = 0.0, np.zeros((len(first), 1))
    hi = _HEAD
    while True:
        part = np.cumsum(np.concatenate((carry, terms), axis=1), axis=1)[:, 1:]
        csum = total + part
        small = terms < tol * csum
        for i, j in enumerate(small.argmax(axis=1).tolist()):
            if sums[i] is None and small[i, j]:
                sums[i] = float(csum[i, j])
        if None not in sums:
            return sums
        carry = part[:, -1:]
        if hi % _CHUNK == 0:
            if hi >= MAX_TERMS:
                raise ConvergenceError(
                    f"{what} series did not converge within {MAX_TERMS} terms")
            total, carry = csum[:, -1:], np.zeros_like(carry)
        if ends is None:
            below = probes < tol * carry
            ends = [_ENDS[j] if below[i, j] else 0
                    for i, j in enumerate(below.argmax(axis=1).tolist())]
        lo = hi
        chunk_end = (lo // _CHUNK + 1) * _CHUNK
        hi = max(e if lo < e < chunk_end else chunk_end
                 for e, s in zip(ends, sums) if s is None)
        terms = term_fn(np.arange(lo, hi, dtype=float))


#: Bound of the scalar-total memo; it holds one entry per (varpi, tol).
_SC_CACHE_SIZE = 2048


@lru_cache(maxsize=_SC_CACHE_SIZE)
def _sc_sum(varpi: float, tol: float) -> float:
    return _series_sum(lambda n: _roundtrip_terms(varpi, n + 1.0)[None], tol,
                       f"round-trip (varpi={varpi:.3e})")[0]


def f_sc_total(red: ReducedGeometry, tol: float = 1e-12) -> float:
    """Sum of all round-trip contributions.

    The series is truncated once the current term drops below ``tol``
    times the partial sum.  Only the terms up to there are evaluated,
    about ln(1/tol)/varpi of them: a few at large y, a count that grows
    like 1/varpi near contact.  Exceeding the cap raises
    :class:`ConvergenceError`.  The total depends on the geometry only
    through varpi, so it is memoised per (varpi, tol) in a bounded
    cache: every u at one y sums the series once.

    Parameters
    ----------
    red : ReducedGeometry
    tol : float
        Relative truncation tolerance, 0 < tol < 1.

    Returns
    -------
    float
    """
    return _sc_sum(red.varpi, tol)


def f_pfa(red: ReducedGeometry) -> float:
    """Proximity-force (short-distance) limit zeta(3) / (8(y-1))."""
    return ZETA3 / (8.0 * (red.y - 1.0))
