import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir_spheres import drude, scalar
from casimir_spheres.errors import ConvergenceError, DomainError
from casimir_spheres.geometry import from_invariants
from casimir_spheres.scalar import ZETA3, f_pfa, f_sc_roundtrip, f_sc_total


def test_single_roundtrip_values():
    red = from_invariants(2.0, 0.25)
    assert f_sc_roundtrip(red, 1) == pytest.approx(1.0 / 6.0, rel=1e-14)
    # cosh(2w) = 2y^2 - 1 = 7, sinh^2(2w) = 48
    assert f_sc_roundtrip(red, 2) == pytest.approx(7.0 / 384.0, rel=1e-14)
    # r = 1 equals the closed form y/(4(y^2-1))
    assert f_sc_roundtrip(red, 1) == pytest.approx(2.0 / (4.0 * 3.0), rel=1e-15)


def test_roundtrip_rejects_bad_order():
    red = from_invariants(2.0, 0.25)
    with pytest.raises(DomainError):
        f_sc_roundtrip(red, 0)


def test_total_large_y_single_trip_dominates():
    # the second trip contributes 1/(4y) = 0.25% at y = 100
    red = from_invariants(100.0, 0.25)
    assert f_sc_total(red) == pytest.approx(f_sc_roundtrip(red, 1), rel=3e-3)


def test_total_against_extended_precision_sum():
    # independent oracle: term-by-term summation at 50 decimal digits
    y = 2.0
    with mpmath.workdps(50):
        w = mpmath.acosh(mpmath.mpf(2))
        oracle = mpmath.nsum(
            lambda r: mpmath.cosh(r * w) / (4 * r * mpmath.sinh(r * w) ** 2),
            [1, mpmath.inf],
        )
        expected = float(oracle)
    assert f_sc_total(from_invariants(y, 0.1), tol=1e-12) == pytest.approx(
        expected, rel=2e-12)


def test_pfa_limit():
    red = from_invariants(1.0 + 1e-4, 0.25)
    assert (red.y - 1.0) * f_sc_total(red) == pytest.approx(ZETA3 / 8.0, rel=1e-2)
    # ratio f/f_pfa -> 1
    assert f_sc_total(red) / f_pfa(red) == pytest.approx(1.0, abs=1e-2)


def test_pfa_values():
    assert f_pfa(from_invariants(1.001, 0.25)) == pytest.approx(ZETA3 / 0.008, rel=1e-12)
    assert f_pfa(from_invariants(2.0, 0.25)) == pytest.approx(0.1502571, rel=1e-6)


def test_near_contact_roundtrip_scaling():
    # f^(r)/f^(1) -> 1/r^3 close to contact
    red = from_invariants(1.0 + 1e-6, 0.25)
    f1 = f_sc_roundtrip(red, 1)
    for r in range(2, 6):
        assert f_sc_roundtrip(red, r) / f1 == pytest.approx(1.0 / r**3, rel=1e-3)


def test_conformal_invariance_bit_identical():
    a = from_invariants(3.0, 0.25)
    b = from_invariants(3.0, 0.01)
    assert f_sc_total(a) == f_sc_total(b)
    assert f_sc_roundtrip(a, 3) == f_sc_roundtrip(b, 3)


@given(y=st.floats(min_value=1.0001, max_value=100.0),
       r=st.integers(min_value=1, max_value=20))
@settings(max_examples=200)
def test_positive_and_decreasing_in_r(y, r):
    red = from_invariants(y, 0.25)
    a = f_sc_roundtrip(red, r)
    b = f_sc_roundtrip(red, r + 1)
    assert a > 0.0
    assert b < a


def test_total_monotone_decreasing_in_y():
    ys = 1.0 + np.logspace(-2, 2, 25)
    vals = [f_sc_total(from_invariants(float(y), 0.25)) for y in ys]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_total_tolerance_domain():
    red = from_invariants(2.0, 0.25)
    with pytest.raises(DomainError):
        f_sc_total(red, tol=0.0)
    with pytest.raises(DomainError):
        f_sc_total(red, tol=1.5)


def _one_chunk_sum(term_fn, tol):
    """Reference: the series loop that evaluates whole 4096-term chunks."""
    total = 0.0
    start = 0
    while True:
        terms = term_fn(np.arange(start, start + 4096, dtype=float))
        csum = total + np.cumsum(terms)
        small = np.nonzero(terms < tol * csum)[0]
        if small.size:
            return float(csum[small[0]])
        total = float(csum[-1])
        start += 4096


def _row(term_fn, i):
    """Row i of a multi-row term function, as a one-series term function."""
    return lambda n: term_fn(n)[i]


def _term_fns(red):
    """Term functions of the scalar series, the capacitance series of the
    two spheres (rows c11, c22, mutual) and of the plane (mutual alone)."""
    captured = []

    def capture(term_fn, tol, what):
        captured.append(term_fn)
        return [1.0] * len(term_fn(np.zeros(1)))

    with mock.patch.object(drude, "_series_sum", capture):
        drude.capacitance_coeffs(red)
        drude.capacitance_coeffs(from_invariants(red.y, 0.0))
    spheres, plane = captured
    varpi = red.varpi
    return {"scalar": lambda n: scalar._roundtrip_terms(varpi, n + 1.0)[None],
            "capacitance": spheres, "plane": plane}


def _counted(term_fn, counter):
    def wrapped(n):
        counter.append(n.size)
        return term_fn(n)
    return wrapped


@given(log_varpi=st.floats(min_value=math.log(1e-4), max_value=math.log(50.0)),
       log_tol=st.floats(min_value=math.log(1e-14), max_value=math.log(1e-6)),
       u=st.floats(min_value=0.01, max_value=0.25))
@example(log_varpi=math.log(1e-4), log_tol=math.log(1e-14), u=0.1)   # ~80 chunks
@example(log_varpi=math.log(4.5e-3), log_tol=math.log(1e-12), u=0.25)  # stops past 4096
@settings(max_examples=60, deadline=None)
def test_series_sum_bit_identical_to_whole_chunks(log_varpi, log_tol, u):
    red = from_invariants(math.cosh(math.exp(log_varpi)), u)
    tol = math.exp(log_tol)
    for name, term_fn in _term_fns(red).items():
        got = scalar._series_sum(term_fn, tol, name)
        assert len(got) == len(term_fn(np.zeros(1))), name
        for i, value in enumerate(got):
            assert value.hex() == _one_chunk_sum(_row(term_fn, i), tol).hex(), (name, i)


def test_capacitance_terms_are_the_series_definitions():
    # the shared evaluation keeps each row's defining sum: sinh quotients
    red = from_invariants(1.5, 0.1)
    w, sa1 = red.varpi, math.sqrt(red.alpha1)
    sa2 = 1.0 / sa1
    n = np.arange(1.0, 40.0)
    rows = _term_fns(red)["capacitance"](n)
    for row, (sa, sb) in zip(rows, [(sa1, sa2), (sa2, sa1)]):
        expected = math.sinh(w) / (sa * np.sinh(n * w) + sb * np.sinh((n + 1) * w))
        np.testing.assert_allclose(row, expected, rtol=1e-13)
    np.testing.assert_allclose(rows[2], math.sinh(w) / np.sinh((n + 1) * w), rtol=1e-13)
    assert np.array_equal(_term_fns(red)["plane"](n)[0], rows[2])


def _asked_and_whole(term_fn, tol, name):
    """Indices asked for by the shared loop, and by the whole-chunk loop
    for the row that runs longest."""
    asked = []
    scalar._series_sum(_counted(term_fn, asked), tol, name)
    whole = []
    for i in range(len(term_fn(np.zeros(1)))):
        row = []
        _one_chunk_sum(_counted(_row(term_fn, i), row), tol)
        whole.append(sum(row))
    return sum(asked), max(whole)


@pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-14])
def test_series_cost_follows_terms_needed(tol):
    # far: the first call, 32 head terms and 32 probes, holds every stop
    for name, term_fn in _term_fns(from_invariants(11.0, 0.1)).items():
        asked = []
        scalar._series_sum(_counted(term_fn, asked), tol, name)
        assert sum(asked) <= 64, name
    # near contact: the probes are the only terms asked for twice, so the
    # count passes the whole chunks' (4096 or 8192 here) of the longest
    # row only where its stop lies in the last window before a chunk
    # boundary
    for name, term_fn in _term_fns(from_invariants(1.0 + 1e-5, 0.1)).items():
        asked, whole = _asked_and_whole(term_fn, tol, name)
        assert asked <= whole + 32, name
        if tol == 1e-12:  # stops at 2156 (scalar) and about 6200 terms
            assert asked <= whole - 1000, name


@pytest.mark.parametrize("tol", [1e-8, 1e-12, 1e-14])
@pytest.mark.parametrize("scales", [(1.0, 3.0), (3.0, 1.0), (1.0, 1000.0), (0.5, 1.0, 3.0)])
def test_stacked_rows_sum_as_alone(scales, tol):
    # scalar rows at multiples of varpi = 1.5e-3 stop in different windows:
    # at 1e-12 and 1e-14 the row at varpi past 4096 terms, the one at
    # 3 varpi = 4.5e-3 before it, the one at 1000 varpi in the head
    varpi = 1.5e-3

    def alone(c):
        return lambda n: scalar._roundtrip_terms(c * varpi, n + 1.0)[None]

    def stacked(n):
        return np.concatenate([alone(c)(n) for c in scales])

    got = scalar._series_sum(stacked, tol, "stacked")
    for c, value in zip(scales, got):
        [single] = scalar._series_sum(alone(c), tol, "alone")
        assert value.hex() == single.hex(), c
        assert value.hex() == _one_chunk_sum(_row(alone(c), 0), tol).hex(), c
    asked, whole = _asked_and_whole(stacked, tol, "stacked")
    assert asked <= whole + 32


@pytest.mark.parametrize("tol", [1e-12, 1e-14])
def test_stacked_rows_straddle_a_chunk_boundary(tol):
    # the rows at varpi and 3 varpi above stop on both sides of term 4096
    stops = []
    for c in (1.0, 3.0):
        terms = scalar._roundtrip_terms(c * 1.5e-3, np.arange(1.0, 16385.0))
        stops.append(int(np.argmax(terms < tol * np.cumsum(terms))))
    assert stops[1] < 4096 < stops[0]


def test_series_sum_raises_past_the_term_cap():
    # a series that never converges asks for the whole chunks below the
    # cap, as the whole-chunk loop did, plus the 32 probes, then raises
    asked = []
    with pytest.raises(ConvergenceError):
        scalar._series_sum(_counted(lambda n: np.ones_like(n)[None], asked), 1e-12, "constant")
    assert sum(asked) == 32 + 4096 * -(-scalar.MAX_TERMS // 4096)


def test_series_sum_raises_past_the_term_cap_beside_a_converging_row():
    # a row that stops early does not end the loop, nor shorten its chunks
    asked = []

    def rows(n):
        return np.stack([scalar._roundtrip_terms(0.1, n + 1.0), np.ones_like(n)])

    with pytest.raises(ConvergenceError):
        scalar._series_sum(_counted(rows, asked), 1e-12, "constant")
    assert sum(asked) == 32 + 4096 * -(-scalar.MAX_TERMS // 4096)


def _counted_scalar_terms():
    calls = []
    real = scalar._roundtrip_terms

    def counted(varpi, r):
        calls.append(r.size)
        return real(varpi, r)

    return calls, mock.patch.object(scalar, "_roundtrip_terms", counted)


def test_scalar_total_summed_once_per_varpi():
    # conformal invariance: every u at one y reads one memoised sum
    y = 1.0 + 3.7e-4
    calls, patch = _counted_scalar_terms()
    misses = scalar._sc_sum.cache_info().misses
    with patch:
        values = {f_sc_total(from_invariants(y, u)) for u in (0.0, 0.016, 0.04, 0.1, 0.25)}
    assert len(values) == 1
    assert scalar._sc_sum.cache_info().misses == misses + 1
    assert len(calls) >= 2  # the first call and at least one window near contact
    with patch:
        f_sc_total(from_invariants(y, 0.1), tol=1e-10)  # another tol is another sum
    assert scalar._sc_sum.cache_info().misses == misses + 2


def test_dvd_total_reads_the_memoised_scalar_total():
    red = from_invariants(1.0 + 2.9e-3, 0.1)
    f_sc_total(red)
    calls, patch = _counted_scalar_terms()
    with patch:
        drude.f_dvd_total(red)
    assert calls == []


@pytest.mark.parametrize("tol", [0.0, math.nan, 1.5, -1e-12])
def test_memoised_total_still_rejects_bad_tol(tol):
    red = from_invariants(2.0, 0.25)
    f_sc_total(red)
    f_sc_total(red, tol=1e-10)
    with pytest.raises(DomainError):
        f_sc_total(red, tol=tol)
    with pytest.raises(DomainError):  # a raise is not memoised
        f_sc_total(red, tol=tol)


def test_scalar_memo_is_bounded():
    assert scalar._sc_sum.cache_info().maxsize == scalar._SC_CACHE_SIZE
    assert scalar._SC_CACHE_SIZE is not None
