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


def _term_fns(red):
    """Term functions of the scalar, capacitance self and mutual series."""
    captured = []

    def capture(term_fn, tol, what):
        captured.append(term_fn)
        return 1.0

    with mock.patch.object(drude, "_series_sum", capture):
        drude.capacitance_coeffs(red)
    self_11, self_22, mutual = captured
    varpi = red.varpi
    return {"scalar": lambda n: scalar._roundtrip_terms(varpi, n + 1.0),
            "self": self_11, "self_swapped": self_22, "mutual": mutual}


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
        assert got.hex() == _one_chunk_sum(term_fn, tol).hex(), name


@pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-14])
def test_series_cost_follows_terms_needed(tol):
    # far: the first call, 32 head terms and 32 probes, holds the stop
    for name, term_fn in _term_fns(from_invariants(11.0, 0.1)).items():
        asked = []
        scalar._series_sum(_counted(term_fn, asked), tol, name)
        assert sum(asked) <= 64, name
    # near contact: the probes are the only terms asked for twice, so the
    # count passes the whole chunks' (4096 or 8192 here) only where the
    # stop lies in the last window before a chunk boundary
    for name, term_fn in _term_fns(from_invariants(1.0 + 1e-5, 0.1)).items():
        asked, whole = [], []
        scalar._series_sum(_counted(term_fn, asked), tol, name)
        _one_chunk_sum(_counted(term_fn, whole), tol)
        assert sum(asked) <= sum(whole) + 32, name
        if tol == 1e-12:  # stops at 2156 (scalar) and about 6200 terms
            assert sum(asked) <= sum(whole) - 1000, name


def test_series_sum_raises_past_the_term_cap():
    # a series that never converges asks for the whole chunks below the
    # cap, as the whole-chunk loop did, plus the 32 probes, then raises
    asked = []
    with pytest.raises(ConvergenceError):
        scalar._series_sum(_counted(np.ones_like, asked), 1e-12, "constant")
    assert sum(asked) == 32 + 4096 * -(-scalar.MAX_TERMS // 4096)
