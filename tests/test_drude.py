import math
import time
from unittest import mock

import numpy as np
import pytest

from casimir_spheres import drude, scalar
from casimir_spheres.drude import capacitance_coeffs, f1_dvd, f_dvd_dipole, f_dvd_total
from casimir_spheres.electrolyte import f_ded_total
from casimir_spheres.errors import ConvergenceError, DomainError
from casimir_spheres.geometry import PLANE, SphereGeometry, from_invariants, reduce
from casimir_spheres.scalar import ZETA3, f_sc_total
from casimir_spheres.validation import f_roundtrip_planewave

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_capacitance_far_limit_equal_spheres():
    red = from_invariants(1e6, 0.25)
    cap = capacitance_coeffs(red)
    assert cap.c11 == pytest.approx(1.0, abs=1e-5)
    assert cap.c11 == cap.c22
    # c12 -> -sqrt(R1 R2)/distance = -1/sqrt(z)
    assert cap.c12 * math.sqrt(red.z) == pytest.approx(-1.0, abs=1e-5)


def test_capacitance_symmetry_equal_radii():
    cap = capacitance_coeffs(from_invariants(2.0, 0.25))
    assert cap.c11 == cap.c22


def test_capacitance_det_tolerance_refinement():
    red = from_invariants(2.0, 0.25)
    d1 = capacitance_coeffs(red, tol=1e-12).det
    d2 = capacitance_coeffs(red, tol=1e-15).det
    assert d1 == pytest.approx(d2, rel=1e-11)


def test_capacitance_invariants():
    for (y, u) in [(1.1, 0.25), (2.0, 0.1), (10.0, 0.25), (100.0, 0.04)]:
        cap = capacitance_coeffs(from_invariants(y, u))
        assert cap.c11 > 0 and cap.c22 > 0
        assert cap.c12 < 0
        # determinant exceeds 1 at finite separation, tending to 1 far away
        assert cap.det > 1.0
        assert cap.det == pytest.approx(1.0 + cap.det_minus_one, rel=1e-14)
        assert cap.det == pytest.approx(cap.c11 * cap.c22 - cap.c12**2, rel=1e-12)


def test_capacitance_plane_limit():
    # the rescaled plane representation continues the finite-u determinant
    y = 2.0
    det_small_u = capacitance_coeffs(from_invariants(y, 1e-9)).det
    cap = capacitance_coeffs(from_invariants(y, 0.0))
    assert cap.det == pytest.approx(det_small_u, rel=1e-7)
    assert cap.c22 == 1.0 and cap.c12 == 0.0


def test_mutual_capacitance_identity():
    # Maxwell's series: C12 = -(R1 R2 / center distance) sum_{m>=1} sinh(varpi)/sinh(m varpi)
    geom = SphereGeometry(L=0.7, R1=1.3, R2=2.1)
    red = reduce(geom)
    maxwell = sum(math.sinh(red.varpi) / math.sinh(m * red.varpi) for m in range(1, 200))
    c12_len = math.sqrt(geom.R1 * geom.R2) * capacitance_coeffs(red).c12
    distance = geom.L + geom.R1 + geom.R2
    assert c12_len == pytest.approx(-geom.R1 * geom.R2 / distance * maxwell, rel=1e-12)


def test_mutual_capacitance_far_limit():
    geom = SphereGeometry(L=200.0, R1=1.0, R2=2.0)
    red = reduce(geom)
    expect = -geom.R1 * geom.R2 / (geom.L + geom.R1 + geom.R2)
    c12_len = math.sqrt(geom.R1 * geom.R2) * capacitance_coeffs(red).c12
    assert c12_len == pytest.approx(expect, rel=1e-4)


def test_mutual_capacitance_tolerance_stability():
    red = from_invariants(2.0, 0.25)
    a = capacitance_coeffs(red, tol=1e-12).c12
    b = capacitance_coeffs(red, tol=1e-15).c12
    assert a == pytest.approx(b, rel=1e-11)


def test_f1_values():
    assert f1_dvd(from_invariants(2.0, 0.25)) == pytest.approx(0.05, rel=1e-13)
    assert f1_dvd(from_invariants(2.0, 0.0)) == pytest.approx(1.0 / 24.0, rel=1e-13)
    # general formula reduces to the special forms
    red = from_invariants(2.0, 0.25)
    assert f1_dvd(red) == pytest.approx(
        1.0 / 6.0 + 1.0 / 12.0 - 1.0 / 5.0, rel=1e-13)
    for y in (1.5, 2.0, 5.0, 50.0):
        red = from_invariants(y, 0.25)
        special = 3.0 / (4.0 * (2.0 * y + 1.0) * (y * y - 1.0))
        assert f1_dvd(red) == pytest.approx(special, rel=1e-12)


def test_dipole_values_and_ratio():
    red = from_invariants(10.0, 0.1)
    assert f_dvd_dipole(red) == pytest.approx(3.75e-4, rel=1e-12)
    red0 = from_invariants(10.0, 0.0)
    assert f_dvd_dipole(red0) == pytest.approx(2.5e-4, rel=1e-12)
    assert f_dvd_dipole(red0) / f_dvd_dipole(red) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_total_identity_with_capacitance():
    red = from_invariants(2.0, 0.1)
    cap = capacitance_coeffs(red, tol=1e-12)
    assert f_sc_total(red, 1e-12) - f_dvd_total(red, 1e-12) == pytest.approx(
        0.5 * math.log(cap.det), rel=1e-10)


def test_total_dipole_limits():
    red = from_invariants(1e3, 0.25)
    assert red.y**3 * f_dvd_total(red) == pytest.approx(3.0 / 8.0, rel=5e-3)
    red0 = from_invariants(1e3, 0.0)
    assert red0.y**3 * f_dvd_total(red0) == pytest.approx(1.0 / 4.0, rel=5e-3)


def test_total_pfa():
    red = from_invariants(1.001, 0.25)
    assert (red.y - 1.0) * f_dvd_total(red) == pytest.approx(ZETA3 / 8.0, rel=2e-2)


def test_ratio_band_and_far_limit():
    # f(u=0)/f(u=1/4) stays in (2/3, 1] and approaches 2/3 far away
    ys = 1.0 + np.logspace(-2, 2, 9)
    for y in ys:
        ratio = f_dvd_total(from_invariants(float(y), 0.0)) / f_dvd_total(
            from_invariants(float(y), 0.25))
        assert 2.0 / 3.0 < ratio <= 1.0 + 1e-12
    y = 1e3
    ratio = f_dvd_total(from_invariants(y, 0.0)) / f_dvd_total(from_invariants(y, 0.25))
    assert ratio == pytest.approx(2.0 / 3.0, rel=1e-2)


def test_oracle_equivalence_r1():
    for (y, u) in [(1.5, 0.25), (2.0, 0.1), (2.0, 0.25), (5.0, 0.04), (3.0, 0.0)]:
        red = from_invariants(y, u)
        got = f_roundtrip_planewave("dvd", red, 1).value
        assert got == pytest.approx(f1_dvd(red), rel=1e-6)


def test_dvd_exceeds_ded_pointwise():
    for (y, u) in [(1.5, 0.25), (2.0, 0.1), (5.0, 0.25), (20.0, 0.04)]:
        red = from_invariants(y, u)
        assert f_dvd_total(red) > f_ded_total(red).value


@pytest.mark.parametrize("y, u", [(1.7e308, 0.25), (9e307, 0.1), (5e307, 0.1), (1e200, 1e-300)])
def test_capacitance_scale_overflow_raises_at_once(y, u):
    # sqrt(alpha) e^varpi overflows: every term is 0, and summing 1e7 of them took 2.4 s
    red = from_invariants(y, u)
    for fn in (capacitance_coeffs, f_dvd_total):
        t0 = time.perf_counter()
        with pytest.raises(ConvergenceError, match="capacitance"):
            fn(red)
        assert time.perf_counter() - t0 < 0.1


def test_mutual_series_summed_once_per_varpi():
    # conformal invariance: five u and the plane at one y read one mutual sum
    y = 1.0 + 4.1e-4
    misses = drude._mutual_sum.cache_info().misses
    for u in (1e-9, 0.016, 0.04, 0.1, 0.25, 0.0):
        capacitance_coeffs(from_invariants(y, u))
    assert drude._mutual_sum.cache_info().misses == misses + 1
    capacitance_coeffs(from_invariants(y, 0.1), tol=1e-10)  # another tol is another sum
    assert drude._mutual_sum.cache_info().misses == misses + 2
    with mock.patch.object(drude, "_series_sum", wraps=drude._series_sum) as spy:
        capacitance_coeffs(from_invariants(y, 0.0))
        assert spy.call_count == 0  # the plane is a memo read
        capacitance_coeffs(from_invariants(y, 0.1))
        assert spy.call_count == 1  # the spheres sum their two self rows alone
        assert len(spy.call_args.args[0](np.zeros(1))) == 2


def test_mutual_memo_is_bounded():
    assert drude._mutual_sum.cache_info().maxsize == scalar._SC_CACHE_SIZE


@pytest.mark.parametrize("tol", [0.0, math.nan, 1.5])
def test_memoised_mutual_series_still_rejects_bad_tol(tol):
    for u in (0.0, 0.1):
        red = from_invariants(2.0, u)
        capacitance_coeffs(red)
        for _ in range(2):  # a raise is not memoised
            with pytest.raises(DomainError):
                capacitance_coeffs(red, tol=tol)


@pytest.mark.parametrize("varpi", [1e-4, 0.1, 3.0, 700.0])
def test_self_rows_of_a_window_equal_the_per_term_expression(varpi):
    # slicing q^m and 1 - e^{-2 m varpi} over a window keeps every bit
    red = from_invariants(math.cosh(varpi), 0.1)
    w = red.varpi
    sa1 = math.sqrt(red.alpha1)
    sa2 = math.sqrt(red.alpha2)
    q, e2, ew = math.exp(-w), -math.expm1(-2.0 * w), math.exp(w)
    with mock.patch.object(drude, "_series_sum", lambda term_fn, tol, what: [term_fn]):
        [terms] = drude._capacitance_sums(w, 1e-12, sa1, sa2)
    for n in (np.arange(32.0, 45.0), np.arange(4090.0, 4300.0), scalar._FIRST):
        a = -np.expm1(-2.0 * n * w)
        b = -np.expm1(-2.0 * (n + 1.0) * w)
        expected = [q ** (n - 1.0) * e2 / (sa * a + sb * ew * b)
                    for sa, sb in ((sa1, sa2), (sa2, sa1))]
        assert np.array_equal(terms(n), expected), n[0]
