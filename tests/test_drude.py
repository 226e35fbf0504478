import math
import time

import numpy as np
import pytest

from casimir_spheres.drude import (capacitance_coeffs, f1_dvd, f_dvd_dipole,
                                   f_dvd_total, mutual_capacitance_maxwell)
from casimir_spheres.electrolyte import f_ded_total
from casimir_spheres.errors import ConvergenceError
from casimir_spheres.geometry import PLANE, SphereGeometry, from_invariants, reduce
from casimir_spheres.scalar import ZETA3, f_sc_total
from casimir_spheres.validation import DRUDE_VACUUM, f_roundtrip_planewave


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
    geom = SphereGeometry(L=0.7, R1=1.3, R2=2.1)
    red = reduce(geom)
    cap = capacitance_coeffs(red)
    c12_len = mutual_capacitance_maxwell(red)
    assert c12_len == pytest.approx(math.sqrt(geom.R1 * geom.R2) * cap.c12, rel=1e-12)


def test_mutual_capacitance_far_limit():
    geom = SphereGeometry(L=200.0, R1=1.0, R2=2.0)
    red = reduce(geom)
    expect = -geom.R1 * geom.R2 / geom.center_distance
    assert mutual_capacitance_maxwell(red) == pytest.approx(expect, rel=1e-4)


def test_mutual_capacitance_tolerance_stability():
    red = from_invariants(2.0, 0.25)
    a = mutual_capacitance_maxwell(red, tol=1e-12)
    b = mutual_capacitance_maxwell(red, tol=1e-15)
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
        got = f_roundtrip_planewave(DRUDE_VACUUM, red, 1).value
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
