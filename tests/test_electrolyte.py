import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_spheres.electrolyte import (QuadratureSettings, RoundTripMatrixSpec,
                                         _det_chain, det_roundtrip_matrix,
                                         det_roundtrip_transfer, f1_ded,
                                         f_ded_dipole, f_ded_roundtrip,
                                         f_ded_total)
from casimir_spheres.errors import ConvergenceError, DomainError
from casimir_spheres.geometry import from_invariants
from casimir_spheres.scalar import f_sc_roundtrip
from test_ded_exact import multipole_orders, neumann


def test_matrix_spec_validation():
    with pytest.raises(DomainError):
        RoundTripMatrixSpec(r=0, t=(), sigma=1)
    with pytest.raises(DomainError):
        RoundTripMatrixSpec(r=1, t=(0.5,), sigma=1)
    with pytest.raises(DomainError):
        RoundTripMatrixSpec(r=1, t=(0.5, 1.2), sigma=1)
    with pytest.raises(DomainError):
        RoundTripMatrixSpec(r=1, t=(0.5, 0.5), sigma=2)


def test_bench_settings_hold_only_an_unread_seed():
    # the benchmark still builds QuadratureSettings(seed=...) and passes it
    assert [f.name for f in dataclasses.fields(QuadratureSettings)] == ["seed"]
    red = from_invariants(2.0, 0.1)
    assert f_ded_total(red, settings=QuadratureSettings(seed=7)) == f_ded_total(red)
    assert f_ded_roundtrip(red, 2, QuadratureSettings(seed=7)) == f_ded_roundtrip(red, 2)


def test_det_r1_closed_form():
    red = from_invariants(2.0, 0.1)
    for sigma in (+1, -1):
        for t in [(0.3, 0.9), (1.0, 1.0), (0.0, 0.7)]:
            spec = RoundTripMatrixSpec(r=1, t=t, sigma=sigma)
            closed = 1.0 - (math.sqrt(red.alpha1) * t[0]
                            + sigma * math.sqrt(red.alpha2) * t[1]) ** 2 / red.z
            assert det_roundtrip_matrix(spec, red) == pytest.approx(closed, abs=1e-13)
            assert det_roundtrip_transfer(spec, red) == pytest.approx(closed, abs=1e-13)


def test_det_identity_at_zero_couplings():
    red = from_invariants(3.0, 0.2)
    for r in (1, 2, 3):
        spec = RoundTripMatrixSpec(r=r, t=(0.0,) * (2 * r), sigma=-1)
        assert det_roundtrip_matrix(spec, red) == pytest.approx(1.0, abs=1e-15)


@given(
    r=st.integers(min_value=1, max_value=4),
    y=st.floats(min_value=1.05, max_value=8.0),
    u=st.floats(min_value=0.02, max_value=0.25),
    sigma=st.sampled_from((-1, 1)),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_det_dense_vs_transfer(r, y, u, sigma, data):
    t = tuple(
        data.draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(2 * r))
    red = from_invariants(y, u)
    spec = RoundTripMatrixSpec(r=r, t=t, sigma=sigma)
    d_lu = det_roundtrip_matrix(spec, red)
    d_tm = det_roundtrip_transfer(spec, red)
    assert d_lu == pytest.approx(d_tm, rel=1e-12, abs=1e-14)
    assert d_lu > 0.0  # diagonally dominant for exterior spheres


def test_det_rejects_bad_couplings():
    red = from_invariants(2.0, 0.1)
    with pytest.raises(DomainError):
        RoundTripMatrixSpec(r=1, t=(0.5, -0.1), sigma=1)


def test_f1_closed_form_values():
    # plane case: (y/4)[1/(y^2-1) + ln((y^2-1)/y^2)] at y = 2
    red = from_invariants(2.0, 0.0)
    assert f1_ded(red) == pytest.approx(0.5 * (1.0 / 3.0 + math.log(0.75)), rel=1e-13)
    # equal radii at y = 2
    red = from_invariants(2.0, 0.25)
    assert f1_ded(red) == pytest.approx(0.019998094305527125, rel=1e-12)


def test_f1_general_matches_equal_radius_special_form():
    for y in (1.5, 2.0, 5.0, 50.0):
        red = from_invariants(y, 0.25)
        t2 = (y + 1.0) / 6.0 * math.log(
            (y * y - 1.0) * (y + 1.0) ** 2 / (y + 0.5) ** 4)
        rt = math.sqrt(2.0) / math.sqrt(y + 1.0)
        t3 = (1.0 / (6.0 * math.sqrt(2.0 * (y + 1.0)))) * math.log(
            (2.0 * y - 1.0 + rt) / (2.0 * y - 1.0 - rt))
        special = y / (4.0 * (y * y - 1.0)) + t2 + t3
        assert f1_ded(red) == pytest.approx(special, rel=1e-12)


def test_roundtrip_r1_matches_closed_form():
    for (y, u) in [(1.5, 0.25), (2.0, 0.1), (2.0, 0.25), (3.0, 0.04), (10.0, 0.25)]:
        red = from_invariants(y, u)
        got = f_ded_roundtrip(red, 1)
        assert got.value == pytest.approx(f1_ded(red), rel=1e-10)


def test_roundtrip_exchange_symmetry():
    # swapping the two radii leaves every order invariant
    red_a = from_invariants(2.0, 0.1)
    red_b = type(red_a)(y=red_a.y, u=red_a.u, z=red_a.z, varpi=red_a.varpi,
                        r_eff=red_a.r_eff, alpha1=red_a.alpha2, alpha2=red_a.alpha1)
    for r in (1, 2):
        a = f_ded_roundtrip(red_a, r).value
        b = f_ded_roundtrip(red_b, r).value
        assert a == pytest.approx(b, rel=1e-10)


def test_roundtrip_r2_dual_method():
    # the Fourier coefficient of the banded determinant against the power
    # trace of the spherical-multipole round trip
    for (y, u) in [(2.0, 0.25), (3.0, 0.1)]:
        red = from_invariants(y, u)
        want = multipole_orders(red, neumann, 60, 2)[2]
        got = f_ded_roundtrip(red, 2)
        assert got.value == pytest.approx(want, rel=1e-10)
        assert got.error < 1e-10 * got.value


def test_roundtrip_positive():
    for (y, u) in [(1.2, 0.25), (2.0, 0.1), (2.0, 0.25)]:
        red = from_invariants(y, u)
        for r in (1, 2, 3):
            got = f_ded_roundtrip(red, r)
            assert got.value > 0.0 and got.error < 1e-8 * got.value


def test_roundtrip_scalar_part_is_exact_at_unit_couplings():
    # the all-delta point of the signed measure reproduces the scalar
    # round trip: with vanishing continuous part the integral collapses
    red = from_invariants(2.0, 0.1)
    for r in (1, 2, 3):
        spec_p = RoundTripMatrixSpec(r=r, t=(1.0,) * (2 * r), sigma=+1)
        spec_m = RoundTripMatrixSpec(r=r, t=(1.0,) * (2 * r), sigma=-1)
        total = (1.0 / det_roundtrip_matrix(spec_p, red)
                 + 1.0 / det_roundtrip_matrix(spec_m, red))
        val = total / (4.0 * r) / red.z ** r
        assert val == pytest.approx(f_sc_roundtrip(red, r), rel=1e-12)


def test_total_far_limit_single_trip():
    red = from_invariants(100.0, 0.25)
    assert f_ded_total(red).value == pytest.approx(f1_ded(red), rel=1e-3)


def test_total_dipole_limit():
    red = from_invariants(1e3, 0.25)
    assert red.y**3 * f_ded_total(red).value == pytest.approx(3.0 / 32.0, rel=5e-3)
    red0 = from_invariants(1e3, 0.0)
    assert red0.y**3 * f_ded_total(red0).value == pytest.approx(1.0 / 8.0, rel=5e-3)


def test_dipole_values_and_ratios():
    red = from_invariants(10.0, 0.1)
    assert f_ded_dipole(red) == pytest.approx(9.375e-5, rel=1e-12)
    red0 = from_invariants(10.0, 0.0)
    assert f_ded_dipole(red0) == pytest.approx(1.25e-4, rel=1e-12)
    assert f_ded_dipole(red0) / f_ded_dipole(red) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_total_ratio_band():
    ys = 1.0 + np.logspace(-2, 2, 7)
    for y in ys:
        r = (f_ded_total(from_invariants(float(y), 0.0)).value
             / f_ded_total(from_invariants(float(y), 0.25)).value)
        assert 1.0 - 1e-3 <= r < 4.0 / 3.0


def test_large_y_plane_total_is_finite():
    # f1 is 0 here; the sphere's cosh(mu) = y is large and exp(-varpi/2) small
    for y in (1e10, 1e12):
        assert math.isfinite(f_ded_total(from_invariants(y, 0.0)).value)
    # every row's coupling underflows to 0; products of pivots must not overflow
    assert f_ded_total(from_invariants(1e200, 0.0)).value >= 0.0


def test_large_y_roundtrip_prefactor_does_not_overflow():
    # z**4 exceeds the largest double at z = 2e100, and f_sc^(4) underflows
    got = f_ded_roundtrip(from_invariants(1e100, 0.25), 4)
    assert got.value == 0.0 and got.error == 0.0


def test_small_u_f1_overflow_raises_typed_error():
    # (2y + alpha)^2 raises OverflowError at u = 1e-300; at 1e-154 it turns into nan
    for u in (1e-154, 1e-300):
        red = from_invariants(2.0, u)
        with pytest.raises(ConvergenceError, match="u = 1e-"):
            f1_ded(red)
        with pytest.raises(ConvergenceError, match="u = 1e-"):
            f_ded_total(red)


def test_large_y_two_sphere_f1_raises_typed_error():
    assert math.isfinite(f1_ded(from_invariants(1e76, 0.25)))
    for y in (1e100, 1e200):
        with pytest.raises(ConvergenceError):
            f_ded_total(from_invariants(y, 0.25))


def test_total_validates_inputs():
    red = from_invariants(2.0, 0.1)
    with pytest.raises(DomainError):
        f_ded_total(red, tol=0.0)
    with pytest.raises(DomainError):
        f_ded_roundtrip(red, 0)


def _dihedral_maps(coefs):
    """The maps i -> (+-i + k) mod n of the ring's links that keep ``coefs``."""
    n = len(coefs)
    maps = {tuple((sgn * i + k) % n for i in range(n)) for sgn in (1, -1) for k in range(n)}
    return [p for p in maps if all(coefs[j] == c for j, c in zip(p, coefs))]


def test_ring_determinant_invariant_under_link_symmetries():
    rng = np.random.default_rng(5)
    for _ in range(40):
        r = int(rng.integers(2, 6))
        u = float(rng.choice([rng.uniform(0.02, 0.24), 0.25]))
        red = from_invariants(float(rng.uniform(1.05, 4.0)), u)
        t = rng.uniform(0.0, 1.0, 2 * r)
        sigma = int(rng.choice((-1, 1)))
        base = det_roundtrip_matrix(RoundTripMatrixSpec(r, tuple(t), sigma), red)
        coefs = np.resize([math.sqrt(red.alpha1 / red.z), math.sqrt(red.alpha2 / red.z)], 2 * r)
        group = _dihedral_maps(coefs)
        assert len(group) == (4 * r if u == 0.25 else 2 * r)
        for p in group:
            moved = det_roundtrip_matrix(RoundTripMatrixSpec(r, tuple(t[list(p)]), sigma), red)
            assert moved == pytest.approx(base, rel=1e-12, abs=0.0)
        rot1 = tuple((i + 1) % (2 * r) for i in range(2 * r))
        if u < 0.25:
            moved = det_roundtrip_matrix(RoundTripMatrixSpec(r, tuple(t[list(rot1)]), sigma), red)
            assert abs(moved / base - 1.0) > 1e-6


def _dense_ring_det(a, sigma):
    """Dense determinant of the unit-diagonal cyclic coupling matrix with links ``a``."""
    n = len(a)
    if n == 1:
        return 1.0 - 2.0 * sigma * a[0]
    m = np.eye(n)
    if n == 2:
        m[0, 1] = m[1, 0] = a[0] + sigma * a[1]
    else:
        for i in range(n - 1):
            m[i, i + 1] = m[i + 1, i] = a[i]
        m[0, n - 1] = m[n - 1, 0] = sigma * a[n - 1]
    return np.linalg.det(m)


@pytest.mark.parametrize("npts", (37, 1000, 8192, 8193, 2 * 8192 + 123))
def test_tiled_dets_equal_one_shot_gather(npts):
    # _det_chain is elementwise over the points: evaluated tile by tile it
    # gives the one-shot values bit for bit, and each value is the ring's
    # dense determinant.  Coefficients alternate (two spheres), are equal
    # (equal radii) or are 1/(2y) (plane chain); below 1/2 every ring
    # determinant is positive.
    rng = np.random.default_rng(npts)
    tile = 1024
    for k in range(24):
        n = int(rng.integers(1, 11))
        kind = k % 3
        if kind == 0:
            coefs = np.resize(rng.uniform(0.05, 0.49, 2), n)
        elif kind == 1:
            coefs = np.full(n, rng.uniform(0.05, 0.49))
        else:
            coefs = np.full(n, 1.0 / (2.0 * rng.uniform(1.02, 3.0)))
        sigma = int(rng.choice((-1, 1)))
        coups = coefs[:, None] * rng.random((n, npts))
        one_shot = _det_chain(list(coups), sigma)
        tiled = np.concatenate([_det_chain(list(coups[:, s:s + tile]), sigma)
                                for s in range(0, npts, tile)])
        assert one_shot.shape == (npts,) and np.array_equal(tiled, one_shot)
        assert (one_shot > 0.0).all()
        for j in rng.choice(npts, 5, replace=False):
            assert one_shot[j] == pytest.approx(_dense_ring_det(coups[:, j], sigma),
                                                rel=1e-12, abs=0.0)
