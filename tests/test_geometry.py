import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_spheres.errors import DomainError
from casimir_spheres.geometry import (PLANE, ReducedGeometry, SphereGeometry,
                                      free_energy_si, from_invariants, reduce,
                                      to_sphere_geometry)

radii = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
gaps = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False)


def test_equal_spheres_example():
    red = reduce(SphereGeometry(L=1.0, R1=1.0, R2=1.0))
    assert red.y == pytest.approx(3.5, abs=0)
    assert red.u == 0.25
    assert red.varpi == pytest.approx(math.acosh(3.5), rel=1e-15)
    assert red.z == pytest.approx(9.0, rel=1e-15)


def test_varpi_finite_at_large_y():
    # y (y - 1) overflows above 1.3e154; arcosh(y) = log(2y) takes over there
    for y in (1e153, 1.3e154, 1.4e154, 1e200, 1e308):
        varpi = from_invariants(y, 0.1).varpi
        assert math.isfinite(varpi)
        assert varpi == pytest.approx(math.acosh(y), rel=1e-15)


def test_contact_limit():
    red = reduce(SphereGeometry(L=1e-9, R1=1.0, R2=1.0))
    assert red.y == pytest.approx(1.0, abs=1e-8)
    assert red.y > 1.0


def test_plane_sphere_example():
    red = reduce(SphereGeometry(L=1.0, R1=1.0, R2=PLANE))
    assert red.y == 2.0
    assert red.u == 0.0
    assert red.is_plane
    assert math.isinf(red.z)
    assert red.r_eff == 1.0


def test_rejects_bad_inputs():
    with pytest.raises(DomainError):
        SphereGeometry(L=0.0, R1=1.0, R2=1.0)
    with pytest.raises(DomainError):
        SphereGeometry(L=1.0, R1=-1.0, R2=1.0)
    with pytest.raises(DomainError):
        from_invariants(1.0, 0.1)
    with pytest.raises(DomainError):
        from_invariants(2.0, 0.3)
    with pytest.raises(DomainError):
        ReducedGeometry(y=0.5, u=0.1, z=10.0, varpi=1.0, r_eff=1.0,
                        alpha1=1.0, alpha2=1.0)


def test_from_invariants_examples():
    red = from_invariants(3.5, 0.25)
    assert red.alpha1 == pytest.approx(1.0)
    assert red.alpha2 == pytest.approx(1.0)
    assert red.z == pytest.approx(9.0)

    red = from_invariants(2.0, 0.0)
    assert red.is_plane
    assert red.alpha2 == 0.0

    red = from_invariants(2.0, 0.1)
    s = math.sqrt(0.6)
    assert red.alpha1 == pytest.approx((0.8 + s) / 0.2, rel=1e-14)
    assert red.alpha2 == pytest.approx((0.8 - s) / 0.2, rel=1e-12)


@given(L=gaps, R1=radii, R2=radii)
@settings(max_examples=200)
def test_reduce_invariants(L, R1, R2):
    red = reduce(SphereGeometry(L=L, R1=R1, R2=R2))
    assert red.y > 1.0
    assert 0.0 <= red.u <= 0.25
    assert red.varpi == pytest.approx(math.acosh(red.y), rel=1e-14)
    assert red.alpha1 * red.alpha2 == pytest.approx(1.0, rel=1e-14)
    # conformal parameter consistency
    assert 2.0 * (red.y - 1.0) + 1.0 / red.u == pytest.approx(red.z, rel=1e-12)


@given(L=gaps, R1=radii, R2=radii, lam=st.floats(min_value=1e-2, max_value=1e2))
@settings(max_examples=100)
def test_scale_invariance(L, R1, R2, lam):
    a = reduce(SphereGeometry(L=L, R1=R1, R2=R2))
    b = reduce(SphereGeometry(L=lam * L, R1=lam * R1, R2=lam * R2))
    assert b.y == pytest.approx(a.y, rel=1e-12)
    assert b.u == pytest.approx(a.u, rel=1e-12)


@given(L=gaps, R1=radii, R2=radii)
@settings(max_examples=100)
def test_exchange_symmetry(L, R1, R2):
    a = reduce(SphereGeometry(L=L, R1=R1, R2=R2))
    b = reduce(SphereGeometry(L=L, R1=R2, R2=R1))
    assert b.y == a.y
    assert b.u == a.u
    assert b.varpi == a.varpi
    assert b.alpha1 == a.alpha2 and b.alpha2 == a.alpha1


@given(y=st.floats(min_value=1.0001, max_value=1e4),
       u=st.floats(min_value=1e-6, max_value=0.25))
@settings(max_examples=200)
def test_roundtrip_reduce_realize(y, u):
    red = from_invariants(y, u)
    back = reduce(to_sphere_geometry(red))
    assert back.y == pytest.approx(y, rel=1e-12)
    assert back.u == pytest.approx(u, rel=1e-12)


@pytest.mark.parametrize("R1, R2", [(1e200, 1e200), (1e-200, 1e-200), (1e155, 1.0),
                                    (1e10, 1e-300)])
def test_reduce_rejects_radii_beyond_double_range(R1, R2):
    # (R1 + R2)**2 overflows, R1 R2 underflows, or R1/R2 overflows
    for a, b in ((R1, R2), (R2, R1)):
        with pytest.raises(DomainError, match="radii"):
            reduce(SphereGeometry(L=1.0, R1=a, R2=b))


def test_from_invariants_rejects_subnormal_u():
    # alpha1 ~ 1/u overflows; u = 0 remains the plane
    assert math.isfinite(from_invariants(2.0, 1e-300).alpha1)
    for u in (1e-310, 5e-324):
        with pytest.raises(DomainError, match="u = 0 is the plane"):
            from_invariants(2.0, u)


def test_roundtrip_plane():
    red = from_invariants(3.0, 0.0)
    back = reduce(to_sphere_geometry(red))
    assert back.is_plane
    assert back.y == pytest.approx(3.0, rel=1e-14)


def test_free_energy_si():
    joules, kbt, entropy = free_energy_si(1.0, 296.0)
    assert joules == pytest.approx(-4.08672e-21, rel=1e-5)
    assert kbt == -1.0
    assert entropy == 1.0
    assert free_energy_si(0.0, 300.0)[0] == 0.0
    assert free_energy_si(1.5, 296.0)[1] == -1.5
    with pytest.raises(DomainError):
        free_energy_si(1.0, 0.0)
    with pytest.raises(DomainError):
        free_energy_si(math.inf, 1.0)


@given(f=st.floats(min_value=-1e3, max_value=1e3),
       T=st.floats(min_value=1e-2, max_value=1e4))
@settings(max_examples=50)
def test_free_energy_si_linearity(f, T):
    joules, kbt, entropy = free_energy_si(f, T)
    assert kbt == -f
    assert entropy == f
    assert joules == pytest.approx(-1.380649e-23 * T * f, rel=1e-15)
