import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from casimir_spheres.drude import f1_dvd
from casimir_spheres.electrolyte import f1_ded
from casimir_spheres.errors import DomainError
from casimir_spheres.geometry import from_invariants
from casimir_spheres.models import MODELS, get_model
from casimir_spheres.scalar import f_sc_roundtrip
from casimir_spheres import models, validation
from casimir_spheres.validation import (banded_determinant_deviations,
                                        f_roundtrip_planewave, reflection_tm,
                                        reflection_tm_series)


def test_kernels_at_zero():
    assert reflection_tm("scalar", 0.0) == 1.0
    assert reflection_tm("dvd", 0.0) == 0.0
    assert reflection_tm("ded", 0.0) == pytest.approx(0.0, abs=1e-15)


def test_series_matches_closed_forms():
    for model in MODELS:
        closed = reflection_tm(model, 1.0)
        series = reflection_tm_series(model, 1.0)
        assert series == pytest.approx(closed, rel=1e-14)


def test_ded_integral_representation_identity():
    # int_0^1 dt [cosh chi - 2 t cosh(t chi)] equals the explicit bracket
    for chi in (0.1, 1.0, 5.0):
        with mpmath.workdps(30):
            x = mpmath.mpf(chi)
            val = float(mpmath.quad(lambda t: mpmath.cosh(x) - 2 * t * mpmath.cosh(t * x), [0, 1]))
        assert -reflection_tm("ded", chi) == pytest.approx(val, rel=1e-12)


def test_kernel_parity():
    chi = np.linspace(-3.0, 3.0, 13)
    for model in MODELS:
        vals = reflection_tm(model, chi)
        assert np.allclose(vals, vals[::-1], rtol=1e-14)


def test_planewave_r1_reproduces_closed_forms():
    cases = [(1.5, 0.25), (2.0, 0.1), (5.0, 0.0)]
    for (y, u) in cases:
        red = from_invariants(y, u)
        targets = {
            "scalar": f_sc_roundtrip(red, 1),
            "dvd": f1_dvd(red),
            "ded": f1_ded(red),
        }
        for model, target in targets.items():
            got = f_roundtrip_planewave(model, red, 1)
            assert got.value == pytest.approx(target, rel=1e-5)


def test_planewave_gh_convergence_estimate():
    red = from_invariants(2.0, 0.1)
    v40 = f_roundtrip_planewave("scalar", red, 1, nodes=40)
    v80 = f_roundtrip_planewave("scalar", red, 1, nodes=80)
    assert abs(v80.value - v40.value) < v40.error


def test_planewave_scalar_bounds_dvd():
    red = from_invariants(2.0, 0.25)
    sc = f_roundtrip_planewave("scalar", red, 1).value
    dvd = f_roundtrip_planewave("dvd", red, 1).value
    assert sc >= dvd > 0.0


def test_planewave_r2_plane_case():
    red = from_invariants(2.5, 0.0)
    got = f_roundtrip_planewave("ded", red, 2, nodes=40)
    # cross-checked against the matrix-form engine
    from casimir_spheres.electrolyte import f_ded_roundtrip
    expect = f_ded_roundtrip(red, 2).value
    assert got.value == pytest.approx(expect, rel=1e-6)


def test_planewave_plane_r2_works_in_chunks():
    # the plane's r = 2 rule once built the whole nodes^4 tensor at once:
    # a tracemalloc peak of 158 MB at 40 nodes, 881 MB of RSS at 60
    red = from_invariants(2.0, 0.0)
    tracemalloc.start()
    try:
        f_roundtrip_planewave("ded", red, 2, nodes=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_planewave_rejects_high_order():
    red = from_invariants(2.0, 0.1)
    with pytest.raises(DomainError):
        f_roundtrip_planewave("scalar", red, 3)
    # two spheres at r = 2 would need an 8-dim rule
    with pytest.raises(DomainError):
        f_roundtrip_planewave("scalar", red, 2)


def _gaussian_margin(y, u):
    """1 - (c1 + c2)/2: c1 = c2 = 1/y at a plane, c1 + c2 = 2/sqrt(1 + 2u(y - 1)) else."""
    return 1.0 - 1.0 / y if u == 0.0 else 1.0 - 1.0 / math.sqrt(1.0 + 2.0 * u * (y - 1.0))


@pytest.mark.parametrize("nodes", (16, 40))
@pytest.mark.parametrize("ym1, u", [(1e-3, 0.1), (0.01, 0.25), (0.05, 0.1), (0.02, 0.0),
                                    (0.07, 0.0), (0.11, 0.25), (0.3, 0.25), (0.3, 0.1),
                                    (0.72, 0.1), (1.0, 0.1), (4.0, 0.25), (10.0, 0.0)])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_planewave_error_holds_or_raises(model, ym1, u, nodes):
    # where nodes * a < 1 the estimate fails: at y - 1 = 1e-3, u = 0.1 it
    # states 0.014 where the 60-node ded value is off by 0.97
    red = from_invariants(1.0 + ym1, u)
    if nodes * _gaussian_margin(red.y, u) < 1.0:
        with pytest.raises(DomainError):
            f_roundtrip_planewave(model, red, 1, nodes=nodes)
        return
    got = f_roundtrip_planewave(model, red, 1, nodes=nodes)
    assert abs(got.value - MODELS[model].f1(red)) <= got.error


def test_planewave_rejects_few_nodes_and_no_margin():
    # at 8 nodes the estimate compared the rule with itself and stated 0
    with pytest.raises(DomainError):
        f_roundtrip_planewave("scalar", from_invariants(5.0, 0.1), 1, nodes=15)
    # c1 + c2 rounds to 2 here: the Gaussian weight has no margin at all
    with pytest.raises(DomainError):
        f_roundtrip_planewave("scalar", from_invariants(1.0 + 2.2e-16, 0.25), 1)


def test_ded_bracket_within_a_few_ulp():
    # the closed form alone cancels up to |chi| ~ 3: about 60-fold at 0.5,
    # and about 100 eps off on [0.5, 1]
    chi = np.linspace(0.05, 4.0, 400)
    got = models._ded_bracket(chi)
    with mpmath.workdps(40):
        for c, g in zip(chi, got):
            x = mpmath.mpf(float(c))
            exact = mpmath.cosh(x) + 2 * (mpmath.cosh(x) - 1) / x**2 - 2 * mpmath.sinh(x) / x
            assert abs(float((g - exact) / exact)) <= 8 * np.finfo(float).eps, c


def test_banded_determinant_matches_dense():
    cases = list(banded_determinant_deviations())
    assert [(ym1, u) for ym1, u, _ in cases] == [(0.05, 0.0), (0.1, 0.04), (0.5, 0.25),
                                                 (1.0, 0.1), (3.0, 0.016)]
    assert all(rel < 1e-12 for *_, rel in cases)


def test_banded_determinant_check_sees_a_moved_sphere(monkeypatch):
    # mu1 moved by 1e-9 relative on the dense side only: the recursion
    # reads electrolyte's own _sphere_mus
    mus = validation._sphere_mus
    monkeypatch.setattr(validation, "_sphere_mus",
                        lambda red: (mus(red)[0] * (1.0 + 1e-9), mus(red)[1]))
    for ym1, u, rel in banded_determinant_deviations():
        if u > 0.0:  # at u = 0 sphere 1 is the plane, mu1 = 0
            assert rel > 1e-12, (ym1, u, rel)


@pytest.mark.parametrize("name", ["bogus", None, "Drude-vacuum", ["ded"]])
def test_oracle_takes_registry_names_only(name):
    with pytest.raises(DomainError, match="unknown model"):
        get_model(name)
    with pytest.raises(DomainError, match="unknown model"):
        reflection_tm(name, 1.0)
    with pytest.raises(DomainError, match="unknown model"):
        reflection_tm_series(name, 1.0)
    with pytest.raises(DomainError, match="unknown model"):
        f_roundtrip_planewave(name, from_invariants(2.0, 0.1), 1)
