import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_spheres.cli import build_parser
from casimir_spheres.errors import DomainError
from casimir_spheres.geometry import from_invariants
from casimir_spheres.models import MODELS
from casimir_spheres.rational import (DED_PARAMS, DVD_PARAMS, FitResult,
                                      RationalModelParams, builtin_params,
                                      default_fit_grid, f_approx,
                                      max_deviation, phi_rm, phi_u, refit)
from casimir_spheres.scalar import ZETA3


def test_params_validation():
    assert RationalModelParams(nu=(1.0, 2.0), mu=(3.0, 4.0), model_tag="ded").n == 2
    with pytest.raises(DomainError):
        RationalModelParams(nu=(), mu=(), model_tag="dvd")
    with pytest.raises(DomainError):
        RationalModelParams(nu=(1.0,), mu=(-1.0,), model_tag="dvd")
    with pytest.raises(DomainError):
        RationalModelParams(nu=(1.0,), mu=(1.0, 2.0), model_tag="ded")


def test_builtin_contact_values():
    # products of nu/mu land at Apery's constant, the contact limit
    assert DVD_PARAMS.contact_value == pytest.approx(
        (0.011495 / 0.011359) * (0.19868 / 0.16728), rel=1e-12)
    assert DVD_PARAMS.contact_value == pytest.approx(1.2019, abs=2e-4)
    assert DED_PARAMS.contact_value == pytest.approx(
        (0.004618 / 0.004415) * (0.09639 / 0.08397), rel=1e-12)
    assert DED_PARAMS.contact_value == pytest.approx(1.2007, abs=2e-4)
    for params in (DVD_PARAMS, DED_PARAMS):
        assert params.contact_value == pytest.approx(ZETA3, abs=2e-3)


def test_phi_rm_limits():
    assert phi_rm(1.0, DVD_PARAMS) == pytest.approx(DVD_PARAMS.contact_value, rel=1e-14)
    assert phi_rm(1e4, DVD_PARAMS) == 1.0
    assert phi_rm(50.0, DED_PARAMS) == pytest.approx(1.0, abs=1e-12)


@given(
    nu=st.tuples(*[st.floats(min_value=1e-4, max_value=10.0)] * 2),
    mu=st.tuples(*[st.floats(min_value=1e-4, max_value=10.0)] * 2),
    y=st.floats(min_value=1.0, max_value=500.0),
)
@settings(max_examples=100)
def test_phi_rm_positive_continuous(nu, mu, y):
    params = RationalModelParams(nu=nu, mu=mu, model_tag="ded")
    val = phi_rm(y, params)
    assert val > 0.0
    assert math.isfinite(val)
    # a scalar y runs the product on floats, with the array path's bits
    assert type(val) is float
    assert val.hex() == float(phi_rm(np.array([y]), params)[0]).hex()


def test_phi_u_endpoints():
    # far: single round trip dominates
    assert phi_u(from_invariants(1e3, 0.25), "dvd") == pytest.approx(1.0, abs=1e-3)
    assert phi_u(from_invariants(1e3, 0.25), "ded") == pytest.approx(1.0, abs=1e-3)
    # close: the ratio climbs towards Apery's constant
    assert phi_u(from_invariants(1.001, 0.25), "dvd") == pytest.approx(ZETA3, rel=2e-2)


def test_phi_u_monotone_for_dvd():
    ys = 1.0 + np.logspace(-2, 2, 12)
    vals = [phi_u(from_invariants(float(y), 0.1), "dvd") for y in ys]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(1.0 < v <= ZETA3 + 1e-2 for v in vals)


def test_max_deviation_degenerate_self_test():
    # comparing phi_rm against itself gives exactly zero
    grid = [(2.0, 0.1), (3.0, 0.25)]
    vals = {(y, u): phi_rm(y, DED_PARAMS) for (y, u) in grid}

    class Exact:
        pass

    # feed phi_u values equal to the model by monkeypatching is heavier
    # than needed: evaluate the deviation definition directly instead
    worst = max(abs(vals[(y, u)] / phi_rm(y, DED_PARAMS) - 1.0) for (y, u) in grid)
    assert worst == 0.0


def test_max_deviation_small_on_modest_grid():
    grid = [(y, u) for y in (1.5, 2.0, 4.0) for u in (0.1, 0.25)]
    dev = max_deviation(DED_PARAMS, "ded", grid)
    assert dev < 2e-3
    dev_dvd = max_deviation(DVD_PARAMS, "dvd", grid)
    assert dev_dvd < 9e-3


def test_max_deviation_empty_grid():
    with pytest.raises(DomainError):
        max_deviation(DED_PARAMS, "ded", [])


def test_refit_dvd_beats_builtin_locally_and_n1_is_worse():
    grid = default_fit_grid(points=60)
    fit2 = refit("dvd", u_ref=0.1, n=2, grid=grid)
    assert fit2.epsilon < 6e-3
    fit1 = refit("dvd", u_ref=0.1, n=1, grid=grid)
    assert fit1.epsilon > fit2.epsilon  # nested model classes


def test_refit_reproducible_epsilon():
    grid = default_fit_grid(points=60)
    a = refit("dvd", u_ref=0.1, n=2, grid=grid, seed=1)
    b = refit("dvd", u_ref=0.1, n=2, grid=grid, seed=2)
    # parameters may differ (weak identifiability); epsilon must agree
    assert a.epsilon == pytest.approx(b.epsilon, rel=0.1)


def test_refit_validates_inputs():
    with pytest.raises(DomainError):
        refit("scalar", 0.1)
    with pytest.raises(DomainError):
        refit("dvd", 0.1, n=0)
    with pytest.raises(DomainError):
        refit("dvd", 0.1, grid=np.array([0.5, 2.0]))


def test_f_approx_matches_total_within_epsilon():
    red = from_invariants(2.0, 0.1)
    from casimir_spheres.electrolyte import f_ded_total
    from casimir_spheres.drude import f_dvd_total
    assert f_approx(red, "ded") == pytest.approx(
        f_ded_total(red).value, rel=2e-3)
    assert f_approx(red, "dvd") == pytest.approx(f_dvd_total(red), rel=9e-3)
    # large y: phi_rm -> 1 so the approximant collapses onto f1
    red_far = from_invariants(200.0, 0.1)
    from casimir_spheres.electrolyte import f1_ded
    assert f_approx(red_far, "ded") == pytest.approx(f1_ded(red_far), rel=1e-3)


def test_fit_result_json_roundtrip(tmp_path):
    fit = FitResult(params=DED_PARAMS, epsilon=1.2e-3,
                    grid_spec={"u_ref": 0.15, "points": 100}, seed=3)
    text = fit.to_json()
    doc = json.loads(text)
    assert set(doc) == {"model", "n", "nu", "mu", "epsilon", "grid_spec", "seed"}
    back = FitResult.from_json(text)
    assert back.params == DED_PARAMS
    assert back.epsilon == fit.epsilon
    assert back.grid_spec == fit.grid_spec
    assert back.seed == 3


def test_builtin_params_lookup():
    assert builtin_params("dvd") is DVD_PARAMS
    assert builtin_params("ded") is DED_PARAMS
    with pytest.raises(DomainError):
        builtin_params("scalar")
    with pytest.raises(DomainError):
        f_approx(from_invariants(2.0, 0.1), "scalar", DVD_PARAMS)
    # built-in parameters, registry approximants and fit choices name the same models
    with_approx = {name for name, m in MODELS.items() if m.approx is not None}
    assert with_approx
    for name in with_approx:
        assert builtin_params(name).model_tag == name
    for name in set(MODELS) - with_approx:
        with pytest.raises(DomainError):
            builtin_params(name)

    def fit_accepts(name):
        try:
            build_parser().parse_args(["fit", "--model", name])
        except SystemExit:
            return False
        return True

    assert {name for name in MODELS if fit_accepts(name)} == with_approx
