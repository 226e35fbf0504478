import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_spheres.cli import build_parser
from casimir_spheres.errors import ConvergenceError, DomainError, FitError
from casimir_spheres.geometry import from_invariants
from casimir_spheres.models import MODELS
from casimir_spheres.rational import (DVD_PARAMS, FitResult,
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
    # NaN passes a "v <= 0" check, and an infinite parameter makes phi_rm nan or 0
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite and positive"):
            RationalModelParams(nu=(bad,), mu=(1.0,), model_tag="dvd")
        with pytest.raises(DomainError, match="finite and positive"):
            RationalModelParams(nu=(1.0,), mu=(bad,), model_tag="dvd")


def test_builtin_contact_values():
    # products of nu/mu land at Apery's constant, the contact limit
    dvd, ded = builtin_params("dvd"), builtin_params("ded")
    assert dvd.contact_value == pytest.approx(
        (0.011495 / 0.011359) * (0.19868 / 0.16728), rel=1e-12)
    assert dvd.contact_value == pytest.approx(1.2019, abs=2e-4)
    assert ded.contact_value == pytest.approx(
        (0.004618 / 0.004415) * (0.09639 / 0.08397), rel=1e-12)
    assert ded.contact_value == pytest.approx(1.2007, abs=2e-4)
    for params in (dvd, ded):
        assert params.contact_value == pytest.approx(ZETA3, abs=2e-3)


def test_phi_rm_limits():
    dvd = builtin_params("dvd")
    assert phi_rm(1.0, dvd) == pytest.approx(dvd.contact_value, rel=1e-14)
    assert phi_rm(1e4, dvd) == 1.0
    assert phi_rm(50.0, builtin_params("ded")) == pytest.approx(1.0, abs=1e-12)


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
    params = builtin_params("ded")
    vals = {(y, u): phi_rm(y, params) for (y, u) in grid}

    class Exact:
        pass

    # feed phi_u values equal to the model by monkeypatching is heavier
    # than needed: evaluate the deviation definition directly instead
    worst = max(abs(vals[(y, u)] / phi_rm(y, params) - 1.0) for (y, u) in grid)
    assert worst == 0.0


def test_max_deviation_small_on_modest_grid():
    grid = [(y, u) for y in (1.5, 2.0, 4.0) for u in (0.1, 0.25)]
    dev = max_deviation(builtin_params("ded"), "ded", grid)
    assert dev < 2e-3
    dev_dvd = max_deviation(builtin_params("dvd"), "dvd", grid)
    assert dev_dvd < 9e-3


def test_max_deviation_empty_grid():
    with pytest.raises(DomainError):
        max_deviation(builtin_params("ded"), "ded", [])


def test_refit_dvd_beats_builtin_locally_and_n1_is_worse():
    grid = default_fit_grid(points=60)
    fit2 = refit("dvd", u_ref=0.1, n=2, grid=grid)
    assert fit2.epsilon < 6e-3
    fit1 = refit("dvd", u_ref=0.1, n=1, grid=grid)
    assert fit1.epsilon > fit2.epsilon  # nested model classes


def test_refit_epsilon_is_max_deviation_on_its_grid():
    # one definition of the deviation, |phi_u/phi_rm - 1|, for both
    grid = default_fit_grid(points=60)
    fit = refit("dvd", u_ref=0.1, n=2, grid=grid)
    assert fit.epsilon == max_deviation(fit.params, "dvd", [(y, 0.1) for y in grid])


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
    # 4 targets for 2n = 4 unknowns: the fit is underdetermined
    with pytest.raises(DomainError):
        refit("dvd", 0.1, n=2, grid=default_fit_grid(4))


@pytest.mark.parametrize("model, bound", [("dvd", 2e-3), ("ded", 4e-3)])
def test_seeded_refit_reaches_the_optimum(model, bound):
    # from seed 1's start the first step lands near log-parameters -25, where a
    # finite-difference Jacobian is exactly 0: least_squares stopped there, at
    # epsilon 0.18 (dvd) and 0.15 (ded)
    grid = default_fit_grid(60)
    seeded = refit(model, 0.1, n=1, grid=grid, seed=1)
    assert seeded.epsilon < bound
    assert seeded.epsilon == pytest.approx(refit(model, 0.1, n=1, grid=grid).epsilon, rel=1e-6)


@pytest.mark.parametrize("points, lo, hi", [(10, math.nan, 10.0), (10, 1e-2, math.nan),
                                             (10, 1e-2, math.inf), (10, 0.0, 10.0),
                                             (10, -1.0, 10.0), (10, 5.0, 5.0), (10, 5.0, 1.0),
                                             (1, 1e-2, 10.0)])
def test_default_fit_grid_rejects_bad_bounds(points, lo, hi):
    # a nan bound gave a grid of nan with numpy's RuntimeWarning, an infinite one a grid of inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="fit grid"):
            default_fit_grid(points, lo, hi)


def _has_phi(y, u, model):
    try:
        phi_u(from_invariants(y, u), model)
    except ConvergenceError:
        return False
    return True


def test_refit_rejects_targets_that_are_not_finite_and_positive():
    # far out f1 underflows to 0 and the total changes sign: phi_u raises
    grid = default_fit_grid(20, 1e5, 1e9)
    first = next(y for y in grid if not _has_phi(y, 0.1, "dvd"))
    with pytest.raises(FitError, match=f"at y = {first} "):
        refit("dvd", 0.1, grid=grid)


def _fit_cost(params, grid, target):
    return float(np.sum((phi_rm(grid, params) / target - 1.0) ** 2))


@pytest.mark.parametrize("model, n, seed", [("dvd", 2, 0), ("ded", 2, 0), ("dvd", 3, 2),
                                            ("dvd", 1, 1)])
def test_refit_cost_at_most_scipy_least_squares(model, n, seed):
    from scipy.optimize import least_squares
    grid = default_fit_grid(200)
    target = np.array([phi_u(from_invariants(y, 0.1), model) for y in grid])
    # refit's start: the built-in parameters, or a ladder between them, perturbed by seed
    builtin = builtin_params(model)
    if builtin.n == n:
        start = np.log(np.array(builtin.nu + builtin.mu))
    else:
        ladder = np.geomspace(builtin.nu[0], builtin.nu[-1], n)
        start = np.log(np.concatenate([ladder, ladder * 0.9]))
    if seed:
        start = start + np.random.default_rng(seed).uniform(-0.2, 0.2, size=start.size)

    def params(p):
        return RationalModelParams(tuple(np.exp(p[:n])), tuple(np.exp(p[n:])), model)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = least_squares(lambda p: phi_rm(grid, params(p)) / target - 1.0, start,
                            method="lm", xtol=1e-14, ftol=1e-14)
    ref_cost = _fit_cost(params(ref.x), grid, target)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cost = _fit_cost(refit(model, 0.1, n=n, grid=grid, seed=seed).params, grid, target)
    assert cost <= ref_cost * (1.0 + 1e-9)
    if n == 1:
        # least_squares stops after its first step here (test_seeded_refit_reaches_the_optimum)
        assert cost < ref_cost


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
    fit = FitResult(params=builtin_params("ded"), epsilon=1.2e-3,
                    grid_spec={"u_ref": 0.15, "points": 100}, seed=3)
    text = fit.to_json()
    doc = json.loads(text)
    assert set(doc) == {"model", "n", "nu", "mu", "epsilon", "grid_spec", "seed"}
    back = FitResult.from_json(text)
    assert back.params == builtin_params("ded")
    assert back.epsilon == fit.epsilon
    assert back.grid_spec == fit.grid_spec
    assert back.seed == 3


_GOOD = {"model": "dvd", "n": 1, "nu": [1.0], "mu": [2.0]}


@pytest.mark.parametrize("text", [
    "{}", "[]", "not json", b"\xff\xfe\x00", "null",
    json.dumps({k: v for k, v in _GOOD.items() if k != "n"}),
    json.dumps({**_GOOD, "nu": 1}),
    json.dumps({**_GOOD, "nu": ["x"]}),
    json.dumps({**_GOOD, "n": "one"}),
    '{"model": "dvd", "n": Infinity, "nu": [1.0], "mu": [2.0]}',
    json.dumps({**_GOOD, "nu": [10 ** 400]}),
    json.dumps({**_GOOD, "grid_spec": 5}),
    '{"model": "dvd", "n": 1, "nu": [NaN], "mu": [Infinity]}',
    '{"model": "dvd", "n": 1, "nu": [1.0], "mu": [NaN]}',
    '{"model": "dvd", "n": 1, "nu": [Infinity], "mu": [2.0]}',
], ids=["empty", "list", "not-json", "not-utf8", "null", "no-n", "nu-int", "nu-str", "n-str",
        "n-inf", "nu-overflow", "grid-spec-int", "nu-nan-mu-inf", "mu-nan", "nu-inf"])
def test_fit_result_from_json_rejects_malformed_documents(text):
    assert FitResult.from_json(json.dumps(_GOOD)).params.n == 1
    with pytest.raises(DomainError):
        FitResult.from_json(text)


def test_builtin_params_lookup():
    assert builtin_params("dvd") is DVD_PARAMS
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
