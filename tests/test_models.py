import pytest

from casimir_spheres.errors import ConvergenceError, DomainError
from casimir_spheres.geometry import from_invariants
from casimir_spheres.models import MODELS


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("tol", [0.0, 1.0, 2.0, -1e-3])
def test_registry_total_rejects_tol_outside_unit_interval(name, tol):
    # the series totals tighten tol to 1e-10, which must not hide a bad value
    with pytest.raises(DomainError):
        MODELS[name].total(from_invariants(2.0, 0.1), tol=tol)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_registry_totals_reject_tol_outside_unit_interval(name):
    with pytest.raises(DomainError):
        MODELS[name].totals([(2.0, 0.0), (3.0, 0.1)], tol=0.0)


@pytest.mark.parametrize("name", ["scalar", "dvd"])
def test_series_totals_equal_their_point_totals(name):
    model = MODELS[name]
    us = (0.0, 0.016, 0.04, 0.1, 0.25)
    points = [(y, u) for y in (1.01, 2.0, 101.0) for u in us]
    assert model.totals(points) == [model.total(from_invariants(y, u)) for y, u in points]


def test_series_totals_keep_a_failed_point_to_itself():
    # far out the dvd total has cancelled to a negative number at u = 1/4
    failed, res = MODELS["dvd"].totals([(1e10, 0.25), (1e10, 0.1)])
    assert isinstance(failed, ConvergenceError) and "not positive" in str(failed)
    assert res == MODELS["dvd"].total(from_invariants(1e10, 0.1))
