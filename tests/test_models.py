import pytest

from casimir_spheres.errors import DomainError
from casimir_spheres.geometry import from_invariants
from casimir_spheres.models import MODELS


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("tol", [0.0, 1.0, 2.0, -1e-3])
def test_registry_total_rejects_tol_outside_unit_interval(name, tol):
    # the series totals tighten tol to 1e-10, which must not hide a bad value
    with pytest.raises(DomainError):
        MODELS[name].total(from_invariants(2.0, 0.1), tol=tol)
