"""Registry of the three models and their universal quantities.

Every model provides the same three things: the total reduced free
energy ``f``, the closed-form single round trip ``f1`` and the
plane-wave reflection kernel the validation oracle integrates.  The
two electromagnetic models also carry the built-in parameters of the
rational approximant.  Code that works for any model looks the model
up here by name instead of branching on it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .drude import f1_dvd, f_dvd_total
from .electrolyte import ValueWithError, f1_ded, f_ded_total
from .errors import DomainError
from .scalar import f_sc_roundtrip, f_sc_total
from .validation import (DIELECTRIC_ELECTROLYTE, DRUDE_VACUUM, SCALAR,
                         ReflectionModel)

__all__ = ["Model", "MODELS", "APPROX_MODELS", "get_model"]


@dataclass(frozen=True)
class Model:
    """One model's entry points.

    ``total(red, tol) -> ValueWithError`` keeps the default ``tol`` of
    the underlying function, ``f1(red)`` is the single round trip and
    ``reflection`` the oracle's kernel.  ``approx`` holds the built-in
    ``(nu, mu)`` of the rational approximant, or ``None`` when the model
    has none.
    """

    total: Callable[..., ValueWithError]
    f1: Callable[..., float]
    reflection: ReflectionModel
    approx: tuple | None = None


def _series_total(fn):
    """Adapt an exactly summed series to the ``total`` signature (error 0).

    The series are cheap, so they are always summed to 1e-10 or tighter;
    a ``tol`` outside (0, 1) is rejected first, as ``f_ded_total`` does.
    """
    def total(red, tol=1e-12):
        if not 0.0 < tol < 1.0:
            raise DomainError(f"tolerance must lie in (0, 1), got {tol}")
        return ValueWithError(fn(red, min(tol, 1e-10)), 0.0)
    return total


MODELS = {
    "scalar": Model(_series_total(f_sc_total), partial(f_sc_roundtrip, r=1), SCALAR),
    "dvd": Model(_series_total(f_dvd_total), f1_dvd, DRUDE_VACUUM,
                 approx=((0.011495, 0.19868), (0.011359, 0.16728))),
    "ded": Model(f_ded_total, f1_ded, DIELECTRIC_ELECTROLYTE,
                 approx=((0.004618, 0.09639), (0.004415, 0.08397))),
}

APPROX_MODELS = tuple(name for name, m in MODELS.items() if m.approx is not None)


def get_model(name: str) -> Model:
    """Registry entry of ``name``; raises :class:`DomainError` if unknown."""
    try:
        return MODELS[name]
    except (KeyError, TypeError):
        raise DomainError(f"unknown model {name!r}; choose from {tuple(MODELS)}") from None
