"""Registry of the three models and their universal quantities.

Every model provides the same three things: the total reduced free
energy ``f``, the closed-form single round trip ``f1`` and the
plane-wave reflection kernel the validation oracle integrates.  Code
that works for any model looks the model up here by name instead of
branching on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .drude import f1_dvd, f_dvd_total
from .electrolyte import ValueWithError, f1_ded, f_ded_total
from .errors import DomainError
from .scalar import f_sc_roundtrip, f_sc_total
from .validation import (DIELECTRIC_ELECTROLYTE, DRUDE_VACUUM, SCALAR,
                         ReflectionModel)

__all__ = ["Model", "MODELS", "get_model"]


@dataclass(frozen=True)
class Model:
    """One model's entry points.

    ``total(red, tol, r_max, settings) -> ValueWithError`` keeps the
    defaults of the underlying function, ``f1(red)`` is the single round
    trip and ``reflection`` the oracle's kernel.  ``tol_cap`` caps the
    tolerance the CLI passes to ``total``: the exact series are cheap, so
    they are always summed to 1e-10 or tighter.
    """

    total: Callable[..., ValueWithError]
    f1: Callable[..., float]
    reflection: ReflectionModel
    tol_cap: float = math.inf


def _series_total(fn):
    """Adapt an exactly summed series to the ``total`` signature (error 0)."""
    def total(red, tol=1e-12, r_max=5, settings=None):
        return ValueWithError(fn(red, tol), 0.0)
    return total


MODELS = {
    "scalar": Model(_series_total(f_sc_total), partial(f_sc_roundtrip, r=1), SCALAR, 1e-10),
    "dvd": Model(_series_total(f_dvd_total), f1_dvd, DRUDE_VACUUM, 1e-10),
    "ded": Model(f_ded_total, f1_ded, DIELECTRIC_ELECTROLYTE),
}


def get_model(name: str) -> Model:
    """Registry entry of ``name``; raises :class:`DomainError` if unknown."""
    try:
        return MODELS[name]
    except (KeyError, TypeError):
        raise DomainError(f"unknown model {name!r}; choose from {tuple(MODELS)}") from None
