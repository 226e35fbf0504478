"""Registry of the three models and their universal quantities.

The models differ only in each sphere's zero-frequency TM reflection:
Dirichlet (scalar), Dirichlet without its monopole (dvd) and the Neumann
amplitude -l/(l+1) (ded).  Each entry holds the total ``f``, the
closed-form single round trip ``f1`` and that reflection as data, which
the plane-wave oracle integrates; the two electromagnetic models also
carry the built-in parameters of the rational approximant.  Code that
works for any model looks it up here by name instead of branching on
it.  A total or ``f1`` read through it is positive or raises
:class:`ConvergenceError`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .drude import f1_dvd, f_dvd_total
from .electrolyte import ValueWithError, f1_ded, f_ded_totals
from .errors import ConvergenceError, DomainError
from .geometry import from_invariants
from .scalar import f_sc_roundtrip, f_sc_total

__all__ = ["Model", "MODELS", "APPROX_MODELS", "get_model"]


@dataclass(frozen=True)
class Model:
    """One model's entry points and reflection kernel.

    ``raw_totals(reds, tol) -> list`` sums points of any y and returns
    each one's ``ValueWithError`` or :class:`ConvergenceError`; ``raw_f1(red)``
    is the library's closed form.  :meth:`total`, :meth:`totals` and
    :meth:`f1` return their values where they are positive and raise
    :class:`ConvergenceError` elsewhere: there the terms have cancelled
    (very large y) and left no digit, so no quantity read through them,
    phi = f/f1 above all, has a value.
    ``kernel(chi)`` is the closed form of the zero-frequency TM reflection
    kernel and ``amplitude(ell)``, ell >= 0, its multipole amplitude A_ell:
    the kernel is sum_ell A_ell chi^(2 ell) / (2 ell)!.  A plane reflects
    with the kernel's sign, that of ``amplitude(1)``.  ``approx`` holds the
    built-in ``(nu, mu)`` of the rational approximant, or ``None`` when
    the model has none.
    """

    raw_totals: Callable[..., list]
    raw_f1: Callable[..., float]
    kernel: Callable[[np.ndarray], np.ndarray]
    amplitude: Callable[[int], float]
    approx: tuple | None = None

    def total(self, red, **kwargs) -> ValueWithError:
        """The first entry of ``raw_totals([red], **kwargs)``, checked; ``tol``
        keeps its default."""
        return _checked(red, self.raw_totals([red], **kwargs)[0])

    def totals(self, points, **kwargs) -> list:
        """:meth:`total` at each (y, u) of ``points``, one entry per point,
        from one ``raw_totals`` call.

        An entry is the checked ``ValueWithError`` or that point's own
        :class:`ConvergenceError`; a :class:`DomainError` (a bad y, u or
        ``tol``) is raised.  For ded one recursion serves many points.
        """
        reds = [from_invariants(y, u) for y, u in points]
        return [_attempt(_checked, red, res)
                for red, res in zip(reds, self.raw_totals(reds, **kwargs))]

    def f1(self, red) -> float:
        """``raw_f1(red)``, checked."""
        f1 = self.raw_f1(red)
        if not f1 > 0.0:
            raise ConvergenceError(f"f1 = {f1:.6g} at y = {red.y:.6g} is not positive, "
                                   "so phi = f/f1 is meaningless")
        return f1


def _attempt(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or the :class:`ConvergenceError` it raised."""
    try:
        return fn(*args, **kwargs)
    except ConvergenceError as exc:
        return exc


def _checked(red, res) -> ValueWithError:
    """``res``, the total at ``red``, if positive; raises it if it is a
    :class:`ConvergenceError`, and one if it is not positive."""
    if isinstance(res, ConvergenceError):
        raise res
    if not res.value > 0.0:
        raise ConvergenceError(f"f = {res.value:.6g} at y = {red.y:.6g} is not positive")
    return res


def _series_totals(fn):
    """Adapt an exactly summed series to the ``raw_totals`` signature (error 0).

    The series are cheap, so they are always summed to 1e-10 or tighter,
    one point at a time; a ``tol`` outside (0, 1) is rejected first, as
    ``f_ded_totals`` does.
    """
    def totals(reds, tol=1e-12):
        if not 0.0 < tol < 1.0:
            raise DomainError(f"tolerance must lie in (0, 1), got {tol}")
        return [_attempt(lambda red: ValueWithError(fn(red, min(tol, 1e-10)), 0.0), red)
                for red in reds]
    return totals


def _ded_bracket(chi: np.ndarray) -> np.ndarray:
    """cosh x + 2(cosh x - 1)/x^2 - 2 sinh x / x; where that cancels, |x| < 3, its
    series sum_{l=1}^{13} l/(l+1) x^(2l)/(2l)! by Horner's rule, within a few ulp."""
    chi = np.asarray(chi, dtype=float)
    out = np.empty_like(chi)
    small = np.abs(chi) < 3.0
    t, acc = chi[small] ** 2, 0.0
    for ell in range(13, 0, -1):
        acc = acc * t + ell / (ell + 1.0) / math.factorial(2 * ell)
    out[small] = acc * t
    cb = chi[~small]
    out[~small] = np.cosh(cb) + 2.0 * (np.cosh(cb) - 1.0) / cb**2 - 2.0 * np.sinh(cb) / cb
    return out


MODELS = {
    "scalar": Model(_series_totals(f_sc_total), partial(f_sc_roundtrip, r=1),
                    np.cosh, lambda ell: 1.0),
    "dvd": Model(_series_totals(f_dvd_total), f1_dvd,
                 lambda chi: np.cosh(chi) - 1.0, lambda ell: 1.0 if ell else 0.0,
                 approx=((0.011495, 0.19868), (0.011359, 0.16728))),
    # the kernel of this model is negative
    "ded": Model(f_ded_totals, f1_ded,
                 lambda chi: -_ded_bracket(chi), lambda ell: -ell / (ell + 1.0),
                 approx=((0.004618, 0.09639), (0.004415, 0.08397))),
}

APPROX_MODELS = tuple(name for name, m in MODELS.items() if m.approx is not None)


def get_model(name: str) -> Model:
    """Registry entry of ``name``; raises :class:`DomainError` if unknown."""
    try:
        return MODELS[name]
    except (KeyError, TypeError):
        raise DomainError(f"unknown model {name!r}; choose from {tuple(MODELS)}") from None
