"""Across the whole valid domain every entry point returns or raises a CasimirError.

y - 1 runs log-uniformly over [1e-8, 1.7e308] and u over {0} and
[1e-300, 1/4]; radii and gaps over [1e-300, 1e300].  Whether the returned
values are right is not checked here; that the model registry's and
phi_u's are finite and positive is.
"""
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir_spheres import (CasimirError, SphereGeometry, capacitance_coeffs,
                             f1_ded, f1_dvd, f_approx, f_ded_dipole,
                             f_dvd_dipole, f_dvd_total, f_sc_total,
                             from_invariants, phi_u, reduce)
from casimir_spheres.models import MODELS


def _log_uniform(lo, hi):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(
        lambda e: min(max(10.0 ** e, lo), hi))


dys = _log_uniform(1e-8, 1.7e308)
us = st.one_of(st.just(0.0), _log_uniform(1e-300, 0.25))
lengths = _log_uniform(1e-300, 1e300)

CALLS = (f_sc_total, f_dvd_total, f1_dvd, f1_ded, capacitance_coeffs, f_dvd_dipole,
         f_ded_dipole, lambda red: f_approx(red, "dvd"), lambda red: f_approx(red, "ded"))


def _returns_or_raises_typed(fn, *args):
    try:
        fn(*args)
    except CasimirError:
        pass


@given(dy=dys, u=us)
@example(dy=1.0, u=1e-300)  # f1_ded: (2y + alpha)^2 overflowed
@example(dy=1.0, u=1e-310)  # alpha1 overflowed, and f1_ded divided by alpha2 = 0
@example(dy=1.0, u=1.7782794100389226e-154)  # f1_ded: N (N + sqrt(alpha z)) overflowed
@example(dy=1.7e308, u=0.25)  # capacitance: e^varpi overflowed; dipoles: y**3 overflowed
@settings(max_examples=300, deadline=None)
def test_invariant_entry_points_raise_only_typed_errors(dy, u):
    try:
        red = from_invariants(1.0 + dy, u)
    except CasimirError:
        return
    for fn in CALLS:
        _returns_or_raises_typed(fn, red)


@given(L=lengths, R1=lengths, R2=lengths)
@example(L=1.0, R1=1e200, R2=1e200)  # (R1 + R2)**2 overflowed
@example(L=1.0, R1=1e-200, R2=1e-200)  # R1 R2 underflowed to 0
@settings(max_examples=300, deadline=None)
def test_reduce_raises_only_typed_errors(L, R1, R2):
    _returns_or_raises_typed(lambda: reduce(SphereGeometry(L=L, R1=R1, R2=R2)))


def _positive_or_typed(fn, *args):
    try:
        value = fn(*args)
    except CasimirError:
        return
    value = getattr(value, "value", value)
    assert math.isfinite(value) and value > 0.0, (args, value)


@given(dy=dys, u=us)
@example(dy=1e12, u=0.1)  # phi_u divided by f1_dvd = 0
@settings(max_examples=300, deadline=None)
def test_registry_and_phi_u_return_positive_values_or_typed_errors(dy, u):
    try:
        red = from_invariants(1.0 + dy, u)
    except CasimirError:
        return
    for name, model in MODELS.items():
        _positive_or_typed(model.f1, red)
        if name == "ded" and dy < 1e-2:
            continue  # cost only: the ded total takes 0.8 s at y - 1 = 1e-4 and 100 s at 1e-6
        _positive_or_typed(model.total, red)
        _positive_or_typed(phi_u, red, name)
