"""Exact ded values: a committed table and an independent multipole oracle.

``data/ded_exact.json`` holds f = -1/2 sum_m (2 - delta_m0) log det(1 - M_m)
of the banded bispherical determinant at about a dozen (y, u), each taken
one truncation past the one ``f_ded_total`` stops at (2.25 N0 rows, with
the closure), together with the determinant's own single round trip
f1 = 1/2 sum_m (2 - delta_m0) tr M_m and the relative change of f between
the truncations.  Re-record it by

    PYTHONPATH=src python tests/test_ded_exact.py --record

The oracle works in the spherical-multipole basis instead: per m,
M_m = A V A V^T with the sphere amplitudes A_l of a registry model
(``MODELS[name].amplitude``: 1 for the Dirichlet scalar, -l/(l+1) for
ded, whose sign cancels in M_m) and the translation matrix
V_ll' = (l+l')! / sqrt((l+m)!(l-m)!(l'+m)!(l'-m)!)
        sqrt(alpha1)^(l+1/2) sqrt(alpha2)^(l'+1/2) / sqrt(z)^(l+l'+1),
summed by power traces.  It needs l_max of the order of the larger
radius over the gap, so it checks the table only at y - 1 >= 0.5.
"""
from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from casimir_spheres import electrolyte
from casimir_spheres.electrolyte import f1_ded, f_ded_total
from casimir_spheres.geometry import from_invariants
from casimir_spheres.models import MODELS
from casimir_spheres.scalar import f_sc_total

DATA = Path(__file__).resolve().parent / "data" / "ded_exact.json"

POINTS = [(1e-5, 0.1), (1e-4, 0.25), (1e-3, 0.0), (1e-3, 0.25), (1e-2, 0.016), (0.1, 0.1),
          (0.5, 0.25), (1.0, 0.1), (10.0, 0.016), (10.0, 0.0), (100.0, 0.1), (1000.0, 0.25)]
# l_max at which the oracle has converged to 1e-13 at the table's points with u > 0
ORACLE_LMAX = {(0.5, 0.25): 80, (1.0, 0.1): 160, (10.0, 0.016): 130, (100.0, 0.1): 20,
               (1000.0, 0.25): 20}


def _round_trip_matrices(model, red, lmax):
    """M_m = A V A V^T of the registry's ``model`` for m = 0..lmax, with
    underflowing entries flushed to 0."""
    amp = np.array([MODELS[model].amplitude(ell) for ell in range(lmax + 1)])
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(2 * lmax + 1)])
    for m in range(lmax + 1):
        ell = np.arange(m, lmax + 1)
        half = 0.5 * (log_fact[ell + m] + log_fact[ell - m])
        log_v = (log_fact[ell[:, None] + ell[None, :]] - half[:, None] - half[None, :]
                 + 0.5 * (ell[:, None] + 0.5) * math.log(red.alpha1)
                 + 0.5 * (ell[None, :] + 0.5) * math.log(red.alpha2)
                 - 0.5 * (ell[:, None] + ell[None, :] + 1.0) * math.log(red.z))
        v = np.exp(log_v)
        v[v < 1e-250] = 0.0  # subnormal products cost 100 times a normal one
        a = amp[m:]
        yield m, (a[:, None] * v * a[None, :]) @ v.T


def multipole_orders(model, red, lmax, r_max):
    """f^(r) = 1/2 sum_m (2 - delta_m0) tr(M_m^r) / r for r = 0..r_max."""
    out = np.zeros(r_max + 1)
    for m, mat in _round_trip_matrices(model, red, lmax):
        power = mat
        for r in range(1, r_max + 1):
            out[r] += (1.0 if m == 0 else 2.0) * 0.5 * np.trace(power) / r
            power = power @ mat
            power[np.abs(power) < 1e-250] = 0.0
    return out


def multipole_total(model, red, lmax):
    """Sum over r of f^(r), each m's power traces summed until they stop mattering."""
    total = 0.0
    for m, mat in _round_trip_matrices(model, red, lmax):
        power, acc = mat, 0.0
        for r in range(1, 10**4):
            term = np.trace(power) / r
            acc += term
            if term <= 1e-17 * acc:
                break
            power = power @ mat
            power[np.abs(power) < 1e-250] = 0.0
        total += (1.0 if m == 0 else 2.0) * 0.5 * acc
    return total


def _record():
    rows = []
    for dy, u in POINTS:
        red = from_invariants(1.0 + dy, u)
        n0, n1 = electrolyte._row_counts(red)
        trunc = electrolyte._checkpoints([red], [1.0, 1j * electrolyte._STEP],
                                         (n0, n1, math.ceil(1.5 * n1)))
        f = [-0.5 * log_det[0, 0].real for _, log_det, _ in trunc]
        rows.append({"y_minus_1": dy, "u": u, "rows": trunc[2][0], "f": f[2],
                     "f1": -0.5 * trunc[2][1][0, 1].imag / electrolyte._STEP,
                     "change": max(abs(f[1] - f[0]), abs(f[2] - f[1])) / f[2]})
    DATA.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    return rows


@pytest.fixture(scope="module")
def table():
    return {(row["y_minus_1"], row["u"]): row
            for row in json.loads(DATA.read_text(encoding="utf-8"))}


def test_table_truncation_converged(table):
    # the change between successive truncations, 1.5 times apart
    assert max(row["change"] for row in table.values()) <= 1e-12


@pytest.mark.parametrize("point", POINTS, ids=lambda p: f"{p[0]:g}-{p[1]:g}")
def test_total_matches_table(table, point):
    row = table[point]
    red = from_invariants(1.0 + point[0], point[1])
    got = f_ded_total(red)
    # f1_ded plus the remainder of the determinant; the remainder is exact
    rest = got.value - f1_ded(red)
    assert rest == pytest.approx(row["f"] - row["f1"], rel=1e-10, abs=1e-12 * row["f"])
    assert abs(got.value - row["f"]) <= got.error
    # the stated error holds and is small: at most the closed form's rounding
    assert got.error <= max(1e-11 * row["f"], 2.0 * abs(f1_ded(red) - row["f1"]))


@pytest.mark.parametrize("point", sorted(ORACLE_LMAX), ids=lambda p: f"{p[0]:g}-{p[1]:g}")
def test_table_matches_multipole_oracle(table, point):
    red = from_invariants(1.0 + point[0], point[1])
    want = multipole_total("ded", red, ORACLE_LMAX[point])
    assert table[point]["f"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("point", [(0.5, 0.25), (1.0, 0.1)], ids=str)
def test_multipole_oracle_reproduces_scalar_total(point):
    red = from_invariants(1.0 + point[0], point[1])
    got = multipole_total("scalar", red, ORACLE_LMAX[point])
    assert got == pytest.approx(f_sc_total(red, tol=1e-15), rel=1e-12)


def test_table_orders_positive():
    # f^(r) > 0 for r <= 10 at every table point with y - 1 >= 1e-3; the two
    # closest points are left out for cost (3,000 to 10,000 rows at 17 points z)
    for dy, u in POINTS:
        if dy < 1e-3:
            continue
        coeff, err = electrolyte._orders(from_invariants(1.0 + dy, u))
        assert (coeff[1:11] > 0.0).all() and (err[1:11] < 1e-3 * coeff[1:11]).all(), (dy, u)


def test_tiny_u_fast_and_converged():
    # the closure carries the rows of the large sphere, whose mu is 1.7e-6
    red = from_invariants(2.0, 1e-6)
    t0 = time.perf_counter()
    log_det, change, _ = electrolyte._converged([red], [1.0], 1e-4)[0]
    got = f_ded_total(red)
    assert time.perf_counter() - t0 < 1.0
    assert change[0] <= 1e-12 * abs(log_det[0])
    assert got.value == pytest.approx(-0.5 * log_det[0].real, rel=1e-8)


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        for row in _record():
            print(row)
    else:
        raise SystemExit("usage: test_ded_exact.py --record")
