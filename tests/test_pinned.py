"""Pinned values: refactors must reproduce every number bit for bit.

Each case below evaluates a public entry point on a small, cheap set of
inputs and compares the results with ``data/pinned.json`` exactly
(``float.hex`` for numbers, the full text for CSV output).  A change that
moves any value by one ulp fails here; such a change is a change in
accuracy and has to be argued as one, with the data file re-recorded by

    PYTHONPATH=src python tests/test_pinned.py --record
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from casimir_spheres import (QuadratureSettings, capacitance_coeffs,
                             f_dvd_total, f_ded_total, f_sc_total,
                             from_invariants, phi_u)
from casimir_spheres.cli import main as cli_main
from casimir_spheres.validation import (DIELECTRIC_ELECTROLYTE, DRUDE_VACUUM,
                                        SCALAR, f_roundtrip_planewave)

DATA = Path(__file__).resolve().parent / "data" / "pinned.json"

CHEAP = QuadratureSettings(nodes_per_dim=12, qmc_points=2**12)
SERIES_DY = [float(v) for v in np.logspace(-5.0, 4.0, 19)]
SERIES_U = (0.0, 0.04, 0.25)
CURVE_GRID = ["--u", "0,0.1,0.25", "--ymin", "1", "--ymax", "4", "--points", "2"]


def _hex(values):
    return [float(v).hex() for v in values]


def _sc_total(tol):
    return _hex(f_sc_total(from_invariants(1.0 + dy, 0.1), tol=tol) for dy in SERIES_DY)


def _dvd_total():
    return _hex(f_dvd_total(from_invariants(1.0 + dy, u)) for u in SERIES_U for dy in SERIES_DY)


def _capacitance():
    out = []
    for dy in (1e-5, 1e-4, 1e-3):
        for u in (0.0, 0.1, 0.25):
            cap = capacitance_coeffs(from_invariants(1.0 + dy, u))
            out += _hex((cap.c11, cap.c22, cap.c12, cap.det, cap.det_minus_one))
    return out


def _phi_dvd():
    return _hex(phi_u(from_invariants(1.0 + dy, u), "dvd") for u in SERIES_U for dy in SERIES_DY)


def _phi_ded():
    points = [(1.0, 0.1, None), (2.0, 0.1, CHEAP), (3.0, 0.0, CHEAP),
              (10.0, 0.04, CHEAP), (2.0, 0.25, None)]
    return _hex(phi_u(from_invariants(1.0 + dy, u), "ded", st) for dy, u, st in points)


def _planewave():
    out = []
    for model in (SCALAR, DRUDE_VACUUM, DIELECTRIC_ELECTROLYTE):
        for y, u in ((2.0, 0.1), (1.5, 0.25), (5.0, 0.0), (2.0, 0.0)):
            for r in (1, 2):
                res = f_roundtrip_planewave(model, from_invariants(y, u), r,
                                            nodes=16, qmc_points=2**12, seed=3)
                out += _hex((res.value, res.error))
    return out


def _ded_total():
    # near contact the tail follows the plane-case profile; evaluating
    # r_max = 3 before r_max = 2 at the same y makes the second call
    # reuse plane orders the first one integrated
    out = []
    for dy, u, r_max in ((0.03, 0.25, 3), (0.03, 0.1, 2), (2.0, 0.1, 5)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = f_ded_total(from_invariants(1.0 + dy, u), r_max=r_max, settings=CHEAP)
        out += _hex((res.value, res.error))
    return out


def _curve(quantity, model="all"):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli_main(["curve", "--model", model, "--quantity", quantity,
                         *CURVE_GRID, "--out", "-"])
    assert code == 0
    return buf.getvalue()


CASES = {
    "f_sc_total_tol1e-12": lambda: _sc_total(1e-12),
    "f_sc_total_tol1e-10": lambda: _sc_total(1e-10),
    "f_dvd_total": _dvd_total,
    "capacitance_coeffs_contact": _capacitance,
    "phi_u_dvd": _phi_dvd,
    "phi_u_ded": _phi_ded,
    "f_roundtrip_planewave": _planewave,
    "f_ded_total": _ded_total,
    **{f"curve_{q}": (lambda q=q: _curve(q))
       for q in ("f", "f1", "phi", "ratio_u_over_quarter", "phi_over_quarter")},
    "curve_f_approx_dvd": lambda: _curve("f_approx", "dvd"),
    "curve_f_approx_ded": lambda: _curve("f_approx", "ded"),
}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned(name, pinned):
    assert CASES[name]() == pinned[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_pinned.py --record")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({k: CASES[k]() for k in sorted(CASES)}, indent=1) + "\n",
                    encoding="utf-8")
    print(f"wrote {len(CASES)} cases to {DATA}")
