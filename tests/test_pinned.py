"""Pinned values: refactors must reproduce every number bit for bit.

Each case below evaluates a public entry point on a small, cheap set of
inputs and compares the results with ``data/pinned.json`` exactly
(``float.hex`` for numbers, the full text for CSV output).  A change that
moves any value by one ulp fails here; such a change is a change in
accuracy and has to be argued as one.  To see what moved, without
writing anything, run

    PYTHONPATH=src python tests/test_pinned.py --diff

which prints per case "identical", the largest relative change of its
numbers, or the changed CSV lines.  Then re-record the data file by

    PYTHONPATH=src python tests/test_pinned.py --record
"""
from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from casimir_spheres import (capacitance_coeffs, f_dvd_total, f_ded_total,
                             f_sc_total, from_invariants, phi_u)
from casimir_spheres.cli import main as cli_main
from casimir_spheres.validation import f_roundtrip_planewave

HERE = Path(__file__).resolve().parent
DATA = HERE / "data" / "pinned.json"

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
    points = [(1.0, 0.1), (2.0, 0.1), (3.0, 0.0), (10.0, 0.04), (2.0, 0.25)]
    return _hex(phi_u(from_invariants(1.0 + dy, u), "ded") for dy, u in points)


def _planewave():
    out = []
    for model in ("scalar", "dvd", "ded"):
        for y, u in ((2.0, 0.1), (1.5, 0.25), (5.0, 0.0), (2.0, 0.0)):
            # two spheres at r = 2 are out of the oracle's reach
            for r in (1, 2) if u == 0.0 else (1,):
                res = f_roundtrip_planewave(model, from_invariants(y, u), r, nodes=16)
                out += _hex((res.value, res.error))
    return out


def _ded_total():
    out = []
    for dy, u in ((0.03, 0.25), (0.03, 0.1), (2.0, 0.1)):
        res = f_ded_total(from_invariants(1.0 + dy, u))
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


def test_ded_sums_independent_of_blas_thread_count():
    # the pins are recorded at one BLAS thread count and checked at others
    # (the benchmark runs at one, CI runners have several), so the ded sums
    # must not depend on how BLAS splits a reduction among its threads
    src = str(HERE.parent / "src")
    code = f"import sys; sys.path[:0] = [{src!r}, {str(HERE)!r}]; import test_pinned; " \
           "print(test_pinned._ded_total())"
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=600)
        out.append(proc.stdout)
    assert out[0] == out[1]


def _diff(old, new):
    """One case's change against the pinned data, as printable text."""
    if old == new:
        return "identical"
    if old is None:
        return "not pinned"
    if isinstance(new, str):
        return "\n".join(difflib.unified_diff(old.splitlines(), new.splitlines(),
                                                "pinned", "now", n=0, lineterm=""))
    if len(old) != len(new):
        return f"{len(old)} values pinned, {len(new)} now"
    rel = max(abs(float.fromhex(b) / float.fromhex(a) - 1.0) if float.fromhex(a) else
              abs(float.fromhex(b)) for a, b in zip(old, new))
    return f"largest relative change {rel:.3e}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        DATA.parent.mkdir(exist_ok=True)
        DATA.write_text(json.dumps({k: CASES[k]() for k in sorted(CASES)}, indent=1) + "\n",
                        encoding="utf-8")
        print(f"wrote {len(CASES)} cases to {DATA}")
    elif sys.argv[1:] == ["--diff"]:
        old_data = json.loads(DATA.read_text(encoding="utf-8"))
        for k in sorted(CASES):
            print(f"{k}: {_diff(old_data.get(k), CASES[k]())}")
    else:
        raise SystemExit("usage: test_pinned.py --record | --diff")
