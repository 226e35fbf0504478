"""Record the reference values that the benchmark's checks compare against.

Evaluates the ded_contact points and the curve_ratio rows with default
settings at quadrature seed ``REF_QUAD_SEED`` and writes each value with
its stated error to ``reference.json``.  The file in the repository was
recorded on the commit that introduced the benchmark; record it again only
when a change of the program is meant to move these values.

    OPENBLAS_NUM_THREADS=1 python3 bench/record_reference.py
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import warnings

import workloads as wl

cs = wl.cs


def main() -> int:
    settings = cs.QuadratureSettings(seed=wl.REF_QUAD_SEED)
    ded = {}
    for dy, u in wl.DED_POINTS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", cs.AccuracyWarning)
            res = cs.f_ded_total(cs.from_invariants(1.0 + dy, u), settings=settings)
        ded[wl.point_key(dy, u)] = [res.value, res.error]

    ymin, ymax, points = wl.CURVE_GRID["full"]
    wl.OUT_DIR.mkdir(exist_ok=True)
    out = wl.OUT_DIR / f"reference-{os.getpid()}.csv"
    argv = ["curve", "--model", "all", "--quantity", "ratio_u_over_quarter",
            "--u", ",".join(wl.CURVE_U), "--ymin", ymin, "--ymax", ymax,
            "--points", str(points), "--seed", str(wl.REF_QUAD_SEED), "--out", str(out)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if wl.cli.main(argv) != 0:
                raise SystemExit("curve evaluation failed")
        rows = wl.parse_curve_csv(out.read_text(encoding="utf-8"))
    finally:
        out.unlink(missing_ok=True)
    curve = {f"{model},{u},{dy}": [float(value), float(error)]
             for dy, u, model, _, value, error in rows if model != "scalar"}

    doc = {
        "quadrature_seed": wl.REF_QUAD_SEED,
        "package_version": cs.__version__,
        "ded_contact": ded,
        "curve_ratio": curve,
    }
    wl.REFERENCE_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    print(f"wrote {len(ded)} ded_contact and {len(curve)} curve_ratio references "
          f"to {wl.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
