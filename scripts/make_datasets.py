#!/usr/bin/env python3
"""Regenerate the standard curve datasets into out/.

Produces the reduced free energy bands for all three models, the
u-ratio bands, the phi curves and the approximant-quality columns on a
shared log grid. These are the datasets behind the usual plots.
"""
import pathlib
import subprocess
import sys

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"

U_SET = "0,0.016,0.04,0.1,0.25"
COMMON = ["--ymin", "1e-2", "--ymax", "1e2", "--points", "60", "--seed", "1"]

JOBS = [
    (["curve", "--model", "all", "--quantity", "f", "--u", U_SET],
     "reduced_free_energy.csv"),
    (["curve", "--model", "dvd", "--quantity", "ratio_u_over_quarter", "--u", U_SET],
     "dvd_ratio_band.csv"),
    (["curve", "--model", "ded", "--quantity", "ratio_u_over_quarter", "--u", U_SET],
     "ded_ratio_band.csv"),
    (["curve", "--model", "all", "--quantity", "phi", "--u", U_SET],
     "phi_curves.csv"),
    (["curve", "--model", "dvd", "--quantity", "f_approx", "--u", U_SET],
     "dvd_f_approx.csv"),
    (["curve", "--model", "ded", "--quantity", "f_approx", "--u", U_SET],
     "ded_f_approx.csv"),
]


def main() -> int:
    OUT.mkdir(exist_ok=True)
    for args, name in JOBS:
        dest = OUT / name
        cmd = [sys.executable, "-m", "casimir_spheres"] + args + COMMON + ["--out", str(dest)]
        print("+", " ".join(cmd[3:]))
        subprocess.run(cmd, check=True)
    print(f"datasets written to {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
