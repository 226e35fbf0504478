#!/usr/bin/env python3
"""Refit the rational approximant for both models and both u_ref choices.

Prints the achieved deviation on the multi-u evaluation grid next to the
built-in parameters, and writes the winning parameter sets to out/.
"""
import pathlib
import warnings

import numpy as np

from casimir_spheres.electrolyte import QuadratureSettings
from casimir_spheres.rational import builtin_params, max_deviation, refit

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"

GRID_Y = 1.0 + np.logspace(-2, 1, 100)
GRID_U = (0.0, 0.016, 0.04, 0.1, 0.25)
FAST = QuadratureSettings(nodes_per_dim=12, qmc_points=2**12)
EVAL_GRID = [(float(y), u) for u in GRID_U for y in GRID_Y]


def main() -> int:
    OUT.mkdir(exist_ok=True)
    warnings.simplefilter("ignore")
    for model, settings in (("dvd", None), ("ded", FAST)):
        dev_builtin = max_deviation(builtin_params(model), model, EVAL_GRID, settings=settings)
        print(f"{model}: built-in parameters deviation = {dev_builtin:.3e}")
        best = None
        for u_ref in (0.1, 0.15):
            fit = refit(model, u_ref, n=2, grid=GRID_Y, settings=settings)
            dev = max_deviation(fit.params, model, EVAL_GRID, settings=settings)
            print(f"{model}: refit at u_ref={u_ref}: fit-grid eps {fit.epsilon:.3e}, "
                  f"multi-u deviation {dev:.3e}")
            if best is None or dev < best[0]:
                best = (dev, u_ref, fit)
        dev, u_ref, fit = best
        dest = OUT / f"{model}_params_refit.json"
        dest.write_text(fit.to_json() + "\n", encoding="utf-8")
        print(f"{model}: wrote best refit (u_ref={u_ref}, deviation {dev:.3e}) to {dest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
