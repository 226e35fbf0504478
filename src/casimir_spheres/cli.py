"""Command-line interface: point evaluation, curve datasets, fitting.

Subcommands
-----------
compute
    Evaluate the reduced free energy of one geometry for one or all
    models, optionally converting to SI units at a given temperature.
curve
    Sweep a y grid for one or more u values and write a CSV dataset
    (deterministic for a fixed seed, suitable for regenerating the
    figure-style curves).
fit
    Refit the rational approximant and write the parameters as JSON.
validate
    Run the oracle-equivalence checks (plane-wave quadrature and
    determinant routes against the closed forms).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .errors import CasimirError, ConvergenceError, DomainError, FitError, QuadratureError
from .geometry import (PLANE, ReducedGeometry, SphereGeometry, free_energy_si,
                       from_invariants, reduce)
from .electrolyte import (QuadratureSettings, RoundTripMatrixSpec,
                          det_roundtrip_matrix, det_roundtrip_transfer)
from .models import MODELS as _REGISTRY, get_model
from .rational import (FitResult, builtin_params, f_approx, max_deviation,
                       phi_u, refit)
from .validation import f_roundtrip_planewave

MODELS = tuple(_REGISTRY)
QUANTITIES = ("f", "f1", "phi", "ratio_u_over_quarter", "phi_over_quarter", "f_approx")

_CONFIG_KEYS = {
    "compute": {"L", "R1", "R2", "plane", "y", "u", "model", "T", "tol", "rmax", "seed"},
    "curve": {"model", "quantity", "u", "ymin", "ymax", "points", "log", "linear",
              "tol", "rmax", "seed", "out", "params"},
    "fit": {"model", "uref", "n", "ymin", "ymax", "points", "tol", "rmax", "seed", "out"},
    "validate": {"seed"},
}


def _fail(msg: str, code: int = 2):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(code)


def _threads() -> int:
    env = os.environ.get("CASIMIR_NUM_THREADS", "")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            _fail(f"CASIMIR_NUM_THREADS must be an integer, got {env!r}")
    return min(4, os.cpu_count() or 1)


def _settings(args) -> QuadratureSettings:
    return QuadratureSettings(seed=args.seed)


def _geometry_from_args(args) -> ReducedGeometry:
    have_phys = args.L is not None or args.R1 is not None or args.R2 is not None or args.plane
    have_red = args.y is not None or args.u is not None
    if have_phys and have_red:
        _fail("give either --L/--R1/--R2[/--plane] or --y/--u, not both")
    if have_red:
        if args.y is None:
            _fail("--u requires --y")
        return from_invariants(args.y, args.u if args.u is not None else 0.25)
    if args.L is None or args.R1 is None:
        _fail("geometry needs --L and --R1 (with --R2 or --plane), or --y [--u]")
    if args.plane:
        return reduce(SphereGeometry(L=args.L, R1=args.R1, R2=PLANE))
    if args.R2 is None:
        _fail("give --R2 or --plane")
    return reduce(SphereGeometry(L=args.L, R1=args.R1, R2=args.R2))


def _total(model, red, args):
    """Total of ``model`` at the CLI's tolerance: ``--tol``, capped for the series."""
    m = get_model(model)
    res = m.total(red, tol=min(args.tol, m.tol_cap), r_max=args.rmax,
                  settings=_settings(args))
    return res.value, res.error


def _check_grid(args):
    if args.ymin <= 0 or args.ymax <= args.ymin or args.points < 2:
        _fail("need 0 < ymin < ymax (as y-1) and points >= 2")


def _read_params(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return FitResult.from_json(fh.read()).params
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _fail(f"cannot read parameters from {path}: {type(exc).__name__}: {exc}")


def cmd_compute(args) -> int:
    red = _geometry_from_args(args)
    models = MODELS if args.model == "all" else (args.model,)
    print(f"y      = {red.y:.12g}")
    print(f"u      = {red.u:.12g}")
    print(f"varpi  = {red.varpi:.12g}")
    if not red.is_plane:
        print(f"z      = {red.z:.12g}")
    for model in models:
        f, err = _total(model, red, args)
        f1 = get_model(model).f1(red)
        line = f"model={model}: f1 = {f1:.12g}  f = {f:.12g}"
        if err:
            line += f" +- {err:.2g}"
        line += f"  phi = {f / f1:.10g}"
        print(line)
        if args.T is not None:
            joules, kbt, entropy = free_energy_si(f, args.T)
            print(f"  F_T = {joules:.6g} J = {kbt:.10g} k_B T   S = {entropy:.10g} k_B")
    return 0


def _curve_point(model, quantity, y, u, totals, params):
    """One CSV row's (value, error) from the precomputed ``totals``."""
    red = from_invariants(y, u)
    f1 = get_model(model).f1
    if quantity == "f1":
        return f1(red), 0.0
    if quantity == "f_approx":
        return f_approx(red, model, params), 0.0
    f, err = totals[model, y, u]
    if quantity == "f":
        return f, err
    if quantity == "phi":
        f1_red = f1(red)
        return f / f1_red, err / f1_red
    fq, errq = totals[model, y, 0.25]
    if quantity == "ratio_u_over_quarter":
        val = f / fq
        return val, abs(val) * (err / abs(f) + errq / abs(fq))
    p = (f / f1(red)) / (fq / f1(from_invariants(y, 0.25)))
    return p, abs(p) * (err / abs(f) + errq / abs(fq))


def cmd_curve(args) -> int:
    models = MODELS if args.model == "all" else (args.model,)
    if args.quantity not in QUANTITIES:
        _fail(f"unknown quantity {args.quantity!r}; choose from {QUANTITIES}")
    try:
        u_values = [float(tok) for tok in str(args.u).split(",")]
    except ValueError:
        _fail(f"--u expects a comma-separated list of numbers, got {args.u!r}")
    _check_grid(args)
    if args.log:
        ys = 1.0 + np.logspace(math.log10(args.ymin), math.log10(args.ymax), args.points)
    else:
        ys = 1.0 + np.linspace(args.ymin, args.ymax, args.points)
    ys = [float(y) for y in ys]

    params = {}
    if args.quantity == "f_approx":
        if "scalar" in models:
            _fail("f_approx is defined for dvd and ded only")
        if args.params == "builtin":
            params = {model: builtin_params(model) for model in models}
        else:
            params = dict.fromkeys(models, _read_params(args.params))

    # every distinct (model, y, u) total is evaluated once; the ratio
    # quantities share the u = 1/4 reference across their u values
    refs = [0.25] if args.quantity in ("ratio_u_over_quarter", "phi_over_quarter") else []
    total_us = [] if args.quantity in ("f1", "f_approx") else u_values + refs
    keys = list(dict.fromkeys((model, y, u) for model in models for u in total_us for y in ys))

    def run(key):
        model, y, u = key
        try:
            return _total(model, from_invariants(y, u), args)
        except (ConvergenceError, QuadratureError):
            return math.nan, math.nan

    with ThreadPoolExecutor(max_workers=_threads()) as pool:
        totals = dict(zip(keys, pool.map(run, keys)))

    rows = sorted(
        ((model, args.quantity, u, y,
          *_curve_point(model, args.quantity, y, u, totals, params.get(model)))
         for model in models for u in u_values for y in ys),
        key=lambda r: (r[0], r[1], r[2], r[3]),
    )
    lines = [
        f"# casimir-spheres {__version__}",
        f"# invocation: {' '.join(args.invocation)}",
        f"# seed: {args.seed}",
        "y_minus_1,u,model,quantity,value,error_estimate",
    ]
    for model, quantity, u, y, val, err in rows:
        lines.append(
            f"{y - 1.0:.12g},{u:.12g},{model},{quantity},{val:.12g},{err:.12g}"
        )
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        n_failed = sum(1 for *_, v, _e in rows if isinstance(v, float) and math.isnan(v))
        print(f"wrote {len(rows)} rows to {args.out}"
              + (f" ({n_failed} failed points marked nan)" if n_failed else ""))
    return 0


def cmd_fit(args) -> int:
    if args.model not in ("dvd", "ded"):
        _fail("fit supports --model dvd or ded")
    if args.n < 1:
        _fail(f"--n must be >= 1, got {args.n}")
    if not 0.0 <= args.uref <= 0.25:
        _fail(f"--uref must lie in [0, 1/4], got {args.uref}")
    _check_grid(args)
    grid = 1.0 + np.logspace(math.log10(args.ymin), math.log10(args.ymax), args.points)
    try:
        result = refit(args.model, args.uref, n=args.n, grid=grid,
                       settings=_settings(args), seed=args.seed)
    except FitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 3
    print(f"fitted n={args.n} parameters for {args.model} at u_ref={args.uref}:")
    print(f"  nu = {list(result.params.nu)}")
    print(f"  mu = {list(result.params.mu)}")
    print(f"  epsilon (fit grid) = {result.epsilon:.3e}")
    if args.n == builtin_params(args.model).n:
        pb = builtin_params(args.model)
        dev_b = max_deviation(pb, args.model, [(y, args.uref) for y in grid],
                              settings=_settings(args))
        print(f"  built-in parameters on the same grid: epsilon = {dev_b:.3e}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(result.to_json() + "\n")
        print(f"wrote parameters to {args.out}")
    return 0


def cmd_validate(args) -> int:
    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
        failures += 0 if ok else 1

    for (y, u) in [(1.5, 0.25), (2.0, 0.1), (5.0, 0.0)]:
        red = from_invariants(y, u)
        for model in _REGISTRY.values():
            closed = model.f1(red)
            got = f_roundtrip_planewave(model.reflection, red, 1).value
            rel = abs(got / closed - 1.0)
            check(f"plane-wave r=1 {model.reflection.kind} (y={y}, u={u})", rel < 1e-5,
                  f"rel {rel:.1e}")

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(100):
        r = int(rng.integers(1, 4))
        red = from_invariants(float(rng.uniform(1.2, 6.0)), float(rng.uniform(0.02, 0.25)))
        spec = RoundTripMatrixSpec(
            r=r, t=tuple(rng.uniform(0, 1, 2 * r).tolist()), sigma=int(rng.choice((-1, 1))))
        d1 = det_roundtrip_matrix(spec, red)
        d2 = det_roundtrip_transfer(spec, red)
        worst = max(worst, abs(d1 / d2 - 1.0))
    check("determinant dense-LU vs transfer (100 random)", worst < 1e-12, f"worst {worst:.1e}")

    for (y, u) in [(2.0, 0.1), (3.0, 0.25)]:
        red = from_invariants(y, u)
        got = phi_u(red, "ded", _settings(args))
        check(f"phi_ded(y={y}, u={u}) in (1, zeta3]", 1.0 < got < 1.2120569, f"phi {got:.6f}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-spheres",
        description="High-temperature Casimir free energy between two spheres",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=1e-4,
                       help="relative accuracy target for summed quantities")
        p.add_argument("--rmax", type=int, default=5,
                       help="cap on explicitly integrated round-trip orders")
        p.add_argument("--seed", type=int, default=0, help="quadrature scramble seed")
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with defaults for this command (flags win)")

    pc = sub.add_parser("compute", help="evaluate one geometry")
    pc.add_argument("--L", type=float, default=None, help="surface gap")
    pc.add_argument("--R1", type=float, default=None, help="radius of sphere 1")
    pc.add_argument("--R2", type=float, default=None, help="radius of sphere 2")
    pc.add_argument("--plane", action="store_true", help="second body is a plane")
    pc.add_argument("--y", type=float, default=None, help="conformal invariant y > 1")
    pc.add_argument("--u", type=float, default=None, help="radius-ratio parameter in [0, 1/4]")
    pc.add_argument("--model", choices=MODELS + ("all",), default="all")
    pc.add_argument("--T", type=float, default=None, help="temperature in kelvin")
    add_common(pc)
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("curve", help="write a CSV dataset over a y grid")
    pv.add_argument("--model", choices=MODELS + ("all",), default="all")
    pv.add_argument("--quantity", choices=QUANTITIES, default="f")
    pv.add_argument("--u", type=str, default="0.25",
                    help="comma-separated u values, e.g. 0,0.1,0.25")
    pv.add_argument("--ymin", type=float, default=1e-2, help="smallest y-1")
    pv.add_argument("--ymax", type=float, default=1e2, help="largest y-1")
    pv.add_argument("--points", type=int, default=50, help="grid size")
    grp = pv.add_mutually_exclusive_group()
    grp.add_argument("--log", dest="log", action="store_true", default=True,
                     help="log-spaced grid (default)")
    grp.add_argument("--linear", dest="log", action="store_false", help="linear grid")
    pv.add_argument("--out", type=str, default="-", help="output CSV path ('-' = stdout)")
    pv.add_argument("--params", type=str, default="builtin",
                    help="rational-model parameters for f_approx: 'builtin' or a JSON path")
    add_common(pv)
    pv.set_defaults(func=cmd_curve)

    pf = sub.add_parser("fit", help="refit the rational approximant")
    pf.add_argument("--model", choices=("dvd", "ded"), required=True)
    pf.add_argument("--uref", type=float, default=0.1)
    pf.add_argument("--n", type=int, default=2, help="model order")
    pf.add_argument("--ymin", type=float, default=1e-2)
    pf.add_argument("--ymax", type=float, default=10.0)
    pf.add_argument("--points", type=int, default=200)
    pf.add_argument("--out", type=str, default=None, help="write parameters JSON here")
    add_common(pf)
    pf.set_defaults(func=cmd_fit)

    pval = sub.add_parser("validate", help="run the oracle-equivalence suite")
    add_common(pval)
    pval.set_defaults(func=cmd_validate)
    return parser


def _apply_config(parser, argv, args):
    if args.config is None:
        return args
    try:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot read config {args.config}: {exc}")
    if not isinstance(doc, dict):
        _fail("config must be a JSON object of flag values")
    allowed = _CONFIG_KEYS.get(args.command, set()) | {"tol", "rmax", "seed"}
    unknown = set(doc) - allowed
    if unknown:
        _fail(f"unknown config keys for {args.command}: {sorted(unknown)}")
    # config provides defaults; explicit flags win
    given = set()
    for tok in argv:
        if tok.startswith("--"):
            given.add(tok[2:].split("=", 1)[0])
    for key, value in doc.items():
        if key in given:
            continue
        if not hasattr(args, key):
            _fail(f"config key {key!r} is not a flag of {args.command}")
        expected = type(parser.get_default(key) if parser.get_default(key) is not None
                        else value)
        if expected in (int, float) and isinstance(value, (int, float)):
            value = expected(value)
        elif not isinstance(value, expected) and parser.get_default(key) is not None:
            _fail(f"config key {key!r} should be {expected.__name__}")
        setattr(args, key, value)
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args = _apply_config(parser, argv, args)
    args.invocation = argv
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, QuadratureError, FitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except CasimirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
