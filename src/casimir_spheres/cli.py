"""Command-line interface: point evaluation, curve datasets, fitting.

Subcommands
-----------
compute
    Evaluate the reduced free energy of one geometry for one or all
    models, optionally converting to SI units at a given temperature.
curve
    Sweep a y grid for one or more u values and write a CSV dataset,
    suitable for regenerating the figure-style curves.  It is
    deterministic: ``--seed`` is only recorded in the CSV header.
fit
    Refit the rational approximant and write the parameters as JSON.
validate
    Run the oracle-equivalence checks: plane-wave quadrature against the
    closed forms, and the banded ded determinant against dense linear
    algebra.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import CasimirError, ConvergenceError, DomainError
from .geometry import (PLANE, ReducedGeometry, SphereGeometry, free_energy_si,
                       from_invariants, reduce)
from .models import APPROX_MODELS, MODELS as _REGISTRY, get_model
from .rational import (FitResult, builtin_params, default_fit_grid, f_approx,
                       max_deviation, phi_u, refit)
from .scalar import ZETA3
from .validation import banded_determinant_deviations, planewave_r1_deviations

MODELS = tuple(_REGISTRY)
QUANTITIES = ("f", "f1", "phi", "ratio_u_over_quarter", "phi_over_quarter", "f_approx")


def _fail(msg: str, code: int = 2):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(code)


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
    if args.plane == (args.R2 is not None):
        _fail("give exactly one of --R2 and --plane")
    return reduce(SphereGeometry(L=args.L, R1=args.R1, R2=PLANE if args.plane else args.R2))


def _check_grid_and_out(args):
    """Before any work: ``--ymin < --ymax``, and an ``--out`` that is no folder and
    lies in a writable one; no file is created or truncated."""
    if args.ymax <= args.ymin:
        _fail(f"need --ymin < --ymax, got {args.ymin} and {args.ymax}")
    folder = os.path.dirname(args.out or "") or "."
    if args.out not in (None, "-") and (os.path.isdir(args.out) or not os.access(folder, os.W_OK)):
        _fail(f"cannot write {args.out}: it is a folder, or its folder is missing or read-only")


def _write(path, text, report):
    """Write ``text`` to stdout for ``-``, else to the file ``path`` and print
    ``report``; exit 2 if the file cannot be written."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(f"cannot write {path}: {exc}")
    print(report)


def _read_params(path, models):
    try:
        with open(path, "rb") as fh:
            params = FitResult.from_json(fh.read()).params
    except (OSError, DomainError) as exc:
        _fail(f"cannot read parameters from {path}: {type(exc).__name__}: {exc}")
    if set(models) != {params.model_tag}:
        _fail(f"cannot read parameters from {path}: fitted for {params.model_tag!r}, "
              f"not {'/'.join(models)}")
    return params


def cmd_compute(args) -> int:
    red = _geometry_from_args(args)
    models = MODELS if args.model == "all" else (args.model,)
    print(f"y      = {red.y:.12g}")
    print(f"u      = {red.u:.12g}")
    print(f"varpi  = {red.varpi:.12g}")
    if not red.is_plane:
        print(f"z      = {red.z:.12g}")
    failed = []
    for model in models:
        try:
            f1 = get_model(model).f1(red)
            res = get_model(model).total(red, tol=args.tol)
        except DomainError:
            raise
        except CasimirError as exc:
            # report and go on: one model's failure hides no other model's line
            print(f"error: model={model}: {exc}", file=sys.stderr)
            failed.append(model)
            continue
        line = f"model={model}: f1 = {f1:.12g}  f = {res.value:.12g}"
        if res.error:
            line += f" +- {res.error:.2g}"
        line += f"  phi = {res.value / f1:.10g}"
        print(line)
        if args.T is not None:
            joules, kbt, entropy = free_energy_si(res.value, args.T)
            print(f"  F_T = {joules:.6g} J = {kbt:.10g} k_B T   S = {entropy:.10g} k_B")
    if failed:
        _fail(f"no value for model {', '.join(failed)}", 3)
    return 0


def _curve_point(model, quantity, y, u, totals, params):
    """One CSV row's (value, error); ``totals[y, u]`` is a total's.

    Raises ConvergenceError where a quantity read through f1 has no
    value (see :meth:`Model.f1`); every f1 and total it divides by is positive.
    """
    if quantity == "f":
        return totals[y, u]
    if quantity == "ratio_u_over_quarter":
        (f, err), (fq, errq) = totals[y, u], totals[y, 0.25]
        val = f / fq
        return val, val * (err / f + errq / fq)
    red = from_invariants(y, u)
    f1_red = get_model(model).f1(red)
    if quantity == "f1":
        return f1_red, 0.0
    if quantity == "f_approx":
        return f_approx(red, model, params), 0.0
    f, err = totals[y, u]
    if quantity == "phi":
        return f / f1_red, err / f1_red
    (fq, errq), f1_q = totals[y, 0.25], get_model(model).f1(from_invariants(y, 0.25))
    p = (f / f1_red) / (fq / f1_q)
    return p, p * (err / f + errq / fq)


def cmd_curve(args) -> int:
    models = sorted(MODELS) if args.model == "all" else [args.model]
    try:
        # one row per grid point: a repeated u is dropped, and -0 reads as 0
        u_values = sorted(dict.fromkeys(float(tok) + 0.0 for tok in str(args.u).split(",")))
    except ValueError:
        _fail(f"--u expects a comma-separated list of numbers, got {args.u!r}")
    _check_grid_and_out(args)
    if args.log:
        ys = 1.0 + np.logspace(math.log10(args.ymin), math.log10(args.ymax), args.points)
    else:
        ys = 1.0 + np.linspace(args.ymin, args.ymax, args.points)
    ys = [float(y) for y in ys]

    params = {}
    if args.quantity == "f_approx":
        # builtin_params raises DomainError (exit 2) for a model without an approximant
        params = {model: builtin_params(model) for model in models}
        if args.params != "builtin":
            params = dict.fromkeys(models, _read_params(args.params, models))

    total_us = u_values
    if args.quantity.endswith("_over_quarter"):  # the ratio quantities read u = 1/4 too
        total_us = sorted({*u_values, 0.25})
    lines = [
        f"# casimir-spheres {__version__}",
        f"# invocation: {' '.join(args.invocation)}",
        f"# seed: {args.seed}",
        "y_minus_1,u,model,quantity,value,error_estimate",
    ]
    n_failed = 0
    for model in models:  # rows in output order: model, u, y
        totals = {}
        if args.quantity not in ("f1", "f_approx"):  # which read no total
            # every total of one model, failed ones too, in one call (ded's in a few recursions)
            points = [(y, u) for y in ys for u in total_us]
            totals = {point: (math.nan, math.nan) if isinstance(res, ConvergenceError)
                      else (res.value, res.error)
                      for point, res in zip(points, get_model(model).totals(points, tol=args.tol))}
        for u in u_values:
            for y in ys:
                try:
                    val, err = _curve_point(model, args.quantity, y, u, totals,
                                            params.get(model))
                except ConvergenceError:  # no digits left
                    val, err = math.nan, math.nan
                n_failed += math.isnan(val)
                lines.append(f"{y - 1.0:.12g},{u:.12g},{model},{args.quantity},"
                             f"{val:.12g},{err:.12g}")
    _write(args.out, "\n".join(lines) + "\n", f"wrote {len(lines) - 4} rows to {args.out}"
           + (f" ({n_failed} failed points marked nan)" if n_failed else ""))
    return 0


def cmd_fit(args) -> int:
    if args.model is None:
        _fail("fit needs --model, on the command line or in --config")
    _check_grid_and_out(args)
    grid = default_fit_grid(args.points, args.ymin, args.ymax)
    result = refit(args.model, args.uref, n=args.n, grid=grid, seed=args.seed)
    summary = sys.stderr if args.out == "-" else sys.stdout  # stdout carries the JSON
    print(f"fitted n={args.n} parameters for {args.model} at u_ref={args.uref}:", file=summary)
    print(f"  nu = {list(result.params.nu)}", file=summary)
    print(f"  mu = {list(result.params.mu)}", file=summary)
    print(f"  epsilon (fit grid) = {result.epsilon:.3e}", file=summary)
    pb = builtin_params(args.model)
    if args.n == pb.n:
        dev_b = max_deviation(pb, args.model, [(y, args.uref) for y in grid])
        print(f"  built-in parameters on the same grid: epsilon = {dev_b:.3e}", file=summary)
    if args.out:
        _write(args.out, result.to_json() + "\n", f"wrote parameters to {args.out}")
    return 0


def cmd_validate(args) -> int:
    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
        failures += 0 if ok else 1

    for y, u, name, rel in planewave_r1_deviations():
        check(f"plane-wave r=1 {name} (y={y}, u={u})", rel < 1e-5, f"rel {rel:.1e}")

    for ym1, u, rel in banded_determinant_deviations():
        check(f"ded log det (y-1={ym1}, u={u}) banded vs dense", rel < 1e-12, f"rel {rel:.1e}")

    for (y, u) in [(2.0, 0.1), (3.0, 0.25)]:
        red = from_invariants(y, u)
        got = phi_u(red, "ded")
        check(f"phi_ded(y={y}, u={u}) in (1, zeta3]", 1.0 < got <= ZETA3, f"phi {got:.6f}")
    return 0 if failures == 0 else 1


def _checked(convert, ok, rule):
    """argparse ``type``: ``convert`` the text, then require ``ok`` of the value.

    argparse converts ``--config`` values with it too, so a bad value
    exits 2 before any command runs.
    """
    def parse(text):
        value = convert(text) + 0  # -0 reads as 0, which no output then shows as -0
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse says "invalid float value: 'x'"
    return parse


class _Config(argparse.Action):
    """``--config FILE``: the file's values become the subcommand's defaults.

    Keys are the subcommand's dests.  Values other than a switch's
    true/false go in as text, which argparse converts and checks on the
    next parse; applying the file only once keeps them the very objects
    argparse put into the namespace, which it needs to convert them.
    argparse checks no ``choices`` on defaults, so they are checked here,
    before any command runs.
    """

    def __call__(self, parser, namespace, path, option_string=None):
        namespace.config = path
        if parser.get_default("config") == path:
            return
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read config {path}: {exc}")
        if not isinstance(doc, dict):
            parser.error("config must be a JSON object of flag values")
        unknown = set(doc) - (set(vars(namespace)) - {"command", "func", "config"})
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        choices = {action.dest: action.choices for action in parser._actions}
        for key, value in doc.items():
            if isinstance(value, bool) != isinstance(parser.get_default(key), bool):
                parser.error(f"config key {key!r}: invalid value {value!r}")
            if choices[key] is not None and str(value) not in map(str, choices[key]):
                parser.error(f"config key {key!r}: invalid choice {value!r} "
                             f"(choose from {', '.join(map(str, choices[key]))})")
        parser.set_defaults(config=path, **{key: value if isinstance(value, bool) else str(value)
                                            for key, value in doc.items()})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-spheres",
        description="High-temperature Casimir free energy between two spheres",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    positive = _checked(float, lambda v: 0.0 < v < math.inf, "be finite and > 0")
    grid_size = _checked(int, lambda n: n >= 2, "be >= 2")

    def add_common(p, seed_help=None):
        """``--config``, and ``--seed`` where ``seed_help`` says what it seeds."""
        if seed_help is not None:
            p.add_argument("--seed", type=_checked(int, lambda s: s >= 0, "be >= 0"), default=0,
                           help=seed_help)
        p.add_argument("--config", action=_Config, default=None,
                       help="JSON file with defaults for this command (flags win)")

    def add_tol(p):
        """``--tol``, on the subcommands that sum totals: ``fit`` and ``validate`` sum none."""
        p.add_argument("--tol", type=_checked(float, lambda t: 0.0 < t < 1.0, "lie in (0, 1)"),
                       default=1e-4,
                       help="relative bound on ded's change from N0 to its 1.5 N0 rows, which it "
                            "always runs; the series are summed to min(tol, 1e-10)")

    pc = sub.add_parser("compute", help="evaluate one geometry")
    pc.add_argument("--L", type=float, default=None, help="surface gap")
    pc.add_argument("--R1", type=float, default=None, help="radius of sphere 1")
    pc.add_argument("--R2", type=float, default=None, help="radius of sphere 2")
    pc.add_argument("--plane", action="store_true", help="second body is a plane")
    pc.add_argument("--y", type=float, default=None, help="conformal invariant y > 1")
    pc.add_argument("--u", type=float, default=None, help="radius-ratio parameter in [0, 1/4]")
    pc.add_argument("--model", choices=MODELS + ("all",), default="all")
    pc.add_argument("--T", type=positive, default=None, help="temperature in kelvin")
    add_tol(pc)
    add_common(pc)
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("curve", help="write a CSV dataset over a y grid")
    pv.add_argument("--model", choices=MODELS + ("all",), default="all")
    pv.add_argument("--quantity", choices=QUANTITIES, default="f")
    pv.add_argument("--u", type=str, default="0.25",
                    help="comma-separated u values, e.g. 0,0.1,0.25")
    pv.add_argument("--ymin", type=positive, default=1e-2, help="smallest y-1")
    pv.add_argument("--ymax", type=positive, default=1e2, help="largest y-1")
    pv.add_argument("--points", type=grid_size, default=50, help="grid size")
    grp = pv.add_mutually_exclusive_group()
    grp.add_argument("--log", dest="log", action="store_true", default=True,
                     help="log-spaced grid (default)")
    grp.add_argument("--linear", dest="log", action="store_false", help="linear grid")
    pv.add_argument("--out", type=str, default="-", help="output CSV path ('-' = stdout)")
    pv.add_argument("--params", type=str, default="builtin",
                    help="rational-model parameters for f_approx: 'builtin' or a JSON path")
    add_tol(pv)
    add_common(pv, "recorded in the CSV header; curve is deterministic and reads no seed")
    pv.set_defaults(func=cmd_curve)

    pf = sub.add_parser("fit", help="refit the rational approximant")
    pf.add_argument("--model", choices=APPROX_MODELS, default=None)
    pf.add_argument("--uref", type=_checked(float, lambda u: 0.0 <= u <= 0.25, "lie in [0, 1/4]"),
                    default=0.1)
    pf.add_argument("--n", type=_checked(int, lambda n: n >= 1, "be >= 1"), default=2,
                    help="model order")
    pf.add_argument("--ymin", type=positive, default=1e-2)
    pf.add_argument("--ymax", type=positive, default=10.0)
    pf.add_argument("--points", type=grid_size, default=200)
    pf.add_argument("--out", type=str, default=None,
                    help="write the parameters JSON to this path ('-' = stdout)")
    add_common(pf, "perturbs the fit's starting point")
    pf.set_defaults(func=cmd_fit)

    pval = sub.add_parser("validate", help="run the oracle-equivalence suite")
    pval.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is not None:
        # the config's values are now the subcommand's defaults; parse
        # again so that argparse converts them and explicit flags win
        args = parser.parse_args(argv)
    args.invocation = argv
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CasimirError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
