"""Workload bodies, correctness checks and tracing of the benchmark.

Run as a script, this file is one fresh interpreter of a benchmark run
(see ``run.py``): it imports ``casimir_spheres`` from the checkout's
``src/``, prints ``READY`` once the package is imported and one cheap
evaluation has returned (the end of set-up), runs one workload body and
prints one JSON object with its measurements as its last line.

Modes:

``run``     time the workload body with tracing off and check its outputs;
``trace``   run the body with spans around every public call, then the
            layer probes of the workload;
``serial``  (curve_ratio only) run the curve's evaluations one after the
            other through the library, one span each;
``setup``   stop after ``READY``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np

from metrics import PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SIZES = ("full", "tiny")

# The quadrature (QMC scrambling) seed is held at the library default.
# The ded stop rule decides on noisy high-order estimates, so at another
# quadrature seed it integrates another number of orders: measured on
# 20 seeds, the (y-1, u) = (0.3, 0.1) point integrates r = 5 on 13 of
# them, and curve_ratio's CPU time ranges 26-33 s over 4 seeds.  The
# workload seed therefore varies inputs that leave the work unchanged.
QUAD_SEED = 0
# Quadrature seed of the recorded reference, independent of QUAD_SEED so
# that the reference check compares two independent estimates.
REF_QUAD_SEED = 1
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

ZETA3 = 1.2020569031595942854
PHI_HI = ZETA3 + 1e-2
# README: the approximant reproduces the full sums "to a few 1e-3"
FIT_EPS_MAX = 1e-2
# The CLI sums the scalar and dvd series to 1e-10; the cancellation in
# f_dvd amplifies that by up to y^2 <= 1e4 on the curve grid.
SERIES_REL_ERR = 1e-6

DED_POINTS = ((0.01, 0.1), (0.1, 0.04), (0.1, 0.25), (0.3, 0.1))
CURVE_U = ("0", "0.04", "0.1")
CURVE_GRID = {"full": ("0.5", "100", 24), "tiny": ("20", "100", 2)}
SERIES_U = (0.0, 0.016, 0.04, 0.1, 0.25)
SERIES_POINTS = {"full": 1500, "tiny": 20}
FIT_POINTS = {"full": 200, "tiny": 20}

def import_package():
    """Import casimir_spheres from this checkout's src/, never another copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import casimir_spheres
    if Path(casimir_spheres.__file__).resolve().parent != SRC / "casimir_spheres":
        raise ImportError(f"casimir_spheres imported from {casimir_spheres.__file__}, "
                          f"not from {SRC}")
    return casimir_spheres


cs = import_package()
from casimir_spheres import cli  # noqa: E402

SETTINGS = cs.QuadratureSettings(seed=QUAD_SEED)


# ---------------------------------------------------------------------------
# tracing

class Tracer:
    """Spans held in memory: name, start, end and the index of the parent."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self):
        """Per span name, total duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - c)
        return out


def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def attempt(call, name, fn, *args, **kwargs):
    """Evaluate through ``call``; an exception makes the value None."""
    try:
        return call(name, fn, *args, **kwargs)
    except Exception:  # any raised exception is a failed evaluation
        return None


# ---------------------------------------------------------------------------
# inputs

def make_inputs(workload, seed, size="full"):
    """Inputs of one workload; the same seed gives the same inputs."""
    rng = random.Random(seed)
    if workload == "ded_contact":
        points = DED_POINTS if size == "full" else DED_POINTS[-1:]
        # the order of the points does not change their work
        return {"points": rng.sample(points, len(points))}
    if workload == "curve_ratio":
        ymin, ymax, points = CURVE_GRID[size]
        # the CLI sorts its rows, so the u order changes no output byte
        u_list = rng.sample(CURVE_U, len(CURVE_U))
        return {"argv": ["curve", "--model", "all", "--quantity", "ratio_u_over_quarter",
                         "--u", ",".join(u_list), "--ymin", ymin, "--ymax", ymax,
                         "--points", str(points), "--seed", str(QUAD_SEED)]}
    if workload == "series_fit":
        # The grid is fixed, so every seed meets the same known dvd
        # failures; the seed sets the order the points are evaluated in.
        points = [(1.0 + float(dy), u) for u in SERIES_U
                  for dy in np.logspace(-5.0, 4.0, SERIES_POINTS[size])]
        rng.shuffle(points)
        return {"points": points, "u": SERIES_U,
                "fit_grid": cs.rational.default_fit_grid(FIT_POINTS[size])}
    raise ValueError(f"unknown workload {workload!r}")


def curve_tasks(argv):
    """Top-level (model, y, u) evaluations of a ratio curve, in CLI order.

    Each row evaluates its own u and the u = 1/4 reference.
    """
    opts = dict(zip(argv[1::2], argv[2::2]))
    ys = 1.0 + np.logspace(math.log10(float(opts["--ymin"])),
                           math.log10(float(opts["--ymax"])), int(opts["--points"]))
    tasks = []
    for model in cli.MODELS:
        for u in opts["--u"].split(","):
            for y in ys:
                tasks.append((model, float(y), float(u)))
                tasks.append((model, float(y), 0.25))
    return tasks


def repeat_flags(tasks):
    seen = set()
    flags = []
    for key in tasks:
        flags.append(key in seen)
        seen.add(key)
    return flags


# ---------------------------------------------------------------------------
# workload bodies (the timed part)

def body_ded_contact(inputs, call):
    out = []
    for dy, u in inputs["points"]:
        red = call("geometry.from_invariants", cs.from_invariants, 1.0 + dy, u)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", cs.AccuracyWarning)
            res = attempt(call, "electrolyte.f_ded_total", cs.f_ded_total, red,
                          settings=SETTINGS)
        n_warn = sum(issubclass(w.category, cs.AccuracyWarning) for w in caught)
        out.append((dy, u, res, n_warn))
    return out


def body_curve_ratio(inputs, call):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"curve-{os.getpid()}.csv"
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = call("cli.main", cli.main, inputs["argv"] + ["--out", str(path)])
        text = path.read_text(encoding="utf-8") if code == 0 else ""
    finally:
        path.unlink(missing_ok=True)
    return code, text


def body_series_fit(inputs, call):
    rows = []
    for y, u in inputs["points"]:
        red = attempt(call, "geometry.from_invariants", cs.from_invariants, y, u)
        if red is None:
            rows.append((y, u, None, None, None, None, None, None))
            continue
        rows.append((
            y, u,
            attempt(call, "scalar.f_sc_total", cs.f_sc_total, red),
            attempt(call, "drude.f_dvd_total", cs.f_dvd_total, red),
            attempt(call, "drude.f1_dvd", cs.f1_dvd, red),
            attempt(call, "electrolyte.f1_ded", cs.f1_ded, red),
            attempt(call, "rational.f_approx", cs.f_approx, red, "dvd"),
            attempt(call, "rational.f_approx", cs.f_approx, red, "ded"),
        ))
    grid = inputs["fit_grid"]
    fit = attempt(call, "rational.refit", cs.refit, "dvd", 0.1, grid=grid)
    pairs = [(float(y), u) for u in inputs["u"] for y in grid]
    dev_builtin = attempt(call, "rational.max_deviation", cs.max_deviation,
                          cs.DVD_PARAMS, "dvd", pairs)
    dev_fit = None
    if fit is not None:
        dev_fit = attempt(call, "rational.max_deviation", cs.max_deviation,
                          fit.params, "dvd", pairs)
    return rows, fit, dev_builtin, dev_fit


BODIES = {"ded_contact": body_ded_contact, "curve_ratio": body_curve_ratio,
          "series_fit": body_series_fit}


# ---------------------------------------------------------------------------
# correctness checks

Record = namedtuple("Record", "model y u value error f1 ref floor",
                    defaults=(0.0, None, None, 0.0))


def failure(rec):
    """Why an evaluation fails, or None when it passes.

    Every value must be finite and positive.  For the dvd and ded totals
    phi = f/f1 must lie in (1, zeta(3) + 1e-2]; approximants may reach 1
    exactly.  The scalar phi peaks above zeta(3) + 1e-2 near y - 1 = 0.07,
    so it has no window.  A
    value with a reference must lie within the sum of both stated errors
    (plus ``floor``) of it.  Fit deviations must stay below FIT_EPS_MAX.
    """
    v = rec.value
    if v is None:
        return "raised"
    if not (math.isfinite(v) and v > 0.0):
        return "non-positive"
    if rec.model == "fit" and v > FIT_EPS_MAX:
        return "fit"
    if rec.f1 is not None and rec.model in ("dvd", "ded", "approx"):
        phi = v / rec.f1
        low_ok = phi >= 1.0 if rec.model == "approx" else phi > 1.0
        if not (low_ok and phi <= PHI_HI):
            return "phi"
    if rec.ref is not None:
        ref_value, ref_error = rec.ref
        if abs(v - ref_value) > rec.error + ref_error + rec.floor:
            return "reference"
    return None


def known_defect(rec, reason):
    """Failures present when the benchmark was introduced, left for later work.

    f_dvd_total loses phi > 1 at large y: its two terms cancel, so the
    1e-12 series truncation is amplified by about y^2.
    """
    return rec.model == "dvd" and reason == "phi" and rec.y - 1.0 >= 100.0


def load_reference():
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def point_key(dy, u):
    return f"{dy:.12g},{u:.12g}"


def records_ded_contact(raw, reference):
    ref = reference["ded_contact"]
    recs = []
    for dy, u, res, _ in raw:
        red = cs.from_invariants(1.0 + dy, u)
        recs.append(Record("ded", 1.0 + dy, u,
                           None if res is None else res.value,
                           0.0 if res is None else res.error,
                           cs.f1_ded(red), ref.get(point_key(dy, u))))
    return recs


def parse_curve_csv(text):
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")]
    return rows[1:]  # drop the header


def records_curve_ratio(raw, reference):
    code, text = raw
    ref = reference["curve_ratio"]
    recs = []
    for dy, u, model, _, value, error in parse_curve_csv(text):
        v, e = float(value), float(error)
        recs.append(Record(model, 1.0 + float(dy), float(u), v, e,
                           ref=None if model == "scalar" else ref.get(f"{model},{u},{dy}"),
                           floor=SERIES_REL_ERR * abs(v) if model == "dvd" else 0.0))
    return recs, code


def records_series_fit(raw):
    rows, fit, dev_builtin, dev_fit = raw
    recs = []
    for y, u, sc, dvd, f1d, f1e, apx_d, apx_e in rows:
        recs += [
            Record("scalar", y, u, sc),
            Record("dvd", y, u, dvd, f1=f1d),
            Record("closed", y, u, f1d),
            Record("closed", y, u, f1e),
            Record("approx", y, u, apx_d, f1=f1d),
            Record("approx", y, u, apx_e, f1=f1e),
        ]
    recs += [Record("fit", math.nan, 0.1, None if fit is None else fit.epsilon),
             Record("fit", math.nan, math.nan, dev_builtin),
             Record("fit", math.nan, math.nan, dev_fit)]
    return recs


def assess(workload, raw, reference):
    """Counts of the correctness checks and the largest stated error."""
    extra_failed = 0
    if workload == "ded_contact":
        recs = records_ded_contact(raw, reference)
        stated = [r.error / abs(r.value) for r in recs if r.value]
    elif workload == "curve_ratio":
        recs, code = records_curve_ratio(raw, reference)
        extra_failed = int(code != 0)
        stated = [r.error / abs(r.value) for r in recs
                  if r.model == "ded" and r.value and math.isfinite(r.error)]
    else:
        recs = records_series_fit(raw)
        # the approximant's stated accuracy is its fit deviation
        stated = [r.value for r in recs if r.model == "fit" and r.value is not None]
    reasons = [(r, failure(r)) for r in recs]
    failed = [(r, why) for r, why in reasons if why is not None]
    unknown = [(r, why) for r, why in failed if not known_defect(r, why)]
    return {
        "attempted": len(recs) + extra_failed,
        "failed": len(failed) + extra_failed,
        "unknown_failures": len(unknown) + extra_failed,
        "failure_examples": [[r.model, r.y, r.u, r.value, why] for r, why in unknown[:5]],
        "rel_err_max": max(stated, default=0.0),
    }


# ---------------------------------------------------------------------------
# layer probes (traced runs only)

def median_call_us(fn, *args, repeat=200):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def probes_ded_contact(inputs):
    out = {}
    for r in (3, 4, 5):
        total = 0.0
        for dy, u in inputs["points"]:
            red = cs.from_invariants(1.0 + dy, u)
            t0 = time.perf_counter()
            cs.f_ded_roundtrip(red, r, SETTINGS)
            total += time.perf_counter() - t0
        out[f"electrolyte.roundtrip_r{r}_s"] = total
    plane = cs.from_invariants(1.01, 0.0)
    for r in (5, 6, 7, 8):
        t0 = time.perf_counter()
        cs.f_ded_roundtrip(plane, r, SETTINGS)
        out[f"electrolyte.plane_roundtrip_r{r}_s"] = time.perf_counter() - t0
    return out


def probes_series_fit(inputs):
    out = {
        "scalar.f_sc_total_contact_us":
            median_call_us(cs.f_sc_total, cs.from_invariants(1.0 + 1e-5, 0.1)),
        "scalar.f_sc_total_far_us":
            median_call_us(cs.f_sc_total, cs.from_invariants(1.0 + 1e2, 0.1)),
        "drude.capacitance_coeffs_contact_us":
            median_call_us(cs.capacitance_coeffs, cs.from_invariants(1.0 + 1e-4, 0.1)),
    }
    ys = 1.0 + np.logspace(-5, 4, 100_000)
    out["rational.phi_rm_vec_ms"] = median_call_us(
        cs.phi_rm, ys, cs.DVD_PARAMS, repeat=5) / 1e3
    times = []
    for _ in range(3):  # the body filled the phi_u cache: least squares only
        t0 = time.perf_counter()
        cs.refit("dvd", 0.1, grid=inputs["fit_grid"])
        times.append(time.perf_counter() - t0)
    out["rational.refit_warm_s"] = statistics.median(times)
    return out


def layer_metrics(workload, inputs, raw, tracer):
    """Per-layer numbers of a traced body; layers it does not run read 0."""
    m = dict.fromkeys(PER_LAYER, 0.0)

    def med_us(name):
        d = tracer.durations(name)
        return statistics.median(d) * 1e6 if d else 0.0

    m["electrolyte.f_ded_total_s"] = float(sum(tracer.durations("electrolyte.f_ded_total")))
    m["electrolyte.f1_ded_us"] = med_us("electrolyte.f1_ded")
    m["drude.f_dvd_total_us"] = med_us("drude.f_dvd_total")
    m["rational.f_approx_us"] = med_us("rational.f_approx")
    m["rational.max_deviation_s"] = float(sum(tracer.durations("rational.max_deviation")))
    m["geometry.from_invariants_us"] = med_us("geometry.from_invariants")
    if workload == "ded_contact":
        m["electrolyte.accuracy_warnings"] = sum(w for *_, w in raw)
        m.update(probes_ded_contact(inputs))
    elif workload == "series_fit":
        m.update(probes_series_fit(inputs))
    elif workload == "curve_ratio":
        flags = repeat_flags(curve_tasks(inputs["argv"]))
        m["cli.repeat_share"] = sum(flags) / len(flags)
    return m


def serial_curve(inputs, tracer):
    """The curve's top-level evaluations, serially through the library.

    Mirrors the CLI: the scalar and dvd series are summed to 1e-10, ded
    uses the default tol and r_max with the curve's quadrature seed.
    """
    fns = {
        "scalar": lambda red: cs.f_sc_total(red, tol=1e-10),
        "dvd": lambda red: cs.f_dvd_total(red, tol=1e-10),
        "ded": lambda red: cs.f_ded_total(red, settings=SETTINGS),
    }
    tasks = curve_tasks(inputs["argv"])
    n_warn = 0
    for model, y, u in tasks:
        red = cs.from_invariants(y, u)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", cs.AccuracyWarning)
            tracer.call("cli.point", fns[model], red)
        n_warn += sum(issubclass(w.category, cs.AccuracyWarning) for w in caught)
    work = tracer.durations("cli.point")
    flags = repeat_flags(tasks)
    total = sum(work)
    ded = [d for d, (model, _, _) in zip(work, tasks) if model == "ded"]
    return {
        "cli.point_work_s": total,
        "cli.repeat_work_share": sum(d for d, f in zip(work, flags) if f) / total,
        "electrolyte.f_ded_total_s": sum(ded),
        "electrolyte.accuracy_warnings": n_warn,
    }


# ---------------------------------------------------------------------------
# one interpreter

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "trace", "serial", "setup"), default="run")
    ap.add_argument("--size", choices=SIZES, default="full")
    args = ap.parse_args(argv)

    cs.f_sc_total(cs.from_invariants(2.0, 0.25))  # the cheap evaluation
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    inputs = make_inputs(args.workload, args.seed, args.size)
    result = {}
    if args.mode == "serial":
        tracer = Tracer()
        result["layers"] = serial_curve(inputs, tracer)
    else:
        tracer = Tracer() if args.mode == "trace" else None
        call = tracer.call if tracer else plain_call
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        raw = BODIES[args.workload](inputs, call)
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result["wall_s"] = wall
        result["cpu_s"] = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
        result["peak_rss_mb"] = ru1.ru_maxrss / 1024.0
        result.update(assess(args.workload, raw, load_reference()))
        if tracer:
            result["layers"] = layer_metrics(args.workload, inputs, raw, tracer)
            result["self_s"] = tracer.self_times()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
