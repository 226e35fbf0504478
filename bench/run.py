"""Benchmark of casimir-spheres: one run of one workload.

    python3 bench/run.py --workload ded_contact --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every timed body runs in a fresh
interpreter (``workloads.py``), so the package's process-global caches
start cold, as they do for every CLI invocation.  With ``--trace 0`` the
run repeats the untraced body until ``--seconds`` is used up (at least
once), adds set-up probes, and reports the end-to-end metrics as medians
over those interpreters.  With ``--trace 1`` it runs the body once
untraced and once traced (plus, for curve_ratio, once serially through
the library) and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine and the settings.  A copy of both, with every sample,
goes to ``.bench_out/``.  The run exits with 2, printing no result, when
the checkout has no ``src/casimir_spheres``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKER = HERE / "workloads.py"

SETUP_PROBES = 3
RUN_LIMIT_S = 170.0
# One worker in the CLI pool.  With two, the curve's threads share the GIL
# on a 2-core VM, and a busier host stretches the wait for it: measured,
# curve_ratio's wall time rose from 17 to 23 s while its CPU time rose from
# 31 to 35 s, and the one-thread workloads moved by under 8 %.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "CASIMIR_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def spawn(workload, seed, mode, size, deadline):
    """One fresh interpreter; returns (setup seconds, result dict)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--size", size]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))[0]
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{mode} interpreter for {workload} ran past the time limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{mode} interpreter for {workload} failed "
                         f"(exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else {})


def provenance(workload, seed, seconds, trace):
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "openblas": blas,
        "threads": THREAD_ENV, "fresh_interpreter_per_body": True,
    }


def untraced(workload, seed, seconds, size, deadline):
    start = time.perf_counter()
    setups, reps = [], []
    while True:
        setup, res = spawn(workload, seed, "run", size, deadline)
        setups.append(setup)
        reps.append(res)
        used = time.perf_counter() - start
        if used + used / len(reps) > seconds:
            break
    for _ in range(SETUP_PROBES):
        setups.append(spawn(workload, seed, "setup", size, deadline)[0])

    def med(key):
        return statistics.median(r[key] for r in reps)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    metrics = {
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": med("peak_rss_mb"),
        "pass_frac": 1.0 - failed / attempted,
        "rel_err_max": med("rel_err_max"),
    }
    return reps, setups, metrics


def traced(workload, seed, size, deadline):
    _, base = spawn(workload, seed, "run", size, deadline)
    _, res = spawn(workload, seed, "trace", size, deadline)
    layers = res["layers"]
    if workload == "curve_ratio":
        layers.update(spawn(workload, seed, "serial", size, deadline)[1]["layers"])
        layers["cli.pool_efficiency"] = layers["cli.point_work_s"] / (
            base["wall_s"] * int(THREAD_ENV["CASIMIR_NUM_THREADS"]))
    layers["trace_overhead"] = res["wall_s"] / base["wall_s"] - 1.0
    return [base, res], layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="casimir-spheres benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs each workload on a few inputs (the benchmark's tests)")
    args = ap.parse_args(argv)
    if not (SRC / "casimir_spheres" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    info = provenance(args.workload, args.seed, args.seconds, args.trace)
    try:
        if args.trace:
            samples, metrics = traced(args.workload, args.seed, args.size, deadline)
            units = PER_LAYER
            setups = []
        else:
            samples, setups, metrics = untraced(args.workload, args.seed, args.seconds,
                                                args.size, deadline)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    check = samples[0]
    result = {
        "correct": all(s["unknown_failures"] == 0 for s in samples),
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    if check["failure_examples"]:
        info["failure_examples"] = check["failure_examples"]
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"provenance": info, "setup_s": setups, "samples": samples,
                               "result": result}, indent=1), encoding="utf-8")
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
