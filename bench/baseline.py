"""Repeat benchmark runs over seeds and summarise each metric.

    python3 bench/baseline.py --seeds 1-10 --seconds 30 --out bench/BENCH_baseline.json

For every workload, runs ``run.py`` once per seed with tracing off and
reports each end-to-end metric's median, quartiles and spread (quartile
distance over the median, quartiles as ``statistics.quantiles(n=4)``
gives them).  ``--traced`` adds one traced run per workload on the first
seed.  Every run is a separate process, one after the other.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10", help="a range a-b or a list a,b,c")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    doc = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            info, result = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            doc.setdefault("provenance", {k: v for k, v in info.items()
                                          if k not in ("workload", "seed", "trace")})
            print(workload, seed, {k: round(m["value"], 6)
                                   for k, m in result["metrics"].items()}, flush=True)
        names = runs[0]["metrics"]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": {name: dict(unit=names[name]["unit"], **summarise(
                [r["metrics"][name]["value"] for r in runs])) for name in names},
        }
        if args.traced:
            entry["traced"] = run_once(workload, seeds[0], args.seconds, 1)[1]
        doc["workloads"][workload] = entry
        for name, m in entry["metrics"].items():
            print(f"  {workload:12s} {name:12s} median {m['median']:.6g} {m['unit']:3s} "
                  f"spread {m['spread'] if m['spread'] is None else round(m['spread'], 4)}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
