"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest bench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads as wl
from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_metric_tables_match_benchmark_json():
    doc = bench_json()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace and workload == "curve_ratio":
        assert result["metrics"]["cli.repeat_share"]["value"] == 1 / 3


@pytest.mark.parametrize("size", wl.SIZES)
@pytest.mark.parametrize("seed", (0, 7))
def test_curve_repeat_share_is_one_third(size, seed):
    argv = wl.make_inputs("curve_ratio", seed, size)["argv"]
    flags = wl.repeat_flags(wl.curve_tasks(argv))
    assert sum(flags) / len(flags) == 1 / 3


def test_inputs_depend_only_on_seed():
    for workload in wl.WORKLOADS:
        a = wl.make_inputs(workload, 3)
        b = wl.make_inputs(workload, 3)
        assert repr(a) == repr(b)


def test_series_fit_seed_changes_only_the_order():
    a = wl.make_inputs("series_fit", 0, "tiny")
    b = wl.make_inputs("series_fit", 7, "tiny")
    assert a["points"] != b["points"]
    assert sorted(a["points"]) == sorted(b["points"])
    counts = [wl.assess("series_fit", wl.body_series_fit(inputs, wl.plain_call), {})
              for inputs in (a, b)]
    # the known dvd failures are the same at every seed
    assert counts[0]["failed"] > 0
    assert (counts[0]["attempted"], counts[0]["failed"]) == \
        (counts[1]["attempted"], counts[1]["failed"])


def _ded_with(monkeypatch, fake):
    monkeypatch.setattr(wl.cs, "f_ded_total", fake)
    inputs = wl.make_inputs("ded_contact", 0, "tiny")
    raw = wl.body_ded_contact(inputs, wl.plain_call)
    return wl.assess("ded_contact", raw, wl.load_reference())


def test_reference_value_passes(monkeypatch):
    ref = wl.load_reference()["ded_contact"]

    def fake(red, **kwargs):
        return wl.cs.ValueWithError(*ref[wl.point_key(red.y - 1.0, red.u)])

    out = _ded_with(monkeypatch, fake)
    assert (out["attempted"], out["failed"]) == (1, 0)


def test_negated_value_is_a_failure(monkeypatch):
    ref = wl.load_reference()["ded_contact"]

    def fake(red, **kwargs):
        value, error = ref[wl.point_key(red.y - 1.0, red.u)]
        return wl.cs.ValueWithError(-value, error)

    out = _ded_with(monkeypatch, fake)
    assert (out["attempted"], out["failed"], out["unknown_failures"]) == (1, 1, 1)


def test_raised_casimir_error_is_a_failure(monkeypatch):
    def fake(red, **kwargs):
        raise wl.cs.QuadratureError("injected")

    out = _ded_with(monkeypatch, fake)
    assert (out["attempted"], out["failed"], out["unknown_failures"]) == (1, 1, 1)


def test_value_off_the_reference_is_a_failure(monkeypatch):
    ref = wl.load_reference()["ded_contact"]

    def fake(red, **kwargs):
        value, error = ref[wl.point_key(red.y - 1.0, red.u)]
        return wl.cs.ValueWithError(value + 3.0 * error, error)

    assert _ded_with(monkeypatch, fake)["failed"] == 1


def test_failure_windows():
    assert wl.failure(wl.Record("scalar", 1.07, 0.1, 1.0)) is None
    assert wl.failure(wl.Record("scalar", 1.07, 0.1, float("nan"))) == "non-positive"
    # the dvd/ded window is open at 1; approximants may reach 1 exactly
    assert wl.failure(wl.Record("dvd", 2.0, 0.1, 1.0, f1=1.0)) == "phi"
    assert wl.failure(wl.Record("approx", 2.0, 0.1, 1.0, f1=1.0)) is None
    assert wl.failure(wl.Record("ded", 2.0, 0.1, 1.3, f1=1.0)) == "phi"
    assert wl.failure(wl.Record("fit", 2.0, 0.1, 0.02)) == "fit"


def test_known_defect_is_only_large_y_dvd_phi():
    far = wl.Record("dvd", 500.0, 0.1, 1.0, f1=1.0)
    near = wl.Record("dvd", 50.0, 0.1, 1.0, f1=1.0)
    assert wl.known_defect(far, wl.failure(far))
    assert not wl.known_defect(near, wl.failure(near))
    assert not wl.known_defect(far, "raised")


def test_exits_without_result_when_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "series_fit", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
