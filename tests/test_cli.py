import collections
import dataclasses
import json
import math
import re
import threading

import pytest

from casimir_spheres import cli, validation
from casimir_spheres.cli import main
from casimir_spheres.electrolyte import ValueWithError
from casimir_spheres.errors import FitError
from casimir_spheres.models import MODELS
from casimir_spheres.scalar import ZETA3


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_equal_spheres(capsys):
    code, out, _ = run(capsys, "compute", "--L", "1", "--R1", "1", "--R2", "1",
                       "--model", "scalar")
    assert code == 0
    assert "y      = 3.5" in out
    m = re.search(r"model=scalar: f1 = ([0-9.eE+-]+)", out)
    assert float(m.group(1)) == pytest.approx(3.5 / 45.0, rel=1e-10)


def test_compute_plane_dvd(capsys):
    code, out, _ = run(capsys, "compute", "--L", "1", "--R1", "1", "--plane",
                       "--model", "dvd")
    assert code == 0
    assert "y      = 2" in out
    m = re.search(r"model=dvd: f1 = ([0-9.eE+-]+)", out)
    assert float(m.group(1)) == pytest.approx(1.0 / 24.0, rel=1e-10)


def test_compute_reduced_ded(capsys):
    code, out, _ = run(capsys, "compute", "--y", "2", "--u", "0.25",
                       "--model", "ded")
    assert code == 0
    m = re.search(r"model=ded: f1 = ([0-9.eE+-]+)", out)
    assert float(m.group(1)) == pytest.approx(0.0199981, rel=1e-4)


def test_compute_with_temperature(capsys):
    code, out, _ = run(capsys, "compute", "--y", "2", "--u", "0.25",
                       "--model", "scalar", "--T", "296")
    assert code == 0
    assert "F_T" in out and "k_B" in out


@pytest.mark.parametrize("argv, flags", [(["--R2", "1", "--y", "2"], ["--y", "--R2"]),
                                         (["--R2", "5", "--plane"], ["--R2", "--plane"])],
                         ids=["y", "plane"])
def test_compute_rejects_conflicting_geometry(capsys, argv, flags):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "compute", "--L", "1", "--R1", "1", *argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert all(flag in err for flag in flags)


@pytest.mark.parametrize("model", ["scalar", "dvd", "ded"])
def test_compute_large_y_exits_cleanly(capsys, model):
    for y in ("1e12", "1e120", "1e200"):
        for u in ("0", "0.1", "0.25"):
            try:
                code = main(["compute", "--y", y, "--u", u, "--model", model])
            except SystemExit as exc:
                code = exc.code
            err = capsys.readouterr().err
            assert code in (0, 2, 3), (y, u, err)
            assert "Traceback" not in err


@pytest.mark.parametrize("argv, expected, message", [
    (["compute", "--y", "2", "--u", "1e-300", "--model", "ded"], 3, "overflows at u = 1e-300"),
    (["curve", "--model", "ded", "--quantity", "phi", "--u", "1e-300", "--out", "-"], 0,
     "0.01,1e-300,ded,phi,nan,nan"),
    (["compute", "--L", "1", "--R1", "1e200", "--R2", "1e200"], 2, "radii R1 = 1e+200"),
    (["compute", "--L", "1", "--R1", "1e-200", "--R2", "1e-200"], 2, "radii R1 = 1e-200"),
])
def test_overflowing_inputs_exit_with_typed_code(capsys, argv, expected, message):
    # each used to end in a raw OverflowError or ZeroDivisionError; where
    # compute exits 3, curve writes a nan row
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == expected
    out = capsys.readouterr()
    assert message in (out.out if expected == 0 else out.err)


@pytest.mark.parametrize("quantity", cli.QUANTITIES)
def test_curve_writes_nan_rows_where_f1_overflows(capsys, quantity):
    # f1_ded overflows at u = 1e-300 (ConvergenceError): through f1 or
    # through the total, every row is nan and curve exits 0
    assert main(["curve", "--model", "ded", "--quantity", quantity, "--u", "1e-300",
                 "--ymin", "1", "--ymax", "2", "--points", "2", "--out", "-"]) == 0
    rows = capsys.readouterr().out.splitlines()[4:]
    assert len(rows) == 2
    assert all(row.endswith(",nan,nan") for row in rows), rows


@pytest.mark.parametrize("argv", [["--model", "ded", "--y", "1e12", "--u", "0.1"],
                                  ["--model", "dvd", "--y", "1e200", "--u", "0.1"]])
def test_compute_rejects_nonpositive_f1(capsys, argv):
    # at this y the closed form has lost every digit and changed sign
    with pytest.raises(SystemExit) as exc:
        main(["compute", *argv])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert re.search(r"f1 = -[0-9.]+e-\d+ .* not positive", err), err


def test_compute_rejects_nonpositive_total(capsys):
    # f_dvd_total's two terms cancel at this y and leave f = -6.9e-17, phi = -185
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--model", "dvd", "--y", "1e6", "--u", "0.25"])
    assert exc.value.code == 3
    out = capsys.readouterr()
    assert "phi" not in out.out
    assert re.search(r"f = -[0-9.]+e-\d+ .* not positive", out.err), out.err


def test_compute_all_reports_every_failed_model(capsys):
    # dvd (f1 = 0) and ded (f1 < 0) both fail here; scalar still prints
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--y", "1e12", "--u", "0.1"])
    assert exc.value.code == 3
    out = capsys.readouterr()
    assert re.search(r"model=scalar: f1 = [0-9.e+-]+  f = ", out.out), out.out
    assert re.search(r"model=dvd: f1 = .* not positive", out.err), out.err
    assert re.search(r"model=ded: f1 = .* not positive", out.err), out.err


def test_compute_rejects_invalid_values(capsys):
    code, _, err = run(capsys, "compute", "--y", "0.5", "--u", "0.1")
    assert code == 2
    assert "y" in err
    for T in ("nan", "0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--y", "2", "--u", "0.1", "--T", T])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "--T" in out.err, (T, out)


GRID = ["--ymin", "1", "--ymax", "2", "--points", "2"]


@pytest.mark.parametrize("argv, config, flag", [
    (["compute", "--y", "2", "--u", "0.1", "--tol", "nan"], None, "--tol"),
    (["compute", "--y", "2", "--u", "0.1", "--rmax", "0", "--model", "ded"], None, "--rmax"),
    (["curve", "--model", "dvd", "--tol", "2", *GRID], None, "--tol"),
    (["curve", "--model", "scalar", "--rmax", "-3", *GRID], None, "--rmax"),
    (["compute", "--y", "2", "--u", "0.1"], {"tol": "nan"}, "--tol"),
    (["compute", "--y", "2", "--u", "0.1", "--seed", "1"], None, "--seed"),
    (["compute", "--y", "2", "--u", "0.1"], {"seed": 1}, "seed"),
], ids=["compute-tol-nan", "compute-ded-rmax-0", "curve-dvd-tol-2", "curve-scalar-rmax-neg",
        "config-tol-nan", "compute-seed", "config-compute-seed"])
def test_totals_flags_checked_before_output(tmp_path, capsys, argv, config, flag):
    # every model, from argv or --config: exit 2 before the geometry lines or a CSV;
    # compute draws nothing at random, so it has no --seed
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert flag in out.err


@pytest.mark.parametrize("y", ["2", "3"])
def test_compute_ded_meets_any_tol(capsys, y):
    # ded takes its value at the second truncation, whose roundoff bound meets any
    # tol: the change from the first is 0 at y = 2 and 3.5e-18 at y = 3
    assert main(["compute", "--y", y, "--u", "0.1", "--model", "ded", "--tol", "1e-300"]) == 0
    assert re.search(r"model=ded: f1 = \S+  f = ", capsys.readouterr().out)


def test_curve_keeps_a_failed_ded_point_to_itself(capsys):
    # u = 1e-300 (f1_ded overflows) and u = 0.1 share one recursion per y:
    # the failure writes nan rows for its own u only
    assert main(["curve", "--model", "ded", "--quantity", "f", "--u", "1e-300,0.1",
                 *GRID, "--out", "-"]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[4:]]
    assert [row[:4] for row in rows] == [[dy, u, "ded", "f"] for u in ("1e-300", "0.1")
                                         for dy in ("1", "2")]
    assert all(row[4:] == ["nan", "nan"] for row in rows[:2]), rows
    assert all(math.isfinite(float(row[4])) and float(row[4]) > 0 for row in rows[2:]), rows
    assert main(["compute", "--model", "ded", "--y", "2", "--u", "0.1"]) == 0
    f = re.search(r" f = (\S+)", capsys.readouterr().out).group(1)
    assert rows[2][4] == f  # y - 1 = 1: both print 12 significant digits


def test_curve_determinism_and_format(tmp_path, capsys):
    out_path = tmp_path / "data.csv"
    args = ["curve", "--model", "dvd", "--quantity", "f", "--u", "0,0.25",
            "--ymin", "0.1", "--ymax", "10", "--points", "3",
            "--seed", "7", "--out", str(out_path)]
    assert main(args) == 0
    first = out_path.read_bytes()
    assert main(args) == 0
    assert out_path.read_bytes() == first
    lines = first.decode().splitlines()
    assert lines[0].startswith("# casimir-spheres")
    assert lines[1].startswith("# invocation:")
    assert lines[2] == "# seed: 7"
    assert lines[3] == "y_minus_1,u,model,quantity,value,error_estimate"
    rows = lines[4:]
    assert len(rows) == 6  # 2 u-values x 3 points
    capsys.readouterr()


def test_curve_row_count_two_point_grid(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    for u in ("0.1", "0.1,0.1"):  # a repeated u adds no rows
        assert main(["curve", "--model", "all", "--quantity", "f1", "--u", u,
                     "--ymin", "1", "--ymax", "2", "--points", "2",
                     "--out", str(out_path)]) == 0
        rows = out_path.read_text().splitlines()[4:]
        assert len(rows) == 6, u  # 3 models x 1 u x 2 points
    capsys.readouterr()


def test_curve_evaluates_each_total_once_on_calling_thread(monkeypatch, capsys):
    calls, batches = [], []

    def counted(name):
        def totals(reds, tol):
            batches.append((name, reds[0].y, [red.u for red in reds]))
            calls.extend((threading.current_thread(), (name, red.y, red.u)) for red in reds)
            return [ValueWithError(1.0, 0.0) for _ in reds]
        return totals

    for name, model in MODELS.items():
        monkeypatch.setitem(MODELS, name, dataclasses.replace(model, raw_totals=counted(name)))
    assert main(["curve", "--model", "all", "--quantity", "ratio_u_over_quarter",
                 "--u", "0,0.1", "--ymin", "1", "--ymax", "4", "--points", "3",
                 "--out", "-"]) == 0
    capsys.readouterr()
    keys = [key for _, key in calls]
    # 3 models x (2 u + the shared u = 1/4 reference) x 3 points
    assert len(keys) == len(set(keys)) == 27
    assert {u for *_, u in keys} == {0.0, 0.1, 0.25}
    assert {thread for thread, _ in calls} == {threading.current_thread()}
    # every model sums the three u of each y in one batch
    assert sorted(batches) == [(name, y, [0.0, 0.1, 0.25])
                               for name in sorted(MODELS) for y in (2.0, 3.0, 5.0)]


@pytest.mark.parametrize("quantity", ["f1", "f_approx"])
def test_curve_of_f1_or_f_approx_sums_no_total(monkeypatch, capsys, quantity):
    def unexpected(*args, **kwargs):
        raise AssertionError("a total was summed")

    for name, model in MODELS.items():
        monkeypatch.setitem(MODELS, name, dataclasses.replace(model, raw_totals=unexpected))
    assert main(["curve", "--model", "ded", "--quantity", quantity, "--u", "0,0.1",
                 "--ymin", "1", "--ymax", "4", "--points", "3", "--out", "-"]) == 0
    rows = capsys.readouterr().out.splitlines()[4:]
    assert len(rows) == 6 and not any("nan" in row for row in rows)


def test_curve_rejects_non_finite_grid(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--model", "dvd", "--ymax", "1e400"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--ymax" in out.err, out


def test_curve_phi_quantity(tmp_path, capsys):
    out_path = tmp_path / "phi.csv"
    assert main(["curve", "--model", "dvd", "--quantity", "phi", "--u", "0.25",
                 "--ymin", "0.1", "--ymax", "100", "--points", "4",
                 "--out", str(out_path)]) == 0
    rows = out_path.read_text().splitlines()[4:]
    vals = [float(r.split(",")[4]) for r in rows]
    assert all(1.0 < v < 1.2121 for v in vals)
    assert vals == sorted(vals, reverse=True)
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    [f"--quantity={q}", "--model=dvd", "--u=0.1", "--ymin=1e199", "--ymax=1e200"]
    for q in ("f1", "phi", "phi_over_quarter", "f_approx")
] + [[f"--quantity={q}", "--model=ded", "--ymin=1e11", "--ymax=1e12"]
     for q in ("f1", "phi", "phi_over_quarter", "f_approx", "f", "ratio_u_over_quarter")])
def test_curve_marks_nonpositive_f1_nan(capsys, argv):
    # f1's closed form, and for ded the total, has changed sign at these y;
    # rows read through it used to carry f1 = -2.5e-201, phi = -2, f = -1.7e-23
    # or a negative error estimate
    assert main(["curve", *argv, "--points", "2", "--out", "-"]) == 0
    rows = capsys.readouterr().out.splitlines()[4:]
    assert len(rows) == 2
    assert all(row.endswith(",nan,nan") for row in rows), rows


def test_config_file_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 3, "u": "0.25", "ymin": 0.5, "ymax": 5.0}))
    out_path = tmp_path / "cfg_curve.csv"
    # --points on the command line beats the config value
    assert main(["curve", "--model", "scalar", "--quantity", "f1",
                 "--config", str(cfg), "--points", "2",
                 "--out", str(out_path)]) == 0
    rows = out_path.read_text().splitlines()[4:]
    assert len(rows) == 2
    # --linear beats a config "log", although both set the same dest
    cfg.write_text(json.dumps({"log": True}))
    assert main(["curve", "--model", "scalar", "--quantity", "f1", "--linear",
                 "--config", str(cfg), "--ymin", "1", "--ymax", "9", "--points", "3",
                 "--out", str(out_path)]) == 0
    ys = [r.split(",")[0] for r in out_path.read_text().splitlines()[4:]]
    assert ys == ["1", "5", "9"]
    capsys.readouterr()


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    # unknown keys, and values that the key's flag does not accept;
    # fit sums no totals, so it has no tol
    for argv, doc, word in [(["curve", "--model", "scalar"], {"bogus": 1}, "bogus"),
                            (["curve", "--model", "scalar"], {"linear": True}, "linear"),
                            (["curve", "--model", "scalar"], {"points": 3.5}, "--points"),
                            (["curve", "--model", "scalar"], {"tol": "x"}, "--tol"),
                            (["compute", "--model", "scalar"], {"tol": "x"}, "--tol"),
                            (["compute", "--model", "scalar"], {"plane": 1}, "plane"),
                            (["fit", "--model", "dvd"], {"tol": 1e-6}, "tol")]:
        cfg.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(cfg)])
        assert exc.value.code == 2
        assert word in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["fit", "--model", "dvd", "--tol", "1e-6"],
                                  ["validate", "--rmax", "3"],
                                  ["validate", "--seed", "1"],
                                  # validate has no flag a config file could set
                                  ["validate", "--config", "empty.json"]])
def test_fit_and_validate_have_no_total_flags(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments" in out.err


def test_validate_bounds_phi_by_zeta3(monkeypatch, capsys):
    # the plane-wave lines take seconds and are not the subject here
    monkeypatch.setattr(cli, "planewave_r1_deviations", lambda: iter(()))
    monkeypatch.setattr(cli, "phi_u", lambda red, model: ZETA3 + 0.005)
    assert main(["validate"]) == 1
    out = capsys.readouterr().out
    assert out.count("banded vs dense") == 5
    assert out.count("[FAIL] phi_ded") == 2


def test_validate_labels_planewave_lines_by_registry_name(monkeypatch, capsys):
    # the quadrature takes seconds; its closed form passes, and the labels are the subject
    monkeypatch.setattr(validation, "f_roundtrip_planewave",
                        lambda name, red, r: ValueWithError(MODELS[name].f1(red), 0.0))
    assert main(["validate"]) == 0
    names = re.findall(r"^\[PASS\] plane-wave r=1 (\S+) ", capsys.readouterr().out, re.M)
    assert collections.Counter(names) == {name: 3 for name in MODELS}


def test_config_checks_choices_before_output(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"model": "bogus", "y": 2, "u": 0.1}))
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--config", str(cfg)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "bogus" in out.err


def test_fit_model_from_config(tmp_path, capsys):
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({"model": "dvd", "points": 20, "n": 1}))
    assert main(["fit", "--config", str(cfg)]) == 0
    assert "fitted n=1 parameters for dvd" in capsys.readouterr().out
    cfg.write_text(json.dumps({"points": 20}))
    for argv in (["fit"], ["fit", "--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "--model" in out.err


@pytest.mark.parametrize("command", ["compute", "curve", "fit"])
def test_config_accepts_every_flag(tmp_path, monkeypatch, command):
    seen = {}
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: seen.update(vars(args)) or 0)
    argv = [command, "--model", "dvd"] if command == "fit" else [command]
    defaults = vars(cli.build_parser().parse_args(argv))
    doc = {key: 1 if value is None else value for key, value in defaults.items()
           if key not in ("command", "func", "config")}
    cfg = tmp_path / "all.json"
    cfg.write_text(json.dumps(doc))
    assert main(argv + ["--config", str(cfg)]) == 0
    assert set(doc) <= set(seen)
    assert all(seen[key] == value for key, value in doc.items() if defaults[key] is not None)


def test_fit_rejects_bad_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--model", "ded", "--n", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_fit_failure_exits_3(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise FitError("injected")

    monkeypatch.setattr(cli, "refit", fail)
    assert main(["fit", "--model", "dvd"]) == 3
    assert "injected" in capsys.readouterr().err


def test_fit_without_finite_targets_exits_3(capsys):
    # far out f or f1 is not positive: refit names the first such y instead of fitting it
    assert main(["fit", "--model", "dvd", "--ymin", "1e5", "--ymax", "1e9",
                 "--points", "20"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure: no fit target at y = "), err


def test_fit_writes_params_json(tmp_path, capsys):
    out_path = tmp_path / "params.json"
    assert main(["fit", "--model", "dvd", "--uref", "0.1", "--n", "2",
                 "--points", "50", "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["model"] == "dvd"
    assert doc["n"] == 2
    assert len(doc["nu"]) == 2 and len(doc["mu"]) == 2
    assert doc["epsilon"] < 6e-3
    assert "grid_spec" in doc and "seed" in doc
    capsys.readouterr()


def test_curve_f_approx_from_fitted_file(tmp_path, capsys):
    params = tmp_path / "p.json"
    assert main(["fit", "--model", "dvd", "--uref", "0.1", "--n", "2",
                 "--points", "40", "--out", str(params)]) == 0
    out_path = tmp_path / "fa.csv"
    assert main(["curve", "--model", "dvd", "--quantity", "f_approx",
                 "--u", "0.1", "--ymin", "0.5", "--ymax", "10", "--points", "3",
                 "--params", str(params), "--out", str(out_path)]) == 0
    rows = out_path.read_text().splitlines()[4:]
    assert len(rows) == 3
    assert all(float(r.split(",")[4]) > 0 for r in rows)
    capsys.readouterr()


@pytest.mark.parametrize("grid", [["--ymin", "0"], ["--ymin", "-1"],
                                  ["--ymin", "5", "--ymax", "1"], ["--points", "1"],
                                  ["--ymin", "nan"], ["--ymax", "inf"]])
def test_fit_rejects_bad_grid(grid, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--model", "dvd", *grid])
    assert exc.value.code == 2
    assert grid[0].lstrip("-") in capsys.readouterr().err


def test_fit_grid_of_at_most_2n_points_exits_2(capsys):
    assert main(["fit", "--model", "dvd", "--points", "2", "--n", "3"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "more than 2n = 6" in out.err


@pytest.mark.parametrize("content", [None, "not json", json.dumps({"model": "dvd", "n": 2}),
                                     json.dumps({"model": "ded", "n": 1, "nu": [1.0], "mu": [1.0]}),
                                     json.dumps({"model": "dvd", "n": 3, "nu": [1.0, 2.0],
                                                 "mu": [1.0, 2.0]}),
                                     '{"model": "dvd", "n": 1, "nu": [NaN], "mu": [Infinity]}',
                                     '{"model": "dvd", "n": 1, "nu": [1.0], "mu": [NaN]}'])
def test_curve_f_approx_rejects_bad_params_file(tmp_path, capsys, content):
    params = tmp_path / "p.json"
    if content is not None:
        params.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--model", "dvd", "--quantity", "f_approx", "--u", "0.1",
              "--params", str(params)])
    assert exc.value.code == 2
    assert "cannot read parameters" in capsys.readouterr().err
