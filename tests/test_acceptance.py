"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion.  The dielectric-electrolyte near-contact PFA rows of
criterion 1 measure the true distance-to-limit of that model at
y - 1 = 1e-3; see the repository notes for the numerical evidence
behind the recorded values.
"""
import math
import time

import numpy as np
import pytest

from casimir_spheres.cli import main as cli_main
from casimir_spheres.drude import f1_dvd, f_dvd_total
from casimir_spheres.electrolyte import f1_ded, f_ded_roundtrip, f_ded_total
from casimir_spheres.errors import ConvergenceError
from casimir_spheres.geometry import from_invariants
from casimir_spheres.models import get_model
from casimir_spheres.rational import builtin_params, phi_rm, phi_u, refit
from casimir_spheres.scalar import ZETA3, f_sc_roundtrip, f_sc_total
from casimir_spheres.validation import (banded_determinant_deviations,
                                        planewave_r1_deviations)

PFA = ZETA3 / 8.0


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared phi tables (criterion 7; reused by 8 and 9 where grids overlap)

GRID_Y = 1.0 + np.logspace(-2, 1, 100)
GRID_U = (0.0, 0.016, 0.04, 0.1, 0.25)


def _value(res):
    """A ``Model.totals`` entry's value; raises the entry's error."""
    if isinstance(res, ConvergenceError):
        raise res
    return res.value


def _tables(model, ys, us):
    """{u: (f, phi)} over ``ys``, from one ``Model.totals`` call over the
    grid: the ded engine runs its points in a few recursions.  phi = f/f1
    is formed as ``phi_u`` forms it."""
    m = get_model(model)
    points = [(float(y), u) for y in ys for u in us]
    f = np.array([_value(res) for res in m.totals(points)]).reshape(len(ys), len(us))
    f1 = np.array([[m.f1(from_invariants(float(y), u)) for u in us] for y in ys])
    return {u: (f[:, k], f[:, k] / f1[:, k]) for k, u in enumerate(us)}


@pytest.fixture(scope="session")
def ded_phi_table():
    return {u: phi for u, (_, phi) in _tables("ded", GRID_Y, GRID_U).items()}


@pytest.fixture(scope="session")
def dvd_phi_table():
    return {u: phi for u, (_, phi) in _tables("dvd", GRID_Y, GRID_U).items()}


# ---------------------------------------------------------------------------
# criterion 1: PFA universality at y - 1 = 1e-3


def test_criterion_1_pfa_scalar():
    red = from_invariants(1.001, 0.25)
    val = (red.y - 1.0) * f_sc_total(red)
    rel = val / PFA - 1.0
    ok = abs(rel) < 0.005
    assert report("criterion 1 (PFA, scalar)", ok, f"(y-1)f = {val:.6f}, rel {rel:+.3%}")


def test_criterion_1_pfa_dvd():
    oks = []
    details = []
    for u in (0.0, 0.25):
        red = from_invariants(1.001, u)
        val = (red.y - 1.0) * f_dvd_total(red)
        rel = val / PFA - 1.0
        oks.append(abs(rel) < 0.02)
        details.append(f"u={u}: rel {rel:+.3%}")
    ok = all(oks)
    assert report("criterion 1 (PFA, DvD)", ok, "; ".join(details))


def test_criterion_1_pfa_ded():
    t0 = time.monotonic()
    oks = []
    details = []
    for u in (0.0, 0.25):
        red = from_invariants(1.001, u)
        val = (red.y - 1.0) * f_ded_total(red, tol=0.02).value
        rel = val / PFA - 1.0
        oks.append(abs(rel) < 0.02)
        details.append(f"u={u}: rel {rel:+.3%}")
    runtime = time.monotonic() - t0
    details.append(f"runtime {runtime:.0f}s")
    ok = all(oks) and runtime < 60.0
    assert report("criterion 1 (PFA, ded)", ok, "; ".join(details)), (
        "the exact dielectric-electrolyte value lies -2.343% (u=0) and -2.369% "
        "(u=1/4) from zeta(3)/8 at y-1=1e-3; the deficit decays like "
        "(y-1) log^2(1/(y-1)), so the 2% window is unattainable for this model"
    )


# ---------------------------------------------------------------------------
# criterion 2: dipolar asymptotes at y = 1e3


def test_criterion_2_dipole_asymptotes():
    y = 1e3
    vals = {
        ("dvd", 0.25): f_dvd_total(from_invariants(y, 0.25)),
        ("dvd", 0.0): f_dvd_total(from_invariants(y, 0.0)),
        ("ded", 0.25): f_ded_total(from_invariants(y, 0.25)).value,
        ("ded", 0.0): f_ded_total(from_invariants(y, 0.0)).value,
    }
    targets = {("dvd", 0.25): 3.0 / 8.0, ("dvd", 0.0): 1.0 / 4.0,
               ("ded", 0.25): 3.0 / 32.0, ("ded", 0.0): 1.0 / 8.0}
    oks = []
    details = []
    for key, target in targets.items():
        rel = y**3 * vals[key] / target - 1.0
        oks.append(abs(rel) < 0.005)
        details.append(f"{key[0]} u={key[1]}: {rel:+.2%}")
    ratios = [
        (vals[("dvd", 0.0)] / vals[("dvd", 0.25)], 2.0 / 3.0, "DvD u0/u"),
        (vals[("ded", 0.0)] / vals[("ded", 0.25)], 4.0 / 3.0, "ded u0/u"),
        (vals[("dvd", 0.0)] / vals[("ded", 0.0)], 2.0, "DvD/ded u=0"),
        (vals[("dvd", 0.25)] / vals[("ded", 0.25)], 4.0, "DvD/ded u=1/4"),
    ]
    for got, want, name in ratios:
        rel = got / want - 1.0
        oks.append(abs(rel) < 0.01)
        details.append(f"{name}: {rel:+.2%}")
    ok = all(oks)
    assert report("criterion 2 (dipole)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 3: closed-form spot values


def test_criterion_3_spot_values():
    checks = [
        ("f1_DvD(2, 1/4)", f1_dvd(from_invariants(2.0, 0.25)), 0.05),
        ("f1_DvD(2, 0)", f1_dvd(from_invariants(2.0, 0.0)), 1.0 / 24.0),
        ("f1_ded(2, 0)", f1_ded(from_invariants(2.0, 0.0)),
         0.5 * (1.0 / 3.0 + math.log(0.75))),
        ("f_sc^(2)(2)", f_sc_roundtrip(from_invariants(2.0, 0.1), 2), 7.0 / 384.0),
    ]
    oks = []
    details = []
    for name, got, want in checks:
        rel = abs(got / want - 1.0)
        oks.append(rel < 1e-12)
        details.append(f"{name}: rel {rel:.1e}")
    ok = all(oks)
    assert report("criterion 3 (spot values)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 4: plane-wave oracle reproduces the closed forms at r = 1


def test_criterion_4_oracle_equivalence():
    t0 = time.monotonic()
    worst = max(rel for *_, rel in planewave_r1_deviations())
    runtime = time.monotonic() - t0
    ok = worst < 1e-5 and runtime < 60.0
    assert report("criterion 4 (oracle r=1)", ok,
                  f"worst rel {worst:.1e}; runtime {runtime:.0f}s")


# ---------------------------------------------------------------------------
# criterion 5: subset-expansion engine vs closed form at r = 1


def test_criterion_5_engine_r1():
    worst = 0.0
    for (y, u) in [(1.5, 0.25), (2.0, 0.1), (2.0, 0.25), (3.0, 0.04), (10.0, 0.25)]:
        red = from_invariants(y, u)
        got = f_ded_roundtrip(red, 1).value
        worst = max(worst, abs(got / f1_ded(red) - 1.0))
    ok = worst < 1e-8
    assert report("criterion 5 (ded engine r=1)", ok, f"worst rel {worst:.1e}")


# ---------------------------------------------------------------------------
# criterion 6: the banded ded determinant agrees with dense linear algebra


def test_criterion_6_determinant_oracle():
    worst = max(rel for *_, rel in banded_determinant_deviations())
    ok = worst < 1e-12
    assert report("criterion 6 (determinants)", ok, f"banded vs dense worst rel {worst:.1e}")


# ---------------------------------------------------------------------------
# criterion 7: Table-style parameter reproduction and refit


def test_criterion_7_builtin_deviation_ded(ded_phi_table):
    worst = 0.0
    for u in GRID_U:
        dev = np.abs(ded_phi_table[u] / phi_rm(GRID_Y, builtin_params("ded")) - 1.0)
        worst = max(worst, float(dev.max()))
    ok = worst <= 2e-3
    assert report("criterion 7 (built-in ded)", ok, f"epsilon {worst:.2e} <= 2e-3")


def test_criterion_7_builtin_deviation_dvd(dvd_phi_table):
    worst = 0.0
    for u in GRID_U:
        dev = np.abs(dvd_phi_table[u] / phi_rm(GRID_Y, builtin_params("dvd")) - 1.0)
        worst = max(worst, float(dev.max()))
    ok = worst <= 9e-3
    assert report("criterion 7 (built-in DvD)", ok, f"epsilon {worst:.2e} <= 9e-3")


def _refit_epsilon(model, u_ref, table):
    fit = refit(model, u_ref, n=2, grid=GRID_Y)
    worst = 0.0
    for u in GRID_U:
        dev = np.abs(table[u] / phi_rm(GRID_Y, fit.params) - 1.0)
        worst = max(worst, float(dev.max()))
    return worst


def test_criterion_7_refit_ded(ded_phi_table):
    bound = 1.5 * 1.2e-3
    eps = _refit_epsilon("ded", 0.1, ded_phi_table)
    u_ref = 0.1
    if eps > bound:
        eps2 = _refit_epsilon("ded", 0.15, ded_phi_table)
        if eps2 < eps:
            eps, u_ref = eps2, 0.15
    ok = eps <= bound
    assert report("criterion 7 (refit ded)", ok,
                  f"epsilon {eps:.2e} <= {bound:.2e} (u_ref={u_ref})")


def test_criterion_7_refit_dvd(dvd_phi_table):
    bound = 1.5 * 5.9e-3
    eps = _refit_epsilon("dvd", 0.1, dvd_phi_table)
    u_ref = 0.1
    if eps > bound:
        eps2 = _refit_epsilon("dvd", 0.15, dvd_phi_table)
        if eps2 < eps:
            eps, u_ref = eps2, 0.15
    ok = eps <= bound
    assert report("criterion 7 (refit DvD)", ok,
                  f"epsilon {eps:.2e} <= {bound:.2e} (u_ref={u_ref})")


# ---------------------------------------------------------------------------
# criteria 8 and 9 share a wider grid reaching y - 1 = 1e2

GRID8_Y = 1.0 + np.logspace(-2, 2, 13)


@pytest.fixture(scope="session")
def wide_tables():
    out = {}
    for model in ("dvd", "ded"):
        for u, (f, phi) in _tables(model, GRID8_Y, (0.0, 0.1, 0.25)).items():
            out[(model, u, "f")], out[(model, u, "phi")] = f, phi
    return out


def test_criterion_8_phi_bounds_and_monotonicity(wide_tables):
    oks = []
    details = []
    for model in ("dvd", "ded"):
        for u in (0.0, 0.1, 0.25):
            phi = wide_tables[(model, u, "phi")]
            in_bounds = bool(np.all((phi > 1.0) & (phi <= ZETA3 + 1e-2)))
            monotone = bool(np.all(np.diff(phi) < 0.0))
            oks.append(in_bounds and monotone)
            if not (in_bounds and monotone):
                details.append(f"{model} u={u}: bounds={in_bounds} monotone={monotone}")
    # scalar: same endpoints, monotonicity NOT asserted
    phi_sc = np.array([
        f_sc_total(from_invariants(float(y), 0.25)) /
        f_sc_roundtrip(from_invariants(float(y), 0.25), 1) for y in GRID8_Y])
    sc_ok = bool(np.all((phi_sc > 1.0) & (phi_sc <= ZETA3 + 1e-2)))
    oks.append(sc_ok)
    ok = all(oks)
    assert report("criterion 8 (phi bounds)", ok,
                  "all bands monotone within bounds" if ok else "; ".join(details))


def test_criterion_9_band_property(wide_tables):
    dvd_ratio = wide_tables[("dvd", 0.0, "f")] / wide_tables[("dvd", 0.25, "f")]
    ded_ratio = wide_tables[("ded", 0.0, "f")] / wide_tables[("ded", 0.25, "f")]
    ok_dvd = bool(np.all((dvd_ratio >= 0.66) & (dvd_ratio <= 1.001)))
    ok_ded = bool(np.all((ded_ratio >= 0.999) & (ded_ratio <= 1.34)))
    end_dvd = dvd_ratio[-1] / (2.0 / 3.0) - 1.0
    end_ded = ded_ratio[-1] / (4.0 / 3.0) - 1.0
    ok_ends = abs(end_dvd) < 0.02 and abs(end_ded) < 0.02
    ok = ok_dvd and ok_ded and ok_ends
    assert report(
        "criterion 9 (figure bands)", ok,
        f"DvD in [{dvd_ratio.min():.4f}, {dvd_ratio.max():.4f}], "
        f"ded in [{ded_ratio.min():.4f}, {ded_ratio.max():.4f}], "
        f"endpoints {end_dvd:+.2%}/{end_ded:+.2%}")


def test_phi_tables_are_phi_u(ded_phi_table, dvd_phi_table, wide_tables):
    # filling the tables by y leaves every entry bit-identical to phi_u's
    for k in (0, 41, 99):
        for u in (0.0, 0.04, 0.25):
            red = from_invariants(float(GRID_Y[k]), u)
            assert ded_phi_table[u][k] == phi_u(red, "ded")
            assert dvd_phi_table[u][k] == phi_u(red, "dvd")
    red = from_invariants(float(GRID8_Y[5]), 0.1)
    assert wide_tables[("dvd", 0.1, "f")][5] == f_dvd_total(red)
    assert wide_tables[("ded", 0.1, "f")][5] == f_ded_total(red).value
    for model in ("dvd", "ded"):
        assert wide_tables[(model, 0.1, "phi")][5] == phi_u(red, model)


# ---------------------------------------------------------------------------
# criterion 10: CLI determinism


def test_criterion_10_curve_determinism(tmp_path, capsys):
    out_path = tmp_path / "det.csv"
    args = ["curve", "--model", "ded", "--quantity", "f", "--u", "0,0.25",
            "--ymin", "0.5", "--ymax", "50", "--points", "4",
            "--seed", "123", "--out", str(out_path)]
    assert cli_main(args) == 0
    first = out_path.read_bytes()
    assert cli_main(args) == 0
    identical = out_path.read_bytes() == first
    capsys.readouterr()
    assert report("criterion 10 (determinism)", identical,
                  "byte-identical CSV for repeated invocation")
