import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from casimir_spheres import electrolyte
from casimir_spheres.electrolyte import (QuadratureSettings, f1_ded, f_ded_dipole,
                                         f_ded_roundtrip, f_ded_total)
from casimir_spheres.errors import ConvergenceError, DomainError
from casimir_spheres.geometry import SphereGeometry, from_invariants, reduce
from casimir_spheres.models import get_model
from test_ded_exact import multipole_orders

# the closures' tables divide by zero in cells they then discard
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_bench_settings_hold_only_an_unread_seed():
    # the benchmark still builds QuadratureSettings(seed=...) and passes it
    assert [f.name for f in dataclasses.fields(QuadratureSettings)] == ["seed"]
    red = from_invariants(2.0, 0.1)
    assert f_ded_total(red, settings=QuadratureSettings(seed=7)) == f_ded_total(red)
    assert f_ded_roundtrip(red, 2, QuadratureSettings(seed=7)) == f_ded_roundtrip(red, 2)


def test_f1_closed_form_values():
    # plane case: (y/4)[1/(y^2-1) + ln((y^2-1)/y^2)] at y = 2
    red = from_invariants(2.0, 0.0)
    assert f1_ded(red) == pytest.approx(0.5 * (1.0 / 3.0 + math.log(0.75)), rel=1e-13)
    # equal radii at y = 2
    red = from_invariants(2.0, 0.25)
    assert f1_ded(red) == pytest.approx(0.019998094305527125, rel=1e-12)


def test_f1_general_matches_equal_radius_special_form():
    for y in (1.5, 2.0, 5.0, 50.0):
        red = from_invariants(y, 0.25)
        t2 = (y + 1.0) / 6.0 * math.log(
            (y * y - 1.0) * (y + 1.0) ** 2 / (y + 0.5) ** 4)
        rt = math.sqrt(2.0) / math.sqrt(y + 1.0)
        t3 = (1.0 / (6.0 * math.sqrt(2.0 * (y + 1.0)))) * math.log(
            (2.0 * y - 1.0 + rt) / (2.0 * y - 1.0 - rt))
        special = y / (4.0 * (y * y - 1.0)) + t2 + t3
        assert f1_ded(red) == pytest.approx(special, rel=1e-12)


def test_roundtrip_r1_matches_closed_form():
    for (y, u) in [(1.5, 0.25), (2.0, 0.1), (2.0, 0.25), (3.0, 0.04), (10.0, 0.25)]:
        red = from_invariants(y, u)
        got = f_ded_roundtrip(red, 1)
        assert got.value == pytest.approx(f1_ded(red), rel=1e-10)


def test_roundtrip_exchange_symmetry():
    # swapping the two radii gives the same geometry, hence the same orders
    red_a = reduce(SphereGeometry(L=0.7, R1=1.3, R2=2.1))
    red_b = reduce(SphereGeometry(L=0.7, R1=2.1, R2=1.3))
    assert red_a == red_b == from_invariants(red_a.y, red_a.u)
    for r in (1, 2):
        assert f_ded_roundtrip(red_a, r) == f_ded_roundtrip(red_b, r)


def test_roundtrip_r2_dual_method():
    # the Fourier coefficient of the banded determinant against the power
    # trace of the spherical-multipole round trip
    for (y, u) in [(2.0, 0.25), (3.0, 0.1)]:
        red = from_invariants(y, u)
        want = multipole_orders("ded", red, 60, 2)[2]
        got = f_ded_roundtrip(red, 2)
        assert got.value == pytest.approx(want, rel=1e-10)
        assert got.error < 1e-10 * got.value


def test_roundtrip_positive():
    for (y, u) in [(1.2, 0.25), (2.0, 0.1), (2.0, 0.25)]:
        red = from_invariants(y, u)
        for r in (1, 2, 3):
            got = f_ded_roundtrip(red, r)
            assert got.value > 0.0 and got.error < 1e-8 * got.value


def test_total_far_limit_single_trip():
    red = from_invariants(100.0, 0.25)
    assert f_ded_total(red).value == pytest.approx(f1_ded(red), rel=1e-3)


def test_total_dipole_limit():
    red = from_invariants(1e3, 0.25)
    assert red.y**3 * f_ded_total(red).value == pytest.approx(3.0 / 32.0, rel=5e-3)
    red0 = from_invariants(1e3, 0.0)
    assert red0.y**3 * f_ded_total(red0).value == pytest.approx(1.0 / 8.0, rel=5e-3)


def test_dipole_values_and_ratios():
    red = from_invariants(10.0, 0.1)
    assert f_ded_dipole(red) == pytest.approx(9.375e-5, rel=1e-12)
    red0 = from_invariants(10.0, 0.0)
    assert f_ded_dipole(red0) == pytest.approx(1.25e-4, rel=1e-12)
    assert f_ded_dipole(red0) / f_ded_dipole(red) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_total_ratio_band():
    ys = 1.0 + np.logspace(-2, 2, 7)
    for y in ys:
        r = (f_ded_total(from_invariants(float(y), 0.0)).value
             / f_ded_total(from_invariants(float(y), 0.25)).value)
        assert 1.0 - 1e-3 <= r < 4.0 / 3.0


def test_large_y_plane_total_is_finite():
    # f1 is 0 here; the sphere's cosh(mu) = y is large and exp(-varpi/2) small
    for y in (1e10, 1e12):
        assert math.isfinite(f_ded_total(from_invariants(y, 0.0)).value)
    # every row's coupling underflows to 0; products of pivots must not overflow
    assert f_ded_total(from_invariants(1e200, 0.0)).value >= 0.0


def test_large_y_roundtrip_prefactor_does_not_overflow():
    # z**4 exceeds the largest double at z = 2e100, and f_sc^(4) underflows
    got = f_ded_roundtrip(from_invariants(1e100, 0.25), 4)
    assert got.value == 0.0 and got.error == 0.0


def test_small_u_f1_overflow_raises_typed_error():
    # (2y + alpha)^2 raises OverflowError at u = 1e-300; at 1e-154 it turns into nan;
    # at 1.78e-154 only N (N + sqrt(alpha z)) overflows, and the log divided by 0
    for u in (1.7782794100389226e-154, 1e-154, 1e-300):
        red = from_invariants(2.0, u)
        with pytest.raises(ConvergenceError, match=f"u = {u:.3g}"):
            f1_ded(red)
        with pytest.raises(ConvergenceError, match=f"u = {u:.3g}"):
            f_ded_total(red)


def test_large_y_two_sphere_f1_raises_typed_error():
    assert math.isfinite(f1_ded(from_invariants(1e76, 0.25)))
    for y in (1e100, 1e200):
        with pytest.raises(ConvergenceError):
            f_ded_total(from_invariants(y, 0.25))


@pytest.fixture
def recursion_starts(monkeypatch):
    """The geometries the Schur recursion started on: it reads the spheres'
    mu before its first row."""
    started, mus = [], electrolyte._sphere_mus
    monkeypatch.setattr(electrolyte, "_sphere_mus", lambda red: started.append(red) or mus(red))
    return started


def _first_rows(red):
    """N0, from its formula: ``_row_counts`` raises where N1 does not fit."""
    return max(8, math.ceil(electrolyte._ROWS_VARPI / red.varpi))


def test_total_raises_before_any_row_where_the_second_truncation_cannot_fit(
        monkeypatch, recursion_starts):
    # the stop rule compares two truncations
    red = from_invariants(2.0, 0.1)
    n0 = _first_rows(red)
    monkeypatch.setattr(electrolyte, "_MAX_ROWS", math.ceil(1.5 * n0) - 1)
    with pytest.raises(ConvergenceError, match="bispherical rows"):
        f_ded_total(red)
    assert recursion_starts == []
    monkeypatch.setattr(electrolyte, "_MAX_ROWS", math.ceil(1.5 * n0))
    assert f_ded_total(red).value > 0.0
    assert recursion_starts == [red]


@pytest.mark.parametrize("ym1", [3e-7, 4e-7])
def test_total_just_above_the_row_cap_raises_at_once(recursion_starts, ym1):
    # N0 fits under the cap there and 1.5 N0 does not, so a cap checked only
    # before each truncation would run all N0 rows, over 100 s, and then raise
    red = from_invariants(1.0 + ym1, 0.1)
    n0 = _first_rows(red)
    assert n0 <= electrolyte._MAX_ROWS < math.ceil(1.5 * n0)
    with pytest.raises(ConvergenceError, match="bispherical rows"):
        f_ded_total(red)
    assert recursion_starts == []


# ---------------------------------------------------------------------------
# closures of the truncated A_i

US = (0.0, 0.016, 0.04, 0.1, 0.25)


def _exact_closure(mu, n_rows, m):
    """exp(-mu) x_{n+1}/x_n at n = ``n_rows``, from exact sums at 40 digits:
    x_n = sum_{k<m} C(m-1, k) delta^k B(n-m+k+1, 2m-k) for m >= 1 and the Lerch
    sum Phi(r, 1, n+1) for m = 0, r = exp(-2 mu), delta = 1 - r."""
    with mpmath.workdps(40):
        mu = mpmath.mpf(mu)
        r, delta = mpmath.exp(-2 * mu), -mpmath.expm1(-2 * mu)

        def x(n):
            if m == 0:
                return mpmath.lerchphi(r, 1, n + 1)
            return mpmath.fsum(mpmath.binomial(m - 1, k) * delta**k
                               * mpmath.beta(n - m + k + 1, 2 * m - k) for k in range(m))

        return mpmath.exp(-mu) * x(n_rows + 1) / x(n_rows)


# (mu, N) where the m = 0 closure sums from -log(delta), delta (N + 1) <= 1,
# and where it sums the series directly
FROM_LOG = [(1e-4, 50), (0.05, 8), (0.001, 300)]
DIRECT = [(0.002, 300), (0.5, 40), (3.0, 10)]


@pytest.mark.parametrize("mu, n_rows", FROM_LOG + DIRECT)
def test_closures_match_exact_sums(mu, n_rows):
    assert (-math.expm1(-2.0 * mu) * (n_rows + 1) <= 1.0) == ((mu, n_rows) in FROM_LOG)
    got = electrolyte._closures([mu], n_rows)
    assert got.shape == (1, n_rows + 1)
    for m in (0, 1, n_rows // 2, n_rows):
        exact = _exact_closure(mu, n_rows, m)
        assert abs(got[0, m] / exact - 1) <= 2e-15, (m, got[0, m], exact)


def test_closures_of_a_plane_are_zero():
    assert np.array_equal(electrolyte._closures([0.0], 9), np.zeros((1, 10)))


def _batch_mus(ym1):
    mus = [mu for u in US for mu in electrolyte._sphere_mus(from_invariants(1.0 + ym1, u))]
    mus = mus + mus[:4]  # the plane (mu = 0), its partner and a sphere pair, again
    np.random.default_rng(5).shuffle(mus)
    return mus


@pytest.mark.parametrize("ym1", [1e-3, 0.1, 10.0])
def test_closures_of_a_batch_equal_each_sphere_alone(ym1):
    mus = _batch_mus(ym1)
    assert 0.0 in mus and len(set(mus)) < len(mus)
    last = electrolyte._row_counts(from_invariants(1.0 + ym1, 0.1))[0] - 1
    got = electrolyte._closures(mus, last)
    for mu, row in zip(mus, got):
        assert np.array_equal(row, electrolyte._closures([mu], last)[0])


def _term_by_term(mu, last):
    """The closure of one sphere with its k-series summed one term at a time."""
    m = np.arange(last + 1.0)
    delta = -math.expm1(-2.0 * mu)
    n = np.array([[last], [last + 1.0]])
    total, term = np.ones((2, last + 1)), np.ones((2, last))
    for k in range(1, last):
        mk = m[k + 1:]
        term = term[:, 1:] * (delta * (mk - k) / k * (n - mk + k) / (2.0 * mk - k))
        total[:, k + 1:] += term
        if not (term > 1e-17 * total[:, k + 1:]).any():
            break
    return (last - m[1:] + 1.0) / (last + m[1:] + 1.0) * total[1, 1:] / total[0, 1:] * math.exp(-mu)


@pytest.mark.parametrize("rows, cells",
                         [(None, None), (1, 2**40), (2, 2**40), (5, 2**40), (32, 64)])
def test_closures_equal_the_term_by_term_sums(monkeypatch, rows, cells):
    # spheres stop inside blocks of 2 and 5 rows of k; 64 cells force one row per block
    if rows is not None:
        monkeypatch.setattr(electrolyte, "_CLOSURE_ROWS", rows)
        monkeypatch.setattr(electrolyte, "_CLOSURE_CELLS", cells)
    for ym1 in (1e-3, 0.1, 10.0):
        mus = _batch_mus(ym1)
        last = electrolyte._row_counts(from_invariants(1.0 + ym1, 0.1))[0] - 1
        for mu, row in zip(mus, electrolyte._closures(mus, last)):
            if mu != 0.0:
                assert np.array_equal(row[1:], _term_by_term(mu, last))


def test_checkpoints_close_each_truncation_once(monkeypatch):
    calls, real = [], electrolyte._closures
    monkeypatch.setattr(electrolyte, "_closures", lambda mus, last: calls.append((list(mus), last))
                        or real(mus, last))
    near = [from_invariants(1.5, u) for u in (0.25, 0.0, 0.1, 0.1, 0.04)]
    far = [from_invariants(3.0, u) for u in (0.1, 0.25)]
    reds = [far[0], *near, far[1]]
    rows = [(8, 15)] + [(10, 15, 23)] * 5 + [(8, 15)]
    trunc = electrolyte._checkpoints(reds, [1.0], rows)
    assert [tuple(n for n, *_ in t) for t in trunc] == rows
    assert [last + 1 for _, last in calls] == [8, 10, 15, 23]

    def spheres(points):
        return sorted({mu for red in points for mu in electrolyte._sphere_mus(red)})

    # every distinct sphere that closes at a row once: the repeated u = 0.1
    # and u = 1/4's pair share a closure
    assert [sorted(mus) for mus, _ in calls] == [spheres(far), spheres(near),
                                                 spheres(reds), spheres(near)]


# ---------------------------------------------------------------------------
# one recursion for points of any y


@pytest.fixture
def checkpoints_seen(monkeypatch):
    """Per recursion, the row counts of each of its points."""
    seen, real = [], electrolyte._checkpoints

    def spy(reds, z, rows):
        out = real(reds, z, rows)
        seen.append([tuple(n_rows for n_rows, *_ in trunc) for trunc in out])
        return out

    monkeypatch.setattr(electrolyte, "_checkpoints", spy)
    return seen


def _alone(y, u, tol=1e-4):
    """The point's own ``f_ded_total``, or the error it raises."""
    try:
        return f_ded_total(from_invariants(y, u), tol=tol)
    except ConvergenceError as exc:
        return exc


def _same(got, want):
    """Equal values and errors bit for bit, or errors of one type and message."""
    if isinstance(want, ConvergenceError):
        return type(got) is type(want) and str(got) == str(want)
    return got == want


@pytest.mark.parametrize("ym1", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0])
def test_totals_equal_one_point_totals(ym1, checkpoints_seen):
    y = 1.0 + ym1
    got = get_model("ded").totals([(y, u) for u in US])
    rows = electrolyte._row_counts(from_invariants(y, 0.1))
    # at y - 1 = 1e-3 five points of 672 rows and 2 z need 6720 cells, more
    # than the budget's 4096: its recursions take 3 and 2 of them
    sizes = [3, 2] if ym1 == 1e-3 else [5]
    assert checkpoints_seen == [[rows] * size for size in sizes]
    # value and error bit for bit
    assert got == [f_ded_total(from_invariants(y, u)) for u in US]


# 27 y from y - 1 = 1e-3 to 1e3, five u each
MIXED = [(1.0 + float(ym1), u) for ym1 in np.logspace(-3.0, 3.0, 27) for u in US]


@pytest.fixture(scope="module")
def mixed_alone():
    return [_alone(y, u) for y, u in MIXED]


@given(picks=st.lists(st.integers(0, len(MIXED) - 1), min_size=1, max_size=40))
@example(picks=list(range(len(MIXED)))[::-1] + [0, 3, 60, 3, len(MIXED) - 1])
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_totals_of_mixed_y_equal_each_point_alone(mixed_alone, picks):
    # a shuffled batch of points of many y, repeats included
    got = get_model("ded").totals([MIXED[i] for i in picks])
    assert got == [mixed_alone[i] for i in picks]


def test_totals_point_whose_change_passes_tol_fails_alone(monkeypatch, checkpoints_seen):
    # From the first truncation, 8 rows at y = 2 with a coarse schedule, to
    # the second, 12 rows, log det moves by 6.8e-8 of |log det| at u = 0 and
    # by 7.6e-8 at u = 1/4: at tol = 7.2e-8 the plane returns its 12-row
    # value and the sphere fails, naming its change.  The points of other y
    # in the batch get their own values or errors.
    monkeypatch.setattr(electrolyte, "_ROWS_VARPI", 1.0)
    tol = 7.2e-8
    points = [(1.2, 0.1), (2.0, 0.0), (5.0, 0.04), (2.0, 0.25), (1.2, 0.0)]
    got = get_model("ded").totals(points, tol=tol)
    assert len(checkpoints_seen) == 1
    plane, sphere = got[1], got[3]
    checkpoints_seen.clear()
    assert plane == f_ded_total(from_invariants(2.0, 0.0), tol=tol)
    assert checkpoints_seen == [[(8, 12)]]
    with pytest.raises(ConvergenceError) as exc:
        f_ded_total(from_invariants(2.0, 0.25), tol=tol)
    assert isinstance(sphere, ConvergenceError) and str(sphere) == str(exc.value)
    [[(_, first, _), (_, last, _)]] = electrolyte._checkpoints(
        [from_invariants(2.0, 0.25)], [1.0, 1j * electrolyte._STEP], [(8, 12)])
    change = np.abs(last - first).max()
    assert f"log det moved by {change:.3g} from 8 to 12 rows" in str(sphere), sphere
    for (y, u), res in zip(points, got):
        assert _same(res, _alone(y, u, tol)), (y, u)


def test_totals_of_shuffled_or_repeated_u_are_the_same():
    ded = get_model("ded")
    by_u = dict(zip(US, ded.totals([(1.1, u) for u in US])))
    for us in ((0.25, 0.0, 0.1, 0.016, 0.04), (0.1, 0.1, 0.0, 0.25, 0.0)):
        assert ded.totals([(1.1, u) for u in us]) == [by_u[u] for u in us]


def test_totals_keep_a_failed_point_to_itself():
    # f1_ded overflows at u = 1e-300; the points of this and other y keep their own values
    points = [(3.0, 0.25), (2.0, 1e-300), (2.0, 0.1), (1.05, 0.0)]
    got = get_model("ded").totals(points)
    assert isinstance(got[1], ConvergenceError) and "f1_ded" in str(got[1])
    for (y, u), res in zip(points, got):
        assert _same(res, _alone(y, u)), (y, u)


def test_totals_past_the_row_cap_fail_at_once(recursion_starts):
    got = get_model("ded").totals([(1.0 + 3e-7, u) for u in US])
    assert len(got) == len(US)
    for res in got:
        assert isinstance(res, ConvergenceError) and "bispherical rows" in str(res)
    assert recursion_starts == []
    # in a batch of several y they fail alone and start no row
    points = [(2.0, 0.1), (1.0 + 3e-7, 0.1), (1.5, 0.0), (1.0 + 3e-7, 0.25)]
    got = get_model("ded").totals(points)
    assert {red.y for red in recursion_starts} == {2.0, 1.5}
    for (y, u), res in zip(points, got):
        assert _same(res, _alone(y, u)), (y, u)


def _state_cells(reds, rows, nz):
    """The (point, z, row) cells of the state of one recursion."""
    return len(reds) * nz * max(r[-1] for r in rows)


@pytest.mark.parametrize("cells", [1, 1000, 2**12])
def test_groups_keep_their_cell_bound(monkeypatch, cells):
    # near contact, 20 y x 5 u in one state would need about 0.5 GB
    monkeypatch.setattr(electrolyte, "_STATE_CELLS", cells)
    reds = [from_invariants(1.0 + float(ym1), u)
            for ym1 in np.logspace(-6.0, 2.0, 20) for u in US]
    rows = [electrolyte._row_counts(red) for red in reds]
    groups = electrolyte._groups(dict(enumerate(rows)), 2)
    assert sorted(p for group in groups for p in group) == list(range(len(reds)))
    for group in groups:
        deepest = max(rows[p][-1] for p in group)
        assert _state_cells(group, [rows[p] for p in group], 2) <= max(cells, 2 * deepest)


def test_grouped_totals_equal_one_batch(monkeypatch, checkpoints_seen):
    # at 300 cells a state holds a few points: the values stay bit for bit
    points = [(1.0 + float(ym1), u) for ym1 in (0.05, 0.3, 2.0, 20.0) for u in (0.0, 0.1, 0.25)]
    whole = get_model("ded").totals(points)
    assert len(checkpoints_seen) == 1
    monkeypatch.setattr(electrolyte, "_STATE_CELLS", 300)
    checkpoints_seen.clear()
    assert get_model("ded").totals(points) == whole
    assert len(checkpoints_seen) > 1
    for trunc in checkpoints_seen:
        deepest = max(r[-1] for r in trunc)
        assert len(trunc) * 2 * deepest <= max(300, 2 * deepest)


def test_total_validates_inputs():
    red = from_invariants(2.0, 0.1)
    with pytest.raises(DomainError):
        f_ded_total(red, tol=0.0)
    with pytest.raises(DomainError):
        f_ded_roundtrip(red, 0)
