import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from casimir_spheres import electrolyte
from casimir_spheres.electrolyte import (_TILE, QuadratureSettings, RoundTripMatrixSpec,
                                         _det_chain, _group_sum,
                                         _link_coefficients, _link_symmetries,
                                         _masks_for, _qmc_map, _tensor_group,
                                         _tensor_rule,
                                         det_roundtrip_matrix,
                                         det_roundtrip_transfer, f1_ded,
                                         f_ded_dipole, f_ded_roundtrip,
                                         f_ded_total)
from casimir_spheres.errors import ConvergenceError, DomainError
from casimir_spheres.geometry import from_invariants
from casimir_spheres.scalar import ZETA3, _roundtrip_terms, f_sc_roundtrip


def test_matrix_spec_validation():
    with pytest.raises(DomainError):
        RoundTripMatrixSpec(r=0, t=(), sigma=1)
    with pytest.raises(DomainError):
        RoundTripMatrixSpec(r=1, t=(0.5,), sigma=1)
    with pytest.raises(DomainError):
        RoundTripMatrixSpec(r=1, t=(0.5, 1.2), sigma=1)
    with pytest.raises(DomainError):
        RoundTripMatrixSpec(r=1, t=(0.5, 0.5), sigma=2)


def test_settings_validation():
    with pytest.raises(DomainError):
        QuadratureSettings(nodes_per_dim=1)
    with pytest.raises(DomainError):
        QuadratureSettings(qmc_points=512)


def test_det_r1_closed_form():
    red = from_invariants(2.0, 0.1)
    for sigma in (+1, -1):
        for t in [(0.3, 0.9), (1.0, 1.0), (0.0, 0.7)]:
            spec = RoundTripMatrixSpec(r=1, t=t, sigma=sigma)
            closed = 1.0 - (math.sqrt(red.alpha1) * t[0]
                            + sigma * math.sqrt(red.alpha2) * t[1]) ** 2 / red.z
            assert det_roundtrip_matrix(spec, red) == pytest.approx(closed, abs=1e-13)
            assert det_roundtrip_transfer(spec, red) == pytest.approx(closed, abs=1e-13)


def test_det_identity_at_zero_couplings():
    red = from_invariants(3.0, 0.2)
    for r in (1, 2, 3):
        spec = RoundTripMatrixSpec(r=r, t=(0.0,) * (2 * r), sigma=-1)
        assert det_roundtrip_matrix(spec, red) == pytest.approx(1.0, abs=1e-15)


@given(
    r=st.integers(min_value=1, max_value=4),
    y=st.floats(min_value=1.05, max_value=8.0),
    u=st.floats(min_value=0.02, max_value=0.25),
    sigma=st.sampled_from((-1, 1)),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_det_dense_vs_transfer(r, y, u, sigma, data):
    t = tuple(
        data.draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(2 * r))
    red = from_invariants(y, u)
    spec = RoundTripMatrixSpec(r=r, t=t, sigma=sigma)
    d_lu = det_roundtrip_matrix(spec, red)
    d_tm = det_roundtrip_transfer(spec, red)
    assert d_lu == pytest.approx(d_tm, rel=1e-12, abs=1e-14)
    assert d_lu > 0.0  # diagonally dominant for exterior spheres


def test_det_rejects_bad_couplings():
    red = from_invariants(2.0, 0.1)
    with pytest.raises(DomainError):
        RoundTripMatrixSpec(r=1, t=(0.5, -0.1), sigma=1)


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
    st48 = QuadratureSettings(nodes_per_dim=48)
    for (y, u) in [(1.5, 0.25), (2.0, 0.1), (2.0, 0.25), (3.0, 0.04), (10.0, 0.25)]:
        red = from_invariants(y, u)
        got = f_ded_roundtrip(red, 1, st48)
        assert got.value == pytest.approx(f1_ded(red), rel=1e-10)


def test_roundtrip_exchange_symmetry():
    # swapping the two radii leaves every order invariant
    red_a = from_invariants(2.0, 0.1)
    red_b = type(red_a)(y=red_a.y, u=red_a.u, z=red_a.z, varpi=red_a.varpi,
                        r_eff=red_a.r_eff, alpha1=red_a.alpha2, alpha2=red_a.alpha1)
    for r in (1, 2):
        a = f_ded_roundtrip(red_a, r).value
        b = f_ded_roundtrip(red_b, r).value
        assert a == pytest.approx(b, rel=1e-10)


def test_roundtrip_r2_dual_method(monkeypatch):
    red = from_invariants(2.0, 0.25)
    tensor = f_ded_roundtrip(red, 2, QuadratureSettings(nodes_per_dim=32))
    # every group by quasi-Monte Carlo
    monkeypatch.setattr(electrolyte, "_DIM_SWITCH", 0)
    qmc = f_ded_roundtrip(red, 2, QuadratureSettings(qmc_points=2**16))
    assert abs(tensor.value - qmc.value) < 3.0 * (tensor.error + qmc.error)


def test_roundtrip_positive():
    # strict positivity where the engine resolves the value; at large y
    # high orders are zero within noise, so ask only for consistency
    for (y, u) in [(1.2, 0.25), (2.0, 0.1), (2.0, 0.25)]:
        red = from_invariants(y, u)
        for r in (1, 2, 3):
            got = f_ded_roundtrip(red, r)
            if got.value > got.error:
                assert got.value > 0.0
            else:
                assert got.value > -3.0 * got.error


def test_roundtrip_scalar_part_is_exact_at_unit_couplings():
    # the all-delta point of the signed measure reproduces the scalar
    # round trip: with vanishing continuous part the integral collapses
    red = from_invariants(2.0, 0.1)
    for r in (1, 2, 3):
        spec_p = RoundTripMatrixSpec(r=r, t=(1.0,) * (2 * r), sigma=+1)
        spec_m = RoundTripMatrixSpec(r=r, t=(1.0,) * (2 * r), sigma=-1)
        total = (1.0 / det_roundtrip_matrix(spec_p, red)
                 + 1.0 / det_roundtrip_matrix(spec_m, red))
        val = total / (4.0 * r) / red.z ** r
        assert val == pytest.approx(f_sc_roundtrip(red, r), rel=1e-12)


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
    # f1 is 0 here, so rho(1) = 0 and the stop rule's decay rho(r)/rho(r-1)
    # divided by zero
    for y in (1e10, 1e12):
        assert math.isfinite(f_ded_total(from_invariants(y, 0.0)).value)
    # (2y)**r overflows and every order r >= 2 underflows to 0
    assert f_ded_total(from_invariants(1e200, 0.0)).value >= 0.0


def test_large_y_zero_tail_stops_after_one_chunk(monkeypatch):
    # f1 = 0 makes the tail's stop threshold 0; the scalar terms underflow
    # to 0 in the first 512-order chunk, which must end the tail sum
    chunks = []

    def counted(varpi, r):
        chunks.append(r[0])
        return _roundtrip_terms(varpi, r)

    monkeypatch.setattr(electrolyte, "_roundtrip_terms", counted)
    assert f_ded_total(from_invariants(1e200, 0.0)).value == 0.0
    assert len(chunks) == 1


def test_large_y_roundtrip_prefactor_does_not_overflow():
    # z**4 exceeds the largest double at z = 2e100
    cheap = QuadratureSettings(nodes_per_dim=6, qmc_points=2**10)
    got = f_ded_roundtrip(from_invariants(1e100, 0.25), 4, cheap)
    assert got.value == 0.0 and got.error == 0.0


def test_large_y_two_sphere_f1_raises_typed_error():
    assert math.isfinite(f1_ded(from_invariants(1e76, 0.25)))
    for y in (1e100, 1e200):
        with pytest.raises(ConvergenceError):
            f_ded_total(from_invariants(y, 0.25))


def test_tail_past_plane_profile_cap(monkeypatch):
    # integrated past the plane profile's last order, the tail extrapolates
    # the integrated orders geometrically instead of reading an empty profile
    monkeypatch.setattr(electrolyte, "_PLANE_TAIL_RMAX", 3)
    got = f_ded_total(from_invariants(1.01, 0.1))
    assert math.isfinite(got.value) and got.value > 0.0
    assert math.isfinite(got.error)


def test_total_validates_inputs():
    red = from_invariants(2.0, 0.1)
    with pytest.raises(DomainError):
        f_ded_total(red, tol=0.0)
    with pytest.raises(DomainError):
        f_ded_total(red, r_max=0)
    with pytest.raises(DomainError):
        f_ded_roundtrip(red, 0)


def _identity(n):
    return (tuple(range(n)),)


@pytest.mark.parametrize("coefs", [
    *(_link_coefficients(from_invariants(1.1, u), r) for u in (0.04, 0.25) for r in (2, 3, 4, 5)),
    *(np.full(r, 1.0 / (2.0 * 1.05)) for r in (5, 6, 7, 8)),
], ids=lambda c: f"n{len(c)}")
def test_orbit_reduced_tensor_groups_match_full_masks(coefs):
    n = len(coefs)
    group = _link_symmetries(coefs)
    for sigma in (+1, -1):
        for d in range(1, 5):
            full = _tensor_group(coefs, _masks_for(n, d, _identity(n)), d, 6, sigma)
            reduced = _tensor_group(coefs, _masks_for(n, d, group), d, 6, sigma)
            assert reduced == pytest.approx(full, rel=1e-12, abs=0.0)


def _reference_tensor_grid(d, order):
    """The tensor Gauss grid built directly, as the reference for the cached rule."""
    x, w = leggauss(order)
    v = 0.5 * (x + 1.0)
    t = 1.0 - (1.0 - v) ** 2
    jac = (1.0 - v)
    w1 = -2.0 * w * t * jac
    grids = np.meshgrid(*([t] * d), indexing="ij")
    t_nodes = np.stack([g.ravel() for g in grids], axis=1)
    wflat = np.ones(1)
    for _ in range(d):
        wflat = np.multiply.outer(wflat, w1).ravel()
    return t_nodes, wflat


def test_tensor_rule_cached_read_only_and_equal_to_reference():
    assert _tensor_rule.cache_info().maxsize is not None
    coefs = _link_coefficients(from_invariants(1.1, 0.1), 2)
    group = _link_symmetries(coefs)
    for d in range(1, 5):
        masks = _masks_for(len(coefs), d, group)
        for order in (4, 7, 16):
            t_nodes, weights = _tensor_rule(d, order)
            assert not t_nodes.flags.writeable and not weights.flags.writeable
            ref = _reference_tensor_grid(d, order)
            for sigma in (+1, -1):
                want = _group_sum(coefs, masks, *ref, sigma)
                assert _tensor_group(coefs, masks, d, order, sigma).hex() == want.hex()


def test_link_symmetry_group_orders():
    for r in (2, 3, 5):
        assert len(_link_symmetries(_link_coefficients(from_invariants(1.5, 0.1), r))) == 2 * r
        assert len(_link_symmetries(_link_coefficients(from_invariants(1.5, 0.25), r))) == 4 * r
        assert len(_link_symmetries(np.full(r + 2, 0.3))) == 2 * (r + 2)


def test_orbit_multiplicities_count_every_mask():
    for n in range(1, 15):
        groups = [_identity(n), _link_symmetries(np.full(n, 0.3))]
        if n % 2 == 0:
            groups.append(_link_symmetries(np.tile([0.2, 0.3], n // 2)))
        for group in groups:
            for d in range(1, n + 1):
                col_idx, mult = _masks_for(n, d, group)
                assert mult.sum() == math.comb(n, d)
                assert col_idx.shape == (len(mult), n)
                assert ((col_idx >= 0).sum(axis=1) == d).all()


def test_ring_determinant_invariant_under_link_symmetries():
    rng = np.random.default_rng(5)
    for _ in range(40):
        r = int(rng.integers(2, 6))
        u = float(rng.choice([rng.uniform(0.02, 0.24), 0.25]))
        red = from_invariants(float(rng.uniform(1.05, 4.0)), u)
        t = rng.uniform(0.0, 1.0, 2 * r)
        sigma = int(rng.choice((-1, 1)))
        base = det_roundtrip_matrix(RoundTripMatrixSpec(r, tuple(t), sigma), red)
        group = _link_symmetries(_link_coefficients(red, r))
        for p in group:
            moved = det_roundtrip_matrix(RoundTripMatrixSpec(r, tuple(t[list(p)]), sigma), red)
            assert moved == pytest.approx(base, rel=1e-12, abs=0.0)
        rot1 = tuple((i + 1) % (2 * r) for i in range(2 * r))
        assert (rot1 in group) == (u == 0.25)
        if u < 0.25:
            moved = det_roundtrip_matrix(RoundTripMatrixSpec(r, tuple(t[list(rot1)]), sigma), red)
            assert abs(moved / base - 1.0) > 1e-6


def _one_shot_dets(coefs, col_idx, t_nodes, sigma):
    """Reference: every (mask, point) pair of a group gathered at once."""
    tt = np.ones((t_nodes.shape[1] + 1, t_nodes.shape[0]))
    tt[:-1] = t_nodes.T
    return _det_chain([ci * tt[col_idx[:, i]] for i, ci in enumerate(coefs)], sigma)


def _kernel_cases(npts, n_cases=24, seed=0):
    """Random (coefs, masks, t_nodes, weights, sigma) groups with ``npts`` points.

    Coefficients alternate (two spheres), are equal (equal radii) or are
    1/(2y) (plane chain); below 1/2 every ring determinant is positive.
    """
    rng = np.random.default_rng(seed + npts)
    for k in range(n_cases):
        n = int(rng.integers(1, 11))
        kind = k % 3
        if kind == 0:
            coefs = np.resize(rng.uniform(0.05, 0.49, 2), n)
        elif kind == 1:
            coefs = np.full(n, rng.uniform(0.05, 0.49))
        else:
            coefs = np.full(n, 1.0 / (2.0 * rng.uniform(1.02, 3.0)))
        d = int(rng.integers(1, n + 1))
        group = _link_symmetries(coefs) if rng.random() < 0.5 else _identity(n)
        col_idx, mult = _masks_for(n, d, group)
        if npts > 1000:
            # a few masks keep the one-shot reference small
            keep = np.sort(rng.choice(len(mult), min(len(mult), 6), replace=False))
            col_idx, mult = col_idx[keep], mult[keep]
        t_nodes, weights = _qmc_map(rng.random((npts, d)))
        yield coefs, (col_idx, mult), t_nodes, weights, int(rng.choice((-1, 1)))


_KERNEL_NPTS = (37, 1000, _TILE, _TILE + 1, 2 * _TILE + 123)


@pytest.mark.parametrize("npts", _KERNEL_NPTS)
def test_tiled_dets_equal_one_shot_gather(npts, monkeypatch):
    tiles = []

    def recording(tables, col_idx, sigma):
        tiles.append(group_dets(tables, col_idx, sigma))
        return tiles[-1]

    group_dets = electrolyte._group_dets
    monkeypatch.setattr(electrolyte, "_group_dets", recording)
    for coefs, (col_idx, mult), t_nodes, weights, sigma in _kernel_cases(npts):
        tiles.clear()
        _group_sum(coefs, (col_idx, mult), t_nodes, weights, sigma)
        # tiles come point block by point block, each block mask tile by mask tile
        blocks, rows = [], []
        for tile in tiles:
            rows.append(tile)
            if sum(len(r) for r in rows) == len(col_idx):
                blocks.append(np.vstack(rows))
                rows = []
        assert not rows and max(t.size for t in tiles) <= _TILE
        assert np.array_equal(np.hstack(blocks), _one_shot_dets(coefs, col_idx, t_nodes, sigma))


@pytest.mark.parametrize("npts", _KERNEL_NPTS)
def test_group_sum_matches_matvec_reduction(npts):
    for coefs, (col_idx, mult), t_nodes, weights, sigma in _kernel_cases(npts):
        dets = _one_shot_dets(coefs, col_idx, t_nodes, sigma)
        ref = float((mult * ((1.0 / dets) @ weights)).sum())
        got = _group_sum(coefs, (col_idx, mult), t_nodes, weights, sigma)
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_engine_works_in_cache_sized_tiles(monkeypatch):
    # the working set is bounded by the tile, not by the group size: at the
    # one-shot gather every coupling array of an order held up to 2**20
    # (mask, point) pairs and tracemalloc peaked at 135 MB
    sizes = []

    def recording(coups, sigma):
        sizes.extend(np.size(c) for c in coups)
        return det_chain(coups, sigma)

    det_chain = electrolyte._det_chain
    monkeypatch.setattr(electrolyte, "_det_chain", recording)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f_ded_roundtrip(from_invariants(1.1, 0.1), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes and max(sizes) <= _TILE
    assert peak < 32 * 2**20
