"""Reduced free energy for two dielectric spheres in an electrolyte.

Single round trips have a closed form.  Higher round trips are integrals
of 1/det of a periodic tridiagonal coupling matrix over per-reflection
strengths t in [0,1]^(2r), taken against the signed product measure
prod_i [delta(t_i - 1) - 2 t_i] dt_i and summed over a boundary sign
sigma = +-1.  The all-delta point reproduces the scalar Dirichlet round
trip exactly (the measure's delta part carries the ideal-reflector
piece), so the engine only integrates the correction to the scalar
result; the remaining terms are grouped by the number of integrated
dimensions and evaluated by tensor Gauss-Legendre rules in few
dimensions and scrambled Sobol quasi-Monte Carlo above ``_DIM_SWITCH``.

For the plane-sphere case the 2r-dimensional form degenerates; the limit
is taken analytically and yields the same structure on an r-dimensional
cyclic chain with uniform coupling coefficient 1/(2y), which is what the
plane branch of the engine evaluates.

The tensor groups are integrated on one mask per symmetry orbit.  The
ring determinant is unchanged by the dihedral maps i -> (+-i + k) mod n
of its links that leave the link coefficients unchanged: the 2r maps
that keep the alternation of two spheres, all 2n for the plane chain
and equal radii.  Every free dimension of a tensor group uses the same
1-D rule, so all masks of an orbit have the same integral, and one
representative weighted by the orbit size stands for them.  The group
is read off the coefficients, so there is no setting for it.  The QMC
groups keep every mask, with the same points and seeds.

A group's determinants are evaluated one tile of about ``_TILE``
(mask, point) pairs at a time, so each gathered coupling array and each
temporary of the continuant recursion stays in cache.  Each tile's sum
over points is numpy's pairwise row sum rather than a BLAS product, so
the sums do not depend on the BLAS thread count.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.stats import qmc

from .errors import AccuracyWarning, ConvergenceError, DomainError
from .geometry import ReducedGeometry, from_invariants
from .scalar import _roundtrip_terms, f_sc_roundtrip, f_sc_total

__all__ = [
    "RoundTripMatrixSpec",
    "QuadratureSettings",
    "ValueWithError",
    "det_roundtrip_matrix",
    "det_roundtrip_transfer",
    "f1_ded",
    "f_ded_roundtrip",
    "f_ded_total",
    "f_ded_dipole",
]

# integrated dimensions above which quasi-Monte Carlo replaces the tensor rule
_DIM_SWITCH = 4
# evaluation-count ceiling per (sigma, d) group, met by lowering the Gauss
# order or the point count; it bounds the runtime (the tiles bound memory)
_GROUP_BUDGET = 2**23
# (mask, point) elements evaluated at once, so that each gathered coupling
# and each temporary of the continuant recursion (64 KB) stays in cache
_TILE = 2**13
# above this y the intermediate 4 y^4 of the two-sphere f1 closed form overflows
_F1_YMAX = (sys.float_info.max / 8.0) ** 0.25


@dataclass(frozen=True)
class RoundTripMatrixSpec:
    """Order, coupling strengths and boundary sign of a round-trip matrix.

    Parameters
    ----------
    r : int
        Round-trip order, >= 1; the matrix is 2r-dimensional.
    t : tuple of float
        2r coupling strengths, each in [0, 1].
    sigma : int
        Boundary sign, +1 or -1.
    """

    r: int
    t: tuple
    sigma: int

    def __post_init__(self):
        if self.r < 1 or int(self.r) != self.r:
            raise DomainError(f"round-trip order must be a positive integer, got {self.r}")
        if len(self.t) != 2 * self.r:
            raise DomainError(f"expected {2*self.r} couplings, got {len(self.t)}")
        if any(not 0.0 <= ti <= 1.0 for ti in self.t):
            raise DomainError("all couplings t_i must lie in [0, 1]")
        if self.sigma not in (+1, -1):
            raise DomainError(f"sigma must be +1 or -1, got {self.sigma}")


@dataclass(frozen=True)
class QuadratureSettings:
    """Numerical settings for the multi-round-trip integrals.

    Parameters
    ----------
    nodes_per_dim : int
        Gauss-Legendre order for tensor-product integration of the
        low-dimensional terms, >= 2.
    qmc_points : int
        Scrambled Sobol point count (power of two), >= 1024.  Quasi-Monte
        Carlo takes over from the tensor rule above four integrated
        dimensions.
    seed : int
        Seed for the Sobol scrambling; results are reproducible
        bit-for-bit for fixed settings, at any BLAS thread count.
    """

    nodes_per_dim: int = 16
    qmc_points: int = 2**13
    seed: int = 0

    def __post_init__(self):
        if self.nodes_per_dim < 2:
            raise DomainError("nodes_per_dim must be >= 2")
        if self.qmc_points < 2**10:
            raise DomainError("qmc_points must be >= 2**10")


@dataclass(frozen=True)
class ValueWithError:
    """Numerical value bundled with an absolute uncertainty estimate."""

    value: float
    error: float

    def __float__(self) -> float:
        return self.value


def _link_coefficients(red: ReducedGeometry, r: int) -> np.ndarray:
    """Off-diagonal coefficients of the 2r-dimensional coupling matrix.

    Link i carries t_i times R1/distance (even i, 0-based) or
    R2/distance (odd i); the last link closes the ring with sign sigma.
    """
    if red.is_plane:
        # the plane's coupling tends to 1, the finite sphere's to 0
        if math.isinf(red.alpha1):
            ca, cb = 1.0, 0.0
        else:
            ca, cb = 0.0, 1.0
    else:
        ca = math.sqrt(red.alpha1 / red.z)
        cb = math.sqrt(red.alpha2 / red.z)
    out = np.empty(2 * r)
    out[0::2] = ca
    out[1::2] = cb
    return out


def _det_chain(coups: list, sigma: int):
    """Determinant of the unit-diagonal cyclic tridiagonal coupling matrix.

    ``coups`` holds one (broadcastable) array per link; entry i couples
    sites i and i+1, the last link closes the ring with sign ``sigma``.
    A single link is a self-loop (determinant 1 - 2 sigma a); two links
    share one matrix entry (determinant 1 - (a1 + sigma a2)^2).  For
    n >= 3 the determinant is assembled from open-chain continuants plus
    the ring-closure term; this is the transfer-matrix evaluation.
    """
    n = len(coups)
    if n == 1:
        return 1.0 - 2.0 * sigma * coups[0]
    if n == 2:
        s = coups[0] + sigma * coups[1]
        return 1.0 - s * s
    sq = [c ** 2 for c in coups]
    # open-chain continuant P_n over links 0..n-2
    p_prev = 1.0
    p = 1.0
    prod = sigma * coups[0]
    for i in range(n - 1):
        p_prev, p = p, p - sq[i] * p_prev
        if i >= 1:
            prod = prod * coups[i]
    # interior continuant over links 1..n-3 (sites 2..n-1)
    q_prev = 1.0
    q = 1.0
    for i in range(1, n - 2):
        q_prev, q = q, q - sq[i] * q_prev
    sign = -2.0 if n % 2 == 0 else 2.0
    return p - sq[n - 1] * q + sign * prod * coups[n - 1]


def det_roundtrip_matrix(spec: RoundTripMatrixSpec, red: ReducedGeometry) -> float:
    """Dense-LU determinant of the 2r-dimensional round-trip matrix.

    Strictly positive for any exterior geometry (the matrix is
    diagonally dominant since (R1+R2) is smaller than the center
    distance).
    """
    coefs = _link_coefficients(red, spec.r)
    a = coefs * np.asarray(spec.t, dtype=float)
    n = 2 * spec.r
    m = np.eye(n)
    if n == 2:
        v = a[0] + spec.sigma * a[1]
        m[0, 1] = m[1, 0] = v
    else:
        for i in range(n - 1):
            m[i, i + 1] = m[i + 1, i] = a[i]
        m[0, n - 1] = m[n - 1, 0] = spec.sigma * a[n - 1]
    return float(np.linalg.det(m))


def det_roundtrip_transfer(spec: RoundTripMatrixSpec, red: ReducedGeometry) -> float:
    """Transfer-matrix (continuant) evaluation of the same determinant."""
    coefs = _link_coefficients(red, spec.r)
    a = list(coefs * np.asarray(spec.t, dtype=float))
    return float(_det_chain(a, spec.sigma))


def f1_ded(red: ReducedGeometry) -> float:
    """Single round-trip contribution (closed form).

    Cancellation-free at large y: the logarithm argument is written as
    log1p of an exactly reduced rational expression and the radius-ratio
    terms use an arctanh form whose 1-x part is evaluated analytically.
    Raises :class:`ConvergenceError` for two spheres at y > 6.9e76,
    where the closed form overflows.
    """
    y = red.y
    f1sc = y / (4.0 * (y * y - 1.0))
    if red.is_plane:
        return 0.25 * y * (1.0 / (y * y - 1.0) + math.log1p(-1.0 / (y * y)))
    if y > _F1_YMAX:
        raise ConvergenceError(f"f1_ded: the closed form overflows at y = {y:.3g} > {_F1_YMAX:.3g}")
    z = red.z
    # z^2 (y^2-1) / (yz + 1/2)^2 = 1 - (z^2 + yz + 1/4)/(yz + 1/2)^2 exactly
    den = y * z + 0.5
    term_log = (z / 12.0) * math.log1p(-(z * z + y * z + 0.25) / (den * den))
    acc = 0.0
    for a in (red.alpha1, red.alpha2):
        nn = 2.0 * y * y + a * y - 1.0
        saz = math.sqrt(a * z)
        # log of (N + saz)/(N - saz) with N - saz expanded via
        # N^2 - a z = (2y + a)^2 (y^2 - 1)
        one_minus = (2.0 * y + a) ** 2 * (y * y - 1.0) / (nn * (nn + saz))
        acc += a ** -1.5 * math.log((1.0 + saz / nn) / one_minus)
    return f1sc + term_log + acc / (12.0 * math.sqrt(z))


def f_ded_dipole(red: ReducedGeometry) -> float:
    """Large-distance dipolar asymptote: 3/(32y^3), or 1/(8y^3) for u = 0."""
    y3 = red.y ** 3
    return 0.125 / y3 if red.is_plane else 3.0 / (32.0 * y3)


# ---------------------------------------------------------------------------
# signed-measure engine


# one default f_ded_total meets 15 (d, order) rules: orders 16 and 8 for
# d = 1..3, and for d = 4 the orders 16 down to 8 that the group budget
# leaves for up to 14 links (the plane tail), with their halves
@lru_cache(maxsize=16)
def _tensor_rule(d: int, order: int) -> tuple:
    """Tensor Gauss-Legendre rule on [0,1]^d for the measure part prod -2 t dt.

    Uses the corner substitution t = 1 - (1-v)^2 per dimension, which
    clusters nodes at t = 1 where the integrands peak near contact.
    Returns read-only (t_nodes, weights) of shapes (order^d, d) and
    (order^d,), the first dimension varying slowest.
    """
    x, w = leggauss(order)
    v = 0.5 * (x + 1.0)
    t1 = 1.0 - (1.0 - v) ** 2
    w1 = -2.0 * w * t1 * (1.0 - v)  # dt = 2(1-v) dv, dv = dx/2
    grids = np.meshgrid(*([t1] * d), indexing="ij")
    t_nodes = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(1)
    for _ in range(d):
        weights = np.multiply.outer(weights, w1).ravel()
    t_nodes.flags.writeable = weights.flags.writeable = False
    return t_nodes, weights


def _qmc_map(v: np.ndarray) -> tuple:
    """Map uniform points to t-space with the corner substitution.

    Returns the t matrix and the per-point product weight of the
    continuous measure part.
    """
    t = 1.0 - (1.0 - v) ** 2
    wt = -4.0 * t * (1.0 - v)  # -2 t dt with dt = 2(1-v) dv
    return t, wt.prod(axis=1)


def _group_dets(tables, col_idx, sigma):
    """Stacked determinants for one tile of a (sigma, d) group.

    Parameters
    ----------
    tables : sequence of ndarray (d + 1, npts)
        One per link: the link's coupling coefficient times the node
        table, whose rows are the free dimensions and whose last row,
        read by column -1, is the pinned t = 1.  Links with equal
        coefficients share one array.
    col_idx : ndarray (n_masks, n_links)
        For each mask, the free-dimension column feeding each link, or
        -1 when the link is pinned at t = 1.
    sigma : int

    Returns
    -------
    ndarray (n_masks, npts)
    """
    return _det_chain([tab.take(col_idx[:, i], axis=0) for i, tab in enumerate(tables)], sigma)


def _link_symmetries(coefs) -> tuple:
    """Dihedral maps of the ring's links that leave ``coefs`` unchanged.

    Each map is a tuple p sending link i to p[i] = (+-i + k) mod n.  The
    ring determinant depends on its couplings only through the ring's
    matchings and the product of all links, both unchanged when the links
    are relabelled along the ring, so every map kept here leaves it
    unchanged.  Alternating coefficients (two spheres) keep the 2r maps
    with even k, equal ones (plane chain, equal radii) all 2n.
    """
    n = len(coefs)
    maps = {tuple((s * i + k) % n for i in range(n)) for s in (1, -1) for k in range(n)}
    return tuple(sorted(p for p in maps if all(coefs[j] == c for j, c in zip(p, coefs))))


@lru_cache(maxsize=256)
def _masks_for(n_links: int, d: int, group: tuple) -> tuple:
    """One mask per orbit of the d-subsets of free links under ``group``.

    Returns (col_idx, mult).  col_idx[m, i] is the free-dimension column
    feeding link i of representative m, or -1 when the link is pinned at
    t = 1; mult[m] is the size of its orbit.  Under the identity alone
    every mask is its own orbit, in ``combinations`` order.
    """
    reps, mult, seen = [], [], set()
    for free in combinations(range(n_links), d):
        if free not in seen:
            orbit = {tuple(sorted(p[i] for i in free)) for p in group}
            seen |= orbit
            reps.append(free)
            mult.append(len(orbit))
    col_idx = np.full((len(reps), n_links), -1, dtype=np.int64)
    for m, free in enumerate(reps):
        col_idx[m, list(free)] = np.arange(d)
    mult = np.array(mult, dtype=float)
    col_idx.flags.writeable = mult.flags.writeable = False
    return col_idx, mult


def _group_sum(coefs, masks, t_nodes, weights, sigma) -> float:
    """Sum of weights/det over all masks and nodes of one (sigma, d) group.

    ``masks`` is a (col_idx, mult) pair from :func:`_masks_for`; each
    mask's sum counts ``mult`` times.  The (mask, point) pairs are taken
    one tile of about ``_TILE`` at a time: up to ``_TILE`` points by as
    many masks as fill the tile.  Each tile's rows are summed by numpy's
    pairwise row sum, so the result does not depend on the BLAS thread
    count.
    """
    col_idx, mult = masks
    npts = t_nodes.shape[0]
    # node table (d + 1, npts) whose last row, read by column -1, is the pinned t = 1
    tt = np.ones((t_nodes.shape[1] + 1, npts))
    tt[:-1] = t_nodes.T
    pstep = min(npts, _TILE)
    mstep = max(1, _TILE // pstep)
    acc = np.zeros(col_idx.shape[0])
    for p0 in range(0, npts, pstep):
        scaled = {c: c * tt[:, p0:p0 + pstep] for c in set(coefs)}
        tables = [scaled[c] for c in coefs]
        w = weights[p0:p0 + pstep]
        for lo in range(0, col_idx.shape[0], mstep):
            dets = _group_dets(tables, col_idx[lo:lo + mstep], sigma)
            acc[lo:lo + mstep] += (w / dets).sum(axis=1)
    return float((mult * acc).sum())


def _tensor_group(coefs, masks, d, order, sigma) -> float:
    return _group_sum(coefs, masks, *_tensor_rule(d, order), sigma)


def _qmc_group(coefs, masks, d, npts, seed_key, sigma) -> tuple:
    """Scrambled-Sobol group integral; returns (value, error estimate)."""
    n_rep = 4
    m = max(8, int(math.log2(max(npts // n_rep, 256))))
    seeds = (np.random.SeedSequence(entropy=seed_key + (k,)).generate_state(1)[0]
             for k in range(n_rep))
    sets = (_qmc_map(qmc.Sobol(d=d, scramble=True, seed=int(s)).random_base2(m)) for s in seeds)
    reps = np.array([_group_sum(coefs, masks, t, w, sigma) for t, w in sets]) / 2**m
    value = float(reps.mean())
    err = float(reps.std(ddof=1) / math.sqrt(n_rep))
    return value, err


def _roundtrip_correction(red: ReducedGeometry, r: int, settings: QuadratureSettings):
    """Deviation of the r round-trip term from its scalar counterpart.

    Sums the signed-measure expansion over every term with at least one
    integrated dimension (the all-delta point is the exact scalar part
    and is excluded).  Returns (value, error estimate); the value carries
    the full prefactor.
    """
    if red.is_plane:
        n_links = r
        coefs = np.full(r, 1.0 / (2.0 * red.y))
        scale = 2.0 * red.y
    else:
        n_links = 2 * r
        coefs = _link_coefficients(red, r)
        scale = red.z
    try:
        prefac = 0.25 / r / scale ** r
    except OverflowError:
        prefac = 0.0  # scale**r exceeds the largest double, the prefactor underflows
    # a tensor rule integrates every mask of an orbit alike, so one
    # representative per orbit does; the Gauss order still follows the
    # full mask count, and the QMC groups keep every mask and their points
    group = _link_symmetries(coefs)
    identity = (tuple(range(n_links)),)
    total = 0.0
    err = 0.0
    for s_idx, sigma in enumerate((+1, -1)):
        for d in range(1, n_links + 1):
            n_masks = math.comb(n_links, d)
            if d <= _DIM_SWITCH:
                order = settings.nodes_per_dim
                while order > 6 and n_masks * order**d > _GROUP_BUDGET:
                    order -= 2
                masks = _masks_for(n_links, d, group)
                v = _tensor_group(coefs, masks, d, order, sigma)
                e = abs(v - _tensor_group(coefs, masks, d, max(4, order // 2), sigma))
            else:
                npts = settings.qmc_points
                while npts > 2**10 and n_masks * npts > _GROUP_BUDGET:
                    npts //= 2
                v, e = _qmc_group(
                    coefs, _masks_for(n_links, d, identity), d, npts,
                    (settings.seed, r, s_idx, d, int(red.is_plane)), sigma,
                )
            total += v
            err += e
    return prefac * total, prefac * err


def f_ded_roundtrip(
    red: ReducedGeometry,
    r: int,
    settings: QuadratureSettings | None = None,
) -> ValueWithError:
    """Contribution of exactly r round trips.

    Parameters
    ----------
    red : ReducedGeometry
    r : int
        Round-trip order, >= 1.
    settings : QuadratureSettings, optional

    Returns
    -------
    ValueWithError
        Strictly positive value with an absolute error estimate.
    """
    fsc_r = f_sc_roundtrip(red, r)  # raises DomainError for a bad order
    if settings is None:
        settings = QuadratureSettings()
    corr, err = _roundtrip_correction(red, r, settings)
    return ValueWithError(fsc_r + corr, err)


# plane-case deviation sequences are reused as the tail shape for all u
# near contact, where the deviation is nearly independent of u; they are
# integrated up to this order, past which the tail is geometric
_PLANE_TAIL_RMAX = 14


@lru_cache(maxsize=4096)
def _plane_correction(y: float, r: int, settings: QuadratureSettings) -> tuple:
    """:func:`_roundtrip_correction` of the plane case at y, memoised per order."""
    return _roundtrip_correction(from_invariants(y, 0.0), r, settings)


def _plane_eta_sequence(y: float, r_from: int, settings: QuadratureSettings) -> dict:
    """Deviations eta(r) = 1 - f^(r)/f_sc^(r) of the plane case.

    Extends from ``r_from`` until eta saturates (rho < 0.15) or the hard
    cap; values are clamped to be monotone nondecreasing in [0, 1] since
    the raw high-order entries are quasi-Monte-Carlo noisy.  Returns
    {r: (eta, relative error)}.
    """
    red0 = from_invariants(y, 0.0)
    out = {}
    eta_floor = 0.0
    for r in range(r_from, _PLANE_TAIL_RMAX + 1):
        fsc_r = f_sc_roundtrip(red0, r)
        corr, err = _plane_correction(y, r, settings)
        eta = min(1.0, max(-corr / fsc_r, eta_floor))
        eta_floor = eta
        out[r] = (eta, err / fsc_r)
        if 1.0 - eta < 0.15:
            break
    return out


def _rho_ratio(rho: dict, r: int) -> float:
    """Decay rho(r)/rho(r-1) of the ratio to the scalar series.

    rho(r) itself where there is no order r-1 or its rho is 0, as at
    large y where f1 has lost all its digits.
    """
    prev = rho.get(r - 1, 0.0)
    return rho[r] / prev if prev != 0.0 else rho[r]


def _tail_sum(red, r_end, rho_end, q, err_of_k, stop_below):
    """Accumulate -eta(r) f_sc^(r) and its uncertainty for r > r_end.

    rho continues geometrically: eta(r) = 1 - rho_end q^(r - r_end).
    """
    tail_corr = 0.0
    tail_err = 0.0
    varpi = red.varpi
    r = r_end + 1
    while r < r_end + 10**6:
        k = np.arange(r - r_end, r - r_end + 512)
        fsc_rr = _roundtrip_terms(varpi, np.arange(r, r + 512, dtype=float))
        tail_corr -= float(np.sum((1.0 - rho_end * q ** k) * fsc_rr))
        tail_err += float(np.sum(err_of_k(k) * fsc_rr))
        # <=: with stop_below = 0 (f1 = 0) the terms can only underflow to 0
        if fsc_rr[-1] <= stop_below:
            break
        r += 512
    return tail_corr, tail_err


def f_ded_total(
    red: ReducedGeometry,
    tol: float = 1e-4,
    r_max: int = 5,
    settings: QuadratureSettings | None = None,
) -> ValueWithError:
    """Total reduced free energy, all round trips.

    The single round trip is the closed form, the scalar part of every
    higher round trip is summed exactly, and the engine integrates only
    the per-round-trip deviations from the scalar result up to ``r_max``
    (stopping earlier when the estimated remainder is already below
    ``tol``).  The tail beyond the last integrated order is anchored to
    the scalar series through the ratio rho(r) = f^(r)/f_sc^(r): for
    weak coupling rho is extrapolated geometrically, while near contact
    (where rho decays slowly) the tail borrows the deviation profile of
    the plane-sphere configuration at the same y, since the deviation is
    nearly independent of u there and the plane case is far cheaper to
    integrate deeply.  That profile ends at order 14; integrated past
    it, rho is extrapolated geometrically as for weak coupling.

    Emits :class:`AccuracyWarning` when the tail estimate dominates the
    budget near contact (y - 1 < 0.05).

    Parameters
    ----------
    red : ReducedGeometry
    tol : float
        Relative accuracy target.
    r_max : int
        Cap on the number of explicitly integrated round-trip orders.
    settings : QuadratureSettings, optional

    Returns
    -------
    ValueWithError
    """
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tolerance must lie in (0, 1), got {tol}")
    if r_max < 1:
        raise DomainError(f"r_max must be >= 1, got {r_max}")
    if settings is None:
        settings = QuadratureSettings()
    f1 = f1_ded(red)
    fsc1 = f_sc_roundtrip(red, 1)
    fsc_all = f_sc_total(red, tol=1e-14)
    base = f1 + (fsc_all - fsc1)

    rho = {1: f1 / fsc1}
    corr_sum = 0.0
    err_sum = 0.0
    r_last = 1
    budget = tol * abs(f1)
    for r in range(2, r_max + 1):
        fsc_r = f_sc_roundtrip(red, r)
        # proceed only while the extrapolated tail could still miss by
        # more than the budget; once rho decays geometrically the miss
        # is bounded by a few times the projected value scale
        if r_last >= 2:
            decay = min(1.0, _rho_ratio(rho, r_last))
            scale = min(1.0, 3.0 * rho[r_last] * decay)
        else:
            scale = 1.0
        # fsc_r = 0: this order and all later ones underflow
        if fsc_r == 0.0 or fsc_r * scale < 0.25 * budget:
            break
        corr, err = _roundtrip_correction(red, r, settings)
        corr_sum += corr
        err_sum += err
        rho[r] = (fsc_r + corr) / fsc_r
        r_last = r

    stop_below = max(1e-3 * budget, 1e-15 * abs(base))
    rho_last = rho[r_last]
    tail_corr = tail_err = 0.0
    if rho_last > 0.25 and 2 <= r_last <= _PLANE_TAIL_RMAX:
        # strongly coupled: follow the plane-case deviation profile, scaled
        # to match the last integrated order, as far as the profile goes
        seq = _plane_eta_sequence(red.y, r_last, settings)
        eta_prev = 1.0 - rho_last
        eta_pl_last = seq[r_last][0]
        scale_c = eta_prev / eta_pl_last if eta_pl_last > 0 else 1.0
        r_end = max(seq)
        for r in range(r_last + 1, r_end + 1):
            fsc_r = f_sc_roundtrip(red, r)
            eta_r = min(1.0, max(eta_prev, scale_c * seq[r][0]))
            tail_corr -= eta_r * fsc_r
            tail_err += fsc_r * (0.05 * eta_r + 0.5 * seq[r][1] + abs(scale_c - 1.0))
            eta_prev = eta_r
        rho_end = 1.0 - eta_prev
        q = min(max(rho_end / max(1.0 - scale_c * seq[max(r_end - 1, r_last)][0], 1e-30), 0.0), 0.97)
        err_of_k = lambda k: 0.05 + 0.5 * rho_end * q ** k
    else:
        # weakly coupled, or integrated past the plane profile's last
        # order: geometric extrapolation of rho itself
        r_end, rho_end = r_last, rho_last
        q = min(max(_rho_ratio(rho, r_last), 0.0), 1.0)
        err_of_k = lambda k: 0.5 * rho_end * q ** k * np.minimum(1.0 + 0.5 * k, 4.0)
    tc, te = _tail_sum(red, r_end, rho_end, q, err_of_k, stop_below)
    tail_corr += tc
    tail_err += te

    value = base + corr_sum + tail_corr
    error = err_sum + tail_err + 1e-14 * abs(value)
    if red.y - 1.0 < 0.05 and tail_err > 0.5 * tol * abs(value):
        warnings.warn(
            f"tail beyond r={r_last} dominates the error budget at y-1="
            f"{red.y - 1.0:.2e}; accuracy degraded to ~{error/abs(value):.1e} relative",
            AccuracyWarning,
            stacklevel=2,
        )
    return ValueWithError(value, error)
