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
dimensions and scrambled Sobol quasi-Monte Carlo above ``dim_switch``.

For the plane-sphere case the 2r-dimensional form degenerates; the limit
is taken analytically and yields the same structure on an r-dimensional
cyclic chain with uniform coupling coefficient 1/(2y), which is what the
plane branch of the engine evaluates.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.stats import qmc

from .errors import AccuracyWarning, DomainError, QuadratureError
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

# evaluation-count ceilings per (sigma, d) group; accuracy knobs live in
# QuadratureSettings, these only bound memory/runtime at extreme r
_TENSOR_GROUP_BUDGET = 2**23
_QMC_GROUP_BUDGET = 2**23
_CHUNK_ROWS = 2**20


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
        Scrambled Sobol point count (power of two) for the terms with
        more than ``dim_switch`` integrated dimensions, >= 1024.
    dim_switch : int
        Dimension above which quasi-Monte Carlo replaces the tensor rule.
    seed : int
        Seed for the Sobol scrambling; results are reproducible
        bit-for-bit for fixed settings.
    """

    nodes_per_dim: int = 16
    qmc_points: int = 2**13
    dim_switch: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.nodes_per_dim < 2:
            raise DomainError("nodes_per_dim must be >= 2")
        if self.qmc_points < 2**10:
            raise DomainError("qmc_points must be >= 2**10")
        if self.dim_switch < 0:
            raise DomainError("dim_switch must be >= 0")


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
    # open-chain continuant P_n over links 0..n-2
    p_prev = 1.0
    p = 1.0
    prod = sigma * coups[0]
    for i in range(n - 1):
        p_prev, p = p, p - coups[i] ** 2 * p_prev
        if i >= 1:
            prod = prod * coups[i]
    # interior continuant over links 1..n-3 (sites 2..n-1)
    q_prev = 1.0
    q = 1.0
    for i in range(1, n - 2):
        q_prev, q = q, q - coups[i] ** 2 * q_prev
    sign = -2.0 if n % 2 == 0 else 2.0
    return p - coups[n - 1] ** 2 * q + sign * prod * coups[n - 1]


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
    """
    y = red.y
    f1sc = y / (4.0 * (y * y - 1.0))
    if red.is_plane:
        return 0.25 * y * (1.0 / (y * y - 1.0) + math.log1p(-1.0 / (y * y)))
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


@lru_cache(maxsize=None)
def _gl_rule(order: int) -> tuple:
    """Nodes/weights on [0,1] for the continuous measure part -2 t dt.

    Uses the corner substitution t = 1 - (1-v)^2 which clusters nodes at
    t = 1 where the integrands peak near contact.
    """
    x, w = leggauss(order)
    v = 0.5 * (x + 1.0)
    t = 1.0 - (1.0 - v) ** 2
    jac = (1.0 - v)  # dt = 2(1-v) dv, dv = dx/2
    wt = -2.0 * w * t * jac
    return t, wt


def _qmc_map(v: np.ndarray) -> tuple:
    """Map uniform points to t-space with the corner substitution.

    Returns the t matrix and the per-point product weight of the
    continuous measure part.
    """
    t = 1.0 - (1.0 - v) ** 2
    wt = -4.0 * t * (1.0 - v)  # -2 t dt with dt = 2(1-v) dv
    return t, wt.prod(axis=1)


def _group_dets(coefs, col_idx, t_nodes, sigma):
    """Stacked determinants for one (sigma, d) group.

    Parameters
    ----------
    coefs : ndarray (n_links,)
        Per-link coupling coefficients.
    col_idx : ndarray (n_masks, n_links)
        For each mask, the free-dimension column feeding each link, or
        -1 when the link is pinned at t = 1.
    t_nodes : ndarray (npts, d)
        Quadrature nodes of the free dimensions.
    sigma : int

    Returns
    -------
    ndarray (n_masks, npts)
    """
    tt = np.ascontiguousarray(t_nodes.T)  # (d, npts)
    coups = []
    for i, ci in enumerate(coefs):
        col = col_idx[:, i]
        sel = np.where(col[:, None] >= 0, tt[np.clip(col, 0, tt.shape[0] - 1), :], 1.0)
        coups.append(ci * sel)
    return _det_chain(coups, sigma)


def _masks_for(n_links: int, d: int) -> np.ndarray:
    """col_idx arrays for every choice of d free links out of n_links."""
    combos = list(combinations(range(n_links), d))
    col_idx = np.full((len(combos), n_links), -1, dtype=np.int64)
    for m, free in enumerate(combos):
        for k, i in enumerate(free):
            col_idx[m, i] = k
    return col_idx


def _tensor_group(coefs, col_idx, d, order, sigma) -> float:
    t1, w1 = _gl_rule(order)
    grids = np.meshgrid(*([t1] * d), indexing="ij")
    t_nodes = np.stack([g.ravel() for g in grids], axis=1)
    wflat = np.ones(1)
    for _ in range(d):
        wflat = np.multiply.outer(wflat, w1).ravel()
    npts = t_nodes.shape[0]
    total = 0.0
    step = max(1, _CHUNK_ROWS // max(npts, 1))
    for lo in range(0, col_idx.shape[0], step):
        dets = _group_dets(coefs, col_idx[lo:lo + step], t_nodes, sigma)
        total += float(((1.0 / dets) @ wflat).sum())
    return total


def _qmc_group(coefs, col_idx, d, npts, seed_key, sigma) -> tuple:
    """Scrambled-Sobol group integral; returns (value, error estimate)."""
    n_rep = 4
    m = max(8, int(math.log2(max(npts // n_rep, 256))))
    reps = np.empty(n_rep)
    for k in range(n_rep):
        seed = np.random.SeedSequence(entropy=seed_key + (k,)).generate_state(1)[0]
        sob = qmc.Sobol(d=d, scramble=True, seed=int(seed))
        v = sob.random_base2(m)
        t_nodes, wt = _qmc_map(v)
        total = 0.0
        step = max(1, _CHUNK_ROWS // t_nodes.shape[0])
        for lo in range(0, col_idx.shape[0], step):
            dets = _group_dets(coefs, col_idx[lo:lo + step], t_nodes, sigma)
            total += float(((1.0 / dets) @ wt).sum())
        reps[k] = total / t_nodes.shape[0]
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
        prefac = 0.25 / r / (2.0 * red.y) ** r
    else:
        n_links = 2 * r
        coefs = _link_coefficients(red, r)
        prefac = 0.25 / r / red.z ** r
    total = 0.0
    err = 0.0
    for s_idx, sigma in enumerate((+1, -1)):
        for d in range(1, n_links + 1):
            col_idx = _masks_for(n_links, d)
            n_masks = col_idx.shape[0]
            if d <= settings.dim_switch:
                order = settings.nodes_per_dim
                while order > 6 and n_masks * order**d > _TENSOR_GROUP_BUDGET:
                    order -= 2
                v_hi = _tensor_group(coefs, col_idx, d, order, sigma)
                v_lo = _tensor_group(coefs, col_idx, d, max(4, order // 2), sigma)
                total += v_hi
                err += abs(v_hi - v_lo)
            else:
                npts = settings.qmc_points
                while npts > 2**10 and n_masks * npts > _QMC_GROUP_BUDGET:
                    npts //= 2
                v, e = _qmc_group(
                    coefs, col_idx, d, npts,
                    (settings.seed, r, s_idx, d, int(red.is_plane)), sigma,
                )
                total += v
                err += e
    return prefac * total, prefac * err


def f_ded_roundtrip(
    red: ReducedGeometry,
    r: int,
    settings: QuadratureSettings | None = None,
    rtol: float | None = None,
) -> ValueWithError:
    """Contribution of exactly r round trips.

    Parameters
    ----------
    red : ReducedGeometry
    r : int
        Round-trip order, >= 1.
    settings : QuadratureSettings, optional
    rtol : float, optional
        If given, raise :class:`QuadratureError` when the error estimate
        exceeds ``rtol`` times the value.

    Returns
    -------
    ValueWithError
        Strictly positive value with an absolute error estimate.
    """
    if r < 1 or int(r) != r:
        raise DomainError(f"round-trip order must be a positive integer, got {r}")
    if settings is None:
        settings = QuadratureSettings()
    corr, err = _roundtrip_correction(red, r, settings)
    value = f_sc_roundtrip(red, r) + corr
    if rtol is not None and err > rtol * abs(value):
        raise QuadratureError(
            f"round-trip r={r}: error estimate {err:.2e} exceeds {rtol:.1e} x |{value:.6e}|"
        )
    return ValueWithError(value, err)


# plane-case deviation sequences are reused as the tail shape for all u
# near contact, where the deviation is nearly independent of u
_PLANE_TAIL_RMAX = 14
_PLANE_CACHE_SIZE = 4096


@lru_cache(maxsize=_PLANE_CACHE_SIZE)
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


def _tail_sum(red, r_start, eta_of_k, err_of_k, stop_below):
    """Accumulate -eta(r) f_sc^(r) and its uncertainty for r > r_start."""
    tail_corr = 0.0
    tail_err = 0.0
    varpi = red.varpi
    r = r_start + 1
    while r < r_start + 10**6:
        k = np.arange(r - r_start, r - r_start + 512)
        fsc_rr = _roundtrip_terms(varpi, np.arange(r, r + 512, dtype=float))
        tail_corr -= float(np.sum(eta_of_k(k) * fsc_rr))
        tail_err += float(np.sum(err_of_k(k) * fsc_rr))
        if fsc_rr[-1] < stop_below:
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
    integrate deeply.

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
            decay = min(1.0, rho[r_last] / rho[r_last - 1])
            scale = min(1.0, 3.0 * rho[r_last] * decay)
        else:
            scale = 1.0
        if fsc_r * scale < 0.25 * budget:
            break
        corr, err = _roundtrip_correction(red, r, settings)
        corr_sum += corr
        err_sum += err
        rho[r] = (fsc_r + corr) / fsc_r
        r_last = r

    stop_below = max(1e-3 * budget, 1e-15 * abs(base))
    eta_last = 1.0 - rho[r_last]
    rho_last = rho[r_last]
    tail_corr = 0.0
    tail_err = 0.0
    if rho_last > 0.25 and r_last >= 2:
        # strongly coupled: follow the plane-case deviation profile,
        # scaled to match the last integrated order
        seq = _plane_eta_sequence(red.y, r_last, settings)
        eta_pl_last = seq.get(r_last, (0.0, 0.0))[0]
        scale_c = eta_last / eta_pl_last if eta_pl_last > 0 else 1.0
        eta_prev = eta_last
        r_end = max(seq)
        for r in range(r_last + 1, r_end + 1):
            fsc_r = f_sc_roundtrip(red, r)
            eta_r = min(1.0, max(eta_prev, scale_c * seq[r][0]))
            tail_corr -= eta_r * fsc_r
            tail_err += fsc_r * (0.05 * eta_r + 0.5 * seq[r][1] + abs(scale_c - 1.0))
            eta_prev = eta_r
        rho_end = 1.0 - eta_prev
        q = min(max(rho_end / max(1.0 - scale_c * seq[max(r_end - 1, r_last)][0], 1e-30), 0.0), 0.97)
        tc, te = _tail_sum(
            red, r_end,
            lambda k: 1.0 - rho_end * q ** k,
            lambda k: 0.05 + 0.5 * rho_end * q ** k,
            stop_below,
        )
        tail_corr += tc
        tail_err += te
    else:
        # weakly coupled: geometric extrapolation of rho itself
        if r_last >= 2 and rho[r_last - 1] != 0.0:
            q = rho[r_last] / rho[r_last - 1]
        else:
            q = rho_last
        q = min(max(q, 0.0), 1.0)
        tc, te = _tail_sum(
            red, r_last,
            lambda k: 1.0 - rho_last * q ** k,
            lambda k: 0.5 * rho_last * q ** k * np.minimum(1.0 + 0.5 * k, 4.0),
            stop_below,
        )
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
