"""Independent routes that cross-check the model modules.

Plane-wave quadrature writes the round-trip free energy as a Gaussian
integral over transverse plane-wave coordinates (two Cartesian
coordinates per reflection) with each sphere's reflection kernel.  One
chunked 4-dim tensor Gauss-Hermite rule evaluates it for two spheres at
r = 1 and for a plane and a sphere at r = 2; a 2-dim rule for the plane
at r = 1, and quasi-Monte Carlo with a Gaussian map for two spheres at
r = 2.  No series acceleration, no matrix identities: just the kernels
and the quadrature.  Normalization is fixed by requiring the scalar
kernel at r = 1 to reproduce the closed form y / (4(y^2-1)); the same
constant serves every model and order.

Ring determinants: the 2r-dimensional round-trip coupling matrix's
determinant by dense LU and by a transfer-matrix continuant.

Two drivers run the cross-checks case by case: the ``validate``
subcommand prints each case, the acceptance suite bounds the worst.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import DomainError, QuadratureError
from .geometry import ReducedGeometry, from_invariants
from .electrolyte import ValueWithError

__all__ = [
    "ReflectionModel",
    "RoundTripMatrixSpec",
    "SCALAR",
    "DRUDE_VACUUM",
    "DIELECTRIC_ELECTROLYTE",
    "reflection_tm",
    "reflection_tm_series",
    "f_roundtrip_planewave",
    "det_roundtrip_matrix",
    "det_roundtrip_transfer",
    "planewave_r1_deviations",
    "ring_determinant_deviations",
]

# highest multipole order kept by reflection_tm_series
_MULTIPOLE_CUTOFF = 40


def _ded_bracket(chi: np.ndarray) -> np.ndarray:
    """cosh x + 2(cosh x - 1)/x^2 - 2 sinh x / x, series-protected near 0."""
    chi = np.asarray(chi, dtype=float)
    out = np.empty_like(chi)
    small = np.abs(chi) < 0.5
    cs = chi[small]
    acc = np.zeros_like(cs)
    p = np.ones_like(cs)
    for ell in range(1, 14):
        p = p * cs * cs / ((2 * ell - 1) * (2 * ell))
        acc += ell / (ell + 1.0) * p
    out[small] = acc
    cb = chi[~small]
    out[~small] = np.cosh(cb) + 2.0 * (np.cosh(cb) - 1.0) / cb**2 - 2.0 * np.sinh(cb) / cb
    return out


@dataclass(frozen=True)
class ReflectionModel:
    """One model's zero-frequency TM reflection kernel, held as data.

    ``kind`` labels it in ``validate``'s output, ``kernel(chi)`` is its
    closed form and ``amplitude(ell)``, ell >= 0, its multipole amplitude
    A_ell: the kernel is sum_ell A_ell chi^(2 ell) / (2 ell)!.  A plane
    reflects with ``plane_sign``, the sign of the kernel.
    """

    kind: str
    kernel: Callable[[np.ndarray], np.ndarray]
    amplitude: Callable[[int], float]
    plane_sign: float = 1.0


SCALAR = ReflectionModel("scalar-Dirichlet", np.cosh, lambda ell: 1.0)
DRUDE_VACUUM = ReflectionModel("Drude-vacuum", lambda chi: np.cosh(chi) - 1.0,
                               lambda ell: 1.0 if ell else 0.0)
# the kernel of this model is negative
DIELECTRIC_ELECTROLYTE = ReflectionModel("dielectric-electrolyte", lambda chi: -_ded_bracket(chi),
                                         lambda ell: -ell / (ell + 1.0), plane_sign=-1.0)


def reflection_tm(model: ReflectionModel, chi) -> np.ndarray | float:
    """Closed-form TM reflection kernel at the zero-frequency limit.

    cosh(chi) for the scalar model, cosh(chi) - 1 for a Drude sphere in
    vacuum, and minus the dielectric-in-electrolyte bracket.
    """
    out = model.kernel(np.asarray(chi, dtype=float))
    return float(out) if np.ndim(chi) == 0 else out


def reflection_tm_series(model: ReflectionModel, chi) -> np.ndarray | float:
    """Truncated multipole series of the same kernel, for cross-checks.

    Sums A_ell chi^(2 ell) / (2 ell)! for ell = 0 to 40
    (``_MULTIPOLE_CUTOFF``), A_ell the model's ``amplitude``.
    """
    chi_arr = np.asarray(chi, dtype=float)
    acc = np.zeros_like(chi_arr)
    p = np.ones_like(chi_arr)
    for ell in range(_MULTIPOLE_CUTOFF + 1):
        if ell:
            p = p * chi_arr * chi_arr / ((2 * ell - 1) * (2 * ell))
        acc = acc + model.amplitude(ell) * p
    return float(acc) if np.ndim(chi) == 0 else acc


def _bilinear_rule(model, c1, c2, nodes: int) -> float:
    """4-dim tensor Gauss-Hermite sum of kern(c1 w) kern(c2 w), w = x1 x2 + y1 y2.

    Gauss-Hermite absorbs the weight e^{-x^2} of each coordinate; the sum
    runs over 8 nodes of x1 at a time to bound memory.
    """
    kern = partial(reflection_tm, model)
    x, w = hermgauss(nodes)
    total = 0.0
    X2, Y1, Y2 = x[None, :, None, None], x[None, None, :, None], x[None, None, None, :]
    W3 = w[None, :, None, None] * w[None, None, :, None] * w[None, None, None, :]
    for lo in range(0, nodes, 8):
        X1 = x[lo:lo + 8, None, None, None]
        W = w[lo:lo + 8, None, None, None] * W3
        bil = X1 * X2 + Y1 * Y2
        total += float(np.sum(W * kern(c1 * bil) * kern(c2 * bil)))
    return total


def _plane_r1_rule(model, y: float, nodes: int) -> float:
    """2-dim tensor Gauss-Hermite sum of kern((x1^2 + y1^2)/y), the plane's r = 1."""
    x, w = hermgauss(nodes)
    # polar reduction would work, but stay brute force
    bil = x[:, None] ** 2 + x[None, :] ** 2
    return float(np.sum(w[:, None] * w[None, :] * reflection_tm(model, bil / y)))


def _planewave_sphere_sphere_r2(model, c1, c2, z, npts: int, seed: int) -> tuple:
    """8-dim QMC with Gaussian map for two round trips, two spheres."""
    # imported here: scipy.stats is half of the package's import time, and only this reads it
    from scipy.special import ndtri
    from scipy.stats import qmc
    kern = partial(reflection_tm, model)
    n_rep = 4
    m = max(8, int(math.log2(max(npts // n_rep, 256))))
    reps = np.empty(n_rep)
    for k in range(n_rep):
        seed_k = np.random.SeedSequence(entropy=(seed, 81, k)).generate_state(1)[0]
        sob = qmc.Sobol(d=8, scramble=True, seed=int(seed_k))
        v = np.clip(sob.random_base2(m), 1e-12, 1.0 - 1e-12)
        g = ndtri(v) / math.sqrt(2.0)  # e^{-x^2} weight
        x, y = g[:, :4].T, g[:, 4:].T
        # cyclic couplings b12, b23, b34, b41: reflections at sphere 1 and 2 alternate
        b = x * np.roll(x, -1, axis=0) + y * np.roll(y, -1, axis=0)
        vals = kern(c1 * b[0]) * kern(c2 * b[1]) * kern(c1 * b[2]) * kern(c2 * b[3])
        reps[k] = float(vals.mean())
    mean = float(reps.mean())
    # the kernels grow exponentially in the Gaussian tails, which makes
    # the replicate scatter understate the residual bias; widen it
    err_stat = 4.0 * float(reps.std(ddof=1) / math.sqrt(n_rep))
    pref = 0.25 / z ** 2  # (1/4)(R1R2/pi^2 dist^2)^2 * pi^4
    return pref * mean, pref * err_stat


def f_roundtrip_planewave(
    model: ReflectionModel,
    red: ReducedGeometry,
    r: int,
    nodes: int = 60,
    qmc_points: int = 2**16,
    seed: int = 0,
) -> ValueWithError:
    """Round-trip free energy by direct plane-wave quadrature.

    Parameters
    ----------
    model : ReflectionModel
    red : ReducedGeometry
    r : int
        1 or 2; higher orders are out of reach for a brute-force rule.
    nodes : int
        Gauss-Hermite order per dimension of the tensor rules: every
        order with a plane, r = 1 with two spheres.
    qmc_points, seed : int
        Sobol point count and scramble seed for the r = 2 two-sphere
        case.

    Returns
    -------
    ValueWithError
    """
    if red.is_plane:
        c1 = c2 = 1.0 / red.y
    else:
        c1 = 2.0 * math.sqrt(red.alpha1 / red.z)  # 2 R1 / distance
        c2 = 2.0 * math.sqrt(red.alpha2 / red.z)
        if c1 + c2 >= 2.0:
            raise QuadratureError("Gaussian decay does not dominate: invalid geometry")
    if r not in (1, 2):
        raise DomainError("plane-wave oracle supports r in {1, 2} only")
    if not red.is_plane and r == 2:
        return ValueWithError(*_planewave_sphere_sphere_r2(model, c1, c2, red.z,
                                                           qmc_points, seed))
    if red.is_plane and r == 1:
        pref = 0.5 * model.plane_sign / (2.0 * red.y) / math.pi
        rule = partial(_plane_r1_rule, model, red.y)
    else:
        # (1/2)(R1 R2 / pi^2 dist^2); with a plane both reflections are at
        # the sphere, chi = w/y, and the plane's sign squares to 1
        pref = (0.25 / (2.0 * red.y) ** 2 / math.pi ** 2 if red.is_plane
                else 0.5 / (math.pi ** 2 * red.z))
        rule = partial(_bilinear_rule, model, c1, c2)
    value = pref * rule(nodes)
    return ValueWithError(value, abs(value - pref * rule(max(8, nodes // 2))))


# ---------------------------------------------------------------------------
# ring determinants


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
    """Transfer-matrix (continuant) evaluation of the same determinant.

    Link i couples sites i and i+1; the last link closes the ring with
    sign sigma.  Two links share one matrix entry (determinant
    1 - (a1 + sigma a2)^2).  For n = 2r >= 4 links the determinant is the
    open-chain continuant, less the ring-closure continuant, less twice
    sigma times the product of the links (n is even).
    """
    coefs = _link_coefficients(red, spec.r)
    a = list(coefs * np.asarray(spec.t, dtype=float))
    n, sigma = len(a), spec.sigma
    if n == 2:
        s = a[0] + sigma * a[1]
        return float(1.0 - s * s)
    sq = [c ** 2 for c in a]
    # open-chain continuant P_n over links 0..n-2
    p_prev = p = 1.0
    for i in range(n - 1):
        p_prev, p = p, p - sq[i] * p_prev
    # interior continuant over links 1..n-3 (sites 2..n-1)
    q_prev = q = 1.0
    for i in range(1, n - 2):
        q_prev, q = q, q - sq[i] * q_prev
    prod = math.prod(a[:-1], start=sigma)
    return float(p - sq[n - 1] * q - 2.0 * prod * a[n - 1])


# ---------------------------------------------------------------------------
# cross-check drivers


def planewave_r1_deviations():
    """Yield (y, u, kernel kind, |plane-wave r = 1 / closed form - 1|).

    One case per model at each of (y, u) = (1.5, 0.25), (2, 0.1), (5, 0).
    """
    from .models import MODELS  # models imports this module for its kernels
    for y, u in ((1.5, 0.25), (2.0, 0.1), (5.0, 0.0)):
        red = from_invariants(y, u)
        for model in MODELS.values():
            got = f_roundtrip_planewave(model.reflection, red, 1).value
            yield y, u, model.reflection.kind, abs(got / model.f1(red) - 1.0)


def ring_determinant_deviations(seed: int):
    """Yield (spec, red, |dense LU / transfer - 1|) for 100 random rings.

    Each ring draws r in {1, 2, 3}, y in [1.2, 6], u in [0.02, 1/4],
    couplings in [0, 1] and a sign from ``default_rng(seed)``.
    """
    rng = np.random.default_rng(seed)
    for _ in range(100):
        r = int(rng.integers(1, 4))
        red = from_invariants(float(rng.uniform(1.2, 6.0)), float(rng.uniform(0.02, 0.25)))
        spec = RoundTripMatrixSpec(r=r, t=tuple(rng.uniform(0.0, 1.0, 2 * r).tolist()),
                                   sigma=int(rng.choice((-1, 1))))
        d_lu, d_tm = det_roundtrip_matrix(spec, red), det_roundtrip_transfer(spec, red)
        yield spec, red, abs(d_lu / d_tm - 1.0)
