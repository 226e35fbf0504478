"""Brute-force plane-wave evaluation of round-trip integrals.

This module exists to validate the model modules by an independent
route: the round-trip free energy is written as a Gaussian integral over
transverse plane-wave coordinates (two Cartesian coordinates per
reflection) with the appropriate reflection kernel per sphere, and that
integral is evaluated by tensor Gauss-Hermite quadrature (r = 1) or
quasi-Monte Carlo with a Gaussian map (r = 2).  No series acceleration,
no matrix identities: just the kernels and the quadrature.

Normalization is fixed by requiring the scalar-kernel evaluation at
r = 1 to reproduce the closed form y / (4(y^2-1)); the same constant is
then used unchanged for every model and order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import DomainError, QuadratureError
from .geometry import ReducedGeometry
from .electrolyte import ValueWithError

__all__ = [
    "ReflectionModel",
    "SCALAR",
    "DRUDE_VACUUM",
    "DIELECTRIC_ELECTROLYTE",
    "reflection_tm",
    "reflection_tm_series",
    "f_roundtrip_planewave",
]

_KINDS = ("scalar-Dirichlet", "Drude-vacuum", "dielectric-electrolyte")
# highest multipole order kept by reflection_tm_series
_MULTIPOLE_CUTOFF = 40


@dataclass(frozen=True)
class ReflectionModel:
    """Which reflection kernel to use.

    Parameters
    ----------
    kind : str
        One of ``scalar-Dirichlet``, ``Drude-vacuum``,
        ``dielectric-electrolyte``.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown reflection model {self.kind!r}; choose from {_KINDS}")


SCALAR = ReflectionModel("scalar-Dirichlet")
DRUDE_VACUUM = ReflectionModel("Drude-vacuum")
DIELECTRIC_ELECTROLYTE = ReflectionModel("dielectric-electrolyte")


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


def reflection_tm(model: ReflectionModel, chi) -> np.ndarray | float:
    """Closed-form TM reflection kernel at the zero-frequency limit.

    Returns cosh(chi) for the scalar model, cosh(chi) - 1 for a Drude
    sphere in vacuum, and minus the dielectric-in-electrolyte bracket
    (the kernel of that model is negative).
    """
    chi_arr = np.asarray(chi, dtype=float)
    if model.kind == "scalar-Dirichlet":
        out = np.cosh(chi_arr)
    elif model.kind == "Drude-vacuum":
        out = np.cosh(chi_arr) - 1.0
    else:
        out = -_ded_bracket(chi_arr)
    return float(out) if np.ndim(chi) == 0 else out


def reflection_tm_series(model: ReflectionModel, chi) -> np.ndarray | float:
    """Truncated multipole series of the same kernel, for cross-checks.

    Sums A_ell chi^(2 ell) / (2 ell)! up to ell = 40 (``_MULTIPOLE_CUTOFF``)
    with A_ell = 1 (Drude-vacuum, and scalar which also keeps the
    ell = 0 term) or A_ell = -ell/(ell+1) (dielectric-electrolyte).
    """
    chi_arr = np.asarray(chi, dtype=float)
    acc = np.ones_like(chi_arr) if model.kind == "scalar-Dirichlet" else np.zeros_like(chi_arr)
    p = np.ones_like(chi_arr)
    for ell in range(1, _MULTIPOLE_CUTOFF + 1):
        p = p * chi_arr * chi_arr / ((2 * ell - 1) * (2 * ell))
        if model.kind == "dielectric-electrolyte":
            acc = acc - ell / (ell + 1.0) * p
        else:
            acc = acc + p
    return float(acc) if np.ndim(chi) == 0 else acc


def _planewave_sphere_sphere_r1(model, red, nodes: int) -> float:
    """4-dim tensor Gauss-Hermite for one round trip between two spheres."""
    kern = partial(reflection_tm, model)
    x, w = hermgauss(nodes)
    c1 = 2.0 * math.sqrt(red.alpha1 / red.z)  # 2 R1 / distance
    c2 = 2.0 * math.sqrt(red.alpha2 / red.z)
    # coupling w = x1 x2 + y1 y2; chunk over the x1 axis to bound memory
    total = 0.0
    X2 = x[None, :, None, None]
    Y1 = x[None, None, :, None]
    Y2 = x[None, None, None, :]
    W3 = w[None, :, None, None] * w[None, None, :, None] * w[None, None, None, :]
    for lo in range(0, nodes, 8):
        X1 = x[lo:lo + 8, None, None, None]
        W = w[lo:lo + 8, None, None, None] * W3
        bil = X1 * X2 + Y1 * Y2
        total += float(np.sum(W * kern(c1 * bil) * kern(c2 * bil)))
    # prefactor (1/2)(R1 R2 / pi^2 dist^2); Gauss-Hermite absorbs e^{-x^2}
    return 0.5 / (math.pi ** 2 * red.z) * total


def _planewave_plane_sphere(model, red, r: int, nodes: int) -> float:
    """2r-dim tensor Gauss-Hermite for the plane-sphere configuration, r <= 2."""
    kern = partial(reflection_tm, model)
    x, w = hermgauss(nodes)
    y = red.y
    # the plane reflects with the sign of the sphere kernel, which is
    # negative for the electrolyte model
    rp = -1.0 if model.kind == "dielectric-electrolyte" else 1.0
    if r == 1:
        # chi = (x1^2 + y1^2)/y: polar reduction would work, but stay brute force
        bil = x[:, None] ** 2 + x[None, :] ** 2
        total = float(np.sum(w[:, None] * w[None, :] * kern(bil / y)))
        return 0.5 * rp / (2.0 * y) / math.pi * total
    X1 = x[:, None, None, None]
    X2 = x[None, :, None, None]
    Y1 = x[None, None, :, None]
    Y2 = x[None, None, None, :]
    W = (w[:, None, None, None] * w[None, :, None, None]
         * w[None, None, :, None] * w[None, None, None, :])
    bil = X1 * X2 + Y1 * Y2
    total = float(np.sum(W * kern(bil / y) ** 2))
    return 0.25 * rp ** 2 / (2.0 * y) ** 2 / math.pi ** 2 * total


def _planewave_sphere_sphere_r2(model, red, npts: int, seed: int) -> tuple:
    """8-dim QMC with Gaussian map for two round trips, two spheres."""
    # imported here: scipy.stats is half of the package's import time, and only this reads it
    from scipy.special import ndtri
    from scipy.stats import qmc
    kern = partial(reflection_tm, model)
    c1 = 2.0 * math.sqrt(red.alpha1 / red.z)
    c2 = 2.0 * math.sqrt(red.alpha2 / red.z)
    n_rep = 4
    m = max(8, int(math.log2(max(npts // n_rep, 256))))
    reps = np.empty(n_rep)
    for k in range(n_rep):
        seed_k = np.random.SeedSequence(entropy=(seed, 81, k)).generate_state(1)[0]
        sob = qmc.Sobol(d=8, scramble=True, seed=int(seed_k))
        v = sob.random_base2(m)
        v = np.clip(v, 1e-12, 1.0 - 1e-12)
        g = ndtri(v) / math.sqrt(2.0)  # e^{-x^2} weight
        x1, x2, x3, x4, y1, y2, y3, y4 = g.T
        # cyclic couplings: reflections at sphere 1 and 2 alternate
        b12 = x1 * x2 + y1 * y2
        b23 = x2 * x3 + y2 * y3
        b34 = x3 * x4 + y3 * y4
        b41 = x4 * x1 + y4 * y1
        vals = (kern(c1 * b12) * kern(c2 * b23) * kern(c1 * b34) * kern(c2 * b41))
        reps[k] = float(vals.mean())
    mean = float(reps.mean())
    # the kernels grow exponentially in the Gaussian tails, which makes
    # the replicate scatter understate the residual bias; widen it
    err_stat = 4.0 * float(reps.std(ddof=1) / math.sqrt(n_rep))
    pref = 0.25 / red.z ** 2  # (1/4)(R1R2/pi^2 dist^2)^2 * pi^4
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
        Gauss-Hermite order per dimension at r = 1.
    qmc_points, seed : int
        Sobol point count and scramble seed for the r = 2 two-sphere
        case.

    Returns
    -------
    ValueWithError
    """
    if not red.is_plane and (
        (math.sqrt(red.alpha1) + math.sqrt(red.alpha2)) / math.sqrt(red.z) >= 1.0
    ):
        raise QuadratureError("Gaussian decay does not dominate: invalid geometry")
    if r not in (1, 2):
        raise DomainError("plane-wave oracle supports r in {1, 2} only")
    if red.is_plane or r == 1:
        rule = (partial(_planewave_plane_sphere, model, red, r) if red.is_plane
                else partial(_planewave_sphere_sphere_r1, model, red))
        value = rule(nodes)
        err = abs(value - rule(max(8, nodes // 2)))
    else:
        value, err = _planewave_sphere_sphere_r2(model, red, qmc_points, seed)
    return ValueWithError(value, err)
