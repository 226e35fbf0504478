"""Rational approximant for the ratio of total to single-round-trip energy.

The ratio phi_u(y) = f_u(y) / f_u^(1)(y) decreases monotonically from
Apery's constant at contact to 1 at large distance and depends only
weakly on the radius-ratio parameter u.  It is well approximated by a
rational function of exp(y-1),

    phi_rm(y) = prod_k (e^(y-1) + nu_k - 1) / (e^(y-1) + mu_k - 1),

whose n = 2 parameters for both electromagnetic models ship as built-in
defaults.  This module evaluates phi_u and phi_rm, refits the parameters
by least squares on a log grid, measures the maximal deviation over a
(y, u) grid, and combines phi_rm with the closed-form single round trip
into the fast approximant for the full free energy.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import least_squares

from .errors import DomainError, FitError
from .geometry import ReducedGeometry, from_invariants
from .electrolyte import QuadratureSettings
from .models import get_model

__all__ = [
    "RationalModelParams",
    "FitResult",
    "DVD_PARAMS",
    "DED_PARAMS",
    "builtin_params",
    "phi_rm",
    "phi_u",
    "refit",
    "max_deviation",
    "f_approx",
    "default_fit_grid",
]


@dataclass(frozen=True)
class RationalModelParams:
    """Zeros and poles (shifted by 1) of the rational approximant.

    Parameters
    ----------
    n : int
        Model order (number of factors), >= 1.
    nu : tuple of float
        n positive zero parameters.
    mu : tuple of float
        n positive pole parameters.
    model_tag : str
        Which model the parameters were fitted for: "dvd" or "ded".
    """

    n: int
    nu: tuple
    mu: tuple
    model_tag: str

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"model order must be >= 1, got {self.n}")
        if len(self.nu) != self.n or len(self.mu) != self.n:
            raise DomainError("nu and mu must each hold n values")
        if any(v <= 0 for v in self.nu) or any(v <= 0 for v in self.mu):
            raise DomainError("all nu_k and mu_k must be positive")
        if self.model_tag not in ("dvd", "ded"):
            raise DomainError(f"model_tag must be 'dvd' or 'ded', got {self.model_tag!r}")

    @property
    def contact_value(self) -> float:
        """phi_rm at y = 1, the product of nu_k / mu_k."""
        out = 1.0
        for v, m in zip(self.nu, self.mu):
            out *= v / m
        return out


# built-in n = 2 parameters for the two electromagnetic models
DVD_PARAMS = RationalModelParams(
    n=2, nu=(0.011495, 0.19868), mu=(0.011359, 0.16728), model_tag="dvd"
)
DED_PARAMS = RationalModelParams(
    n=2, nu=(0.004618, 0.09639), mu=(0.004415, 0.08397), model_tag="ded"
)


def builtin_params(model: str) -> RationalModelParams:
    if model == "dvd":
        return DVD_PARAMS
    if model == "ded":
        return DED_PARAMS
    raise DomainError(f"no built-in parameters for model {model!r}")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters together with fit metadata.

    ``epsilon`` is the maximal relative deviation |phi_u/phi_rm - 1|
    achieved on the evaluation grid recorded in ``grid_spec``.
    """

    params: RationalModelParams
    epsilon: float
    grid_spec: dict = field(default_factory=dict)
    seed: int = 0
    residual: float = 0.0

    def to_json(self) -> str:
        doc = {
            "model": self.params.model_tag,
            "n": self.params.n,
            "nu": list(self.params.nu),
            "mu": list(self.params.mu),
            "epsilon": self.epsilon,
            "grid_spec": self.grid_spec,
            "seed": self.seed,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FitResult":
        doc = json.loads(text)
        params = RationalModelParams(
            n=int(doc["n"]),
            nu=tuple(float(v) for v in doc["nu"]),
            mu=tuple(float(v) for v in doc["mu"]),
            model_tag=str(doc["model"]),
        )
        return cls(
            params=params,
            epsilon=float(doc.get("epsilon", math.nan)),
            grid_spec=dict(doc.get("grid_spec", {})),
            seed=int(doc.get("seed", 0)),
        )


def phi_rm(y, params: RationalModelParams):
    """Evaluate the rational approximant at y >= 1.

    Written in terms of exp(-(y-1)) so it stays finite (and tends to 1)
    for arbitrarily large y.
    """
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr < 1.0):
        raise DomainError("phi_rm requires y >= 1")
    w = np.exp(-(y_arr - 1.0))
    out = np.ones_like(y_arr)
    for nu_k, mu_k in zip(params.nu, params.mu):
        out = out * (1.0 + (nu_k - 1.0) * w) / (1.0 + (mu_k - 1.0) * w)
    return float(out) if np.ndim(y) == 0 else out


# phi_u evaluations dominate the fitting cost; a refit on the default
# 200-point grid and the acceptance phi tables (about 1,300 points) fit
_PHI_CACHE_SIZE = 8192


@lru_cache(maxsize=_PHI_CACHE_SIZE)
def phi_u(red: ReducedGeometry, model: str,
          settings: QuadratureSettings | None = None) -> float:
    """Ratio of the full reduced free energy to its single round trip.

    Lies in (1, zeta(3)] and decreases with y for the two
    electromagnetic models; the scalar ratio shares the endpoints but is
    not monotonic.  Results are memoised per (red, model, settings).
    """
    m = get_model(model)
    return m.total(red, settings=settings).value / m.f1(red)


def default_fit_grid(points: int = 200, lo: float = 1e-2, hi: float = 10.0) -> np.ndarray:
    """Log-spaced y values with y - 1 spanning [lo, hi]."""
    return 1.0 + np.logspace(math.log10(lo), math.log10(hi), points)


def refit(
    model: str,
    u_ref: float,
    n: int = 2,
    grid: np.ndarray | None = None,
    settings: QuadratureSettings | None = None,
    x0: RationalModelParams | None = None,
    seed: int = 0,
) -> FitResult:
    """Least-squares fit of the rational approximant at fixed u_ref.

    Minimizes sum_i (phi_rm(y_i)/phi_u(y_i) - 1)^2 over log(nu_k),
    log(mu_k); the log parameterization enforces positivity.  The
    returned ``epsilon`` is the maximal deviation on the fit grid at
    u_ref itself (use :func:`max_deviation` for a multi-u figure).

    Parameters
    ----------
    model : str
        "dvd" or "ded".
    u_ref : float
        Radius-ratio parameter the reference curve is computed at.
    n : int
        Model order, >= 1.
    grid : ndarray, optional
        y sample values; defaults to 200 points, y-1 log-spaced in
        [1e-2, 10].
    settings : QuadratureSettings, optional
        Numerical settings for the reference curve.
    x0 : RationalModelParams, optional
        Starting point; defaults to the built-in parameters (or a
        geometric ladder when the order differs).
    seed : int
        Perturbs the starting point deterministically; useful for
        reproducibility studies.

    Returns
    -------
    FitResult
    """
    if model not in ("dvd", "ded"):
        raise DomainError(f"refit supports 'dvd' and 'ded', got {model!r}")
    if n < 1:
        raise DomainError(f"model order must be >= 1, got {n}")
    if grid is None:
        grid = default_fit_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2 or np.any(grid <= 1.0):
        raise DomainError("fit grid must hold at least 2 samples with y > 1")

    phi_ref = np.array([phi_u(from_invariants(g, u_ref), model, settings) for g in grid])

    if x0 is not None and x0.n == n:
        start = np.log(np.array(list(x0.nu) + list(x0.mu)))
    else:
        builtin = builtin_params(model)
        if builtin.n == n:
            start = np.log(np.array(list(builtin.nu) + list(builtin.mu)))
        else:
            # geometric ladder between the built-in extremes
            ladder = np.geomspace(builtin.nu[0], builtin.nu[-1], n)
            start = np.log(np.concatenate([ladder, ladder * 0.9]))
    if seed:
        rng = np.random.default_rng(seed)
        start = start + rng.uniform(-0.2, 0.2, size=start.size)

    def residuals(p):
        nu = np.exp(p[:n])
        mu = np.exp(p[n:])
        pr = RationalModelParams(n=n, nu=tuple(nu), mu=tuple(mu), model_tag=model)
        return phi_rm(grid, pr) / phi_ref - 1.0

    result = least_squares(residuals, start, method="lm", xtol=1e-14, ftol=1e-14)
    if not result.success and result.status <= 0:
        raise FitError(
            f"least-squares fit failed: status={result.status}, "
            f"cost={result.cost:.3e}, nfev={result.nfev}"
        )
    nu = tuple(float(v) for v in np.exp(result.x[:n]))
    mu = tuple(float(v) for v in np.exp(result.x[n:]))
    params = RationalModelParams(n=n, nu=nu, mu=mu, model_tag=model)
    eps = float(np.max(np.abs(phi_rm(grid, params) / phi_ref - 1.0)))
    spec = {
        "u_ref": u_ref,
        "y_minus_1_min": float(grid.min() - 1.0),
        "y_minus_1_max": float(grid.max() - 1.0),
        "points": int(grid.size),
    }
    return FitResult(params=params, epsilon=eps, grid_spec=spec, seed=seed,
                     residual=float(result.cost))


def max_deviation(
    params: RationalModelParams,
    model: str,
    grid,
    settings: QuadratureSettings | None = None,
) -> float:
    """Maximal |phi_u(y)/phi_rm(y) - 1| over a set of (y, u) samples.

    Parameters
    ----------
    params : RationalModelParams
    model : str
    grid : iterable of (y, u) pairs

    Returns
    -------
    float
    """
    pairs = list(grid)
    if not pairs:
        raise DomainError("deviation grid must not be empty")
    worst = 0.0
    for y, u in pairs:
        p = phi_u(from_invariants(y, u), model, settings)
        worst = max(worst, abs(p / phi_rm(y, params) - 1.0))
    return worst


def f_approx(red: ReducedGeometry, model: str,
             params: RationalModelParams | None = None) -> float:
    """Fast approximant: closed-form single round trip times phi_rm.

    Accurate to the parameters' epsilon relative to the full sum.
    """
    if params is None:
        params = builtin_params(model)
    if model not in ("dvd", "ded"):
        raise DomainError(f"f_approx supports 'dvd' and 'ded', got {model!r}")
    return get_model(model).f1(red) * phi_rm(red.y, params)
