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
from .models import APPROX_MODELS, MODELS, get_model

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
    nu : tuple of float
        Positive zero parameters, one per factor, at least one.
    mu : tuple of float
        Positive pole parameters, as many as ``nu``.
    model_tag : str
        Which model the parameters were fitted for; its registry entry
        must carry an approximant.
    """

    nu: tuple
    mu: tuple
    model_tag: str

    def __post_init__(self):
        if not 1 <= len(self.nu) == len(self.mu):
            raise DomainError("nu and mu must hold equally many values, at least one; "
                              f"got {len(self.nu)} and {len(self.mu)}")
        if any(v <= 0 for v in self.nu) or any(v <= 0 for v in self.mu):
            raise DomainError("all nu_k and mu_k must be positive")
        if self.model_tag not in APPROX_MODELS:
            raise DomainError(f"model_tag must be one of {APPROX_MODELS}, got {self.model_tag!r}")

    @property
    def n(self) -> int:
        """Model order: the number of factors, ``len(nu)``."""
        return len(self.nu)

    @property
    def contact_value(self) -> float:
        """phi_rm at y = 1, the product of nu_k / mu_k."""
        out = 1.0
        for v, m in zip(self.nu, self.mu):
            out *= v / m
        return out


# built-in parameters, as the model registry declares them
_BUILTIN = {name: RationalModelParams(*MODELS[name].approx, name) for name in APPROX_MODELS}
DVD_PARAMS = _BUILTIN["dvd"]
DED_PARAMS = _BUILTIN["ded"]


def builtin_params(model: str) -> RationalModelParams:
    """Built-in parameters of ``model``; :class:`DomainError` if it has none."""
    try:
        return _BUILTIN[model]
    except (KeyError, TypeError):
        raise DomainError(f"no built-in parameters for model {model!r}") from None


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
            nu=tuple(float(v) for v in doc["nu"]),
            mu=tuple(float(v) for v in doc["mu"]),
            model_tag=str(doc["model"]),
        )
        if int(doc["n"]) != params.n:
            raise DomainError(f"n = {doc['n']} but nu and mu hold {params.n} values")
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
    scalar = isinstance(y, float) or np.ndim(y) == 0
    y = float(y) if scalar else np.asarray(y, dtype=float)
    if (y < 1.0) if scalar else np.any(y < 1.0):
        raise DomainError("phi_rm requires y >= 1")
    # a scalar y runs the product on floats, which skips numpy's 0-d overhead
    w = np.exp(-(y - 1.0))
    if scalar:
        w = float(w)
    out = 1.0
    for nu_k, mu_k in zip(params.nu, params.mu):
        out = out * (1.0 + (nu_k - 1.0) * w) / (1.0 + (mu_k - 1.0) * w)
    return out


# phi_u evaluations dominate the fitting cost; a refit on the default
# 200-point grid and the acceptance phi tables (about 1,300 points) fit
_PHI_CACHE_SIZE = 8192


@lru_cache(maxsize=_PHI_CACHE_SIZE)
def phi_u(red: ReducedGeometry, model: str) -> float:
    """Ratio of the full reduced free energy to its single round trip.

    Lies in (1, zeta(3)] and decreases with y for the two
    electromagnetic models; the scalar ratio shares the endpoints but is
    not monotonic.  Results are memoised per (red, model).
    """
    m = get_model(model)
    return m.total(red).value / m.f1(red)


def default_fit_grid(points: int = 200, lo: float = 1e-2, hi: float = 10.0) -> np.ndarray:
    """Log-spaced y values with y - 1 spanning [lo, hi]."""
    return 1.0 + np.logspace(math.log10(lo), math.log10(hi), points)


def refit(
    model: str,
    u_ref: float,
    n: int = 2,
    grid: np.ndarray | None = None,
    seed: int = 0,
) -> FitResult:
    """Least-squares fit of the rational approximant at fixed u_ref.

    Minimizes sum_i (phi_rm(y_i)/phi_u(y_i) - 1)^2 over log(nu_k),
    log(mu_k); the log parameterization enforces positivity.  The
    returned ``epsilon`` is the maximal deviation on the fit grid at
    u_ref itself (use :func:`max_deviation` for a multi-u figure).  The
    fit starts from the built-in parameters, or from a geometric ladder
    between them when the order differs.

    Parameters
    ----------
    model : str
        A model with built-in parameters (see :func:`builtin_params`).
    u_ref : float
        Radius-ratio parameter the reference curve is computed at.
    n : int
        Model order, >= 1.
    grid : ndarray, optional
        y sample values; defaults to 200 points, y-1 log-spaced in
        [1e-2, 10].
    seed : int
        Perturbs the starting point deterministically; useful for
        reproducibility studies.

    Returns
    -------
    FitResult
    """
    builtin = builtin_params(model)
    if n < 1:
        raise DomainError(f"model order must be >= 1, got {n}")
    if grid is None:
        grid = default_fit_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2 or np.any(grid <= 1.0):
        raise DomainError("fit grid must hold at least 2 samples with y > 1")

    phi_ref = np.array([phi_u(from_invariants(g, u_ref), model) for g in grid])

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
        pr = RationalModelParams(nu=tuple(nu), mu=tuple(mu), model_tag=model)
        return phi_rm(grid, pr) / phi_ref - 1.0

    result = least_squares(residuals, start, method="lm", xtol=1e-14, ftol=1e-14)
    if not result.success and result.status <= 0:
        raise FitError(
            f"least-squares fit failed: status={result.status}, "
            f"cost={result.cost:.3e}, nfev={result.nfev}"
        )
    nu = tuple(float(v) for v in np.exp(result.x[:n]))
    mu = tuple(float(v) for v in np.exp(result.x[n:]))
    params = RationalModelParams(nu=nu, mu=mu, model_tag=model)
    eps = float(np.max(np.abs(phi_rm(grid, params) / phi_ref - 1.0)))
    spec = {
        "u_ref": u_ref,
        "y_minus_1_min": float(grid.min() - 1.0),
        "y_minus_1_max": float(grid.max() - 1.0),
        "points": int(grid.size),
    }
    return FitResult(params=params, epsilon=eps, grid_spec=spec, seed=seed)


def max_deviation(params: RationalModelParams, model: str, grid) -> float:
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
        p = phi_u(from_invariants(y, u), model)
        worst = max(worst, abs(p / phi_rm(y, params) - 1.0))
    return worst


def f_approx(red: ReducedGeometry, model: str,
             params: RationalModelParams | None = None) -> float:
    """Fast approximant: closed-form single round trip times phi_rm.

    Accurate to the parameters' epsilon relative to the full sum.
    Raises :class:`DomainError` for a model without an approximant.
    """
    builtin = builtin_params(model)
    return get_model(model).f1(red) * phi_rm(red.y, builtin if params is None else params)
