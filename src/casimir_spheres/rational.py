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

The refit is a Levenberg-Marquardt on log(nu_k), log(mu_k) with the
analytic Jacobian: each step solves the damped linear least-squares
problem by numpy's ``lstsq`` (More, LNM 630, 1978), so fitting imports
no scipy.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, FitError
from .geometry import ReducedGeometry, from_invariants
from .models import APPROX_MODELS, MODELS, get_model

__all__ = [
    "RationalModelParams",
    "FitResult",
    "DVD_PARAMS",
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
        Finite positive zero parameters, one per factor, at least one.
    mu : tuple of float
        Finite positive pole parameters, as many as ``nu``.
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
        if not all(0.0 < v < math.inf for v in (*self.nu, *self.mu)):
            raise DomainError("all nu_k and mu_k must be finite and positive, "
                              f"got {self.nu} and {self.mu}")
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
DVD_PARAMS = _BUILTIN["dvd"]  # bench/workloads.py reads this name; elsewhere builtin_params("dvd")


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
    def from_json(cls, text: str | bytes) -> "FitResult":
        """Read a document written by :meth:`to_json`; :class:`DomainError` for any other."""
        try:
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
        except DomainError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"not a parameter document: {type(exc).__name__}: {exc}") from None


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


# phi_u evaluations dominate the fitting cost.  Measured keys: 200 for a
# refit on the default grid, 1,000 for the benchmark's series_fit (a refit
# and two max_deviation over 5 u x 200 y; 1,400 hits), 220 for the
# acceptance suite, whose phi tables read Model.totals instead
_PHI_CACHE_SIZE = 8192


@lru_cache(maxsize=_PHI_CACHE_SIZE)
def phi_u(red: ReducedGeometry, model: str) -> float:
    """Ratio of the full reduced free energy to its single round trip.

    Where f and f1 have digits it decreases from zeta(3) towards 1 with
    y for the two electromagnetic models; the scalar ratio shares the
    endpoints but is not monotonic.  Raises :class:`ConvergenceError`
    where f or f1 is not positive (see :class:`models.Model`).  Results
    are memoised per (red, model).
    """
    m = get_model(model)
    return m.total(red).value / m.f1(red)


def default_fit_grid(points: int = 200, lo: float = 1e-2, hi: float = 10.0) -> np.ndarray:
    """``points`` >= 2 log-spaced y values, y - 1 spanning finite 0 < lo < hi; else DomainError."""
    if not (0.0 < lo < hi < math.inf and points >= 2):
        raise DomainError("fit grid needs finite 0 < lo < hi and points >= 2, "
                          f"got lo = {lo}, hi = {hi}, points = {points}")
    return 1.0 + np.logspace(math.log10(lo), math.log10(hi), points)


# an accepted step that lowers the cost by at most this share of it ends the fit
_LM_FTOL = 1e-14
# damping this strong leaves steps below the roundoff of p: the fit is at its floor
_LM_MAX_DAMPING = 1e16
_LM_MAX_ITER = 1000


def _levenberg_marquardt(w: np.ndarray, phi_ref: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Minimise sum_i r_i^2, r_i = phi_rm(y_i)/phi_ref_i - 1, over p = log(nu, mu).

    ``w`` holds exp(-(y_i - 1)).  With the Jacobian J of r in p, each step
    solves [J; sqrt(lam) D] delta = [-r; 0] by least squares, D the column
    norms of J; lam follows the ratio of actual to predicted cost
    reduction (Nielsen's rule).  A trial whose parameters exponentiate to
    0 or inf, or whose residuals are not finite, is rejected.
    """
    n = p.size // 2
    sign = np.repeat([1.0, -1.0], n)[:, None]

    def evaluate(p):
        with np.errstate(all="ignore"):
            q = np.exp(p)[:, None]
            factors = 1.0 + (q - 1.0) * w
            r = np.prod(factors[:n], axis=0) / np.prod(factors[n:], axis=0) / phi_ref - 1.0
        if not (np.all((q > 0.0) & (q < np.inf)) and np.all(np.isfinite(r))):
            return None, None
        # d log(factor_k) / d log(q_k), times 1 + r; the poles enter negated
        return r, ((1.0 + r) * sign * q * w / factors).T

    r, jac = evaluate(p)
    if r is None:
        raise FitError("the starting parameters give non-finite residuals")
    cost, lam, grow = r @ r, 1e-3, 2.0
    for _ in range(_LM_MAX_ITER):
        damping = math.sqrt(lam) * np.diag(np.sqrt(np.sum(jac * jac, axis=0)))
        step = np.linalg.lstsq(np.vstack([jac, damping]),
                               np.concatenate([-r, np.zeros(p.size)]), rcond=None)[0]
        predicted = cost - np.sum((r + jac @ step) ** 2)
        r_new, jac_new = evaluate(p + step)
        gain = -math.inf if r_new is None else cost - r_new @ r_new
        if gain > 0.0:
            rho = gain / predicted if predicted > 0.0 else 0.0
            lam, grow = lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
            converged = gain <= _LM_FTOL * cost
            p, r, jac, cost = p + step, r_new, jac_new, cost - gain
            if converged:
                return p
        else:
            lam, grow = lam * grow, grow * 2.0
            if lam >= _LM_MAX_DAMPING:
                return p
    raise FitError(f"Levenberg-Marquardt fit did not converge in {_LM_MAX_ITER} steps: "
                   f"cost {cost:.3e}, damping {lam:.1e}")


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
    returned ``epsilon`` is :func:`max_deviation` on the fit grid at
    u_ref itself (pass it a multi-u grid for a multi-u figure).  The
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
        y sample values, more than 2n of them; defaults to 200 points,
        y-1 log-spaced in [1e-2, 10].
    seed : int
        Perturbs the starting point deterministically; useful for
        reproducibility studies.

    Returns
    -------
    FitResult

    Raises
    ------
    FitError
        If phi_u has no value at a grid point (far out, where f or f1
        is not positive), or the fit does not converge.
    """
    builtin = builtin_params(model)
    if n < 1:
        raise DomainError(f"model order must be >= 1, got {n}")
    if grid is None:
        grid = default_fit_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.size <= 2 * n or np.any(grid <= 1.0):
        raise DomainError(f"fit grid must hold more than 2n = {2 * n} samples, all with y > 1")

    phi_ref = np.empty(grid.size)
    for i, g in enumerate(grid):
        try:
            phi_ref[i] = phi_u(from_invariants(g, u_ref), model)
        except ConvergenceError as exc:
            raise FitError(f"no fit target at y = {g} (u = {u_ref}): {exc}") from exc

    if builtin.n == n:
        start = np.log(np.array(list(builtin.nu) + list(builtin.mu)))
    else:
        # geometric ladder between the built-in extremes
        ladder = np.geomspace(builtin.nu[0], builtin.nu[-1], n)
        start = np.log(np.concatenate([ladder, ladder * 0.9]))
    if seed:
        rng = np.random.default_rng(seed)
        start = start + rng.uniform(-0.2, 0.2, size=start.size)

    x = _levenberg_marquardt(np.exp(-(grid - 1.0)), phi_ref, start)
    nu = tuple(float(v) for v in np.exp(x[:n]))
    mu = tuple(float(v) for v in np.exp(x[n:]))
    params = RationalModelParams(nu=nu, mu=mu, model_tag=model)
    eps = max_deviation(params, model, [(y, u_ref) for y in grid])
    spec = {
        "u_ref": u_ref,
        "y_minus_1_min": float(grid.min() - 1.0),
        "y_minus_1_max": float(grid.max() - 1.0),
        "points": int(grid.size),
    }
    return FitResult(params=params, epsilon=eps, grid_spec=spec, seed=seed)


def max_deviation(params: RationalModelParams, model: str, grid) -> float:
    """Maximal |phi_u(y)/phi_rm(y) - 1| over a set of (y, u) samples.

    Raises :class:`ConvergenceError` where phi_u has no value.

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
    return float(worst)


def f_approx(red: ReducedGeometry, model: str,
             params: RationalModelParams | None = None) -> float:
    """Fast approximant: closed-form single round trip times phi_rm.

    Accurate to the parameters' epsilon relative to the full sum.
    Raises :class:`DomainError` for a model without an approximant and
    :class:`ConvergenceError` where f1 is not positive.
    """
    builtin = builtin_params(model)
    return get_model(model).f1(red) * phi_rm(red.y, builtin if params is None else params)
