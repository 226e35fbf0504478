"""Independent routes that cross-check the model modules.

Plane-wave quadrature writes the round-trip free energy as a Gaussian
integral over transverse plane-wave coordinates (two Cartesian
coordinates per reflection) with each sphere's reflection kernel, read
by model name from the registry ``models.MODELS``.  One chunked 4-dim
tensor Gauss-Hermite rule evaluates it for two spheres at r = 1 and for
a plane and a sphere at r = 2, a 2-dim rule for the plane at r = 1.  Two
spheres at r = 2 would need 8 dimensions and are refused.  No series
acceleration, no matrix identities: just the kernels and the quadrature.
Normalization is fixed by requiring the scalar kernel at r = 1 to
reproduce the closed form y / (4(y^2-1)); the same constant serves every
model and order.

The banded ded determinant: the Schur recursion of
``electrolyte._checkpoints`` against dense linear algebra on the same
truncated, closed matrices.

Two drivers run the cross-checks case by case: the ``validate``
subcommand prints each case, the acceptance suite bounds the worst.
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import DomainError
from .geometry import ReducedGeometry, from_invariants
from .electrolyte import _EPS, ValueWithError, _checkpoints, _closures, _row_counts, _sphere_mus
from .models import MODELS, get_model

__all__ = [
    "f_roundtrip_planewave",
    "banded_determinant_deviations",
    "planewave_r1_deviations",
]


def _bilinear_rule(kern, c1, c2, nodes: int) -> float:
    """4-dim tensor Gauss-Hermite sum of kern(c1 w) kern(c2 w), w = x1 x2 + y1 y2.

    Gauss-Hermite absorbs the weight e^{-x^2} of each coordinate; the sum
    runs over 8 nodes of x1 at a time to bound memory.
    """
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


def _plane_r1_rule(kern, y: float, nodes: int) -> float:
    """2-dim tensor Gauss-Hermite sum of kern((x1^2 + y1^2)/y), the plane's r = 1."""
    x, w = hermgauss(nodes)
    # polar reduction would work, but stay brute force
    bil = x[:, None] ** 2 + x[None, :] ** 2
    return float(np.sum(w[:, None] * w[None, :] * kern(bil / y)))


def f_roundtrip_planewave(
    model: str,
    red: ReducedGeometry,
    r: int,
    nodes: int = 60,
) -> ValueWithError:
    """Round-trip free energy by direct plane-wave quadrature.

    A tensor Gauss-Hermite rule of ``nodes`` per dimension; its error is the
    change from ``nodes // 2`` nodes plus 64 eps |value|.  The Gaussian
    weight must beat the kernels' growth by a margin a = 1 - (c1 + c2)/2,
    c_i = 2 R_i / distance (1/y at a plane).  Where nodes * a < 1, near
    contact, value and estimate both fail, so the oracle raises there.

    Parameters
    ----------
    model : str
        A name in the registry: ``"scalar"``, ``"dvd"`` or ``"ded"``.
    red : ReducedGeometry
    r : int
        1, or 2 with a plane; two spheres at r = 2 need 8 dimensions.
    nodes : int
        At least 16.

    Returns
    -------
    ValueWithError

    Raises
    ------
    DomainError
        For an unknown model, another r, nodes < 16 or nodes * a < 1.
    """
    reg = get_model(model)
    if r not in (1, 2) or (r == 2 and not red.is_plane):
        raise DomainError("plane-wave oracle supports r = 1, and r = 2 with a plane, only")
    if red.is_plane:
        c1 = c2 = 1.0 / red.y
    else:
        c1 = 2.0 * math.sqrt(red.alpha1 / red.z)  # 2 R1 / distance
        c2 = 2.0 * math.sqrt(red.alpha2 / red.z)
    margin = 1.0 - 0.5 * (c1 + c2)
    if nodes < 16 or nodes * margin < 1.0:
        raise DomainError(f"plane-wave rule of {nodes} nodes at Gaussian margin {margin:.3g}: "
                          "needs nodes >= 16 and nodes * margin >= 1")
    if red.is_plane and r == 1:
        pref = 0.5 * math.copysign(1.0, reg.amplitude(1)) / (2.0 * red.y) / math.pi
        rule = partial(_plane_r1_rule, reg.kernel, red.y)
    else:
        # (1/2)(R1 R2 / pi^2 dist^2); with a plane both reflections are at
        # the sphere, chi = w/y, and the plane's sign squares to 1
        pref = (0.25 / (2.0 * red.y) ** 2 / math.pi ** 2 if red.is_plane
                else 0.5 / (math.pi ** 2 * red.z))
        rule = partial(_bilinear_rule, reg.kernel, c1, c2)
    value = pref * rule(nodes)
    return ValueWithError(value, abs(value - pref * rule(nodes // 2)) + 64 * _EPS * abs(value))


# ---------------------------------------------------------------------------
# the banded ded determinant, densely


def _dense_log_det(red: ReducedGeometry, n_rows: int) -> float:
    """sum_m (2 - delta_m0) log det(1 - R1 E R2 E) over rows n < ``n_rows``, densely.

    Builds each m's tridiagonal J_i, closes its last diagonal as
    ``_checkpoints`` does, and forms R_i = solve(A_i, B_i): the same
    matrices as the recursion, none of its arithmetic.
    """
    mus = _sphere_mus(red)
    closures = _closures(mus, n_rows - 1)
    total = 0.0
    for m in range(n_rows):
        n = np.arange(m, n_rows, dtype=float)
        e = np.exp(-(n + 0.5) * red.varpi)
        rs = []
        for mu, x in zip(mus, closures):
            j = (np.diag((n + 0.5) * math.cosh(mu)) - np.diag((n[1:] - m) / 2.0, -1)
                 - np.diag((n[:-1] + m + 1.0) / 2.0, 1))
            j[-1, -1] -= 0.5 * (n_rows + m) * x[m]
            s = 0.5 * math.sinh(mu) * np.eye(n.size)
            rs.append(np.linalg.solve(j + s, j - s))
        sign, log_det = np.linalg.slogdet(np.eye(n.size) - (rs[0] * e) @ (rs[1] * e))
        # M's eigenvalues lie in [0, 1): a det(1 - M) <= 0 fails the check
        total += (1.0 if m == 0 else 2.0) * (log_det if sign > 0 else math.nan)
    return total


# ---------------------------------------------------------------------------
# cross-check drivers


def planewave_r1_deviations():
    """Yield (y, u, model name, |plane-wave r = 1 / closed form - 1|).

    One case per model at each of (y, u) = (1.5, 0.25), (2, 0.1), (5, 0).
    """
    for y, u in ((1.5, 0.25), (2.0, 0.1), (5.0, 0.0)):
        red = from_invariants(y, u)
        for name, model in MODELS.items():
            got = f_roundtrip_planewave(name, red, 1).value
            yield y, u, name, abs(got / model.f1(red) - 1.0)


def banded_determinant_deviations():
    """Yield (y - 1, u, |dense / banded - 1|) of the ded log det(1 - M), summed over m.

    The banded side is the first truncation of ``_checkpoints``, the
    dense side :func:`_dense_log_det` at its rows, at (y - 1, u) =
    (0.05, 0), (0.1, 0.04), (0.5, 1/4), (1, 0.1) and (3, 0.016).
    """
    for ym1, u in ((0.05, 0.0), (0.1, 0.04), (0.5, 0.25), (1.0, 0.1), (3.0, 0.016)):
        red = from_invariants(1.0 + ym1, u)
        [[(n_rows, log_det, _)]] = _checkpoints([red], [1.0], [_row_counts(red)[:1]])
        yield ym1, u, float(abs(_dense_log_det(red, n_rows) / log_det[0].real - 1.0))
