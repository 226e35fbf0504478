"""Reduced free energy for two dielectric spheres in an electrolyte.

Each sphere reflects multipoles with the Neumann amplitude -l/(l+1)
(dphi/dn = 0: a permittivity negligible against the screened
electrolyte's).  The single round trip has a closed form; the total is
one determinant, exact in bispherical coordinates with the spheres at
mu = mu1 and mu = -mu2, mu1 + mu2 = varpi.  Per azimuthal index m,
f = -1/2 sum_m (2 - delta_m0) log det(1 - M_m), M_m = R1 E R2 E,
E = diag exp(-(n+1/2) varpi), R_i = A_i^{-1} B_i, A_i = J_i + s_i/2,
B_i = J_i - s_i/2, s_i = sinh(mu_i), and J_i tridiagonal in n >= m:
J_nn = (n+1/2) cosh(mu_i), J_{n,n-1} = -(n-m)/2, J_{n,n+1} = -(n+m+1)/2.
det(1 - z M_m) = det K / (det A1 det A2), K = [[A1, z B1 E], [B2 E, A2]],
is block tridiagonal in n, so a Schur recursion vectorised over m costs
O(N) per m.  The truncated A_i and B_i are closed with the exact
minimal-solution ratio of their recurrence (Gautschi, SIAM Rev. 9, 24,
1967), x_n = integral_0^1 s^(n-m) (1-s)^m (1 - r s)^(m-1) ds,
r = exp(-2 mu_i).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .geometry import ReducedGeometry
from .scalar import f_sc_roundtrip

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

# above this y the intermediate 4 y^4 of the two-sphere f1 closed form overflows
_F1_YMAX = (sys.float_info.max / 8.0) ** 0.25
# the first truncation keeps rows with exp(-2 N varpi) > exp(-40); each
# later one has 1.5 times as many rows, up to _MAX_ROWS
_ROWS_VARPI = 20.0
_MAX_ROWS = 2**15
# points on the circle of the per-order discrete Fourier transform
_NZ = 32
# complex step of the trace
_STEP = 2.0**-64
_EPS = sys.float_info.epsilon


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
    """Seed of the deleted quadrature; nothing reads it.  The benchmark's
    ``bench/workloads.py`` and ``bench/record_reference.py`` still build it.
    """

    seed: int = 0


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
    Raises :class:`ConvergenceError` where the closed form overflows: for
    two spheres at y > 6.9e76, and at small u, where (2y + alpha)^2 (y^2 - 1)
    leaves the double range (below u = 1.3e-154 at y = 2).
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
    try:
        for a in (red.alpha1, red.alpha2):
            nn = 2.0 * y * y + a * y - 1.0
            saz = math.sqrt(a * z)
            # log of (N + saz)/(N - saz) with N - saz expanded via
            # N^2 - a z = (2y + a)^2 (y^2 - 1)
            one_minus = (2.0 * y + a) ** 2 * (y * y - 1.0) / (nn * (nn + saz))
            acc += a ** -1.5 * math.log((1.0 + saz / nn) / one_minus)
    except OverflowError:
        acc = math.nan
    f1 = f1sc + term_log + acc / (12.0 * math.sqrt(z))
    if math.isnan(f1):  # an overflow to inf turns into nan on the way
        raise ConvergenceError(f"f1_ded: the closed form overflows at u = {red.u:.3g}, y = {y:.3g}")
    return f1


def f_ded_dipole(red: ReducedGeometry) -> float:
    """Large-distance dipolar asymptote: 3/(32y^3), or 1/(8y^3) for u = 0."""
    try:
        y3 = red.y ** 3
    except OverflowError:  # from y = 5.6e102, where the asymptote underflows to 0
        y3 = math.inf
    return 0.125 / y3 if red.is_plane else 3.0 / (32.0 * y3)


# ---------------------------------------------------------------------------
# banded bispherical determinant


def _sphere_mus(red: ReducedGeometry) -> tuple:
    """(mu1, mu2) of the two spheres; a plane sits at mu = 0.

    tanh(mu_i) = sinh(varpi) / (alpha_i + cosh(varpi)), taken for the
    larger sphere in a form free of cancellation near contact; the other
    is varpi minus it.
    """
    v = red.varpi
    if red.is_plane:
        return (0.0, v) if math.isinf(red.alpha1) else (v, 0.0)
    mu_big = 0.5 * math.log1p(2.0 * math.sinh(v) / (max(red.alpha1, red.alpha2) + math.exp(-v)))
    return (mu_big, v - mu_big) if red.alpha1 >= red.alpha2 else (v - mu_big, mu_big)


def _closure(mu: float, last: int) -> np.ndarray:
    """Minimal-solution ratios x_{last+1}/x_last of A's recurrence, for m = 0..last.

    For m >= 1 the integrand expands into positive terms, x_n = B(n-m+1, 2m)
    sum_k T_k, T_0 = 1, T_k/T_{k-1} = delta (m-k)(n-m+k) / (k (2m-k)),
    delta = 1 - r; for m = 0, x_n = sum_j r^j / (n+1+j).  A plane (mu = 0)
    needs no closure: its R is the identity at any truncation.
    """
    m = np.arange(last + 1, dtype=float)
    if mu == 0.0:
        return np.zeros_like(m)
    delta = -math.expm1(-2.0 * mu)
    r = 1.0 - delta
    n = np.array([[last], [last + 1.0]])
    total = np.ones((2, last + 1))
    term = np.ones((2, last))  # T_0 of m = 1..last
    for k in range(1, last):
        mk = m[k + 1:]
        term = term[:, 1:] * (delta * (mk - k) / k * (n - mk + k) / (2.0 * mk - k))
        total[:, k + 1:] += term
        if not (term > 1e-17 * total[:, k + 1:]).any():
            break
    lam = (last - m + 1.0) / (last + m + 1.0) * total[1] / total[0]
    if delta * (last + 1) <= 1.0:
        # sum_{k>n} r^k/k = -log(delta) - sum_{k<=n} r^k/k, large next to its parts
        k = np.arange(1.0, last + 2.0)
        head = np.cumsum(r ** k / k)
        x0 = [r ** -(nn + 1.0) * (-math.log(delta) - head[nn - 1]) for nn in (last, last + 1)]
    else:
        j = np.arange(math.ceil(40.0 / delta) + 1.0)
        x0 = [float(np.sum(r ** j / (nn + 1.0 + j))) for nn in (last, last + 1)]
    lam[0] = x0[1] / x0[0]
    return math.exp(-mu) * lam


def _checkpoints(red: ReducedGeometry, z):
    """Schur recursion of det K over the rows n, vectorised over m and z.

    Yields, at N = N0, 1.5 N0, ... rows (N0 ~ 20/varpi), the closed
    truncation's (N, log_det, size): log_det[k] = sum_m (2 - delta_m0)
    log det(1 - z[k] M_m), and size the largest such sum of the steps'
    absolute values.  Raises :class:`ConvergenceError` past ``_MAX_ROWS``.
    """
    mus = _sphere_mus(red)
    ch, sh = np.cosh(mus), np.sinh(mus)
    z = np.asarray(z).reshape(-1, 1)
    # per (z, m): G = D - diag(a1, a2) of the last row, det D - a1 a2, the
    # sum of the steps and of their absolute values; per m the pivots a1, a2
    state = np.zeros((7, z.shape[0], 0), dtype=complex)
    pivots = np.ones((2, 0))
    n, n_end, e_p = 0, max(8, math.ceil(_ROWS_VARPI / red.varpi)), 0.0

    def row(n, c, e, add, prev, a1, a2):
        g11, g12, g21, g22, dl, acc, size = prev
        al1 = (n + 0.5) * ch[0] + 0.5 * sh[0] + add[0]
        al2 = (n + 0.5) * ch[1] + 0.5 * sh[1] + add[1]
        be1 = (al1 - sh[0]) * e
        be2 = (al2 - sh[1]) * e
        na1 = al1 - c / a1
        na2 = al2 - c / a2
        # D^{-1} - diag(1/a1, 1/a2) of the previous row, without cancellation
        det = a1 * a2 + dl
        cross = g11 * g22 - g12 * g21
        f11 = -(a2 * g11 + cross) / det / a1
        f22 = -(a1 * g22 + cross) / det / a2
        f12 = -g12 / det
        f21 = -g21 / det
        p = 1.0 / a1 + f11
        s = 1.0 / a2 + f22
        n11 = -c * (f11 + z * e_p * f21 + e * f12 + z * e_p * e * s)
        n12 = z * be1 - c * (f12 + z * (e_p * s + e * p) + z * z * e_p * e * f21)
        n21 = be2 - c * (f21 + e_p * p + e * s + e_p * e * f12)
        n22 = -c * (f22 + e_p * f12 + z * e * f21 + z * e_p * e * p)
        ndl = na1 * n22 + na2 * n11 + n11 * n22 - n12 * n21
        x = ndl / (na1 * na2)
        # numpy's complex log1p is log(1 + x), which loses the digits of a small x
        term = (0.5 * np.log1p(x.real * (2.0 + x.real) + x.imag**2)
                + 1j * np.arctan2(x.imag, 1.0 + x.real))
        return (np.stack([n11, n12, n21, n22, ndl, acc + term, size.real + np.abs(term)]),
                np.stack([na1, na2]))

    while True:
        if n_end > _MAX_ROWS:
            raise ConvergenceError(f"ded: {n_end} bispherical rows needed at y - 1 = "
                                   f"{red.y - 1.0:.3g}, more than {_MAX_ROWS}")
        # rows n..n_end-1 bring in the azimuthal indices m = n..n_end-1
        state = np.concatenate([state, np.zeros(state.shape[:2] + (n_end - n,))], axis=2)
        pivots = np.concatenate([pivots, np.ones((2, n_end - n))], axis=1)
        for n in range(n, n_end):
            mm = np.arange(n + 1.0)
            c = (n - mm) * (n + mm) / 4.0  # J[n, n-1] J[n-1, n]; 0 on the first row of each m
            e = math.exp(-(n + 0.5) * red.varpi)
            prev, piv = state[:, :, :n + 1], pivots[:, :n + 1]
            new = row(n, c, e, (0.0, 0.0), prev, *piv)
            if n == n_end - 1:
                closed = row(n, c, e, [-0.5 * (n + mm + 1.0) * _closure(mu, n) for mu in mus],
                             prev, *piv)[0]
                w = np.where(mm == 0, 1.0, 2.0)
                yield n_end, (closed[5] * w).sum(axis=-1), float((closed[6].real * w).sum(-1).max())
            state[:, :, :n + 1], pivots[:, :n + 1] = new
            e_p = e
        n, n_end = n_end, math.ceil(1.5 * n_end)


def _converged(red: ReducedGeometry, z, tol: float) -> tuple:
    """First truncation whose log_det moved by at most tol times its size from the previous.

    Returns (log_det, change, roundoff): each log_det's change from the
    previous truncation, and eps times the rows times the size summed.
    """
    prev = None
    # near y = 1e308 the rows overflow, which shows as a non-finite change
    with np.errstate(over="ignore", invalid="ignore"):
        for n_rows, log_det, size in _checkpoints(red, z):
            roundoff = _EPS * n_rows * size
            if prev is not None:
                change = np.abs(log_det - prev)
                if not np.isfinite(change).all():
                    raise ConvergenceError(f"ded: the determinant overflowed at y = {red.y:.3g}")
                if change.max() <= tol * np.abs(log_det).max() + roundoff:
                    return log_det, change, roundoff
            prev = log_det


def _orders(red: ReducedGeometry) -> tuple:
    """(f^(r), error) for r < 32: f(z) = -1/2 sum_m (2 - delta_m0) log det(1 - z M_m)
    = sum_r z^r f^(r) on 32 points of |z| = rho, by discrete Fourier transform.

    M_m is similar to a positive semi-definite matrix of spectral radius
    lambda <= exp(-varpi), so rho = exp(varpi)/2 converges; far from contact
    rho rises to 1/(2 lambda_up), lambda_up = min_r (2 r f^(r))^(1/r) >= lambda.
    """
    orders = np.arange(_NZ)
    rho = 0.5 * math.exp(red.varpi)
    for _ in range(2):
        half = rho * np.exp(2j * math.pi * np.arange(_NZ // 2 + 1) / _NZ)
        log_det, change, roundoff = _converged(red, half, 1e-13)
        # f(conj z) = conj f(z)
        f = -0.5 * np.concatenate([log_det, np.conj(log_det[_NZ // 2 - 1:0:-1])])
        with np.errstate(over="ignore", under="ignore"):
            scale = rho ** -orders
            coeff = np.fft.fft(f).real / _NZ * scale
            err = (0.5 * (change.max() + roundoff) + 64 * _EPS * np.abs(f).max()) * scale
            resolved = [k for k in range(1, _NZ // 2 + 1) if coeff[k] > 1e3 * err[k]]
            lam_up = min((2.0 * k * coeff[k]) ** (1.0 / k) for k in resolved) if resolved else 0.0
        if not 0.0 < lam_up < 0.25 / rho:
            break
        rho = 0.5 / lam_up
    return coeff, err


def f_ded_roundtrip(
    red: ReducedGeometry,
    r: int,
    settings: QuadratureSettings | None = None,
) -> ValueWithError:
    """Contribution of exactly r round trips, from the banded determinant.

    Parameters
    ----------
    red : ReducedGeometry
    r : int
        Round-trip order, 1 <= r <= 16.
    settings : QuadratureSettings, optional
        Not read; ``bench/workloads.py`` and ``bench/record_reference.py``
        still pass it, and ``bench/`` changes only with the benchmark.

    Returns
    -------
    ValueWithError
        Positive value (0 where f_sc^(r) >= f^(r) underflows) with an
        absolute error estimate.
    """
    if r > _NZ // 2:
        raise DomainError(f"round-trip order must be at most {_NZ // 2}, got {r}")
    if f_sc_roundtrip(red, r) == 0.0:  # raises DomainError for a bad order
        return ValueWithError(0.0, 0.0)
    coeff, err = _orders(red)
    return ValueWithError(float(coeff[int(r)]), float(err[int(r)]))


def f_ded_total(
    red: ReducedGeometry,
    tol: float = 1e-4,
    settings: QuadratureSettings | None = None,
) -> ValueWithError:
    """Total reduced free energy, all round trips.

    The closed-form single round trip :func:`f1_ded` plus the exact
    remainder sum_{r >= 2} f^(r) = -1/2 sum_m (2 - delta_m0)
    [log det(1 - M_m) + tr M_m] of the banded bispherical determinant,
    whose trace comes from a complex step, log det(1 - i h M) = -i h tr M
    + O(h^2).  The truncation grows by factors of 1.5 from about 20/varpi
    rows until the determinant moves by at most ``tol`` times its size.

    Parameters
    ----------
    red : ReducedGeometry
    tol : float
        Relative accuracy target, in (0, 1).
    settings : QuadratureSettings, optional
        Not read; ``bench/workloads.py`` and ``bench/record_reference.py``
        still pass it, and ``bench/`` changes only with the benchmark.

    Returns
    -------
    ValueWithError
        The error adds the last truncation's change, a roundoff bound and
        the difference of :func:`f1_ded` from the determinant's own trace.
    """
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tolerance must lie in (0, 1), got {tol}")
    f1 = f1_ded(red)
    log_det, change, roundoff = _converged(red, [1.0, 1j * _STEP], tol)
    trace = -log_det[1].imag / _STEP
    value = f1 - 0.5 * (log_det[0].real + trace)
    error = 0.5 * (change[0] + change[1] / _STEP + roundoff) + abs(f1 - 0.5 * trace)
    return ValueWithError(float(value), float(error))
