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

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .geometry import ReducedGeometry
from .scalar import f_sc_roundtrip

__all__ = [
    "QuadratureSettings",
    "ValueWithError",
    "f1_ded",
    "f_ded_roundtrip",
    "f_ded_total",
    "f_ded_dipole",
]

# above this y the intermediate 4 y^4 of the two-sphere f1 closed form overflows
_F1_YMAX = (sys.float_info.max / 8.0) ** 0.25
# the first truncation takes the rows with exp(-2 N varpi) > exp(-40), which
# the closures make exact to roundoff; the value comes from the second, with
# 1.5 times as many rows, at most _MAX_ROWS
_ROWS_VARPI = 20.0
_MAX_ROWS = 2**15
# points on the circle of the per-order discrete Fourier transform
_NZ = 32
# complex step of the trace
_STEP = 2.0**-64
_EPS = sys.float_info.epsilon
# rows of k per block of the closures' series; fewer where a block's table
# would pass this many cells, which bounds its memory near contact
_CLOSURE_ROWS = 16
_CLOSURE_CELLS = 2**16
# (point, z, row) cells of one recursion's state, unless one y's points need more;
# larger states ran no faster on criterion 7's grid and took more memory
_STATE_CELLS = 2**12


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


def f1_ded(red: ReducedGeometry) -> float:
    """Single round-trip contribution (closed form).

    The logarithm argument is written as log1p of an exactly reduced
    rational expression and the radius-ratio terms use an arctanh form
    whose 1-x part is evaluated analytically, but the terms still cancel
    at large y: at u = 0.1 it is 0.4 % off the dipole law at y = 1e5, 20 %
    at 1e6, and from about 2.5e6 it can be 0 or negative (-1.26e-24 at
    y = 1e12, where the dipole term is 9.4e-38).
    Raises :class:`ConvergenceError` where the closed form overflows: for
    two spheres at y > 6.9e76, and at small u, where (2y + alpha)^2 (y^2 - 1)
    or N (N + sqrt(alpha z)) leaves the double range (below u = 1.8e-154 at
    y = 2).
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
    except (OverflowError, ZeroDivisionError):  # one_minus is 0 where nn (nn + saz) overflows
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
    """(mu1, mu2) of the two bodies, the larger first; a plane sits at mu = 0.

    tanh(mu_1) = sinh(varpi) / (alpha_1 + cosh(varpi)), taken in a form
    free of cancellation near contact; mu_2 is varpi minus it.
    """
    v = red.varpi
    if red.is_plane:
        return (0.0, v)
    mu1 = 0.5 * math.log1p(2.0 * math.sinh(v) / (red.alpha1 + math.exp(-v)))
    return (mu1, v - mu1)


def _closures(mus, last: int) -> np.ndarray:
    """Minimal-solution ratios x_{last+1}/x_last of A's recurrence, for m = 0..last,
    of each sphere mu of ``mus``; shaped (len(mus), last + 1).

    For m >= 1 the integrand expands into positive terms, x_n = B(n-m+1, 2m)
    sum_k T_k, T_0 = 1, T_k/T_{k-1} = delta (m-k)(n-m+k) / (k (2m-k)),
    delta = 1 - r; for m = 0, x_n = sum_j r^j / (n+1+j).  A plane (mu = 0)
    needs no closure: its R is the identity at any truncation.
    The k-series of all spheres run together, in blocks of k rows of a
    (k, sphere, n, m) table whose cumulative product and sum along k, seeded
    with the carried term and total, add in the order of a term-by-term
    loop.  A sphere stops at the first k where no column m > k has a term
    above 1e-17 times its total, so its ratios do not depend on the others.
    """
    out = np.zeros((len(mus), last + 1))
    spheres = [i for i, mu in enumerate(mus) if mu != 0.0]
    # the per-sphere scalars in math, as numpy's expm1 and exp may round differently
    deltas = [-math.expm1(-2.0 * mus[i]) for i in spheres]
    m = np.arange(last + 1.0)
    n = np.array([[last], [last + 1.0]])
    total = np.ones((len(spheres), 2, last + 1))
    # per live sphere, T_{k0-1} and its total through k0 - 1 of the columns m = k0 + 1..last
    term = acc = np.ones((len(spheres), 2, max(last - 1, 0)))
    live = np.arange(len(spheres))
    delta = np.array(deltas).reshape(1, -1, 1, 1)
    k0 = 1
    with np.errstate(divide="ignore"):  # 2m - k = 0 in cells that are set to 0
        while live.size and k0 < last:
            mk = m[k0 + 1:]
            rows = min(_CLOSURE_ROWS, last - k0,
                       max(1, _CLOSURE_CELLS // (live.size * 2 * mk.size)))
            k = np.arange(k0, k0 + rows, dtype=float).reshape(-1, 1, 1, 1)
            terms, sums = np.empty((2, rows + 1, live.size, 2, mk.size))
            terms[0] = term
            np.multiply(delta[:, live] * (mk - k) / k, n - mk + k, out=terms[1:])
            terms[1:] /= 2.0 * mk - k
            # column m's terms are 0 from k = m on, but 2m - k = 0 at k = 2m; the
            # cells with m <= k lie in the first rows - 1 columns
            np.copyto(terms[1:, ..., :rows - 1], 0.0, where=mk[:rows - 1] <= k)
            sums[0] = acc
            # cumulative product and sum along k, row by row: numpy's cumprod and
            # cumsum along an axis cost 4-15 times as much per cell
            for i in range(1, rows + 1):
                terms[i] *= terms[i - 1]
                np.add(sums[i - 1], terms[i], out=sums[i])
            going = (terms[1:] > 1e-17 * sums[1:]).any(axis=(2, 3))  # (k, sphere)
            on = going.all(axis=0)
            # a sphere stops at its first k without a term above 1e-17 times its total
            off = np.flatnonzero(~on)
            total[live[off], :, k0 + 1:] = sums[going.argmin(axis=0)[off] + 1, off]
            # the columns no later k reaches
            total[live[on], :, k0 + 1:k0 + rows + 1] = sums[rows, on, :, :rows]
            term, acc, live = terms[rows, on, :, rows:], sums[rows, on, :, rows:], live[on]
            k0 += rows
    lam = (last - m + 1.0) / (last + m + 1.0) * total[:, 1] / total[:, 0]
    for row, i, d in zip(lam, spheres, deltas):
        r = 1.0 - d
        if d * (last + 1) <= 1.0:
            # sum_{k>n} r^k/k = -log(delta) - sum_{k<=n} r^k/k, large next to its parts
            k = np.arange(1.0, last + 2.0)
            head = np.cumsum(r ** k / k)
            x0 = [r ** -(nn + 1.0) * (-math.log(d) - head[nn - 1]) for nn in (last, last + 1)]
        else:
            j = np.arange(math.ceil(40.0 / d) + 1.0)
            rj = r ** j
            x0 = [float(np.sum(rj / (nn + 1.0 + j))) for nn in (last, last + 1)]
        row[0] = x0[1] / x0[0]
        out[i] = math.exp(-mus[i]) * row
    return out


def _row_counts(red: ReducedGeometry) -> tuple:
    """Rows (N0, N1) of the two truncations, N1 = ceil(1.5 N0); raises
    :class:`ConvergenceError` where N1 passes ``_MAX_ROWS``."""
    n0 = max(8, math.ceil(_ROWS_VARPI / red.varpi))
    n1 = math.ceil(1.5 * n0)
    if n1 > _MAX_ROWS:
        raise ConvergenceError(f"ded: {n1} bispherical rows needed at y - 1 = "
                               f"{red.y - 1.0:.3g}, more than {_MAX_ROWS}")
    return n0, n1


def _checkpoints(reds, z, rows):
    """Schur recursion of det K over the rows n, vectorised over the points, z and m.

    ``reds`` are points of any y and ``rows[p]`` the increasing row counts
    of point p.  The state's axes are (point, z, m); each point has its own
    varpi, mu_i, pivots and closures.  The points run deepest first, so the
    ones still open are a prefix of the state, and a point leaves it after
    its last truncation.  Returns, per point p of ``reds``, one
    (N, log_det, size) per row count N of ``rows[p]``, from the truncation
    closed at N rows: log_det[k] = sum_m (2 - delta_m0) log det(1 - z[k] M_m),
    and size the largest over k of such sums of the steps' absolute values.
    """
    order = sorted(range(len(reds)), key=lambda p: -rows[p][-1])
    lasts = [rows[p][-1] for p in order]
    closing = {}
    for i, p in enumerate(order):
        for n_rows in rows[p]:
            closing.setdefault(n_rows, []).append(i)
    # e = exp(-(n + 1/2) varpi) of each distinct varpi and row n, from math, as
    # numpy's exp may round differently; and which varpi each point has
    varpis = {}
    which_v = np.array([varpis.setdefault(reds[p].varpi, len(varpis)) for p in order])
    exps = np.array([[math.exp(-(n + 0.5) * v) for n in range(lasts[0])] for v in varpis])
    mus = np.array([_sphere_mus(reds[p]) for p in order])
    # cosh mu_i, sinh mu_i and sinh(mu_i)/2 of each sphere, shaped (point, 1, 1);
    # floats for one point, which spares every row the indexing
    single = len(reds) == 1
    ch, sh = np.cosh(mus), np.sinh(mus)
    sph = [(ch[:, i], sh[:, i], 0.5 * sh[:, i]) for i in (0, 1)]
    sph = ([[float(v[0]) for v in col] for col in sph] if single
           else [[v.reshape(-1, 1, 1) for v in col] for col in sph])
    z = np.asarray(z).reshape(1, -1, 1)
    # per (point, z, m): G = D - diag(a1, a2) of the last row, det D - a1 a2,
    # the sum of the steps and of their absolute values; per (point, m)
    # the pivots a1, a2
    state = np.zeros((7, len(reds), z.shape[1], lasts[0]), dtype=complex)
    pivots = np.ones((2, len(reds), 1, lasts[0]))
    out, live = [[] for _ in reds], len(reds)
    e_p = 0.0 if single else np.zeros((live, 1, 1))

    def row(n, c, add, e, e_p, sph, prev, a1, a2):
        (ch1, sh1, hs1), (ch2, sh2, hs2) = sph
        g11, g12, g21, g22, dl, acc, size = prev
        al1 = (n + 0.5) * ch1 + hs1 + add[0]
        al2 = (n + 0.5) * ch2 + hs2 + add[1]
        be1 = (al1 - sh1) * e
        be2 = (al2 - sh2) * e
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

    for n in range(lasts[0]):
        # row n brings in the azimuthal index m = n
        mm = np.arange(n + 1.0)
        c = (n - mm) * (n + mm) / 4.0  # J[n, n-1] J[n-1, n]; 0 on the first row of each m
        e = float(exps[0, n]) if single else exps[which_v[:live], n].reshape(-1, 1, 1)
        prev, piv = state[:, :live, :, :n + 1], pivots[:, :live, :, :n + 1]
        if n + 1 in closing:
            shut = closing[n + 1]
            # the open points that close here: all of them for a single point
            args = ((e, e_p, sph, prev, *piv) if len(shut) == live else
                    (e[shut], e_p[shut], [[v[shut] for v in col] for col in sph],
                     prev[:, shut], *piv[:, shut]))
            # the closures of both spheres of those points, shaped (sphere, point, 1, m)
            uniq, which = np.unique(mus[shut], return_inverse=True)
            ratios = _closures(uniq, n)[which.reshape(-1, 2)]
            add = -0.5 * (n + mm + 1.0) * ratios.swapaxes(0, 1)[:, :, None]
            closed = row(n, c, add, *args)[0]
            w = np.where(mm == 0, 1.0, 2.0)
            log_det = (closed[5] * w).sum(axis=-1)
            size = (closed[6].real * w).sum(-1).max(axis=-1)
            for k, i in enumerate(shut):
                out[order[i]].append((n + 1, log_det[k], size[k]))
        if lasts[live - 1] == n + 1:
            # the points whose last truncation closed here leave the state
            live = lasts.index(n + 1)
            if not live:
                return out
            sph = [[v[:live] for v in col] for col in sph]
            e, e_p, prev, piv = e[:live], e_p[:live], prev[:, :live], piv[:, :live]
        state[:, :live, :, :n + 1], pivots[:, :live, :, :n + 1] = row(
            n, c, (0.0, 0.0), e, e_p, sph, prev, *piv)
        e_p = e


def _groups(reds, rows: dict, nz: int) -> list:
    """The indices p of ``rows``, a point of ``reds`` each, split into the
    batches of one recursion each.

    A batch starts at the deepest point left, by its last row count N, and
    holds that y's points, or more, as long as its state keeps at most
    ``_STATE_CELLS`` (point, z, row) cells of ``nz`` values of z: so no
    state passes the larger of that budget and one y's own batch.
    """
    # deepest first, the points of one y together
    order = sorted(rows, key=lambda p: (-rows[p][-1], reds[p].varpi))
    out = []
    while order:
        y, n_rows = reds[order[0]].y, rows[order[0]][-1]
        own = sum(1 for _ in itertools.takewhile(lambda p: reds[p].y == y, order))
        size = max(own, _STATE_CELLS // (nz * n_rows))
        out.append(order[:size])
        order = order[size:]
    return out


def _converged(reds, z, tol: float) -> list:
    """Per point of any y, log_det at N1 ~ 1.5 N0 rows, checked against N0 rows.

    Returns one entry per point of ``reds``: (log_det, change, roundoff),
    log_det's change from N0 to N1 rows and eps times N1 times the size,
    where the change is at most tol times |log_det| plus the roundoff.
    Elsewhere the entry is the :class:`ConvergenceError` that point met:
    a change above that bound, a non-finite change (the rows overflowed)
    or N1 past ``_MAX_ROWS``, raised before any row.  The points run in
    the batches of :func:`_groups`; a failed point leaves the others'
    values unchanged.
    """
    out, rows = [None] * len(reds), {}
    for p, red in enumerate(reds):
        try:
            rows[p] = _row_counts(red)
        except ConvergenceError as exc:
            out[p] = exc
    # near y = 1e308 the rows overflow, which shows as a non-finite change
    with np.errstate(over="ignore", invalid="ignore"):
        for group in _groups(reds, rows, len(z)):
            trunc = _checkpoints([reds[p] for p in group], z, [rows[p] for p in group])
            for p, ((n0, first, _), (n1, log_det, size)) in zip(group, trunc):
                red, change = reds[p], np.abs(log_det - first)
                roundoff = _EPS * n1 * size
                bound = tol * np.abs(log_det).max() + roundoff
                if not np.isfinite(change).all():
                    out[p] = ConvergenceError(f"ded: the determinant overflowed at y = {red.y:.3g}")
                elif change.max() > bound:
                    out[p] = ConvergenceError(
                        f"ded: log det moved by {change.max():.3g} from {n0} to {n1} rows at "
                        f"y = {red.y:.3g}, u = {red.u:.3g}, more than its bound {bound:.3g}")
                else:
                    out[p] = (log_det, change, roundoff)
    return out


def _unwrap(res):
    """One point's entry of :func:`_converged` or :func:`f_ded_totals`; raises its error."""
    if isinstance(res, ConvergenceError):
        raise res
    return res


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
        log_det, change, roundoff = _unwrap(_converged([red], half, 1e-13)[0])
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
    + O(h^2).  The value is the truncation of N1 = ceil(1.5 N0) rows,
    N0 = max(8, ceil(20/varpi)); its change from N0 rows must be at most
    ``tol`` times |log det| plus a roundoff bound, or it raises
    :class:`ConvergenceError` naming the change and that bound.  So does a
    point whose N1 passes 32,768 rows, y - 1 below about 4.2e-7, before
    any row.

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
        The error adds the change from N0 to N1 rows, a roundoff bound and
        the difference of :func:`f1_ded` from the determinant's own trace.
    """
    return _unwrap(f_ded_totals([red], tol)[0])


def f_ded_totals(reds, tol: float = 1e-4) -> list:
    """:func:`f_ded_total` at points of any y, from a few recursions (see :func:`_converged`).

    Returns one entry per point of ``reds``: its :class:`ValueWithError`,
    bit-identical to the point's own :func:`f_ded_total`, or the
    :class:`ConvergenceError` it would raise.  A failed point leaves the
    others' values unchanged.
    """
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tolerance must lie in (0, 1), got {tol}")
    out, f1 = [None] * len(reds), {}
    for i, red in enumerate(reds):
        try:
            f1[i] = f1_ded(red)
        except ConvergenceError as exc:
            out[i] = exc
    results = _converged([reds[i] for i in f1], [1.0, 1j * _STEP], tol) if f1 else ()
    for i, res in zip(f1, results):
        if isinstance(res, ConvergenceError):
            out[i] = res
            continue
        log_det, change, roundoff = res
        trace = -log_det[1].imag / _STEP
        value = f1[i] - 0.5 * (log_det[0].real + trace)
        error = 0.5 * (change[0] + change[1] / _STEP + roundoff) + abs(f1[i] - 0.5 * trace)
        out[i] = ValueWithError(float(value), float(error))
    return out
