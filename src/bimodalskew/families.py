"""Bimodal skewed distribution families.

A family member is built in two layers on top of a symmetric unit-variance
base density f:

* two-piece skewing with parameter gamma > 0, which stretches the positive
  half-line by gamma and compresses the negative one by 1/gamma, keeping the
  density continuous at zero and putting mass gamma^2 / (1 + gamma^2) on
  x >= 0;
* a quadratic tilt (1 + alpha x^2) / (1 + alpha b(gamma)) with alpha >= 0,
  where b(gamma) is the second moment of the skewed density.  The tilt
  carves mass out of the center.  With the normal base the stationary
  points of the two halves sit at x^2 = 2 gamma^2 - 1/alpha (right) and
  x^2 = 2 / gamma^2 - 1/alpha (left), so the density has two modes exactly
  when alpha > max(gamma^2, gamma^-2) / 2; at gamma = 1 the threshold
  alpha = 0.5 itself still gives one mode.

Three bases are supported: the standard normal ("bsn"), the unit-variance
Student-t ("bsstd", nu > 2) and the unit-variance generalized-t ("bsgt",
p > 0, q > 0, p*q > 2).  An optional location/scale pair maps the
standardized variable z onto x = loc + scale * z.

The convention sign(0) = +1 is used everywhere a formula branches on the sign
of the argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bases import GenTBase, NormalBase, StudentTBase
from .errors import DomainError, ExistenceError, NumericError

__all__ = [
    "DistributionSpec",
    "MomentReport",
    "bsn",
    "bsstd",
    "bsgt",
    "two_piece_second_moment",
    "log_pdf",
    "pdf",
    "cdf",
    "cdf_values",
    "quantile",
    "skew_moment",
    "full_moment",
    "moment_exists",
    "moment_report",
    "find_modes",
]

_FAMILY_OF_BASE = {"normal": "bsn", "student": "bsstd", "gent": "bsgt"}

# Tolerances for the numeric CDF; quantile() brackets on top of these.
_CDF_EPSABS = 1e-12
_CDF_EPSREL = 1e-10
_CDF_MAX_ERROR = 1e-8


def two_piece_second_moment(gamma: float) -> float:
    """Second moment b(gamma) of a two-piece density with unit-variance base.

    b(gamma) = (gamma^3 + gamma^-3) / (gamma + 1/gamma); symmetric under
    gamma -> 1/gamma and equal to 1 at gamma = 1.
    """
    if not np.isfinite(gamma) or gamma <= 0:
        raise DomainError(f"skewness parameter must be positive and finite, got gamma={gamma}")
    g = float(gamma)
    return (g**3 + g**-3) / (g + 1.0 / g)


@dataclass(frozen=True)
class DistributionSpec:
    """A fully specified family member.

    Tilt strength ``alpha >= 0``, two-piece skewness ``gamma > 0``, a
    symmetric unit-variance ``base`` (which validates its own tail
    parameters) and the map x = loc + scale * z.  The derived ``b`` is the
    second moment of the untilted two-piece density, which normalizes the
    tilt factor only when the base has unit variance, so a ``GenTBase``
    given a non-standard ``delta`` yields an unnormalized density at alpha > 0.
    """

    alpha: float
    gamma: float
    base: NormalBase | StudentTBase | GenTBase
    loc: float = 0.0
    scale: float = 1.0
    b: float = field(init=False)

    def __post_init__(self):
        if getattr(self.base, "name", None) not in _FAMILY_OF_BASE:
            raise DomainError(f"unsupported base {self.base!r}")
        if not np.isfinite(self.alpha) or self.alpha < 0:
            raise DomainError(f"tilt parameter must be >= 0 and finite, got alpha={self.alpha}")
        if not np.isfinite(self.loc):
            raise DomainError(f"location must be finite, got {self.loc}")
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise DomainError(f"scale must be positive and finite, got {self.scale}")
        object.__setattr__(self, "b", two_piece_second_moment(self.gamma))

    @property
    def family(self) -> str:
        """The family code ("bsn", "bsstd" or "bsgt") of the base."""
        return _FAMILY_OF_BASE[self.base.name]


def bsn(alpha: float, gamma: float, loc: float = 0.0, scale: float = 1.0) -> DistributionSpec:
    """Bimodal skew normal."""
    return DistributionSpec(alpha, gamma, NormalBase(), loc, scale)


def bsstd(
    alpha: float, gamma: float, nu: float, loc: float = 0.0, scale: float = 1.0
) -> DistributionSpec:
    """Bimodal skewed standardized Student-t."""
    return DistributionSpec(alpha, gamma, StudentTBase(nu), loc, scale)


def bsgt(
    alpha: float, gamma: float, p: float, q: float, loc: float = 0.0, scale: float = 1.0
) -> DistributionSpec:
    """Bimodal skewed standardized generalized-t."""
    return DistributionSpec(alpha, gamma, GenTBase(p, q), loc, scale)


# ---------- density ----------


def _tilt_log(alpha: float, z: np.ndarray) -> np.ndarray:
    """log(1 + alpha z^2), stable when alpha * z^2 overflows."""
    t = alpha * z * z
    if np.all(np.isfinite(t)):
        return np.log1p(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        fallback = np.log(alpha) + 2.0 * np.log(np.abs(z))
    return np.where(np.isfinite(t), np.log1p(np.where(np.isfinite(t), t, 0.0)), fallback)


def log_pdf(spec: DistributionSpec, x):
    """Log density at x; vectorized, never NaN for finite x."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    z = (x - spec.loc) / spec.scale
    g = spec.gamma
    alpha = spec.alpha
    # sign(0) = +1: z = 0 goes through the stretched positive branch.
    arg = np.where(z >= 0, z / g, z * g)
    out = (
        spec.base.log_pdf(arg)
        + np.log(2.0)
        - np.log(g + 1.0 / g)
        + _tilt_log(alpha, z)
        - np.log1p(alpha * spec.b)
        - np.log(spec.scale)
    )
    return float(out) if scalar else out


def pdf(spec: DistributionSpec, x):
    """Density at x; vectorized."""
    return np.exp(log_pdf(spec, x))


# ---------- distribution function ----------


def _quad_pdf(spec: DistributionSpec, lo: float, hi: float) -> tuple[float, float]:
    from scipy.integrate import quad  # loaded on first use: only cdf needs it

    value, err = quad(
        lambda t: pdf(spec, t),
        lo,
        hi,
        epsabs=_CDF_EPSABS,
        epsrel=_CDF_EPSREL,
        limit=300,
        full_output=1,
    )[:2]
    return value, err


def cdf(spec: DistributionSpec, x: float) -> float:
    """P(X <= x) by numeric integration of the density.

    The integration is split at the fold point ``loc`` where the density has a
    continuous but non-smooth join.  Raises NumericError when the integrator
    cannot certify an absolute error below 1e-8.
    """
    x = float(x)
    if np.isnan(x):
        raise DomainError("cdf argument must not be NaN")
    if x == -np.inf:
        return 0.0
    if x == np.inf:
        return 1.0
    if x <= spec.loc:
        value, err = _quad_pdf(spec, -np.inf, x)
    else:
        left, err_left = _quad_pdf(spec, -np.inf, spec.loc)
        right, err_right = _quad_pdf(spec, spec.loc, x)
        value, err = left + right, err_left + err_right
    if err > _CDF_MAX_ERROR:
        raise NumericError(
            f"cdf integration did not converge at x={x}: achieved abs error {err:.3e} "
            f"(target {_CDF_MAX_ERROR:.1e})"
        )
    return min(max(value, 0.0), 1.0)


def cdf_values(spec: DistributionSpec, xs) -> np.ndarray:
    """CDF at many points at once.

    One adaptive integration anchors the lowest point; the rest accumulate
    fixed-order Gauss-Legendre panels between consecutive sorted points, with
    an extra break at the fold so no panel straddles it.  Intended for
    goodness-of-fit work on large sorted samples.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.ndim != 1:
        raise DomainError("cdf_values expects a one-dimensional array")
    if xs.size == 0:
        return np.empty(0)
    order = np.argsort(xs, kind="stable")
    sx = xs[order]

    first = cdf(spec, sx[0])
    bounds = sx
    positions = np.arange(sx.size)
    if sx[0] < spec.loc < sx[-1]:
        k = int(np.searchsorted(sx, spec.loc))
        bounds = np.insert(sx, k, spec.loc)
        positions = positions + (positions >= k)

    nodes, weights = np.polynomial.legendre.leggauss(16)
    lo, hi = bounds[:-1], bounds[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # (panels, 16) evaluation grid; a zero-width panel contributes zero.
    grid = mid[:, None] + half[:, None] * nodes[None, :]
    panel = (pdf(spec, grid) @ weights) * half
    cum = np.concatenate(([0.0], np.cumsum(panel)))

    result = np.empty_like(xs)
    result[order] = np.minimum(first + cum[positions], 1.0)
    return result


def quantile(spec: DistributionSpec, u: float) -> float:
    """Value x with cdf(x) = u, located by bracketing root search."""
    u = float(u)
    if not 0.0 < u < 1.0:
        raise DomainError(f"quantile level must lie strictly in (0, 1), got {u}")

    center = spec.loc
    f_center = cdf(spec, center) - u
    if f_center == 0.0:
        return center
    step = spec.scale
    if f_center > 0:
        lo = center - step
        while cdf(spec, lo) > u:
            step *= 2.0
            lo = center - step
            if step > 1e12 * spec.scale:
                raise NumericError(f"failed to bracket quantile u={u} below the location")
        bracket = (lo, center)
    else:
        hi = center + step
        while cdf(spec, hi) < u:
            step *= 2.0
            hi = center + step
            if step > 1e12 * spec.scale:
                raise NumericError(f"failed to bracket quantile u={u} above the location")
        bracket = (center, hi)
    from scipy.optimize import brentq  # loaded on first use: only quantile needs it

    return float(brentq(lambda t: cdf(spec, t) - u, *bracket, xtol=1e-12, rtol=8.9e-16))


# ---------- moments ----------


def skew_moment(spec: DistributionSpec, r: int) -> float:
    """r-th moment of the untilted two-piece density (standardized variable).

    E(Z^r | gamma) = (gamma^(r+1) + (-1)^r gamma^-(r+1)) / (gamma + 1/gamma) * m_r.
    """
    g = spec.gamma
    m = spec.base.abs_moment(r)
    sign = -1.0 if r % 2 else 1.0
    return (g ** (r + 1) + sign * g ** (-(r + 1))) / (g + 1.0 / g) * m


def _canonical_moment(spec: DistributionSpec, r: int) -> float:
    """E(Z^r | alpha, gamma) = (E(Z^r|gamma) + alpha E(Z^(r+2)|gamma)) / (1 + alpha b)."""
    alpha = spec.alpha
    if alpha == 0.0:
        return skew_moment(spec, r)
    return (skew_moment(spec, r) + alpha * skew_moment(spec, r + 2)) / (1.0 + alpha * spec.b)


def full_moment(spec: DistributionSpec, r: int) -> float:
    """r-th moment of the tilted two-piece density, including location and scale.

    The canonical member feeds E(Z^r); loc and scale enter by expanding
    E(loc + scale Z)^r binomially, so existence is decided by the top order.
    """
    if spec.loc == 0.0 and spec.scale == 1.0:
        return _canonical_moment(spec, r)
    total = 0.0
    for k in range(r + 1):
        z_k = 1.0 if k == 0 else _canonical_moment(spec, k)
        total += math.comb(r, k) * spec.loc ** (r - k) * spec.scale**k * z_k
    return total


def moment_exists(spec: DistributionSpec, r: int) -> bool:
    """Whether the r-th moment of the tilted, skewed density is finite."""
    base = spec.base
    if spec.alpha == 0.0:
        return base.moment_exists(r)
    return base.moment_exists(r + 2)


@dataclass(frozen=True)
class MomentReport:
    """Closed-form moments of one order; fields are None past an existence boundary."""

    order: int
    base_abs: float | None
    skew: float | None
    full: float | None
    exists: bool


def moment_report(spec: DistributionSpec, orders=(1, 2, 3, 4)) -> list[MomentReport]:
    """Moment table for the standardized family member."""
    base = spec.base
    reports = []
    for r in orders:
        has_base = base.moment_exists(r)
        reports.append(
            MomentReport(
                order=int(r),
                base_abs=base.abs_moment(r) if has_base else None,
                skew=skew_moment(spec, r) if has_base else None,
                full=full_moment(spec, r) if moment_exists(spec, r) else None,
                exists=moment_exists(spec, r),
            )
        )
    return reports


# ---------- modes ----------

_MODE_GRID_POINTS = 2001
_MODE_DERIV_STEP = 1e-5
_MODE_XTOL = 1e-10


def find_modes(spec: DistributionSpec) -> list[tuple[float, float]]:
    """Local maxima of the density as (location, density) pairs, ascending.

    Scans the sign of a finite-difference derivative of the log density on a
    wide grid in standardized coordinates and refines each descending sign
    change by bisection.
    """
    g = spec.gamma
    reach = 10.0 * max(g, 1.0 / g)
    zs = np.linspace(-reach, reach, _MODE_GRID_POINTS)
    mids = 0.5 * (zs[:-1] + zs[1:])

    def deriv(z, h):
        zp = spec.loc + spec.scale * (np.asarray(z) + h)
        zm = spec.loc + spec.scale * (np.asarray(z) - h)
        return log_pdf(spec, zp) - log_pdf(spec, zm)

    d = deriv(mids, _MODE_DERIV_STEP)
    falling = np.flatnonzero((d[:-1] > 0) & (d[1:] <= 0))

    modes: list[tuple[float, float]] = []
    for i in falling:
        lo, hi = mids[i], mids[i + 1]
        while hi - lo > _MODE_XTOL:
            mid = 0.5 * (lo + hi)
            # the step shrinks with the bracket so the density fold at 0
            # cannot bias the sign test by more than the remaining width
            if deriv(mid, max(0.25 * (hi - lo), 1e-9)) > 0:
                lo = mid
            else:
                hi = mid
        z_star = 0.5 * (lo + hi)
        x_star = spec.loc + spec.scale * z_star
        if modes and abs(x_star - modes[-1][0]) < 1e-6 * spec.scale:
            continue
        modes.append((float(x_star), float(pdf(spec, x_star))))
    return modes
