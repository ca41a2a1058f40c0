"""Bimodal skewed distribution families.

A family member is built in two layers on top of a symmetric unit-variance
base density f:

* two-piece skewing with parameter gamma > 0, which stretches the positive
  half-line by gamma and compresses the negative one by 1/gamma, keeping the
  density continuous at zero and putting mass gamma^2 / (1 + gamma^2) on
  x >= 0;
* a quadratic tilt (1 + alpha x^2) / (1 + alpha b(gamma)) with alpha >= 0,
  where b(gamma) is the second moment of the skewed density.  The tilt
  carves mass out of the center.  On the half-line stretched by s (gamma on
  the right, 1/gamma on the left) d/dz log f has the sign of
  A(y) = 2 alpha s^p a y^(1-p/2) - alpha b y - 1 with y = z^2, where the base
  supplies (p, a, b).  So bsn is bimodal exactly when
  alpha > max(gamma^2, gamma^-2) / 2 (alpha = 0.5 at gamma = 1 still gives
  one mode), bsstd exactly when alpha > (nu+1)/(2(nu-2)) max(gamma^2,
  gamma^-2), and bsgt keeps a mode at the fold for p < 2 and splits its peak
  at any alpha > 0 for p > 2.

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

_LOG_2 = np.log(2.0)

# Tolerances of `_cdf`, the numeric CDF that quantile() searches over.
_CDF_EPSABS = 1e-12
_CDF_EPSREL = 1e-10
_CDF_MAX_ERROR = 1e-8


def two_piece_second_moment(gamma: float) -> float:
    """Second moment b(gamma) of a two-piece density with unit-variance base.

    b(gamma) = (gamma^3 + gamma^-3) / (gamma + 1/gamma); symmetric under
    gamma -> 1/gamma and equal to 1 at gamma = 1.  Where gamma^3 or gamma^-3
    overflows it is max(gamma, 1/gamma)^2, to rounding; where that overflows
    too (gamma beyond about 1.3e154 or below about 7.5e-155) it raises
    `DomainError`.
    """
    if not np.isfinite(gamma) or gamma <= 0:
        raise DomainError(f"skewness parameter must be positive and finite, got gamma={gamma}")
    g = float(gamma)
    try:
        return (g**3 + g**-3) / (g + 1.0 / g)
    except OverflowError:
        pass
    # the factor (1 + g^-6) / (1 + g^-2) of g^2, or its mirror, rounds to 1 here
    try:
        return g**2 if g > 1.0 else g**-2
    except OverflowError:
        raise DomainError(f"the second moment b(gamma) overflows at gamma={gamma}") from None


@dataclass(frozen=True)
class DistributionSpec:
    """A fully specified family member.

    Tilt strength ``alpha >= 0``, two-piece skewness ``gamma > 0``, a
    symmetric unit-variance ``base`` (which validates its own tail
    parameters) and the map x = loc + scale * z.  The derived ``b`` is the
    second moment of the untilted two-piece density, which normalizes the
    tilt factor.
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
        b = two_piece_second_moment(self.gamma)
        if not math.isfinite(float(self.alpha) * b):
            # the density divides by 1 + alpha*b, which would read as inf
            raise DomainError(f"alpha*b(gamma) overflows at alpha={self.alpha}, gamma={self.gamma}")
        object.__setattr__(self, "b", b)

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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _log_density(base, alpha, gamma, b, loc, scale, x):
    """The family's log density on ``base``: the one place its formula is written.

    ``alpha``, ``gamma``, ``b`` (the spec's second moment b(gamma)), ``loc``
    and ``scale`` are floats, or column arrays that broadcast against ``x``
    with one row per member, so members that share a base are evaluated in
    one call.  Each element is computed as it is for its member alone.
    """
    z = (x - loc) / scale
    # sign(0) = +1: z = 0 goes through the stretched positive branch.
    arg = np.where(z >= 0, z / gamma, z * gamma)
    log_f = base.log_pdf(arg)
    t = alpha * z * z
    tilt = np.log1p(t)
    # t and |arg| are >= 0 or NaN, so their sum is finite exactly when both
    # are, unless it overflows.  Where arg overflowed, the base's far form
    # takes log|arg|; where alpha z^2 did, the tilt is
    # log(1 + e^(log alpha + 2 log|z|)).  log|z| comes from x - loc halved,
    # which stays finite, and an infinite x gets tilt 0, so its value is -inf.
    if not np.isfinite(t + np.abs(arg)).all():
        log_z = np.log(np.abs(0.5 * x - 0.5 * loc)) + _LOG_2 - np.log(scale)
        log_gamma = np.log(gamma)
        log_arg = np.where(z >= 0, log_z - log_gamma, log_z + log_gamma)
        log_f = np.where(np.isinf(arg), base.far_log_pdf(log_arg), log_f)
        tilt = np.where(np.isfinite(t), tilt, np.logaddexp(0.0, np.log(alpha) + 2.0 * log_z))
        tilt = np.where(np.isinf(x), 0.0, tilt)
    out = log_f + _LOG_2 - np.log(gamma + 1.0 / gamma)
    return out + tilt - np.log1p(alpha * b) - np.log(scale)


def log_pdf(spec: DistributionSpec, x):
    """Log density at x; vectorized, never NaN for non-NaN x, and never warns.

    A call of the private `_log_density` with the spec's parameters; a
    single point goes in, and comes out, as a Python float.
    """
    x = np.asarray(x, dtype=float)
    point = x.ndim == 0
    out = _log_density(
        spec.base, spec.alpha, spec.gamma, spec.b, spec.loc, spec.scale, float(x) if point else x
    )
    return float(out) if point else out


def pdf(spec: DistributionSpec, x):
    """Density at x; vectorized."""
    return np.exp(log_pdf(spec, x))


# ---------- distribution function ----------


def _quad_pdf(spec: DistributionSpec, lo: float, hi: float) -> tuple[float, float]:
    from scipy.integrate import quad  # loaded on first use: only quantile needs it

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
    """P(X <= x) in closed form: `cdf_values` at the one point x; a NaN x raises DomainError."""
    return float(cdf_values(spec, [x])[0])


def _cdf(spec: DistributionSpec, x: float, left: float) -> float:
    """P(X <= x) at a finite x by numeric integration of the density, given
    ``left``, the mass below the fold (``cdf(spec, spec.loc)``).

    The density is integrated from ``loc`` to x, or from -inf to x below the
    fold, where it has a continuous but non-smooth join.  Raises
    NumericError when the integrator cannot certify an absolute error below
    1e-8.

    ``left`` is read only for x >= loc, so a caller that evaluates many
    points computes it once.
    """
    if x < spec.loc:
        value, err = _quad_pdf(spec, -np.inf, x)
    else:
        right, err = _quad_pdf(spec, spec.loc, x) if x > spec.loc else (0.0, 0.0)
        value = left + right
    if err > _CDF_MAX_ERROR:
        raise NumericError(
            f"cdf integration did not converge at x={x}: achieved abs error {err:.3e} "
            f"(target {_CDF_MAX_ERROR:.1e})"
        )
    return min(max(value, 0.0), 1.0)


def cdf_values(spec: DistributionSpec, xs) -> np.ndarray:
    """CDF at many points at once, in closed form; any order, O(n) work.

    On the half-line stretched by s the density is c f(z/s) (1 + alpha z^2)
    with c = 2 / ((gamma + 1/gamma)(1 + alpha b)), so each half needs only
    the base's partial moments of order 0 and 2 (``partial_moment``).  Below
    the fold F = c/gamma (upper_0 + alpha/gamma^2 upper_2) at t = |z| gamma;
    above it F is the left-half mass plus c gamma (lower_0 + alpha gamma^2
    lower_2) at t = z/gamma.  A NaN point raises DomainError.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.ndim != 1:
        raise DomainError("cdf_values expects a one-dimensional array")
    if np.isnan(xs).any():
        raise DomainError("cdf argument must not be NaN")
    g, alpha, base = spec.gamma, spec.alpha, spec.base
    c = 2.0 / ((g + 1.0 / g) * (1.0 + alpha * spec.b))

    def half(t, s: float, upper: bool):
        """Mass of the half-line stretched by s beyond t (upper) or below it, t = |z|/s."""
        mass = base.partial_moment(0, t, upper)
        if alpha:  # at alpha = 0 the tilt term is exactly 0: skip its partial moment
            mass = mass + alpha * s * s * base.partial_moment(2, t, upper)
        return c * s * mass

    # an overflowed standardized point is an infinite one
    with np.errstate(over="ignore"):
        z = (xs - spec.loc) / spec.scale
        below = z < 0
        result = np.empty_like(z)
        result[below] = half(-z[below] * g, 1.0 / g, True)
        result[~below] = half(0.0, 1.0 / g, True) + half(z[~below] / g, g, False)
    # the two half masses sum to 1 only up to rounding
    return np.where(z == np.inf, 1.0, np.minimum(result, 1.0))


def quantile(spec: DistributionSpec, u: float) -> float:
    """Value x with cdf(x) = u, located by bracketing root search over `_cdf`.

    The mass below the fold is computed once and shared by every
    evaluation of the search at or above ``loc``.
    """
    u = float(u)
    if not 0.0 < u < 1.0:
        raise DomainError(f"quantile level must lie strictly in (0, 1), got {u}")

    center = spec.loc
    left = cdf(spec, center)
    f_center = _cdf(spec, center, left) - u
    if f_center == 0.0:
        return center
    step = spec.scale
    if f_center > 0:
        lo = center - step
        while _cdf(spec, lo, left) > u:
            step *= 2.0
            lo = center - step
            if step > 1e12 * spec.scale:
                raise NumericError(f"failed to bracket quantile u={u} below the location")
        bracket = (lo, center)
    else:
        hi = center + step
        while _cdf(spec, hi, left) < u:
            step *= 2.0
            hi = center + step
            if step > 1e12 * spec.scale:
                raise NumericError(f"failed to bracket quantile u={u} above the location")
        bracket = (center, hi)
    from scipy.optimize import brentq  # loaded on first use: only quantile needs it

    return float(brentq(lambda t: _cdf(spec, t, left) - u, *bracket, xtol=1e-12, rtol=8.9e-16))


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
    # r is validated first; existence is monotone in r, so a tilted spec still asks r + 2
    return base.moment_exists(r) and (spec.alpha == 0.0 or base.moment_exists(r + 2))


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


def _interior_mode(alpha: float, s: float, law: tuple[float, float, float]) -> float | None:
    """|z| of the maximum inside the half-line of stretch s, or None.

    d/dz log f has the sign of A(y) = c y^k - alpha b y - 1 at y = z^2, with
    (p, a, b) = ``law``, c = 2 alpha s^p a and k = 1 - p/2.  The maximum is
    where A falls through zero, found by bisection on u = log y.
    """
    p, a, b = law
    if alpha == 0.0:
        return None
    if p == 2.0:  # A is linear in y
        c = 2.0 * alpha * s * s * a
        return math.sqrt((c - 1.0) / (alpha * b)) if c > 1.0 else None
    k = 1.0 - 0.5 * p
    log_ab = math.log(alpha) + math.log(b)
    log_c = log_ab + math.log(2.0 * a / b) + p * math.log(s)

    def rising(u):  # A(e^u) > 0, as log(c y^k) > log(1 + alpha b y)
        m = log_ab + u
        return log_c + k * u > max(m, 0.0) + math.log1p(math.exp(-abs(m)))

    if k > 0.0:  # p < 2: A is concave, peaks at lo and equals -1 at hi
        lo, hi = (log_c + math.log(k) - log_ab) / (1.0 - k), (log_c - log_ab) / (1.0 - k)
        if not rising(lo):
            return None
    else:  # p > 2: A falls from +inf; c y^k is 1 at hi and 2 max(1, alpha b e^hi) at lo
        hi = -log_c / k
        lo = (math.log(2.0) + max(log_ab + hi, 0.0) - log_c) / k
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if rising(mid) else (lo, mid)
    return math.exp(0.5 * mid)


def find_modes(spec: DistributionSpec) -> list[tuple[float, float]]:
    """Local maxima of the density as (location, density) pairs, ascending.

    Each half-line follows the sign law of its base's ``mode_law`` (p, a, b)
    with stretch s = gamma on the right and 1/gamma on the left.  bsn
    (2, 1, 1) and bsstd (2, (nu-2)/(nu+1), (nu-1)/(nu+1)) have their interior
    maximum at z^2 = (2 alpha s^2 a - 1) / (alpha b) when that is positive, so
    both are bimodal exactly when alpha > max(gamma^2, gamma^-2) / (2 a).  For
    bsgt (p, c/(pq+1), (pq-1)/(pq+1)), c = q delta^p, p < 2 always keeps a mode at
    the fold and p > 2 splits the peak at any alpha > 0.  The fold z = 0 is a
    mode exactly when the density falls away from it on both sides.
    Locations are loc + scale * z; roots that round to the same x count once.
    """
    law = spec.base.mode_law
    left, right = (_interior_mode(spec.alpha, s, law) for s in (1.0 / spec.gamma, spec.gamma))
    fold = law[0] < 2.0 or (left is None and right is None)
    candidates = (None if left is None else -left, 0.0 if fold else None, right)
    zs = [z for z in candidates if z is not None]
    xs = np.array(sorted({spec.loc + spec.scale * z for z in zs}))
    return [(float(x), float(d)) for x, d in zip(xs, pdf(spec, xs))]
