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
    out = base.log_pdf(arg) + _LOG_2 - np.log(gamma + 1.0 / gamma)
    # An infinite z would make alpha z^2 = 0 * inf at alpha = 0: NaN, which the
    # slow path replaces, but with numpy's invalid-value warning.  A point's z
    # and alpha go in as Python floats, which give the NaN silently; in an
    # array the infinite z, whose arg is infinite too, are zeroed first.
    if isinstance(z, float) and not isinstance(alpha, np.ndarray):
        z, alpha = float(z), float(alpha)
    elif not np.isfinite(z).all():
        z = np.where(np.isinf(z), 0.0, z)
    t = alpha * z * z
    # The slow path handles an overflowed alpha z^2, whose log(1 + alpha z^2)
    # then comes from logs, and an overflowed arg.  Both terms are >= 0 or
    # NaN, so their sum is finite exactly when both are, unless it overflows;
    # the slow path gives the fast path's values where neither did.
    slow = not np.isfinite(t + np.abs(arg)).all()
    if slow:
        far = np.isinf(arg)  # x is infinite, or the standardized argument overflowed
        z, t = np.where(far, 0.0, z), np.where(far, 0.0, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            fallback = np.log(alpha) + 2.0 * np.log(np.abs(z))
        tilt = np.where(np.isfinite(t), np.log1p(np.where(np.isfinite(t), t, 0.0)), fallback)
    else:
        tilt = np.log1p(t)
    out = out + tilt - np.log1p(alpha * b) - np.log(scale)
    if slow and far.any():
        out = np.where(far, _far_log_density(base, alpha, gamma, b, loc, scale, x), out)
    return out


def _far_log_density(base, alpha, gamma, b, loc, scale, x):
    """`_log_density` where the standardized argument overflows.

    Far out, the standardized log density is -inf (normal base) or linear in
    log|z|, so it follows the line through |z| = e^(top-1) and e^top, where
    top = 700 - |log gamma| keeps z and its stretched argument finite, out to
    log|z| = log|x - loc| - log(scale); halving keeps x - loc finite.
    """
    top = 700.0 - np.abs(np.log(gamma))
    side = np.where(x >= loc, 1.0, -1.0)
    with np.errstate(over="ignore"):
        inner, edge = (
            _log_density(base, alpha, gamma, b, 0.0, 1.0, np.exp(level) * side)
            for level in (top - 1.0, top)
        )
    # only the overflowed entries are kept, so log(0) and -inf - -inf drop out
    with np.errstate(divide="ignore", invalid="ignore"):
        log_z = np.log(np.abs(0.5 * x - 0.5 * loc)) + _LOG_2 - np.log(scale)
        line = edge + (edge - inner) * (log_z - top)
    return np.where(edge == -np.inf, -np.inf, line) - np.log(scale)


def log_pdf(spec: DistributionSpec, x):
    """Log density at x; vectorized, never NaN for non-NaN x.

    A call of the private `_log_density` with the spec's parameters; a
    Python float in gives a float out.
    """
    x = np.asarray(x, dtype=float)
    out = _log_density(spec.base, spec.alpha, spec.gamma, spec.b, spec.loc, spec.scale, x)
    return float(out) if x.ndim == 0 else out


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
    return _cdf(spec, x, _quad_pdf(spec, -np.inf, spec.loc) if x >= spec.loc else None)


def _cdf(spec: DistributionSpec, x: float, left: tuple[float, float] | None) -> float:
    """`cdf` at a finite x, given ``left``, the (value, error) of the mass below the fold.

    ``left`` is read only for x >= loc, so a caller that evaluates many
    points integrates (-inf, loc] once.
    """
    if x < spec.loc:
        value, err = _quad_pdf(spec, -np.inf, x)
    elif x == spec.loc:
        value, err = left
    else:
        right, err_right = _quad_pdf(spec, spec.loc, x)
        value, err = left[0] + right, left[1] + err_right
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
    """Value x with cdf(x) = u, located by bracketing root search.

    The mass below the fold is integrated once and shared by every
    evaluation of the search at or above ``loc``.
    """
    u = float(u)
    if not 0.0 < u < 1.0:
        raise DomainError(f"quantile level must lie strictly in (0, 1), got {u}")

    center = spec.loc
    left = _quad_pdf(spec, -np.inf, center)
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
    bsgt (p, q delta^p/(pq+1), (pq-1)/(pq+1)), p < 2 always keeps a mode at
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
