"""Symmetric unit-variance base densities that the skewed families are built from.

Every base is standardized so that its variance equals one; the skewing and
tilting layers in :mod:`bimodalskew.families` then never need to renormalize
second moments.  Each base exposes its log density, which for the heavy tails
takes log1p(v) of a power v of |z| while v is finite and, where v overflows,
the log form log(1 + e^(log v)) from log|z| (``far_log_pdf``), its absolute moments
m_r = E|Z|^r, one exact half-line sampler, `sample_abs`, that draws |Z| or,
tilted, the quadratically weighted half-line law proportional to z^2 f(z) on
z > 0, its partial moments of order r = 0 and 2 (the integral of
w^r f(w) over (0, t) or (t, inf), from which the families' distribution
functions are built), and its mode law: the triple (p, a, b) for which, on a
half-line stretched by s, d/dz log f of the tilted density has the sign of
A(y) = 2 alpha s^p a y^(1 - p/2) - alpha b y - 1 with y = z^2.

The Student-t base is the generalized-t at p = 2 and q = nu/2: `StudentTBase`
is a `GenTBase` that sets the two derived constants, the scale delta and the
divisor c = q delta^p of |z|^p, in closed form, and keeps only its name.  So
every heavy-tail formula, the half-line sampler included, is written once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, ExistenceError

_LOG_2PI = float(np.log(2.0 * np.pi))
_SQRT_2 = float(np.sqrt(2.0))
_SQRT_2PI = float(np.sqrt(2.0 * np.pi))
# From here up a generalized-t's partial moments are their q -> inf limit, the
# exponential-power base's: the limit's own error falls as 1/q and is under
# scipy's rounding from here up, and betainc, which the exact form needs,
# returns NaN once its second parameter passes about 1e200.
_Q_EXP_POWER = 1e17
# a positive double below 2**-1075 rounds to 0.0
_LOG_UNDERFLOW = -1075.0 * math.log(2.0)


def _validate_order(r: int) -> int:
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise DomainError(f"moment order must be a nonnegative integer, got {r!r}")
    return int(r)


def _partial_args(r: int, t) -> np.ndarray:
    """Validate a partial-moment order (0 or 2) and its upper limits t >= 0."""
    if r not in (0, 2):
        raise DomainError(f"partial moments have order 0 or 2, got {r!r}")
    t = np.asarray(t, dtype=float)
    if not (t >= 0).all():
        raise DomainError("partial-moment limits must be nonnegative and not NaN")
    return t


def _beta_split(a: float, b: float, u: np.ndarray, upper: bool) -> np.ndarray:
    """I_x(a, b) at x = u / (1 + u), or 1 - I_x(a, b) when ``upper``.

    Far out x rounds to 1, so where x > 1/2 (u > 1) the value comes from
    I_y(b, a) = 1 - I_x(a, b) at y = 1 - x = 1 / (1 + u), computed directly
    and never as 1 - x.  Complements are taken as 1 - I, except where
    I > 0.999 and 1 - I would cancel: there they come from ``betaincc``,
    which costs 5 to 10 times as much per point, at those points only.
    """
    from scipy.special import betainc, betaincc

    near = u <= 1.0
    out = np.empty_like(u)
    un, uf = u[near], u[~near]
    out[near] = betainc(a, b, un / (1.0 + un))
    out[~near] = betainc(b, a, 1.0 / (1.0 + uf))
    fix = (near == upper) & (out > 0.999)
    out = np.where(near != upper, out, 1.0 - out)
    if fix.any():
        un, uf = u[fix & near], u[fix & ~near]
        out[fix & near] = betaincc(a, b, un / (1.0 + un))
        out[fix & ~near] = betaincc(b, a, 1.0 / (1.0 + uf))
    return out[()]


def _log_gamma_draws(shape: float, gen: np.random.Generator, size: int) -> np.ndarray:
    """log Y of ``size`` draws Y ~ Gamma(shape, 1), finite where Y underflows.

    Near 0, Y has density proportional to y^(shape - 1), so given
    Y < 2^-1075, where it rounds to 0, Y is 2^-1075 V^(1/shape), V uniform;
    only a call with such a Y draws its V, right after its Y.
    """
    y = gen.gamma(shape, 1.0, size)
    low = y == 0.0
    with np.errstate(divide="ignore"):
        log_y = np.log(y)
    if low.any():
        log_y[low] = _LOG_UNDERFLOW + np.log(gen.random(np.count_nonzero(low))) / shape
    return log_y


def _check_shape(p: float, q: float) -> None:
    """Finite p > 0 and q > 0: the domain of the generalized-gamma mixing law."""
    if not (np.isfinite(p) and np.isfinite(q) and p > 0 and q > 0):
        raise DomainError(f"shape parameters must be finite with p > 0 and q > 0, got p={p}, q={q}")


def _gamma_ratio_series(a: float, x: float) -> float | None:
    """a log x + log Gamma(x) - log Gamma(x + a) for x >= 20 and 0 < a <= x/20.

    The series of DLMF 5.11.13, the sum over k >= 1 of
    (-1)^k (B_{k+1}(a) - B_{k+1}) / (k (k + 1) x^k) with B_n(a) the Bernoulli
    polynomials, in which a log x and the Stirling terms of the two log-gamma
    values have cancelled exactly.  There ten terms are within 2.2e-16 of
    max(1, |log Gamma(x) - log Gamma(x + a)|) (checked against 40-digit
    values).  Elsewhere it is None, and the callers keep scipy's values.
    """
    if not (x >= 20.0 and 20.0 * a <= x):
        return None
    # B_0 .. B_10
    bernoulli = (1.0, -0.5, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30, 0.0, 5 / 66)
    total = 0.0
    for k in range(10, 0, -1):
        n = k + 1
        poly = sum(math.comb(n, j) * bernoulli[j] * a ** (n - j) for j in range(n))
        total = total / x + (-1) ** k * poly / (k * n)
    return total / x


def betaln(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0 that holds for a large second argument.

    Up to b = 1e6 scipy's ``betaln`` subtracts two log-gamma values near
    b log b and loses up to about 1e-9 relative, so where
    `_gamma_ratio_series` holds this is log Gamma(a) - a log b plus that
    series, and scipy's value elsewhere.
    """
    from scipy.special import betaln as scipy_betaln, gammaln

    series = _gamma_ratio_series(a, b)
    if series is None:
        return scipy_betaln(a, b)
    return gammaln(a) - a * np.log(b) + series


def _log_gamma_ratio(x: float, a: float) -> float:
    """log Gamma(x) - log Gamma(x + a) for a > 0, as betaln(a, x) - log Gamma(a) (DLMF 5.12.1).

    Subtracting two gammaln values instead cancels once x is large: at
    x = 5e14 both are near 1.6e16 and their difference is off by about 3.
    """
    from scipy.special import gammaln

    return betaln(a, x) - gammaln(a)


def _gt_log_abs_moment(r: int, p: float, q: float) -> float:
    """log E|Z|^r of the unit-scale generalized-t, for r > 0 and r/p < q.

    E|Z|^r = q^a Gamma((r + 1)/p) Gamma(x) / (Gamma(1/p) Gamma(x + a)) with
    a = r/p and x = q - a.  Where `_gamma_ratio_series` holds, the factor
    q^a Gamma(x) / Gamma(x + a) is taken as (q / x)^a times the series' ratio,
    so a log q does not cancel against log Gamma(x) - log Gamma(x + a) and the
    standardizing scale keeps its q -> inf limit to rounding.
    """
    from scipy.special import gammaln

    a = r / p
    x = q - a
    series = _gamma_ratio_series(a, x)
    if series is None:
        return a * np.log(q) + gammaln((r + 1.0) / p) - gammaln(1.0 / p) + _log_gamma_ratio(x, a)
    return gammaln((r + 1.0) / p) - gammaln(1.0 / p) + a * np.log(q / x) + series


def gt_variance(p: float, q: float) -> float:
    """Variance of the unit-scale generalized-t density.

    The density is f(x) = p / (2 q^(1/p) B(1/p, q)) * (1 + |x|^p / q)^-(q + 1/p)
    and the variance is q^(2/p) * Gamma(3/p) Gamma(q - 2/p) / (Gamma(1/p) Gamma(q)),
    finite only for q > 2/p.
    """
    _check_shape(p, q)
    if not 2.0 / p < q:
        raise DomainError(f"generalized-t variance needs q > 2/p, got p={p}, q={q}")
    log_var = _gt_log_abs_moment(2, p, q)
    with np.errstate(over="ignore", under="ignore"):
        var = float(np.exp(log_var))
    if not 0.0 < var < np.inf:
        raise DomainError(
            f"generalized-t variance exp({float(log_var):.6g}) is beyond the float range "
            f"at p={p}, q={q}"
        )
    return var


def gt_standard_scale(p: float, q: float) -> float:
    """Scale delta that gives the generalized-t density unit variance."""
    return 1.0 / np.sqrt(gt_variance(p, q))


@dataclass(frozen=True)
class NormalBase:
    """Standard normal base."""

    name = "normal"
    mode_law = (2.0, 1.0, 1.0)

    def log_pdf(self, z):
        z = np.asarray(z, dtype=float)
        return -0.5 * z * z - 0.5 * _LOG_2PI

    def far_log_pdf(self, log_abs):
        """The log density at |z| = e^log_abs where z^2 overflows: -inf."""
        return -np.inf

    def moment_exists(self, r: int) -> bool:
        _validate_order(r)
        return True

    def abs_moment(self, r: int) -> float:
        from scipy.special import gammaln

        r = _validate_order(r)
        return float(np.exp(0.5 * r * np.log(2.0) + gammaln(0.5 * (r + 1)) - 0.5 * np.log(np.pi)))

    def partial_moment(self, r: int, t, upper: bool = False):
        """Integral of w^r f(w) over (0, t), or (t, inf) when ``upper``; r is 0 or 2."""
        from scipy.special import erf, erfc

        t = _partial_args(r, t)
        half = 0.5 * (erfc if upper else erf)(t / _SQRT_2)
        if r == 0:
            return half
        # w^2 f(w) integrates by parts to the r = 0 term minus t f(t); past
        # t = 40, f(t) is 0 in floats, and the cap keeps inf * 0 out
        capped = np.minimum(t, 40.0)
        edge = capped * np.exp(-0.5 * capped * capped) / _SQRT_2PI
        return half + edge if upper else half - edge

    def sample_abs(self, gen: np.random.Generator, size: int, tilted: bool = False) -> np.ndarray:
        """``size`` draws of |Z|, or with ``tilted`` of chi(3), whose density
        z^2 exp(-z^2/2) on z > 0 is the x^2-weighted half-normal."""
        return np.sqrt(gen.chisquare(3, size)) if tilted else np.abs(gen.standard_normal(size))


@dataclass(frozen=True)
class GenTBase:
    """Generalized-t rescaled to unit variance; requires finite p > 0 and q > 2/p.

    Its density is proportional to (1 + |z|^p / c)^-(q + 1/p).  The derived
    ``delta`` is the standardizing scale `gt_standard_scale(p, q)`, and the
    derived ``c = q delta^p`` divides |z|^p wherever the tail argument
    appears, so forming the argument takes one division.  Where c or p*q is
    not finite the base is not built.
    """

    p: float
    q: float
    delta: float = field(init=False)
    c: float = field(init=False)

    name = "gent"

    def __post_init__(self):
        p, q = self.p, self.q
        delta = gt_standard_scale(p, q)  # validates p and q
        with np.errstate(over="ignore"):
            c = q * delta**p
        if not (0.0 < c < np.inf and np.isfinite(p * q)):
            raise DomainError(f"q delta^p = {c} and p*q = {p * q} must both be finite, at p={p}, q={q}")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "c", c)

    @property
    def mode_law(self) -> tuple[float, float, float]:
        p, q = self.p, self.q
        return p, self.c / (p * q + 1.0), (p * q - 1.0) / (p * q + 1.0)

    @cached_property
    def _log_norm(self) -> float:
        """log f(0), computed on the first density call.

        It is log(p / 2) - log(c)/p - betaln(1/p, q).  Where
        `_gamma_ratio_series` holds, betaln(1/p, q) is log Gamma(1/p) - log(q)/p
        plus the series, and log(c)/p - log(q)/p is log delta, so the log(q)/p
        pair is left out rather than cancelled.
        """
        p, q = self.p, self.q
        series = _gamma_ratio_series(1.0 / p, q)
        if series is None:
            return np.log(0.5 * p) - np.log(self.c) / p - betaln(1.0 / p, q)
        from scipy.special import gammaln

        return np.log(0.5 * p) - np.log(self.delta) - gammaln(1.0 / p) - series

    def log_pdf(self, z):
        z = np.asarray(z, dtype=float)
        p, q = self.p, self.q
        if p == 2.0:
            # every Student-t: the exact square, without the errstate that
            # costs a scalar call about a sixth of its time; numpy reports
            # where z^2 overflows unless the caller silences it
            v = z * z / self.c
        else:
            with np.errstate(over="ignore"):
                v = np.abs(z) ** p / self.c
        out = self._log_norm - (q + 1.0 / p) * np.log1p(v)
        finite = np.isfinite(v)
        if not finite.all():  # the log form, where v overflowed or z is NaN
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(finite, out, self.far_log_pdf(np.log(np.abs(z))))[()]
        return out

    def far_log_pdf(self, log_abs):
        """The log density at |z| = e^log_abs, with log1p(|z|^p / c) taken as
        log(1 + e^y), y = p log|z| - log c, which needs no |z|^p."""
        p, q = self.p, self.q
        y = p * log_abs - np.log(self.c)
        return self._log_norm - (q + 1.0 / p) * np.logaddexp(0.0, y)

    def moment_exists(self, r: int) -> bool:
        # the sign of q - r/p, which the moment's Gamma takes; p*q can round above r where q - r/p is 0
        return _validate_order(r) / self.p < self.q

    def abs_moment(self, r: int) -> float:
        r = _validate_order(r)
        p, q = self.p, self.q
        if not self.moment_exists(r):
            raise ExistenceError(f"E|Z|^{r} diverges for p={p}, q={q} (needs r/p < q)")
        if r == 0:
            return 1.0
        return float(np.exp(r * np.log(self.delta) + _gt_log_abs_moment(r, p, q)))

    def partial_moment(self, r: int, t, upper: bool = False):
        """Integral of w^r f(w) over (0, t), or (t, inf) when ``upper``; r is 0 or 2.

        It is (m_r / 2) I_x((r + 1)/p, q - r/p) at x = w / (1 + w), with
        w = t^p / c, and from q = `_Q_EXP_POWER` up its limit
        (m_r / 2) P((r + 1)/p, (t / delta)^p), P the regularized lower
        incomplete gamma function.
        """
        t = _partial_args(r, t)
        p, q = self.p, self.q
        half_moment = 0.5 * self.abs_moment(r)
        if q >= _Q_EXP_POWER:
            from scipy.special import gammainc, gammaincc

            with np.errstate(over="ignore"):
                s = (t / self.delta) ** p
            return half_moment * (gammaincc if upper else gammainc)((r + 1.0) / p, s)
        with np.errstate(over="ignore"):
            w = t**p / self.c
        return half_moment * _beta_split((r + 1.0) / p, q - r / p, w, upper)

    def sample_abs(self, gen: np.random.Generator, size: int, tilted: bool = False) -> np.ndarray:
        """``size`` draws of |Z|, or with ``tilted`` of the x^2-weighted half-line law.

        |Z/delta|^p / q is h / Y with h ~ Gamma(1/p, 1) and Y ~ Gamma(q, 1);
        tilted, h ~ Gamma(3/p, 1) and Y ~ Gamma(q - 2/p, 1), the size-biased
        mixing law (q - 2/p > 0 as p*q > 2).  Y is drawn first, in logs, then
        h, and delta (q h / Y)^(1/p) is formed in logs, so nothing overflows
        on the way; near nu = 2 or p*q = 2 a share of the tilted draws lie
        past the float range, as inf.
        """
        p, q = self.p, self.q
        log_y = _log_gamma_draws(q - 2.0 / p if tilted else q, gen, size)
        h = gen.gamma((3.0 if tilted else 1.0) / p, 1.0, size)
        with np.errstate(divide="ignore", over="ignore"):
            return self.delta * np.exp((math.log(q) + np.log(h) - log_y) / p)


@dataclass(frozen=True)
class StudentTBase(GenTBase):
    """Student-t rescaled to unit variance; requires nu > 2.

    It is the generalized-t at p = 2 and q = nu/2, whose two derived
    constants have closed forms: delta = sqrt(2 (nu - 2) / nu), and
    c = q delta^2 = nu - 2 exactly.
    """

    p: float = field(init=False, repr=False)
    q: float = field(init=False, repr=False)
    nu: float

    name = "student"

    def __post_init__(self):
        nu = self.nu
        if not (np.isfinite(nu) and nu > 2):
            raise DomainError(f"degrees of freedom must be finite and exceed 2, got nu={nu}")
        object.__setattr__(self, "p", 2.0)
        object.__setattr__(self, "q", 0.5 * nu)
        object.__setattr__(self, "delta", math.sqrt(2.0 * ((nu - 2.0) / nu)))
        object.__setattr__(self, "c", nu - 2.0)
