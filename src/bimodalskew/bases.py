"""Symmetric unit-variance base densities that the skewed families are built from.

Every base is standardized so that its variance equals one; the skewing and
tilting layers in :mod:`bimodalskew.families` then never need to renormalize
second moments.  Each base exposes its log density, its absolute moments
m_r = E|Z|^r, exact samplers for |Z| and for the quadratically weighted
half-line density proportional to z^2 f(z) on z > 0 (where one is available
in closed form), and its mode law: the triple (p, a, b) for which, on a
half-line stretched by s, d/dz log f of the tilted density has the sign of
A(y) = 2 alpha s^p a y^(1 - p/2) - alpha b y - 1 with y = z^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, gammaln

from .errors import DomainError, ExistenceError

_LOG_2PI = float(np.log(2.0 * np.pi))
# z**2 overflows above ~1.3e154; switch to log-space asymptotics before that.
_HUGE = 1e150


def _validate_order(r: int) -> int:
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise DomainError(f"moment order must be a nonnegative integer, got {r!r}")
    return int(r)


def _check_shape(p: float, q: float) -> None:
    """Finite p > 0 and q > 0: the domain of the generalized-gamma mixing law."""
    if not (np.isfinite(p) and np.isfinite(q) and p > 0 and q > 0):
        raise DomainError(f"shape parameters must be finite with p > 0 and q > 0, got p={p}, q={q}")


def gt_variance(p: float, q: float) -> float:
    """Variance of the unit-scale generalized-t density.

    The density is f(x) = p / (2 q^(1/p) B(1/p, q)) * (1 + |x|^p / q)^-(q + 1/p)
    and the variance is q^(2/p) * Gamma(3/p) Gamma(q - 2/p) / (Gamma(1/p) Gamma(q)),
    finite only for p*q > 2.
    """
    _check_shape(p, q)
    if p * q <= 2:
        raise DomainError(f"generalized-t variance needs p*q > 2, got p*q={p * q}")
    log_var = (
        (2.0 / p) * np.log(q)
        + gammaln(3.0 / p)
        + gammaln(q - 2.0 / p)
        - gammaln(1.0 / p)
        - gammaln(q)
    )
    return float(np.exp(log_var))


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

    def moment_exists(self, r: int) -> bool:
        _validate_order(r)
        return True

    def abs_moment(self, r: int) -> float:
        r = _validate_order(r)
        return float(np.exp(0.5 * r * np.log(2.0) + gammaln(0.5 * (r + 1)) - 0.5 * np.log(np.pi)))

    def sample_abs(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return np.abs(gen.standard_normal(size))

    def sample_abs_tilted(self, gen: np.random.Generator, size: int) -> np.ndarray:
        # z^2 exp(-z^2/2) on z > 0 is the chi(3) density.
        return np.sqrt(gen.chisquare(3, size))


@dataclass(frozen=True)
class StudentTBase:
    """Student-t rescaled to unit variance; requires nu > 2."""

    nu: float

    def __post_init__(self):
        if not (np.isfinite(self.nu) and self.nu > 2):
            raise DomainError(f"degrees of freedom must be finite and exceed 2, got nu={self.nu}")

    @property
    def name(self) -> str:
        return "student"

    @property
    def mode_law(self) -> tuple[float, float, float]:
        nu = self.nu
        return 2.0, (nu - 2.0) / (nu + 1.0), (nu - 1.0) / (nu + 1.0)

    def log_pdf(self, z):
        z = np.asarray(z, dtype=float)
        nu = self.nu
        zz = z * z
        with np.errstate(divide="ignore"):
            tail = np.where(
                zz < _HUGE,
                np.log1p(zz / (nu - 2.0)),
                2.0 * np.log(np.abs(z)) - np.log(nu - 2.0),
            )
        return (
            gammaln(0.5 * (nu + 1))
            - gammaln(0.5 * nu)
            - 0.5 * np.log(np.pi * (nu - 2.0))
            - 0.5 * (nu + 1) * tail
        )

    def moment_exists(self, r: int) -> bool:
        return _validate_order(r) < self.nu

    def abs_moment(self, r: int) -> float:
        r = _validate_order(r)
        if r >= self.nu:
            raise ExistenceError(f"E|Z|^{r} diverges for nu={self.nu} (needs r < nu)")
        nu = self.nu
        return float(
            np.exp(
                0.5 * r * np.log(nu - 2.0)
                + gammaln(0.5 * (r + 1))
                + gammaln(0.5 * (nu - r))
                - 0.5 * np.log(np.pi)
                - gammaln(0.5 * nu)
            )
        )

    def sample_abs(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return np.abs(gen.standard_t(self.nu, size)) * np.sqrt((self.nu - 2.0) / self.nu)


@dataclass(frozen=True)
class GenTBase:
    """Generalized-t rescaled to unit variance; requires finite p > 0, q > 0 and p*q > 2.

    ``delta`` defaults to the standardizing scale; passing another value
    gives a generalized-t of a different variance.
    """

    p: float
    q: float
    delta: float | None = None

    def __post_init__(self):
        standard = gt_standard_scale(self.p, self.q)  # validates p and q
        if self.delta is None:
            object.__setattr__(self, "delta", standard)
        elif not (np.isfinite(self.delta) and self.delta > 0):
            raise DomainError(f"scale delta must be positive and finite, got {self.delta}")

    @property
    def name(self) -> str:
        return "gent"

    @property
    def mode_law(self) -> tuple[float, float, float]:
        p, q = self.p, self.q
        return p, q * self.delta**p / (p * q + 1.0), (p * q - 1.0) / (p * q + 1.0)

    def log_pdf(self, z):
        z = np.asarray(z, dtype=float)
        p, q, delta = self.p, self.q, self.delta
        az = np.abs(z)
        with np.errstate(over="ignore"):
            w = (az / delta) ** p
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = np.where(
                np.isfinite(w),
                np.log1p(w / q),
                p * (np.log(az) - np.log(delta)) - np.log(q),
            )
        return (
            np.log(p)
            - np.log(2.0)
            - np.log(delta)
            - np.log(q) / p
            - betaln(1.0 / p, q)
            - (q + 1.0 / p) * tail
        )

    def moment_exists(self, r: int) -> bool:
        return _validate_order(r) < self.p * self.q

    def abs_moment(self, r: int) -> float:
        r = _validate_order(r)
        p, q = self.p, self.q
        if r >= p * q:
            raise ExistenceError(f"E|Z|^{r} diverges for p={p}, q={q} (needs r < p*q)")
        return float(
            np.exp(
                r * np.log(self.delta)
                + (r / p) * np.log(q)
                + gammaln((r + 1.0) / p)
                + gammaln(q - r / p)
                - gammaln(1.0 / p)
                - gammaln(q)
            )
        )

    def sample_abs(self, gen: np.random.Generator, size: int) -> np.ndarray:
        # |Z/delta|^p / q is beta-prime(1/p, q), i.e. a ratio of gammas.
        g1 = gen.gamma(1.0 / self.p, 1.0, size)
        g2 = gen.gamma(self.q, 1.0, size)
        return self.delta * (self.q * g1 / g2) ** (1.0 / self.p)
