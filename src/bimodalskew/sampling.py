"""Exact samplers for the bimodal skewed families.

All samplers are pure composition: a draw picks the plain two-piece component
with probability 1/(1 + alpha*b) or the quadratically weighted component with
probability alpha*b/(1 + alpha*b), then draws that component exactly.  No
rejection loops anywhere.

The heavy-tailed families are drawn through their scale-mixture hierarchies.
One point needs care: the quadratic tilt factor (1 + alpha x^2) is shared by
every mixture component, so reweighting by x^2 changes the mixing law itself.
Under the tilt component the mixing variable follows the size-biased version
of its plain density (second moment of the conditional kernel times the plain
density), which stays in the same parametric family:

* Student-t layer: plain lambda ~ Gamma(nu/2, rate (nu-2)/2); tilted
  lambda ~ Gamma(nu/2 - 1, rate (nu-2)/2).
* generalized-t layer: plain S = Y^(2/p) with Y ~ Gamma(q, 1); tilted
  Y ~ Gamma(q - 2/p, 1).
* uniform layer under the normal: plain U ~ chi-square(3); tilted
  U ~ chi-square(5), and the conditional uniform gains the x^2 weight
  (cube-root inversion).
* uniform layer under the exponential power: plain U ~ Gamma(1 + 1/p, 1);
  tilted U ~ Gamma(1 + 3/p, 1), with the same cube-root inversion.

Everything is driven by numpy Generators; RngStream wraps a counter-based
bit generator so that (seed, stream) pairs give reproducible, independent
streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import GenTBase, NormalBase, StudentTBase, _check_shape
from .errors import DomainError
from .families import DistributionSpec, bsgt, bsn, bsstd, two_piece_second_moment

__all__ = [
    "RngStream",
    "AugmentedDraw",
    "sample_two_piece",
    "sample_quadratic_tilt",
    "sample_bsn",
    "sample_bsstd",
    "sample_skewed_uniform_normal",
    "sample_gen_gamma",
    "sample_bsgt",
    "sample",
]


class RngStream:
    """Reproducible random stream keyed by (seed, stream).

    Uses a counter-based bit generator, so distinct stream ids give
    statistically independent streams and equal (seed, stream) pairs replay
    the identical sequence.
    """

    def __init__(self, seed: int, stream: int = 0):
        if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**64:
            raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r}")
        if not isinstance(stream, (int, np.integer)) or not 0 <= int(stream) < 2**64:
            raise DomainError(f"stream must be an integer in [0, 2^64), got {stream!r}")
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def substream(self, stream: int) -> "RngStream":
        """A fresh stream with the same seed and a different stream id."""
        return RngStream(self.seed, stream)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"


def _gen(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator
    if isinstance(rng, np.random.Generator):
        return rng
    raise DomainError(f"rng must be an RngStream or numpy Generator, got {type(rng)!r}")


@dataclass(frozen=True)
class AugmentedDraw:
    """A draw together with the mixing variables of the hierarchy that produced it."""

    x: np.ndarray
    lam: np.ndarray | None = None
    u: np.ndarray | None = None
    s: np.ndarray | None = None


def _two_piece_signs(gamma: float, magnitude: np.ndarray, right_prob: float, gen) -> np.ndarray:
    right = gen.random(magnitude.size) < right_prob
    return np.where(right, gamma * magnitude, -magnitude / gamma)


def sample_two_piece(gamma: float, base, rng, size: int | None = None):
    """Draw from the two-piece skewed version of a symmetric base density."""
    two_piece_second_moment(gamma)  # validates gamma
    gen = _gen(rng)
    n = 1 if size is None else int(size)
    mag = base.sample_abs(gen, n)
    x = _two_piece_signs(gamma, mag, gamma**2 / (1.0 + gamma**2), gen)
    return float(x[0]) if size is None else x


def sample_quadratic_tilt(gamma: float, base, rng, size: int | None = None):
    """Draw from the density proportional to x^2 times the two-piece density.

    Only bases with a closed-form x^2-weighted half-line sampler support this
    (the normal); others raise CapabilityError.
    """
    two_piece_second_moment(gamma)
    gen = _gen(rng)
    n = 1 if size is None else int(size)
    mag = base.sample_abs_tilted(gen, n)
    x = _two_piece_signs(gamma, mag, gamma**6 / (1.0 + gamma**6), gen)
    return float(x[0]) if size is None else x


def _tilt_mask(alpha: float, b: float, gen, n: int) -> np.ndarray:
    w = alpha * b / (1.0 + alpha * b)
    return gen.random(n) < w


def sample_bsn(alpha: float, gamma: float, rng, size: int | None = None, path: str = "direct"):
    """Draw from the bimodal skew normal by two-component composition.

    ``path="direct"`` draws the component magnitudes from the normal base;
    ``path="uniform"`` draws them through the uniform scale-mixture layer
    (chi-square(3) radii, chi-square(5) on the tilted component).  Both are
    exact.
    """
    spec = bsn(alpha, gamma)  # validates
    if path not in ("direct", "uniform"):
        raise DomainError(f"path must be 'direct' or 'uniform', got {path!r}")
    gen = _gen(rng)
    n = 1 if size is None else int(size)
    tilt = _tilt_mask(alpha, spec.b, gen, n)
    x = np.empty(n)
    n_tilt = int(tilt.sum())
    n_plain = n - n_tilt
    if path == "direct":
        if n_plain:
            x[~tilt] = sample_two_piece(gamma, spec.base, gen, n_plain)
        if n_tilt:
            x[tilt] = sample_quadratic_tilt(gamma, spec.base, gen, n_tilt)
    else:
        if n_plain:
            mag = np.sqrt(gen.chisquare(3, n_plain)) * gen.random(n_plain)
            x[~tilt] = _two_piece_signs(gamma, mag, gamma**2 / (1.0 + gamma**2), gen)
        if n_tilt:
            mag = np.sqrt(gen.chisquare(5, n_tilt)) * gen.random(n_tilt) ** (1.0 / 3.0)
            x[tilt] = _two_piece_signs(gamma, mag, gamma**6 / (1.0 + gamma**6), gen)
    return float(x[0]) if size is None else x


def sample_bsstd(alpha: float, gamma: float, nu: float, rng, size: int | None = None) -> AugmentedDraw:
    """Draw from the bimodal skewed standardized Student-t via its gamma mixture.

    Returns the precision-like mixing variable lambda alongside x; the joint
    law of (x, lambda) matches the augmented model used by the Gibbs sampler.
    """
    spec = bsstd(alpha, gamma, nu)  # validates
    gen = _gen(rng)
    n = 1 if size is None else int(size)
    tilt = _tilt_mask(alpha, spec.b, gen, n)
    base = NormalBase()
    rate = 0.5 * (nu - 2.0)
    lam = np.empty(n)
    x = np.empty(n)
    n_tilt = int(tilt.sum())
    if n - n_tilt:
        lam[~tilt] = gen.gamma(0.5 * nu, 1.0 / rate, n - n_tilt)
        x[~tilt] = sample_two_piece(gamma, base, gen, n - n_tilt)
    if n_tilt:
        # size-biased mixing law for the x^2-weighted component
        lam[tilt] = gen.gamma(0.5 * nu - 1.0, 1.0 / rate, n_tilt)
        x[tilt] = sample_quadratic_tilt(gamma, base, gen, n_tilt)
    x = x / np.sqrt(lam)
    if size is None:
        return AugmentedDraw(x=float(x[0]), lam=float(lam[0]))
    return AugmentedDraw(x=x, lam=lam)


def sample_skewed_uniform_normal(gamma: float, lam: float, rng, size: int | None = None) -> AugmentedDraw:
    """Draw the two-piece normal with scale lambda^(-1/2) as a uniform scale mixture.

    Conditional on U ~ Gamma(3/2, rate 1/2) the draw is uniform on
    (0, a*gamma) with probability gamma^2/(1+gamma^2) and uniform on
    (-a/gamma, 0) otherwise, where a = sqrt(u/lambda).
    """
    two_piece_second_moment(gamma)
    if not lam > 0:
        raise DomainError(f"precision must be positive, got lambda={lam}")
    gen = _gen(rng)
    n = 1 if size is None else int(size)
    u = gen.chisquare(3, n)  # Gamma(3/2, rate 1/2)
    a = np.sqrt(u / lam)
    right = gen.random(n) < gamma**2 / (1.0 + gamma**2)
    v = gen.random(n)
    x = np.where(right, gamma * a * v, -(a / gamma) * v)
    if size is None:
        return AugmentedDraw(x=float(x[0]), u=float(u[0]))
    return AugmentedDraw(x=x, u=u)


def sample_gen_gamma(p: float, q: float, rng, size: int | None = None):
    """Draw S with density p/(2 Gamma(q)) s^(pq/2 - 1) exp(-s^(p/2)), via S = Y^(2/p), Y ~ Gamma(q, 1)."""
    _check_shape(p, q)
    gen = _gen(rng)
    n = 1 if size is None else int(size)
    s = gen.gamma(q, 1.0, n) ** (2.0 / p)
    return float(s[0]) if size is None else s


def _ep_kernel_scale(p: float, q: float, delta: float, s: np.ndarray) -> np.ndarray:
    """Exponential-power kernel scale that makes the S-mixture a unit-variance generalized-t."""
    return (0.5 * q) ** (1.0 / p) * delta / np.sqrt(s)


def sample_bsgt(
    alpha: float,
    gamma: float,
    p: float,
    q: float,
    rng,
    size: int | None = None,
    path: str = "gg",
) -> AugmentedDraw:
    """Draw from the bimodal skewed standardized generalized-t.

    Two equivalent hierarchies are available: ``path="gg"`` mixes an
    exponential-power conditional over a generalized-gamma scale, and
    ``path="uniform-gg"`` adds the uniform layer underneath the
    exponential-power conditional.  Both are exact.
    """
    if path not in ("gg", "uniform-gg"):
        raise DomainError(f"path must be 'gg' or 'uniform-gg', got {path!r}")
    spec = bsgt(alpha, gamma, p, q)  # validates
    delta = spec.base.delta
    gen = _gen(rng)
    n = 1 if size is None else int(size)
    tilt = _tilt_mask(alpha, spec.b, gen, n)
    q_tilt = q - 2.0 / p  # positive because p*q > 2
    n_tilt = int(tilt.sum())
    n_plain = n - n_tilt

    s = np.empty(n)
    x = np.empty(n)
    u_out = np.empty(n) if path == "uniform-gg" else None

    if n_plain:
        idx = ~tilt
        s[idx] = gen.gamma(q, 1.0, n_plain) ** (2.0 / p)
        scale = _ep_kernel_scale(p, q, delta, s[idx])
        if path == "gg":
            mag = scale * gen.gamma(1.0 / p, 2.0, n_plain) ** (1.0 / p)
        else:
            u = gen.gamma(1.0 + 1.0 / p, 1.0, n_plain)
            u_out[idx] = u
            # uniform layer: |x| spread uniformly below the envelope radius
            mag = 2.0 ** (1.0 / p) * scale * u ** (1.0 / p) * gen.random(n_plain)
        x[idx] = _two_piece_signs(gamma, mag, gamma**2 / (1.0 + gamma**2), gen)
    if n_tilt:
        idx = tilt
        s[idx] = gen.gamma(q_tilt, 1.0, n_tilt) ** (2.0 / p)
        scale = _ep_kernel_scale(p, q, delta, s[idx])
        if path == "gg":
            mag = scale * gen.gamma(3.0 / p, 2.0, n_tilt) ** (1.0 / p)
        else:
            u = gen.gamma(1.0 + 3.0 / p, 1.0, n_tilt)
            u_out[idx] = u
            mag = 2.0 ** (1.0 / p) * scale * u ** (1.0 / p) * gen.random(n_tilt) ** (1.0 / 3.0)
        x[idx] = _two_piece_signs(gamma, mag, gamma**6 / (1.0 + gamma**6), gen)

    if size is None:
        return AugmentedDraw(
            x=float(x[0]),
            s=float(s[0]),
            u=None if u_out is None else float(u_out[0]),
        )
    return AugmentedDraw(x=x, s=s, u=u_out)


def sample(spec: DistributionSpec, n: int, rng) -> np.ndarray:
    """n draws from any family member, on the loc/scale of the spec."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"sample size must be a positive integer, got {n!r}")
    alpha, gamma, base = spec.alpha, spec.gamma, spec.base
    if isinstance(base, StudentTBase):
        z = sample_bsstd(alpha, gamma, base.nu, rng, int(n)).x
    elif isinstance(base, GenTBase):
        z = sample_bsgt(alpha, gamma, base.p, base.q, rng, int(n)).x
    else:
        z = sample_bsn(alpha, gamma, rng, int(n))
    return spec.loc + spec.scale * z
