"""Exact draws from the bimodal skewed families.

`sample(spec, n, rng)` is the public draw, and `RngStream` wraps a
counter-based bit generator so that (seed, stream) pairs give reproducible,
independent streams.  A draw picks the plain two-piece component with
probability 1/(1 + alpha*b) or the quadratically weighted component with
probability alpha*b/(1 + alpha*b), then draws that component exactly.  No
rejection loops anywhere.

Every member draws a component's half-line magnitudes from its base's one
sampler, ``base.sample_abs(gen, k, tilted)``, then their two-piece signs.  In
a scale mixture the tilt factor (1 + alpha x^2) is shared by every mixture
component, so the x^2 weight turns the mixing law into its size-biased
version, in the same family: the generalized-t's Y ~ Gamma(q, 1) becomes
Gamma(q - 2/p, 1) (`GenTBase.sample_abs`), and the uniform layers' radii,
chi-square(3) under the normal and Gamma(1 + 1/p, 1) under the exponential
power, become chi-square(5) and Gamma(1 + 3/p, 1), with a cube-root
inversion of the conditional uniform.

The paper's other representations (the two-piece and x^2-weighted components
on their own, the uniform layers, the generalized gamma) are private helpers
that take a numpy Generator and an exact count; the oracle's ``sampler/``
gates check each of them against a closed form.  Every draw is checked
against the float range.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .bases import _log_gamma_draws
from .errors import DomainError, NumericError
from .families import DistributionSpec

__all__ = ["RngStream", "sample"]


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

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"


def _gen(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator
    if isinstance(rng, np.random.Generator):
        return rng
    raise DomainError(f"rng must be an RngStream or numpy Generator, got {type(rng)!r}")


def _count(size) -> int:
    """Number of draws for a ``size`` argument; None means one scalar draw."""
    if size is None:
        return 1
    if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 1:
        raise DomainError(f"sample size must be a positive integer or None, got {size!r}")
    return int(size)


def _two_piece_signs(gamma: float, magnitude: np.ndarray, tilted: bool, gen) -> np.ndarray:
    """Two-piece draws from half-line magnitudes m: gamma*m at mass gamma^2:1
    (gamma^6:1 when tilted), else -m/gamma."""
    gamma = float(gamma)
    try:
        weight = gamma**6 if tilted else gamma**2
        right_mass = weight / (1.0 + weight)
    except OverflowError:  # the left side's mass, about gamma^-6, is below rounding
        right_mass = 1.0
    right = gen.random(magnitude.size) < right_mass
    return np.where(right, gamma * magnitude, -magnitude / gamma)


def _finite(x):
    """The draws ``x``, or NumericError naming how many lie past the float range."""
    beyond = np.size(x) - np.count_nonzero(np.isfinite(x))
    if beyond:
        raise NumericError(f"{beyond} of {np.size(x)} draws lie past the float range")
    return x


def _compose(spec: DistributionSpec, gen, n: int, magnitudes) -> np.ndarray:
    """n draws of a family member, on its standard loc/scale.

    A draw is the plain two-piece law with probability 1/(1 + alpha*b) and
    its x^2-weighted version otherwise.  ``magnitudes(k, tilted)`` draws the
    k half-line magnitudes of one component; each component draws its
    magnitudes, then its sign uniforms.
    """
    tilt = gen.random(n) < spec.alpha * spec.b / (1.0 + spec.alpha * spec.b)
    x = np.empty(n)
    for tilted, mask in ((False, ~tilt), (True, tilt)):
        x[mask] = _two_piece_signs(spec.gamma, magnitudes(int(mask.sum()), tilted), tilted, gen)
    return x


def _two_piece(gamma: float, base, gen, n: int, tilted: bool = False) -> np.ndarray:
    """n draws of the two-piece law on a base, or with ``tilted`` of its x^2-weighted version."""
    return _finite(_two_piece_signs(gamma, base.sample_abs(gen, n, tilted), tilted, gen))


def _uniform_normal_draws(spec: DistributionSpec, gen, n: int) -> np.ndarray:
    """n draws of a normal member through the uniform layer: the radius is
    chi(3) (chi(5) when x^2-weighted) and the magnitude is the radius times v
    (v^(1/3) when weighted), v uniform."""

    def uniform_layer(k, tilted):
        radius = np.sqrt(gen.chisquare(5 if tilted else 3, k))
        v = gen.random(k)
        return radius * (v ** (1.0 / 3.0) if tilted else v)

    return _finite(_compose(spec, gen, n, uniform_layer))


def _uniform_two_piece_normal(gamma: float, lam: float, gen, n: int) -> np.ndarray:
    """n draws of the two-piece normal with scale lambda^(-1/2) as a uniform scale mixture.

    Conditional on U ~ Gamma(3/2, rate 1/2) the draw is uniform on
    (0, a*gamma) with probability gamma^2/(1+gamma^2) and uniform on
    (-a/gamma, 0) otherwise, where a = sqrt(u/lambda).
    """
    u = gen.chisquare(3, n)  # Gamma(3/2, rate 1/2)
    with np.errstate(over="ignore"):
        x = _two_piece_signs(gamma, np.sqrt(u / lam), False, gen) * gen.random(n)
    return _finite(x)


def _gen_gamma(p: float, q: float, gen, n: int) -> np.ndarray:
    """n generalized-gamma draws: S with density p/(2 Gamma(q)) s^(pq/2 - 1)
    exp(-s^(p/2)), as S = Y^(2/p), Y ~ Gamma(q, 1)."""
    with np.errstate(over="ignore"):
        return _finite(gen.gamma(q, 1.0, n) ** (2.0 / p))


def _uniform_gg_draws(spec: DistributionSpec, gen, n: int) -> np.ndarray:
    """n draws of a generalized-t member, the Student-t included, through the
    uniform layer under the exponential power: delta (q h / Y)^(1/p) w, with Y
    drawn as `GenTBase.sample_abs` draws it and, for r = 1 (3 when
    x^2-weighted), h ~ Gamma(1 + r/p, 1) and w = v (v^(1/3) when weighted),
    v uniform."""
    p, q, delta = spec.base.p, spec.base.q, spec.base.delta

    def uniform_layer(k, tilted):
        log_y = _log_gamma_draws(q - 2.0 / p if tilted else q, gen, k)
        r = 3.0 if tilted else 1.0
        h, v = gen.gamma(1.0 + r / p, 1.0, k), gen.random(k)
        w = v ** (1.0 / 3.0) if tilted else v
        with np.errstate(divide="ignore", over="ignore"):
            return delta * np.exp((math.log(q) + np.log(h) - log_y) / p) * w

    return _finite(_compose(spec, gen, n, uniform_layer))


def sample(spec: DistributionSpec, n: int | None, rng):
    """n draws from any family member, on the loc/scale of the spec (one float for n=None).

    ``rng`` is an `RngStream` or a numpy Generator.  Every member draws its
    half-line magnitudes from its base's `sample_abs`.  A draw past the float
    range, before or after the loc/scale, raises NumericError.
    """
    gen, size = _gen(rng), _count(n)
    z = _compose(spec, gen, size, partial(spec.base.sample_abs, gen))
    with np.errstate(over="ignore"):
        x = _finite(spec.loc + spec.scale * z)
    return x if n is not None else float(x[0])
