"""Exact draws from the bimodal skewed families.

`sample(spec, n, rng)` is the public draw, and `RngStream` wraps a
counter-based bit generator so that (seed, stream) pairs give reproducible,
independent streams.  A draw picks the plain two-piece component with
probability 1/(1 + alpha*b) or the quadratically weighted component with
probability alpha*b/(1 + alpha*b), then draws that component exactly.  No
rejection loops anywhere.

The heavy-tailed families are drawn through their scale-mixture hierarchies.
One point needs care: the quadratic tilt factor (1 + alpha x^2) is shared by
every mixture component, so reweighting by x^2 changes the mixing law itself.
Under the tilt component the mixing variable follows the size-biased version
of its plain density (second moment of the conditional kernel times the plain
density), which stays in the same parametric family:

* generalized-t layer, the Student-t (p = 2, q = nu/2) included: a draw is
  delta (q h / Y)^(1/p) with plain Y ~ Gamma(q, 1); tilted
  Y ~ Gamma(q - 2/p, 1).  S = Y^(2/p) is the generalized-gamma scale of the
  exponential-power conditional.
* uniform layer under the normal: plain U ~ chi-square(3); tilted
  U ~ chi-square(5), and the conditional uniform gains the x^2 weight
  (cube-root inversion).
* uniform layer under the exponential power: plain U ~ Gamma(1 + 1/p, 1);
  tilted U ~ Gamma(1 + 3/p, 1), with the same cube-root inversion.

`sample` draws the normal members from the normal base and every
generalized-t member through its generalized-gamma layer.  The paper's other
representations (the two-piece and x^2-weighted components on their own, the
uniform layers, the generalized gamma) are private helpers that take a numpy
Generator and an exact count; the oracle's ``sampler/`` gates check each of
them against a closed form.  Every draw is checked against the float range.
"""

from __future__ import annotations

import math

import numpy as np

from .bases import GenTBase
from .errors import DomainError, NumericError
from .families import DistributionSpec

__all__ = ["RngStream", "sample"]

# a positive double below 2**-1075 rounds to 0.0
_LOG_UNDERFLOW = -1075.0 * math.log(2.0)


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
    """n draws of the two-piece law on a symmetric base, or with ``tilted`` of
    its x^2-weighted version, which needs the base's closed-form x^2-weighted
    half-line sampler (the normal's)."""
    magnitude = (base.sample_abs_tilted if tilted else base.sample_abs)(gen, n)
    return _finite(_two_piece_signs(gamma, magnitude, tilted, gen))


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


def _gen_t_draws(spec: DistributionSpec, gen, n: int, path: str = "gg") -> np.ndarray:
    """n draws of a generalized-t member, the Student-t included, before the
    float-range check: a draw past it is inf.

    Per component a draw is delta (q h / Y)^(1/p) w, with p, q and delta read
    off the spec's base, Y ~ Gamma(q, 1) (Gamma(q - 2/p, 1), the size-biased
    mixing law, on the x^2-weighted component; q - 2/p > 0 as p*q > 2) and, for
    r = 1 (3 when weighted), h ~ Gamma(r/p, 1) and w = 1 on the ``"gg"`` path,
    or the uniform layer's h ~ Gamma(1 + r/p, 1) and w = v (v^(1/3) when
    weighted), v uniform, on ``"uniform-gg"``.  It is formed in logs, so no
    intermediate overflows.  Near 0, Y ~ Gamma(a, 1) has density proportional
    to y^(a - 1), so given Y < 2^-1075, where it rounds to 0, Y is
    2^-1075 V^(1/a), V uniform; only a component with such a Y draws its V,
    right after its Y.  Near nu = 2 or p*q = 2 the weighted component's
    tail falls so slowly that a share of its draws lie past the float range.
    """
    p, q, delta = spec.base.p, spec.base.q, spec.base.delta
    log_q = math.log(q)

    def gt_layer(k, tilted):
        shape = q - 2.0 / p if tilted else q
        y = gen.gamma(shape, 1.0, k)
        low = y == 0.0
        with np.errstate(divide="ignore"):
            log_y = np.log(y)
        if low.any():
            log_y[low] = _LOG_UNDERFLOW + np.log(gen.random(np.count_nonzero(low))) / shape
        r = 3.0 if tilted else 1.0
        if path == "gg":
            h, w = gen.gamma(r / p, 1.0, k), 1.0
        else:
            # uniform layer: |x| spread below the envelope radius, x^2-weighted when tilted
            h, v = gen.gamma(1.0 + r / p, 1.0, k), gen.random(k)
            w = v ** (1.0 / 3.0) if tilted else v
        with np.errstate(divide="ignore", over="ignore"):
            return delta * np.exp((log_q + np.log(h) - log_y) / p) * w

    return _compose(spec, gen, n, gt_layer)


def sample(spec: DistributionSpec, n: int | None, rng):
    """n draws from any family member, on the loc/scale of the spec (one float for n=None).

    ``rng`` is an `RngStream` or a numpy Generator.  Every generalized-t
    member, the Student-t at p = 2 included, is drawn by `_gen_t_draws`, the
    normal from its base's half-line samplers.  A draw past the float range,
    before or after the loc/scale, raises NumericError.
    """
    gen, size = _gen(rng), _count(n)
    base = spec.base
    if isinstance(base, GenTBase):
        z = _gen_t_draws(spec, gen, size)
    else:
        z = _compose(
            spec, gen, size, lambda k, tilted: (base.sample_abs_tilted if tilted else base.sample_abs)(gen, k)
        )
    with np.errstate(over="ignore"):
        x = _finite(spec.loc + spec.scale * z)
    return x if n is not None else float(x[0])
