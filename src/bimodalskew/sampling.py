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

import math
from dataclasses import astuple, dataclass

import numpy as np

from .bases import GenTBase, NormalBase, StudentTBase, _check_shape
from .errors import CapabilityError, DomainError, NumericError
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


@dataclass(frozen=True)
class AugmentedDraw:
    """A draw together with the mixing variables of the hierarchy that produced it."""

    x: np.ndarray
    lam: np.ndarray | None = None
    u: np.ndarray | None = None
    s: np.ndarray | None = None


def _count(size) -> int:
    """Number of draws for a ``size`` argument; None means one scalar draw."""
    if size is None:
        return 1
    if isinstance(size, bool) or not isinstance(size, (int, np.integer)) or size < 1:
        raise DomainError(f"sample size must be a positive integer or None, got {size!r}")
    return int(size)


def _out(values, size):
    """The draws as arrays, or for ``size=None`` each one's single entry as a float."""
    if size is not None:
        return values
    if isinstance(values, AugmentedDraw):
        return AugmentedDraw(*(None if v is None else float(v[0]) for v in astuple(values)))
    return float(values[0])


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


def _finish_heavy_tail(x, latent, tilt, exponents, gen) -> np.ndarray:
    """The heavy-tailed draws ``x``, those built with 1.0 for a latent that
    underflowed to 0.0 rescaled by latent**-0.5 in logs.

    Near 0 a latent L = (c*G)**e, G ~ Gamma(a), has density proportional to
    l**(a/e - 1), so given L < 2**-1075 it is 2**-1075 * V**(e/a), V uniform;
    ``exponents`` holds e/a of the (plain, tilted) components.  Only calls
    that hit an underflow draw these uniforms, after all the others.  A draw
    that lies past the float range raises NumericError, which names how many
    do: near nu = 2 or p*q = 2 the x^2-weighted component's tail falls so
    slowly that a share of its draws can.
    """
    low = latent == 0.0
    if low.any():
        e = np.where(tilt[low], exponents[1], exponents[0])
        log_latent = _LOG_UNDERFLOW + e * np.log(gen.random(e.size))
        with np.errstate(divide="ignore", over="ignore"):
            x[low] = np.copysign(np.exp(np.log(np.abs(x[low])) - 0.5 * log_latent), x[low])
    return _finite(x)


def _finite(x):
    """The draws ``x``, or NumericError naming how many lie past the float range."""
    beyond = np.size(x) - np.count_nonzero(np.isfinite(x))
    if beyond:
        raise NumericError(f"{beyond} of {np.size(x)} draws lie past the float range")
    return x


def _compose(alpha: float, gamma: float, b: float, gen, n: int, magnitudes):
    """n draws of a family member and the mask of those from its x^2-weighted component.

    A draw is the plain two-piece law with probability 1/(1 + alpha*b) and
    its x^2-weighted version otherwise.  ``magnitudes(k, mask, tilted)``
    draws the k half-line magnitudes of one component, filling any latent
    arrays at ``mask``; each component draws its latents, then its
    magnitudes, then its sign uniforms.
    """
    tilt = gen.random(n) < alpha * b / (1.0 + alpha * b)
    x = np.empty(n)
    for tilted, mask in ((False, ~tilt), (True, tilt)):
        x[mask] = _two_piece_signs(gamma, magnitudes(int(mask.sum()), mask, tilted), tilted, gen)
    return x, tilt


def sample_two_piece(gamma: float, base, rng, size: int | None = None):
    """Draw from the two-piece skewed version of a symmetric base density."""
    two_piece_second_moment(gamma)  # validates gamma
    gen = _gen(rng)
    n = _count(size)
    return _out(_two_piece_signs(gamma, base.sample_abs(gen, n), False, gen), size)


def sample_quadratic_tilt(gamma: float, base, rng, size: int | None = None):
    """Draw from the density proportional to x^2 times the two-piece density.

    Only bases with a closed-form x^2-weighted half-line sampler support this
    (the normal); others raise CapabilityError.
    """
    two_piece_second_moment(gamma)
    if not hasattr(base, "sample_abs_tilted"):
        raise CapabilityError(
            f"{type(base).__name__} has no closed-form sampler for its z^2-weighted half "
            "density; draw the family through its scale-mixture hierarchy instead"
        )
    gen = _gen(rng)
    n = _count(size)
    return _out(_two_piece_signs(gamma, base.sample_abs_tilted(gen, n), True, gen), size)


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
    n = _count(size)

    def uniform_layer(k, mask, tilted):
        radius = np.sqrt(gen.chisquare(5 if tilted else 3, k))
        v = gen.random(k)
        return radius * (v ** (1.0 / 3.0) if tilted else v)

    def direct_layer(k, mask, tilted):
        return (spec.base.sample_abs_tilted if tilted else spec.base.sample_abs)(gen, k)

    magnitudes = uniform_layer if path == "uniform" else direct_layer
    return _out(_compose(alpha, gamma, spec.b, gen, n, magnitudes)[0], size)


def sample_bsstd(alpha: float, gamma: float, nu: float, rng, size: int | None = None) -> AugmentedDraw:
    """Draw from the bimodal skewed standardized Student-t via its gamma mixture.

    Returns the precision-like mixing variable lambda alongside x; the joint
    law of (x, lambda) is the normal scale mixture, under which lambda given x
    is Gamma((nu + 1)/2, rate (nu - 2 + x^2 phi^(-sign(x)))/2), phi = gamma^2.
    """
    spec = bsstd(alpha, gamma, nu)  # validates
    gen = _gen(rng)
    n = _count(size)
    base, rate = NormalBase(), 0.5 * (nu - 2.0)
    lam = np.empty(n)

    def normal_layer(k, mask, tilted):
        # size-biased mixing law for the x^2-weighted component
        lam[mask] = gen.gamma(0.5 * nu - 1.0 if tilted else 0.5 * nu, 1.0 / rate, k)
        return (base.sample_abs_tilted if tilted else base.sample_abs)(gen, k)

    x, tilt = _compose(alpha, gamma, spec.b, gen, n, normal_layer)
    # near nu = 2 the tilted lam can underflow; 1.0 stands in for it until restored
    x = x / np.sqrt(np.where(lam > 0.0, lam, 1.0))
    x = _finish_heavy_tail(x, lam, tilt, (2.0 / nu, 2.0 / (nu - 2.0)), gen)
    return _out(AugmentedDraw(x=x, lam=lam), size)


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
    n = _count(size)
    u = gen.chisquare(3, n)  # Gamma(3/2, rate 1/2)
    x = _two_piece_signs(gamma, np.sqrt(u / lam), False, gen) * gen.random(n)
    return _out(AugmentedDraw(x=x, u=u), size)


def sample_gen_gamma(p: float, q: float, rng, size: int | None = None):
    """Draw S with density p/(2 Gamma(q)) s^(pq/2 - 1) exp(-s^(p/2)), via S = Y^(2/p), Y ~ Gamma(q, 1)."""
    _check_shape(p, q)
    gen = _gen(rng)
    n = _count(size)
    return _out(gen.gamma(q, 1.0, n) ** (2.0 / p), size)


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
    exponential-power conditional.  Both are exact.  The returned ``s`` is
    inf where S = Y^(2/p) passes the float range; those draws, and every
    draw once (q/2)^(1/p) does, are built without S.
    """
    if path not in ("gg", "uniform-gg"):
        raise DomainError(f"path must be 'gg' or 'uniform-gg', got {path!r}")
    spec = bsgt(alpha, gamma, p, q)  # validates
    gen = _gen(rng)
    n = _count(size)
    s = np.empty(n)
    u_out = np.empty(n) if path == "uniform-gg" else None
    delta = spec.base.delta
    try:
        kernel = (0.5 * q) ** (1.0 / p) * delta
    except OverflowError:  # every draw takes the ratio form
        kernel = math.inf

    def gt_layer(k, mask, tilted):
        # size-biased mixing law for the x^2-weighted component; q - 2/p > 0 as p*q > 2
        y = gen.gamma(q - 2.0 / p if tilted else q, 1.0, k)
        with np.errstate(over="ignore"):
            s[mask] = s_k = y ** (2.0 / p)
        # exponential-power kernel scale that makes the S-mixture a unit-variance
        # generalized-t; 1.0 stands in for an s that underflowed near p*q = 2
        # (restored later) and where s or the kernel overflowed (ratio form below)
        far = (s_k == np.inf) | (kernel == math.inf)
        held = (s_k > 0.0) & ~far
        scale = (1.0 if kernel == math.inf else kernel) / np.sqrt(np.where(held, s_k, 1.0))
        r = 3.0 if tilted else 1.0
        if path == "gg":
            g = gen.gamma(r / p, 2.0, k)
            x = scale * g ** (1.0 / p)
            h, w = 0.5 * g[far], 1.0
        else:
            # uniform layer: |x| spread below the envelope radius, x^2-weighted when tilted
            u_out[mask] = u = gen.gamma(1.0 + r / p, 1.0, k)
            v = gen.random(k)
            w = v ** (1.0 / 3.0) if tilted else v
            x = 2.0 ** (1.0 / p) * scale * u ** (1.0 / p) * w
            h, w = u[far], w[far]
        # the ratio form delta (q h / Y)^(1/p), as GenTBase.sample_abs draws it,
        # forms neither s nor (q/2)^(1/p)
        x[far] = delta * ((q / y[far]) * h) ** (1.0 / p) * w
        return x

    x, tilt = _compose(alpha, gamma, spec.b, gen, n, gt_layer)
    x = _finish_heavy_tail(x, s, tilt, (2.0 / (p * q), 2.0 / (p * q - 2.0)), gen)
    return _out(AugmentedDraw(x=x, s=s, u=u_out), size)


def sample(spec: DistributionSpec, n: int | None, rng):
    """n draws from any family member, on the loc/scale of the spec (one float for n=None).

    A draw past the float range, before or after the loc/scale, raises NumericError.
    """
    alpha, gamma, base = spec.alpha, spec.gamma, spec.base
    if isinstance(base, StudentTBase):  # a GenTBase too, so it is tested first
        z = sample_bsstd(alpha, gamma, base.nu, rng, n).x
    elif isinstance(base, GenTBase):
        z = sample_bsgt(alpha, gamma, base.p, base.q, rng, n).x
    else:
        z = sample_bsn(alpha, gamma, rng, n)
    with np.errstate(over="ignore"):
        return _finite(spec.loc + spec.scale * z)
