"""Bayesian fitting of the standardized bimodal skewed families.

The skewness is parameterized through phi = gamma^2 with a Gamma(a, b) prior,
the tilt alpha gets a Gamma prior with mass at small values, and for the
Student-t family the degrees of freedom carry a shifted exponential prior
p(nu) = beta * exp(-beta (nu - 2)) on nu > 2.  One sweep serves every model:
phi, then alpha, then each shape block of the base (nu for bsstd, p and
q - 2/p for bsgt), each by adaptive random-walk Metropolis on a log scale.
phi's and the shape blocks' targets take the base's log density summed over
the data as the skewing stretches them; the normal's sum is closed form in
two half sums of x^2.  Each sampler memoizes its two data sums, that base
term and alpha's sum of log1p(alpha x^2), on their arguments: a block's
target at the value it holds reuses the sum that its own proposal or the
previous block's update took, so a sweep passes over the data once per
proposal.

Every log1p of the data follows the bases' one rule, log1p(v) while v is
finite and log(1 + e^(log v)) where it overflows, so bsstd and bsgt fit data
whose squares overflow; bsn, whose closed form needs the sums of x^2, refuses
data whose squares sum past the float range.

The Student-t is a normal scale mixture, but its precisions lambda_i are not
drawn: the chain keeps their posterior means, averaging
E[lambda_i | x, phi, nu] = (nu + 1) / (nu - 2 + x_i^2 phi^(-sign(x_i))) over
the retained sweeps, as outlier scores.

Proposal scales adapt by Robbins-Monro (step c/t^0.6 toward a target
acceptance rate) and freeze at the end of burn-in, so the retained draws come
from a fixed-kernel chain.  Data are assumed standardized: location-scale
fitting is out of scope here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bases import GenTBase, StudentTBase
from .errors import CapabilityError, DomainError
from .sampling import RngStream, _gen

__all__ = [
    "PriorConfig",
    "McmcConfig",
    "Chain",
    "mh_block_update",
    "MetropolisWithinGibbs",
    "run_mcmc",
    "effective_sample_size",
    "posterior_summary",
]

# keeps alpha = 0 reachable under the log-scale random walk
_ALPHA_SHIFT = 1e-12
_SCALE_BOUNDS = (1e-4, 1e2)
_TARGET_ACCEPT = 0.44  # the acceptance rate Robbins-Monro steers each block's scale toward
_INIT_SCALE = 0.5  # starting random-walk scale of every block, on the log scale
# A block reads its target at its proposal and then at the value it holds,
# which the previous block's update read last; so a memo of a sampler's last
# three arguments serves every held value without a second pass.
_memo = functools.lru_cache(maxsize=3)


@dataclass(frozen=True)
class PriorConfig:
    """Hyperparameters; all Gamma distributions are rate-parameterized."""

    a_phi: float = 2.0
    b_phi: float = 0.5
    a_alpha: float = 1.0
    b_alpha: float = 0.1
    beta_nu: float = 0.1

    def __post_init__(self):
        for name in ("a_phi", "b_phi", "a_alpha", "b_alpha", "beta_nu"):
            if not getattr(self, name) > 0:
                raise DomainError(f"prior hyperparameter {name} must be positive")

    @functools.cached_property
    def _alpha_log_norm(self) -> float:
        """Log normalizer a log b - log Gamma(a) of the alpha prior, computed once."""
        from scipy.special import gammaln

        return self.a_alpha * math.log(self.b_alpha) - gammaln(self.a_alpha)


@dataclass(frozen=True)
class McmcConfig:
    iterations: int = 20000
    burn_in: int = 5000
    thin: int = 5
    chains: int = 1

    def __post_init__(self):
        if self.iterations <= 0 or self.burn_in < 0 or self.burn_in >= self.iterations:
            raise DomainError("need 0 <= burn_in < iterations")
        if self.thin < 1:
            raise DomainError("thin must be >= 1")
        if self.chains < 1:
            raise DomainError("chains must be >= 1")


@dataclass
class Chain:
    """Retained draws and diagnostics of one MCMC run."""

    model: str
    params: dict[str, np.ndarray]
    lambda_mean: np.ndarray | None
    accept_rates: dict[str, float]
    adapt_trace: dict[str, list[tuple[int, float]]]
    final_scales: dict[str, float]
    seed: int | None
    stream: int | None
    iterations: int
    burn_in: int
    thin: int
    n_obs: int


# ---------- block targets ----------


def _b_phi(phi: float) -> float:
    try:
        cube = phi**3
    except OverflowError:
        raise DomainError(f"phi = {phi} cubed overflows: the data are far from a standardized scale") from None
    return (1.0 + cube) / (phi * (1.0 + phi))


def _log_gamma(value: float, a: float, b: float) -> float:
    if value <= 0:
        return -np.inf
    return (a - 1.0) * math.log(value) - b * value


def _check_data(data) -> np.ndarray:
    x = np.asarray(data, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("data must be a nonempty one-dimensional array")
    if not np.all(np.isfinite(x)):
        raise DomainError("data must be finite")
    if x.size < 5:
        # the moment-based initializer and a three-parameter fit both need
        # more than a handful of points to mean anything
        raise DomainError(f"need at least 5 observations, got {x.size}")
    return x


def _log_prior_alpha(alpha: float, priors: PriorConfig) -> float:
    if alpha < 0:
        return -np.inf
    a, b = priors.a_alpha, priors.b_alpha
    if alpha == 0.0:
        edge = 0.0 if a == 1.0 else (-np.inf if a > 1.0 else np.inf)
    else:
        edge = (a - 1.0) * math.log(alpha)
    return priors._alpha_log_norm + edge - b * alpha


# One kernel per block.  The sampler calls them with the per-data-set
# invariants (x^2, the sign mask) computed once.


def _lc_phi(phi: float, alpha: float, n: int, base_term, priors: PriorConfig) -> float:
    """phi's conditional: the tilt normalizer, the two-piece and prior terms,
    and ``base_term(phi)``, the base's log density summed over the data as
    the skewing stretches them (up to a constant), the only model-dependent term."""
    if phi <= 0:
        return -np.inf
    return (
        -n * np.log1p(alpha * _b_phi(phi))
        + (priors.a_phi + 0.5 * n - 1.0) * math.log(phi)
        - n * np.log1p(phi)
        + base_term(phi)
        - priors.b_phi * phi
    )


def _lc_alpha(alpha: float, phi: float, n: int, tilt_sum, priors: PriorConfig) -> float:
    """alpha's conditional, given ``tilt_sum(alpha)``, the sum of log1p(alpha x^2) over the data."""
    if alpha < 0:
        return -np.inf
    return -n * np.log1p(alpha * _b_phi(phi)) + tilt_sum(alpha) + _log_prior_alpha(alpha, priors)


# Each model's base, as a constructor from its shape values (None for the
# normal), and its shape blocks in sweep order, each as (initial value, walk
# floor, log prior); a shape block's support lies above its floor.
_MODELS = {
    "bsn": (None, {}),
    "bsstd": (StudentTBase, {"nu": (6.0, 2.0, lambda nu, priors: -priors.beta_nu * nu)}),
    "bsgt": (
        lambda p, q_tilt: GenTBase(p, q_tilt + 2.0 / p),
        {
            "p": (2.0, 0.0, lambda p, priors: _log_gamma(p, 2.0, 1.0)),
            "q_tilt": (2.0, 0.0, lambda q_tilt, priors: _log_gamma(q_tilt, 2.0, 0.5)),
        },
    ),
}


def _precision_rate(xx: np.ndarray, pos: np.ndarray, phi: float, nu: float) -> np.ndarray:
    """nu - 2 + x^2 phi^(-sign(x)), twice the rate of the precisions' Gamma
    full conditional, whose shape is (nu + 1)/2."""
    return nu - 2.0 + xx * np.where(pos, 1.0 / phi, phi)


# ---------- Metropolis machinery ----------


def mh_block_update(
    value: float,
    log_target,
    scale: float,
    rng,
    *,
    floor: float = 0.0,
    adapt_rate: float | None = None,
) -> tuple[float, bool, float]:
    """One random-walk Metropolis update of log(value - floor).

    Always consumes exactly one normal and one uniform variate so parallel
    model variants stay stream-aligned.  Returns (new_value, accepted,
    new_scale); the scale moves by Robbins-Monro toward ``_TARGET_ACCEPT``
    when ``adapt_rate`` is given and is returned unchanged otherwise.
    """
    gen = _gen(rng)
    theta = math.log(value - floor)
    theta_prop = theta + scale * gen.standard_normal()
    prop = floor + math.exp(theta_prop)
    lp_prop = log_target(prop)
    if lp_prop == -np.inf:
        log_ratio = -np.inf
    else:
        log_ratio = lp_prop - log_target(value) + (theta_prop - theta)
    accept_prob = 1.0 if log_ratio >= 0 else math.exp(log_ratio)
    u = gen.random()
    accepted = bool(u < accept_prob)
    new_value = prop if accepted else value
    new_scale = scale
    if adapt_rate is not None:
        new_scale = math.exp(math.log(scale) + adapt_rate * (accept_prob - _TARGET_ACCEPT))
        new_scale = min(max(new_scale, _SCALE_BOUNDS[0]), _SCALE_BOUNDS[1])
    return new_value, accepted, new_scale


def _default_init(xx: np.ndarray, pos: np.ndarray) -> dict[str, float]:
    m2 = float(np.mean(xx))
    if 0.0 < m2 < 3.0:
        alpha = (m2 - 1.0) / (3.0 - m2)
        alpha = min(max(alpha, 0.05), 10.0) if alpha > 0 else 0.05
    else:
        alpha = 1.0
    n_pos = int(np.sum(pos))
    n_neg = xx.size - n_pos
    phi = n_pos / n_neg if n_neg else 10.0
    phi = min(max(phi, 0.1), 10.0)
    return {"alpha": alpha, "phi": phi}


class MetropolisWithinGibbs:
    """Adaptive Metropolis-within-Gibbs sampler for one chain.

    ``model`` is "bsn" (normal base, blocks phi and alpha), "bsstd"
    (Student-t base, adding nu under its shifted exponential prior) or the
    experimental "bsgt" (generalized-t base, adding p and q - 2/p under
    Gamma(2, 1) and Gamma(2, 0.5) priors).  Each sweep moves phi, then alpha,
    then the base's shape blocks on the base term at the stretched data;
    ``state`` holds the current value of every block.  "bsgt" must be opted
    into explicitly, because its p and q blocks trade tail weight and mix
    slowly.  An initial value that is not finite or lies outside its block's
    support raises `DomainError`.
    """

    def __init__(
        self,
        data,
        model: str = "bsn",
        priors: PriorConfig | None = None,
        config: McmcConfig | None = None,
        rng=None,
        init: dict[str, float] | None = None,
        enable_extensions: bool = False,
    ):
        if model not in _MODELS:
            raise DomainError(f"unknown model {model!r}")
        if model == "bsgt" and not enable_extensions:
            raise CapabilityError(
                "generalized-t fitting is an extension whose p and q blocks mix slowly "
                "(min ESS about 200 at default length); opt in with enable_extensions=True, "
                "or --enable-extensions on the command line"
            )
        self.x = x = _check_data(data)
        # per-data-set invariants of the block kernels; sign(0) = +1, and x^2 is inf where it overflows
        self._pos = pos = x >= 0
        with np.errstate(over="ignore"):
            self._xx = xx = x * x
            guess = _default_init(xx, pos)
        base, self._shapes = _MODELS[model]
        if base is None:  # closed form in the sums of x^2 over x >= 0 and over x < 0
            with np.errstate(over="ignore"):
                s_pos, s_neg = float(xx[pos].sum()), float(xx[~pos].sum())
            if not math.isfinite(s_pos + s_neg):  # which would leave a silently stuck chain
                raise DomainError("the sum of the squared data overflows (|x| beyond about 1.3e154)")
            self._base_sum = lambda phi: -0.5 * (s_pos / phi + s_neg * phi)
        else:
            # the generalized-t's constructor costs a sweep about a tenth of its time
            base = _memo(base)

            def base_sum(phi: float, *shape: float) -> float:
                gamma = math.sqrt(phi)  # the base sees x / gamma for x >= 0, x gamma below
                try:
                    return float(np.sum(base(*shape).log_pdf(np.where(pos, x / gamma, x * gamma))))
                except DomainError:  # a variance beyond the float range
                    return -np.inf

            self._base_sum = _memo(base_sum)
        xx_top = float(xx.max())

        def tilt_sum(alpha: float) -> float:
            if math.isfinite(alpha * xx_top):
                return float(np.sum(np.log1p(alpha * xx)))
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # the sum is 0 at alpha = 0
                t = alpha * xx
                far = np.logaddexp(0.0, np.log(alpha) + 2.0 * np.log(np.abs(x)))  # where t overflows
                return float(np.sum(np.where(np.isfinite(t), np.log1p(t), far)))

        self._tilt_sum = _memo(tilt_sum)
        self.model = model
        self.priors = priors or PriorConfig()
        self.config = config or McmcConfig()
        self.rng = rng if rng is not None else RngStream(0)
        self._gen = _gen(self.rng)

        defaults = guess | {b: start for b, (start, _, _) in self._shapes.items()}
        if init:
            defaults.update(init)
        blocks = ["phi", "alpha", *self._shapes]
        self._floors = {"phi": 0.0, "alpha": -_ALPHA_SHIFT} | {b: f for b, (_, f, _) in self._shapes.items()}
        for b in blocks:  # every support lies above its floor, but alpha's includes 0
            value = float(defaults[b])
            if not (math.isfinite(value) and (value >= 0.0 if b == "alpha" else value > self._floors[b])):
                raise DomainError(f"initial {b} must be finite and in its support, got {value}")
        self.blocks = blocks
        self.state = {b: float(defaults[b]) for b in blocks}
        self.scales = {b: _INIT_SCALE for b in blocks}
        self.accept_post = {b: 0 for b in blocks}
        self.adapt_trace = {b: [(0, _INIT_SCALE)] for b in blocks}
        self._iteration = 0
        self._post_iterations = 0

    def _update_block(self, name: str, log_target, adapt_rate) -> None:
        new, accepted, new_scale = mh_block_update(
            self.state[name],
            log_target,
            self.scales[name],
            self._gen,
            floor=self._floors[name],
            adapt_rate=adapt_rate,
        )
        self.state[name] = new
        self.scales[name] = new_scale
        if self._iteration > self.config.burn_in:
            self.accept_post[name] += accepted

    def step(self) -> None:
        """One full sweep: phi, then alpha, then each shape block of the base."""
        self._iteration += 1
        t = self._iteration
        if t > self.config.burn_in:
            self._post_iterations += 1
        adapting = t <= self.config.burn_in
        rate = 1.0 / t**0.6 if adapting else None
        st, n, priors = self.state, self.x.size, self.priors

        alpha = st["alpha"]
        self._update_block("phi", lambda phi: _lc_phi(phi, alpha, n, self._base_term, priors), rate)
        phi = st["phi"]
        # the tilt is the only alpha term of any unit-variance base
        self._update_block("alpha", lambda a: _lc_alpha(a, phi, n, self._tilt_sum, priors), rate)
        for name, (_, floor, log_prior) in self._shapes.items():
            self._update_block(
                name,
                lambda v: self._base_term(phi, **{name: v}) + log_prior(v, priors) if v > floor else -np.inf,
                rate,
            )
        if adapting:
            self._record_adapt(t)

    def _base_term(self, phi: float, **moved: float) -> float:
        """The base term at phi and the held shape, with any block in ``moved`` at its given value."""
        return self._base_sum(phi, *(moved.get(b, self.state[b]) for b in self._shapes))

    def _record_adapt(self, t: int) -> None:
        if t % 100 == 0 or t == self.config.burn_in:
            for b in self.blocks:
                self.adapt_trace[b].append((t, self.scales[b]))

    def run(self) -> Chain:
        cfg = self.config
        keep = range(cfg.burn_in, cfg.iterations, cfg.thin)
        n_keep = len(keep)
        st = self.state
        # one row per block, with bsgt's q = q_tilt + 2/p kept in place of q_tilt
        kept = {("q" if b == "q_tilt" else b): np.empty(n_keep) for b in self.blocks}
        lam_sum = np.zeros_like(self.x) if self.model == "bsstd" else None

        k = 0
        # far data can overflow the stretched data, their squares or a base's v, which
        # the bases' log forms and a rate of inf take as they are, so numpy need not warn
        with np.errstate(over="ignore"):
            for it in range(cfg.iterations):
                self.step()
                if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
                    for b, row in zip(self.blocks, kept.values()):
                        row[k] = st["q_tilt"] + 2.0 / st["p"] if b == "q_tilt" else st[b]
                    if lam_sum is not None:  # E[lambda | x, phi, nu], averaged
                        lam_sum += (st["nu"] + 1.0) / _precision_rate(self._xx, self._pos, st["phi"], st["nu"])
                    k += 1

        denom = max(self._post_iterations, 1)
        return Chain(
            model=self.model,
            params=kept,
            lambda_mean=None if lam_sum is None else lam_sum / max(k, 1),
            accept_rates={b: self.accept_post[b] / denom for b in self.blocks},
            adapt_trace=self.adapt_trace,
            final_scales=dict(self.scales),
            seed=getattr(self.rng, "seed", None),
            stream=getattr(self.rng, "stream", None),
            iterations=cfg.iterations,
            burn_in=cfg.burn_in,
            thin=cfg.thin,
            n_obs=self.x.size,
        )


def run_mcmc(
    data,
    model: str = "bsn",
    priors: PriorConfig | None = None,
    config: McmcConfig | None = None,
    seed: int = 0,
    init: dict[str, float] | None = None,
    enable_extensions: bool = False,
) -> list[Chain]:
    """Run one or more independent chains; chain c uses RngStream(seed, c).

    Every chain's sampler is built, and its inputs checked, before any runs.
    Two or more chains run through `_workers.map_forked`: on two worker
    processes forked with `os.fork` when two CPUs are usable and the caller
    has one thread, each taking the next chain when it is free and sending
    it back pickled; otherwise one after another.  The chains come back in
    chain order and are the same either way, and the collector's frozen
    state is as the caller left it.
    """
    from ._workers import map_forked

    config = config or McmcConfig()
    samplers = [
        MetropolisWithinGibbs(
            data,
            model=model,
            priors=priors,
            config=config,
            rng=RngStream(seed, c),
            init=init,
            enable_extensions=enable_extensions,
        )
        for c in range(config.chains)
    ]
    return map_forked(MetropolisWithinGibbs.run, samplers)


# ---------- summaries ----------


def effective_sample_size(draws) -> float:
    """ESS from the initial positive sequence of paired autocorrelations.

    A constant chain is reported as fully effective (the estimator is
    undefined there); such chains are flagged upstream.
    """
    x = np.asarray(draws, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    x = x - x.mean()
    var = float(np.mean(x * x))
    if var == 0.0:
        return float(n)
    nfft = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), nfft)[:n].real / n
    rho = acov / acov[0]
    tau = -1.0
    m = 0
    while 2 * m + 1 < n:
        pair = rho[2 * m] + rho[2 * m + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        m += 1
    tau = max(tau, 1e-6)
    return float(n / tau)


def _param_summary(draws: np.ndarray, ess: float) -> dict:
    q = np.quantile(draws, [0.025, 0.25, 0.5, 0.75, 0.975])
    return {
        "mean": float(np.mean(draws)),
        "sd": float(np.std(draws, ddof=1)) if draws.size > 1 else 0.0,
        "median": float(q[2]),
        "ci50": [float(q[1]), float(q[3])],
        "ci95": [float(q[0]), float(q[4])],
        "ess": float(ess),
        "degenerate": bool(np.all(draws == draws[0])),
    }


def posterior_summary(chains: list[Chain]) -> dict:
    """Merge chains into a JSON-ready report of posterior marginals."""
    if not chains:
        raise DomainError("no chains to summarize")
    model = chains[0].model
    names = list(chains[0].params)
    out_params = {}
    for name in names:
        pooled = np.concatenate([c.params[name] for c in chains])
        ess = sum(effective_sample_size(c.params[name]) for c in chains)
        out_params[name] = _param_summary(pooled, ess)
    # gamma = sqrt(phi) is reported alongside for convenience
    pooled_gamma = np.sqrt(np.concatenate([c.params["phi"] for c in chains]))
    ess_gamma = sum(effective_sample_size(np.sqrt(c.params["phi"])) for c in chains)
    out_params["gamma"] = _param_summary(pooled_gamma, ess_gamma)

    acceptance = {
        b: float(np.mean([c.accept_rates[b] for c in chains])) for b in chains[0].accept_rates
    }
    report = {
        "schema": "bimodal-skew/1",
        "model": model,
        "n_chains": len(chains),
        "draws_per_chain": int(chains[0].params["phi"].size),
        "n_obs": chains[0].n_obs,
        "parameters": out_params,
        "acceptance": acceptance,
    }
    if model == "bsstd" and chains[0].lambda_mean is not None:
        lam = np.mean([c.lambda_mean for c in chains], axis=0)
        report["lambda_posterior_mean"] = [float(v) for v in lam]
    return report
