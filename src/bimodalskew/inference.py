"""Bayesian fitting of the standardized bimodal skewed families.

The skewness is parameterized through phi = gamma^2 with a Gamma(a, b) prior,
the tilt alpha gets a Gamma prior with mass at small values, and for the
Student-t family the degrees of freedom carry a shifted exponential prior
p(nu) = beta * exp(-beta (nu - 2)) on nu > 2.  Each observation of the
Student-t model is augmented with a precision lambda_i whose full conditional
is Gamma((nu+1)/2, rate (nu - 2 + x_i^2 phi^(-sign(x_i)))/2), i.e. an exact
Gibbs step; phi, alpha and nu move by adaptive random-walk Metropolis on log
scales.

Proposal scales adapt by Robbins-Monro (step c/t^0.6 toward a target
acceptance rate) and freeze at the end of burn-in, so the retained draws come
from a fixed-kernel chain.  Data are assumed standardized: location-scale
fitting is out of scope here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .bases import GenTBase, StudentTBase
from .errors import CapabilityError, DomainError
from .families import DistributionSpec, log_pdf
from .sampling import RngStream, _gen

__all__ = [
    "PriorConfig",
    "McmcConfig",
    "AugmentedState",
    "Chain",
    "log_likelihood_bsn",
    "log_likelihood_augmented",
    "log_cond_phi",
    "log_cond_alpha",
    "log_cond_nu",
    "gibbs_update_lambda",
    "mh_block_update",
    "MetropolisWithinGibbs",
    "run_mcmc",
    "effective_sample_size",
    "posterior_summary",
]

_HALF_LOG_2_OVER_PI = 0.5 * math.log(2.0 / math.pi)
# keeps alpha = 0 reachable under the log-scale random walk
_ALPHA_SHIFT = 1e-12
_SCALE_BOUNDS = (1e-4, 1e2)
_INIT_SCALE = 0.5  # starting random-walk scale of every block, on the log scale
# a bsgt sweep builds the base for the current (p, q) at most twice and for
# two proposals once each
_gt_base = functools.lru_cache(maxsize=8)(GenTBase)
# likelihoods a bsgt sampler remembers, most recently used first: each block
# re-reads a current state stored at most three evaluations earlier
_GT_MEMO_SIZE = 4


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
class AugmentedState:
    """Mutable chain state; lam is all-ones for the normal-base model."""

    alpha: float
    phi: float
    nu: float
    lam: np.ndarray


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


# ---------- likelihood and full conditionals ----------


def _b_phi(phi: float) -> float:
    return (1.0 + phi**3) / (phi * (1.0 + phi))


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


def _half_sums(w: np.ndarray, pos: np.ndarray) -> tuple[float, float]:
    """(sum of w over x >= 0, same over x < 0), given the mask pos = x >= 0."""
    return float(w[pos].sum()), float(w[~pos].sum())


def log_likelihood_bsn(data, alpha: float, phi: float) -> float:
    """Exact log likelihood of the bimodal skew normal in (alpha, phi = gamma^2).

    At alpha = 0, phi = 1 this is the standard normal log likelihood.
    """
    return log_likelihood_augmented(data, alpha, phi, np.ones(np.shape(data)))


def log_likelihood_augmented(data, alpha: float, phi: float, lam) -> float:
    """Joint log density of the data given (alpha, phi, lambda_1..n), up to the
    mixing density of lambda itself."""
    x = _check_data(data)
    lam = np.asarray(lam, dtype=float)
    if lam.shape != x.shape:
        raise DomainError("lam must have one entry per observation")
    if alpha < 0 or phi <= 0 or np.any(lam <= 0):
        return -np.inf
    n = x.size
    s_pos, s_neg = _half_sums(lam * x * x, x >= 0)
    return (
        n * _HALF_LOG_2_OVER_PI
        + 0.5 * float(np.sum(np.log(lam)))
        + float(np.sum(np.log1p(alpha * x * x)))
        - n * np.log1p(alpha * _b_phi(phi))
        + 0.5 * n * math.log(phi)
        - n * np.log1p(phi)
        - 0.5 * (s_pos / phi + s_neg * phi)
    )


def _log_prior_alpha(alpha: float, priors: PriorConfig) -> float:
    if alpha < 0:
        return -np.inf
    a, b = priors.a_alpha, priors.b_alpha
    if alpha == 0.0:
        edge = 0.0 if a == 1.0 else (-np.inf if a > 1.0 else np.inf)
    else:
        edge = (a - 1.0) * math.log(alpha)
    return priors._alpha_log_norm + edge - b * alpha


# One kernel per block.  The public log_cond_* and gibbs_update_lambda check
# their data and call these; the sampler calls them directly with the
# per-data-set invariants (x^2, the sign mask) computed once.


def _lc_phi(
    phi: float, alpha: float, n: int, s_pos: float, s_neg: float, priors: PriorConfig
) -> float:
    if phi <= 0:
        return -np.inf
    return (
        -n * np.log1p(alpha * _b_phi(phi))
        + (priors.a_phi + 0.5 * n - 1.0) * math.log(phi)
        - n * np.log1p(phi)
        - 0.5 * (s_pos / phi + s_neg * phi)
        - priors.b_phi * phi
    )


def _lc_alpha(alpha: float, phi: float, xx: np.ndarray, priors: PriorConfig) -> float:
    if alpha < 0:
        return -np.inf
    return (
        -xx.size * np.log1p(alpha * _b_phi(phi))
        + float(np.sum(np.log1p(alpha * xx)))
        + _log_prior_alpha(alpha, priors)
    )


def _nu_penalty(lam: np.ndarray, priors: PriorConfig) -> float:
    """The lambda statistic of the nu conditional, with the prior rate folded in."""
    return priors.beta_nu + 0.5 * float(np.sum(lam - np.log(lam)))


def _nu_kernel(n: int):
    """The nu conditional of n precisions as a function of (nu, penalty)."""
    from scipy.special import gammaln  # loaded once per kernel, not per nu step

    def lc_nu(nu: float, penalty: float) -> float:
        if nu <= 2:
            return -np.inf
        return 0.5 * n * nu * math.log(0.5 * (nu - 2.0)) - n * gammaln(0.5 * nu) - nu * penalty

    return lc_nu


def _draw_lambda(gen, xx: np.ndarray, pos: np.ndarray, phi: float, nu: float) -> np.ndarray:
    rate = 0.5 * (nu - 2.0 + xx * np.where(pos, 1.0 / phi, phi))
    return gen.gamma(0.5 * (nu + 1.0), 1.0 / rate)


def log_cond_phi(phi: float, alpha: float, data, lam, priors: PriorConfig) -> float:
    """Unnormalized log full conditional of phi = gamma^2."""
    x = _check_data(data)
    w = x * x if lam is None else np.asarray(lam, dtype=float) * x * x
    return _lc_phi(phi, alpha, x.size, *_half_sums(w, x >= 0), priors)


def log_cond_alpha(alpha: float, phi: float, data, priors: PriorConfig) -> float:
    """Unnormalized log full conditional of the tilt parameter."""
    x = _check_data(data)
    return _lc_alpha(alpha, phi, x * x, priors)


def log_cond_nu(nu: float, lam, priors: PriorConfig) -> float:
    """Unnormalized log full conditional of the degrees of freedom given lambda."""
    lam = np.asarray(lam, dtype=float)
    return _nu_kernel(lam.size)(nu, _nu_penalty(lam, priors))


def gibbs_update_lambda(data, phi: float, nu: float, rng) -> np.ndarray:
    """Exact draw of the augmented precisions from their Gamma full conditional."""
    x = _check_data(data)
    if phi <= 0:
        raise DomainError(f"need phi > 0, got {phi}")
    StudentTBase(nu)  # validates nu
    return _draw_lambda(_gen(rng), x * x, x >= 0, phi, nu)


# ---------- Metropolis machinery ----------


def mh_block_update(
    value: float,
    log_target,
    scale: float,
    rng,
    *,
    floor: float = 0.0,
    target_accept: float = 0.44,
    adapt_rate: float | None = None,
) -> tuple[float, bool, float]:
    """One random-walk Metropolis update of log(value - floor).

    Always consumes exactly one normal and one uniform variate so parallel
    model variants stay stream-aligned.  Returns (new_value, accepted,
    new_scale); the scale moves by Robbins-Monro toward ``target_accept``
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
        new_scale = math.exp(math.log(scale) + adapt_rate * (accept_prob - target_accept))
        new_scale = min(max(new_scale, _SCALE_BOUNDS[0]), _SCALE_BOUNDS[1])
    return new_value, accepted, new_scale


def _gt_loglik(x: np.ndarray, alpha: float, phi: float, p: float, q_tilt: float) -> float:
    if p <= 0 or q_tilt <= 0:
        return -np.inf
    q = q_tilt + 2.0 / p
    try:
        spec = DistributionSpec(alpha, math.sqrt(phi), _gt_base(p, q))
    except DomainError:
        return -np.inf
    return float(np.sum(log_pdf(spec, x)))


def _default_init(x: np.ndarray, model: str) -> dict[str, float]:
    m2 = float(np.mean(x * x))
    if 0.0 < m2 < 3.0:
        alpha = (m2 - 1.0) / (3.0 - m2)
        alpha = min(max(alpha, 0.05), 10.0) if alpha > 0 else 0.05
    else:
        alpha = 1.0
    n_pos = int(np.sum(x >= 0))
    n_neg = x.size - n_pos
    phi = n_pos / n_neg if n_neg else 10.0
    phi = min(max(phi, 0.1), 10.0)
    init = {"alpha": alpha, "phi": phi}
    if model == "bsstd":
        init["nu"] = 6.0
    if model == "bsgt":
        init.update({"p": 2.0, "q_tilt": 2.0})
    return init


class MetropolisWithinGibbs:
    """Adaptive Metropolis-within-Gibbs sampler for one chain.

    ``model`` is "bsn" (normal base, blocks phi and alpha) or "bsstd"
    (Student-t base, adding the nu block and the exact lambda Gibbs step).
    The experimental "bsgt" model replaces the augmentation with plain
    random-walk Metropolis on the generalized-t likelihood for phi, p and
    q - 2/p (alpha keeps its tilt conditional); it is not part of the
    augmented scheme and must be opted into explicitly.
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
        if model not in ("bsn", "bsstd", "bsgt"):
            raise DomainError(f"unknown model {model!r}")
        if model == "bsgt" and not enable_extensions:
            raise CapabilityError(
                "generalized-t fitting is an extension outside the augmented scheme; "
                "pass enable_extensions=True to opt in"
            )
        self.x = _check_data(data)
        # (alpha, phi, p, q_tilt) -> generalized-t log likelihood of the data
        memo = functools.lru_cache(maxsize=_GT_MEMO_SIZE)
        self._gt_loglik = memo(functools.partial(_gt_loglik, self.x))
        # per-data-set invariants of the block kernels; sign(0) = +1
        self._xx = self.x * self.x
        self._pos = self.x >= 0
        self._xx_sums = _half_sums(self._xx, self._pos)
        self._lc_nu = _nu_kernel(self.x.size)
        self.model = model
        self.priors = priors or PriorConfig()
        self.config = config or McmcConfig()
        self.rng = rng if rng is not None else RngStream(0)
        self._gen = _gen(self.rng)

        defaults = _default_init(self.x, model)
        if init:
            defaults.update(init)
        self.state = AugmentedState(
            alpha=float(defaults["alpha"]),
            phi=float(defaults["phi"]),
            nu=float(defaults.get("nu", 6.0)),
            lam=np.ones_like(self.x),
        )
        self.p = float(defaults.get("p", 2.0))
        self.q_tilt = float(defaults.get("q_tilt", 2.0))

        blocks = ["phi", "alpha"]
        if model == "bsstd":
            blocks += ["nu"]
        if model == "bsgt":
            blocks += ["p", "q_tilt"]
        self.blocks = blocks
        self.scales = {b: _INIT_SCALE for b in blocks}
        self.accept_post = {b: 0 for b in blocks}
        self.accept_total = {b: 0 for b in blocks}
        self.adapt_trace = {b: [(0, _INIT_SCALE)] for b in blocks}
        self._iteration = 0
        self._post_iterations = 0

    def _update_block(self, name: str, log_target, value: float, floor: float, adapt_rate):
        new, accepted, new_scale = mh_block_update(
            value,
            log_target,
            self.scales[name],
            self._gen,
            floor=floor,
            adapt_rate=adapt_rate,
        )
        self.scales[name] = new_scale
        self.accept_total[name] += accepted
        if self._iteration > self.config.burn_in:
            self.accept_post[name] += accepted
        return new

    def step(self, update_nu: bool | None = None, update_lambda: bool | None = None) -> None:
        """One full sweep over the blocks."""
        self._iteration += 1
        t = self._iteration
        if t > self.config.burn_in:
            self._post_iterations += 1
        adapting = t <= self.config.burn_in
        rate = 1.0 / t**0.6 if adapting else None
        st, n, priors = self.state, self.x.size, self.priors

        # lam moves every sweep, so only the unweighted half sums are fixed
        if self.model == "bsstd":
            s_pos, s_neg = _half_sums(st.lam * self.x * self.x, self._pos)
        else:
            s_pos, s_neg = self._xx_sums
        alpha = st.alpha
        if self.model == "bsgt":
            # phi's conditional depends on the base: here the generalized-t likelihood
            def lt_phi(phi: float) -> float:
                loglik = self._gt_loglik(alpha, phi, self.p, self.q_tilt)
                return loglik + _log_gamma(phi, priors.a_phi, priors.b_phi)
        else:
            def lt_phi(phi: float) -> float:
                return _lc_phi(phi, alpha, n, s_pos, s_neg, priors)
        st.phi = self._update_block("phi", lt_phi, st.phi, 0.0, rate)
        phi = st.phi
        # the tilt is the only alpha term of any unit-variance base
        st.alpha = self._update_block(
            "alpha", lambda a: _lc_alpha(a, phi, self._xx, priors), st.alpha, -_ALPHA_SHIFT, rate
        )
        if self.model == "bsgt":
            # likelihood blocks for the non-augmented extension; mild Gamma priors
            def lt_p(p: float) -> float:
                return self._gt_loglik(st.alpha, phi, p, self.q_tilt) + _log_gamma(p, 2.0, 1.0)

            def lt_q(qt: float) -> float:
                return self._gt_loglik(st.alpha, phi, self.p, qt) + _log_gamma(qt, 2.0, 0.5)

            self.p = self._update_block("p", lt_p, self.p, 0.0, rate)
            self.q_tilt = self._update_block("q_tilt", lt_q, self.q_tilt, 0.0, rate)
            if adapting:
                self._record_adapt(t)
            return

        do_nu = (self.model == "bsstd") if update_nu is None else update_nu
        do_lam = (self.model == "bsstd") if update_lambda is None else update_lambda
        if do_nu:
            penalty = _nu_penalty(st.lam, priors)
            st.nu = self._update_block("nu", lambda nu: self._lc_nu(nu, penalty), st.nu, 2.0, rate)
        if do_lam:
            st.lam = _draw_lambda(self._gen, self._xx, self._pos, st.phi, st.nu)
        if adapting:
            self._record_adapt(t)

    def _record_adapt(self, t: int) -> None:
        if t % 100 == 0 or t == self.config.burn_in:
            for b in self.blocks:
                self.adapt_trace[b].append((t, self.scales[b]))

    def run(self) -> Chain:
        cfg = self.config
        keep = range(cfg.burn_in, cfg.iterations, cfg.thin)
        n_keep = len(keep)
        kept = {b: np.empty(n_keep) for b in ("phi", "alpha")}
        if self.model == "bsstd":
            kept["nu"] = np.empty(n_keep)
        if self.model == "bsgt":
            kept["p"] = np.empty(n_keep)
            kept["q"] = np.empty(n_keep)
        lam_sum = np.zeros_like(self.x) if self.model == "bsstd" else None

        k = 0
        for it in range(cfg.iterations):
            self.step()
            if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
                kept["phi"][k] = self.state.phi
                kept["alpha"][k] = self.state.alpha
                if self.model == "bsstd":
                    kept["nu"][k] = self.state.nu
                    lam_sum += self.state.lam
                if self.model == "bsgt":
                    kept["p"][k] = self.p
                    kept["q"][k] = self.q_tilt + 2.0 / self.p
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
