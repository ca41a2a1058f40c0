"""Augmented Gibbs machinery: conditionals, adaptation, chain output."""

import gc
import math
import os

import numpy as np
import pytest
from scipy import stats

from bimodalskew import _workers, inference
from bimodalskew.errors import CapabilityError, DomainError
from bimodalskew.families import bsgt, bsn, bsstd
from bimodalskew.inference import (
    McmcConfig,
    MetropolisWithinGibbs,
    PriorConfig,
    effective_sample_size,
    gibbs_update_lambda,
    log_cond_alpha,
    log_cond_nu,
    log_cond_phi,
    log_likelihood_augmented,
    log_likelihood_bsn,
    mh_block_update,
    posterior_summary,
    run_mcmc,
)
from bimodalskew.sampling import RngStream, sample

PRIORS = PriorConfig()


def fixture_data(n=200, seed=17):
    return sample(bsn(3.0, 1.5), n, RngStream(seed, 0))


class TestLambdaGibbs:
    @pytest.mark.parametrize(
        "x,phi,nu",
        [(0.0, 2.25, 4.0), (1.5, 2.25, 4.0), (-1.5, 2.25, 4.0), (4.0, 0.64, 7.0), (0.3, 1.0, 3.0)],
    )
    def test_matches_conjugate_gamma(self, x, phi, nu):
        # one precision per point: shape (nu+1)/2, rate folds in the squared
        # stretched coordinate, where the stretch factor flips across zero
        m2 = x * x / phi if x >= 0 else x * x * phi
        shape = 0.5 * (nu + 1.0)
        rate = 0.5 * (nu - 2.0 + m2)
        m = 40_000
        lam = gibbs_update_lambda(np.full(m, x), phi, nu, RngStream(21, 0))
        want_mean = shape / rate
        se = math.sqrt(shape / rate**2 / m)
        assert abs(float(np.mean(lam)) - want_mean) < 4.0 * se

    def test_moment_match_second_order(self):
        lam = gibbs_update_lambda(np.full(50_000, 1.0), 1.0, 5.0, RngStream(21, 1))
        shape, rate = 3.0, 2.0
        var = shape / rate**2
        se = math.sqrt(2.0 * var**2 / (lam.size - 1))  # var of the sample variance
        assert abs(float(np.var(lam, ddof=1)) - var) < 5.0 * se


class TestConditionalsAgreeWithJoint:
    """Each block conditional must equal the joint up to a theta-free shift."""

    def test_phi_block(self):
        data = fixture_data()
        rng = RngStream(30, 0).generator
        lam = rng.gamma(2.0, 1.0, size=data.size)
        alpha = 1.3
        phis = rng.uniform(0.3, 6.0, size=100)
        gaps = [
            log_cond_phi(p, alpha, data, lam, PRIORS)
            - log_likelihood_augmented(data, alpha, p, lam)
            - stats.gamma(PRIORS.a_phi, scale=1.0 / PRIORS.b_phi).logpdf(p)
            for p in phis
        ]
        assert max(gaps) - min(gaps) < 1e-10

    def test_alpha_block(self):
        data = fixture_data()
        rng = RngStream(30, 1).generator
        alphas = rng.uniform(0.05, 12.0, size=100)
        gaps = [
            log_cond_alpha(a, 2.0, data, PRIORS)
            - log_likelihood_bsn(data, a, 2.0)
            - stats.gamma(PRIORS.a_alpha, scale=1.0 / PRIORS.b_alpha).logpdf(a)
            for a in alphas
        ]
        assert max(gaps) - min(gaps) < 1e-10

    def test_nu_block(self):
        rng = RngStream(30, 2).generator
        lam = rng.gamma(2.0, 1.0, size=150)
        nus = rng.uniform(2.2, 30.0, size=100)
        gaps = [
            log_cond_nu(nu, lam, PRIORS)
            - float(np.sum(stats.gamma(0.5 * nu, scale=2.0 / (nu - 2.0)).logpdf(lam)))
            + PRIORS.beta_nu * nu
            for nu in nus
        ]
        assert max(gaps) - min(gaps) < 1e-10

    def test_marginal_equals_density_sum(self):
        # the likelihood route must agree with the density the family exposes
        from bimodalskew.families import log_pdf

        data = fixture_data(80)
        for alpha, phi in [(0.0, 1.0), (1.0, 2.25), (4.0, 0.49)]:
            direct = float(np.sum(log_pdf(bsn(alpha, math.sqrt(phi)), data)))
            assert log_likelihood_bsn(data, alpha, phi) == pytest.approx(direct, abs=1e-9)


class TestBlockUpdate:
    def test_preserves_target(self):
        # random-walk invariance on a Gamma(3, 1) target
        lt = stats.gamma(3.0).logpdf
        rng = RngStream(31, 0).generator
        value, draws = 3.0, []
        for _ in range(40_000):
            value, _, _ = mh_block_update(value, lt, 0.8, rng)
            draws.append(value)
        draws = np.asarray(draws[2000:])
        assert abs(float(np.mean(draws)) - 3.0) < 0.15
        assert abs(float(np.var(draws)) - 3.0) < 0.5

    def test_adaptation_targets_acceptance_rate(self):
        # sharply peaked positive target; the walk starts far too wide and
        # the decaying adaptation must settle near the nominal rate
        lt = stats.gamma(1600.0, scale=2.0 / 1600.0).logpdf
        rng = RngStream(31, 1).generator
        value, scale = 2.0, 8.0
        accepted = []
        for t in range(1, 4001):
            value, ok, scale = mh_block_update(value, lt, scale, rng, adapt_rate=1.0 / t**0.6)
            accepted.append(ok)
        assert scale < 1.0
        assert 0.25 < np.mean(accepted[-2000:]) < 0.6

    def test_floor_respected(self):
        lt = stats.gamma(2.0).logpdf
        rng = RngStream(31, 2).generator
        value = 2.5
        for _ in range(2000):
            value, _, _ = mh_block_update(value, lambda v: lt(v - 2.0), 0.5, rng, floor=2.0)
            assert value > 2.0


class TestCollapseToMarginalSampler:
    def test_unit_precisions_reproduce_marginal_walk(self):
        # freezing every precision at 1 and skipping the tail block must give
        # float-identical phi/alpha trajectories to the marginal-model walker
        data = fixture_data(150)
        init = {"phi": 2.0, "alpha": 1.0}
        a = MetropolisWithinGibbs(data, model="bsn", rng=RngStream(33, 0), init=init)
        b = MetropolisWithinGibbs(data, model="bsstd", rng=RngStream(33, 0), init={**init, "nu": 8.0})
        assert np.all(b.state.lam == 1.0)
        for _ in range(200):
            a.step()
            b.step(update_nu=False, update_lambda=False)
            assert b.state.phi == a.state.phi
            assert b.state.alpha == a.state.alpha


class TestGeneralizedTBlocks:
    """Each bsgt block's target is the family's log likelihood plus the block's prior, up to a constant."""

    GRIDS = {
        "phi": np.linspace(0.3, 6.0, 20),
        "alpha": np.linspace(0.0, 12.0, 20),
        "p": np.linspace(0.6, 5.0, 20),
        "q_tilt": np.linspace(0.2, 10.0, 20),
    }
    PRIORS = {
        "phi": stats.gamma(PRIORS.a_phi, scale=1.0 / PRIORS.b_phi).logpdf,
        "alpha": stats.gamma(PRIORS.a_alpha, scale=1.0 / PRIORS.b_alpha).logpdf,
        "p": stats.gamma(2.0, scale=1.0).logpdf,
        "q_tilt": stats.gamma(2.0, scale=2.0).logpdf,
    }

    def test_block_targets_match_family_density(self, monkeypatch):
        # each target is read on its grid when the sampler hands it to the
        # update, with every other block at the value the sampler holds then
        from bimodalskew.families import log_pdf

        data = sample(bsgt(3.0, 1.5, 1.7, 2.0), 500, RngStream(5, 0))
        s = MetropolisWithinGibbs(data, model="bsgt", rng=RngStream(11, 0), enable_extensions=True)
        spreads = []
        update = inference.mh_block_update

        def checked(value, log_target, *args, **kwargs):
            name = s.blocks[len(spreads) % len(s.blocks)]
            held = {"alpha": s.state.alpha, "phi": s.state.phi, "p": s.p, "q_tilt": s.q_tilt}
            assert held[name] == value
            gaps = []
            for v in self.GRIDS[name]:
                at = {**held, name: v}
                spec = bsgt(at["alpha"], math.sqrt(at["phi"]), at["p"], at["q_tilt"] + 2.0 / at["p"])
                family = float(np.sum(log_pdf(spec, data))) + self.PRIORS[name](v)
                gaps.append(log_target(v) - family)
            spreads.append((name, max(gaps) - min(gaps)))
            return update(value, log_target, *args, **kwargs)

        monkeypatch.setattr(inference, "mh_block_update", checked)
        for _ in range(3):
            s.step()
        assert [name for name, _ in spreads] == s.blocks * 3 == ["phi", "alpha", "p", "q_tilt"] * 3
        assert max(spread for _, spread in spreads) < 1e-9, spreads


class TestInitialValues:
    """An initial value that is not finite or lies outside its block's support raises."""

    @pytest.mark.parametrize(
        "model,init",
        [
            ("bsn", {"phi": float("nan")}),
            ("bsstd", {"phi": float("nan")}),
            ("bsn", {"phi": -1.0}),
            ("bsstd", {"phi": -1.0}),
            ("bsn", {"alpha": -0.5}),
            ("bsstd", {"alpha": -0.5}),
            ("bsstd", {"nu": 1.5}),
            ("bsgt", {"q_tilt": -1.0}),
            ("bsn", {"alpha": float("inf")}),
            ("bsstd", {"nu": 2.0}),
            ("bsgt", {"p": 0.0}),
            ("bsgt", {"p": float("nan")}),
        ],
    )
    def test_rejected(self, model, init):
        with pytest.raises(DomainError, match="initial"):
            run_mcmc(fixture_data(), model=model, config=TestRunMcmc.CFG, init=init, enable_extensions=True)

    def test_support_edges(self):
        # alpha may start at 0, the edge of its support; a block the model lacks is not checked
        s = MetropolisWithinGibbs(fixture_data(), model="bsn", init={"alpha": 0.0, "nu": float("nan")})
        s.step()
        assert math.isfinite(s.state.alpha) and s.state.alpha >= 0.0


class TestEffectiveSampleSize:
    def test_independent_draws(self):
        x = RngStream(34, 0).generator.normal(size=4000)
        ess = effective_sample_size(x)
        assert 3000 < ess <= 4000 * 1.05

    def test_constant_series(self):
        assert effective_sample_size(np.full(500, 2.0)) == 500.0

    def test_autocorrelated_draws(self):
        rho, n = 0.9, 60_000
        gen = RngStream(34, 1).generator
        eps = gen.normal(size=n)
        x = np.empty(n)
        x[0] = eps[0]
        for i in range(1, n):
            x[i] = rho * x[i - 1] + math.sqrt(1 - rho * rho) * eps[i]
        want = n * (1 - rho) / (1 + rho)
        ess = effective_sample_size(x)
        assert want / 1.7 < ess < want * 1.7


class TestRunMcmc:
    CFG = McmcConfig(iterations=2000, burn_in=500, thin=2)

    def test_seed_determinism(self):
        data = fixture_data()
        a = run_mcmc(data, model="bsn", config=self.CFG, seed=5)[0]
        b = run_mcmc(data, model="bsn", config=self.CFG, seed=5)[0]
        for key in a.params:
            np.testing.assert_array_equal(a.params[key], b.params[key])
        c = run_mcmc(data, model="bsn", config=self.CFG, seed=6)[0]
        assert not np.array_equal(a.params["phi"], c.params["phi"])

    def test_chains_use_distinct_streams(self):
        data = fixture_data()
        chains = run_mcmc(data, model="bsn", config=McmcConfig(iterations=800, burn_in=200, thin=2, chains=2), seed=5)
        assert [c.stream for c in chains] == [0, 1]
        assert not np.array_equal(chains[0].params["phi"], chains[1].params["phi"])

    def test_posterior_contracts_with_sample_size(self):
        big = sample(bsn(3.0, 1.5), 1800, RngStream(13, 0))
        cfg = McmcConfig(iterations=10_000, burn_in=2500, thin=5)
        sd_small = posterior_summary(run_mcmc(big[:200], model="bsn", config=cfg, seed=2))["parameters"]["phi"]["sd"]
        sd_big = posterior_summary(run_mcmc(big, model="bsn", config=cfg, seed=2))["parameters"]["phi"]["sd"]
        # a nine-fold data increase should shrink the sd about three-fold
        assert 2.2 < sd_small / sd_big < 4.5

    def test_point_estimates_near_truth(self):
        data = sample(bsn(3.0, 1.5), 4000, RngStream(14, 0))
        summ = posterior_summary(run_mcmc(data, model="bsn", config=McmcConfig(iterations=10_000, burn_in=2500, thin=5), seed=3))
        assert abs(summ["parameters"]["phi"]["mean"] - 2.25) / 2.25 < 0.10
        assert abs(summ["parameters"]["alpha"]["mean"] - 3.0) / 3.0 < 0.10

    def test_summary_shape(self):
        data = sample(bsstd(1.0, 1.5, 5.0), 150, RngStream(15, 0))
        chains = run_mcmc(data, model="bsstd", config=self.CFG, seed=4)
        summ = posterior_summary(chains)
        assert summ["schema"] == "bimodal-skew/1"
        assert summ["model"] == "bsstd"
        assert set(summ["parameters"]) >= {"phi", "alpha", "nu", "gamma"}
        for entry in summ["parameters"].values():
            lo95, hi95 = entry["ci95"]
            lo50, hi50 = entry["ci50"]
            assert lo95 <= lo50 <= entry["median"] <= hi50 <= hi95
            assert entry["sd"] >= 0.0 and entry["ess"] > 0.0
        assert len(summ["lambda_posterior_mean"]) == 150
        assert all(0.0 < r < 1.0 for r in summ["acceptance"].values())
        g = summ["parameters"]["gamma"]["mean"]
        draws = np.concatenate([np.sqrt(c.params["phi"]) for c in chains])
        assert g == pytest.approx(float(np.mean(draws)), rel=1e-12)

    def test_generalized_t_fit_recovers_skewness(self):
        # phi's conditional depends on the base; the normal-base one drove
        # the posterior mean of phi to about 49 on these data
        data = sample(bsgt(3.0, 1.5, 1.7, 2.0), 1000, RngStream(5, 0))
        cfg = McmcConfig(iterations=2000, burn_in=500, thin=1)
        chains = run_mcmc(data, model="bsgt", config=cfg, seed=1, enable_extensions=True)
        phi = posterior_summary(chains)["parameters"]["phi"]["mean"]
        assert abs(phi - 2.25) / 2.25 < 0.15

    def test_tail_parameter_fitting_is_gated(self):
        data = fixture_data(100)
        with pytest.raises(CapabilityError):
            run_mcmc(data, model="bsgt", config=self.CFG, seed=0)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            McmcConfig(iterations=100, burn_in=100)
        with pytest.raises(DomainError):
            McmcConfig(thin=0)
        with pytest.raises(DomainError):
            PriorConfig(a_phi=0.0)
        with pytest.raises(DomainError):
            run_mcmc(np.array([1.0]), model="bsn", config=self.CFG)  # too few points
        with pytest.raises(DomainError):
            run_mcmc(np.array([np.nan, 1.0, 2.0, -1.0]), model="bsn", config=self.CFG)

    @pytest.mark.parametrize("model", ["bsn", "bsstd", "bsgt"])
    def test_data_whose_squares_overflow_raise(self, model):
        # an infinite sum of x^2 used to leave alpha at 1.0 and nu at 6.0 with
        # acceptance 0; (1e154)^2 is finite, but two of them sum past the range
        data = fixture_data(50)
        for far in ([2e154], [-1e300], [1e154, -1e154]):
            with pytest.raises(DomainError, match="squared data overflows"):
                run_mcmc(np.append(data, far), model=model, config=self.CFG, seed=0, enable_extensions=True)


class TestForkedChains:
    """Two or more chains run on two forked workers, the same as one after another."""

    CFG = McmcConfig(iterations=800, burn_in=200, thin=2, chains=2)

    @pytest.fixture
    def forks(self, monkeypatch):
        """One entry per `os.fork` call run_mcmc makes: two per forked map."""
        calls = []
        real = os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append("fork") or real())
        return calls

    @staticmethod
    def run(monkeypatch, cpus, model, seed):
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
        data = sample(bsstd(1.0, 1.5, 5.0), 150, RngStream(15, 0))
        return run_mcmc(data, model=model, config=TestForkedChains.CFG, seed=seed)

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("model", ["bsn", "bsstd"])
    def test_forked_chains_equal_serial(self, monkeypatch, forks, model, seed):
        forked = self.run(monkeypatch, 2, model, seed)
        assert forks == ["fork"] * 2
        assert gc.get_freeze_count() == 0
        serial = self.run(monkeypatch, 1, model, seed)
        assert forks == ["fork"] * 2
        assert [c.stream for c in forked] == [0, 1]
        for f, s in zip(forked, serial, strict=True):
            assert list(f.params) == list(s.params)
            for name in f.params:
                assert f.params[name].tobytes() == s.params[name].tobytes()
            if model == "bsstd":
                assert f.lambda_mean.tobytes() == s.lambda_mean.tobytes()
            assert (f.accept_rates, f.adapt_trace, f.final_scales) == (
                s.accept_rates, s.adapt_trace, s.final_scales
            )
        merged = posterior_summary(forked)
        assert merged == posterior_summary(serial)
        assert ("lambda_posterior_mean" in merged) == (model == "bsstd")

    def test_one_chain_runs_in_process(self, monkeypatch, forks):
        cfg = McmcConfig(iterations=300, burn_in=100, thin=2)
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
        assert len(run_mcmc(fixture_data(), model="bsn", config=cfg, seed=1)) == 1
        assert forks == []

    def test_inputs_are_checked_before_any_fork(self, monkeypatch, forks):
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
        with pytest.raises(CapabilityError):
            run_mcmc(fixture_data(100), model="bsgt", config=self.CFG, seed=0)
        with pytest.raises(DomainError):
            run_mcmc(np.array([np.nan, 1.0, 2.0, -1.0]), model="bsn", config=self.CFG)
        assert forks == []
