"""Fitter machinery: precision conditional, block targets, adaptation, chain output."""

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
    mh_block_update,
    posterior_summary,
    run_mcmc,
)
from bimodalskew.oracle import _gamma_mixture, integrate
from bimodalskew.sampling import RngStream, sample

PRIORS = PriorConfig()


def fixture_data(n=200, seed=17):
    return sample(bsn(3.0, 1.5), n, RngStream(seed, 0))


class TestPrecisionConditional:
    @pytest.mark.parametrize("alpha", [0.0, 3.0])
    @pytest.mark.parametrize(
        "x,phi,nu",
        [(0.0, 2.25, 4.0), (1.5, 2.25, 4.0), (-1.5, 2.25, 4.0), (4.0, 0.64, 7.0), (0.3, 1.0, 3.0)],
    )
    def test_mean_matches_quadrature(self, x, phi, nu, alpha):
        # lambda_mean averages (nu + 1) / (nu - 2 + x^2 phi^-+1), the mean of the
        # precision's conditional given x; it must equal E[lambda | x] taken over
        # the oracle's gamma-mixing integrand, where the stretch flips across zero
        f, a, b = _gamma_mixture(x, alpha, math.sqrt(phi), nu)
        mass = integrate(f, a, b, tol=1e-13)
        first = integrate(lambda lam: lam * f(lam), a, b, tol=1e-13)
        assert mass.converged and first.converged
        want = (nu + 1.0) / float(inference._precision_rate(x * x, x >= 0, phi, nu))
        assert first.value / mass.value == pytest.approx(want, rel=1e-12, abs=0.0)


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


class TestShapeBlocks:
    """Each block's target is the family's log likelihood plus the block's prior, up to a constant."""

    GRIDS = {
        "phi": np.linspace(0.3, 6.0, 20),
        "alpha": np.linspace(0.0, 12.0, 20),
        "nu": np.linspace(2.05, 40.0, 20),
        "p": np.linspace(0.6, 5.0, 20),
        "q_tilt": np.linspace(0.2, 10.0, 20),
    }
    PRIORS = {
        "phi": stats.gamma(PRIORS.a_phi, scale=1.0 / PRIORS.b_phi).logpdf,
        "alpha": stats.gamma(PRIORS.a_alpha, scale=1.0 / PRIORS.b_alpha).logpdf,
        "nu": stats.expon(loc=2.0, scale=1.0 / PRIORS.beta_nu).logpdf,
        "p": stats.gamma(2.0, scale=1.0).logpdf,
        "q_tilt": stats.gamma(2.0, scale=2.0).logpdf,
    }
    CASES = {
        "bsn": (bsn(3.0, 1.5), ["phi", "alpha"]),
        "bsstd": (bsstd(3.0, 1.5, 5.0), ["phi", "alpha", "nu"]),
        "bsgt": (bsgt(3.0, 1.5, 1.7, 2.0), ["phi", "alpha", "p", "q_tilt"]),
    }

    @staticmethod
    def spec(model, at):
        gamma = math.sqrt(at["phi"])
        if model == "bsn":
            return bsn(at["alpha"], gamma)
        if model == "bsstd":
            return bsstd(at["alpha"], gamma, at["nu"])
        return bsgt(at["alpha"], gamma, at["p"], at["q_tilt"] + 2.0 / at["p"])

    @pytest.mark.parametrize("model", ["bsn", "bsstd", "bsgt"])
    def test_block_targets_match_family_density(self, monkeypatch, model):
        # each target is read on its grid when the sampler hands it to the
        # update, with every other block at the value the sampler holds then
        from bimodalskew.families import log_pdf

        truth, blocks = self.CASES[model]
        data = sample(truth, 500, RngStream(5, 0))
        s = MetropolisWithinGibbs(data, model=model, rng=RngStream(11, 0), enable_extensions=True)
        spreads = []
        update = inference.mh_block_update

        def checked(value, log_target, *args, **kwargs):
            name = s.blocks[len(spreads) % len(s.blocks)]
            held = dict(s.state)
            assert held[name] == value
            gaps = []
            for v in self.GRIDS[name]:
                family = float(np.sum(log_pdf(self.spec(model, {**held, name: v}), data)))
                gaps.append(log_target(v) - family - self.PRIORS[name](v))
            spreads.append((name, max(gaps) - min(gaps)))
            return update(value, log_target, *args, **kwargs)

        monkeypatch.setattr(inference, "mh_block_update", checked)
        for _ in range(3):
            s.step()
        assert [name for name, _ in spreads] == s.blocks * 3 == blocks * 3
        assert max(spread for _, spread in spreads) < 1e-9, spreads

    def test_nu_target_has_no_mass_at_or_below_two(self, monkeypatch):
        # nu's random walk runs on log(nu - 2); its target itself must also
        # vanish where the Student-t base has no variance
        s = MetropolisWithinGibbs(fixture_data(50), model="bsstd", rng=RngStream(11, 1))
        s.step()
        held, floors = dict(s.state), []

        def read(value, log_target, scale, rng, *, floor, adapt_rate):
            if floor == 2.0:
                assert log_target(2.0) == log_target(1.5) == -np.inf
                assert math.isfinite(log_target(2.0 + 1e-9))
            floors.append(floor)
            return value, False, scale

        monkeypatch.setattr(inference, "mh_block_update", read)
        s.step()
        assert floors == [0.0, -inference._ALPHA_SHIFT, 2.0]
        assert s.state == held


class TestDataPasses:
    """A sweep passes over the data once per proposal: a block's target at the
    value it holds reuses the sum that an earlier read of a target took."""

    class CountingNumpy:
        """numpy as `inference` sees it, counting log1p calls over the whole data."""

        def __init__(self, n, calls):
            self.n, self.calls = n, calls

        def __getattr__(self, name):
            return getattr(np, name)

        def log1p(self, v):
            if np.size(v) == self.n:
                self.calls.append("tilt")
            return np.log1p(v)

    @pytest.mark.parametrize("model,base_passes", [("bsn", 0), ("bsstd", 2), ("bsgt", 3)])
    def test_one_pass_per_proposal(self, monkeypatch, model, base_passes):
        from bimodalskew.bases import GenTBase, StudentTBase

        s = MetropolisWithinGibbs(fixture_data(), model=model, rng=RngStream(4, 0), enable_extensions=True)
        for _ in range(5):  # the first sweep reads every held value afresh
            s.step()
        calls = []
        for cls in (StudentTBase, GenTBase):
            log_pdf = cls.log_pdf
            monkeypatch.setattr(cls, "log_pdf", lambda b, z, f=log_pdf: calls.append("base") or f(b, z))
        monkeypatch.setattr(inference, "np", self.CountingNumpy(s.x.size, calls))
        per_sweep = []
        for _ in range(20):
            calls.clear()
            s.step()
            per_sweep.append((calls.count("base"), calls.count("tilt")))
        assert per_sweep == [(base_passes, 1)] * 20


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
        assert list(s.state) == ["phi", "alpha"]
        assert math.isfinite(s.state["alpha"]) and s.state["alpha"] >= 0.0


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

    def test_lambda_mean_is_the_mean_conditional_precision(self):
        # the precisions are not drawn: lambda_mean averages their conditional
        # mean (nu + 1)/(nu - 2 + x^2 phi^-+1) over the retained phi and nu
        data = sample(bsstd(1.0, 1.5, 5.0), 150, RngStream(15, 0))
        chain = run_mcmc(data, model="bsstd", config=self.CFG, seed=4)[0]
        phi, nu = chain.params["phi"][:, None], chain.params["nu"][:, None]
        stretched = np.where(data >= 0, data * data / phi, data * data * phi)
        want = np.mean((nu + 1.0) / (nu - 2.0 + stretched), axis=0)
        np.testing.assert_allclose(chain.lambda_mean, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("model,blocks", [("bsn", 2), ("bsstd", 3), ("bsgt", 4)])
    def test_a_sweep_draws_one_normal_and_one_uniform_per_block(self, model, blocks):
        s = MetropolisWithinGibbs(fixture_data(), model=model, rng=RngStream(4, 0), enable_extensions=True)
        for _ in range(5):
            s.step()
        gen = RngStream(4, 0).generator
        for _ in range(5 * blocks):
            gen.standard_normal()
            gen.random()
        assert s._gen.random() == gen.random()

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

    # (1e154)^2 is finite, but two of them sum past the range
    FAR = ([2e154], [-1e300], [1e154, -1e154])

    @pytest.mark.parametrize("model", ["bsn"])
    def test_data_whose_squares_overflow_raise(self, model):
        # the normal's closed form needs the sums of x^2; an infinite one
        # used to leave alpha at 1.0 with acceptance 0
        data = fixture_data(50)
        for far in self.FAR:
            with pytest.raises(DomainError, match="squared data overflows"):
                run_mcmc(np.append(data, far), model=model, config=self.CFG, seed=0)

    @pytest.mark.parametrize("model", ["bsstd", "bsgt"])
    def test_heavy_tails_fit_data_whose_squares_overflow(self, model):
        # the tilt sum and the base sums take their log forms where x^2 overflows
        data = fixture_data(50)
        for far in self.FAR:
            chain = run_mcmc(np.append(data, far), model=model, config=self.CFG, seed=0, enable_extensions=True)[0]
            assert all(np.isfinite(draws).all() for draws in chain.params.values()), far
            assert min(chain.accept_rates.values()) > 0.0, (far, chain.accept_rates)

    def test_data_far_from_a_standardized_scale_raise(self):
        # phi follows the far point out until phi^3 overflows, which raised a bare OverflowError
        data = np.append(sample(bsn(3.0, 1.5), 50, RngStream(1, 0)), 1e100)
        with pytest.raises(DomainError, match="standardized scale"):
            run_mcmc(data, model="bsn", config=McmcConfig(2000, 500, 1), seed=1)


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
