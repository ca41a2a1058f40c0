"""Exact samplers: determinism, distributional gates, augmented variables.

Gate style: one-sample Kolmogorov-Smirnov distance against the closed-form
cdf below the asymptotic 1% critical value 1.63/sqrt(n), or a two-sample
test between independent construction routes.
"""

import numpy as np
import pytest
from scipy import stats

from bimodalskew.bases import NormalBase, StudentTBase
from bimodalskew.errors import DomainError
from bimodalskew.families import bsgt, bsn, bsstd, full_moment
from bimodalskew.oracle import ks_distance
from bimodalskew.sampling import (
    RngStream,
    sample,
    sample_bsgt,
    sample_bsn,
    sample_bsstd,
    sample_gen_gamma,
    sample_quadratic_tilt,
    sample_skewed_uniform_normal,
    sample_two_piece,
)

N = 20_000
KS_GATE = 1.63 / np.sqrt(N)


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(7, 3).generator.random(100)
        b = RngStream(7, 3).generator.random(100)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        a = RngStream(7, 0).generator.random(100)
        b = RngStream(7, 1).generator.random(100)
        assert not np.array_equal(a, b)

    def test_samplers_are_reproducible(self):
        x1 = sample_bsn(1.0, 1.5, RngStream(11, 2), size=50)
        x2 = sample_bsn(1.0, 1.5, RngStream(11, 2), size=50)
        np.testing.assert_array_equal(x1, x2)
        d1 = sample_bsgt(1.0, 0.8, 2.3, 2.0, RngStream(11, 4), size=50)
        d2 = sample_bsgt(1.0, 0.8, 2.3, 2.0, RngStream(11, 4), size=50)
        np.testing.assert_array_equal(d1.x, d2.x)
        np.testing.assert_array_equal(d1.s, d2.s)


class TestDistributionGates:
    @pytest.mark.parametrize(
        "spec,stream",
        [
            (bsn(1.0, 1.5), 0),
            (bsn(0.0, 0.8), 1),
            (bsstd(1.0, 1.5, 4.0), 2),
            (bsgt(1.0, 1.5, 1.7, 2.0), 3),
            (bsn(1.0, 1.5, 2.0, 0.5), 4),
        ],
        ids=["bsn", "bsn-flat", "bsstd", "bsgt", "bsn-shifted"],
    )
    def test_dispatcher_matches_cdf(self, spec, stream):
        x = sample(spec, N, RngStream(2026, stream))
        assert ks_distance(x, spec) < KS_GATE

    def test_two_piece_mass_split(self):
        gamma = 2.0
        x = sample_two_piece(gamma, NormalBase(), RngStream(5, 0), size=N)
        prop = float(np.mean(x >= 0))
        want = gamma**2 / (1.0 + gamma**2)
        se = np.sqrt(want * (1.0 - want) / N)
        assert abs(prop - want) < 4.0 * se

    def test_two_piece_student_gate(self):
        x = sample_two_piece(0.8, StudentTBase(5.0), RngStream(5, 1), size=N)
        assert ks_distance(x, bsstd(0.0, 0.8, 5.0)) < KS_GATE

    def test_quadratic_tilt_gate(self):
        # the tilted symmetric law at alpha -> infinity: density x^2 f(x) / m2
        x = sample_quadratic_tilt(1.0, NormalBase(), RngStream(5, 2), size=N)
        d = stats.kstest(x, lambda t: stats.norm.cdf(t) - t * stats.norm.pdf(t)).statistic
        assert d < KS_GATE

    def test_uniform_path_agrees_with_direct(self):
        direct = sample_bsn(1.0, 1.5, RngStream(6, 0), size=N, path="direct")
        via_u = sample_bsn(1.0, 1.5, RngStream(6, 1), size=N, path="uniform")
        assert stats.ks_2samp(direct, via_u).pvalue > 0.01

    def test_gen_gamma_power_is_gamma(self):
        p, q = 1.7, 2.0
        s = sample_gen_gamma(p, q, RngStream(6, 2), size=N)
        assert stats.kstest(s ** (p / 2.0), stats.gamma(q).cdf).statistic < KS_GATE

    def test_gg_and_uniform_paths_agree(self):
        a = sample_bsgt(1.0, 0.8, 2.3, 2.0, RngStream(6, 3), size=N, path="gg").x
        b = sample_bsgt(1.0, 0.8, 2.3, 2.0, RngStream(6, 4), size=N, path="uniform-gg").x
        assert stats.ks_2samp(a, b).pvalue > 0.01

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_sample_moments_match_closed_forms(self, r):
        spec = bsstd(1.0, 1.5, 10.0)
        x = sample(spec, 100_000, RngStream(2027, 0))
        want = full_moment(spec, r)
        se = float(np.std(x**r, ddof=1)) / np.sqrt(x.size)
        assert abs(float(np.mean(x**r)) - want) < 4.0 * se


class TestAugmentedVariables:
    def test_precision_mean_without_tilt(self):
        nu = 4.0
        d = sample_bsstd(0.0, 1.5, nu, RngStream(8, 0), size=100_000)
        se = float(np.std(d.lam, ddof=1)) / np.sqrt(d.lam.size)
        assert abs(float(np.mean(d.lam)) - nu / (nu - 2.0)) < 4.0 * se

    def test_tilt_biases_precision_toward_small_values(self):
        # picking a squared coordinate re-weights the mixing law by its own
        # mean, pulling E(lambda) from nu/(nu-2) down to the two-branch blend
        alpha, gamma, nu = 1.0, 1.5, 4.0
        b = bsstd(alpha, gamma, nu).b
        w = alpha * b / (1.0 + alpha * b)
        want = w * 1.0 + (1.0 - w) * nu / (nu - 2.0)
        d = sample_bsstd(alpha, gamma, nu, RngStream(8, 1), size=100_000)
        se = float(np.std(d.lam, ddof=1)) / np.sqrt(d.lam.size)
        assert abs(float(np.mean(d.lam)) - want) < 4.0 * se

    def test_conditional_scale_bounds_magnitude(self):
        gamma, lam = 2.0, 2.5
        d = sample_skewed_uniform_normal(gamma, lam, RngStream(8, 2), size=50_000)
        radius = np.sqrt(d.u / lam)
        right = d.x >= 0
        assert np.all(d.u > 0)
        assert np.all(d.x[right] <= gamma * radius[right] + 1e-12)
        assert np.all(-d.x[~right] <= radius[~right] / gamma + 1e-12)

    def test_gate_for_uniform_normal_marginal(self):
        # uniform magnitude times a chi-squared(3) radius is half-normal, so
        # the compound must land exactly on the two-piece normal at scale
        # 1/sqrt(lambda)
        gamma, lam = 2.0, 2.5
        d = sample_skewed_uniform_normal(gamma, lam, RngStream(8, 3), size=N)
        assert ks_distance(d.x, bsn(0.0, gamma, 0.0, lam**-0.5)) < KS_GATE

    def test_scalar_draws(self):
        d = sample_bsstd(1.0, 1.5, 4.0, RngStream(9, 0))
        assert isinstance(d.x, float) and isinstance(d.lam, float)
        assert isinstance(sample_bsn(1.0, 1.5, RngStream(9, 1)), float)


class TestValidation:
    def test_unknown_path_rejected(self):
        with pytest.raises(DomainError):
            sample_bsn(1.0, 1.5, RngStream(0), size=5, path="bogus")
        with pytest.raises(DomainError):
            sample_bsgt(1.0, 1.5, 2.3, 2.0, RngStream(0), size=5, path="bogus")

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: sample_bsstd(1.0, 1.0, float("inf"), rng, size=5),
            lambda rng: sample_bsgt(1.0, 1.0, float("nan"), 2.0, rng, size=5),
            lambda rng: sample_gen_gamma(float("nan"), 2.0, rng, size=5),
        ],
        ids=["bsstd-nu-inf", "bsgt-p-nan", "gen-gamma-p-nan"],
    )
    def test_non_finite_tail_parameters_rejected(self, draw):
        with pytest.raises(DomainError):
            draw(RngStream(0))

    def test_bad_sizes_rejected(self):
        with pytest.raises(DomainError):
            sample(bsn(1.0, 1.5), 0, RngStream(0))
        with pytest.raises(DomainError):
            sample(bsn(1.0, 1.5), -3, RngStream(0))
