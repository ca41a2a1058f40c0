"""Exact draws: determinism, distributional gates, the heavy-tail draw's reduction and range.

`sample` is the public draw; the other hierarchies are the private helpers
that the oracle's sampler gates check, and they are tested here the same way.

Gate style: one-sample Kolmogorov-Smirnov distance against the closed-form
cdf below the asymptotic 1% critical value 1.63/sqrt(n), or a two-sample
test between independent construction routes.
"""

import math
import warnings
from functools import partial

import numpy as np
import pytest
from scipy import stats

from bimodalskew.bases import GenTBase, NormalBase, StudentTBase
from bimodalskew.errors import DomainError, NumericError
from bimodalskew.families import DistributionSpec, bsgt, bsn, bsstd, full_moment
from bimodalskew.oracle import _quadratic_tilt_cdf, ks_distance
from bimodalskew.sampling import (
    RngStream,
    _compose,
    _gen_gamma,
    _two_piece,
    _uniform_gg_draws,
    _uniform_normal_draws,
    _uniform_two_piece_normal,
    sample,
)

N = 20_000
KS_GATE = 1.63 / np.sqrt(N)


def uniform_gg(spec, rng, n):
    """n draws of a generalized-t member through the uniform layer under the exponential power."""
    return _uniform_gg_draws(spec, rng.generator, n)


# The first 8 of 64 draws of every hierarchy at RngStream(2024, k) for the
# k-th entry.  Any change to the order in which a sampler consumes its
# stream changes these values.
RECORDED_DRAWS = [
    (
        "two_piece-normal",
        lambda rng: _two_piece(1.5, NormalBase(), rng.generator, 64),
        {
            "x": [
                0.05511188070589824, -0.39259028734536466, 2.0421054886795083, -1.0319248012699649,
                0.2391853329976848, 0.00040251020673609837, 1.0569535635266645, 2.290024200726017,
            ],
        },
    ),
    (
        "two_piece-student",
        lambda rng: _two_piece(0.8, StudentTBase(5.0), rng.generator, 64),
        {
            "x": [
                0.782751074438058, 0.6571969901981947, -1.6809294613252705, -0.5027691410656465,
                0.28572633672196507, -1.0536598477692953, 1.4699942980552816, 0.5846234462548804,
            ],
        },
    ),
    (
        "two_piece-gent",
        lambda rng: _two_piece(1.3, GenTBase(1.7, 2.0), rng.generator, 64),
        {
            "x": [
                -1.1396548141212377, 0.4500028820493446, -1.2223588192013766, -0.036910533714144204,
                1.1929390701392908, -0.12908687888324105, 0.2104342411708377, 0.14649040214471576,
            ],
        },
    ),
    (
        "quadratic_tilt",
        lambda rng: _two_piece(2.0, NormalBase(), rng.generator, 64, tilted=True),
        {
            "x": [
                4.576765269566001, 1.81150820106556, 5.691340516718405, 2.8152331799546326,
                2.2597309730458828, 3.1365995598154255, 1.7985513511539553, 1.5337996073655864,
            ],
        },
    ),
    (
        "bsn-direct",
        lambda rng: sample(bsn(1.0, 1.5), 64, rng),
        {
            "x": [
                1.425166423672032, 3.038972104838777, 2.091443902911047, 0.09783990764489121,
                1.3990458507879138, 2.7723326881216623, 1.7555437870326451, 2.0577596929971396,
            ],
        },
    ),
    (
        "bsn-uniform",
        lambda rng: _uniform_normal_draws(bsn(1.0, 1.5), rng.generator, 64),
        {
            "x": [
                1.5945683400373607, -0.333142112238267, -0.09785333186473284, 2.00758533316782,
                2.61922176887944, 1.6680823737477493, 2.425028920203205, -0.33920320763859896,
            ],
        },
    ),
    (
        "bsstd",
        lambda rng: sample(bsstd(1.0, 1.5, 4.0), 64, rng),
        {
            "x": [
                2.1625746997429625, -0.9151672838403146, 1.0546799226037686, 1.638346516787773,
                4.2353572433929205, 6.621749755416364, 2.1650111234878544, 2.861690024603535,
            ],
        },
    ),
    (
        "skewed_uniform_normal",
        lambda rng: _uniform_two_piece_normal(2.0, 2.5, rng.generator, 64),
        {
            "x": [
                1.0902412272518496, 1.6939150622188366, 0.8291463873669294, 0.4237311291859903,
                1.8160418470132922, 0.5487569531265526, 1.5031396353448117, 0.8161989193986231,
            ],
        },
    ),
    (
        "gen_gamma",
        lambda rng: _gen_gamma(1.7, 2.0, rng.generator, 64),
        {
            "x": [
                1.4431753580543991, 4.1330603830909505, 0.22584134954827437, 1.2332528318197595,
                1.335296723079717, 3.132028724251781, 1.4021288671635004, 0.13766792570681174,
            ],
        },
    ),
    (
        "bsgt-gg",
        lambda rng: sample(bsgt(1.0, 1.5, 1.7, 2.0), 64, rng),
        {
            "x": [
                7.8750502521219605, -0.23527734022596328, 1.6039548571292306, 1.0063712761485635,
                1.4410998613687607, -0.7851602612474244, 4.841180732435404, 3.189563670385769,
            ],
        },
    ),
    (
        "bsgt-uniform-gg",
        lambda rng: uniform_gg(bsgt(1.0, 0.8, 2.3, 2.0), rng, 64),
        {
            "x": [
                -0.9616849689804527, -2.2529219199857367, -0.20391396234161963, -1.1196394726570054,
                -0.4061803449034399, -3.259139358774087, -2.53015156135157, -0.868175102369393,
            ],
        },
    ),
    (
        "sample-bsn",
        lambda rng: sample(bsn(1.0, 1.5, 2.0, 0.5), 64, rng),
        {
            "x": [
                2.759031589482596, 2.8023504273614956, 1.4618588093979912, 1.8774512872166849,
                3.1160838433471603, 3.6883813081474353, 1.5694989166933937, 3.6278929643316937,
            ],
        },
    ),
    (
        "sample-bsstd",
        lambda rng: sample(bsstd(3.0, 1.5, 5.0), 64, rng),
        {
            "x": [
                2.4390479701530428, 2.005656936493596, 1.2597868139718187, 0.326599093910437,
                1.7118435171257882, 4.720323738291604, 3.2116252660058304, 5.251524265639371,
            ],
        },
    ),
    (
        "sample-bsgt",
        lambda rng: sample(bsgt(3.0, 1.5, 1.7, 2.0), 64, rng),
        {
            "x": [
                8.064968705000599, 9.17599988340121, 3.7288866275183423, 6.173082295105371,
                1.6970849653815963, 0.2812954047277913, 24.698891967659527, 0.7657022351005907,
            ],
        },
    ),
]


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
        x1 = sample(bsn(1.0, 1.5), 50, RngStream(11, 2))
        x2 = sample(bsn(1.0, 1.5), 50, RngStream(11, 2))
        np.testing.assert_array_equal(x1, x2)
        d1 = uniform_gg(bsgt(1.0, 0.8, 2.3, 2.0), RngStream(11, 4), 50)
        d2 = uniform_gg(bsgt(1.0, 0.8, 2.3, 2.0), RngStream(11, 4), 50)
        np.testing.assert_array_equal(d1, d2)

    def test_draws_match_recorded_values(self):
        for k, (name, draw, want) in enumerate(RECORDED_DRAWS):
            got = draw(RngStream(2024, k))
            assert got.shape == (64,), name
            np.testing.assert_allclose(got[:8], want["x"], rtol=1e-13, err_msg=name)


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
        x = _two_piece(gamma, NormalBase(), RngStream(5, 0).generator, N)
        prop = float(np.mean(x >= 0))
        want = gamma**2 / (1.0 + gamma**2)
        se = np.sqrt(want * (1.0 - want) / N)
        assert abs(prop - want) < 4.0 * se

    def test_two_piece_student_gate(self):
        x = _two_piece(0.8, StudentTBase(5.0), RngStream(5, 1).generator, N)
        assert ks_distance(x, bsstd(0.0, 0.8, 5.0)) < KS_GATE

    def test_quadratic_tilt_gate(self):
        # the tilted symmetric law at alpha -> infinity: density x^2 f(x) / m2
        x = _two_piece(1.0, NormalBase(), RngStream(5, 2).generator, N, tilted=True)
        d = stats.kstest(x, lambda t: stats.norm.cdf(t) - t * stats.norm.pdf(t)).statistic
        assert d < KS_GATE

    @pytest.mark.parametrize(
        "gamma,base,stream",
        [(1.3, GenTBase(1.7, 2.0), 3), (0.8, StudentTBase(5.0), 4)],
        ids=["gent", "student"],
    )
    def test_heavy_tail_quadratic_tilt_gate(self, gamma, base, stream):
        # the x^2-weighted two-piece law on a heavy-tailed base: its half-line
        # magnitudes are the base's tilted draws delta (q h / Y)^(1/p)
        x = _two_piece(gamma, base, RngStream(5, stream).generator, N, tilted=True)
        d = stats.kstest(x, lambda t: _quadratic_tilt_cdf(t, gamma, base)).statistic
        assert d < KS_GATE

    def test_uniform_path_agrees_with_direct(self):
        direct = sample(bsn(1.0, 1.5), N, RngStream(6, 0))
        via_u = _uniform_normal_draws(bsn(1.0, 1.5), RngStream(6, 1).generator, N)
        assert stats.ks_2samp(direct, via_u).pvalue > 0.01

    def test_gate_for_uniform_normal_marginal(self):
        # uniform magnitude times a chi-squared(3) radius is half-normal, so
        # the compound must land exactly on the two-piece normal at scale
        # 1/sqrt(lambda)
        gamma, lam = 2.0, 2.5
        x = _uniform_two_piece_normal(gamma, lam, RngStream(8, 3).generator, N)
        assert ks_distance(x, bsn(0.0, gamma, 0.0, lam**-0.5)) < KS_GATE

    def test_gen_gamma_power_is_gamma(self):
        p, q = 1.7, 2.0
        s = _gen_gamma(p, q, RngStream(6, 2).generator, N)
        assert stats.kstest(s ** (p / 2.0), stats.gamma(q).cdf).statistic < KS_GATE

    def test_gg_and_uniform_paths_agree(self):
        a = sample(bsgt(1.0, 0.8, 2.3, 2.0), N, RngStream(6, 3))
        b = uniform_gg(bsgt(1.0, 0.8, 2.3, 2.0), RngStream(6, 4), N)
        assert stats.ks_2samp(a, b).pvalue > 0.01

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_sample_moments_match_closed_forms(self, r):
        spec = bsstd(1.0, 1.5, 10.0)
        x = sample(spec, 100_000, RngStream(2027, 0))
        want = full_moment(spec, r)
        se = float(np.std(x**r, ddof=1)) / np.sqrt(x.size)
        assert abs(float(np.mean(x**r)) - want) < 4.0 * se


class TestNearBoundaryTails:
    # Near nu = 2 and p*q = 2 the tilted latents are Gamma draws with shape
    # near 0, which underflow to 0.0; the draws built on them used to be inf.

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_draws_are_finite(self, seed):
        for x in (
            sample(bsstd(1.0, 1.0, 2.02), 100_000, RngStream(seed, 0)),
            sample(bsgt(1.0, 1.0, 2.0, 1.01), 100_000, RngStream(seed, 0)),
            uniform_gg(bsgt(1.0, 1.0, 2.0, 1.01), RngStream(seed, 0), 100_000),
        ):
            assert np.all(np.isfinite(x))

    @pytest.mark.parametrize(
        "spec,n,stream,beyond",
        [
            (bsstd(3.0, 1.5, 2.005), 100_000, RngStream(1, 0), 2405),
            (bsgt(1.0, 1.0, 1.7, 2.001 / 1.7), 2000, RngStream(0, 1), 525),
        ],
        ids=["bsstd-2.005", "bsgt-pq-2.001"],
    )
    def test_draws_beyond_the_float_range_raise(self, spec, n, stream, beyond):
        # about 2.4% of bsstd(3, 1.5, 2.005) lies beyond 1.8e308, and at
        # p*q - 2 = 1e-3 about half of the x^2-weighted component: such draws
        # came back as +-inf, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=f"^{beyond} of {n} draws lie past the float range"):
                sample(spec, n, stream)

    def test_loc_scale_past_the_float_range_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"^\d+ of 1000 draws lie past the float range"):
                sample(bsn(0.0, 1.0, 0.0, 1e308), 1000, RngStream(0, 0))

    @pytest.mark.parametrize(
        "p,q",
        [(1.0, 2.0 + 1e155), (0.05, (2.0 + 1e10) / 0.05), (0.05, (2.0 + 1e50) / 0.05)],
        ids=["p1-q1e155", "p0.05-q2e11", "p0.05-q2e51"],
    )
    @pytest.mark.parametrize("path", ["gg", "uniform-gg"])
    def test_huge_q_draws_pass_the_gate(self, p, q, path):
        # S = Y^(2/p), and in the last case (q/2)^(1/p) too, pass the float
        # range; the draws were all 0, or the power raised OverflowError
        spec = bsgt(1.0, 1.5, p, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if path == "gg":
                x = sample(spec, N, RngStream(0, 0))
            else:
                x = uniform_gg(spec, RngStream(0, 0), N)
        assert ks_distance(x, spec) < KS_GATE

    def test_uniform_normal_past_the_float_range_raises(self):
        # at lambda = 1e-320 the radius sqrt(u / lambda) overflows: numpy
        # warned and every draw came back as +-inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^50 of 50 draws lie past the float range"):
                _uniform_two_piece_normal(2.0, 1e-320, RngStream(0, 0).generator, 50)

    def test_gen_gamma_past_the_float_range_raises(self):
        # at p = 0.05, q = 2e11 the power Y^(2/p) = Y^40 overflows: numpy
        # warned and every draw came back as inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^5 of 5 draws lie past the float range"):
                _gen_gamma(0.05, 2e11, RngStream(0).generator, 5)

    def test_tail_beyond_the_old_cap(self):
        # P(|x| > t) for the tilted component is the small-ball probability
        # of lambda = 2 Y / (nu - 2) ~ Gamma(a, rate r): w * r^a E|z|^(2a)
        # t^(-2a) / Gamma(1 + a), with z^2 = 2 h, z ~ chi(3), and
        # a = nu/2 - 1; no draw used to exceed about 1e162.  About 0.66 of
        # the 1e6 draws lie past the float range, so the raw draws, before
        # the range check, are counted, an inf as beyond t
        alpha, nu, t = 200.0, 2.02, 1e200
        a, r = 0.5 * nu - 1.0, 0.5 * (nu - 2.0)
        spec = bsstd(alpha, 1.0, nu)
        w = alpha * spec.b
        w /= 1.0 + w
        moment = 2.0**a * math.gamma(1.5 + a) / math.gamma(1.5)
        want = w * r**a * moment * t ** (-2.0 * a) / math.gamma(1.0 + a)
        m = 1_000_000
        gen = RngStream(8, 4).generator
        x = _compose(spec, gen, m, partial(spec.base.sample_abs, gen))
        assert abs(float(np.mean(np.abs(x) > t)) - want) < 4.0 * math.sqrt(want / m)


class TestStudentTReduction:
    # the Student-t base is the generalized-t at p = 2, q = nu/2, and both
    # are drawn by one sampler: only the Student-t's closed-form delta differs

    @pytest.mark.parametrize("nu", [2.05, 3.0, 5.0, 40.0, 1.1e4, 1e14, 1e300])
    @pytest.mark.parametrize("alpha,gamma", [(0.5, 1.0), (1.0, 1.5), (3.0, 0.7)])
    def test_draws_agree(self, alpha, gamma, nu):
        x = sample(bsstd(alpha, gamma, nu), 2000, RngStream(3, 1))
        y = sample(bsgt(alpha, gamma, 2.0, 0.5 * nu), 2000, RngStream(3, 1))
        np.testing.assert_allclose(x, y, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("alpha,gamma", [(0.5, 1.0), (1.0, 1.5), (3.0, 0.7)])
    def test_same_draws_past_the_float_range(self, alpha, gamma):
        counts = []
        for spec in (bsstd(alpha, gamma, 2.001), bsgt(alpha, gamma, 2.0, 1.0005)):
            with pytest.raises(NumericError) as raised:
                sample(spec, 2000, RngStream(3, 1))
            counts.append(str(raised.value))
        assert counts[0] == counts[1]


FAMILIES = pytest.mark.parametrize(
    "spec", [bsn(1.0, 1.5), bsstd(1.0, 1.5, 4.0), bsgt(1.0, 1.5, 1.7, 2.0)], ids=["bsn", "bsstd", "bsgt"]
)


class TestValidation:
    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: sample(bsstd(1.0, 1.0, float("inf")), 5, rng),
            lambda rng: sample(bsstd(1.0, 1.0, float("nan")), 5, rng),
            lambda rng: sample(bsgt(1.0, 1.0, float("nan"), 2.0), 5, rng),
            lambda rng: sample(bsgt(1.0, 1.0, 1.7, float("inf")), 5, rng),
        ],
        ids=["bsstd-nu-inf", "bsstd-nu-nan", "bsgt-p-nan", "bsgt-q-inf"],
    )
    def test_non_finite_tail_parameters_rejected(self, draw):
        with pytest.raises(DomainError):
            draw(RngStream(0))

    @FAMILIES
    def test_scalar_draws(self, spec):
        assert isinstance(sample(spec, None, RngStream(9, 0)), float)

    @FAMILIES
    @pytest.mark.parametrize("n", [0, -3, True, 2.5])
    def test_bad_sizes_rejected(self, spec, n):
        # a fractional size used to be truncated, a negative one raised
        # numpy's ValueError, 0 gave an empty array and True one draw
        with pytest.raises(DomainError):
            sample(spec, n, RngStream(0))

    @FAMILIES
    @pytest.mark.parametrize("rng", [None, 7])
    def test_bad_rngs_rejected(self, spec, rng):
        with pytest.raises(DomainError):
            sample(spec, 5, rng)

    @FAMILIES
    def test_size_must_be_a_positive_integer(self, spec):
        for size in (2.7, np.float64(5.0), "5"):
            with pytest.raises(DomainError):
                sample(spec, size, RngStream(0))
        assert sample(spec, np.int64(3), RngStream(0)).size == 3

    @pytest.mark.parametrize("gamma", [1e52, 1e100, 1e153])
    def test_extreme_skewness_draws_from_the_heavy_side(self, gamma):
        # gamma**6 used to raise a bare OverflowError from about 2.4e51; the
        # far side's mass, about gamma^-6 (gamma^-2 untilted), is below rounding
        for spec in (bsn(0.0, gamma), bsn(2.0, gamma), bsstd(2.0, gamma, 5.0), bsgt(2.0, gamma, 1.7, 2.0)):
            x = sample(spec, 200, RngStream(1))
            assert np.all(np.isfinite(x)) and np.all(x > 0.0)
            mirrored = sample(DistributionSpec(spec.alpha, 1.0 / gamma, spec.base), 200, RngStream(1))
            assert np.all(np.isfinite(mirrored)) and np.all(mirrored < 0.0)
        # untilted, every draw is gamma times its gamma = 1 magnitude
        plain = np.abs(sample(bsn(0.0, 1.0), 50, RngStream(1)))
        assert np.array_equal(sample(bsn(0.0, gamma), 50, RngStream(1)), gamma * plain)
