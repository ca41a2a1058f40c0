"""Density-level behavior: closed forms, reductions, moments, modes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.stats import kstest, norm, t as student_t

from bimodalskew import bases
from bimodalskew.bases import (
    _Q_EXP_POWER,
    GenTBase,
    NormalBase,
    StudentTBase,
    _beta_split,
    gt_standard_scale,
)
from bimodalskew.errors import DomainError, ExistenceError, NumericError
from bimodalskew.families import (
    DistributionSpec,
    _cdf,
    _log_density,
    bsgt,
    bsn,
    bsstd,
    cdf,
    cdf_values,
    find_modes,
    full_moment,
    log_pdf,
    moment_exists,
    moment_report,
    pdf,
    quantile,
    skew_moment,
    two_piece_second_moment,
)
from bimodalskew.sampling import RngStream, sample

GRID = np.linspace(-6.0, 6.0, 41)


def spec_of(family, alpha, gamma):
    if family == "bsn":
        return bsn(alpha, gamma)
    if family == "bsstd":
        return bsstd(alpha, gamma, 5.0)
    return bsgt(alpha, gamma, 1.7, 2.5)


class TestPinnedValues:
    """Hand-checked numbers that must never drift."""

    def test_standard_normal_center(self):
        assert pdf(bsn(0.0, 1.0), 0.0) == pytest.approx(0.3989422804014327, abs=1e-15)

    def test_tilted_center_halves(self):
        # at gamma = 1 the tilt normalizer is 1 + alpha, so the center halves
        assert pdf(bsn(1.0, 1.0), 0.0) == pytest.approx(0.19947114020071632, abs=1e-15)

    def test_tilt_normalizer(self):
        assert two_piece_second_moment(2.0) == pytest.approx(3.25, abs=1e-15)
        assert two_piece_second_moment(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_gen_t_unit_variance_scale(self):
        assert gt_standard_scale(2.0, 2.0) == pytest.approx(1.0, abs=1e-12)
        assert gt_standard_scale(2.0, 3.0) == pytest.approx(1.1547005383792512, abs=1e-12)
        # the base derives its delta, so no generalized-t of another variance can be built
        assert GenTBase(2.0, 3.0).delta == gt_standard_scale(2.0, 3.0)
        with pytest.raises(TypeError):
            GenTBase(2.0, 3.0, 1.0)

    def test_first_skewed_moment(self):
        assert skew_moment(bsn(0.0, 2.0), 1) == pytest.approx(1.196826841204298, abs=1e-12)

    def test_second_full_moment_symmetric_tilt(self):
        assert full_moment(bsn(1.0, 1.0), 2) == pytest.approx(2.0, abs=1e-12)

    def test_fourth_moment_heavy_tail(self):
        rep = moment_report(bsstd(0.0, 1.0, 5.0), orders=(4,))[0]
        assert rep.full == pytest.approx(9.0, abs=1e-10)

    def test_negative_mass(self):
        assert cdf(bsn(0.0, 2.0), 0.0) == pytest.approx(0.2, abs=1e-12)
        assert cdf(bsn(1.0, 2.0), 0.0) == pytest.approx(1.0 / 17.0, abs=1e-12)


class TestLargeTailParameters:
    """Far out in nu and q the bases tend to the normal. Their log-gamma
    ratios used to be differences of two gammaln values, which cancel there
    and gave silent wrong answers."""

    NORMAL_CENTER = 1.0 / math.sqrt(2.0 * math.pi)

    @pytest.mark.parametrize(
        "spec",
        [
            bsstd(0.0, 1.0, 1e14),
            bsstd(0.0, 1.0, 1e15),
            bsgt(0.0, 1.0, 2.0, 1e14),
            bsgt(0.0, 1.0, 2.0, 1e15),
        ],
        ids=["nu1e14", "nu1e15", "q1e14", "q1e15"],
    )
    def test_center_density_tends_to_the_normal(self, spec):
        assert pdf(spec, 0.0) == pytest.approx(self.NORMAL_CENTER, rel=1e-12)

    def test_huge_nu_density_is_finite_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = pdf(bsstd(1.0, 1.0, 1e306), 0.0)
        assert value == pytest.approx(0.5 * self.NORMAL_CENTER, rel=1e-12)

    def test_student_first_absolute_moment(self):
        want = math.sqrt(2.0 / math.pi)
        assert StudentTBase(1e14).abs_moment(1) == pytest.approx(want, rel=1e-12)

    def test_gen_t_standard_scale(self):
        assert GenTBase(2.0, 1e14).delta == pytest.approx(math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize(
        "base", [StudentTBase(5.0), StudentTBase(1e14), GenTBase(1.7, 2.0), GenTBase(2.0, 1e14)]
    )
    def test_zeroth_absolute_moment_is_exactly_one(self, base):
        assert base.abs_moment(0) == 1.0

    @pytest.mark.parametrize("nu", [1e200, 1e250, 1e300])
    def test_huge_nu_cdf_values_are_the_normal_limit(self, nu):
        # scipy's betainc returns NaN once its second parameter passes ~1e200
        xs = [-4.0, -1.0, 0.0, 0.5, 3.0]
        got = cdf_values(bsstd(1.0, 1.0, nu), xs)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, cdf_values(bsn(1.0, 1.0), xs), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("q", [1e200, 1e250, 1e300])
    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_huge_q_cdf_values_are_finite(self, p, q):
        # scipy's betainc returns NaN once its second parameter passes ~1e200
        xs = [-4.0, -1.0, 0.0, 0.5, 3.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cdf_values(bsgt(1.0, 1.0, p, q), xs)
        assert np.isfinite(got).all()
        # the standardizing delta keeps its q -> inf limit to rounding, so
        # the values are those at q = 1e100
        near = cdf_values(bsgt(1.0, 1.0, p, 1e100), xs)
        np.testing.assert_allclose(got, near, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_exponential_power_limit_is_the_beta_form_at_q_1e100(self, monkeypatch, p):
        xs = [-4.0, -1.0, 0.0, 0.5, 3.0]
        limit = cdf_values(bsgt(1.0, 1.0, p, 1e100), xs)
        monkeypatch.setattr(bases, "_Q_EXP_POWER", math.inf)
        beta_form = cdf_values(bsgt(1.0, 1.0, p, 1e100), xs)
        np.testing.assert_allclose(limit, beta_form, rtol=0.0, atol=1e-15)
        if p == 1.5:
            np.testing.assert_allclose(limit[[3, 1]], [0.61492637, 0.27461518], rtol=1e-8)

    @pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
    @pytest.mark.parametrize("r", [0, 2])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 5.0])
    def test_gen_t_partial_moments_agree_across_the_limit_switch(self, p, r, upper):
        t = np.array([0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 38.0])

        def beta_form(q):
            base = GenTBase(p, q)
            w = t**p / base.c
            return 0.5 * base.abs_moment(r) * _beta_split((r + 1.0) / p, q - r / p, w, upper)

        def limit(q):
            base = GenTBase(p, q)
            incomplete = special.gammaincc if upper else special.gammainc
            return 0.5 * base.abs_moment(r) * incomplete((r + 1.0) / p, (t / base.delta) ** p)

        below = np.nextafter(_Q_EXP_POWER, 0.0)
        for q, form in ((below, beta_form), (_Q_EXP_POWER, limit)):
            assert GenTBase(p, q).partial_moment(r, t, upper).tobytes() == form(q).tobytes()
        # either side of the switch the two forms agree to a few ulps; the
        # widest gap, 1.4e-15 at p = 2, is scipy's gammaincc(0.5, s) rounding
        for q in (below, _Q_EXP_POWER):
            np.testing.assert_allclose(beta_form(q), limit(q), rtol=0.0, atol=1.5e-15)

    def test_no_relative_jump_at_the_limit_switch(self):
        # from q = nextafter(1e17, 0) to q = 1e17, wherever either value is a
        # normal float; the widest gaps are 2.9e-12 (the r = 2 upper tail at
        # p = 1, t = 13.5) and 2.6e-12 (cdf_values at p = 3.7, x = -7.64)
        below = np.nextafter(_Q_EXP_POWER, 0.0)
        ts = np.geomspace(1e-3, 30.0, 400)
        xs = np.linspace(-8.0, 8.0, 801)
        for p in np.linspace(0.3, 4.0, 38):
            pairs = [[cdf_values(bsgt(1.0, 1.3, p, q), xs) for q in (below, _Q_EXP_POWER)]]
            for r in (0, 2):
                for upper in (False, True):
                    pairs.append([GenTBase(p, q).partial_moment(r, ts, upper) for q in (below, _Q_EXP_POWER)])
            for a, b in pairs:
                top = np.maximum(a, b)
                normal = top >= np.finfo(float).tiny
                assert (np.abs(a - b)[normal] <= 1e-11 * top[normal]).all(), p


class TestSpecialFunctions:
    """`bases.betaln` and the log-gamma ratios against mpmath, which computed
    the literals at 700 digits from the same float arguments."""

    # b -> (betaln(1/2, b), log Gamma(b) - log Gamma(b + 1/2)): the Student-t
    # normalizer and first moment at nu = 2b
    STUDENT = {
        1e4: (-4.032792743063396, -4.605157685988097),
        1e5: (-5.184096539560414, -5.756461482485114),
        8e5: (-6.223818404150332, -6.796183347075032),
        1e6: (-6.335390211057437, -6.907755153982137),
    }
    # q -> (betaln(1/p, q), log Gamma(q - 2/p) - log Gamma(q)) at p = 1.5: the
    # generalized-t normalizer and variance
    GEN_T = {
        1e4: (-5.837065528453886, -12.280298264239041),
        1e5: (-7.372132257055468, -15.350551730976353),
        8e5: (-8.758427590396973, -18.12315406442082),
        1e6: (-8.907189985717554, -18.42067918839586),
    }

    @pytest.mark.parametrize("b", sorted(STUDENT))
    def test_student_arguments(self, b):
        betaln, ratio = self.STUDENT[b]
        assert bases.betaln(0.5, b) == pytest.approx(betaln, rel=5e-16, abs=0.0)
        assert bases._log_gamma_ratio(b, 0.5) == pytest.approx(ratio, rel=5e-16, abs=0.0)

    @pytest.mark.parametrize("q", sorted(GEN_T))
    def test_gen_t_arguments(self, q):
        betaln, ratio = self.GEN_T[q]
        a = 2.0 / 1.5
        assert bases.betaln(1.0 / 1.5, q) == pytest.approx(betaln, rel=5e-16, abs=0.0)
        assert bases._log_gamma_ratio(q - a, a) == pytest.approx(ratio, rel=5e-16, abs=0.0)

    @pytest.mark.parametrize("nu,want", [(1e200, -229.3395707661999), (1e300, -344.4688254159022)])
    def test_huge_nu(self, nu, want):
        assert bases.betaln(0.5, 0.5 * nu) == pytest.approx(want, rel=5e-16, abs=0.0)

    @pytest.mark.parametrize("a,b", [(2.0, 3.0), (0.7, 1e-3), (1e3, 1e4)])
    def test_scipy_below_the_switch(self, a, b):
        # below b = 20, or where 20 a > b, the values are scipy's bit for bit
        assert bases.betaln(a, b) == special.betaln(a, b)

    @pytest.mark.parametrize(
        "a,b,want",
        [
            (0.5, 5e3, -3.6862066527834605),
            (0.5, 5999.0, -3.7772882540957364),
            (100.0, 9e3, -551.9117645403401),
        ],
    )
    def test_series_at_moderate_arguments(self, a, b, want):
        # scipy's betaln cancels here: 1.6e-13, 1.9e-12 and 3.7e-14 off
        assert bases.betaln(a, b) == pytest.approx(want, rel=5e-16, abs=0.0)

    @pytest.mark.parametrize(
        "p,q,delta,log_norm",
        [
            (2.0, 5999.0, 1.4140956866852576, -0.9188760158387136),
            (1.7, 5000.0, 1.2821242735543998, -0.8276746148996516),
            (10.0, 5999.0, 1.7832674478065147, -1.2217295671191242),
        ],
    )
    def test_gen_t_constants_at_moderate_q(self, p, q, delta, log_norm):
        # with scipy's betaln delta was up to 5.3e-12 off, and log f(0) 1.4e-11
        base = GenTBase(p, q)
        assert base.delta == pytest.approx(delta, rel=5e-16, abs=0.0)
        assert base._log_norm == pytest.approx(log_norm, rel=5e-16, abs=0.0)

    def test_student_log_norm_at_moderate_nu(self):
        # with scipy's betaln it was 8.8e-12 off
        assert StudentTBase(1.1e4)._log_norm == pytest.approx(-0.9188703431209949, rel=5e-16, abs=0.0)

    @pytest.mark.parametrize("nu", [1e200, 1e300])
    def test_student_log_norm_keeps_its_limit(self, nu):
        # the (1/2) log nu terms of -betaln(1/2, nu/2) - log(nu - 2)/2 used to
        # cancel: 9.1e-15 and 2.2e-14 off
        assert StudentTBase(nu)._log_norm == pytest.approx(-0.9189385332046728, rel=5e-16, abs=0.0)

    @pytest.mark.parametrize("q", [1e100, 1e200, 1e300])
    def test_gen_t_log_norm_keeps_its_limit(self, q):
        # log f(0) of the unit-variance generalized-t at p = 1.5, with mpmath's
        # delta; log(q)/p used to cancel against betaln: 3.4e-14 off at 1e200
        assert GenTBase(1.5, q)._log_norm == pytest.approx(-0.7424074851730663, rel=5e-16, abs=0.0)

    @pytest.mark.parametrize("q", [1e17, 1e100, 1e200, 1e300])
    def test_gen_t_scale_keeps_its_limit(self, q):
        # delta -> sqrt(Gamma(1/p) / Gamma(3/p)) as q -> inf; a log q used to
        # cancel against the log-gamma ratio, 2.5e-14 off at q = 1e200
        assert GenTBase(1.5, q).delta == pytest.approx(1.1636657335448184, rel=1e-15, abs=0.0)


class TestReductions:
    """Special parameter values must collapse onto textbook densities."""

    def test_symmetric_untilted_normal(self):
        np.testing.assert_allclose(pdf(bsn(0.0, 1.0), GRID), norm.pdf(GRID), atol=1e-14)

    def test_symmetric_untilted_student(self):
        k = math.sqrt(5.0 / 3.0)
        np.testing.assert_allclose(
            pdf(bsstd(0.0, 1.0, 5.0), GRID), k * student_t.pdf(GRID * k, 5.0), atol=1e-14
        )

    def test_gen_t_nests_student(self):
        lhs = pdf(bsgt(1.0, 1.3, 2.0, 3.0), GRID)
        rhs = pdf(bsstd(1.0, 1.3, 6.0), GRID)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("nu", [2.001, 2.05, 3.0, 5.0, 30.0, 1e3, 1e4, 1.1e4, 1e12, 1e16, 1e300])
    def test_student_is_the_gen_t_at_p_2_to_the_last_digits(self, nu):
        # the two differ only in how delta and c are computed; with scipy's
        # betaln at q = 5.5e3 the values below differed by up to 2.2e-11
        def assert_close(got, want, tol):
            assert np.all(np.abs(np.subtract(got, want)) <= tol * np.maximum(1.0, np.abs(want)))

        x = np.concatenate([[0.0], np.geomspace(1e-3, 1e300, 40), -np.geomspace(1e-3, 1e300, 40)])
        for alpha, gamma in ((0.0, 1.0), (3.0, 1.5), (0.5, 0.2)):
            student, gen_t = bsstd(alpha, gamma, nu), bsgt(alpha, gamma, 2.0, nu / 2.0)
            assert_close(log_pdf(gen_t, x), log_pdf(student, x), 1e-14)
            np.testing.assert_allclose(cdf_values(gen_t, x), cdf_values(student, x), rtol=1e-13, atol=0.0)
            modes = find_modes(student)
            assert len(find_modes(gen_t)) == len(modes)
            assert_close([m[0] for m in find_modes(gen_t)], [m[0] for m in modes], 1e-14)
            for got, want in zip(moment_report(gen_t), moment_report(student)):
                assert (got.full is None) == (want.full is None)
                if want.full is not None:
                    assert_close(got.full, want.full, 1e-14)

    def test_location_scale_change_of_variables(self):
        spec = bsstd(1.0, 1.5, 5.0, loc=2.0, scale=3.0)
        base = bsstd(1.0, 1.5, 5.0)
        np.testing.assert_allclose(pdf(spec, GRID), pdf(base, (GRID - 2.0) / 3.0) / 3.0, atol=1e-14)
        for u in (0.1, 0.5, 0.9):
            assert quantile(spec, u) == pytest.approx(2.0 + 3.0 * quantile(base, u), abs=1e-8)


class TestSymmetries:
    @given(
        family=st.sampled_from(["bsn", "bsstd", "bsgt"]),
        alpha=st.floats(0.0, 10.0),
        gamma=st.floats(0.25, 4.0),
        x=st.floats(-30.0, 30.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_inverting_gamma_mirrors_density(self, family, alpha, gamma, x):
        lhs = log_pdf(spec_of(family, alpha, gamma), x)
        rhs = log_pdf(spec_of(family, alpha, 1.0 / gamma), -x)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @given(gamma=st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_tilt_normalizer_invariant_under_inversion(self, gamma):
        assert two_piece_second_moment(gamma) == pytest.approx(
            two_piece_second_moment(1.0 / gamma), rel=1e-12
        )

    def test_zero_belongs_to_the_right_branch(self):
        # the stretched argument at 0 is 0 either way; the density must be
        # continuous there and carry mass ratio gamma^2 : 1 across the split
        spec = bsn(0.0, 2.0)
        left = pdf(spec, -1e-12)
        right = pdf(spec, 1e-12)
        assert right == pytest.approx(left, rel=1e-9)
        assert 1.0 - cdf(spec, 0.0) == pytest.approx(4.0 / 5.0, abs=1e-12)


class TestCdfQuantile:
    @pytest.mark.parametrize(
        "spec",
        [bsn(1.0, 1.5), bsstd(3.0, 0.8, 4.0), bsgt(0.5, 1.2, 1.7, 2.5), bsn(0.0, 1.0, 1.0, 2.0)],
        ids=["bsn", "bsstd", "bsgt", "shifted"],
    )
    def test_round_trip(self, spec):
        for u in np.linspace(0.02, 0.98, 25):
            assert cdf(spec, quantile(spec, u)) == pytest.approx(u, abs=1e-9)

    def test_limits(self):
        spec = bsstd(1.0, 1.5, 4.0)
        assert cdf(spec, -np.inf) == 0.0
        assert cdf(spec, np.inf) == 1.0

    @pytest.mark.parametrize(
        "spec,x,want",
        [
            (bsn(0.0, 1.0), 1e4, 1.0),
            (bsstd(1.0, 1.0, 2.05), 1e6, 0.8819725966572914),
            # 1e8 + 1e-8 rounds to z = 1.4901161193847656
            (bsn(3.0, 1.5, loc=1e8, scale=1e-8), 1e8 + 1e-8, 0.3455798838989553),
        ],
        ids=["bsn-1e4", "nu2.05-far-right", "loc1e8-scale1e-8"],
    )
    def test_closed_form_where_quadrature_missed_mass(self, spec, x, want):
        # quadrature read 0.5, 0.38197 and 0.20822 here; the wants are
        # 40-digit mpmath values (incomplete beta for the Student-t)
        assert cdf(spec, x) == pytest.approx(want, abs=1e-12)
        assert cdf(spec, x) == pytest.approx(cdf_values(spec, [x])[0], abs=1e-12)

    def test_vector_path_matches_scalar(self):
        spec = bsgt(1.0, 0.8, 2.3, 2.0)
        vec = cdf_values(spec, GRID)
        # the scalar cdf is the closed form too: compare with quadrature
        left = cdf(spec, spec.loc)
        np.testing.assert_allclose(vec, [_cdf(spec, float(x), left) for x in GRID], atol=1e-10)
        assert np.all(np.diff(vec) >= 0)


class TestQuantileSharesTheFoldMass:
    """`quantile` integrates below the fold once and returns what the search
    over the numeric `_cdf` returned, float for float."""

    @staticmethod
    def search_over_cdf(spec, u):
        # the doubling bracket plus brentq over the numeric cdf, each of whose
        # evaluations takes the mass below the fold afresh
        from scipy.optimize import brentq

        def numeric_cdf(t):
            return _cdf(spec, t, cdf(spec, spec.loc))

        center = spec.loc
        f_center = numeric_cdf(center) - u
        if f_center == 0.0:
            return center
        step = spec.scale
        if f_center > 0:
            lo = center - step
            while numeric_cdf(lo) > u:
                step *= 2.0
                lo = center - step
                if step > 1e12 * spec.scale:
                    raise NumericError(f"failed to bracket quantile u={u} below the location")
            bracket = (lo, center)
        else:
            hi = center + step
            while numeric_cdf(hi) < u:
                step *= 2.0
                hi = center + step
                if step > 1e12 * spec.scale:
                    raise NumericError(f"failed to bracket quantile u={u} above the location")
            bracket = (center, hi)
        return float(brentq(lambda t: numeric_cdf(t) - u, *bracket, xtol=1e-12, rtol=8.9e-16))

    # the root lies below loc at the first level and above it at the second
    MEMBERS = [
        (bsn(1.0, 1.5), (0.1, 0.7)),
        (bsstd(3.0, 0.8, 4.0, loc=-2.0, scale=3.0), (0.05, 0.9)),
        (bsgt(0.5, 1.2, 1.7, 2.5, loc=1e3, scale=0.01), (0.2, 0.95)),
        (bsn(0.0, 1.0, loc=1.0, scale=2.0), (0.3, 0.999)),
    ]

    @pytest.mark.parametrize("spec,levels", MEMBERS, ids=["bsn", "bsstd-moved", "bsgt-moved", "shifted"])
    def test_equals_the_search_over_cdf(self, spec, levels):
        below, above = levels
        assert quantile(spec, below) < spec.loc < quantile(spec, above)
        for u in levels:
            assert quantile(spec, u) == self.search_over_cdf(spec, u)

    def test_same_error_where_the_search_fails(self):
        # far in the upper tail the cdf cannot certify its error
        spec, u = bsgt(1.0, 1.5, 1.7, 2.0), 1.0 - 1e-9
        with pytest.raises(NumericError) as want:
            self.search_over_cdf(spec, u)
        with pytest.raises(NumericError) as got:
            quantile(spec, u)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("spec,levels", MEMBERS[:2], ids=["bsn", "bsstd-moved"])
    def test_one_integral_below_the_fold_per_call(self, monkeypatch, spec, levels):
        # the mass below the fold is closed-form: no (-inf, loc) integral is made
        from bimodalskew import families

        calls = []
        quad_pdf = families._quad_pdf

        def counted(spec, lo, hi):
            calls.append((lo, hi))
            return quad_pdf(spec, lo, hi)

        monkeypatch.setattr(families, "_quad_pdf", counted)
        for u in levels:
            calls.clear()
            quantile(spec, u)
            assert (-math.inf, spec.loc) not in calls
            assert len(calls) > 5  # the bracket and brentq evaluated the cdf many times
        calls.clear()
        assert cdf(spec, spec.loc + spec.scale) > cdf(spec, spec.loc) == cdf_values(spec, [spec.loc])[0]
        assert calls == []  # the scalar cdf is closed form


def left_mass(spec):
    """Mass below the fold: (1 + alpha/gamma^2) / (gamma (gamma + 1/gamma)(1 + alpha b))."""
    g, alpha = spec.gamma, spec.alpha
    return (1.0 + alpha / g**2) / (g * (g + 1.0 / g) * (1.0 + alpha * two_piece_second_moment(g)))


# (alpha, log10 gamma, log10 of nu - 2 or p*q - 2, p) over the robustness domain
CDF_DOMAIN = dict(
    family=st.sampled_from(["bsn", "bsstd", "bsgt"]),
    alpha=st.one_of(st.just(0.0), st.floats(0.0, 15.0)),
    log_gamma=st.floats(-1.0, 1.0),
    log_tail=st.floats(-3.0, 1.5),
    p=st.floats(0.05, 4.0),
)


class TestCdfValues:
    """The closed-form vector CDF: far tails, extreme loc/scale, heavy tails."""

    @pytest.mark.parametrize(
        "spec,xs,want,rel",
        [
            (bsn(1, 1), [0.0, 1e6], [0.5, 1.0], 1e-15),
            (bsgt(1, 1.5, 1.7, 2), [-1e3, 0.0, 1e3],
             [3.84510316489136e-6, 0.164948453608247, 0.999863697800381], 1e-12),
            (bsn(3, 1.5, loc=1e8, scale=1e-8), [1e8], [0.118018967334036], 1e-12),
            (bsstd(1, 1, 2.05), [1e6], [0.881972596657291], 1e-12),
            (bsn(0, 1), [1e4], [1.0], 0.0),
        ],
        ids=["bsn-far-right", "bsgt-far-both", "loc1e8-scale1e-8", "nu2.05-far-right", "bsn-1e4"],
    )
    def test_pinned_far_values(self, spec, xs, want, rel):
        # references from 30-digit quadrature of the density
        np.testing.assert_allclose(cdf_values(spec, xs), want, rtol=rel, atol=0.0)

    @pytest.mark.parametrize(
        "spec,xs,want",
        [
            (bsgt(0, 1, 1.5, 1e12), [-30.0, -20.0, -12.0],
             [1.0266928512862312e-58, 1.0068532761436593e-32, 4.7270579577294927e-16]),
            (bsstd(0, 1, 1e12), [-30.0, -12.0], [4.9067149185437239e-198, 1.7764821211568822e-33]),
        ],
        ids=["bsgt-q1e12", "bsstd-nu1e12"],
    )
    def test_far_tail_complement_keeps_its_digits(self, spec, xs, want):
        # the upper partial moment is 1 - I with I near 1, which read 0 here
        # as a difference; the references are the closed form at the given
        # parameters in 120-digit arithmetic (mpmath)
        np.testing.assert_allclose(cdf_values(spec, xs), want, rtol=1e-13, atol=0.0)

    def test_pit_is_uniform_where_x_rounds_to_one(self):
        # nu just above 2: t^2 / (t^2 + nu - 2) rounds to 1 for most draws, so
        # the beta function must see 1 - x computed directly
        spec = bsstd(3.9308764419733424, 3.5183802558681214, 2.07948018753721)
        pit = cdf_values(spec, sample(spec, 2000, RngStream(1, 1037)))
        assert kstest(pit, "uniform").pvalue > 1e-6

    @pytest.mark.parametrize(
        "spec",
        [bsn(0, 1), bsstd(0, 0.8, 5), bsstd(0, 7.3, 2.001), bsgt(0, 1.5, 1.7, 2)],
        ids=["bsn", "bsstd-nu5", "bsstd-nu2.001", "bsgt"],
    )
    def test_alpha_zero_skips_the_tilt_term_bitwise(self, spec):
        # at alpha = 0 the r = 2 partial moment is not computed; the result
        # must be bit for bit the two-term sum with its 0 * s^2 * P2 term
        g, base = spec.gamma, spec.base
        c = 2.0 / ((g + 1.0 / g) * (1.0 + spec.alpha * spec.b))

        def half(t, s, upper):
            tilted = spec.alpha * s * s * base.partial_moment(2, t, upper)
            return c * s * (base.partial_moment(0, t, upper) + tilted)

        tails = [0.0, -0.0, 1.0, -1.0, 1e300, -1e300, np.inf, -np.inf]
        z = np.concatenate([RngStream(3, 9).generator.standard_cauchy(20_000) * 3.0, tails])
        below = z < 0
        two_term = np.empty_like(z)
        two_term[below] = half(-z[below] * g, 1.0 / g, True)
        two_term[~below] = half(0.0, 1.0 / g, True) + half(z[~below] / g, g, False)
        two_term = np.where(z == np.inf, 1.0, np.minimum(two_term, 1.0))
        assert cdf_values(spec, z).tobytes() == two_term.tobytes()

    def test_nan_and_shape_raise(self):
        with pytest.raises(DomainError):
            cdf_values(bsn(1.0, 1.5), [0.0, float("nan")])
        with pytest.raises(DomainError):
            cdf_values(bsn(1.0, 1.5), np.zeros((2, 2)))

    @given(**CDF_DOMAIN, loc=st.floats(-5.0, 5.0), log_scale=st.floats(-2.0, 2.0))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_fold_limits_and_order(self, family, alpha, log_gamma, log_tail, p, loc, log_scale):
        spec = mode_spec(family, alpha, 10.0**log_gamma, 10.0**log_tail, p)
        spec = DistributionSpec(spec.alpha, spec.gamma, spec.base, loc, 10.0**log_scale)
        side = np.logspace(-12.0, 300.0, 400)
        xs = np.concatenate([[-np.inf], loc - side[::-1], [loc], loc + side, [np.inf]])
        values = cdf_values(spec, xs)
        assert values[0] == 0.0 and values[-1] == 1.0
        assert np.all((values >= 0.0) & (values <= 1.0))
        assert np.all(np.diff(values) >= -1e-15)
        assert values[side.size + 1] == pytest.approx(left_mass(spec), rel=1e-12)

    @given(**CDF_DOMAIN, zs=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None, derandomize=True)
    # the scalar cdf's quadrature below the fold once read 0.0 here, not 0.5
    @example(family="bsgt", alpha=0.0, log_gamma=0.0, log_tail=-1.75, p=0.0546875, zs=[0.0])
    def test_matches_scalar_cdf_where_it_converges(self, family, alpha, log_gamma, log_tail, p, zs):
        spec = mode_spec(family, alpha, 10.0**log_gamma, 10.0**log_tail, p)
        values = cdf_values(spec, zs)
        # the numeric cdf certifies 1e-8; at p < 0.8 with p*q near 2 its
        # quadrature is off by up to 4e-9 where the closed form matches
        # 30-digit quadrature, and elsewhere the two agree to 1e-10
        tol = 1e-8 if family == "bsgt" else 1e-10
        for z, value in zip(zs, values):
            try:
                want = _cdf(spec, z, cdf(spec, spec.loc))
            except NumericError:
                continue
            assert value == pytest.approx(want, abs=tol)


def mode_spec(family, alpha, gamma, tail, p):
    """A member of the north-star domain; ``tail`` is nu - 2 or p*q - 2."""
    if family == "bsn":
        return bsn(alpha, gamma)
    if family == "bsstd":
        return bsstd(alpha, gamma, 2.0 + tail)
    return bsgt(alpha, gamma, p, (2.0 + tail) / p)


# log_pdf sums constants up to ~20x its own size (heavy tails at small p), so
# neighbouring values jitter by up to ~10 ulps
LOG_PDF_ROUNDING = 64.0 * np.finfo(float).eps


def not_above(spec, x, y):
    """log_pdf(x) <= log_pdf(y), up to the rounding of log_pdf."""
    ly = float(log_pdf(spec, y))
    return float(log_pdf(spec, x)) <= ly + LOG_PDF_ROUNDING * max(abs(ly), 1.0)


class TestModes:
    def test_two_modes_near_the_float_limit(self):
        # c = q delta^2 = 2e300 is finite; at q = 1e308 it is not, and the base
        # is not built (`TestValidation`)
        locs = [m[0] for m in find_modes(bsgt(1.0, 1.0, 2.0, 1e300))]
        assert locs == pytest.approx([-1.0, 1.0], rel=0.0, abs=2e-16)

    def test_single_mode_below_threshold(self):
        for alpha in (0.0, 0.2, 0.4):
            assert [m[0] for m in find_modes(bsn(alpha, 1.0))] == [0.0]

    def test_two_modes_above_threshold(self):
        for alpha in (0.6, 0.8, 1.0):
            locs = [m[0] for m in find_modes(bsn(alpha, 1.0))]
            want = math.sqrt(2.0 - 1.0 / alpha)
            assert len(locs) == 2
            assert locs[0] == pytest.approx(-want, rel=1e-15)
            assert locs[1] == pytest.approx(want, rel=1e-15)

    def test_asymmetric_modes_sit_at_stationary_points(self):
        # each half-line carries its own quadratic: x^2 = 2*gamma^2 - 1/alpha
        # on the right and 2/gamma^2 - 1/alpha on the left
        alpha, gamma = 3.0, 1.5
        modes = find_modes(bsn(alpha, gamma))
        assert len(modes) == 2
        assert modes[0][0] == pytest.approx(-math.sqrt(2.0 / gamma**2 - 1.0 / alpha), rel=1e-15)
        assert modes[1][0] == pytest.approx(math.sqrt(2.0 * gamma**2 - 1.0 / alpha), rel=1e-15)
        assert modes[1][1] > modes[0][1]

    def test_student_modes_sit_at_stationary_points(self):
        # z^2 = (2 alpha s^2 (nu - 2) - (nu + 1)) / (alpha (nu - 1)), s = gamma or 1/gamma
        alpha, gamma, nu = 3.0, 1.5, 5.0
        want = [
            -math.sqrt((2 * alpha * (nu - 2) / gamma**2 - (nu + 1)) / (alpha * (nu - 1))),
            math.sqrt((2 * alpha * (nu - 2) * gamma**2 - (nu + 1)) / (alpha * (nu - 1))),
        ]
        locs = [m[0] for m in find_modes(bsstd(alpha, gamma, nu))]
        assert locs == pytest.approx(want, rel=1e-14)

    def test_mode_heights_match_density(self):
        spec = bsn(0.6, 1.0)
        for loc, height in find_modes(spec):
            assert height == pytest.approx(float(pdf(spec, loc)), abs=1e-12)

    @pytest.mark.parametrize(
        "alpha,gamma,count",
        [(1.0, 1.5, 1), (0.6, 0.5, 1), (0.3, 2.0, 1), (1.2, 1.5, 2), (2.1, 2.0, 2)],
    )
    def test_mode_count_law(self, alpha, gamma, count):
        # both half-lines have an interior stationary point, and so two modes
        # exist, exactly when alpha > max(gamma^2, gamma^-2) / 2
        assert (alpha > max(gamma**2, gamma**-2) / 2.0) == (count == 2)
        assert len(find_modes(bsn(alpha, gamma))) == count

    @pytest.mark.parametrize("nu", [2.001, 2.5, 5.0, 40.0])
    @pytest.mark.parametrize("gamma", [0.3, 1.0, 2.5])
    def test_student_count_law_at_its_threshold(self, nu, gamma):
        threshold = (nu + 1) / (2 * (nu - 2)) * max(gamma**2, gamma**-2)
        assert len(find_modes(bsstd(threshold * (1 - 1e-3), gamma, nu))) == 1
        assert len(find_modes(bsstd(threshold * (1 + 1e-3), gamma, nu))) == 2

    def test_modes_shift_with_location_scale(self):
        base = [m[0] for m in find_modes(bsn(1.0, 1.0))]
        moved = [m[0] for m in find_modes(bsn(1.0, 1.0, 5.0, 2.0))]
        assert moved == [5.0 + 2.0 * x for x in base]

    @pytest.mark.parametrize(
        "spec", [bsn(51, 10), bsn(4.501, 3), bsn(50.5, 0.1), bsn(3, 1.5, loc=1e8, scale=1e-8)],
        ids=["gamma10", "gamma3", "gamma0.1", "loc1e8-scale1e-8"],
    )
    def test_small_mode_beside_the_fold_is_found(self, spec):
        # the smaller mode sits within 0.02 of the fold
        assert len(find_modes(spec)) == 2

    @pytest.mark.parametrize(
        "spec,count",
        [
            (bsgt(3, 1, 1.5, 3), 3),  # p < 2: both interior maxima and the fold
            (bsgt(13.59, 0.4915, 3.0316, 0.6689), 2),  # p > 2: an interior mode near the fold
            (bsgt(9.33, 0.1818, 1.98, 1.0854), 2),  # p < 2: the fold itself
        ],
        ids=["three", "p-above-2", "p-below-2"],
    )
    def test_generalized_t_mode_counts(self, spec, count):
        assert len(find_modes(spec)) == count

    def test_fold_mode_is_exactly_loc(self):
        specs = (bsn(0.2, 1.3, loc=0.7, scale=3.0), bsgt(3, 1, 1.5, 3, loc=-2.5), bsgt(0, 2, 3, 1))
        for spec in specs:
            assert spec.loc in [m[0] for m in find_modes(spec)]

    @given(
        family=st.sampled_from(["bsn", "bsstd", "bsgt"]),
        alpha=st.one_of(st.just(0.0), st.floats(0.0, 15.0)),
        log_gamma=st.floats(-1.0, 1.0),
        log_tail=st.floats(-3.0, 1.5),
        p=st.floats(0.05, 4.0),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_modes_are_the_local_maxima(self, family, alpha, log_gamma, log_tail, p):
        spec = mode_spec(family, alpha, 10.0**log_gamma, 10.0**log_tail, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            modes = [m[0] for m in find_modes(spec)]
        assert modes and modes == sorted(set(modes))
        for x in modes:
            if x != 0.0:
                h = 1e-6 * abs(x)
                assert not_above(spec, x - h, x) and not_above(spec, x + h, x)
        if 0.0 in modes:
            # the fold is checked only toward a side without another mode: on such
            # a side the density falls all the way, while the dip between the fold
            # and an interior mode can be narrower than float resolution
            if modes[0] == 0.0:
                assert not_above(spec, -1e-6, 0.0)
            if modes[-1] == 0.0:
                assert not_above(spec, 1e-6, 0.0)
        for x0, x1 in zip(modes, modes[1:]):
            if x0 < 0.0 < x1:  # two interior maxima: the fold between them is lower
                assert not_above(spec, 0.0, x0) and not_above(spec, 0.0, x1)
        # a grid point that clears both neighbours by more than rounding has a
        # maximum between them, so it must bracket a mode; the grid is geometric
        # toward the fold, and its coarser strides resolve shallow peaks
        side = 12.0 * max(spec.gamma, 1.0 / spec.gamma) * np.logspace(-12.0, 0.0, 4000)
        grid = np.concatenate([-side[::-1], [0.0], side])
        for zs in (grid, grid[::8], grid[::64], grid[::512]):
            lp = log_pdf(spec, zs)
            top = lp[1:-1] - LOG_PDF_ROUNDING * np.maximum(np.abs(lp[1:-1]), 1.0)
            for i in np.flatnonzero((top > lp[:-2]) & (top > lp[2:])) + 1:
                assert any(zs[i - 1] < x < zs[i + 1] for x in modes)


class TestFarTail:
    @pytest.mark.parametrize(
        "spec,want",
        [
            (bsn(1, 1, scale=1e-10), -math.inf),
            (bsstd(1, 1, 5, scale=1e-10), -2830.29018147),
            (bsgt(1, 1, 2, 3, scale=1e-10), -3542.57984583),
        ],
        ids=["bsn", "bsstd", "bsgt"],
    )
    def test_log_pdf_past_an_overflowing_argument(self, spec, want):
        # (x - loc) / scale overflows although x is finite; the answer follows
        # from log|x - loc| - log(scale)
        for x in (1e300, -1e300):
            assert log_pdf(spec, x) == pytest.approx(want, rel=1e-10)
        assert log_pdf(spec, np.inf) == -math.inf
        values = log_pdf(spec, [1e300, 0.5e-10, math.inf])
        assert values[0] == pytest.approx(want, rel=1e-10) and math.isfinite(values[1])

    def test_far_tail_joins_the_finite_path(self):
        # (x - loc) / scale overflows past x = 1.797e298 on the right; on the
        # left, z * gamma overflows past z = -1.198e308 while z stays finite
        pairs = (
            log_pdf(bsstd(1.0, 1.5, 5.0, scale=1e-10), [1.79e298, 1.8e298]),
            log_pdf(bsstd(1.0, 1.5, 5.0), [-1.19e308, -1.2e308]),
            log_pdf(bsstd(0.0, 1.5, 5.0), [-1.19e308, -1.2e308]),
        )
        for near, far in pairs:
            assert far < near and far == pytest.approx(near, abs=0.1)

    @pytest.mark.parametrize(
        "spec,x,want",
        [
            (bsstd(0, 1, 5), 1e200, -2760.519481504022),  # z * z overflows
            (bsn(0.5, 1e100), -1e210, -math.inf),  # z * gamma overflows
            (bsn(0.5, 1e100), 1e250, -5e299),  # alpha z^2 overflows
        ],
        ids=["student-square", "normal-stretch", "normal-tilt"],
    )
    def test_overflowing_terms_warn_nothing(self, spec, x, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_pdf(spec, x) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize(
        "spec,x,want",
        [
            (bsstd(50, 3, 2.05), 1.7e308, -771.24343340826907),
            (bsgt(2, 0.1, 4, 0.6), -1.7e308, -1178.0254349089847),
            (bsgt(50, 0.7, 1.7, 2), 1.7e308, -2349.7447829908774),
            (bsstd(2, 0.1, 30), -1.0924589153335691e294, -32412.964636312084),
            (bsgt(2, 3, 0.5, 5), -1.7976931348623157e308, -1301.4384950026084),
        ],
        ids=["bsstd-nu2.05", "bsgt-p4", "bsgt-p1.7", "bsstd-nu30", "bsgt-p0.5"],
    )
    def test_overflowed_argument_matches_50_digit_values(self, spec, x, want):
        # x - loc and z overflow; the references are the closed form
        # evaluated in 50-digit arithmetic (mpmath)
        spec = DistributionSpec(spec.alpha, spec.gamma, spec.base, loc=1e8, scale=1e-200)
        assert log_pdf(spec, x) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize(
        "spec,x,want,rel",
        [
            # arg overflows, yet (|arg|/delta)^p / q = e^-6.9 is below 1
            (bsgt(0, 0.5, 0.05, 1e20), 1.7e308, -1.0064184990399569e17, 1e-14),
            # z^2 = 1e200, yet z^2 / (nu - 2) = 1e-100 is finite, so log1p takes it
            (bsstd(0, 1, 1e300), 1e100, -5.000000000000000e199, 1e-15),
        ],
        ids=["bsgt-q1e20", "bsstd-nu1e300"],
    )
    def test_log_form_holds_where_the_bracket_is_small(self, spec, x, want, rel):
        # log(1 + e^y) is not y where y is not large; the references are the
        # closed form evaluated in 700-digit arithmetic (mpmath)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_pdf(spec, x) == pytest.approx(want, rel=rel)
            assert pdf(spec, x) == 0.0

    @pytest.mark.parametrize(
        "spec,x,want",
        [
            (bsgt(0, 1, 10, 0.25), 5.577421098253082e30, -249.43862107828328),
            (bsgt(0, 1, 4, 0.6), 8.399697964285896e76, -604.03405232500708),
        ],
        ids=["bsgt-p10", "bsgt-p4"],
    )
    def test_log_form_where_only_the_quotient_by_q_overflows(self, spec, x, want):
        # (|z|/delta)^p is finite and its quotient by q < 1 is not, which read
        # -inf; the references are the closed form in 50-digit arithmetic (mpmath)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_pdf(spec, x) == pytest.approx(want, rel=1e-14)


# z^2 overflows past 1.3e154, which numpy reports
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestBaseFarForm:
    """The heavy-tail bases compute their far-tail log form only where a point
    needs it, the argument v of log1p(v) overflowing, and give what choosing
    between both forms at every point gave, bit for bit."""

    Z = np.concatenate(
        [[0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.5, -3.0, 40.0, 1e149, -1e149],
         np.geomspace(1e29, 1e31, 9), [5.577421098253082e30, -8.399697964285896e76],
         np.geomspace(1e150, 1e308, 25), -np.geomspace(1e150, 1e308, 25),
         [math.inf, -math.inf, math.nan]]
    )

    @staticmethod
    def student_both_forms(base, z):
        z = np.asarray(z, dtype=float)
        nu = base.nu
        with np.errstate(over="ignore"):
            v = z * z / (nu - 2.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = np.where(np.isfinite(v), np.log1p(v), 2.0 * np.log(np.abs(z)) - np.log(nu - 2.0))
        return base._log_norm - 0.5 * (nu + 1) * tail

    @staticmethod
    def gen_t_both_forms(base, z):
        z = np.asarray(z, dtype=float)
        p, q, c = base.p, base.q, base.c
        az = np.abs(z)
        with np.errstate(over="ignore"):
            v = az**p / c
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = np.where(np.isfinite(v), np.log1p(v), p * np.log(az) - np.log(c))
        return base._log_norm - (q + 1.0 / p) * tail

    @classmethod
    def assert_bit_equal(cls, base, reference):
        # the whole grid, each point alone (each path by itself), and columns
        for z in (cls.Z, cls.Z.reshape(-1, 1), *cls.Z):
            got, want = base.log_pdf(z), reference(base, z)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("nu", [2.05, 5.0, 1e15])
    def test_student(self, nu):
        self.assert_bit_equal(StudentTBase(nu), self.student_both_forms)

    @pytest.mark.parametrize("p", [0.5, 1.7, 4.0])
    @pytest.mark.parametrize("pq", [2.05, 5.0, 1e15])
    def test_gen_t(self, p, pq):
        self.assert_bit_equal(GenTBase(p, pq / p), self.gen_t_both_forms)

    def test_gen_t_where_only_the_quotient_by_q_overflows(self):
        # from |z| = 5.5e30, (|z|/delta)^10 is finite but its quotient by q = 0.25 is not
        self.assert_bit_equal(GenTBase(10.0, 0.25), self.gen_t_both_forms)

    def test_finite_squares_warn_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for base in (StudentTBase(2.05), GenTBase(0.5, 5.0), GenTBase(4.0, 1.0)):
                base.log_pdf(np.array([0.0, 5e-324, 3.0, 1e149]))
                base.log_pdf(0.0)


@pytest.mark.parametrize("alpha", [0.0, np.float64(0.0), 2.0], ids=["0", "numpy-0", "2"])
@pytest.mark.parametrize(
    "spec", [bsn(0.0, 1.0), bsstd(0.0, 1.5, 5.0), bsgt(0.0, 0.7, 1.7, 2.0)], ids=["bsn", "bsstd", "bsgt"]
)
def test_log_pdf_at_infinity_warns_nothing(spec, alpha):
    # at alpha = 0 an infinite z must not reach alpha z^2 = 0 * inf
    spec = DistributionSpec(alpha, spec.gamma, spec.base, spec.loc, spec.scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_pdf(spec, math.inf) == log_pdf(spec, -math.inf) == -math.inf
        values = log_pdf(spec, np.array([math.inf, -math.inf, 0.5]))
    assert values[:2].tolist() == [-math.inf, -math.inf]
    assert values[2] == log_pdf(spec, 0.5)


class TestSharedBaseKernel:
    """`_log_density` on rows of members that share a base, one row each,
    equals `log_pdf` of each member alone, bit for bit."""

    POINTS = [0.0, -0.0, 0.3, -2.5, 7.0, 1e300, -1e300, math.inf, -math.inf]
    # (alpha, gamma, loc, scale): alpha 0 and > 0, gamma 0.5 to 2, moved and
    # rescaled members, and two slow rows: at 1e300 a tiny alpha leaves
    # alpha z^2 finite while z / gamma overflows, and a unit alpha overflows
    # alpha z^2 itself
    MEMBERS = [
        (0.0, 1.0, 0.0, 1.0),
        (0.0, 0.5, 0.0, 1.0),
        (1.0, 2.0, 0.0, 1.0),
        (3.0, 0.8, -1.5, 2.5),
        (10.0, 1.3, 4.0, 1e-3),
        (1e-320, 0.5, 0.0, 1e-8),
        (1.0, 1.1, 0.0, 1e-8),
    ]
    BASES = [
        NormalBase(),
        StudentTBase(3.0),
        StudentTBase(8.0),
        GenTBase(1.7, 2.0),
        GenTBase(2.3, 2.0),
    ]

    @staticmethod
    def rows(base, members, xs):
        specs = [DistributionSpec(a, g, base, loc, scale) for a, g, loc, scale in members]
        names = ("alpha", "gamma", "b", "loc", "scale")
        columns = [np.array([[getattr(s, name)] for s in specs]) for name in names]
        return specs, _log_density(base, *columns, xs)

    @pytest.mark.parametrize("base", BASES, ids=["normal", "student3", "student8", "gent", "gent2.3"])
    def test_rows_equal_each_member_alone(self, base):
        xs = np.tile(self.POINTS, (len(self.MEMBERS), 1))
        specs, rows = self.rows(base, self.MEMBERS, xs)
        for spec, row in zip(specs, rows):
            assert row.tobytes() == log_pdf(spec, xs[0]).tobytes()

    @pytest.mark.parametrize("base", BASES, ids=["normal", "student3", "student8", "gent", "gent2.3"])
    def test_one_slow_row_leaves_the_others_as_alone(self, base):
        # the other rows take the fast path alone, and the whole call the slow one
        xs = np.tile(np.linspace(-9.0, 9.0, 37), (len(self.MEMBERS), 1))
        xs[-2, -1] = 1e300
        specs, rows = self.rows(base, self.MEMBERS, xs)
        for spec, row, x in zip(specs, rows, xs):
            assert row.tobytes() == log_pdf(spec, x).tobytes()

    def test_float_in_float_out(self):
        for spec in (bsn(1.0, 1.5), bsstd(1.0, 1.5, 5.0), bsgt(1.0, 1.5, 1.7, 2.0)):
            assert type(log_pdf(spec, 0.7)) is float
            assert log_pdf(spec, 0.7) == log_pdf(spec, np.array([0.7]))[0]


class TestMoments:
    @pytest.mark.parametrize(
        "spec,flags",
        [
            (bsstd(1.0, 1.0, 3.0), {1: False, 2: False, 3: False, 4: False}),
            (bsstd(0.0, 1.0, 3.0), {1: True, 2: True, 3: False, 4: False}),
            (bsstd(1.0, 1.0, 4.0), {1: True, 2: False, 3: False, 4: False}),
            (bsstd(1.0, 1.0, 8.0), {1: True, 2: True, 3: True, 4: True}),
            (bsgt(1.0, 1.0, 2.0, 2.0), {1: True, 2: False, 3: False, 4: False}),
            (bsgt(0.0, 1.0, 1.7, 2.0), {1: True, 2: True, 3: True, 4: False}),
            (bsgt(1.0, 1.0, 2.0, 5.0), {1: True, 2: True, 3: True, 4: True}),
        ],
        ids=["nu3", "nu3-flat", "nu4", "nu8", "pq4", "pq3.4-flat", "pq10"],
    )
    def test_existence_boundaries(self, spec, flags):
        # a positive tilt spends two extra powers of x, so it tightens the
        # tail requirement relative to the untilted case
        for r, want in flags.items():
            assert moment_exists(spec, r) is want

    def test_existence_names_the_order_it_was_given(self):
        with pytest.raises(DomainError, match="got 1.5"):
            moment_exists(bsstd(1.0, 1.0, 3.0), 1.5)

    def test_divergent_moment_raises(self):
        with pytest.raises(ExistenceError):
            full_moment(bsstd(1.0, 1.0, 4.0), 2)

    def test_report_marks_divergent_orders(self):
        rep = moment_report(bsstd(1.0, 1.0, 4.0), orders=(1, 2))
        assert rep[0].exists and rep[0].full is not None
        assert not rep[1].exists and rep[1].full is None

    # p*q rounds to 3.0000000000000004 while q - 3/p, the argument of the
    # moment's Gamma, is exactly 0: once reported as existing, inf and NaN
    P_EDGE = 2.8999748958312104

    def test_order_at_the_boundary_does_not_exist(self):
        spec = bsgt(0.0, 1.0, self.P_EDGE, 3.0 / self.P_EDGE)
        rep = moment_report(spec)[2]
        assert not rep.exists and (rep.base_abs, rep.skew, rep.full) == (None, None, None)
        with pytest.raises(ExistenceError):
            spec.base.abs_moment(3)

    def test_tilt_at_the_boundary_raises(self):
        p = 1.1682457131811113  # once gave a first full moment of NaN
        spec = bsgt(14.903310349297868, 1.0, p, 3.0 / p)
        assert not moment_exists(spec, 1)
        with pytest.raises(ExistenceError):
            full_moment(spec, 1)

    # (order, call): each once came back NaN or inf, raised a bare OverflowError or warned
    PAST_THE_RANGE = {
        "full-nan": (2, lambda: full_moment(bsn(3.0, 1.5, loc=-1e154, scale=1e154), 2)),
        "report-nan": (2, lambda: moment_report(bsn(3.0, 1.5, loc=-1e154, scale=1e154), orders=(2,))),
        "full-inf": (1, lambda: full_moment(bsn(3.0, 1.5, loc=1.7e308, scale=1e308), 1)),
        "full-loc-power": (2, lambda: full_moment(bsn(0.0, 1.0, loc=1e200), 2)),
        "skew-gamma-power": (200, lambda: skew_moment(bsn(0.0, 1e3), 200)),
        "skew-base-exp": (400, lambda: skew_moment(bsn(0.0, 1.0), 400)),
    }

    @pytest.mark.parametrize("probe", list(PAST_THE_RANGE))
    def test_moment_past_the_float_range_raises(self, probe):
        order, call = self.PAST_THE_RANGE[probe]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=f"order-{order} moment"):
                call()

    def test_odd_moments_vanish_when_symmetric(self):
        for spec in (bsn(1.0, 1.0), bsstd(2.0, 1.0, 8.0)):
            assert full_moment(spec, 1) == pytest.approx(0.0, abs=1e-14)
            assert full_moment(spec, 3) == pytest.approx(0.0, abs=1e-14)

    def test_moments_scale_with_sigma(self):
        lhs = full_moment(bsn(1.0, 1.5, 0.0, 2.0), 2)
        rhs = 4.0 * full_moment(bsn(1.0, 1.5), 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: bsstd(1.0, 1.0, 2.0),
            lambda: bsgt(1.0, 1.0, 2.0, 1.0),
            lambda: bsgt(1.0, 1.0, 0.0, 5.0),
            lambda: bsn(1.0, 0.0),
            lambda: bsn(-0.5, 1.0),
            lambda: bsn(1.0, 1.0, 0.0, -1.0),
            lambda: bsn(float("nan"), 1.0),
            lambda: bsgt(1.0, 1.0, float("nan"), 2.0),
            lambda: bsgt(1.0, 1.0, 2.0, float("inf")),
            lambda: bsstd(1.0, 1.0, float("inf")),
            lambda: StudentTBase(float("inf")),
            lambda: GenTBase(float("nan"), 2.0),
            lambda: bsgt(1.0, 1.0, 0.01, 300.0),
            lambda: GenTBase(0.01, 300.0),
            # q delta^p overflows: at p = 10 and 4 mode finding never returned
            lambda: GenTBase(10.0, 1e306),
            lambda: GenTBase(4.0, 1e308),
            lambda: GenTBase(2.0, 1e308),
        ],
        ids=[
            "nu-at-2", "pq-at-2", "p-zero", "gamma-zero", "alpha-neg", "scale-neg", "alpha-nan",
            "p-nan", "q-inf", "nu-inf", "student-base-nu-inf", "gent-base-p-nan",
            "variance-overflow", "gent-base-variance-overflow",
            "gent-base-c-overflow-p10", "gent-base-c-overflow-p4", "gent-base-c-overflow-p2",
        ],
    )
    def test_bad_parameters_rejected(self, build):
        with pytest.raises(DomainError):
            build()

    def test_second_moment_far_from_one(self):
        # gamma**3 or gamma**-3 used to raise a bare OverflowError from about
        # 5.6e102 and 1.8e-103; there b(gamma) is max(gamma, 1/gamma)^2
        for g in (5.7e102, 1e120, 1.3e154):
            assert two_piece_second_moment(g) == bsn(0.0, g).b == g**2
            assert two_piece_second_moment(1.0 / g) == pytest.approx(g**2, rel=1e-15)
        assert bsn(0.0, 1.7e-103).b == 1.7e-103**-2
        below, above = 5.64e102, 5.65e102  # gamma**3 overflows between them
        assert two_piece_second_moment(below) == pytest.approx(below**2, rel=1e-15)
        assert two_piece_second_moment(above) == above**2

    @pytest.mark.parametrize("gamma", [1.4e154, 1e300, 7e-155, 5e-324])
    def test_second_moment_overflow_raises(self, gamma):
        with pytest.raises(DomainError, match="overflows"):
            two_piece_second_moment(gamma)
        with pytest.raises(DomainError, match="overflows"):
            bsstd(1.0, gamma, 5.0)

    @pytest.mark.parametrize(
        "alpha,gamma,finite_alpha", [(1e300, 1e5, 1e298), (10.0, 1.3e154, 1.0), (2.0, 1e-154, 1.0)]
    )
    def test_tilt_normalizer_overflow_raises(self, alpha, gamma, finite_alpha):
        # 1 + alpha*b used to read as inf, so pdf was 0 and cdf 0.0 everywhere
        # and sample drew no tilted component (inf/inf = NaN)
        for build in (lambda: bsn(alpha, gamma), lambda: bsstd(alpha, gamma, 5.0)):
            with pytest.raises(DomainError, match="overflows"):
                build()
        assert math.isfinite(finite_alpha * bsn(finite_alpha, gamma).b)

    def test_second_moment_unchanged_where_it_is_finite(self):
        for g in np.logspace(-102.5, 102.7, 121):
            g = float(g)
            assert two_piece_second_moment(g) == (g**3 + g**-3) / (g + 1.0 / g)

    def test_family_is_read_off_the_base(self):
        assert [s.family for s in (bsn(1, 1), bsstd(1, 1, 5), bsgt(1, 1, 2, 2))] == [
            "bsn", "bsstd", "bsgt",
        ]
        with pytest.raises(DomainError):
            DistributionSpec(1.0, 1.0, object())

    def test_threshold_tilt_is_valid_but_unimodal(self):
        assert len(find_modes(bsn(0.5, 1.0))) == 1
