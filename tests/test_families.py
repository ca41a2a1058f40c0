"""Density-level behavior: closed forms, reductions, moments, modes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm, t as student_t

from bimodalskew.bases import GenTBase, StudentTBase, gt_standard_scale
from bimodalskew.errors import DomainError, ExistenceError
from bimodalskew.families import (
    DistributionSpec,
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

    def test_vector_path_matches_scalar(self):
        spec = bsgt(1.0, 0.8, 2.3, 2.0)
        vec = cdf_values(spec, GRID)
        np.testing.assert_allclose(vec, [cdf(spec, float(x)) for x in GRID], atol=1e-10)
        assert np.all(np.diff(vec) >= 0)


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


# numpy reports the overflow of (x - loc) / scale as it happens; log_pdf keeps
# that warning rather than pay for an errstate guard on every call
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
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

    def test_divergent_moment_raises(self):
        with pytest.raises(ExistenceError):
            full_moment(bsstd(1.0, 1.0, 4.0), 2)

    def test_report_marks_divergent_orders(self):
        rep = moment_report(bsstd(1.0, 1.0, 4.0), orders=(1, 2))
        assert rep[0].exists and rep[0].full is not None
        assert not rep[1].exists and rep[1].full is None

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
            lambda: GenTBase(float("nan"), 2.0, 1.0),
        ],
        ids=[
            "nu-at-2", "pq-at-2", "p-zero", "gamma-zero", "alpha-neg", "scale-neg", "alpha-nan",
            "p-nan", "q-inf", "nu-inf", "student-base-nu-inf", "gent-base-p-nan-given-delta",
        ],
    )
    def test_bad_parameters_rejected(self, build):
        with pytest.raises(DomainError):
            build()

    def test_family_is_read_off_the_base(self):
        assert [s.family for s in (bsn(1, 1), bsstd(1, 1, 5), bsgt(1, 1, 2, 2))] == [
            "bsn", "bsstd", "bsgt",
        ]
        with pytest.raises(DomainError):
            DistributionSpec(1.0, 1.0, object())

    def test_threshold_tilt_is_valid_but_unimodal(self):
        assert len(find_modes(bsn(0.5, 1.0))) == 1
