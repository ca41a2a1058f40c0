"""Independent quadrature and the identity-check harness."""

import gc
import math
import multiprocessing
import os
from functools import partial

import numpy as np
import pytest
from scipy import special, stats

from bimodalskew import _workers, oracle
from bimodalskew.bases import NormalBase
from bimodalskew.errors import DomainError, ExistenceError
from bimodalskew.families import (
    bsgt,
    bsn,
    bsstd,
    cdf_values,
    full_moment,
    log_pdf,
    pdf,
    two_piece_second_moment,
)
from bimodalskew.oracle import (
    _beta_prime_pdf,
    _corrupt,
    _integrate_rows,
    _ks_2samp_pvalue,
    _ks_from_cdf,
    _ks_sorted,
    _masses,
    _moment_integrals,
    _normal_pdf,
    _oracle_moment,
    _plan,
    _quadratic_tilt_cdf,
    _results,
    _student_pdf,
    _tail_plan,
    _uniform_gg_densities,
    gamma_mixture_density,
    gg_mixture_density,
    integrate,
    ks_distance,
    mc_moment,
    run_checks,
    uniform_gg_mixture_density,
    uniform_mixture_density,
)
from bimodalskew.sampling import RngStream, sample


class TestIntegrate:
    def test_polynomial_on_finite_interval(self):
        res = integrate(lambda x: x * x, 0.0, 1.0)
        assert res.converged
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_gaussian_mass_over_the_line(self):
        res = integrate(lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), -np.inf, np.inf)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_exponential_on_half_line(self):
        res = integrate(np.exp, -np.inf, 0.0)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_kink_is_split_automatically(self):
        res = integrate(np.abs, -1.0, 2.0)
        assert res.value == pytest.approx(2.5, abs=1e-13)

    def test_declared_breakpoints(self):
        f = lambda x: np.where(x < 0.5, 1.0, 3.0)
        res = integrate(f, 0.0, 1.0, points=(0.5,))
        assert res.value == pytest.approx(2.0, abs=1e-10)

    def test_endpoint_singularity(self):
        # x^-0.6 is integrable but unbounded; bisection must chase the corner
        res = integrate(lambda x: np.asarray(x, dtype=float) ** -0.6, 0.0, 1.0, tol=1e-9)
        assert res.converged
        assert res.value == pytest.approx(2.5, abs=1e-8)

    def test_interior_singularity(self):
        res = integrate(lambda x: np.abs(x) ** -0.5, -1.0, 1.0, tol=1e-9)
        assert res.value == pytest.approx(4.0, abs=1e-7)

    def test_slow_power_tail(self):
        res = integrate(lambda x: np.asarray(x, dtype=float) ** -2.4, 1.0, np.inf, tol=1e-10)
        assert res.value == pytest.approx(1.0 / 1.4, abs=1e-9)

    def test_budget_exhaustion_is_reported(self):
        res = integrate(lambda x: np.abs(x) ** -0.5, -1.0, 1.0, tol=1e-14, max_evals=300)
        assert not res.converged
        assert res.abs_error_estimate > 1e-14
        assert res.evaluations <= 300

    def test_error_estimate_covers_true_error(self):
        res = integrate(lambda x: np.asarray(x, dtype=float) ** -0.6, 0.0, 1.0, tol=1e-9)
        assert abs(res.value - 2.5) <= 10.0 * max(res.abs_error_estimate, 1e-15)

    def test_nan_reaches_a_finite_range_result(self):
        nan = lambda x: np.full_like(x, np.nan)
        res = integrate(nan, 0.0, 1.0)
        assert math.isnan(res.value) and not res.converged
        # on a folded range non-finite values count as zero
        assert integrate(nan, 0.0, np.inf).value == 0.0

    def test_shared_rounds_match_separate_integrals(self):
        cases = [
            (lambda x: np.exp(-0.5 * x * x), -np.inf, np.inf),
            (np.exp, -np.inf, 0.0),
            (lambda x: np.asarray(x, dtype=float) ** -2.4, 1.0, np.inf),
            (np.abs, -1.0, 2.0),
            (lambda x: np.asarray(x, dtype=float) ** -0.6, 0.0, 1.0),
            (lambda x: np.abs(x) ** -0.5, -1.0, 1.0),  # runs out of budget
        ]

        def rows_f(xs, rows):
            return np.stack([cases[j][0](x) for j, x in zip(rows, xs)])

        shared = _results(_integrate_rows(rows_f, [_plan(a, b) for _, a, b in cases], 1e-10, 3000))
        alone = [integrate(f, a, b, tol=1e-10, max_evals=3000) for f, a, b in cases]
        assert shared == alone
        assert [r.converged for r in shared] == [True] * 5 + [False]

        # the normalization grid's batch: each row goes to its own spec's pdf
        specs = [
            bsn(10.0, 0.5),
            bsstd(3.0, 1.1, 3.0),
            bsgt(0.0, 0.9, 1.7, 2.0),
            bsgt(1.0, 1.5, 2.0, 5.0),
            _corrupt(bsgt(0.5, 1.0, 2.3, 2.0), 1.05),
        ]
        alone = [integrate(lambda xs: pdf(s, xs), -np.inf, np.inf, tol=1e-10) for s in specs]
        assert _masses(specs) == alone
        assert abs(alone[-1].value - 1.0) > 1e-3  # the corrupted spec does not integrate to 1

    def test_mixed_tolerances_stop_where_each_stops_alone(self):
        cases = [
            (lambda x: np.exp(-0.5 * x * x), -np.inf, np.inf, 1e-6),
            (lambda x: np.exp(-0.5 * x * x), -np.inf, np.inf, 1e-13),
            (np.exp, -np.inf, 0.0, 1e-9),
            (lambda x: np.asarray(x, dtype=float) ** -2.4, 1.0, np.inf, 1e-12),
            (lambda x: np.asarray(x, dtype=float) ** -0.6, 0.0, 1.0, 1e-7),
            (lambda x: np.asarray(x, dtype=float) ** -0.6, 0.0, 1.0, 1e-11),
        ]

        def rows_f(xs, rows):
            return np.stack([cases[j][0](x) for j, x in zip(rows, xs)])

        plans = [_plan(a, b) for _, a, b, _ in cases]
        shared = _results(_integrate_rows(rows_f, plans, [tol for *_, tol in cases], 3000))
        alone = [integrate(f, a, b, tol=tol, max_evals=3000) for f, a, b, tol in cases]
        assert [(r.value.hex(), r.abs_error_estimate.hex(), r.evaluations, r.converged) for r in shared] == [
            (r.value.hex(), r.abs_error_estimate.hex(), r.evaluations, r.converged) for r in alone
        ]
        # the tolerances part the integrals: each stops at its own
        assert alone[0].evaluations < alone[1].evaluations and alone[4].evaluations < alone[5].evaluations

    def test_masses_of_specs_that_share_bases(self):
        # a subset of the normalization grid: five bases, each shared by four specs
        specs = [
            make(a, g)
            for a in (0.0, 10.0)
            for g in (0.5, 1.1)
            for make in (
                bsn,
                lambda a, g: bsstd(a, g, 3.0),
                lambda a, g: bsstd(a, g, 8.0),
                lambda a, g: bsgt(a, g, 1.7, 2.0),
                lambda a, g: _corrupt(bsgt(a, g, 2.3, 2.0), 1.05),
            )
        ]
        alone = [integrate(partial(pdf, s), -np.inf, np.inf, tol=1e-10) for s in specs]

        def fields(results):
            return [(r.value.hex(), r.abs_error_estimate.hex(), r.evaluations, r.converged) for r in results]

        assert fields(_masses(specs)) == fields(alone)
        assert fields(_masses(specs[::-1])) == fields(alone[::-1])

    def test_ties_go_to_the_oldest_panel(self):
        # a constant integrand gives the panels of one width equal errors;
        # the older is split first, so each width is worked left to right
        lefts = []

        def f(x):
            lefts.append(round(float(x[0]), 2))  # the first node sits just right of the left end
            return np.ones_like(x)

        integrate(f, 0.0, 1.0, tol=1e-300, max_evals=210)
        assert lefts == [0.0, 0.0, 0.5, 0.0, 0.25, 0.5, 0.75]

    @pytest.mark.parametrize(
        "f,a,b,kw,want",
        [
            (lambda x: np.full_like(x, np.nan), 0.0, 1.0, {}, ("nan", "nan", 30)),
            (lambda x: np.full_like(x, np.nan), 0.0, np.inf, {}, ("0x0.0p+0", "0x0.0p+0", 30)),
            (
                lambda x: np.abs(x) ** -0.5, -1.0, 1.0, dict(tol=1e-14, max_evals=300),
                ("0x1.fdeece052b9bep+1", "0x1.52384dd9c03fbp-2", 300),
            ),
            # 2^-49 wide: bisection reaches panels one ulp wide, which are
            # retired unsplit until none is left
            (
                np.exp, 1.0, 1.0 + 2.0**-49, dict(tol=1e-300),
                ("0x1.5bf0a8b14576ep-48", "0x1.ffffffffffffep-101", 210),
            ),
            (
                lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), -np.inf, np.inf, {},
                ("0x1.0000000000000p+0", "0x1.998ee0aaed9ffp-35", 300),
            ),
            (np.exp, -np.inf, 0.0, {}, ("0x1.fffffffffffffp-1", "0x1.f35ab7d385553p-36", 150)),
            (
                lambda x: np.asarray(x, dtype=float) ** -2.4, 1.0, np.inf, dict(tol=1e-10),
                ("0x1.6db6db6db6effp-1", "0x1.202eccb32388bp-34", 660),
            ),
        ],
        ids=["nan", "nan-folded", "budget", "retired-panels", "gauss-line", "exp-tail", "power-tail"],
    )
    def test_pinned_outputs(self, f, a, b, kw, want):
        # pinned bit for bit: any change to the bisection order or the sums shows
        res = integrate(f, a, b, **kw)
        assert (res.value.hex(), res.abs_error_estimate.hex(), res.evaluations) == want

    @pytest.mark.parametrize(
        "a,b",
        [(1.0, 1.0), (2.0, 1.0), (float("nan"), 1.0)],
        ids=["empty", "reversed", "nan"],
    )
    def test_bad_intervals_rejected(self, a, b):
        with pytest.raises(DomainError):
            integrate(lambda x: x, a, b)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 0.0, 1.0, tol=0.0)


class TestMixtureRoutes:
    """Numeric marginalization of each latent layer against the closed form."""

    def test_gamma_precision_layer(self):
        spec = bsstd(1.0, 1.5, 4.0)
        for x in (-1.2, 0.0, 0.7):
            res = gamma_mixture_density(x, 1.0, 1.5, 4.0)
            assert res.value == pytest.approx(float(pdf(spec, x)), abs=1e-8)

    def test_uniform_layer_over_normal(self):
        spec = bsn(0.0, 2.0, 0.0, 2.5**-0.5)
        for x in (-0.7, 0.4):
            res = uniform_mixture_density(x, 2.0, 2.5)
            assert res.value == pytest.approx(float(pdf(spec, x)), abs=1e-8)

    def test_gen_gamma_scale_layer(self):
        spec = bsgt(1.0, 0.8, 2.3, 2.0)
        res = gg_mixture_density(0.5, 1.0, 0.8, 2.3, 2.0)
        assert res.value == pytest.approx(float(pdf(spec, 0.5)), abs=1e-7)

    def test_double_layer_uniform_over_gen_gamma(self):
        spec = bsgt(1.0, 1.5, 2.0, 2.0)
        res = uniform_gg_mixture_density(0.5, 1.0, 1.5, 2.0, 2.0)
        assert res.value == pytest.approx(float(pdf(spec, 0.5)), abs=1e-4)

    def test_double_layer_evaluation_count(self):
        # the inner integrals share rounds but bisect as they would alone
        res = uniform_gg_mixture_density(0.5, 1.0, 1.5, 2.3, 2.0)
        assert res.evaluations == 17520
        assert res.value == pytest.approx(float(pdf(bsgt(1.0, 1.5, 2.3, 2.0), 0.5)), abs=1e-4)

    @pytest.mark.parametrize(
        "point,want",
        [
            ((0.5, 1.0, 1.5, 2.3, 2.0), ("0x1.7979646720c7ap-3", "0x1.500e862deb03ep-24", 17520)),
            ((-2.0, 1.0, 0.8, 1.7, 2.0), ("0x1.ec2bba6d8e555p-4", "0x1.37ac5fe26a1cbp-24", 29520)),
            ((0.0, 1.0, 1.5, 2.0, 2.0), ("0x1.74165b092655ep-3", "0x1.00e7d4f9fc4f1p-25", 31680)),
        ],
        ids=["p2.3", "p1.7", "p2"],
    )
    def test_double_layer_pinned_outputs(self, point, want):
        # pinned bit for bit: any change to the bisection order or the sums shows
        res = uniform_gg_mixture_density(*point)
        assert (res.value.hex(), res.abs_error_estimate.hex(), res.evaluations) == want

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_double_layer_rejects_a_non_finite_inner_lower_limit(self, x):
        # x enters the inner lower limit (|x| stretched times sqrt(s) over a scale)^p
        with pytest.raises(DomainError):
            uniform_gg_mixture_density(x, 1.0, 1.5, 2.0, 2.0)

    @pytest.mark.parametrize("lowers", [[0.5, math.nan], [math.inf], [0.0, -1.0]])
    def test_tail_plan_rejects_bad_lower_limits(self, lowers):
        with pytest.raises(DomainError):
            _tail_plan(lowers)

    def test_tail_plan_is_the_one_point_plan(self):
        lowers = [0.0, 1e-300, 0.7, 3e5]
        anchors, panels = _tail_plan(lowers)
        assert anchors.tolist() == lowers
        assert all(_plan(a, math.inf) == (a, panels) for a in lowers)

    def test_double_layer_batch_gives_the_one_point_results(self):
        # mixed p, repeated points, and the order of the suite turned around
        points = [
            (2.0, 1.0, 1.5, 2.3, 2.0),
            (-0.5, 1.0, 0.8, 1.7, 2.0),
            (0.0, 1.0, 1.5, 2.0, 2.0),
            (-0.5, 1.0, 0.8, 1.7, 2.0),
            (0.5, 1.0, 0.8, 2.0, 2.0),
        ]
        assert _uniform_gg_densities(points) == [uniform_gg_mixture_density(*pt) for pt in points]


class TestMomentTasks:
    """A moment task's integrals share one round loop and give the values of
    three one-integral `integrate` calls per moment."""

    @staticmethod
    def alone(spec, r):
        # E(X^r) from three separate integrals: the center and the two tails in u = 1/x
        cut = 16.0 * max(1.0, abs(spec.loc) + spec.scale)
        center = integrate(lambda xs: xs**r * pdf(spec, xs), -cut, cut, tol=4e-10)

        def tail(sign):
            def g(us):
                us = np.maximum(us, 1e-150)
                return np.exp(-(r + 2.0) * np.log(us) + log_pdf(spec, sign / us))

            return integrate(g, 0.0, 1.0 / cut, tol=3e-10)

        return center.value + tail(1.0).value + (-1.0) ** r * tail(-1.0).value

    @pytest.mark.parametrize(
        "label,spec,orders",
        [
            ("bsstd alpha=1 gamma=0.8 nu=8", bsstd(1.0, 0.8, 8.0), (1, 2, 3, 4)),
            ("bsgt alpha=0 gamma=1.2 p=1.7 q=2", bsgt(0.0, 1.2, 1.7, 2.0), (1, 2, 3)),
        ],
        ids=["bsstd", "bsgt-slow-tails"],
    )
    def test_task_values_equal_separate_integrals(self, monkeypatch, label, spec, orders):
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
        loops = []
        real = oracle._integrate_rows
        monkeypatch.setattr(oracle, "_integrate_rows", lambda *a: loops.append(1) or real(*a))
        records = run_checks(only=f"moments/{label} ")
        assert [r["identity"] for r in records] == [f"moments/{label} r={r}" for r in orders]
        assert len(loops) == 1
        for rec, r in zip(records, orders):
            alone = self.alone(spec, r)
            assert rec["value"] == abs(full_moment(spec, r) - alone)
            assert _oracle_moment(spec, r).hex() == alone.hex()

    def test_items_carry_their_tolerances(self):
        items, value = _moment_integrals(bsn(1.0, 0.5), 2)
        assert [(a, b, tol) for _, a, b, tol in items] == [(-16.0, 16.0, 4e-10), (0.0, 1 / 16, 3e-10)] + [
            (0.0, 1 / 16, 3e-10)
        ]
        assert value([1.0, 2.0, 4.0]) == 7.0
        assert _moment_integrals(bsn(1.0, 0.5), 3)[1]([1.0, 2.0, 4.0]) == -1.0


class TestCallCounts:
    """Counted, not timed: the check's batches make few density calls and round loops."""

    def test_normalization_evaluates_each_base_once_per_round(self, monkeypatch):
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
        calls, per_round = [0], []
        kernel, rounds = oracle._log_density, oracle._gk_rows

        def counted(*args):
            calls[0] += 1
            return kernel(*args)

        def round_(*args):
            before = calls[0]
            out = rounds(*args)
            per_round.append(calls[0] - before)
            return out

        monkeypatch.setattr(oracle, "_log_density", counted)
        monkeypatch.setattr(oracle, "_gk_rows", round_)
        records = run_checks(only="normalization/")
        assert len(records) == 200
        assert per_round and max(per_round) <= 8
        assert sum(per_round) == calls[0]

    def test_one_round_loop_per_moment_task(self, monkeypatch):
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
        loops = []
        real = oracle._integrate_rows
        monkeypatch.setattr(oracle, "_integrate_rows", lambda *a: loops.append(len(a[1])) or real(*a))
        records = run_checks(only="moments/")
        orders = {}  # moment task: its number of moments
        for r in records:
            if " r=" in r["identity"]:
                task = r["identity"].rsplit(" r=", 1)[0]
                orders[task] = orders.get(task, 0) + 1
        assert len(orders) == 10
        # one loop per task, holding the three integrals of each of its moments
        assert sorted(loops) == sorted(3 * k for k in orders.values())


class TestSampleDiagnostics:
    def test_ks_distance_accepts_matching_sample(self):
        x = RngStream(40, 0).generator.standard_normal(5000)
        assert ks_distance(x, bsn(0.0, 1.0)) < 1.63 / math.sqrt(5000)

    def test_ks_distance_flags_shifted_sample(self):
        x = RngStream(40, 1).generator.standard_normal(5000) + 0.5
        assert ks_distance(x, bsn(0.0, 1.0)) > 0.1

    def test_mc_moment_agrees_with_closed_form(self):
        from bimodalskew.families import full_moment

        spec = bsn(1.0, 1.5)
        res = mc_moment(spec, 2, 200_000, RngStream(40, 2))
        assert abs(res.value - full_moment(spec, 2)) < 5.0 * res.abs_error_estimate

    def test_two_sample_pvalue_is_the_smirnov_limit(self):
        a = RngStream(40, 4).generator.standard_normal(3000)
        b = RngStream(40, 5).generator.standard_normal(2000) + 0.05
        d = stats.ks_2samp(a, b).statistic
        want = special.kolmogorov(math.sqrt(3000 * 2000 / 5000) * d)
        assert _ks_2samp_pvalue(a, b) == pytest.approx(want, rel=1e-12)

    def test_quadratic_tilt_cdf_integrates_its_density(self):
        gamma = 2.0
        xs = np.array([-3.0, -0.4, 0.0, 0.9, 5.0])
        tilt_pdf = lambda v: v**2 * pdf(bsn(0.0, gamma), v) / two_piece_second_moment(gamma)
        want = [integrate(tilt_pdf, -np.inf, x, tol=1e-12).value for x in xs]
        np.testing.assert_allclose(_quadratic_tilt_cdf(xs, gamma, NormalBase()), want, atol=1e-11)

    def test_reference_densities_match_scipy_stats(self):
        xs = np.linspace(-10.0, 10.0, 401)
        ws = np.linspace(0.01, 50.0, 400)
        np.testing.assert_allclose(_normal_pdf(xs), stats.norm.pdf(xs), rtol=1e-14, atol=0)
        np.testing.assert_allclose(_student_pdf(xs, 5.0), stats.t.pdf(xs, 5.0), rtol=1e-13, atol=0)
        np.testing.assert_allclose(
            _beta_prime_pdf(ws, 1.0 / 1.7, 2.0), stats.betaprime.pdf(ws, 1.0 / 1.7, 2.0), rtol=1e-13
        )

    def test_mc_moment_refuses_divergent_order(self):
        with pytest.raises(ExistenceError):
            mc_moment(bsstd(1.0, 1.0, 4.0), 2, 1000, RngStream(40, 3))


class TestBracketedKs:
    """`_ks_sorted` evaluates the CDF only where the maximum can be, and
    must give what evaluating it at every point gives, bit for bit."""

    @staticmethod
    def same(xs, spec):
        xs = np.sort(np.asarray(xs, dtype=float))
        assert _ks_sorted(xs, partial(cdf_values, spec)) == _ks_from_cdf(cdf_values(spec, xs))

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 33])
    def test_small_samples(self, n):
        self.same(sample(bsstd(1.0, 1.5, 4.0), n, RngStream(41, n)), bsstd(1.0, 1.5, 4.0))

    @pytest.mark.parametrize(
        "spec",
        [bsn(0.0, 1.0), bsgt(1.0, 1.5, 1.7, 2.0), bsstd(3.0, 0.5, 2.5)],
        ids=["bsn", "bsgt", "bsstd"],
    )
    def test_sample_from_the_wrong_spec(self, spec):
        # a large D, with many gaps within reach of it
        self.same(sample(bsn(1.0, 1.5), 5000, RngStream(41, 100)), spec)

    def test_repeated_values(self):
        draws = sample(bsn(1.0, 1.5), 5000, RngStream(41, 101))
        self.same(np.round(draws, 1), bsn(1.0, 1.5))
        self.same(np.repeat(draws[:300], 17), bsn(1.0, 1.5))

    def test_infinite_draws(self):
        draws = sample(bsgt(1.0, 1.5, 1.7, 2.0), 1000, RngStream(41, 102))
        draws[[3, 400, 999]] = [-np.inf, np.inf, np.inf]
        self.same(draws, bsgt(1.0, 1.5, 1.7, 2.0))

    def test_nan_is_evaluated_and_rejected(self):
        # NaN sorts last, and the last point is always evaluated
        draws = sample(bsn(1.0, 1.5), 1000, RngStream(41, 103))
        draws[17] = np.nan
        with pytest.raises(DomainError):
            ks_distance(draws, bsn(1.0, 1.5))

    def test_empty_sample_is_rejected(self):
        with pytest.raises(DomainError):
            ks_distance([], bsn(1.0, 1.5))

    @pytest.mark.parametrize(
        "n,only", [(2000, "sampler/"), (100_000, "sampler/bsstd")], ids=["n2000", "n1e5"]
    )
    def test_sampler_gates_match_full_evaluation(self, monkeypatch, n, only):
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
        bracketed = run_checks(only=only, sample_size=n)
        monkeypatch.setattr(oracle, "_ks_sorted", lambda xs, cdf: _ks_from_cdf(cdf(xs)))
        assert run_checks(only=only, sample_size=n) == bracketed


class TestCheckHarness:
    def test_reported_shape(self):
        rows = run_checks(only="modes/")
        assert rows, "mode checks should match the filter"
        for row in rows:
            assert set(row) == {"identity", "status", "value", "tolerance"}
            assert row["status"] in ("pass", "fail")
            assert row["status"] == ("pass" if row["value"] <= row["tolerance"] else "fail")

    def test_mode_and_reduction_identities_pass(self):
        assert all(r["status"] == "pass" for r in run_checks(only="modes/"))
        assert all(r["status"] == "pass" for r in run_checks(only="reduction/"))

    def test_unmatched_filter_is_empty(self):
        assert run_checks(only="no-such-identity") == []

    def test_scale_corruption_is_detected(self):
        rows = run_checks(only="normalization/bsgt", delta_scale=1.05)
        assert any(r["status"] == "fail" for r in rows)


class TestCheckWorkers:
    """The forked two-worker path gives the in-process records."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """One entry per `os.fork` call run_checks makes: two per forked map."""
        calls = []
        real = os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append("fork") or real())
        return calls

    @staticmethod
    def run(monkeypatch, cpus, **kw):
        """run_checks at a small sample size, as if ``cpus`` CPUs were usable."""
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
        return run_checks(sample_size=2000, **kw)

    def test_forked_records_equal_in_process(self, monkeypatch, forks):
        forked = self.run(monkeypatch, 2, only="gamma=1.5")
        assert forks == ["fork"] * 2
        alone = self.run(monkeypatch, 1, only="gamma=1.5")
        assert forks == ["fork"] * 2
        assert forked == alone
        assert len(forked) == 107

    def test_records_come_back_in_suite_order(self, monkeypatch, forks):
        # the tasks go out costliest first, each sampler gate a task of its
        # own and the uniform-gg identities one batch across the suite; the
        # records are put back per case, in the suite's order
        rows = self.run(monkeypatch, 2, only="gamma=1.5")
        assert forks == ["fork"] * 2
        groups = [r["identity"].split("/")[0] for r in rows]
        assert [g for i, g in enumerate(groups) if i == 0 or g != groups[i - 1]] == [
            "normalization", "reduction", "moments", "mixture", "modes", "sampler"
        ]
        mixture = [r["identity"].split(" ")[0] for r in rows if r["identity"].startswith("mixture/")]
        assert mixture[-2:] == ["mixture/gg", "mixture/uniform-gg"]  # they alternate
        assert [r["identity"] for r in rows if r["identity"].startswith("sampler/")] == [
            "sampler/bsn alpha=1 gamma=1.5",
            "sampler/bsn-uniform alpha=1 gamma=1.5",
            "sampler/bsstd alpha=1 gamma=1.5 nu=4",
            "sampler/bsgt p=1.7 q=2 alpha=1 gamma=1.5",
        ]

    @pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "in-process"])
    def test_worker_domain_error_reaches_the_caller(self, monkeypatch, forks, cpus):
        with pytest.raises(DomainError, match="scale delta must be positive") as excinfo:
            self.run(monkeypatch, cpus, only="p=2.3", delta_scale=0.0)
        assert excinfo.type is DomainError
        assert forks == (["fork"] * 2 if cpus == 2 else [])

    @pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "in-process"])
    def test_collector_is_left_unfrozen(self, monkeypatch, forks, cpus):
        assert self.run(monkeypatch, cpus, only="gamma=2")
        assert gc.get_freeze_count() == 0
        with pytest.raises(DomainError):
            self.run(monkeypatch, cpus, only="p=2.3", delta_scale=0.0)
        assert gc.get_freeze_count() == 0
        assert forks == (["fork"] * 4 if cpus == 2 else [])

    def test_one_task_runs_in_process(self, monkeypatch, forks):
        assert len(self.run(monkeypatch, 2, only="modes/count")) == 10
        assert forks == []

    def test_uniform_gg_subsets_give_the_full_batch_records(self, monkeypatch):
        full = {r["identity"]: r for r in self.run(monkeypatch, 1, only="mixture/uniform-gg ")}
        assert len(full) == 30
        subsets = ("uniform-gg x=-2.0", "uniform-gg x=0.5 gamma=1.5 p=2.3", "p=2.0 q=2", "x=0.0 gamma=0.8")
        for only in subsets:
            rows = [r for r in self.run(monkeypatch, 1, only=only) if "uniform-gg" in r["identity"]]
            assert rows and rows == [full[r["identity"]] for r in rows]

    def test_daemonic_caller_runs_in_process(self, monkeypatch, forks):
        # a multiprocessing.Pool worker is daemonic and may not start children
        with monkeypatch.context() as daemonic:
            daemonic.setitem(multiprocessing.current_process()._config, "daemon", True)
            alone = self.run(monkeypatch, 2, only="gamma=2")
        assert forks == []
        assert self.run(monkeypatch, 2, only="gamma=2") == alone
        assert forks == ["fork"] * 2
