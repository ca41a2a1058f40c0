"""Per-layer probes: each metric times calls into one module's public functions.

Probes run with tracing off, after the workload's traced pass, on the
workload's own seeded inputs: the fit-study data sets and the tabulate
domain specs are rebuilt from the same seed.  Where a metric is read across
families it is the mean over the three example members.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import numpy as np

from workloads import (
    FAMILIES,
    FIT_CASES,
    SMOKE_CHECK_ONLY,
    SMOKE_FIT_FLAGS,
    SUITE_IDENTITIES,
    default_spec,
    domain_specs,
    spec_flags,
)

# run_checks(only=...) is a substring filter; each group's filters match
# disjoint identity sets that together cover the whole suite.
ORACLE_GROUPS = {
    "normalization": ("normalization/",),
    "moments": ("moments/",),
    "mixture-uniform-gg": ("mixture/uniform-gg ",),
    "mixture-other": ("mixture/gamma ", "mixture/uniform x=", "mixture/gg "),
    "modes": ("modes/",),
    "sampler": ("sampler/",),
    "other": ("reduction/", "reflection/", "mass-ratio/"),
}

# the normalization grid of the identity suite, rebuilt here so the probe
# does not depend on the oracle's private constants
_NORM_ALPHAS = (0.0, 0.5, 1.0, 3.0, 10.0)
_NORM_GAMMAS = (0.5, 0.9, 1.0, 1.1, 1.5)
_NORM_NUS = (3.0, 4.0, 8.0)
_NORM_PQS = ((1.7, 2.0), (2.0, 2.0), (2.3, 2.0), (2.0, 5.0))

QUANTILE_TAIL = 0.001


def _seconds(fn, repeats: int = 1) -> float:
    """Median wall seconds of ``repeats`` calls of fn."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _batched(fn, calls: int, batches: int) -> float:
    """Median over batches of the seconds per call."""
    def batch():
        for _ in range(calls):
            fn()

    return statistics.median(_seconds(batch) / calls for _ in range(batches))


def normalization_grid():
    from bimodalskew import bsgt, bsn, bsstd

    for a in _NORM_ALPHAS:
        for g in _NORM_GAMMAS:
            yield bsn(a, g)
            for nu in _NORM_NUS:
                yield bsstd(a, g, nu)
            for p, q in _NORM_PQS:
                yield bsgt(a, g, p, q)


class Probes:
    """Collects per-layer metrics as name -> (value, unit)."""

    def __init__(self, seed: int, work: Path, smoke: bool, fit_inputs: dict):
        self.seed = seed
        self.work = work
        self.smoke = smoke
        self.fit_inputs = fit_inputs  # case -> (CSV path, data), the fit-study inputs at this seed
        self.specs = {f: default_spec(f) for f in FAMILIES}
        self.big = 10_000 if smoke else 1_000_000
        self.out: dict[str, tuple[float, str]] = {}
        self.checks_ok = True

    def put(self, name: str, value: float, unit: str) -> None:
        self.out[name] = (float(value), unit)

    def run(self) -> dict[str, tuple[float, str]]:
        for probe in (self.bases, self.families, self.sampling, self.inference, self.oracle, self.cli):
            probe()
        return self.out

    def across_families(self, seconds_of) -> float:
        """Mean over the three example members of seconds_of(family, spec)."""
        return statistics.fmean(seconds_of(f, s) for f, s in self.specs.items())

    def bases(self) -> None:
        from bimodalskew.bases import GenTBase, NormalBase, StudentTBase

        z = np.random.default_rng([self.seed, 1]).standard_normal(self.big)
        bases = {"normal": NormalBase(), "student": StudentTBase(5.0), "gent": GenTBase(1.7, 2.0)}
        for label, base in bases.items():
            per_point = _seconds(lambda: base.log_pdf(z), 3) / z.size
            self.put(f"bases.log_pdf_ns_per_point.{label}", per_point * 1e9, "ns")

    def families(self) -> None:
        from bimodalskew import RngStream, cdf, cdf_values, find_modes, log_pdf
        from bimodalskew import moment_report, pdf, quantile, sample
        from bimodalskew.errors import NumericError

        rng = np.random.default_rng([self.seed, 2])
        x15 = rng.standard_normal(15)
        per_call = self.across_families(lambda f, s: _batched(lambda: log_pdf(s, x15), 200, 5))
        self.put("families.log_pdf_us_per_call.n15", per_call * 1e6, "us")
        x500, gt = self.fit_inputs["bsgt-n500"][1], self.specs["bsgt"]
        per_call = _batched(lambda: log_pdf(gt, x500), 50, 5)
        self.put("families.log_pdf_us_per_call.n500", per_call * 1e6, "us")
        xbig = rng.standard_normal(self.big)
        per_point = self.across_families(lambda f, s: _seconds(lambda: pdf(s, xbig), 3)) / xbig.size
        self.put("families.pdf_ns_per_point.n1e6", per_point * 1e9, "ns")

        domain = [spec for spec, _ in domain_specs(self.seed, 3 if self.smoke else 30)]
        per_call = statistics.median(_seconds(lambda: cdf(s, 0.7)) for s in domain)
        self.put("families.cdf_us", per_call * 1e6, "us")
        times, fails = [], 0
        for s in domain:
            t0 = time.perf_counter()
            try:
                quantile(s, QUANTILE_TAIL)
            except NumericError:
                fails += 1
            times.append(time.perf_counter() - t0)
        self.put("families.quantile_ms", statistics.median(times) * 1e3, "ms")
        self.put("families.quantile_fail_frac", fails / len(domain), "frac")

        n = self.big // 10
        draws = {f: np.sort(sample(s, n, RngStream(self.seed, 50 + k)))
                 for k, (f, s) in enumerate(self.specs.items())}
        per_point = self.across_families(lambda f, s: _seconds(lambda: cdf_values(s, draws[f]))) / n
        self.put("families.cdf_values_ns_per_point", per_point * 1e9, "ns")
        per_call = self.across_families(lambda f, s: _seconds(lambda: find_modes(s), 3))
        self.put("families.find_modes_ms", per_call * 1e3, "ms")
        per_call = self.across_families(lambda f, s: _batched(lambda: moment_report(s), 20, 5))
        self.put("families.moment_report_us", per_call * 1e6, "us")

    def sampling(self) -> None:
        from bimodalskew import RngStream, sample

        self.sample_s = {}
        for k, (family, spec) in enumerate(self.specs.items()):
            rng = RngStream(self.seed, 60 + k)
            self.sample_s[family] = _seconds(lambda: sample(spec, self.big, rng), 3)
            self.put(f"sampling.ns_per_draw.{family}", self.sample_s[family] / self.big * 1e9, "ns")

    def inference(self) -> None:
        from bimodalskew import RngStream, posterior_summary, run_mcmc, sample
        from bimodalskew.inference import McmcConfig, MetropolisWithinGibbs

        sweeps = {"bsn-n500": 1500, "bsstd-n500": 800, "bsstd-n5000": 200, "bsgt-n500": 300}
        for case, model, _, extra in FIT_CASES:
            data = self.fit_inputs[case][1]
            mwg = MetropolisWithinGibbs(data, model=model, rng=RngStream(self.seed, 0),
                                        enable_extensions=bool(extra))
            k = sweeps[case] // 10 if self.smoke else sweeps[case]

            def run():
                for _ in range(k):
                    mwg.step()

            self.put(f"inference.sweep_us.{case}", _seconds(run) / k * 1e6, "us")

        # acceptance and ESS are counts at a fixed seed and fixed data, so they
        # repeat exactly on one commit and move only when the sampler changes
        data = sample(self.specs["bsstd"], 500, RngStream(0, 1))
        iters = 400 if self.smoke else 4000
        config = McmcConfig(iterations=iters, burn_in=iters // 4, thin=1)
        chains = run_mcmc(data, "bsstd", config=config, seed=0)
        for block in ("phi", "alpha", "nu"):
            self.put(f"inference.accept_rate.{block}", chains[0].accept_rates[block], "frac")
        summary = posterior_summary(chains)
        self.put("inference.min_ess", min(p["ess"] for p in summary["parameters"].values()), "count")
        self.put("inference.summary_ms", _seconds(lambda: posterior_summary(chains), 5) * 1e3, "ms")

    def oracle(self) -> None:
        from bimodalskew import integrate, pdf, run_checks

        sample_size = 2000 if self.smoke else 100_000
        total = 0
        for group, filters in ORACLE_GROUPS.items():
            t0 = time.perf_counter()
            results = [r for f in filters for r in run_checks(only=f, sample_size=sample_size)]
            self.put(f"oracle.group_s.{group}", time.perf_counter() - t0, "s")
            total += len(results)
            self.checks_ok &= all(r["status"] == "pass" for r in results)
        self.checks_ok &= total == SUITE_IDENTITIES

        grid = list(normalization_grid())[: 8 if self.smoke else None]
        evals = 0
        t0 = time.perf_counter()
        for spec in grid:
            res = integrate(lambda xs: pdf(spec, xs), -math.inf, math.inf, tol=1e-10)
            evals += res.evaluations
        elapsed = time.perf_counter() - t0
        self.put("oracle.integrate_evals", evals, "count")
        self.put("oracle.integrate_us_per_eval", elapsed / evals * 1e6, "us")

    def cli(self) -> None:
        from bimodalskew.cli import main

        fit = ["fit", "--model", "bsn", "--in", str(self.fit_inputs["bsn-n500"][0]),
               "--seed", str(self.seed), "--out", str(self.work / "probe-fit.json")]
        check = ["check", "--out", str(self.work / "probe-check.json")]
        if self.smoke:
            fit += SMOKE_FIT_FLAGS
            check += ["--only", SMOKE_CHECK_ONLY]
        draws = self.work / "probe-draws.txt"
        sample = ["sample", *spec_flags("bsstd"), "--n", str(self.big), "--seed", str(self.seed),
                  "--out", str(draws)]
        for label, argv in (("fit", fit), ("check", check), ("sample", sample)):
            t0 = time.perf_counter()
            rc = main(argv)
            self.put(f"cli.main_s.{label}", time.perf_counter() - t0, "s")
            self.checks_ok &= rc == 0
        draws.unlink(missing_ok=True)
        write_s = self.out["cli.main_s.sample"][0] - self.sample_s["bsstd"]
        self.put("cli.sample_write_ns_per_draw", write_s / self.big * 1e9, "ns")
