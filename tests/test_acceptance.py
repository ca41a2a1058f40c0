"""Acceptance criteria for the distribution families, samplers, and fitter.

One test per criterion; run with ``pytest -v`` to get one pass/fail line
each. Identity groups delegate to the check harness at its published
tolerances; the fitting criteria run the full-length chains they demand.
"""

import math
import time

import numpy as np
import pytest

from bimodalskew.families import bsn, bsstd
from bimodalskew.inference import _precision_rate, posterior_summary, run_mcmc
from bimodalskew.oracle import _gamma_mixture, integrate, run_checks
from bimodalskew.sampling import RngStream, sample

SEED = 20260814
GATE_N = 100_000


def group(prefix, **kw):
    t0 = time.perf_counter()
    rows = run_checks(only=prefix, seed=SEED, sample_size=GATE_N, **kw)
    elapsed = time.perf_counter() - t0
    assert rows, f"no identities matched {prefix!r}"
    return rows, elapsed


def assert_all_pass(name, rows, elapsed):
    bad = [r for r in rows if r["status"] != "pass"]
    detail = "; ".join(f"{r['identity']} value={r['value']:.3g} tol={r['tolerance']:g}" for r in bad)
    print(f"{'FAIL' if bad else 'PASS'} {name}: {len(rows) - len(bad)}/{len(rows)} "
          f"identities in {elapsed:.1f}s" + (f" [{detail}]" if detail else ""))
    assert not bad, detail


def test_acceptance_normalization_grid():
    # every family member on the published grid integrates to 1 within 1e-8
    rows, elapsed = group("normalization/")
    assert elapsed < 120.0, f"normalization sweep took {elapsed:.1f}s"
    assert_all_pass("normalization", rows, elapsed)


def test_acceptance_closed_form_moments():
    # closed-form moments within 1e-6 of independent quadrature for orders
    # 1..4, and existence flags exact on both sides of each boundary
    rows, elapsed = group("moments/")
    assert_all_pass("moments", rows, elapsed)


def test_acceptance_mixture_identities():
    # each latent hierarchy marginalizes back onto its closed-form density
    rows, elapsed = group("mixture/")
    assert_all_pass("mixtures", rows, elapsed)


def test_acceptance_reductions():
    # nested families collapse onto each other at the pinned tolerances
    rows, elapsed = group("reduction/")
    assert_all_pass("reductions", rows, elapsed)


def test_acceptance_mode_structure():
    # unimodal below the tilt threshold, bimodal above it, with located peaks
    rows, elapsed = group("modes/")
    assert_all_pass("modes", rows, elapsed)


def test_acceptance_sampler_gates():
    # every sampling path beats the 1% KS gate at n = 100000, and the two
    # independent heavy-tail routes agree with each other
    rows, elapsed = group("sampler/")
    assert elapsed < 180.0, f"sampler gates took {elapsed:.1f}s"
    assert_all_pass("samplers", rows, elapsed)


def test_acceptance_precision_conditional():
    # the precisions' conditional mean (nu + 1) / (nu - 2 + x^2 phi^-+1),
    # which lambda_mean averages, matches E[lambda | x] over the oracle's
    # gamma-mixing integrand to 1e-12 at five (x, phi, nu) settings, untilted and tilted
    tuples = [(0.0, 2.25, 4.0), (1.5, 2.25, 4.0), (-1.5, 2.25, 4.0), (4.0, 0.64, 7.0), (0.3, 1.0, 3.0)]
    for x, phi, nu in tuples:
        for alpha in (0.0, 3.0):
            f, a, b = _gamma_mixture(x, alpha, math.sqrt(phi), nu)
            mass = integrate(f, a, b, tol=1e-13)
            first = integrate(lambda lam: lam * f(lam), a, b, tol=1e-13)
            assert mass.converged and first.converged
            want = (nu + 1.0) / float(_precision_rate(x * x, x >= 0, phi, nu))
            got = first.value / mass.value
            assert abs(got - want) <= 1e-12 * want, f"{(x, phi, nu, alpha)}: {got!r} vs {want!r}"
    print(f"PASS precision-conditional: {2 * len(tuples)} settings within 1e-12 of quadrature")


def run_fit(model, truth_nu=None, data_stream=0):
    spec = bsn(3.0, 1.5) if model == "bsn" else bsstd(3.0, 1.5, truth_nu)
    data = sample(spec, 500, RngStream(1, data_stream))
    t0 = time.perf_counter()
    chains = run_mcmc(data, model=model, seed=0)
    elapsed = time.perf_counter() - t0
    return data, chains, posterior_summary(chains), elapsed


def check_fit(model, summ, elapsed, truths):
    assert elapsed < 300.0, f"{model} fit took {elapsed:.1f}s"
    for name, truth in truths.items():
        lo, hi = summ["parameters"][name]["ci95"]
        assert lo <= truth <= hi, f"{model} {name}: truth {truth} outside [{lo:.3f}, {hi:.3f}]"
    for block, rate in summ["acceptance"].items():
        assert 0.2 <= rate <= 0.6, f"{model} {block} acceptance {rate:.3f}"


def test_acceptance_fit_light_tail():
    # full-length chain on known data: interval coverage, healthy acceptance
    # rates, and byte-identical output under a repeated seed
    data, chains, summ, elapsed = run_fit("bsn")
    check_fit("bsn", summ, elapsed, {"alpha": 3.0, "phi": 2.25})
    again = run_mcmc(data, model="bsn", seed=0)
    for key in chains[0].params:
        assert chains[0].params[key].tobytes() == again[0].params[key].tobytes()
    print(f"PASS fit-light-tail: coverage, acceptance, determinism in {elapsed:.1f}s")


def test_acceptance_fit_heavy_tail():
    data, chains, summ, elapsed = run_fit("bsstd", truth_nu=5.0, data_stream=1)
    check_fit("bsstd", summ, elapsed, {"alpha": 3.0, "phi": 2.25, "nu": 5.0})
    again = run_mcmc(data, model="bsstd", seed=0)
    for key in chains[0].params:
        assert chains[0].params[key].tobytes() == again[0].params[key].tobytes()
    assert chains[0].lambda_mean.tobytes() == again[0].lambda_mean.tobytes()
    print(f"PASS fit-heavy-tail: coverage, acceptance, determinism in {elapsed:.1f}s")


def test_acceptance_outlier_flagging():
    # a planted extreme point must receive the smallest posterior-mean
    # precision of the whole sample
    base = sample(bsn(3.0, 1.5), 299, RngStream(7, 0))
    inject_at = 150
    data = np.insert(base, inject_at, 8.0)
    chains = run_mcmc(data, model="bsstd", seed=0)
    lam = chains[0].lambda_mean
    assert int(np.argmin(lam)) == inject_at
    others = np.delete(lam, inject_at)
    print(f"PASS outlier-flagging: planted point lambda {lam[inject_at]:.3f} "
          f"vs smallest other {others.min():.3f}")
