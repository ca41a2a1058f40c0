"""Simulation-based calibration of the fitter (Talts et al. 2018, arXiv 1804.06788).

Each fit draws its parameters from the fitter's own priors and its data from
`sample`, fits the data with `run_mcmc` at short settings, and ranks each true
value among the thinned draws.  For a sampler that targets the posterior the
ranks are uniform, so each parameter's 10-bin rank histogram passes a
chi-squared test at `LEVEL`.  The fits run through `_workers.map_forked`, and
all seeds are fixed, so the test is deterministic.  A fit that raises fails it.

The default run fits bsn and bsstd.  The long run,
``python -m pytest -m slow tests/test_calibration.py``, fits 1000 data sets
per model, bsgt included.
"""

from functools import partial

import numpy as np
import pytest
from scipy import stats

from bimodalskew import _workers, families
from bimodalskew.inference import _A_PHI, _ALPHA_RATE, _B_PHI, _BETA_NU, McmcConfig, run_mcmc
from bimodalskew.sampling import RngStream, sample

LEVEL = 1e-3
N_OBS = 50
# 19 retained draws, 20 sweeps apart: 20 possible ranks, two to a bin
CONFIG = McmcConfig(iterations=980, burn_in=600, thin=20)
DRAWS = 19
BINS = 10


def draw_truth(model: str, gen: np.random.Generator) -> dict[str, float]:
    """Parameters from the fitter's priors, named as the chain keeps them."""
    truth = {
        "phi": gen.gamma(_A_PHI, 1.0 / _B_PHI),
        # Exponential(rate), drawn as Gamma(1, 1/rate) so the data stay as they were
        "alpha": gen.gamma(1.0, 1.0 / _ALPHA_RATE),
    }
    if model == "bsstd":
        truth["nu"] = 2.0 + gen.exponential(1.0 / _BETA_NU)
    if model == "bsgt":
        # Gamma(2, 1) on p and Gamma(2, 0.5) on q - 2/p; the chain keeps q
        p = gen.gamma(2.0, 1.0)
        truth.update(p=p, q=gen.gamma(2.0, 2.0) + 2.0 / p)
    return truth


def ranks(model: str, i: int) -> dict[str, int]:
    """Fit i's rank of each true value among its retained draws."""
    gen = RngStream(0, i).generator
    truth = draw_truth(model, gen)
    shape = [truth[name] for name in ("nu", "p", "q") if name in truth]
    spec = getattr(families, model)(truth["alpha"], np.sqrt(truth["phi"]), *shape)
    data = sample(spec, N_OBS, gen)
    chain = run_mcmc(data, model=model, config=CONFIG, seed=i + 1, enable_extensions=True)[0]
    assert all(draws.size == DRAWS for draws in chain.params.values())
    return {name: int(np.sum(chain.params[name] < value)) for name, value in truth.items()}


def rank_pvalues(model: str, fits: int) -> dict[str, float]:
    """Each parameter's chi-squared p-value for uniform ranks over the fits."""
    results = _workers.map_forked(partial(ranks, model), range(fits))
    pvalues = {}
    for name in results[0]:
        counts = np.bincount([r[name] * BINS // (DRAWS + 1) for r in results], minlength=BINS)
        pvalues[name] = float(stats.chisquare(counts).pvalue)
    return pvalues


@pytest.mark.parametrize("model,fits", [("bsn", 150), ("bsstd", 80)])
def test_ranks_are_uniform(model, fits):
    pvalues = rank_pvalues(model, fits)
    assert min(pvalues.values()) > LEVEL, pvalues


def test_prior_draws_past_the_square_root_of_the_float_range_fit():
    # nu near 2 from the prior gives data whose squares overflow: three of
    # these draws are past 1.3e154, the largest 1.5e242
    data = sample(families.bsstd(1.0, 1.0, 2.01), N_OBS, RngStream(3, 0))
    assert np.sum(np.abs(data) > 1.3e154) == 3
    chain = run_mcmc(data, model="bsstd", config=CONFIG, seed=1)[0]
    assert all(np.isfinite(draws).all() and draws.size == DRAWS for draws in chain.params.values())


@pytest.mark.slow
@pytest.mark.parametrize("model", ["bsn", "bsstd", "bsgt"])
def test_ranks_are_uniform_long_run(model):
    pvalues = rank_pvalues(model, 1000)
    print(model, pvalues)
    assert min(pvalues.values()) > LEVEL, pvalues
