"""Whole-domain contracts of the public functions, checked by derandomized hypothesis.

The domain: gamma log-uniform on [0.1, 10], alpha = 0 or in (0, 15],
nu - 2 and p*q - 2 log-uniform from 1e-3 to 1e300, p in [0.05, 4],
loc in [-1e8, 1e8], scale log-uniform on [1e-8, 1e8], and x any float but NaN.  Which examples hypothesis
draws depends on the modules loaded, so every counterexample ever found is
pinned with ``@example``.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bimodalskew.errors import DomainError, ExistenceError, NumericError
from bimodalskew.families import (
    bsgt,
    bsn,
    bsstd,
    cdf_values,
    full_moment,
    log_pdf,
    moment_exists,
    moment_report,
)
from bimodalskew.sampling import RngStream, sample


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


DOMAIN = dict(
    family=st.sampled_from(["bsn", "bsstd", "bsgt"]),
    alpha=st.one_of(st.just(0.0), st.floats(0.0, 15.0, exclude_min=True)),
    gamma=log_uniform(0.1, 10.0),
    tail=log_uniform(1e-3, 1e300),
    p=st.floats(0.05, 4.0),
    loc=st.floats(-1e8, 1e8),
    scale=log_uniform(1e-8, 1e8),
)


def member(family, alpha, gamma, tail, p, loc, scale):
    """A member of the domain; ``tail`` is nu - 2 or p*q - 2, ``p`` is read by bsgt only."""
    if family == "bsn":
        return bsn(alpha, gamma, loc, scale)
    if family == "bsstd":
        return bsstd(alpha, gamma, 2.0 + tail, loc, scale)
    return bsgt(alpha, gamma, p, (2.0 + tail) / p, loc, scale)


STANDARD = dict(alpha=0.0, gamma=1.0, tail=3.0, p=1.0, loc=0.0, scale=1.0)


@given(**DOMAIN, x=st.floats(allow_nan=False))
@settings(max_examples=1000, deadline=None, derandomize=True)
# each once raised an overflow warning: of z * z in the Student-t base, of
# z * gamma, of alpha z^2, and of z * z in the normal base
@example(**{**STANDARD, "family": "bsstd", "x": 1e200})
@example(**{**STANDARD, "family": "bsn", "alpha": 0.5, "gamma": 1e100, "x": -1e210})
@example(**{**STANDARD, "family": "bsn", "alpha": 0.5, "gamma": 1e100, "x": 1e250})
@example(**{**STANDARD, "family": "bsn", "loc": 0.5, "scale": 99999999.99999979, "x": -1.3300714959885049e222})
# each once gave a finite log density near +1e20 or more, from a far form that
# took log1p(e^y) for y where y is not large
@example(**{**STANDARD, "family": "bsgt", "gamma": 0.5, "tail": 5e18, "p": 0.05, "x": 1.7e308})
@example(**{**STANDARD, "family": "bsstd", "tail": 1e300, "x": 1e100})
# read -inf at a finite x: (|z|/delta)^p was finite and its quotient by q < 1 was not
@example(family="bsgt", alpha=0.0, gamma=1.0, tail=0.4, p=4.0, loc=0.0, scale=1.0, x=8.399697964285896e76)
def test_log_pdf_is_bounded_and_never_warns(family, alpha, gamma, tail, p, loc, scale, x):
    try:
        spec = member(family, alpha, gamma, tail, p, loc, scale)
    except DomainError:  # a generalized-t whose variance or q delta^p leaves the float range
        assume(False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = log_pdf(spec, x)
        values = log_pdf(spec, np.array([x, loc]))
        top = log_pdf(spec, loc)
    assert type(point) is float
    # the base density peaks at 0, so log f(x) <= log f(loc) + log(1 + alpha z^2)
    with np.errstate(divide="ignore"):
        log_z = np.log(abs(x - loc)) - np.log(scale)
    bound = top + (np.logaddexp(0.0, np.log(alpha) + 2.0 * log_z) if alpha > 0.0 else 0.0)
    for value in (point, *values):
        assert not math.isnan(value) and value != math.inf
    if family != "bsn" and math.isfinite(x):  # a heavy tail has positive density at every finite x
        assert point > -math.inf and values[0] > -math.inf
    for value in (point, values[0]):
        assert value <= bound + 1e-12 * (1.0 + abs(bound))


FINITE_XS = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8)


@given(**DOMAIN, xs=FINITE_XS.map(sorted))
@settings(max_examples=500, deadline=None, derandomize=True)
def test_cdf_values_is_a_distribution_function(family, alpha, gamma, tail, p, loc, scale, xs):
    try:
        spec = member(family, alpha, gamma, tail, p, loc, scale)
    except DomainError:  # a generalized-t whose variance or q delta^p leaves the float range
        assume(False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = cdf_values(spec, xs)
    assert ((values >= 0.0) & (values <= 1.0)).all()
    assert (np.diff(values) >= 0.0).all()


@given(**DOMAIN)
@settings(max_examples=500, deadline=None, derandomize=True)
# each once drew all zeros, or raised OverflowError, where Y^(2/p) or (q/2)^(1/p)
# passed the float range
@example(**{**STANDARD, "family": "bsgt", "tail": 1e155})
@example(**{**STANDARD, "family": "bsgt", "tail": 1e10, "p": 0.05})
@example(**{**STANDARD, "family": "bsgt", "tail": 1e50, "p": 0.05})
# each once drew +-inf, silently, where a draw lies past the float range
@example(**{**STANDARD, "family": "bsstd", "alpha": 1.0, "tail": 0.01})
@example(**{**STANDARD, "family": "bsgt", "alpha": 1.0, "tail": 1e-3, "p": 1.7})
def test_sample_is_finite_or_raises(family, alpha, gamma, tail, p, loc, scale):
    try:
        spec = member(family, alpha, gamma, tail, p, loc, scale)
    except DomainError:  # a generalized-t whose variance or q delta^p leaves the float range
        assume(False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            x = sample(spec, 20, RngStream(0, 0))
        except NumericError:  # a draw past the float range
            return
    assert x.shape == (20,) and np.isfinite(x).all()


@given(**DOMAIN)
@settings(max_examples=500, deadline=None, derandomize=True)
# each once reported an order as existing and gave it as inf or NaN, where p*q
# rounded above r while q - r/p, the argument of the moment's Gamma, was 0
@example(**{**STANDARD, "family": "bsgt", "tail": 1.0, "p": 2.8999748958312104})
@example(**{**STANDARD, "family": "bsgt", "alpha": 14.903310349297868, "tail": 1.0, "p": 1.1682457131811113})
def test_moment_report_agrees_with_existence(family, alpha, gamma, tail, p, loc, scale):
    try:
        spec = member(family, alpha, gamma, tail, p, loc, scale)
    except DomainError:  # a generalized-t whose variance or q delta^p leaves the float range
        assume(False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rep in moment_report(spec):
            assert rep.exists is moment_exists(spec, rep.order)
            if rep.exists:
                assert all(math.isfinite(v) for v in (rep.base_abs, rep.skew, rep.full))
            else:
                assert rep.full is None
                with pytest.raises(ExistenceError):
                    full_moment(spec, rep.order)
