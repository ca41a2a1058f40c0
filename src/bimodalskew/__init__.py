"""Bimodal skewed distribution families on normal, Student-t and generalized-t bases.

The construction combines two-piece skewing with a quadratic tilt, giving
densities that can be simultaneously skewed and bimodal.  The package covers
density/CDF/moment evaluation (`families`), exact draws through one public
entry point, `sample` with a reproducible `RngStream`, which takes every
heavy-tailed member, the Student-t as the generalized-t at p = 2, through one
scale-mixture hierarchy; the paper's other hierarchies are private helpers
that the oracle's sampler gates check (`sampling`),
Bayesian fitting by adaptive Metropolis-within-Gibbs on each base's own log
density, with posterior precision means as outlier scores (`inference`), an
independent numeric validation suite (`oracle`), and a CLI (`bimodalskew`).
"""

from .bases import GenTBase, NormalBase, StudentTBase
from .errors import CapabilityError, DomainError, ExistenceError, NumericError
from .families import (
    DistributionSpec,
    MomentReport,
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
from .sampling import RngStream, sample

__version__ = "0.1.0"

# the fitter and the oracle load on first use of these names; each access
# reads the module's current binding (a tracing wrapper, say), so none is
# cached here
_INFERENCE_NAMES = frozenset(
    {
        "Chain",
        "McmcConfig",
        "MetropolisWithinGibbs",
        "effective_sample_size",
        "posterior_summary",
        "run_mcmc",
    }
)
_ORACLE_NAMES = frozenset({"OracleResult", "integrate", "run_checks"})


def __getattr__(name: str):
    if name in _INFERENCE_NAMES:
        from . import inference as module
    elif name in _ORACLE_NAMES:
        from . import oracle as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


__all__ = [
    "CapabilityError",
    "Chain",
    "DistributionSpec",
    "DomainError",
    "ExistenceError",
    "GenTBase",
    "McmcConfig",
    "MetropolisWithinGibbs",
    "MomentReport",
    "NormalBase",
    "NumericError",
    "OracleResult",
    "RngStream",
    "StudentTBase",
    "bsgt",
    "bsn",
    "bsstd",
    "cdf",
    "cdf_values",
    "effective_sample_size",
    "find_modes",
    "full_moment",
    "integrate",
    "log_pdf",
    "moment_exists",
    "moment_report",
    "pdf",
    "posterior_summary",
    "quantile",
    "run_checks",
    "run_mcmc",
    "sample",
    "skew_moment",
    "two_piece_second_moment",
    "__version__",
]
