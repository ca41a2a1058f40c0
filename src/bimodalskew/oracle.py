"""Independent validation machinery for the distribution identities.

Everything here exists to cross-check the closed-form code in `families` and
the samplers in `sampling` by a second route: adaptive Gauss-Kronrod
quadrature (self-contained, deliberately not sharing the library CDF's
integration code), which maps an infinite range by QUADPACK's qagi map about
the densities' fold, numeric marginalization of the scale-mixture hierarchies,
and Kolmogorov-Smirnov gates against the closed-form distribution functions.
The textbook reference densities are written out here on `scipy.special`, so
a check needs nothing from `scipy.stats`.  `run_checks` executes the whole
identity suite and is what the ``check`` CLI command prints.  Its cases run
as tasks on up to two forked worker processes; the records are the same as
when they run in-process.  It exports `run_checks`, `integrate` with its
`OracleResult`, and `ks_distance`; only the suite calls the mixture builders.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy.special import betaln, gammainc, gammaln

from .bases import NormalBase, StudentTBase, gt_standard_scale
from .errors import DomainError
from .families import (
    DistributionSpec,
    _log_density,
    bsgt,
    bsn,
    bsstd,
    cdf_values,
    find_modes,
    full_moment,
    moment_exists,
    pdf,
    two_piece_second_moment,
)
from .sampling import (
    RngStream,
    _finite,
    _gen_gamma,
    _gen_t_draws,
    _two_piece,
    _uniform_normal_draws,
    _uniform_two_piece_normal,
    sample,
)

__all__ = [
    "OracleResult",
    "integrate",
    "ks_distance",
    "run_checks",
]


@dataclass(frozen=True)
class OracleResult:
    """Numeric estimate with its own quality report."""

    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool


# 15-point Kronrod extension of 7-point Gauss: (node, Gauss weight, Kronrod
# weight) for the nonnegative nodes; negatives mirror.  Gauss weight 0 marks
# Kronrod-only nodes.
_GK_ROWS = (
    (0.9914553711208126, 0.0, 0.0229353220105292),
    (0.9491079123427585, 0.1294849661688697, 0.0630920926299785),
    (0.8648644233597691, 0.0, 0.1047900103222502),
    (0.7415311855993945, 0.2797053914892767, 0.1406532597155259),
    (0.5860872354676911, 0.0, 0.1690047266392679),
    (0.4058451513773972, 0.3818300505051189, 0.1903505780647854),
    (0.2077849550078985, 0.0, 0.2044329400752989),
    (0.0, 0.4179591836734694, 0.2094821410847278),
)

_NODES = np.array([-r[0] for r in _GK_ROWS[:-1]] + [r[0] for r in reversed(_GK_ROWS)])
_WG = np.array([r[1] for r in _GK_ROWS[:-1]] + [r[1] for r in reversed(_GK_ROWS)])
_WK = np.array([r[2] for r in _GK_ROWS[:-1]] + [r[2] for r in reversed(_GK_ROWS)])
_WKG = np.stack([_WK, _WG])


def _plan(a: float, b: float, points=(), count: int = 1) -> tuple[float | None, list, int]:
    """The map's anchor (None on a finite range), first panels and count of integrals.

    An infinite range is mapped by x = anchor + sign(t) (1/|t| - 1), as
    QUADPACK's qagi maps it, anchored at the fold: the first of ``points``,
    else 0.  Below the anchor x goes to t in [-1, 0), above it to (0, 1], so
    every infinite end sits at t = 0, where floats are dense, and a finite
    limit y from the anchor is a cut at t = sign(y) / (1 + |y|).  The range
    is cut at ``points`` and at an interior 0, and each segment is halved
    once so a lone panel cannot fake convergence.
    """
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b) or not a < b:
        raise DomainError(f"need an interval with a < b, got ({a}, {b})")
    points = [float(p) for p in points]
    if not all(map(math.isfinite, points)):
        raise DomainError(f"need finite points, got {points}")
    breaks = points + [0.0] if a < 0.0 < b else points
    if math.isinf(a) or math.isinf(b):
        anchor = points[0] if points else 0.0

        def t_of(y):
            return math.copysign(1.0, y) / (1.0 + abs(y))

        # the anchor is t = -1 below it and t = 1 above it
        segments = [(t_of(-abs(min(b, anchor) - anchor)), t_of(a - anchor))] if a < anchor else []
        if anchor < b:
            segments.append((t_of(b - anchor), t_of(abs(max(a, anchor) - anchor))))
        breaks = [t_of(p - anchor) for p in breaks]
    else:
        anchor, segments = None, [(a, b)]

    panels = []
    for lo, hi in segments:
        cuts = sorted({lo, hi, *(p for p in breaks if lo < p < hi)})
        for left, right in zip(cuts[:-1], cuts[1:]):
            panels += [(left, 0.5 * (left + right)), (0.5 * (left + right), right)]
    return anchor, panels, count


def _gk_rows(f, lo, hi, rows, anchors):
    """Kronrod values, error estimates, selection keys and non-zero flags of the panels (lo, hi).

    A panel's key is its error estimate, or -inf where it has no
    representable midpoint and so cannot be split.  ``lo`` and ``hi`` share
    one shape, which the four results take, and the flat ``rows`` gives
    each panel's integral in row-major order.  A panel's flag is whether any
    of its nodes read non-zero.  ``anchors`` is None when the
    ranges are finite, and else each integral's anchor (see `_plan`).  On a
    mapped range the Jacobian 1/t^2 is applied as two factors 1/|t|, so it
    does not overflow before the integrand has decayed, and a node mapped
    past the largest float counts as zero and gives its panel error +inf,
    since the mass beyond it is unknown.  Runs under the errstate of
    `_integrate_rows`.
    """
    width = hi - lo
    mid = 0.5 * (lo + hi)
    half = 0.5 * width
    ts = mid[..., None] + half[..., None] * _NODES
    if anchors is None:
        ys = np.asarray(f(ts.reshape(-1, 15), rows), dtype=float).reshape(ts.shape)
    else:
        inv = 1.0 / np.abs(ts)
        xs = anchors[rows].reshape(ts.shape[:-1] + (1,)) + np.copysign(inv - 1.0, ts)
        # the integrand never sees inf
        ok = np.isfinite(xs)
        ys = np.asarray(f(np.where(ok, xs, 0.0).reshape(-1, 15), rows), dtype=float)
        ys = np.where(ok, ys.reshape(ts.shape) * inv * inv, 0.0)

    kronrod_gauss = np.add.reduce(ys[..., None, :] * _WKG, axis=-1)
    kronrod = half * kronrod_gauss[..., 0]
    diff = np.abs(kronrod - half * kronrod_gauss[..., 1])
    # sharpen |K - G| relative to the panel's own variation: the Kronrod
    # estimate is far better than the raw gap on smooth panels, but not on
    # rough ones, and an absolute cutoff would misjudge small-valued tails
    spread = half * np.add.reduce(np.abs(ys - (kronrod / width)[..., None]) * _WK, axis=-1)
    sharp = spread * np.minimum(1.0, (200.0 * diff / spread) ** 1.5)
    err = np.where(np.minimum(spread, diff) > 0.0, sharp, diff)
    if anchors is not None:
        err = np.where(ok.all(axis=-1), err, np.inf)
    return kronrod, err, np.where((lo < mid) & (mid < hi), err, -np.inf), (ys != 0.0).any(axis=-1)


def _integrate_rows(f, plans, tol, max_evals: int) -> tuple[np.ndarray, ...]:
    """Advance the adaptive integrals of ``plans`` (from `_plan`) in shared rounds.

    The ranges must be all finite or all infinite, else DomainError is
    raised.  ``tol`` is one tolerance, or a sequence of one per integral.
    Each round, every integral whose summed error estimate is above its
    tolerance and whose budget has room for two more panels bisects its
    worst panel, the oldest on ties.  A panel with no representable midpoint
    is kept unsplit, and an integral stops once none of its panels can be
    split, or once its summed error is +inf (a node mapped past the float
    range).  All children of the round go to ``f`` in one call as
    ``f(xs, rows)``, where ``xs`` is an (m, 15) array of nodes, one panel
    per row, and ``rows[i]`` the index of the integral that row i belongs
    to, each plan's ``count`` integrals in turn.  ``f`` returns the (m, 15)
    integrand values.  Each integral follows the bisection sequence it would
    follow alone.

    It returns the `OracleResult` fields as arrays (see `_results`).  On
    infinite ranges an integral none of whose nodes ever read non-zero is
    not converged: its mass may lie where no node looked.  The
    panels live in one array with a row per integral still going and a
    column per panel, in the order the panels were made: the first panels,
    then the two children of each round.  A split panel's value and error
    are set to 0 there, so an integral's sums are those of its whole row.
    """
    anchors, panels, counts = zip(*plans)
    if len({anchor is None for anchor in anchors}) > 1:
        raise DomainError("one call integrates over finite ranges only or infinite ranges only")
    n = sum(counts)
    widths = [len(p) for p in panels]
    rows = np.arange(n).repeat(np.repeat(widths, counts))
    cols = np.concatenate([np.tile(np.arange(w), k) for w, k in zip(widths, counts)])
    lo, hi = np.concatenate([np.tile(np.array(p).T, k) for p, k in zip(panels, counts)], axis=1)
    anchors = None if anchors[0] is None else np.repeat(anchors, counts)
    used = max(widths)
    tols = tol = np.broadcast_to(np.asarray(tol, dtype=float), n)
    # per panel: lo, hi, Kronrod value, error estimate and selection key (see
    # `_gk_rows`).  A split panel, and a column an integral's first panels
    # leave empty, has value and error 0 and key -inf.
    box = np.zeros((5, n, used + 32))
    box[4] = -np.inf
    sums, spent_all = np.empty((2, n)), np.empty(n, dtype=int)  # value and error sums, evaluations
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals, errs, keys, nonzero = _gk_rows(f, lo, hi, rows, anchors)
        box[:, rows, cols] = np.array([lo, hi, vals, errs, keys])
        seen = np.bincount(rows, weights=nonzero, minlength=n) > 0  # per integral
        # the integrals still going, their error totals (added in panel
        # order, as one integral adds them), the evaluations of their first
        # panels and the last round their budget allows
        active = np.arange(n)
        total = np.bincount(rows, weights=errs, minlength=n)
        evals = 15 * np.bincount(rows, minlength=n)
        last = (max_evals - evals) // 30
        tightest = last.min()
        at = active
        r = 0
        while True:
            r += 1
            slot = box[4, :, :used].argmax(axis=1)
            pick = box[:, at, slot]
            go = (tol < total) & (total < np.inf) & (pick[4] != -np.inf)
            if r > tightest:
                go &= last >= r
            going = np.count_nonzero(go)
            if going < go.size:
                done = ~go
                spent_all[active[done]] = evals[done] + 30 * (r - 1)
                # exact sums, so the order of the panels and the zeros change nothing
                values_errors = box[2:4, done, :used].tolist()
                sums[:, active[done]] = [[math.fsum(row) for row in part] for part in values_errors]
                if not going:
                    break
                box, active, total, evals, last = box[:, go], active[go], total[go], evals[go], last[go]
                tol, slot, pick = tol[go], slot[go], pick[:, go]
                at = np.arange(going)
            box[2:, at, slot] = [[0.0], [0.0], [-np.inf]]
            if used + 2 > box.shape[2]:
                box = np.concatenate([box, np.zeros_like(box)], axis=2)
            edges = np.array([pick[0], 0.5 * (pick[0] + pick[1]), pick[1]])
            lo, hi = edges[:2].T, edges[1:].T  # the children: (lo, mid) and (mid, hi)
            rows = active.repeat(2)
            vals, errs, keys, nonzero = _gk_rows(f, lo, hi, rows, anchors)
            box[:, :, used : used + 2] = np.array([lo, hi, vals, errs, keys])
            seen[active] |= nonzero.any(axis=1)
            total += (errs[:, 0] + errs[:, 1]) - pick[3]
            used += 2
    return sums[0], sums[1], spent_all, (sums[1] <= tols) & (seen | (anchors is None))


def _results(columns) -> list[OracleResult]:
    """The `OracleResult`s of `_integrate_rows`'s result arrays."""
    return [OracleResult(*row) for row in zip(*(column.tolist() for column in columns))]


def integrate(f, a: float, b: float, tol: float = 1e-10, max_evals: int = 1_000_000, points=()):
    """Adaptive Gauss-Kronrod integral of ``f`` over (a, b), infinite ends allowed.

    ``f`` must accept a 1-D ndarray and return one of the same length.
    ``points`` lists finite interior abscissae to split at from the start;
    an interior 0, where the densities here kink, is split at without being
    listed.  An infinite range is mapped onto t by
    x = anchor + sign(t) (1/|t| - 1), QUADPACK's qagi map, anchored at the
    fold: the first of ``points``, else 0, so an integrand whose mass lies
    far from 0 must pass its fold there.  Each infinite end sits at t = 0,
    where bisection can follow a heavy tail out to the largest float, and a
    finite limit is a cut.  The worst-error interval is bisected until the
    summed error estimate drops below ``tol`` or the evaluation budget runs
    out, in which case ``converged`` is False and the best estimate is
    returned.  A node mapped past the largest float counts as zero and
    gives an error estimate of +inf and ``converged`` False; a NaN or inf
    that ``f`` returns reaches the result.  On an infinite range an ``f``
    that reads exactly 0 at every node is not ``converged`` either, since
    its mass may lie between the nodes; this changes no result in which
    some node read non-zero.

    This is the one-integral case of the private `_integrate_rows`, which
    advances many integrals in shared rounds and hands ``f(xs, rows)`` an
    (m, 15) node array, one 15-point panel per row, plus each row's integral
    index; here ``f`` sees those nodes flattened, both children of a
    bisection in one call.
    """
    plan = _plan(a, b, points)
    if not tol > 0:
        raise DomainError("tol must be positive")

    def rows_f(xs, rows):
        return np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)

    return _results(_integrate_rows(rows_f, [plan], tol, max_evals))[0]


def _integrals(items) -> list[OracleResult]:
    """`integrate` of each (f, a, b, tol) in ``items``, all in one `_integrate_rows` call.

    Each run of a round's rows belongs to one integral and goes to its own
    ``f`` as one flat array, so every integral bisects, and ends, exactly
    as `integrate` would run it alone at its own ``tol``.
    """

    def rows_f(xs, rows):
        out = np.empty_like(xs)
        for lo, hi in _runs(rows):
            f = items[rows[lo]][0]
            out[lo:hi] = np.asarray(f(xs[lo:hi].ravel()), dtype=float).reshape(hi - lo, -1)
        return out

    plans = [_plan(a, b) for _, a, b, _ in items]
    return _results(_integrate_rows(rows_f, plans, [tol for *_, tol in items], 1_000_000))


def _integral_batch(runs) -> list:
    """The task batch of cases whose ``run`` returns ``(items, value)``: ``items``
    lists the case's integrals as (f, a, b, tol), and ``value`` turns their
    values, in order, into the case's value.  All advance together in `_integrals`.
    """
    results = iter(_integrals([item for items, _ in runs for item in items]))
    return [value([next(results).value for _ in items]) for items, value in runs]


# ---------- numeric marginalization of the mixture hierarchies ----------


def _stretched(x: float, gamma: float) -> float:
    """x mapped through the two-piece stretch, sign(0) = +1."""
    return x / gamma if x >= 0 else x * gamma


def _log_tilt(x: float, alpha: float, gamma: float) -> float:
    return math.log1p(alpha * x * x) - math.log1p(alpha * two_piece_second_moment(gamma))


def _gamma_mixture(x: float, alpha: float, gamma: float, nu: float):
    """The BSSTD density at x as an integral over its gamma mixing law, as (f, a, b).

    The conditional given lambda is the tilted two-piece normal with scale
    lambda^(-1/2); marginalizing over Gamma(nu/2, rate (nu-2)/2) must
    reproduce the closed-form family density.
    """
    StudentTBase(nu)  # validates nu
    m = _stretched(x, gamma)
    c = math.log(2.0) - math.log(gamma + 1.0 / gamma)
    shape, rate = 0.5 * nu, 0.5 * (nu - 2.0)
    const = (
        c
        + _log_tilt(x, alpha, gamma)
        - 0.5 * math.log(2.0 * math.pi)
        + shape * math.log(rate)
        - gammaln(shape)
    )

    def integrand(lam):
        lam = np.asarray(lam, dtype=float)
        with np.errstate(divide="ignore"):
            logs = const + (shape - 0.5) * np.log(lam) - rate * lam - 0.5 * lam * m * m
        return np.exp(logs)

    return integrand, 0.0, math.inf


def _uniform_mixture(x: float, gamma: float, lam: float):
    """The two-piece normal density at x as an integral over its uniform mixture, as (f, a, b).

    Conditional on u the draw is the two-piece uniform with radius
    sqrt(u/lam); mixing over chi-square(3) must give the two-piece normal
    with scale lam^(-1/2).
    """
    if not lam > 0:
        raise DomainError(f"need lam > 0, got {lam}")
    two_piece_second_moment(gamma)
    m = _stretched(x, gamma)
    u_min = lam * m * m
    log_chi3 = -0.5 * math.log(2.0 * math.pi)  # plus (1/2)log u - u/2

    def integrand(u):
        u = np.asarray(u, dtype=float)
        radius = np.sqrt(u / lam)
        height = 1.0 / (radius * (gamma + 1.0 / gamma))
        return height * np.exp(log_chi3 + 0.5 * np.log(u) - 0.5 * u)

    return integrand, u_min, math.inf


def _log_ep_kernel(m: float, lam_scale: np.ndarray, p: float) -> np.ndarray:
    """Log density at m of the exponential power with scale lam_scale and tail p."""
    return (
        math.log(p)
        - (1.0 + 1.0 / p) * math.log(2.0)
        - gammaln(1.0 / p)
        - np.log(lam_scale)
        - 0.5 * (abs(m) / lam_scale) ** p
    )


def _gg_mixture(x: float, alpha: float, gamma: float, p: float, q: float):
    """The BSGT density at x as an integral of the exponential-power kernel
    over its generalized-gamma mixing law, as (f, a, b)."""
    delta = gt_standard_scale(p, q)
    m = _stretched(x, gamma)
    c = math.log(2.0) - math.log(gamma + 1.0 / gamma)
    log_gg_const = math.log(p) - math.log(2.0) - gammaln(q)
    const = c + _log_tilt(x, alpha, gamma)

    def integrand(s):
        s = np.asarray(s, dtype=float)
        lam_scale = (0.5 * q) ** (1.0 / p) * delta / np.sqrt(s)
        with np.errstate(divide="ignore"):
            log_gg = log_gg_const + (0.5 * p * q - 1.0) * np.log(s) - s ** (0.5 * p)
        return np.exp(const + _log_ep_kernel(m, lam_scale, p) + log_gg)

    return integrand, 0.0, math.inf


def _uniform_gg_densities(points, tol: float = 1e-7) -> list[OracleResult]:
    """The BSGT density at each point (x, alpha, gamma, p, q), rebuilt from the
    double mixture: uniform layer inside the generalized-gamma layer.

    At each point the inner integral runs over the uniform-layer radius
    variable u from the smallest u whose piece still covers x, and the outer
    integral over the generalized-gamma scale s.  The outer integrals share
    rounds, and each round's inner integrals, one per outer node, go to one
    `_integrate_rows` call.  Every integral bisects as it would alone, so
    each result is the one-point result, and its evaluations count the
    point's outer and inner integrals.
    """
    consts = [_UniformGG.at(*point) for point in points]
    if not tol > 0:
        raise DomainError("tol must be positive")
    p_of, m_of, inv_width, radius_scale = (
        np.array([getattr(c, name) for c in consts]) for name in ("p", "m", "inv_width", "radius_scale")
    )
    inner_evals = np.zeros(len(consts), dtype=int)

    def outer(ss, points_of):
        owner = points_of.repeat(15)  # the point of each node, one inner integral per node
        root_s = np.sqrt(ss).ravel()
        # the power of floats, which can differ from numpy's array power in the last bit
        stretch = (m_of[owner] * root_s / radius_scale[owner]).tolist()
        lowers = np.array([v**p for v, p in zip(stretch, p_of[owner].tolist())])

        def integrand(v, rows):
            out = np.empty_like(v)
            # a pass per run of rows with one p, which stays a scalar exponent
            at = owner[rows]
            for lo, hi in _runs(p_of[at]):
                p, log_u_const = consts[at[lo]].p, consts[at[lo]].log_u_const
                u = lowers[rows[lo:hi], None] + v[lo:hi]
                radius = radius_scale[at[lo:hi], None] * u ** (1.0 / p) / root_s[rows[lo:hi], None]
                out[lo:hi] = inv_width[at[lo:hi], None] / radius * np.exp(
                    log_u_const + (1.0 / p) * np.log(u) - u
                )
            return out

        # over v = u - lower on (0, inf), every inner integral has one plan
        plan = _plan(0.0, math.inf, count=owner.size)
        values, _, evals, _ = _integrate_rows(integrand, [plan], 0.01 * tol, 50_000)
        np.add.at(inner_evals, owner, evals)
        values = values.reshape(ss.shape)
        out = np.empty_like(ss)
        for lo, hi in _runs(points_of):
            c, s = consts[points_of[lo]], ss[lo:hi]
            log_gg = c.log_gg_const + (0.5 * c.p * c.q - 1.0) * np.log(s) - s ** (0.5 * c.p)
            out[lo:hi] = np.exp(log_gg) * values[lo:hi] * c.tilt
        return out

    plan = _plan(0.0, math.inf, count=len(consts))
    value, error, evals, ok = _integrate_rows(outer, [plan], tol, 1_000_000)
    return _results((value, error, evals + inner_evals, ok))


class _UniformGG(NamedTuple):
    """The constants of the double mixture at one point (x, alpha, gamma, p, q)."""

    p: float
    q: float
    m: float  # |x| stretched by gamma
    tilt: float
    log_gg_const: float
    inv_width: float  # of the uniform layer
    log_u_const: float
    radius_scale: float

    @classmethod
    def at(cls, x: float, alpha: float, gamma: float, p: float, q: float) -> "_UniformGG":
        if not math.isfinite(x):  # x enters the inner lower limits
            raise DomainError(f"need a finite x, got {x}")
        delta = gt_standard_scale(p, q)  # validates p and q
        return cls(
            p,
            q,
            abs(_stretched(x, gamma)),
            math.exp(_log_tilt(x, alpha, gamma)),
            math.log(p) - math.log(2.0) - gammaln(q),
            1.0 / (gamma + 1.0 / gamma),
            -gammaln(1.0 + 1.0 / p),
            q ** (1.0 / p) * delta,
        )


def _runs(labels: np.ndarray) -> list[tuple[int, int]]:
    """The (start, stop) of each run of equal neighbours in ``labels``."""
    cuts = (np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, len(labels)]))


# ---------- goodness-of-fit ----------


def _ks_from_cdf(f_sorted: np.ndarray) -> float:
    n = f_sorted.size
    upper = np.arange(1, n + 1) / n
    return float(max(np.max(upper - f_sorted), np.max(f_sorted - (upper - 1.0 / n))))


def _ks_sorted(xs: np.ndarray, cdf) -> float:
    """KS distance of the sorted sample ``xs`` against the increasing ``cdf``,
    equal to ``_ks_from_cdf(cdf(xs))`` bit for bit.

    ``cdf`` must act pointwise on an array.  It is evaluated at every 16th
    point and the last, and then only inside the gaps that can hold the
    maximum.  Between evaluated points j < k every F_i lies in
    [F_j, F_k], so the points of the gap score at most
    max(upper[k-1] - F_j, F_k - lower[j+1]); a gap whose bound stays 1e-12
    below the maximum so far is skipped, and the slack covers a CDF that
    rounding leaves a few ulps short of monotone.  NaN sorts last, so a
    NaN in the sample always reaches ``cdf``.
    """
    n = xs.size
    if xs.ndim != 1 or n == 0:
        raise DomainError("the KS distance needs a non-empty one-dimensional sample")
    upper = np.arange(1, n + 1) / n
    lower = upper - 1.0 / n
    seen = np.arange(0, n + 15, 16)
    seen[-1] = n - 1
    f = cdf(xs[seen])
    distance = max(np.max(upper[seen] - f), np.max(f - lower[seen]))
    j, k = seen[:-1], seen[1:]
    bound = np.maximum(upper[k - 1] - f[:-1], f[1:] - lower[j + 1])
    gaps = (k - j > 1) & (bound >= distance - 1e-12)
    starts, sizes = j[gaps] + 1, k[gaps] - j[gaps] - 1
    if sizes.size:
        fill = np.arange(sizes.sum()) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
        f = cdf(xs[fill])
        distance = max(distance, np.max(upper[fill] - f), np.max(f - lower[fill]))
    return float(distance)


def ks_distance(sample_values, spec: DistributionSpec) -> float:
    """KS distance of a sample against the family's closed-form CDF."""
    return _ks_sorted(np.sort(np.asarray(sample_values, dtype=float)), partial(cdf_values, spec))


def _quadratic_tilt_cdf(xs: np.ndarray, gamma: float, base) -> np.ndarray:
    """CDF of x^2 f_gamma(x) / b(gamma), f_gamma the two-piece density on ``base``.

    It is the law of `sampling._two_piece`'s x^2-weighted draws; on each half-line it
    is the base's r = 2 partial moment, stretched by gamma on the right and
    1/gamma on the left.
    """
    k = 2.0 / ((gamma + 1.0 / gamma) * two_piece_second_moment(gamma))
    below = xs < 0
    out = np.empty_like(xs)
    out[below] = k / gamma**3 * base.partial_moment(2, -xs[below] * gamma, upper=True)
    left = k / gamma**3 * base.partial_moment(2, 0.0, upper=True)
    out[~below] = left + k * gamma**3 * base.partial_moment(2, xs[~below] / gamma)
    return out


def _normal_pdf(xs):
    xs = np.asarray(xs, dtype=float)
    return np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)


def _student_pdf(xs, nu: float):
    """Textbook (unit-scale) Student-t density with nu degrees of freedom."""
    xs = np.asarray(xs, dtype=float)
    log_const = gammaln(0.5 * (nu + 1.0)) - gammaln(0.5 * nu) - 0.5 * math.log(nu * math.pi)
    return np.exp(log_const - 0.5 * (nu + 1.0) * np.log1p(xs * xs / nu))


def _beta_prime_pdf(ws, a: float, b: float):
    """Beta-prime density w^(a-1) (1 + w)^(-a-b) / B(a, b) on w > 0."""
    ws = np.asarray(ws, dtype=float)
    return np.exp((a - 1.0) * np.log(ws) - (a + b) * np.log1p(ws) - betaln(a, b))


# ---------- the identity suite ----------

_GRID_ALPHAS = (0.0, 0.5, 1.0, 3.0, 10.0)
_GRID_GAMMAS = (0.5, 0.9, 1.0, 1.1, 1.5)
_GRID_NUS = (3.0, 4.0, 8.0)
_GRID_PQS = ((1.7, 2.0), (2.0, 2.0), (2.3, 2.0), (2.0, 5.0))
_MIX_XS = (-2.0, -0.5, 0.0, 0.5, 2.0)
_MIX_GAMMAS = (0.8, 1.5)


def _masses(specs) -> list[OracleResult]:
    """`integrate` of each spec's `pdf` over the line at tol 1e-10, in one `_integrate_rows` call.

    Each round evaluates the density once per distinct base: the rows of the
    specs that share it go to `families._log_density` together, with one
    row of parameters per panel.
    """
    bases = list(dict.fromkeys(spec.base for spec in specs))
    group = np.array([bases.index(spec.base) for spec in specs])
    params = [np.array([getattr(s, name) for s in specs]) for name in ("alpha", "gamma", "b", "loc", "scale")]

    def rows_f(xs, rows):
        out = np.empty_like(xs)
        for k, base in enumerate(bases):
            sel = np.flatnonzero(group[rows] == k)
            if sel.size:
                out[sel] = np.exp(_log_density(base, *(c[rows[sel, None]] for c in params), xs[sel]))
        return out

    plan = _plan(-math.inf, math.inf, count=len(specs))
    return _results(_integrate_rows(rows_f, [plan], 1e-10, 1_000_000))


def _norm_discrepancies(specs) -> list[float]:
    out = []
    for res in _masses(specs):
        off = abs(res.value - 1.0)
        # an unconverged run still proves the identity if its error bound is tiny
        out.append(off if res.converged else max(off, res.abs_error_estimate))
    return out


def _sup_diff(f, g, grid) -> float:
    return float(np.max(np.abs(f(grid) - g(grid))))


@dataclass(frozen=True)
class _Case:
    """One identity: ``run()`` builds its specs and returns its value, at most ``tolerance`` to pass."""

    identity: str
    run: Callable[[], object]
    tolerance: float


def _suite(seed: int, n: int) -> tuple[list[_Case], list[tuple]]:
    """The identity suite: its cases in order, and the tasks they run as.

    A task is ``(positions, batch, cost)``: the positions of its cases in
    the suite, None or a function that gets what the cases' ``run`` return
    all at once and returns their values, and the milliseconds one case
    takes on average, which order the dispatch.  There are 15: the normalizations; every
    other quadrature identity (mass ratio, moments, the gamma, uniform and gg
    mixtures), whose integrals all share one round loop; the uniform-gg
    mixtures; the closed-form cases; and each sampler gate alone.  The costs
    were measured in-process on a 2-core x86-64 host at the default sample
    size; only their order matters.  Nothing is built here: each case builds
    its specs when it runs.
    """
    cases: list[_Case] = []
    norm: list[int] = []
    quadrature: list[int] = []
    uniform_gg: list[int] = []
    closed_form: list[int] = []
    gates: list[tuple] = []

    def add(group: list[int], *new: _Case) -> list[int]:
        group.extend(range(len(cases), len(cases) + len(new)))
        cases.extend(new)
        return group

    def rng(stream):
        return RngStream(seed, stream).generator

    # normalization over the full parameter grid, every spec in one shared integral
    for a in _GRID_ALPHAS:
        for g in _GRID_GAMMAS:
            add(norm, _Case(f"normalization/bsn alpha={a} gamma={g}", partial(bsn, a, g), 1e-8))
            for nu in _GRID_NUS:
                ident = f"normalization/bsstd alpha={a} gamma={g} nu={nu}"
                add(norm, _Case(ident, partial(bsstd, a, g, nu), 1e-8))
            for p, q in _GRID_PQS:
                ident = f"normalization/bsgt alpha={a} gamma={g} p={p} q={q}"
                add(norm, _Case(ident, partial(bsgt, a, g, p, q), 1e-8))

    # reduction chain
    grid = np.linspace(-10.0, 10.0, 401)

    def gent_student(a, g):
        return _sup_diff(
            lambda xs: pdf(bsgt(a, g, 2.0, 2.0), xs), lambda xs: pdf(bsstd(a, g, 4.0), xs), grid
        )

    def normal_limit(a, g):
        return _sup_diff(lambda xs: pdf(bsstd(a, g, 1e4), xs), lambda xs: pdf(bsn(a, g), xs), grid)

    # the textbook densities written out above are the references below
    def symmetric_student():
        k = math.sqrt(5.0 / 3.0)
        return _sup_diff(
            lambda xs: pdf(bsstd(0.0, 1.0, 5.0), xs), lambda xs: _student_pdf(xs * k, 5.0) * k, grid
        )

    def symmetric_gent():
        p, q = 1.7, 2.0
        delta = gt_standard_scale(p, q)

        def gt_via_betaprime(xs):
            az = np.abs(np.asarray(xs, dtype=float))
            w = (az / delta) ** p / q
            jacobian = 0.5 * p * (az / delta) ** (p - 1.0) / (q * delta)
            return _beta_prime_pdf(w, 1.0 / p, q) * jacobian

        zero_free = np.linspace(-10.0, 10.0, 400)
        return _sup_diff(lambda xs: pdf(bsgt(0.0, 1.0, p, q), xs), gt_via_betaprime, zero_free)

    def two_piece_direct(xs):
        xs = np.asarray(xs, dtype=float)
        return 2.0 / 2.5 * _normal_pdf(np.where(xs >= 0, xs / 2.0, xs * 2.0))

    add(
        closed_form,
        *(
            _Case(f"reduction/gent-student alpha={a} gamma={g}", partial(gent_student, a, g), 1e-10)
            for a, g in ((0.0, 1.0), (1.0, 0.8), (3.0, 1.5))
        ),
        *(
            _Case(
                f"reduction/student-normal-limit alpha={a} gamma={g}", partial(normal_limit, a, g), 1e-3
            )
            for a, g in ((1.0, 1.5), (3.0, 0.8))
        ),
        _Case(
            "reduction/symmetric-base normal",
            lambda: _sup_diff(lambda xs: pdf(bsn(0.0, 1.0), xs), _normal_pdf, grid),
            1e-12,
        ),
        _Case("reduction/symmetric-base student nu=5", symmetric_student, 1e-12),
        _Case("reduction/symmetric-base gent p=1.7 q=2", symmetric_gent, 1e-12),
        _Case(
            "reduction/two-piece-normal gamma=2",
            lambda: _sup_diff(lambda xs: pdf(bsn(0.0, 2.0), xs), two_piece_direct, grid),
            1e-12,
        ),
    )

    # reflection: pdf(x; gamma) = pdf(-x; 1/gamma)
    refl_grid = np.linspace(-6.0, 6.0, 241)

    def reflection(make):
        return max(
            float(np.max(np.abs(pdf(make(g), refl_grid) - pdf(make(1.0 / g), -refl_grid))))
            for g in (0.5, 1.0, 2.0)
        )

    add(
        closed_form,
        _Case("reflection/bsn", partial(reflection, partial(bsn, 1.0)), 1e-12),
        _Case("reflection/bsstd nu=4", partial(reflection, lambda g: bsstd(1.0, g, 4.0)), 1e-12),
        _Case("reflection/bsgt p=1.7 q=2", partial(reflection, lambda g: bsgt(1.0, g, 1.7, 2.0)), 1e-12),
    )

    # mass ratio at alpha = 0
    def mass_ratio(make, g):
        density = partial(pdf, make(g))
        halves = [(density, 0.0, math.inf, 1e-11), (density, -math.inf, 0.0, 1e-11)]
        return halves, lambda mass: abs(mass[0] / mass[1] - g * g)

    add(
        quadrature,
        *(
            _Case(f"mass-ratio/{label} gamma={g}", partial(mass_ratio, make, g), 1e-8)
            for label, make in (
                ("bsn", partial(bsn, 0.0)),
                ("bsstd nu=4", lambda g: bsstd(0.0, g, 4.0)),
                ("bsgt p=2 q=5", lambda g: bsgt(0.0, g, 2.0, 5.0)),
            )
            for g in (0.5, 2.0)
        ),
    )

    # an integral's gap from a closed-form reference
    def gap(item, tol, ref):
        return [(*item, tol)], lambda value: abs(value[0] - ref)

    # closed-form moments vs direct quadrature over the line, with existence bookkeeping
    def moment_gap(make, r):
        spec = make()
        return gap((lambda xs: xs**r * pdf(spec, xs), -math.inf, math.inf), 1e-9, full_moment(spec, r))

    for label, make, orders in (
        ("bsn alpha=0 gamma=1.5", partial(bsn, 0.0, 1.5), (1, 2, 3, 4)),
        ("bsn alpha=1 gamma=0.5", partial(bsn, 1.0, 0.5), (1, 2, 3, 4)),
        ("bsn alpha=3 gamma=1", partial(bsn, 3.0, 1.0), (1, 2, 3, 4)),
        ("bsstd alpha=0 gamma=1.5 nu=8", partial(bsstd, 0.0, 1.5, 8.0), (1, 2, 3, 4)),
        ("bsstd alpha=1 gamma=0.8 nu=8", partial(bsstd, 1.0, 0.8, 8.0), (1, 2, 3, 4)),
        ("bsstd alpha=0 gamma=1.5 nu=4", partial(bsstd, 0.0, 1.5, 4.0), (1, 2, 3)),
        ("bsgt alpha=0 gamma=1.5 p=2 q=5", partial(bsgt, 0.0, 1.5, 2.0, 5.0), (1, 2, 3, 4)),
        ("bsgt alpha=1 gamma=0.8 p=2 q=5", partial(bsgt, 1.0, 0.8, 2.0, 5.0), (1, 2, 3, 4)),
        ("bsgt alpha=0 gamma=1.2 p=1.7 q=2", partial(bsgt, 0.0, 1.2, 1.7, 2.0), (1, 2, 3)),
        ("bsgt alpha=1 gamma=1.2 p=1.7 q=2", partial(bsgt, 1.0, 1.2, 1.7, 2.0), (1,)),
    ):
        for r in orders:
            add(quadrature, _Case(f"moments/{label} r={r}", partial(moment_gap, make, r), 1e-6))

    def existence_misses(make, expected):
        spec = make()
        return float(sum(moment_exists(spec, r) != exp for r, exp in enumerate(expected, 1)))

    add(
        closed_form,
        *(
            _Case(f"moments/existence {label}", partial(existence_misses, make, exists), 0.0)
            for label, make, exists in (
                ("bsstd nu=3", partial(bsstd, 1.0, 1.0, 3.0), (False, False, False, False)),
                ("bsstd nu=3 alpha=0", partial(bsstd, 0.0, 1.0, 3.0), (True, True, False, False)),
                ("bsstd nu=4", partial(bsstd, 1.0, 1.0, 4.0), (True, False, False, False)),
                ("bsstd nu=8", partial(bsstd, 1.0, 1.0, 8.0), (True, True, True, True)),
                ("bsgt p=2 q=2", partial(bsgt, 1.0, 1.0, 2.0, 2.0), (True, False, False, False)),
                ("bsgt p=1.7 q=2 alpha=0", partial(bsgt, 0.0, 1.0, 1.7, 2.0), (True, True, True, False)),
                ("bsgt p=2 q=5", partial(bsgt, 1.0, 1.0, 2.0, 5.0), (True, True, True, True)),
            )
        ),
    )

    # mixture marginalizations vs closed forms
    def gamma_gap(x, g):
        return gap(_gamma_mixture(x, 1.0, g, 4.0), 1e-10, float(pdf(bsstd(1.0, g, 4.0), x)))

    def uniform_gap(x, g, lam):
        return gap(_uniform_mixture(x, g, lam), 1e-10, float(pdf(bsn(0.0, g, scale=lam**-0.5), x)))

    def gg_gap(x, g, p, q):
        return gap(_gg_mixture(x, 1.0, g, p, q), 1e-9, float(pdf(bsgt(1.0, g, p, q), x)))

    def uniform_gg_point(x, g, p, q):
        return (x, 1.0, g, p, q), float(pdf(bsgt(1.0, g, p, q), x))

    def uniform_gg_gaps(runs):
        points, refs = zip(*runs)
        return [abs(res.value - ref) for res, ref in zip(_uniform_gg_densities(points), refs)]

    add(
        quadrature,
        *(
            _Case(f"mixture/gamma x={x} gamma={g}", partial(gamma_gap, x, g), 1e-6)
            for g in _MIX_GAMMAS
            for x in _MIX_XS
        ),
        *(
            _Case(f"mixture/uniform x={x} gamma={g} lambda={lam}", partial(uniform_gap, x, g, lam), 1e-6)
            for g in _MIX_GAMMAS
            for lam in (1.0, 2.5)
            for x in _MIX_XS
        ),
    )
    # the gg and uniform-gg identities alternate in the suite
    for p, q in ((1.7, 2.0), (2.0, 2.0), (2.3, 2.0)):
        for g in _MIX_GAMMAS:
            for x in _MIX_XS:
                name = f"x={x} gamma={g} p={p} q={q}"
                add(quadrature, _Case(f"mixture/gg {name}", partial(gg_gap, x, g, p, q), 1e-5))
                add(
                    uniform_gg,
                    _Case(f"mixture/uniform-gg {name}", partial(uniform_gg_point, x, g, p, q), 1e-4),
                )

    # mode-count law for the normal base at gamma = 1, plus mode geometry
    def count_miss(a):
        return float(abs(len(find_modes(bsn(a, 1.0))) - (1 if a < 0.5 else 2)))

    def location_gap():
        locs = sorted(loc for loc, _ in find_modes(bsn(0.6, 1.0)))
        target = math.sqrt(2.0 - 1.0 / 0.6)
        return max(abs(locs[0] + target), abs(locs[1] - target))

    def right_taller():
        modes = find_modes(bsn(3.0, 1.5))
        return 0.0 if len(modes) == 2 and modes[-1][1] > modes[0][1] else 1.0

    def two_piece_peak():
        modes = find_modes(bsn(0.0, 2.0))
        return abs(modes[0][0]) + float(len(modes) != 1)

    add(
        closed_form,
        *(
            _Case(f"modes/count alpha={a}", partial(count_miss, a), 0.0)
            for a in (0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9, 1.0)
        ),
        _Case("modes/location alpha=0.6", location_gap, 1e-6),
        _Case("modes/right-taller alpha=3 gamma=1.5", right_taller, 0.0),
        _Case("modes/two-piece-peak alpha=0 gamma=2", two_piece_peak, 1e-6),
    )

    # sampler goodness-of-fit gates, one task each: a family member through
    # `sample`, every other hierarchy through its private helper
    gate = 1.63 / math.sqrt(n)

    def member_ks(spec, stream):
        return ks_distance(sample(spec, n, rng(stream)), spec)

    def quadratic_tilt_ks():
        xs = np.sort(_two_piece(2.0, NormalBase(), rng(3), n, tilted=True))
        return _ks_sorted(xs, lambda x: _quadratic_tilt_cdf(x, 2.0, NormalBase()))

    def gen_gamma_ks():
        # s^(p/2) of a generalized-gamma draw is Gamma(q, 1)
        s = _gen_gamma(1.7, 2.0, rng(8), n)
        return _ks_sorted(np.sort(s ** (1.7 / 2.0)), partial(gammainc, 2.0))

    def bsgt_uniform_ks():
        spec = bsgt(1.0, 0.8, 2.3, 2.0)
        return ks_distance(_finite(_gen_t_draws(spec, rng(10), n, "uniform-gg")), spec)

    # each gate's cost is its milliseconds at 1e5 draws
    for label, cost, run in (
        (
            "two-piece gamma=2",
            6.0,
            lambda: ks_distance(_two_piece(2.0, NormalBase(), rng(1), n), bsn(0.0, 2.0)),
        ),
        (
            "two-piece-student gamma=0.8 nu=5",
            12.0,
            lambda: ks_distance(
                _two_piece(0.8, StudentTBase(5.0), rng(2), n), bsstd(0.0, 0.8, 5.0)
            ),
        ),
        ("quadratic-tilt gamma=2", 7.0, quadratic_tilt_ks),
        ("bsn alpha=1 gamma=1.5", 12.0, lambda: member_ks(bsn(1.0, 1.5), 4)),
        (
            "bsn-uniform alpha=1 gamma=1.5",
            14.0,
            lambda: ks_distance(_uniform_normal_draws(bsn(1.0, 1.5), rng(5), n), bsn(1.0, 1.5)),
        ),
        (
            "uniform-normal gamma=2 lambda=2.5",
            10.0,
            lambda: ks_distance(
                _uniform_two_piece_normal(2.0, 2.5, rng(6), n), bsn(0.0, 2.0, scale=2.5**-0.5)
            ),
        ),
        ("bsstd alpha=1 gamma=1.5 nu=4", 18.0, lambda: member_ks(bsstd(1.0, 1.5, 4.0), 7)),
        ("gen-gamma p=1.7 q=2", 7.0, gen_gamma_ks),
        ("bsgt p=1.7 q=2 alpha=1 gamma=1.5", 29.0, lambda: member_ks(bsgt(1.0, 1.5, 1.7, 2.0), 9)),
        ("bsgt-uniform p=2.3 q=2 alpha=1 gamma=0.8", 33.0, bsgt_uniform_ks),
        ("bsgt p=2.3 q=2 alpha=1 gamma=1.5", 20.0, lambda: member_ks(bsgt(1.0, 1.5, 2.3, 2.0), 11)),
    ):
        gates.append((add([], _Case(f"sampler/{label}", run, gate)), None, cost * n / 1e5))
    return cases, [
        (norm, _norm_discrepancies, 0.17),
        (quadrature, _integral_batch, 0.55),
        (uniform_gg, uniform_gg_gaps, 2.8),
        (closed_form, None, 0.1),
        *gates,
    ]


def _run_task(task) -> list[dict]:
    """The records of one task's cases."""
    batch, cases = task
    outputs = [case.run() for case in cases]
    values = outputs if batch is None else batch(outputs)
    records = []
    for case, value in zip(cases, values):
        records.append(
            {
                "identity": case.identity,
                "status": "pass" if value <= case.tolerance else "fail",
                "value": float(value),
                "tolerance": float(case.tolerance),
            }
        )
    return records


def run_checks(
    only: str | None = None,
    seed: int = 20260814,
    sample_size: int = 100_000,
) -> list[dict]:
    """Run the identity suite; returns one record per identity, in suite order.

    Each record is {"identity", "status", "value", "tolerance"}; ``value`` is
    the achieved discrepancy, and a case passes when it is at most ``tolerance``.
    ``only`` filters identities by substring before anything is built.

    The selected cases run as tasks through `_workers.map_forked`, on two
    workers forked with `os.fork` when the selection spans two tasks or
    more, two CPUs are usable and the caller has one thread; otherwise
    in-process.  The tasks go out costliest first, by the estimate the suite
    gives each, and a worker takes the next one only when it is free, so the
    cheap ones fill in around the dear ones.  Each sampler gate is a task of
    its own, the closed-form cases are one, and the integrals of a task share
    one round loop: the selected normalizations, whose density is evaluated
    once per distinct base per round; every other selected quadrature
    identity (mass ratio, moments, and the `_gamma_mixture`, `_uniform_mixture`
    and `_gg_mixture` integrands), each integral bisecting and ending as it
    would alone; and every selected uniform-gg marginalization, whose outer
    integrals share rounds in `_uniform_gg_densities`.  The
    records are the same either way, and an exception raised by a task
    reaches the caller as in-process; a worker that dies raises
    `_workers.WorkerError`.
    """
    from ._workers import map_forked

    n = int(sample_size)
    if n < 1:
        raise DomainError(f"sample size must be at least 1, got {sample_size}")
    cases, tasks = _suite(seed, n)
    chosen = []
    for positions, batch, cost in tasks:
        picked = positions if only is None else [i for i in positions if only in cases[i].identity]
        if picked:
            chosen.append((picked, batch, cost * len(picked)))
    chosen.sort(key=lambda task: -task[2])
    work = [(batch, [cases[i] for i in picked]) for picked, batch, _ in chosen]

    done = map_forked(_run_task, work)
    # reassemble per case: a batched task's cases can be spread over the suite
    by_position = {}
    for (picked, _, _), records in zip(chosen, done):
        by_position.update(zip(picked, records))
    return [by_position[i] for i in sorted(by_position)]
