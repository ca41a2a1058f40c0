"""Independent validation machinery for the distribution identities.

Everything here exists to cross-check the closed-form code in `families` and
the samplers in `sampling` by a second route: adaptive Gauss-Kronrod
quadrature (self-contained, deliberately not sharing the library CDF's
integration code), numeric marginalization of the scale-mixture hierarchies,
Monte Carlo moments, and Kolmogorov-Smirnov gates against the closed-form
distribution functions.  The textbook reference densities and the two-sample
KS p-value are written out here on `scipy.special`, so a check needs nothing
from `scipy.stats`.  `run_checks` executes the whole identity suite and is
what the ``check`` CLI command prints.  Its cases run as tasks
on up to two forked worker processes; the records are the same as when they
run in-process.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy.special import betaln, gammainc, gammaln, kolmogorov

from ._workers import map_forked
from .bases import GenTBase, NormalBase, StudentTBase, gt_standard_scale
from .errors import DomainError, ExistenceError
from .families import (
    DistributionSpec,
    _log_density,
    bsgt,
    bsn,
    bsstd,
    cdf_values,
    find_modes,
    full_moment,
    log_pdf,
    moment_exists,
    pdf,
    two_piece_second_moment,
)
from .sampling import (
    RngStream,
    sample,
    sample_bsgt,
    sample_bsn,
    sample_bsstd,
    sample_gen_gamma,
    sample_quadratic_tilt,
    sample_skewed_uniform_normal,
    sample_two_piece,
)

__all__ = [
    "OracleResult",
    "integrate",
    "gamma_mixture_density",
    "uniform_mixture_density",
    "gg_mixture_density",
    "uniform_gg_mixture_density",
    "mc_moment",
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


def _t_of(y: float) -> float:
    """Inverse of y = t/(1 - t^2) on (-1, 1), in a cancellation-free form."""
    if y == 0.0:
        return 0.0
    return 2.0 * y / (1.0 + math.hypot(1.0, 2.0 * y))


def _plan(a: float, b: float, points=()) -> tuple[float | None, list[tuple[float, float]]]:
    """The fold anchor (None on a finite range) and the first panels of one integral.

    Infinite tails are folded onto (-1, 1) by x = anchor + t/(1 - t^2).  The
    range is cut at ``points`` and at an interior 0, and each segment is
    halved once so a lone panel cannot fake convergence.
    """
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b) or not a < b:
        raise DomainError(f"need an interval with a < b, got ({a}, {b})")
    if math.isinf(a) or math.isinf(b):
        if math.isinf(a) and math.isinf(b):
            anchor, lo, hi = 0.0, -1.0, 1.0
        elif math.isinf(b):
            anchor, lo, hi = a, 0.0, 1.0
        else:
            anchor, lo, hi = b, -1.0, 0.0
        breaks = [_t_of(p - anchor) for p in points]
        if a < 0.0 < b:
            breaks.append(_t_of(0.0 - anchor))
    else:
        anchor, lo, hi = None, a, b
        breaks = list(points)
        if a < 0.0 < b:
            breaks.append(0.0)

    cuts = sorted({lo, hi, *(p for p in breaks if lo < p < hi)})
    panels = []
    for left, right in zip(cuts[:-1], cuts[1:]):
        panels += [(left, 0.5 * (left + right)), (0.5 * (left + right), right)]
    return anchor, panels


def _tail_plan(lowers) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """The plan of the integrals over (a, inf), a in ``lowers``: `_plan`'s
    for a finite a >= 0, with the anchors in an array; any other a raises DomainError."""
    lowers = np.asarray(lowers, dtype=float)
    if not ((lowers >= 0.0) & (lowers < math.inf)).all():
        raise DomainError(f"need finite lower limits a >= 0, got {lowers.min()} to {lowers.max()}")
    return lowers, [(0.0, 0.5), (0.5, 1.0)]


def _gk_rows(f, lo, hi, rows, anchors, folded):
    """Kronrod values, error estimates and midpoints of the panels (lo, hi).

    ``lo`` and ``hi`` share one shape, which the three results take, and the
    flat ``rows`` gives each panel's integral in row-major order.  ``folded``
    is False when no integral is folded, True when every one is, and else
    each integral's flag.  Runs under the errstate of `_integrate_rows`.
    """
    width = hi - lo
    mid = 0.5 * (lo + hi)
    half = 0.5 * width
    ts = mid[..., None] + half[..., None] * _NODES
    if folded is False:
        ys = np.asarray(f(ts.reshape(-1, 15), rows), dtype=float).reshape(ts.shape)
    else:
        column = ts.shape[:-1] + (1,)
        tt = ts * ts
        one_minus = 1.0 - tt
        xs = anchors[rows].reshape(column) + ts / one_minus
        jac = (1.0 + tt) / one_minus**2
        # deep bisection can round a node onto t = +-1, the one place the
        # map is not finite; the true contribution there is zero and the
        # integrand never sees inf
        ok = one_minus != 0.0
        if folded is not True:
            fold = folded[rows].reshape(column)
            xs = np.where(fold, xs, ts)
            jac = np.where(fold, jac, 1.0)
            ok |= ~fold
        ys = np.asarray(f(np.where(ok, xs, 0.0).reshape(-1, 15), rows), dtype=float)
        ys = ys.reshape(ts.shape) * jac
        # only folded rows drop non-finite values: on a finite range a NaN is the answer
        keep = ok & np.isfinite(ys)
        if folded is not True:
            keep |= ~fold
        ys = np.where(keep, ys, 0.0)

    kronrod_gauss = np.add.reduce(ys[..., None, :] * _WKG, axis=-1)
    kronrod = half * kronrod_gauss[..., 0]
    diff = np.abs(kronrod - half * kronrod_gauss[..., 1])
    # sharpen |K - G| relative to the panel's own variation: the Kronrod
    # estimate is far better than the raw gap on smooth panels, but not on
    # rough ones, and an absolute cutoff would misjudge small-valued tails
    spread = half * np.add.reduce(np.abs(ys - (kronrod / width)[..., None]) * _WK, axis=-1)
    sharp = spread * np.minimum(1.0, (200.0 * diff / spread) ** 1.5)
    return kronrod, np.where(np.minimum(spread, diff) > 0.0, sharp, diff), mid


def _split_keys(lo, mid, hi, vals, errs, rows, retired) -> np.ndarray:
    """The selection keys of new panels: each one's error, or -inf where it
    has no representable midpoint.  Such a panel is retired unsplit: its
    (value, error) goes to ``retired[rows[i]]``."""
    whole = (lo < mid) & (mid < hi)
    if np.count_nonzero(whole) == whole.size:
        return errs
    for i in zip(*np.nonzero(~whole)):
        retired.setdefault(int(rows[i]), []).append((float(vals[i]), float(errs[i])))
    return np.where(whole, errs, -np.inf)


def _integrate_rows(f, plans, tol, max_evals: int) -> tuple[np.ndarray, ...]:
    """Advance the adaptive integrals of ``plans`` (from `_plan`) in shared rounds.

    ``tol`` is one tolerance, or a sequence of one per integral.  Each
    round, every integral whose summed error estimate is above its tolerance
    and whose budget has room for two more panels bisects its worst panel,
    the oldest on ties; a panel with no representable midpoint is retired
    unsplit.  All children of the round go to ``f`` in one call as
    ``f(xs, rows)``, where ``xs`` is an (m, 15) array of nodes, one panel per
    row, and ``rows[i]`` the index into ``plans`` of the integral that row i
    belongs to.  ``f`` returns the (m, 15) integrand values.  Each integral
    follows the bisection sequence it would follow alone.

    It returns the `OracleResult` fields as arrays (see `_results`).  The
    panels live in one array with a row per integral still going and a
    column per panel, in the order the panels were made: the first panels,
    then the two children of each round.
    """
    # a plan's anchor may be an array: one integral per anchor, each with the plan's panels
    sizes = [np.size(anchor) for anchor, _ in plans]
    anchors = np.concatenate([np.full(k, 0.0 if a is None else a) for (a, _), k in zip(plans, sizes)])
    folded = np.repeat([anchor is not None for anchor, _ in plans], sizes)
    folded = folded if folded.any() and not folded.all() else bool(folded[0])
    widths = [len(panels) for _, panels in plans]
    n = anchors.size
    rows = np.arange(n).repeat(np.repeat(widths, sizes))
    cols = np.concatenate([np.tile(np.arange(w), k) for w, k in zip(widths, sizes)])
    lo, hi = np.concatenate([np.tile(np.array(p).T, k) for (_, p), k in zip(plans, sizes)], axis=1)
    used = max(widths)
    tols = tol = np.broadcast_to(np.asarray(tol, dtype=float), n)
    # per panel: lo, midpoint, hi, Kronrod value, and the error estimate
    # while the panel can still be split, else -inf
    box = np.full((5, n, used + 32), -np.inf)
    # every coordinate is at most `ulp` apart from its neighbours, and a
    # midpoint rounds by at most ulp / 2, so a panel d bisections below the
    # first ones is at least narrowest / 2^d - ulp wide.  Through `deep`
    # bisections that is over 2 ulps, which leaves a representable midpoint:
    # the panels of the first `deep` rounds need no check
    ulp = np.spacing(max(1.0, -lo.min(), hi.max()))
    narrowest = float((hi - lo).min())
    deep = math.floor(math.log2(narrowest / (4.0 * ulp))) if narrowest > 0.0 else -1
    retired: dict[int, list] = {}  # integral: the (value, error) of its retired panels
    sums, spent_all = np.empty((2, n)), np.empty(n, dtype=int)  # value and error sums, evaluations
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals, errs, mids = _gk_rows(f, lo, hi, rows, anchors, folded)
        keys = errs if deep >= 0 else _split_keys(lo, mids, hi, vals, errs, rows, retired)
        box[:, rows, cols] = np.array([lo, mids, hi, vals, keys])
        # the integrals still going, their error totals (added in panel
        # order, as one integral adds them), the evaluations of their first
        # panels and the last round their budget allows
        active = np.arange(n)
        total = np.bincount(rows, weights=errs, minlength=n)
        evals = 15 * np.bincount(rows, minlength=n)
        last = (max_evals - evals) // 30
        tightest = last.min()
        stuck = _stuck(box[4, :, :used]) if retired else None
        at = active
        r = 0
        while True:
            r += 1
            go = total > tol
            if r > tightest:
                go &= last >= r
            if stuck is not None:
                go &= ~stuck
                stuck = None
            going = np.count_nonzero(go)
            if going < go.size:
                done = ~go
                spent_all[active[done]] = evals[done] + 30 * (r - 1)
                _finish(sums, box[:, done, :used], active[done], retired)
                if not going:
                    break
                box, active, total, evals, last = box[:, go], active[go], total[go], evals[go], last[go]
                tol = tol[go]
                at = np.arange(going)
            slot = box[4, :, :used].argmax(axis=1)
            pick = box[:, at, slot]
            box[4, at, slot] = -np.inf
            if used + 2 > box.shape[2]:
                box = np.concatenate([box, np.full_like(box, -np.inf)], axis=2)
            lo, hi = pick[:2].T, pick[1:3].T  # the children: (lo, mid) and (mid, hi)
            rows = active.repeat(2)
            vals, errs, mids = _gk_rows(f, lo, hi, rows, anchors, folded)
            keys = errs
            if r > deep:
                keys = _split_keys(lo, mids, hi, vals, errs, rows.reshape(-1, 2), retired)
            box[:, :, used : used + 2] = np.array([lo, mids, hi, vals, keys])
            if keys is not errs:
                stuck = _stuck(box[4, :, : used + 2])
            total += (errs[:, 0] + errs[:, 1]) - pick[4]
            used += 2
    return sums[0], sums[1], spent_all, sums[1] <= tols


def _stuck(keys) -> np.ndarray:
    """Which rows of ``keys`` have no panel left that can be split."""
    return keys.max(axis=1) == -np.inf


def _finish(sums, box, which, retired) -> None:
    """Enter the value and error sums of the integrals ``which``, whose
    panels are ``box``, into ``sums``.

    Each sum is exact (`math.fsum`), so the order of the panels changes
    nothing.
    """
    live = box[4] != -np.inf
    stops = np.cumsum(np.count_nonzero(live, axis=1)).tolist()
    spans = list(zip([0, *stops[:-1]], stops))
    for k in (0, 1):
        flat = box[3 + k][live].tolist()
        sums[k, which] = [math.fsum(flat[a:b]) for a, b in spans]
        for (a, b), j in zip(spans, which.tolist() if retired else ()):
            if j in retired:
                sums[k, j] = math.fsum(flat[a:b] + [panel[k] for panel in retired[j]])


def _results(columns) -> list[OracleResult]:
    """The `OracleResult`s of `_integrate_rows`'s result arrays."""
    return [OracleResult(*row) for row in zip(*(column.tolist() for column in columns))]


def integrate(f, a: float, b: float, tol: float = 1e-10, max_evals: int = 1_000_000, points=()):
    """Adaptive Gauss-Kronrod integral of ``f`` over (a, b), infinite ends allowed.

    ``f`` must accept a 1-D ndarray and return one of the same length.
    ``points`` lists interior abscissae to split at from the start (the
    densities here kink at 0, which callers pass explicitly).  Infinite tails
    are folded onto (-1, 1) by x = anchor + t/(1 - t^2), and on a folded
    range non-finite integrand values count as zero.  The worst-error
    interval is bisected until the summed error estimate drops below ``tol``
    or the evaluation budget runs out, in which case ``converged`` is False
    and the best estimate is returned.

    This is the one-integral case of the private `_integrate_rows`, which
    advances many integrals in shared rounds and hands ``f(xs, rows)`` an
    (m, 15) node array, one 15-point panel per row, plus each row's integral
    index; here ``f`` sees those nodes flattened, both children of a
    bisection in one call.
    """
    plan = _plan(a, b, points)
    if tol <= 0:
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


def gamma_mixture_density(x: float, alpha: float, gamma: float, nu: float, tol: float = 1e-10) -> OracleResult:
    """BSSTD density rebuilt by integrating the normal kernel over its gamma mixing law.

    The conditional given lambda is the tilted two-piece normal with scale
    lambda^(-1/2); marginalizing over Gamma(nu/2, rate (nu-2)/2) must
    reproduce the closed-form family density.
    """
    return integrate(*_gamma_mixture(x, alpha, gamma, nu), tol=tol)


def _gamma_mixture(x: float, alpha: float, gamma: float, nu: float):
    """The integrand and range of `gamma_mixture_density`, as (f, a, b)."""
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


def uniform_mixture_density(x: float, gamma: float, lam: float, tol: float = 1e-10) -> OracleResult:
    """Two-piece normal density rebuilt from its uniform scale mixture.

    Conditional on u the draw is the two-piece uniform with radius
    sqrt(u/lam); mixing over chi-square(3) must give the two-piece normal
    with scale lam^(-1/2).
    """
    return integrate(*_uniform_mixture(x, gamma, lam), tol=tol)


def _uniform_mixture(x: float, gamma: float, lam: float):
    """The integrand and range of `uniform_mixture_density`, as (f, a, b)."""
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


def gg_mixture_density(
    x: float, alpha: float, gamma: float, p: float, q: float, tol: float = 1e-9
) -> OracleResult:
    """BSGT density rebuilt by integrating the exponential-power kernel over
    its generalized-gamma mixing law."""
    return integrate(*_gg_mixture(x, alpha, gamma, p, q), tol=tol)


def _gg_mixture(x: float, alpha: float, gamma: float, p: float, q: float):
    """The integrand and range of `gg_mixture_density`, as (f, a, b)."""
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


def uniform_gg_mixture_density(
    x: float, alpha: float, gamma: float, p: float, q: float, tol: float = 1e-7
) -> OracleResult:
    """BSGT density rebuilt from the double mixture: uniform layer inside the
    generalized-gamma layer.

    The inner integral runs over the uniform-layer radius variable u from the
    smallest u whose piece still covers x; the outer integral runs over the
    generalized-gamma scale s.  This is the one-point case of
    `_uniform_gg_densities`.
    """
    return _uniform_gg_densities([(x, alpha, gamma, p, q)], tol)[0]


def _uniform_gg_densities(points, tol: float = 1e-7) -> list[OracleResult]:
    """`uniform_gg_mixture_density` at each point (x, alpha, gamma, p, q).

    The outer integrals share rounds, and each round's inner integrals, one
    per outer node, go to one `_integrate_rows` call.  Every integral
    bisects as it would alone, so each result is the one-point result, and
    its evaluations count the point's outer and inner integrals.
    """
    consts = [_UniformGG.at(*point) for point in points]
    if tol <= 0:
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
        plan = _tail_plan([v**p for v, p in zip(stretch, p_of[owner].tolist())])

        def integrand(u, rows):
            out = np.empty_like(u)
            # a pass per run of rows with one p, which stays a scalar exponent
            at = owner[rows]
            for lo, hi in _runs(p_of[at]):
                p, log_u_const = consts[at[lo]].p, consts[at[lo]].log_u_const
                root = root_s[rows[lo:hi], None]
                radius = radius_scale[at[lo:hi], None] * u[lo:hi] ** (1.0 / p) / root
                out[lo:hi] = inv_width[at[lo:hi], None] / radius * np.exp(
                    log_u_const + (1.0 / p) * np.log(u[lo:hi]) - u[lo:hi]
                )
            return out

        values, _, evals, _ = _integrate_rows(integrand, [plan], 0.01 * tol, 50_000)
        np.add.at(inner_evals, owner, evals)
        values = values.reshape(ss.shape)
        out = np.empty_like(ss)
        for lo, hi in _runs(points_of):
            c, s = consts[points_of[lo]], ss[lo:hi]
            log_gg = c.log_gg_const + (0.5 * c.p * c.q - 1.0) * np.log(s) - s ** (0.5 * c.p)
            out[lo:hi] = np.exp(log_gg) * values[lo:hi] * c.tilt
        return out

    anchor, panels = _plan(0.0, math.inf)
    value, error, evals, ok = _integrate_rows(outer, [(np.full(len(consts), anchor), panels)], tol, 1_000_000)
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


# ---------- Monte Carlo and goodness-of-fit ----------


def mc_moment(spec: DistributionSpec, r: int, n: int, rng) -> OracleResult:
    """Monte Carlo estimate of E(X^r); abs_error_estimate is one standard error."""
    if not moment_exists(spec, r):
        raise ExistenceError(f"moment of order {r} does not exist for this spec")
    draws = sample(spec, int(n), rng) ** r
    se = float(np.std(draws, ddof=1) / math.sqrt(draws.size))
    return OracleResult(float(np.mean(draws)), se, int(n), True)


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

    It is the density `sample_quadratic_tilt` draws from; on each half-line it
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


def _ks_2samp_pvalue(a, b) -> float:
    """Two-sided two-sample KS p-value from Smirnov's limit law.

    D is the largest gap between the two empirical CDFs over the pooled
    points, and sqrt(nm / (n + m)) D follows the Kolmogorov distribution as
    n and m grow.
    """
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    n, m = a.size, b.size
    ecdf_a = np.searchsorted(a, pooled, side="right") / n
    gap = ecdf_a - np.searchsorted(b, pooled, side="right") / m
    return float(kolmogorov(math.sqrt(n * m / (n + m)) * np.max(np.abs(gap))))


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


def _corrupt(spec: DistributionSpec, delta_scale: float | None) -> DistributionSpec:
    if delta_scale is None or not isinstance(spec.base, GenTBase):
        return spec
    base = spec.base
    return replace(spec, base=GenTBase(base.p, base.q, base.delta * delta_scale))


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

    anchor, panels = _plan(-math.inf, math.inf)
    return _results(_integrate_rows(rows_f, [(np.full(len(specs), anchor), panels)], 1e-10, 1_000_000))


def _norm_discrepancies(specs) -> list[float]:
    out = []
    for res in _masses(specs):
        off = abs(res.value - 1.0)
        # an unconverged run still proves the identity if its error bound is tiny
        out.append(off if res.converged else max(off, res.abs_error_estimate))
    return out


def _oracle_moment(spec: DistributionSpec, r: int) -> float:
    """E(X^r) by quadrature: the one-moment case of a moment task's `_integral_batch`."""
    items, value = _moment_integrals(spec, r)
    return value([res.value for res in _integrals(items)])


def _moment_integrals(spec: DistributionSpec, r: int):
    """The (items, value) of E(X^r) for `_integral_batch`: a center over
    (-cut, cut) at tol 4e-10 and each tail, in u = 1/x, at 3e-10."""
    # Power tails near the existence boundary decay as slowly as x^(-1.4),
    # and the generic fold onto (-1, 1) squeezes their outer mass into a
    # sliver at t = 1 that double precision cannot split.  Substituting
    # u = 1/x instead puts the awkward end at u = 0, where floats are dense
    # and bisection reaches it.
    cut = 16.0 * max(1.0, abs(spec.loc) + spec.scale)

    def tail(sign: float):
        def g(us):
            us = np.maximum(us, 1e-150)
            # log form: u**-(r+2) and pdf(1/u) overflow/underflow separately
            return np.exp(-(r + 2.0) * np.log(us) + log_pdf(spec, sign / us))

        return g, 0.0, 1.0 / cut, 3e-10

    center = (lambda xs: xs**r * pdf(spec, xs), -cut, cut, 4e-10)
    return [center, tail(1.0), tail(-1.0)], lambda v: v[0] + v[1] + (-1.0) ** r * v[2]


def _sup_diff(f, g, grid) -> float:
    return float(np.max(np.abs(f(grid) - g(grid))))


@dataclass(frozen=True)
class _Case:
    """One identity: ``run()`` builds its specs and returns its value.

    The value must be at most ``tolerance``, or at least it when
    ``larger_is_better``.
    """

    identity: str
    run: Callable[[], object]
    tolerance: float
    larger_is_better: bool = False


def _suite(seed: int, n: int, delta_scale: float | None) -> tuple[list[_Case], list[tuple]]:
    """The identity suite: its cases in order, and the tasks they run as.

    A task is ``(positions, batch, cost)``: the positions of its cases in
    the suite, None or a function that gets what the cases' ``run`` return
    all at once and returns their values, and the milliseconds one case
    takes, which order the dispatch.  The costs were measured in-process on
    a 2-core x86-64 host at the default sample size; only their order
    matters.  Nothing is built here: each case builds its specs when it
    runs.
    """
    cases: list[_Case] = []
    tasks: list[tuple] = []

    def add(case: _Case) -> int:
        cases.append(case)
        return len(cases) - 1

    def task(*new: _Case, cost: float, batch: Callable | None = None) -> None:
        cases.extend(new)
        tasks.append((list(range(len(cases) - len(new), len(cases))), batch, cost))

    def gt(a, g, p, q):
        return _corrupt(bsgt(a, g, p, q), delta_scale)

    def rng(stream):
        return RngStream(seed, stream)

    # normalization over the full parameter grid, every spec in one shared integral
    norm = []
    for a in _GRID_ALPHAS:
        for g in _GRID_GAMMAS:
            norm.append(_Case(f"normalization/bsn alpha={a} gamma={g}", partial(bsn, a, g), 1e-8))
            for nu in _GRID_NUS:
                ident = f"normalization/bsstd alpha={a} gamma={g} nu={nu}"
                norm.append(_Case(ident, partial(bsstd, a, g, nu), 1e-8))
            for p, q in _GRID_PQS:
                ident = f"normalization/bsgt alpha={a} gamma={g} p={p} q={q}"
                norm.append(_Case(ident, partial(gt, a, g, p, q), 1e-8))
    task(*norm, cost=0.17, batch=_norm_discrepancies)

    # reduction chain
    grid = np.linspace(-10.0, 10.0, 401)

    def gent_student(a, g):
        return _sup_diff(
            lambda xs: pdf(gt(a, g, 2.0, 2.0), xs), lambda xs: pdf(bsstd(a, g, 4.0), xs), grid
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

    task(
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
        cost=0.15,
    )

    # reflection: pdf(x; gamma) = pdf(-x; 1/gamma)
    refl_grid = np.linspace(-6.0, 6.0, 241)

    def reflection(make):
        return max(
            float(np.max(np.abs(pdf(make(g), refl_grid) - pdf(make(1.0 / g), -refl_grid))))
            for g in (0.5, 1.0, 2.0)
        )

    task(
        _Case("reflection/bsn", partial(reflection, partial(bsn, 1.0)), 1e-12),
        _Case("reflection/bsstd nu=4", partial(reflection, lambda g: bsstd(1.0, g, 4.0)), 1e-12),
        _Case("reflection/bsgt p=1.7 q=2", partial(reflection, lambda g: bsgt(1.0, g, 1.7, 2.0)), 1e-12),
        cost=0.4,
    )

    # mass ratio at alpha = 0
    def mass_ratio(make, g):
        density = partial(pdf, make(g))
        halves = [(density, 0.0, math.inf, 1e-11), (density, -math.inf, 0.0, 1e-11)]
        return halves, lambda mass: abs(mass[0] / mass[1] - g * g)

    task(
        *(
            _Case(f"mass-ratio/{label} gamma={g}", partial(mass_ratio, make, g), 1e-8)
            for label, make in (
                ("bsn", partial(bsn, 0.0)),
                ("bsstd nu=4", lambda g: bsstd(0.0, g, 4.0)),
                ("bsgt p=2 q=5", lambda g: bsgt(0.0, g, 2.0, 5.0)),
            )
            for g in (0.5, 2.0)
        ),
        cost=0.7,
        batch=_integral_batch,
    )

    # closed-form moments vs direct quadrature, with existence bookkeeping
    def moment_gap(make, r):
        spec = make()
        items, value = _moment_integrals(spec, r)
        return items, lambda v: abs(full_moment(spec, r) - value(v))

    # the p = 1.7, q = 2 tails decay slowly, and their quadrature is long
    for label, make, orders, cost in (
        ("bsn alpha=0 gamma=1.5", partial(bsn, 0.0, 1.5), (1, 2, 3, 4), 1.0),
        ("bsn alpha=1 gamma=0.5", partial(bsn, 1.0, 0.5), (1, 2, 3, 4), 1.0),
        ("bsn alpha=3 gamma=1", partial(bsn, 3.0, 1.0), (1, 2, 3, 4), 1.0),
        ("bsstd alpha=0 gamma=1.5 nu=8", partial(bsstd, 0.0, 1.5, 8.0), (1, 2, 3, 4), 1.0),
        ("bsstd alpha=1 gamma=0.8 nu=8", partial(bsstd, 1.0, 0.8, 8.0), (1, 2, 3, 4), 1.0),
        ("bsstd alpha=0 gamma=1.5 nu=4", partial(bsstd, 0.0, 1.5, 4.0), (1, 2, 3), 1.0),
        ("bsgt alpha=0 gamma=1.5 p=2 q=5", partial(bsgt, 0.0, 1.5, 2.0, 5.0), (1, 2, 3, 4), 1.0),
        ("bsgt alpha=1 gamma=0.8 p=2 q=5", partial(bsgt, 1.0, 0.8, 2.0, 5.0), (1, 2, 3, 4), 1.0),
        ("bsgt alpha=0 gamma=1.2 p=1.7 q=2", partial(bsgt, 0.0, 1.2, 1.7, 2.0), (1, 2, 3), 5.5),
        ("bsgt alpha=1 gamma=1.2 p=1.7 q=2", partial(bsgt, 1.0, 1.2, 1.7, 2.0), (1,), 14.0),
    ):
        task(
            *(_Case(f"moments/{label} r={r}", partial(moment_gap, make, r), 1e-6) for r in orders),
            cost=cost,
            batch=_integral_batch,
        )

    def existence_misses(make, expected):
        spec = make()
        return float(sum(moment_exists(spec, r) != exp for r, exp in enumerate(expected, 1)))

    task(
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
        cost=0.05,
    )

    # mixture marginalizations vs closed forms, each task's integrals in one batch
    def gap(item, tol, ref):
        return [(*item, tol)], lambda value: abs(value[0] - ref)

    def gamma_gap(x, g):
        return gap(_gamma_mixture(x, 1.0, g, 4.0), 1e-10, float(pdf(bsstd(1.0, g, 4.0), x)))

    def uniform_gap(x, g, lam):
        return gap(_uniform_mixture(x, g, lam), 1e-10, float(pdf(bsn(0.0, g, scale=lam**-0.5), x)))

    def gg_gap(x, g, p, q):
        return gap(_gg_mixture(x, 1.0, g, p, q), 1e-9, float(pdf(gt(1.0, g, p, q), x)))

    def uniform_gg_point(x, g, p, q):
        return (x, 1.0, g, p, q), float(pdf(gt(1.0, g, p, q), x))

    def uniform_gg_gaps(runs):
        points, refs = zip(*runs)
        return [abs(res.value - ref) for res, ref in zip(_uniform_gg_densities(points), refs)]

    task(
        *(
            _Case(f"mixture/gamma x={x} gamma={g}", partial(gamma_gap, x, g), 1e-6)
            for g in _MIX_GAMMAS
            for x in _MIX_XS
        ),
        cost=0.3,
        batch=_integral_batch,
    )
    task(
        *(
            _Case(f"mixture/uniform x={x} gamma={g} lambda={lam}", partial(uniform_gap, x, g, lam), 1e-6)
            for g in _MIX_GAMMAS
            for lam in (1.0, 2.5)
            for x in _MIX_XS
        ),
        cost=0.15,
        batch=_integral_batch,
    )
    # the gg and uniform-gg identities alternate in the suite: a gg task per
    # (p, gamma), and every uniform-gg identity in one batch
    uniform_gg = []
    for p, q in ((1.7, 2.0), (2.0, 2.0), (2.3, 2.0)):
        for g in _MIX_GAMMAS:
            gg = []
            for x in _MIX_XS:
                name = f"x={x} gamma={g} p={p} q={q}"
                gg.append(add(_Case(f"mixture/gg {name}", partial(gg_gap, x, g, p, q), 1e-5)))
                uniform_gg.append(
                    add(_Case(f"mixture/uniform-gg {name}", partial(uniform_gg_point, x, g, p, q), 1e-4))
                )
            tasks.append((gg, _integral_batch, 0.5))
    tasks.append((uniform_gg, uniform_gg_gaps, 2.8))

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

    task(
        *(
            _Case(f"modes/count alpha={a}", partial(count_miss, a), 0.0)
            for a in (0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9, 1.0)
        ),
        _Case("modes/location alpha=0.6", location_gap, 1e-6),
        _Case("modes/right-taller alpha=3 gamma=1.5", right_taller, 0.0),
        _Case("modes/two-piece-peak alpha=0 gamma=2", two_piece_peak, 1e-6),
        cost=0.05,
    )

    # sampler goodness-of-fit gates, one task each
    gate = 1.63 / math.sqrt(n)

    def quadratic_tilt_ks():
        xs = np.sort(sample_quadratic_tilt(2.0, NormalBase(), rng(3), n))
        return _ks_sorted(xs, lambda x: _quadratic_tilt_cdf(x, 2.0, NormalBase()))

    def gen_gamma_ks():
        # s^(p/2) of a generalized-gamma draw is Gamma(q, 1)
        s = sample_gen_gamma(1.7, 2.0, rng(8), n)
        return _ks_sorted(np.sort(s ** (1.7 / 2.0)), partial(gammainc, 2.0))

    def paths_agree():
        a_side = sample_bsgt(1.0, 1.5, 2.3, 2.0, rng(11), n).x
        b_side = sample_bsgt(1.0, 1.5, 2.3, 2.0, rng(12), n, path="uniform-gg").x
        return _ks_2samp_pvalue(a_side, b_side)

    # each gate's cost is its milliseconds at 1e5 draws
    for label, cost, run in (
        (
            "two-piece gamma=2",
            6.0,
            lambda: ks_distance(sample_two_piece(2.0, NormalBase(), rng(1), n), bsn(0.0, 2.0)),
        ),
        (
            "two-piece-student gamma=0.8 nu=5",
            12.0,
            lambda: ks_distance(
                sample_two_piece(0.8, StudentTBase(5.0), rng(2), n), bsstd(0.0, 0.8, 5.0)
            ),
        ),
        ("quadratic-tilt gamma=2", 7.0, quadratic_tilt_ks),
        ("bsn alpha=1 gamma=1.5", 12.0, lambda: ks_distance(sample_bsn(1.0, 1.5, rng(4), n), bsn(1.0, 1.5))),
        (
            "bsn-uniform alpha=1 gamma=1.5",
            14.0,
            lambda: ks_distance(sample_bsn(1.0, 1.5, rng(5), n, path="uniform"), bsn(1.0, 1.5)),
        ),
        (
            "uniform-normal gamma=2 lambda=2.5",
            10.0,
            lambda: ks_distance(
                sample_skewed_uniform_normal(2.0, 2.5, rng(6), n).x, bsn(0.0, 2.0, scale=2.5**-0.5)
            ),
        ),
        (
            "bsstd alpha=1 gamma=1.5 nu=4",
            18.0,
            lambda: ks_distance(sample_bsstd(1.0, 1.5, 4.0, rng(7), n).x, bsstd(1.0, 1.5, 4.0)),
        ),
        ("gen-gamma p=1.7 q=2", 7.0, gen_gamma_ks),
        (
            "bsgt p=1.7 q=2 alpha=1 gamma=1.5",
            29.0,
            lambda: ks_distance(sample_bsgt(1.0, 1.5, 1.7, 2.0, rng(9), n).x, bsgt(1.0, 1.5, 1.7, 2.0)),
        ),
        (
            "bsgt-uniform p=2.3 q=2 alpha=1 gamma=0.8",
            33.0,
            lambda: ks_distance(
                sample_bsgt(1.0, 0.8, 2.3, 2.0, rng(10), n, path="uniform-gg").x,
                bsgt(1.0, 0.8, 2.3, 2.0),
            ),
        ),
    ):
        task(_Case(f"sampler/{label}", run, gate), cost=cost * n / 1e5)
    task(
        _Case("sampler/paths-agree p=2.3 q=2", paths_agree, 0.01, larger_is_better=True),
        cost=77.0 * n / 1e5,
    )
    return cases, tasks


def _run_task(task) -> list[dict]:
    """The records of one task's cases."""
    batch, cases = task
    outputs = [case.run() for case in cases]
    values = outputs if batch is None else batch(outputs)
    records = []
    for case, value in zip(cases, values):
        ok = value >= case.tolerance if case.larger_is_better else value <= case.tolerance
        records.append(
            {
                "identity": case.identity,
                "status": "pass" if ok else "fail",
                "value": float(value),
                "tolerance": float(case.tolerance),
            }
        )
    return records


def run_checks(
    only: str | None = None,
    seed: int = 20260814,
    sample_size: int = 100_000,
    delta_scale: float | None = None,
) -> list[dict]:
    """Run the identity suite; returns one record per identity, in suite order.

    Each record is {"identity", "status", "value", "tolerance"}; ``value`` is
    the achieved discrepancy except for "sampler/paths-agree", where it is a
    two-sample KS p-value from Smirnov's limit law and larger is better.
    ``only`` filters identities by substring before anything is built.
    ``delta_scale`` rescales the generalized-t standardization constant
    before checking, as a deliberate-fault hook proving the suite can fail.

    The selected cases run as tasks through `_workers.map_forked`, on two
    workers forked with `os.fork` when the selection spans two tasks or
    more, two CPUs are usable and the caller has one thread; otherwise
    in-process.  The tasks go out costliest first, by the estimate the suite
    gives each, and a worker takes the next one only when it is free, so the
    cheap ones fill in around the dear ones.  Each sampler gate is a task of
    its own, and the integrals of a task share one round loop: the selected
    normalizations, whose density is evaluated once per distinct base per
    round; the center and tails of each moment of a spec; and every selected
    uniform-gg marginalization, whose outer integrals share rounds.  The
    records are the same either way, and an exception raised by a task
    reaches the caller as in-process; a worker that dies raises
    `_workers.WorkerError`.
    """
    n = int(sample_size)
    if n < 1:
        raise DomainError(f"sample size must be at least 1, got {sample_size}")
    cases, tasks = _suite(seed, n, delta_scale)
    chosen = []
    for positions, batch, cost in tasks:
        picked = positions if only is None else [i for i in positions if only in cases[i].identity]
        if picked:
            chosen.append((picked, batch, cost * len(picked)))
    chosen.sort(key=lambda task: -task[2])
    work = [(batch, [cases[i] for i in picked]) for picked, batch, _ in chosen]

    done = map_forked(_run_task, work)
    # reassemble per case: the uniform-gg batch's cases are spread over the suite
    by_position = {}
    for (picked, _, _), records in zip(chosen, done):
        by_position.update(zip(picked, records))
    return [by_position[i] for i in sorted(by_position)]
