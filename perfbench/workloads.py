"""The four benchmark workloads: fit-study, check-suite, simulate and tabulate.

Each workload is a fixed list of operations ("one pass") built from the seed.
An operation is one user request, run in a closed loop with one request in
flight.  The three CLI workloads run `python -m bimodalskew.cli` with `src`
on PYTHONPATH in a fresh process per request, as a user would; tabulate calls
the library in-process.  `run` is timed; `verify` is not.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
SCHEMA = "bimodal-skew/1"
# Identities in `bimodalskew check` when this benchmark was defined; a check
# run that lists a different number counts as failed.
SUITE_IDENTITIES = 374
# Share of tabulate reports that failed at seeds 1-20 when this benchmark was
# defined was 0.15-0.18 (ROADMAP open item 2); a run above this is not correct.
TAB_FAILED_FRAC_BASELINE = 0.20
# --smoke sizes: a short chain and the ten mode-count identities
SMOKE_FIT_FLAGS = ("--iters", "300", "--burnin", "100", "--thin", "1")
SMOKE_CHECK_ONLY = "modes/count"
SMOKE_IDENTITIES = 10

# The paper's three example members, used wherever a workload needs one spec per family.
SPEC_ARGS = {
    "bsn": {"alpha": 3.0, "gamma": 1.5},
    "bsstd": {"alpha": 3.0, "gamma": 1.5, "nu": 5.0},
    "bsgt": {"alpha": 3.0, "gamma": 1.5, "p": 1.7, "q": 2.0},
}
FAMILIES = tuple(SPEC_ARGS)

# (case, model, n, extra fit flags)
FIT_CASES = (
    ("bsn-n500", "bsn", 500, ()),
    ("bsstd-n500", "bsstd", 500, ()),
    ("bsstd-n5000", "bsstd", 5000, ()),
    ("bsgt-n500", "bsgt", 500, ("--enable-extensions",)),
)

TAB_LEVELS = (("tail", 0.001), ("central", 0.5), ("upper", 0.999))
TAB_REPORTS = 108  # 36 per family; p90 has 10 reports beyond it
DESIGN_SEED = 20260814
DESIGN_JITTER = 0.04
ROUND_TRIP_TOL = 1e-8
ORACLE_TOL = 1e-7
# PIT values of a spec's own draws are uniform when cdf_values is right; at
# 2000 draws this p-value catches a CDF off by about 0.06 anywhere
PIT_KS_PVALUE = 1e-6

SPANS_FILE = "spans.tsv"


def default_spec(family: str):
    from bimodalskew import families

    return getattr(families, family)(**SPEC_ARGS[family])


def spec_flags(family: str) -> list[str]:
    flags = ["--model", family]
    for key, value in SPEC_ARGS[family].items():
        flags += [f"--{key}", repr(value)]
    return flags


@dataclass
class Context:
    python: str
    env: dict
    work: Path
    seed: int
    smoke: bool


@dataclass
class Outcome:
    op: object
    wall_s: float
    output: object = None
    failure: str | None = None
    info: dict = field(default_factory=dict)


def run_cli(ctx: Context, argv: list[str], tracer=None, request: str | None = None):
    """Run the CLI in a fresh interpreter; returns (completed process, wall seconds).

    With a tracer the child runs `traced_cli.py`, which wraps the layers and
    appends its spans, parented to this request's span, to the spans file.
    """
    if tracer is None:
        cmd, env = [ctx.python, "-m", "bimodalskew.cli", *argv], ctx.env
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        return proc, time.perf_counter() - t0
    cmd = [ctx.python, str(HERE / "traced_cli.py"), *argv]
    with tracer.request_span(request, f"request.{argv[0]}") as span_id:
        env = {
            **ctx.env,
            spans.ENV_OUT: str(ctx.work / SPANS_FILE),
            spans.ENV_PARENT: str(span_id),
            spans.ENV_REQUEST: request,
        }
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - t0
    return proc, wall


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _all_finite(obj) -> bool:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return False


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fit_inputs(ctx: Context) -> dict:
    """case -> (CSV path, data): raw draws of each case's example member at the seed."""
    from bimodalskew import RngStream, sample

    inputs = {}
    for k, (case, model, n, _) in enumerate(FIT_CASES):
        data = sample(default_spec(model), 100 if ctx.smoke else n, RngStream(ctx.seed, k))
        path = ctx.work / f"fit-{case}.csv"
        path.write_text("".join(f"{v:.17g}\n" for v in data), encoding="utf-8")
        inputs[case] = (path, data)
    return inputs


class CliWorkload:
    """A workload whose operations are CLI invocations built by `argv`.

    Every workload names what one operation counts as (`items`), the share of
    failed operations its baseline allows, and `ALIASES`: the names this job
    gives to the generic end-to-end metrics, as name -> (metric, scale, unit).
    """

    in_process = False
    max_failed_frac = 0.0

    def run(self, op, tracer=None, request=None) -> Outcome:
        proc, wall = run_cli(self.ctx, self.argv(op), tracer, request)
        return Outcome(op, wall, proc)

    def extra_record(self, outcomes: list[Outcome]) -> dict:
        return {}


class FitStudy(CliWorkload):
    """Default-length `fit` runs (20000 sweeps, burn-in 5000, thin 5) on seeded CSVs.

    Exists because `inference` does most of the work: at n=500 a sweep is
    interpreter overhead, at n=5000 it is O(n) numpy work, and only the bsgt
    extension calls `families.log_pdf` from inside the sampler.
    """

    name = "fit-study"
    ALIASES = {"fit_wall_s": ("pass_s", 1.0, "s"), "fit_ess_per_s": ("items_per_s", 1.0, "1/s")}

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.inputs = fit_inputs(ctx)
        self.reference = json.loads((HERE / "chain_hashes.json").read_text(encoding="utf-8"))

    def ops(self):
        return list(FIT_CASES)

    def argv(self, op) -> list[str]:
        case, model, _, extra = op
        argv = ["fit", "--model", model, "--in", str(self.inputs[case][0]), "--seed", str(self.ctx.seed)]
        argv += ["--save-chains", str(self.ctx.work / f"chains-{case}.jsonl"), *extra]
        if self.ctx.smoke:
            argv += SMOKE_FIT_FLAGS
        return argv

    def verify(self, out: Outcome) -> None:
        case = out.op[0]
        proc = out.output
        if proc.returncode != 0:
            out.failure = f"exit status {proc.returncode}"
            return
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError:
            out.failure = "report is not JSON"
            return
        if report.get("schema") != SCHEMA:
            out.failure = f"schema {report.get('schema')!r}"
        elif not report.get("parameters") or not _all_finite(report):
            out.failure = "non-finite summary value"
        if out.failure:
            return
        out.info["min_ess"] = min(p["ess"] for p in report["parameters"].values())
        chains = (self.ctx.work / f"chains-{case}.jsonl").read_bytes()
        lam = report.get("lambda_posterior_mean")
        hashes = {
            "chains": _sha256(chains),
            "lambda_mean": None if lam is None else _sha256(json.dumps(lam).encode()),
        }
        ref = None if self.ctx.smoke else self.reference.get(str(self.ctx.seed), {}).get(case)
        out.info["chain_hash"] = {**hashes, "match": None if ref is None else ref == hashes}

    @staticmethod
    def items(out: Outcome) -> float:
        """The minimum ESS over parameters."""
        return out.info.get("min_ess", 0.0)

    def extra_record(self, outcomes: list[Outcome]) -> dict:
        return {
            "chain_hashes": {o.op[0]: o.info.get("chain_hash") for o in outcomes},
            "min_ess": {o.op[0]: o.info.get("min_ess") for o in outcomes},
        }


class CheckSuite(CliWorkload):
    """The full `check` identity suite at its default seed and sample size.

    Exists because `oracle` does most of the work, with thousands of
    `families.pdf` calls on 15-point panels; `inference` is not touched.
    """

    name = "check-suite"
    ALIASES = {"check_s": ("op_p50_ms", 1e-3, "s")}

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.expected = SMOKE_IDENTITIES if ctx.smoke else SUITE_IDENTITIES

    def ops(self):
        return [("check",)]

    def argv(self, op) -> list[str]:
        return ["check", "--only", SMOKE_CHECK_ONLY] if self.ctx.smoke else ["check"]

    def verify(self, out: Outcome) -> None:
        proc = out.output
        try:
            payload = json.loads(proc.stdout)
        except json.JSONDecodeError:
            out.failure = f"exit status {proc.returncode}, output is not JSON"
            return
        checks = payload.get("checks", [])
        failing = [c["identity"] for c in checks if c.get("status") != "pass"]
        if payload.get("schema") != SCHEMA:
            out.failure = f"schema {payload.get('schema')!r}"
        elif len(checks) != self.expected:
            out.failure = f"{len(checks)} identities, expected {self.expected}"
        elif failing or proc.returncode != 0:
            out.failure = f"exit status {proc.returncode}, failing: {failing[:5]}"
        out.info["identities"] = len(checks) - len(failing)

    @staticmethod
    def items(out: Outcome) -> float:
        """Identities verified."""
        return out.info.get("identities", 0)


class Simulate(CliWorkload):
    """`sample --n 1000000` once per family, written to a file.

    Exists because it is the only job where the CLI's text writer and bulk
    sampling are more than a sliver; import and writing dominate sampling.
    """

    name = "simulate"
    ALIASES = {"sample_draws_per_s": ("items_per_s", 1.0, "1/s")}

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.n = 10_000 if ctx.smoke else 1_000_000

    def ops(self):
        return list(enumerate(FAMILIES))  # (index, family)

    def out_path(self, op) -> Path:
        return self.ctx.work / f"draws-{op[0]}-{op[1]}.txt"

    def argv(self, op) -> list[str]:
        seed, out = str(self.ctx.seed), str(self.out_path(op))
        return ["sample", *spec_flags(op[1]), "--n", str(self.n), "--seed", seed, "--out", out]

    def verify(self, out: Outcome) -> None:
        path = self.out_path(out.op)
        if out.output.returncode != 0:
            out.failure = f"exit status {out.output.returncode}"
            return
        try:
            lines = path.read_text(encoding="utf-8").split("\n")
            meta = json.loads(Path(str(path) + ".meta.json").read_text(encoding="utf-8"))
            values = np.array(lines[:-1], dtype=float)
        except (OSError, ValueError) as exc:
            out.failure = f"unreadable output: {exc}"
            return
        finally:
            path.unlink(missing_ok=True)
        if lines[-1] != "" or values.size != self.n:
            out.failure = f"{len(lines) - 1} lines, expected {self.n}"
        elif not np.all(np.isfinite(values)):
            out.failure = "non-finite draw"
        elif meta.get("seed") != self.ctx.seed or meta.get("n") != self.n:
            out.failure = f"sidecar echoes seed {meta.get('seed')} n {meta.get('n')}"

    def items(self, out: Outcome) -> float:
        """Draws written."""
        return self.n


def domain_specs(seed: int, count: int) -> list[tuple]:
    """(spec, quantile level) pairs over the robustness domain, round robin over the families.

    gamma is log-uniform on [0.1, 10]; alpha is 0 for a third of the specs
    and uniform on (0, 10) otherwise; nu - 2 and p*q - 2 are log-uniform on
    [0.05, 28] and [0.05, 18], with p uniform on [1, 4]; the level is tail,
    central or upper.  Each family's points are a fixed low-discrepancy
    (Sobol) design over the whole domain, and the seed moves every point at
    random by up to DESIGN_JITTER/2 of each coordinate's range.  Report cost
    changes erratically with the spec, so specs drawn independently per seed
    made report_p90_ms spread by about a quarter between seeds; moving
    design points keeps every seed's mix of cheap and expensive reports the
    same while still drawing the specs from the seed.
    """
    from scipy.stats import qmc

    from bimodalskew import bsgt, bsn, bsstd

    per_family = -(-count // 3)
    rng = np.random.default_rng([seed, 7])

    def log_uniform(u, lo, hi):
        return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))

    by_family = {}
    for k, family in enumerate(FAMILIES):
        m = max(1, math.ceil(math.log2(per_family)))
        design = qmc.Sobol(5, seed=DESIGN_SEED + k).random_base2(m)[:per_family]
        moved = np.clip(design + DESIGN_JITTER * (rng.random(design.shape) - 0.5), 0.0, 1.0)
        out = []
        for (u_level, _, u_alpha, _, _), (_, u_tail, v_alpha, u_gamma, u_p) in zip(design, moved):
            # the level and whether alpha is 0 stay with the design point
            level = TAB_LEVELS[min(int(3 * u_level), 2)]
            gamma = log_uniform(u_gamma, 0.1, 10.0)
            alpha = 0.0 if u_alpha < 1 / 3 else 15.0 * max(v_alpha - 1 / 3, 1e-3)
            if family == "bsn":
                spec = bsn(alpha, gamma)
            elif family == "bsstd":
                spec = bsstd(alpha, gamma, 2.0 + log_uniform(u_tail, 0.05, 28.0))
            else:
                p = 1.0 + 3.0 * float(u_p)
                spec = bsgt(alpha, gamma, p, (2.0 + log_uniform(u_tail, 0.05, 18.0)) / p)
            out.append((spec, level))
        by_family[family] = out
    return [by_family[FAMILIES[i % 3]][i // 3] for i in range(count)]


class Tabulate:
    """In-process reports: one spec's quantile, cdf, modes, moments and PIT values.

    Exists because scalar `families` calls (quadrature CDF, bracketing plus
    brentq quantile) do most of the work here and nowhere else.  Each report
    takes one quantile level (tail, central or upper, a third each per
    family); three levels per report would not fit 100 reports in a run.
    """

    name = "tabulate"
    in_process = True
    max_failed_frac = TAB_FAILED_FRAC_BASELINE
    ALIASES = {
        "report_p50_ms": ("op_p50_ms", 1.0, "ms"),
        "report_p90_ms": ("op_p90_ms", 1.0, "ms"),
        "reports_per_s": ("ops_per_s", 1.0, "1/s"),
    }

    def __init__(self, ctx: Context):
        from bimodalskew import RngStream, sample

        self.ctx = ctx
        count = 18 if ctx.smoke else TAB_REPORTS
        draws = 200 if ctx.smoke else 2000
        self.reports = []
        for i, (spec, level) in enumerate(domain_specs(ctx.seed, count)):
            self.reports.append((i, spec, level, sample(spec, draws, RngStream(ctx.seed, 1000 + i))))

    def ops(self):
        return self.reports

    def run(self, op, tracer=None, request=None) -> Outcome:
        with tracer.request_span(request, "request.report") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = self._report(op)
            wall = time.perf_counter() - t0
        return Outcome(op, wall, result)

    @staticmethod
    def _report(op) -> dict:
        from bimodalskew import cdf, cdf_values, find_modes, moment_report, quantile
        from bimodalskew.errors import NumericError

        _, spec, (_, u), draws = op
        out = {"errors": []}
        try:
            out["x"] = quantile(spec, u)
        except NumericError as exc:
            out["errors"].append(f"quantile: {exc}")
        else:
            try:
                out["cdf"] = cdf(spec, out["x"])
            except NumericError as exc:
                out["errors"].append(f"cdf: {exc}")
        out["modes"] = find_modes(spec)
        out["moments"] = moment_report(spec)
        try:
            out["pit"] = cdf_values(spec, draws)
        except NumericError as exc:
            out["errors"].append(f"cdf_values: {exc}")
        return out

    @staticmethod
    def verify(out: Outcome) -> None:
        from scipy.stats import kstest

        from bimodalskew import integrate, pdf

        _, spec, (_, u), _ = out.op
        rep = out.output
        if rep["errors"]:
            out.failure = rep["errors"][0].split(":")[0]
            return
        if abs(rep["cdf"] - u) > ROUND_TRIP_TOL:
            out.failure = "round trip"
            return
        res = integrate(lambda xs: pdf(spec, xs), -math.inf, rep["x"], tol=1e-9)
        if abs(res.value - rep["cdf"]) > ORACLE_TOL + res.abs_error_estimate:
            out.failure = "cdf disagrees with oracle"
        elif kstest(rep["pit"], "uniform").pvalue < PIT_KS_PVALUE:
            out.failure = "PIT values not uniform"
        elif not rep["modes"] or not all(math.isfinite(m) and d > 0 for m, d in rep["modes"]):
            out.failure = "no finite mode"

    @staticmethod
    def items(out: Outcome) -> float:
        """Reports that passed every check."""
        return out.failure is None

    def extra_record(self, outcomes):
        reasons = {}
        for o in outcomes:
            if o.failure:
                reasons[o.failure] = reasons.get(o.failure, 0) + 1
        return {"failure_reasons": reasons}


WORKLOADS = {cls.name: cls for cls in (FitStudy, CheckSuite, Simulate, Tabulate)}
