"""Command-line surface: density grids, sampling, fitting, identity checks.

Exit codes: 0 on success, 1 when an identity check or fit fails, 2 for usage
or validation errors.  All JSON output carries "schema": "bimodal-skew/1"
and is deterministic given the full flag set (timing goes to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import sys
import time

import numpy as np

from .errors import CapabilityError, DomainError, NumericError
from .families import DistributionSpec, bsgt, bsn, bsstd, pdf
from .sampling import RngStream, sample

SCHEMA = "bimodal-skew/1"
_CHUNK = 65536  # draws formatted per write by `sample`


def _add_model_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--model", required=True, choices=("bsn", "bsstd", "bsgt"))
    sp.add_argument("--alpha", type=float, default=0.0)
    skew = sp.add_mutually_exclusive_group()
    skew.add_argument("--gamma", type=float, default=None)
    skew.add_argument("--phi", type=float, default=None, help="gamma squared, alternative to --gamma")
    sp.add_argument("--nu", type=float, default=None, help="degrees of freedom (bsstd)")
    sp.add_argument("--p", type=float, default=None, help="tail shape (bsgt)")
    sp.add_argument("--q", type=float, default=None, help="tail weight (bsgt)")
    sp.add_argument("--mu", type=float, default=0.0, help="location")
    sp.add_argument("--sigma", type=float, default=1.0, help="scale")


def _build_spec(args: argparse.Namespace) -> DistributionSpec:
    if args.phi is not None:
        if args.phi <= 0:
            raise DomainError(f"--phi must be positive, got {args.phi}")
        gamma = math.sqrt(args.phi)
    else:
        gamma = 1.0 if args.gamma is None else args.gamma
    if args.model == "bsn":
        return bsn(args.alpha, gamma, loc=args.mu, scale=args.sigma)
    if args.model == "bsstd":
        if args.nu is None:
            raise DomainError("--model bsstd requires --nu")
        return bsstd(args.alpha, gamma, args.nu, loc=args.mu, scale=args.sigma)
    if args.p is None or args.q is None:
        raise DomainError("--model bsgt requires --p and --q")
    return bsgt(args.alpha, gamma, args.p, args.q, loc=args.mu, scale=args.sigma)


def _spec_params(spec: DistributionSpec) -> dict:
    out = {"alpha": spec.alpha, "gamma": spec.gamma, "mu": spec.loc, "sigma": spec.scale}
    out.update({f.name: getattr(spec.base, f.name) for f in dataclasses.fields(spec.base) if f.init})
    return out


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        # keep stdout ahead of any stderr summary when both are redirected
        sys.stdout.flush()


# ---------- pdf ----------


def cmd_pdf(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    if args.points < 2:
        raise DomainError(f"--points must be at least 2, got {args.points}")
    if not (math.isfinite(args.from_) and math.isfinite(args.to)):
        raise DomainError(f"--from and --to must be finite, got {args.from_} and {args.to}")
    xs = np.linspace(args.from_, args.to, args.points)
    if args.compare:
        try:
            alphas = [float(tok) for tok in args.compare.split(",") if tok.strip()]
        except ValueError as exc:
            raise DomainError(f"--compare expects comma-separated numbers: {exc}") from None
        if not alphas:
            raise DomainError("--compare got an empty list")
        curves = {f"alpha={a:g}": pdf(dataclasses.replace(spec, alpha=a), xs) for a in alphas}
    else:
        curves = {"pdf": pdf(spec, xs)}

    if args.format == "csv":
        header = ",".join(["x", *curves])
        rows = [header]
        cols = list(curves.values())
        for i, x in enumerate(xs):
            rows.append(",".join(f"{v:.17g}" for v in [x, *(c[i] for c in cols)]))
        _emit("\n".join(rows) + "\n", args.out)
    else:
        payload = {
            "schema": SCHEMA,
            "command": "pdf",
            "model": args.model,
            "params": _spec_params(spec),
            "x": [float(v) for v in xs],
        }
        if args.compare:
            payload["curves"] = {k: [float(v) for v in c] for k, c in curves.items()}
        else:
            payload["pdf"] = [float(v) for v in curves["pdf"]]
        _emit(json.dumps(payload, indent=2), args.out)
    return 0


# ---------- sample ----------


def cmd_sample(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    if args.n < 1:
        raise DomainError(f"--n must be at least 1, got {args.n}")
    if args.seed is None:
        import secrets  # loads hmac and OpenSSL: only an unseeded sample needs it

        seed = secrets.randbits(63)
    else:
        seed = args.seed
    draws = sample(spec, args.n, RngStream(seed, 0))
    with open(args.out, "w", encoding="utf-8") as fh:
        # one %-format per chunk of Python floats: the bytes f"{v:.17g}" gives
        # each numpy scalar, at about half the time
        for start in range(0, draws.size, _CHUNK):
            chunk = draws[start : start + _CHUNK].tolist()
            fh.write("%.17g\n" * len(chunk) % tuple(chunk))
    meta = {
        "schema": SCHEMA,
        "command": "sample",
        "model": args.model,
        "params": _spec_params(spec),
        "n": args.n,
        "seed": int(seed),
        "stream": 0,
    }
    with open(args.out + ".meta.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, indent=2))
    print(f"wrote {args.n} draws to {args.out} (seed {seed})", file=sys.stderr)
    return 0


# ---------- fit ----------


def _read_first_numeric_column(path: str) -> np.ndarray:
    """Parse the first numeric column of a CSV; any unparseable row is fatal."""
    with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is not data
        lines = fh.read().splitlines()
    rows = [(i + 1, line) for i, line in enumerate(lines) if line.strip()]
    if not rows:
        raise DomainError(f"{path}: no data rows")

    def fields(line: str) -> list[str]:
        return [tok.strip() for tok in line.split(",")]

    def first_numeric(line: str) -> int | None:
        for j, tok in enumerate(fields(line)):
            try:
                float(tok)
                return j
            except ValueError:
                continue
        return None

    start = 0
    col = first_numeric(rows[0][1])
    if col is None:  # header row
        start = 1
        if len(rows) < 2:
            raise DomainError(f"{path}: only a header row, no data")
        col = first_numeric(rows[1][1])
        if col is None:
            raise DomainError(f"{path}: line {rows[1][0]}: no numeric column found")

    values = []
    bad: list[int] = []
    for lineno, line in rows[start:]:
        toks = fields(line)
        try:
            values.append(float(toks[col]))
        except (ValueError, IndexError):
            bad.append(lineno)
    if bad:
        shown = ", ".join(str(b) for b in bad[:10])
        more = "" if len(bad) <= 10 else f" (and {len(bad) - 10} more)"
        raise DomainError(f"{path}: non-numeric rows at line(s) {shown}{more}")
    return np.asarray(values, dtype=float)


def cmd_fit(args: argparse.Namespace) -> int:
    from .inference import McmcConfig, posterior_summary, run_mcmc

    data = _read_first_numeric_column(args.in_)
    config = McmcConfig(
        iterations=args.iters, burn_in=args.burnin, thin=args.thin, chains=args.chains
    )
    t0 = time.perf_counter()
    chains = run_mcmc(
        data, model=args.model, config=config, seed=args.seed, enable_extensions=args.enable_extensions
    )
    elapsed = time.perf_counter() - t0
    report = posterior_summary(chains)
    report["command"] = "fit"
    report["seed"] = args.seed
    report["input"] = args.in_
    if "lambda_posterior_mean" in report:
        lam = report["lambda_posterior_mean"]
        order = np.argsort(lam)[:10]
        report["outlier_candidates"] = [
            {"index": int(i), "x": float(data[i]), "lambda_mean": float(lam[i])} for i in order
        ]

    if args.save_chains:
        with open(args.save_chains, "w", encoding="utf-8") as fh:
            for c, chain in enumerate(chains):
                names = list(chain.params)
                for k in range(chain.params[names[0]].size):
                    rec = {"chain": c, "draw": k}
                    rec.update({name: float(chain.params[name][k]) for name in names})
                    fh.write(json.dumps(rec) + "\n")

    if args.format == "csv":
        rows = ["parameter,mean,sd,median,ci2.5,ci97.5,ess"]
        for name, s in report["parameters"].items():
            rows.append(
                f"{name},{s['mean']:.10g},{s['sd']:.10g},{s['median']:.10g},"
                f"{s['ci95'][0]:.10g},{s['ci95'][1]:.10g},{s['ess']:.10g}"
            )
        _emit("\n".join(rows) + "\n", args.out)
    else:
        _emit(json.dumps(report, indent=2), args.out)
    print(f"fit finished in {elapsed:.1f}s", file=sys.stderr)
    return 0


# ---------- check ----------


def cmd_check(args: argparse.Namespace) -> int:
    from .oracle import run_checks  # the only command that needs the oracle

    results = run_checks(only=args.only, seed=args.seed, sample_size=args.sample_size)
    if not results:
        print(f"no identities match --only {args.only!r}", file=sys.stderr)
        return 2
    payload = {"schema": SCHEMA, "command": "check", "checks": results}
    _emit(json.dumps(payload, indent=2), args.out)
    failures = sum(1 for r in results if r["status"] != "pass")
    print(f"{len(results) - failures}/{len(results)} identities pass", file=sys.stderr)
    return 1 if failures else 0


# ---------- wiring ----------


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bimodalskew",
        description="Bimodal skewed distributions: densities, samplers, Bayesian fits, checks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pdf", help="evaluate the density on a grid")
    _add_model_flags(sp)
    sp.add_argument("--from", dest="from_", type=float, default=-4.0)
    sp.add_argument("--to", type=float, default=4.0)
    sp.add_argument("--points", type=int, default=201)
    sp.add_argument("--compare", default=None, help="comma-separated alpha values, one curve each")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_pdf)

    sp = sub.add_parser("sample", help="draw variates to a file with a reproducibility sidecar")
    _add_model_flags(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_sample)

    sp = sub.add_parser("fit", help="Bayesian fit of a standardized model to CSV data")
    sp.add_argument("--model", required=True, choices=("bsn", "bsstd", "bsgt"))
    sp.add_argument("--in", dest="in_", required=True, help="CSV file; first numeric column is used")
    sp.add_argument("--iters", type=int, default=20000)
    sp.add_argument("--burnin", type=int, default=5000)
    sp.add_argument("--thin", type=int, default=5)
    sp.add_argument("--chains", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--enable-extensions", action="store_true")
    sp.add_argument("--save-chains", default=None, help="write thinned draws as JSON lines")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_fit)

    sp = sub.add_parser("check", help="run the identity validation suite")
    sp.add_argument("--only", default=None, help="substring filter on identity names")
    sp.add_argument("--seed", type=int, default=20260814)
    sp.add_argument("--sample-size", type=int, default=100_000)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_check)

    return ap


def main(argv: list[str] | None = None) -> int:
    code = _run(argv)
    if argv is None:
        # run as the program, which exits next: the interpreter's last full
        # collection then skips the objects numpy and scipy left behind
        gc.freeze()
    return code


def _run(argv: list[str] | None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (DomainError, CapabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
