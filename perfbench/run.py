"""Benchmark for bimodalskew: four user jobs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload check-suite --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  `--trace 0` measures the end-to-end metrics
with tracing off.  `--trace 1` runs one untraced pass, one traced pass (spans
around every call into a layer, self time per layer, tracing overhead) and the
per-layer probes.  `--smoke` shrinks every size so a run takes seconds.

The next-to-last line of standard output is the run record (machine, every
metric with unit and sample count, failures, chain hashes, self times); the
last line is the result: {"correct", "attempted", "failed", "metrics"}.
`attempted` counts the distinct operations of a pass and `failed` those that
failed in any pass, so neither depends on how many passes fit in the run.
"""

import os

# one thread per process on a 2-core box: set before numpy is imported here
# and passed on to every child process
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# fresh-interpreter imports per run; setup_s is their median
SETUP_REPEATS = 9


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("fit-study", "check-suite", "simulate", "tabulate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    return ap.parse_args(argv)


def machine_info(python: str) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": THREAD_ENV,
        "cli": f"{python} -m bimodalskew.cli, with src on PYTHONPATH",
    }


def setup_times(ctx, count: int) -> list[float]:
    """Wall seconds of `count` fresh interpreters importing bimodalskew.cli, back to back."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([ctx.python, "-c", "import bimodalskew.cli"], env=ctx.env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def host_ref_ms() -> float:
    """Median milliseconds of a fixed pure-Python loop that calls no bimodalskew code.

    Recorded before and after the passes, so that a reader can tell a change
    in the host's speed between runs from a change in the program.
    """
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def run_pass(wl, tracer=None, label: str = "") -> list:
    """One pass over the workload's operations, then the untimed checks.

    With a tracer, an in-process workload runs with the layers instrumented
    here; CLI workloads instrument their child processes.
    """
    import spans

    outcomes = []
    traced_here = tracer is not None and wl.in_process
    with spans.instrument(tracer) if traced_here else contextlib.nullcontext():
        for i, op in enumerate(wl.ops()):
            outcomes.append(wl.run(op, tracer, f"{wl.name}/{label}{i}"))
    for out in outcomes:
        wl.verify(out)
    return outcomes


def tally(passes: list[list]) -> tuple[int, int]:
    """(attempted, failed) over the distinct operations of a pass.

    Every pass runs the same operations in the same order and each run of
    each is checked; an operation counts once, as failed if any of its runs
    failed.  Counting runs instead would make both numbers depend on how many
    passes the host's speed lets into --seconds.
    """
    per_op = zip(*passes)
    return len(passes[0]), sum(any(o.failure is not None for o in runs) for runs in per_op)


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def end_to_end(wl, args, ctx) -> tuple[list, dict, dict]:
    """Passes over the workload until --seconds is spent, then the set-up samples.

    Every metric is computed here once; each workload's own names for them
    come from its ALIASES table.
    """
    from workloads import percentile

    host_before = host_ref_ms()
    passes = []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        passes.append(run_pass(wl, label=f"{len(passes)}."))
        now = time.perf_counter()
        # start another pass only if it should still end within --seconds
        if now - t0 + (now - p0) > args.seconds:
            break
    host_after = host_ref_ms()
    setup = setup_times(ctx, 1 if args.smoke else SETUP_REPEATS)
    outcomes = [o for p in passes for o in p]
    walls = [o.wall_s for o in outcomes]
    n = len(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (peak_rss_mb(wl.in_process), "MB", 1),
        "op_p50_ms": (percentile(walls, 50) * 1e3, "ms", n),
        "op_p90_ms": (percentile(walls, 90) * 1e3, "ms", n),
        "ops_per_s": (n / sum(walls), "1/s", n),
        "items_per_s": (sum(wl.items(o) for o in outcomes) / sum(walls), "1/s", n),
        "pass_s": (sum(walls) / len(passes), "s", len(passes)),
    }
    for alias, (source, scale, unit) in wl.ALIASES.items():
        value, _, samples = metrics[source]
        metrics[alias] = (value * scale, unit, samples)
    extra = {
        "passes": len(passes),
        "setup_runs_s": setup,
        "op_walls_s": walls,
        "host_ref_ms": {"before": host_before, "after": host_after},
    }
    return passes, metrics, extra


def traced(wl, args, ctx) -> tuple[list, dict, dict]:
    import layers
    import spans
    from workloads import SPANS_FILE, fit_inputs

    spans_path = ctx.work / SPANS_FILE
    spans_path.unlink(missing_ok=True)  # traced CLI children append to it
    plain = run_pass(wl, label="untraced.")
    tracer = spans.Tracer()
    outcomes = run_pass(wl, tracer)
    tracer.dump(str(spans_path))
    table = spans.SpanTable(spans_path)

    plain_s = sum(o.wall_s for o in plain)
    traced_s = sum(o.wall_s for o in outcomes)
    probes = layers.Probes(ctx.seed, ctx.work, ctx.smoke, fit_inputs(ctx))
    metrics = {name: (value, unit, 1) for name, (value, unit) in probes.run().items()}
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%", len(outcomes))
    self_s = table.self_times().get(wl.name, {})
    extra = {
        "self_s": self_s,
        "self_share": {k: v / traced_s for k, v in self_s.items()},
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "spans": {
            "file": str(spans_path.relative_to(ROOT)),
            "count": len(table),
            "nesting_errors": table.nesting_errors()[:10],
        },
        "probe_checks_ok": probes.checks_ok,
    }
    return [plain, outcomes], metrics, extra


def is_correct(failed_frac: float, max_failed_frac: float, trace_extra: dict | None = None) -> bool:
    """No more operations failed than the workload's recorded baseline and, in a
    traced run, every span nests in its request and the probes' checks passed."""
    if failed_frac > max_failed_frac:
        return False
    return trace_extra is None or (not trace_extra["spans"]["nesting_errors"] and trace_extra["probe_checks_ok"])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bimodalskew" / "cli.py").is_file():
        print(f"error: no package source at {SRC}/bimodalskew; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    work = HERE / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, **THREAD_ENV}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    ctx = workloads.Context(python=sys.executable, env=env, work=work, seed=args.seed, smoke=args.smoke)
    wl = workloads.WORKLOADS[args.workload](ctx)

    passes, metrics, extra = (traced if args.trace else end_to_end)(wl, args, ctx)
    outcomes = [o for p in passes for o in p]
    attempted, failed = tally(passes)
    failed_frac = failed / attempted
    correct = is_correct(failed_frac, wl.max_failed_frac, extra if args.trace else None)
    if not args.trace:
        metrics["failed_frac"] = (failed_frac, "frac", attempted)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine_info(sys.executable),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "operations_run": len(outcomes),
        "failures": [o.failure for o in outcomes if o.failure],
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        **extra,
        **wl.extra_record(outcomes),
    }
    record_path = work / f"record-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2), encoding="utf-8")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
