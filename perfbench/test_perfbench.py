"""Smoke test of the benchmark: every workload, untraced and traced, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run as bench_run
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# metrics the run record carries besides the contract's end-to-end list; each
# workload adds its own names for them (workloads.*.ALIASES)
RECORD_METRICS = {"failed_frac": "frac", "op_p90_ms": "ms", "ops_per_s": "1/s", "items_per_s": "1/s", "pass_s": "s"}
JOB_NAMES = {
    "fit-study": {"fit_wall_s", "fit_ess_per_s"},
    "check-suite": {"check_s"},
    "simulate": {"sample_draws_per_s"},
    "tabulate": {"report_p50_ms", "report_p90_ms", "reports_per_s"},
}
# the layer each workload's requests must reach, so spans really nest under requests
DEEPEST_LAYER = {
    "fit-study": "inference",
    "check-suite": "oracle",
    "simulate": "sampling",
    "tabulate": "families",
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    record = json.loads(record_line)["record"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]

    if trace:
        table = spans.SpanTable(ROOT / record["spans"]["file"])
        assert table.nesting_errors() == []
        requests = set(table.request[table.layer == spans.REQUEST])
        assert requests and all(r.startswith(f"{workload}/") for r in requests)
        assert DEEPEST_LAYER[workload] in set(table.layer)
        assert set(record["self_s"]) == {spans.OUTSIDE, *spans.LAYERS}
    else:
        aliases = workloads.WORKLOADS[workload].ALIASES
        assert set(aliases) == JOB_NAMES[workload]
        expected = {**RECORD_METRICS, **{name: unit for name, (_, _, unit) in aliases.items()}}
        for name, unit in expected.items():
            got = record["metrics"][name]
            assert got["unit"] == unit and got["samples"] >= 1, name
        assert record["machine"]["nproc"] >= 1 and record["machine"]["numpy"]


def test_fails_without_the_package_source():
    bare = HERE / "work" / "no-source"  # only BENCHMARK.json and the benchmark's files
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("tabulate", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)  # else pytest would collect the copied test file next time
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_correct_is_false_above_the_failure_baseline():
    assert bench_run.is_correct(0.0, 0.0)
    assert not bench_run.is_correct(1 / 5, 0.0)
    assert bench_run.is_correct(0.17, workloads.TAB_FAILED_FRAC_BASELINE)
    assert not bench_run.is_correct(0.3, workloads.TAB_FAILED_FRAC_BASELINE)
    clean = {"spans": {"nesting_errors": []}, "probe_checks_ok": True}
    assert bench_run.is_correct(0.0, 0.0, clean)
    assert not bench_run.is_correct(0.0, 0.0, {**clean, "probe_checks_ok": False})
    assert not bench_run.is_correct(0.0, 0.0, {**clean, "spans": {"nesting_errors": ["x"]}})


def test_tally_counts_each_operation_once_whatever_the_passes():
    def pass_(*failures):
        return [workloads.Outcome(i, 0.1, failure=f) for i, f in enumerate(failures)]

    one = [pass_(None, "quantile", None)]
    assert bench_run.tally(one) == (3, 1)
    assert bench_run.tally(one * 3) == (3, 1)
    # a failure in any pass fails the operation
    assert bench_run.tally([pass_(None, "quantile", None), pass_("round trip", "quantile", None)]) == (3, 2)


def test_tabulate_fails_a_report_whose_pit_values_are_not_uniform():
    sys.path.insert(0, str(ROOT / "src"))
    from bimodalskew import RngStream, bsn, cdf_values, find_modes, moment_report, quantile, sample

    spec = bsn(1.0, 1.2)
    draws = sample(spec, 2000, RngStream(5, 0))
    x = quantile(spec, 0.5)
    report = {"errors": [], "x": x, "cdf": 0.5, "modes": find_modes(spec),
              "moments": moment_report(spec), "pit": cdf_values(spec, draws)}
    op = (0, spec, ("central", 0.5), draws)
    good = workloads.Outcome(op, 0.1, report)
    workloads.Tabulate.verify(good)
    assert good.failure is None
    # a CDF that is 0.1 too low over the upper half of the draws
    pit = report["pit"]
    skewed = workloads.Outcome(op, 0.1, {**report, "pit": np.where(pit > 0.5, pit - 0.1, pit)})
    workloads.Tabulate.verify(skewed)
    assert skewed.failure == "PIT values not uniform"
