"""Import hygiene: a command loads only the modules it runs.

Importing the package costs numpy and the package's own modules, no scipy
module at all: the normal density and the three samplers need none, so
``pdf`` and ``sample`` of ``bsn`` and ``sample`` of ``bsstd`` run on numpy
alone. ``scipy.special`` loads on the first call that needs it (the
Student-t and generalized-t densities, ``cdf``, ``cdf_values``, ``quantile``,
the moments, ``fit``). The oracle imports it at module level and loads on
first use of ``run_checks``, ``integrate`` or ``OracleResult``, so ``check``
loads it before forking its workers, and a full ``check`` runs on the oracle,
numpy and ``scipy.special`` alone; ``scipy.integrate`` and ``scipy.optimize``
load on the first ``quantile``, and nothing in the package
loads ``scipy.stats``. Nothing loads ``multiprocessing`` or a
``concurrent.futures`` executor: ``run_checks`` and ``run_mcmc`` fork their
two workers with ``os.fork``, and load the module that does so only when
called. Importing the CLI loads no ``secrets``. The
fitter, ``inference``, loads only for ``fit`` or on first use of one of its
names. Each case runs in a fresh interpreter, because this test process has
long since imported all of them.
No case times anything: the modules present are the measurement.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bimodalskew
from bimodalskew import oracle

HEAVY = ("scipy.stats", "scipy.integrate", "scipy.optimize", "bimodalskew.oracle")
INFERENCE = "bimodalskew.inference"
# importing any scipy module first loads the package "scipy" itself
NO_SCIPY = ("scipy",) + HEAVY + (INFERENCE,)
SRC = str(Path(bimodalskew.__file__).resolve().parents[1])


def heavy_loaded(code: str, heavy=HEAVY) -> dict[str, list[str]]:
    """Run ``code`` in a fresh interpreter; the ``heavy`` modules it left loaded.

    ``code`` may call ``mark(label)`` to record the ``heavy`` modules loaded at
    that point; the end of the script is recorded as "end".
    """
    probe = "\n".join(
        [
            "import json, sys",
            f"HEAVY = {heavy!r}",
            "seen = {}",
            "def mark(label):",
            "    seen[label] = [m for m in HEAVY if m in sys.modules]",
            code,
            "mark('end')",
            "sys.stdout.write('\\n' + json.dumps(seen) + '\\n')",
        ]
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_cli(*argv: str) -> str:
    return f"from bimodalskew.cli import main\nassert main({list(argv)!r}) == 0"


@pytest.mark.parametrize("statement", ["import bimodalskew", "import bimodalskew.cli"])
def test_import_loads_no_heavy_module(statement):
    assert heavy_loaded(statement, NO_SCIPY)["end"] == []


@pytest.mark.parametrize("command", ["pdf", "sample", "sample-bsstd", "fit"])
def test_commands_without_checks_load_no_heavy_module(command, tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("value\n" + "\n".join(f"{0.37 * k - 3.1:.3f}" for k in range(17)) + "\n")
    out = ["--n", "10", "--seed", "1", "--out", str(tmp_path / "draws.txt")]
    argv = {
        "pdf": ["pdf", "--model", "bsn", "--alpha", "3", "--gamma", "1.5"],
        "sample": ["sample", "--model", "bsn", *out],
        "sample-bsstd": ["sample", "--model", "bsstd", "--nu", "5", *out],
        "fit": ["fit", "--model", "bsn", "--in", str(data), "--iters", "300", "--burnin", "100"],
    }[command]
    # the normal density and the samplers run on numpy alone; the alpha
    # prior's normalizer loads scipy.special into a fit
    heavy = HEAVY if command == "fit" else NO_SCIPY
    assert heavy_loaded(run_cli(*argv), heavy)["end"] == []


def test_oracle_loads_scipy_special_at_import():
    # so check loads it in the parent, and both forked workers inherit it
    assert heavy_loaded("from bimodalskew import oracle", ("scipy.special",))["end"] == [
        "scipy.special"
    ]


def test_check_loads_the_oracle_when_it_runs():
    check = run_cli("check", "--only", "modes/count")
    seen = heavy_loaded("import bimodalskew.cli\nmark('before')\n" + check)
    assert seen["before"] == []
    # the mode identities need the oracle but no scipy.stats reference
    assert seen["end"] == ["bimodalskew.oracle"]


def test_full_check_loads_only_the_oracle(tmp_path):
    # the closed-form cdf_values and the scipy.special references need no
    # scipy.stats, scipy.integrate or scipy.optimize, and check no fitter
    check = run_cli("check", "--out", str(tmp_path / "check.json"))
    assert heavy_loaded(check, HEAVY + (INFERENCE,))["end"] == ["bimodalskew.oracle"]


def test_fit_loads_the_fitter(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("value\n" + "\n".join(f"{0.37 * k - 3.1:.3f}" for k in range(17)) + "\n")
    fit = run_cli("fit", "--model", "bsn", "--in", str(data), "--iters", "300", "--burnin", "100")
    seen = heavy_loaded("import bimodalskew.cli\nmark('import')\n" + fit, (INFERENCE,))
    assert seen == {"import": [], "end": [INFERENCE]}


def test_fitter_names_load_the_fitter_on_first_use():
    code = "import bimodalskew\nmark('import')\nfrom bimodalskew import run_mcmc\nassert run_mcmc"
    assert heavy_loaded(code, (INFERENCE,)) == {"import": [], "end": [INFERENCE]}


def test_forked_workers_never_load_a_process_pool(tmp_path):
    # a full check and a two-chain fit fork their workers with os.fork;
    # scipy.special loads numpy.testing, which imports concurrent.futures but
    # neither of its executors
    data = tmp_path / "data.csv"
    data.write_text("value\n" + "\n".join(f"{0.37 * k - 3.1:.3f}" for k in range(17)) + "\n")
    pool = ("multiprocessing", "concurrent.futures.process", "concurrent.futures.thread")
    check = run_cli("check", "--out", str(tmp_path / "check.json"))
    fit = run_cli("fit", "--model", "bsn", "--in", str(data), "--iters", "300", "--burnin", "100",
                  "--chains", "2")
    code = "import bimodalskew.cli\nmark('import')\n" + check + "\nmark('check')\n" + fit
    assert heavy_loaded(code, pool) == {"import": [], "check": [], "end": []}


@pytest.mark.parametrize("statement", ["from bimodalskew import integrate", "import bimodalskew.inference"])
def test_workers_load_only_where_they_fork(statement):
    # run_checks and run_mcmc import them when called
    assert heavy_loaded(statement, ("bimodalskew._workers",))["end"] == []


def test_cli_import_leaves_secrets_unloaded():
    # only a sample without --seed asks secrets for its seed (numpy.random
    # loads it too, with the first draw)
    assert heavy_loaded("import bimodalskew.cli", ("secrets", "hmac"))["end"] == []


def test_oracle_integrator_does_not_load_scipy_stats():
    assert heavy_loaded("from bimodalskew import integrate")["end"] == ["bimodalskew.oracle"]


def test_oracle_names_are_looked_up_on_each_access(monkeypatch):
    # a wrapper bound onto the oracle (as a tracer does) is what the package serves
    assert bimodalskew.run_checks is oracle.run_checks
    wrapper = object()
    monkeypatch.setattr(oracle, "run_checks", wrapper)
    assert bimodalskew.run_checks is wrapper


def test_fitter_names_are_looked_up_on_each_access(monkeypatch):
    from bimodalskew import inference

    assert bimodalskew.run_mcmc is inference.run_mcmc
    wrapper = object()
    monkeypatch.setattr(inference, "run_mcmc", wrapper)
    assert bimodalskew.run_mcmc is wrapper


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bimodalskew.no_such_name  # noqa: B018
