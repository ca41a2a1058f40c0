"""Command-line surface: argument handling, file formats, exit codes.

Everything drives ``main(argv)`` in-process, except the tests that pin the
module entry point and compare its output with the in-process one. Exit
codes: 0 success, 1 failed checks, 2 usage or capability errors.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bimodalskew
from bimodalskew import bases, cli, oracle
from bimodalskew.cli import main
from bimodalskew.errors import DomainError
from bimodalskew.families import bsgt, bsn, bsstd, pdf
from bimodalskew.sampling import RngStream, sample


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPdf:
    def test_json_curve_matches_density(self, capsys):
        code, out, _ = run(
            capsys, "pdf", "--model", "bsn", "--alpha", "1", "--gamma", "1.5",
            "--from", "-2", "--to", "2", "--points", "5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "bimodal-skew/1"
        xs = np.asarray(doc["x"])
        np.testing.assert_allclose(xs, np.linspace(-2, 2, 5), atol=1e-12)
        np.testing.assert_allclose(doc["pdf"], pdf(bsn(1.0, 1.5), xs), atol=1e-12)

    def test_compare_adds_one_curve_per_alpha(self, capsys):
        code, out, _ = run(
            capsys, "pdf", "--model", "bsn", "--gamma", "1.2", "--compare", "0,0.5,2",
            "--points", "9",
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc["curves"]) == ["alpha=0", "alpha=0.5", "alpha=2"]
        xs = np.asarray(doc["x"])
        for label, values in doc["curves"].items():
            alpha = float(label.split("=")[1])
            np.testing.assert_allclose(values, pdf(bsn(alpha, 1.2), xs), atol=1e-12)

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "pdf", "--model", "bsstd", "--alpha", "1", "--gamma", "0.8",
            "--nu", "5", "--points", "3", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("x,")
        assert len(lines) == 4

    def test_phi_is_an_alias_for_gamma_squared(self, capsys):
        _, out_g, _ = run(capsys, "pdf", "--model", "bsn", "--gamma", "1.5", "--points", "3")
        _, out_p, _ = run(capsys, "pdf", "--model", "bsn", "--phi", "2.25", "--points", "3")
        assert json.loads(out_g)["pdf"] == json.loads(out_p)["pdf"]

    @pytest.mark.parametrize(
        "flags,params",
        [
            (
                ("--model", "bsstd", "--alpha", "1", "--gamma", "0.8", "--nu", "5"),
                {"alpha": 1.0, "gamma": 0.8, "mu": 0.0, "sigma": 1.0, "nu": 5.0},
            ),
            (
                ("--model", "bsgt", "--alpha", "2", "--gamma", "1.5", "--p", "1.7", "--q", "2",
                 "--mu", "0.5", "--sigma", "3"),
                {"alpha": 2.0, "gamma": 1.5, "mu": 0.5, "sigma": 3.0, "p": 1.7, "q": 2.0},
            ),
        ],
        ids=["bsstd", "bsgt"],
    )
    def test_json_params_payload(self, capsys, flags, params):
        code, out, _ = run(capsys, "pdf", *flags, "--points", "3")
        assert code == 0
        assert json.loads(out)["params"] == params

    @pytest.mark.parametrize(
        "argv",
        [
            ("pdf", "--model", "bsstd", "--gamma", "1"),  # nu missing
            ("pdf", "--model", "bsgt", "--gamma", "1", "--p", "2"),  # q missing
            ("pdf", "--model", "bsn", "--gamma", "1", "--points", "1"),
            ("pdf", "--model", "bsn", "--gamma", "2", "--phi", "4"),  # exclusive
            ("pdf", "--model", "bsn", "--from", "nan"),
            ("pdf", "--model", "bsn", "--to", "1e309"),  # parses as inf
        ],
        ids=["no-nu", "no-q", "one-point", "gamma-and-phi", "nan-from", "infinite-to"],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err


class TestSample:
    def test_writes_draws_and_sidecar(self, capsys, tmp_path):
        out = tmp_path / "draws.txt"
        code, _, err = run(
            capsys, "sample", "--model", "bsstd", "--alpha", "1", "--gamma", "1.5",
            "--nu", "4", "--n", "50", "--seed", "9", "--out", str(out),
        )
        assert code == 0
        assert "seed 9" in err
        values = [float(line) for line in out.read_text().splitlines()]
        assert len(values) == 50
        meta = json.loads((tmp_path / "draws.txt.meta.json").read_text())
        assert meta["seed"] == 9 and meta["n"] == 50 and meta["model"] == "bsstd"

    @pytest.mark.parametrize(
        "flags,params",
        [
            (
                ("--model", "bsstd", "--alpha", "1", "--gamma", "1.5", "--nu", "4"),
                {"alpha": 1.0, "gamma": 1.5, "mu": 0.0, "sigma": 1.0, "nu": 4.0},
            ),
            (
                ("--model", "bsgt", "--alpha", "1", "--phi", "0.64", "--p", "2.3", "--q", "2",
                 "--mu", "-1", "--sigma", "0.5"),
                {"alpha": 1.0, "gamma": 0.8, "mu": -1.0, "sigma": 0.5, "p": 2.3, "q": 2.0},
            ),
        ],
        ids=["bsstd", "bsgt"],
    )
    def test_sidecar_params_payload(self, capsys, tmp_path, flags, params):
        out = tmp_path / "draws.txt"
        code, _, _ = run(capsys, "sample", *flags, "--n", "5", "--seed", "2", "--out", str(out))
        assert code == 0
        meta = json.loads((tmp_path / "draws.txt.meta.json").read_text())
        assert meta["params"] == params

    def test_same_seed_same_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "sample", "--model", "bsn", "--alpha", "1", "--gamma", "1.5",
            "--n", "100", "--seed", "3", "--out", str(a))
        run(capsys, "sample", "--model", "bsn", "--alpha", "1", "--gamma", "1.5",
            "--n", "100", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_omitted_seed_is_generated_and_echoed(self, capsys, tmp_path):
        out = tmp_path / "c.txt"
        code, _, _ = run(capsys, "sample", "--model", "bsn", "--alpha", "0",
                         "--gamma", "2", "--n", "10", "--out", str(out))
        assert code == 0
        meta = json.loads((tmp_path / "c.txt.meta.json").read_text())
        assert isinstance(meta["seed"], int) and meta["seed"] >= 0

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize(
        "flags,spec",
        [
            (("--model", "bsn"), bsn(1.0, 1.5)),
            (("--model", "bsstd", "--nu", "4"), bsstd(1.0, 1.5, 4.0)),
            (("--model", "bsgt", "--p", "2.3", "--q", "2"), bsgt(1.0, 1.5, 2.3, 2.0)),
        ],
        ids=["bsn", "bsstd", "bsgt"],
    )
    def test_chunked_file_equals_one_format_per_draw(self, capsys, tmp_path, flags, spec, seed):
        # sizes around the 65536-draw chunk
        out = tmp_path / "draws.txt"
        for n in (1, 65535, 65536, 65537):
            argv = ("sample", *flags, "--alpha", "1", "--gamma", "1.5", "--n", str(n), "--seed", str(seed))
            assert run(capsys, *argv, "--out", str(out))[0] == 0
            draws = sample(spec, n, RngStream(seed, 0))
            assert out.read_bytes() == "".join(f"{v:.17g}\n" for v in draws).encode()

    def test_extreme_draws_are_written_exactly(self, capsys, tmp_path, monkeypatch):
        values = np.array([-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308])
        monkeypatch.setattr(cli, "sample", lambda spec, n, rng: values)
        out = tmp_path / "draws.txt"
        code, _, _ = run(capsys, "sample", "--model", "bsn", "--n", "5", "--seed", "1", "--out", str(out))
        assert code == 0
        assert out.read_bytes() == b"-0\n4.9406564584124654e-324\n2.2250738585072014e-308\n1e+308\n-1e+308\n"

    def test_rejects_nonpositive_n(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sample", "--model", "bsn", "--gamma", "1",
                         "--n", "0", "--out", str(tmp_path / "x.txt"))
        assert code == 2


@pytest.fixture()
def small_csv(tmp_path):
    path = tmp_path / "data.csv"
    gen = np.random.default_rng(77)
    xs = gen.standard_normal(60) * 1.4
    path.write_text("value\n" + "\n".join(f"{x:.9g}" for x in xs) + "\n")
    return path


class TestFit:
    ARGS = ("--iters", "600", "--burnin", "200", "--thin", "2", "--seed", "11")

    def test_report_structure(self, capsys, small_csv):
        code, out, _ = run(capsys, "fit", "--model", "bsn", "--in", str(small_csv), *self.ARGS)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "bimodal-skew/1"
        assert doc["command"] == "fit"
        assert doc["seed"] == 11
        assert doc["input"].endswith("data.csv")
        assert {"phi", "alpha", "gamma"} <= set(doc["parameters"])
        for entry in doc["parameters"].values():
            assert {"mean", "sd", "median", "ci50", "ci95", "ess"} <= set(entry)

    def test_deterministic_stdout(self, capsys, small_csv):
        _, out1, _ = run(capsys, "fit", "--model", "bsn", "--in", str(small_csv), *self.ARGS)
        _, out2, _ = run(capsys, "fit", "--model", "bsn", "--in", str(small_csv), *self.ARGS)
        assert out1 == out2

    def test_heavy_tail_fit_reports_outlier_scores(self, capsys, small_csv):
        code, out, _ = run(capsys, "fit", "--model", "bsstd", "--in", str(small_csv), *self.ARGS)
        assert code == 0
        doc = json.loads(out)
        cands = doc["outlier_candidates"]
        assert len(cands) == 10
        scores = [c["lambda_mean"] for c in cands]
        assert scores == sorted(scores)
        assert all(0 <= c["index"] < 60 for c in cands)

    def test_save_chains_ndjson(self, capsys, small_csv, tmp_path):
        chains_path = tmp_path / "chains.ndjson"
        code, _, _ = run(capsys, "fit", "--model", "bsn", "--in", str(small_csv),
                         "--save-chains", str(chains_path), *self.ARGS)
        assert code == 0
        rows = [json.loads(line) for line in chains_path.read_text().splitlines()]
        assert len(rows) == 200  # (600 - 200) / 2
        assert {"chain", "draw", "phi", "alpha"} <= set(rows[0])

    def test_csv_table(self, capsys, small_csv):
        code, out, _ = run(capsys, "fit", "--model", "bsn", "--in", str(small_csv),
                           "--format", "csv", *self.ARGS)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[0] == "parameter"
        assert any(line.startswith("phi,") for line in lines[1:])

    def test_extension_gate(self, capsys, small_csv):
        code, _, err = run(capsys, "fit", "--model", "bsgt", "--in", str(small_csv), *self.ARGS)
        assert code == 2
        assert "--enable-extensions" in err

    def test_extension_opt_in_runs(self, capsys, small_csv):
        code, out, _ = run(capsys, "fit", "--model", "bsgt", "--in", str(small_csv),
                           "--enable-extensions", "--iters", "300", "--burnin", "100",
                           "--thin", "2", "--seed", "1")
        assert code == 0
        assert {"p", "q"} <= set(json.loads(out)["parameters"])

    def test_prior_flags_are_unrecognized(self, capsys, small_csv):
        # the priors are fixed
        code, _, err = run(capsys, "fit", "--model", "bsn", "--in", str(small_csv),
                           "--prior-b-phi", "0.5", *self.ARGS)
        assert code == 2
        assert "unrecognized arguments: --prior-b-phi" in err

    def test_non_numeric_rows_are_fatal_with_line_numbers(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("value\n1.0\noops\n2.0\nhuh\n")
        code, _, err = run(capsys, "fit", "--model", "bsn", "--in", str(bad), *self.ARGS)
        assert code == 2
        assert "line(s) 3, 5" in err

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff1.5\n2.5\n-0.5\n0.3\n1.1\n0.7\n", encoding="utf-8")
        assert cli._read_first_numeric_column(str(path)).tolist() == [1.5, 2.5, -0.5, 0.3, 1.1, 0.7]

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "fit", "--model", "bsn", "--in", "/no/such/file.csv")
        assert code == 2
        assert err


class TestCheck:
    def test_subset_passes(self, capsys):
        code, out, err = run(capsys, "check", "--only", "modes/")
        assert code == 0
        doc = json.loads(out)
        assert all(row["status"] == "pass" for row in doc["checks"])
        assert "identities pass" in err

    def test_failed_identities_exit_1(self, capsys, monkeypatch):
        # a generalized-t base 5 % wider than unit variance does not integrate to 1 once tilted
        scale = bases.gt_standard_scale
        monkeypatch.setattr(bases, "gt_standard_scale", lambda p, q: 1.05 * scale(p, q))
        code, out, _ = run(capsys, "check", "--only", "normalization/bsgt alpha=1.0 gamma=1.5")
        assert code == 1
        assert [row["status"] for row in json.loads(out)["checks"]] == ["fail"] * 4

    def test_builds_only_selected_specs(self, capsys, monkeypatch):
        # every bsgt spec fails to build, but no selected identity builds one
        def refuse(*args):
            raise DomainError("no bsgt spec should be built")

        monkeypatch.setattr(oracle, "bsgt", refuse)
        code, out, err = run(capsys, "check", "--only", "normalization/bsn")
        assert code == 0, err
        assert len(json.loads(out)["checks"]) == 25

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_rejects_nonpositive_sample_size(self, capsys, size):
        code, out, err = run(capsys, "check", "--only", "modes/", "--sample-size", size)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_unmatched_filter(self, capsys):
        code, _, err = run(capsys, "check", "--only", "zzz-nothing")
        assert code == 2
        assert "no identities match" in err

    def test_report_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "check", "--only", "modes/", "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["checks"]


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bimodalskew.cli", "pdf", "--model", "bsn",
             "--gamma", "1.5", "--points", "3"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["schema"] == "bimodal-skew/1"

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_no_arguments_shows_usage(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2


class TestExitFreeze:
    """Run as the program, ``main`` freezes the collector's heap before the exit.

    That must change nothing the command writes: each subprocess run of the
    module, which freezes, matches an in-process ``main(argv)``, which does not.
    """

    ENV = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(Path(bimodalskew.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
        ),
    )

    def program(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "bimodalskew.cli", *argv],
            capture_output=True, text=True, env=self.ENV, timeout=300,
        )

    @pytest.mark.parametrize("command", ["sample", "pdf", "fit"])
    def test_files_equal_the_in_process_ones(self, capsys, small_csv, tmp_path, command):
        argv = {
            "sample": ["sample", "--model", "bsstd", "--alpha", "1", "--gamma", "1.5", "--nu", "4",
                       "--n", "2000", "--seed", "7", "--out"],
            "pdf": ["pdf", "--model", "bsgt", "--alpha", "1", "--gamma", "0.8", "--p", "1.7",
                    "--q", "2", "--format", "csv", "--out"],
            "fit": ["fit", "--model", "bsstd", "--in", str(small_csv), *TestFit.ARGS,
                    "--chains", "2", "--save-chains"],
        }[command]
        written = {}
        for side in ("program", "in-process"):
            path = tmp_path / f"{side}.txt"
            if side == "program":
                proc = self.program(*argv, str(path))
                assert proc.returncode == 0, proc.stderr
            else:
                assert main([*argv, str(path)]) == 0
            meta = Path(f"{path}.meta.json")
            written[side] = (path.read_bytes(), meta.read_bytes() if meta.exists() else None)
        capsys.readouterr()
        assert written["program"][0]
        assert written["program"] == written["in-process"]

    def test_check_prints_the_in_process_report(self, capsys):
        proc = self.program("check", "--only", "modes/")
        code, out, _ = run(capsys, "check", "--only", "modes/")
        assert (proc.returncode, proc.stdout) == (code, out)

    def test_only_the_program_freezes(self, capsys):
        argv = ["pdf", "--model", "bsn", "--points", "3"]
        frozen = gc.get_freeze_count()
        assert main(argv) == 0
        capsys.readouterr()
        assert gc.get_freeze_count() == frozen
        probe = (
            "import gc, sys\n"
            "from bimodalskew.cli import main\n"
            f"sys.argv = ['bimodalskew', *{argv!r}]\n"
            "assert main() == 0\n"
            "print(gc.get_freeze_count() > 0, file=sys.stderr)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=self.ENV, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.split() == ["True"]
