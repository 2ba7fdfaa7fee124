"""Command-line behaviour: outputs, provenance echo, determinism, exit codes."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from robust_lexrank import cli, dualnorms
from robust_lexrank.cli import main

ROOT = pathlib.Path(__file__).parents[1]
EXPECTED_SESSION = ROOT / "perfbench" / "expected_session.json"
FIXTURES = ROOT / "tests" / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def session_argv(tmp_path):
    """The six commands of the benchmark's ``cluster-session`` workload, by label."""
    merged = tmp_path / "comparative.tsv"
    data = resources.files("robust_lexrank.data")
    merged.write_text(
        "".join(
            data.joinpath(name).read_text(encoding="utf-8")
            for name in ("iraq_cluster.tsv", "generated_templates.tsv")
        ),
        encoding="utf-8",
    )
    budget = ["--eps1", "0.01", "--eps-col", "0.01"]
    return {
        "rank": ["rank", "--threshold", "0.2"],
        "robust": ["robust", "--threshold", "0.1", *budget],
        "comparative": ["comparative", "--input", str(merged), "--threshold", "0.1",
                        "--n-verified", "11", *budget],
        "simulate": ["simulate", "--threshold", "0.2", "--samples", "1000", "--seed", "7",
                     "--growth", "2"],
        "reproduce-tables": ["reproduce-tables"],
        "verify": ["verify", "--instances", "50"],
    }


def assert_one_error_line(stderr, path):
    assert stderr.startswith("error: ")
    assert str(path) in stderr
    assert stderr.count("\n") == 1


class TestSimilarityCommand:
    def test_cluster_matrix_written(self, tmp_path, capsys, fixture_similarity):
        out = tmp_path / "sim.csv"
        code, stdout, _ = run_cli(capsys, "similarity", "--output", str(out))
        assert code == 0
        assert stdout.strip() == "11"
        assert np.array_equal(np.loadtxt(out, delimiter=","), fixture_similarity)

    def test_single_line_file(self, tmp_path, capsys):
        source = tmp_path / "one.txt"
        source.write_text("a single sentence\n", encoding="utf-8")
        out = tmp_path / "sim.csv"
        code, stdout, _ = run_cli(capsys, "similarity", "--input", str(source), "--output", str(out))
        assert code == 0
        assert stdout.strip() == "1"
        assert np.array_equal(np.loadtxt(out, delimiter=",", ndmin=2), [[1.0]])

    def test_empty_file_is_parse_error(self, tmp_path, capsys):
        source = tmp_path / "empty.txt"
        source.write_text("", encoding="utf-8")
        code, _, stderr = run_cli(capsys, "similarity", "--input", str(source))
        assert code == 4
        assert "error" in stderr

    @pytest.mark.parametrize("command", [["similarity"], ["rank", "--threshold", "0.1"]])
    def test_non_utf8_file_is_parse_error(self, tmp_path, capsys, command):
        source = tmp_path / "utf16.txt"
        source.write_bytes(b"\xff\xfea\x00 \x00b\x00\n\x00")
        code, stdout, stderr = run_cli(capsys, *command, "--input", str(source))
        assert code == 4
        assert stdout == ""
        assert_one_error_line(stderr, source)


class TestRankCommand:
    def test_high_threshold_all_ones(self, capsys):
        code, stdout, _ = run_cli(capsys, "rank", "--threshold", "0.3")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["config"]["threshold"] == 0.3
        assert all(r["normalized"] == 1.0 for r in payload["ranks"])

    def test_csv_format_carries_provenance_comments(self, capsys):
        code, stdout, _ = run_cli(capsys, "rank", "--threshold", "0.1", "--format", "csv")
        assert code == 0
        assert stdout.startswith("#")
        assert "threshold=0.1" in stdout

    def test_bad_threshold_exit_code(self, capsys):
        code, _, stderr = run_cli(capsys, "rank", "--threshold", "1.5")
        assert code == 5
        assert "error" in stderr

    def test_nan_tolerance_rejected(self, capsys):
        for tol in ("nan", "inf"):
            code, stdout, stderr = run_cli(capsys, "rank", "--threshold", "0.2", "--tol", tol)
            assert code == 5
            assert stdout == ""
            assert stderr == "error: tolerance must be positive and finite\n"

    def test_iteration_budget_exhausted(self, capsys):
        code, stdout, stderr = run_cli(capsys, "rank", "--threshold", "0.2", "--max-iter", "1")
        assert code == 6
        assert stdout == ""
        assert stderr == "error: power iteration stalled at residual 6.061e-02 after 1 iterations\n"


class TestRobustCommand:
    def test_saturated_budget_all_ones_low_threshold(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "robust", "--threshold", "0.1", "--eps1", "10", "--eps-col", "10"
        )
        assert code == 0
        payload = json.loads(stdout)
        assert all(r["normalized"] == pytest.approx(1.0, abs=1e-9) for r in payload["ranks"])
        assert payload["config"]["eps1"] == 10.0
        assert "objective" in payload

    def test_eps_col_file(self, tmp_path, capsys):
        budget_file = tmp_path / "cols.csv"
        budget_file.write_text(",".join(["0.01"] * 11), encoding="utf-8")
        code, stdout, _ = run_cli(
            capsys,
            "robust",
            "--threshold",
            "0.1",
            "--eps1",
            "0.01",
            "--eps-col-file",
            str(budget_file),
        )
        assert code == 0
        assert json.loads(stdout)["config"]["eps_col"] == [0.01] * 11

    @pytest.mark.parametrize("content", ["0.1,abc,0.2", ""], ids=["non-numeric", "empty"])
    def test_malformed_eps_col_file_is_parse_error(self, tmp_path, capsys, content):
        budget_file = tmp_path / "cols.csv"
        budget_file.write_text(content, encoding="utf-8")
        code, stdout, stderr = run_cli(
            capsys,
            "robust",
            "--threshold",
            "0.1",
            "--eps1",
            "0.01",
            "--eps-col-file",
            str(budget_file),
        )
        assert code == 4
        assert stdout == ""
        assert_one_error_line(stderr, budget_file)


class TestComparativeCommand:
    def test_runs_with_explicit_split(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "comparative",
            "--threshold",
            "0.1",
            "--n-verified",
            "8",
            "--eps1",
            "0.01",
            "--eps-col",
            "0.01",
        )
        assert code == 0
        payload = json.loads(stdout)
        scores = [r["score"] for r in payload["ranks"]]
        assert scores[:8] == pytest.approx([1.0] * 8)
        assert all(s <= 1.0 + 1e-12 for s in scores[8:])

    def test_split_is_required(self, capsys):
        # every sentence of a sentence file reads as verified, so no default split exists
        with pytest.raises(SystemExit) as exit_info:
            main(["comparative", "--threshold", "0.1", "--eps1", "0.01", "--eps-col", "0.01"])
        assert exit_info.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("usage: ")
        assert "the following arguments are required: --n-verified" in stderr


class TestSimulateCommand:
    def test_deterministic_given_seed(self, capsys):
        argv = [
            "simulate",
            "--threshold",
            "0.2",
            "--samples",
            "100",
            "--seed",
            "7",
            "--growth",
            "2",
        ]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["report"]["violations"] == 0
        assert payload["config"]["seed"] == 7

    def test_sampled_maximum_pinned(self, capsys):
        # the seeded stream end to end at growth 2; the candidate is zero on
        # the new sentences, so the new columns never count and the new rows
        # only through their nonnegative sums: the column masses reach this
        # value, the splits do not
        code, stdout, _ = run_cli(
            capsys, "simulate", "--threshold", "0.2", "--samples", "1000", "--seed", "7", "--growth", "2"
        )
        assert code == 0
        assert json.loads(stdout)["report"]["max_residual"] == 0.08216449001961942

    def test_default_growth_maximum_pinned(self, capsys):
        # the seeded paired-shift stream end to end: pair codes and fractions
        code, stdout, _ = run_cli(capsys, "simulate", "--threshold", "0.2", "--seed", "7")
        assert code == 0
        assert json.loads(stdout)["report"]["max_residual"] == 0.021352869504646363

    @pytest.mark.parametrize("seed", ["0", "3", "7"])
    def test_default_growth_shifts_existing_links(self, capsys, seed):
        # at growth 0 each column moves mass between two rows; a sampler that
        # moves nothing scores P itself and reports a residual of about 7e-17
        code, stdout, _ = run_cli(capsys, "simulate", "--threshold", "0.2", "--seed", seed)
        assert code == 0
        report = json.loads(stdout)["report"]
        assert report["max_residual"] > 0.01
        assert report["violations"] == 0

    def test_one_sentence_input(self, tmp_path, capsys):
        source = tmp_path / "one.txt"
        source.write_text("a single sentence\n", encoding="utf-8")
        code, stdout, _ = run_cli(capsys, "simulate", "--input", str(source), "--threshold", "0.2")
        assert code == 0
        assert json.loads(stdout)["report"]["max_residual"] == 0.0

    def test_negative_growth_rejected(self, capsys):
        code, stdout, stderr = run_cli(capsys, "simulate", "--threshold", "0.2", "--growth", "-1")
        assert code == 5
        assert stdout == ""
        assert stderr == "error: growth rate must be nonnegative\n"

    def test_negative_seed_rejected(self, capsys):
        code, stdout, stderr = run_cli(capsys, "simulate", "--threshold", "0.2", "--seed", "-1")
        assert code == 5
        assert stdout == ""
        assert stderr == "error: seed must be nonnegative\n"


class TestReproduceTables:
    def test_report_shape_and_exact_high_threshold(self, capsys):
        code, stdout, _ = run_cli(capsys, "reproduce-tables")
        assert code == 0
        payload = json.loads(stdout)
        assert len(payload["ids"]) == 11
        assert len(payload["columns"]) == 18
        for column in payload["columns"]:
            assert len(column["computed"]) == 11
            assert len(column["deviation"]) == 11
            if column["threshold"] == "0.3":
                assert column["max_deviation"] == 0.0

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_pinned(self, capsys, fmt):
        # recorded when each threshold and budget pair was a model of its own;
        # the csv writer ends its rows with \r\n
        expected = (FIXTURES / f"reproduce_tables.{fmt}").read_bytes().decode("utf-8")
        code, stdout, _ = run_cli(capsys, "reproduce-tables", "--format", fmt)
        assert code == 0
        assert stdout == expected

    def test_deviations_reported_not_hidden(self, capsys):
        _, stdout, _ = run_cli(capsys, "reproduce-tables")
        payload = json.loads(stdout)
        assert payload["max_deviation_overall"] >= 0.0
        lexrank_01 = next(
            c for c in payload["columns"] if c["method"] == "lexrank" and c["threshold"] == "0.1"
        )
        recomputed = [
            abs(c - r) for c, r in zip(lexrank_01["computed"], lexrank_01["reference"])
        ]
        assert lexrank_01["deviation"] == pytest.approx(recomputed, abs=1e-6)


class TestVerifyCommand:
    def test_identity_suite_clean(self, capsys):
        code, stdout, _ = run_cli(capsys, "verify", "--seed", "1", "--instances", "10")
        assert code == 0
        assert stdout.count("PASS") == 3
        assert "FAIL" not in stdout

    @staticmethod
    def passing_stdout(gaps):
        """The stdout of a clean run whose three worst gaps print as ``gaps``."""
        labels = (
            ("l1 support vs decomposition duality", "1e-08"),
            ("l2 support vs decomposition duality", "1e-08"),
            ("frobenius worst case attainment", "1e-09"),
        )
        return "".join(
            f"PASS {label}: worst gap {gap} (tolerance {tolerance})\n"
            for (label, tolerance), gap in zip(labels, gaps, strict=True)
        )

    def test_seed_237_clean(self, capsys):
        # an l2 instance of this seed once stopped a capped coordinate descent (exit 6);
        # the benchmark gates verify on its exit code only, so its gaps are pinned here
        code, stdout, _ = run_cli(capsys, "verify", "--seed", "237", "--instances", "50")
        assert code == 0
        assert stdout == self.passing_stdout(("8.882e-16", "1.776e-15", "1.776e-15"))

    def test_session_stdout_pinned(self, capsys, session_argv):
        # the benchmark session's run, at the default seed 0
        code, stdout, _ = run_cli(capsys, *session_argv["verify"])
        assert code == 0
        assert stdout == self.passing_stdout(("8.882e-16", "1.776e-15", "2.665e-15"))

    def test_each_support_evaluated_once(self, capsys, monkeypatch):
        calls = {"box_l1_support": 0, "box_l2_support": 0}
        for name in calls:
            real = getattr(dualnorms, name)

            def counted(x, budget, name=name, real=real):
                calls[name] += 1
                return real(x, budget)

            monkeypatch.setattr(dualnorms, name, counted)
        code, _, _ = run_cli(capsys, "verify", "--seed", "4", "--instances", "5")
        assert code == 0
        assert calls == {"box_l1_support": 5, "box_l2_support": 5}

    def test_zero_instances_rejected(self, capsys):
        code, stdout, stderr = run_cli(capsys, "verify", "--instances", "0")
        assert code == 5
        assert stdout == ""
        assert stderr.startswith("error: ")

    def test_negative_seed_rejected(self, capsys):
        code, stdout, stderr = run_cli(capsys, "verify", "--seed", "-2")
        assert code == 5
        assert stdout == ""
        assert stderr == "error: seed must be nonnegative\n"


class TestClusterSession:
    """The benchmark's recorded cluster session, rerun at tier 1.

    The argv mirror the ``cluster-session`` workload of the benchmark, and
    the outputs must match the values it records in
    ``perfbench/expected_session.json``, so a move to another LP vertex
    fails here rather than only in the benchmark.
    """

    def test_outputs_match_recorded_session(self, capsys, session_argv):
        # the recorded session holds no values for verify
        commands = {label: argv for label, argv in session_argv.items() if label != "verify"}
        payloads = {}
        for label, argv in commands.items():
            code, stdout, _ = run_cli(capsys, *argv)
            assert code == 0, label
            payloads[label] = json.loads(stdout)

        def ranks(payload):
            return {
                "score": [r["score"] for r in payload["ranks"]],
                "normalized": [r["normalized"] for r in payload["ranks"]],
            }

        report = payloads["simulate"]["report"]
        tables = payloads["reproduce-tables"]
        got = {
            "rank": ranks(payloads["rank"]),
            "robust": dict(ranks(payloads["robust"]), objective=payloads["robust"]["objective"]),
            "comparative": dict(
                ranks(payloads["comparative"]),
                objective=payloads["comparative"]["objective"],
                simplex_point=payloads["comparative"]["simplex_point"],
            ),
            "simulate": {k: report[k] for k in ("samples", "bound_value", "violations")},
            "reproduce-tables": {
                "computed": [c["computed"] for c in tables["columns"]],
                "max_deviation_overall": tables["max_deviation_overall"],
            },
        }
        expected = json.loads(EXPECTED_SESSION.read_text(encoding="utf-8"))
        assert got.keys() == expected.keys()
        for label, fields in expected.items():
            assert got[label].keys() == fields.keys(), label
            for field, want in fields.items():
                have = np.asarray(got[label][field], dtype=float)
                assert have.shape == np.shape(want), (label, field)
                assert np.allclose(have, want, rtol=0.0, atol=1e-9), (label, field)


class TestParserReuse:
    """``main`` builds its parser on the first call and reuses it after."""

    @pytest.fixture(autouse=True)
    def first_call_builds(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    def test_session_builds_parser_once(self, capsys, monkeypatch, session_argv):
        builds = []
        real = cli.build_parser

        def counted():
            builds.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counted)
        for argv in [*session_argv.values(), session_argv["rank"]]:
            assert main(argv) == 0, argv
        capsys.readouterr()
        assert len(builds) == 1

    def test_format_does_not_carry_over(self, capsys):
        code, stdout, _ = run_cli(capsys, "rank", "--threshold", "0.2", "--format", "csv")
        assert code == 0
        assert stdout.startswith("#")
        code, stdout, _ = run_cli(capsys, "rank", "--threshold", "0.2")
        assert code == 0
        assert json.loads(stdout)["config"]["command"] == "rank"

    def test_eps_col_file_does_not_carry_over(self, tmp_path, capsys):
        budget_file = tmp_path / "cols.csv"
        budget_file.write_text(",".join(["0.02"] * 11), encoding="utf-8")
        robust = ["robust", "--threshold", "0.1", "--eps1", "0.01"]
        code, stdout, _ = run_cli(capsys, *robust, "--eps-col-file", str(budget_file))
        assert code == 0
        assert json.loads(stdout)["config"]["eps_col"] == [0.02] * 11
        with pytest.raises(SystemExit) as exit_info:
            main(["comparative", "--threshold", "0.1", "--eps1", "0.01", "--eps-col", "0.01"])
        assert exit_info.value.code == 2
        capsys.readouterr()
        code, stdout, _ = run_cli(capsys, *robust, "--eps-col", "0.01")
        assert code == 0
        assert json.loads(stdout)["config"]["eps_col"] == [0.01] * 11

    def test_outputs_match_fresh_parser(self, capsys, session_argv):
        sequence = [
            *session_argv.values(),
            ["rank", "--threshold", "0.2", "--format", "csv"],
            session_argv["rank"],
        ]
        reused = [run_cli(capsys, *argv) for argv in sequence]
        fresh = []
        for argv in sequence:
            cli._parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        for argv, got, want in zip(sequence, reused, fresh):
            assert got == want, argv
            assert got[0] == 0 and got[2] == "", argv


class TestEntryPoint:
    """``python -m robust_lexrank.cli`` in a child process, as a shell runs it."""

    @staticmethod
    def run_module(*argv):
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "robust_lexrank.cli", *argv],
            capture_output=True,
            encoding="utf-8",
            env=dict(os.environ, PYTHONPATH=path),
            cwd=ROOT,
            timeout=120,
        )

    def test_stdout_matches_in_process(self, capsys):
        child = self.run_module("rank", "--threshold", "0.2")
        code, stdout, _ = run_cli(capsys, "rank", "--threshold", "0.2")
        assert child.returncode == code == 0
        assert child.stdout == stdout

    def test_error_exit_code_without_traceback(self):
        child = self.run_module("rank", "--threshold", "2")
        assert child.returncode == 5
        assert child.stdout == ""
        assert child.stderr.startswith("error:")
        assert "Traceback" not in child.stderr


def load_perfbench(name):
    """A benchmark module, loaded by path as the benchmark runs it."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkBindings:
    """The traced benchmark run wraps package functions by name."""

    def test_traced_functions_resolve(self):
        # a renamed or deleted function makes the traced run raise AttributeError
        spans = load_perfbench("spans")
        checked = 0
        for name in spans.LAYER_OF:
            module_name, _, attr = name.partition(".")
            if module_name in ("bench", "trace") or "." in attr:
                continue  # harness spans and the classmethod
            module = importlib.import_module(f"robust_lexrank.{module_name}")
            assert callable(getattr(module, attr, None)), name
            checked += 1
        assert checked > 20


class TestBenchmarkRequest:
    """One benchmark request through the program and the benchmark's own checks."""

    def test_robust_dense_request_checks_clean(self, tmp_path):
        workload = load_perfbench("workloads").RobustDense(ROOT, tmp_path, 1)
        path = workload.make_input(0)
        result, _ = workload.run(path)
        problems, deferred = workload.check(path, result)
        assert problems == []
        pytest.importorskip("scipy.optimize")
        assert deferred() == []
