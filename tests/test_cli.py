"""Command-line behaviour: outputs, provenance echo, determinism, exit codes."""

import json

import numpy as np
import pytest

from robust_lexrank import dualnorms
from robust_lexrank.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert stdout.count("PASS") == 4
        assert "FAIL" not in stdout

    def test_simplex_minimum_disagreement_fails(self, capsys, monkeypatch):
        def disagreeing(m, weights):
            return 1.0, 1.5

        monkeypatch.setattr(dualnorms, "_simplex_minimum_routes", disagreeing)
        code, stdout, _ = run_cli(capsys, "verify", "--seed", "1", "--instances", "3")
        assert code == 6
        assert "FAIL simplex minimum closed form vs LP: worst gap 5.000e-01" in stdout
        assert stdout.count("PASS") == 3
