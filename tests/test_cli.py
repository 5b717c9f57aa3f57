"""Tests for the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro import __version__
from repro.cli import TABLE_BUILDERS, build_parser, main
from repro.engine import RetrievalEngine


def run_cli(argv):
    buffer = io.StringIO()
    code = main(argv, out=buffer)
    return code, buffer.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_topk_defaults(self):
        args = build_parser().parse_args(["topk"])
        assert args.dataset == "netflix"
        assert args.algorithm == "lemp:LI"
        assert args.k == 10

    def test_above_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["above", "--theta", "1.0", "--results", "10"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["topk", "--dataset", "movielens"])

    def test_tables_choices(self):
        args = build_parser().parse_args(["tables", "--which", "table3", "figure3"])
        assert args.which == ["table3", "figure3"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "--which", "table99"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_index_defaults(self):
        args = build_parser().parse_args(["index", "--out", "idx"])
        assert args.dataset == "netflix"
        assert args.spec == "lemp:LI"
        assert args.out == "idx"

    def test_index_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["index"])


class TestCommands:
    def test_datasets_lists_all(self):
        code, output = run_cli(["datasets"])
        assert code == 0
        for name in ("ie-svd", "ie-nmf", "netflix", "kdd"):
            assert name in output

    def test_topk_outputs_metrics(self):
        code, output = run_cli(
            ["topk", "--dataset", "netflix", "--algorithm", "LEMP-LI", "--k", "3", "--scale", "tiny"]
        )
        assert code == 0
        assert "candidates per query" in output
        assert "row_top_k" in output

    def test_topk_with_baseline_algorithm(self):
        code, output = run_cli(["topk", "--dataset", "ie-nmf-t", "--algorithm", "Naive", "--k", "2"])
        assert code == 0
        assert "Naive" in output

    def test_above_with_recall_level(self):
        code, output = run_cli(
            ["above", "--dataset", "ie-svd", "--results", "200", "--scale", "tiny"]
        )
        assert code == 0
        assert "above_theta" in output

    def test_above_with_explicit_theta(self):
        code, output = run_cli(
            ["above", "--dataset", "ie-svd", "--theta", "1.5", "--scale", "tiny"]
        )
        assert code == 0
        assert "above_theta" in output

    def test_tables_figure3(self):
        code, output = run_cli(["tables", "--which", "figure3"])
        assert code == 0
        assert "theta_b" in output

    def test_tables_table1(self):
        code, output = run_cli(["tables", "--which", "table1", "--scale", "tiny"])
        assert code == 0
        assert "ie-nmf" in output

    def test_topk_with_registry_spec(self):
        code, output = run_cli(
            ["topk", "--dataset", "netflix", "--algorithm", "lemp:LC", "--k", "2", "--scale", "tiny"]
        )
        assert code == 0
        assert "LEMP-LC" in output

    def test_explain_prints_plan_without_running(self):
        code, output = run_cli(
            ["explain", "--dataset", "netflix", "--scale", "tiny",
             "--k", "5", "--batch-size", "128"]
        )
        assert code == 0
        assert "row_top_k" in output
        assert "workers" in output
        assert "reason" in output
        assert "(exact=yes, updates=yes)" in output
        assert "backend       : serial" in output
        assert "executed" not in output  # nothing ran

    def test_explain_execute_verifies_recorded_plan(self):
        code, output = run_cli(
            ["explain", "--dataset", "ie-svd", "--scale", "tiny",
             "--theta", "1.5", "--execute"]
        )
        assert code == 0
        assert "above_theta" in output
        assert "recorded plan matches" in output

    def test_explain_defaults_to_top_10(self):
        code, output = run_cli(["explain", "--dataset", "netflix", "--scale", "tiny"])
        assert code == 0
        assert "row_top_k(parameter=10)" in output

    def test_explain_k_and_theta_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "--k", "5", "--theta", "1.0"])

    def test_index_saves_and_verifies(self, tmp_path):
        out = tmp_path / "idx"
        code, output = run_cli(
            ["index", "--dataset", "netflix", "--spec", "lemp:LI", "--scale", "tiny",
             "--out", str(out)]
        )
        assert code == 0
        assert "reload verified" in output
        assert "ok" in output
        assert (out / "meta.json").is_file()
        assert (out / "index.npz").is_file()
        # The written index is loadable through the library API as well.
        engine = RetrievalEngine.load(out)
        assert engine.spec == "lemp:LI"
        assert engine.num_probes > 0

    def test_unknown_spec_is_clean_error(self):
        code, output = run_cli(["topk", "--algorithm", "lemp:XYZ", "--scale", "tiny"])
        assert code == 2
        assert "error:" in output
        assert "unknown variant" in output

    def test_clustered_above_is_clean_error(self):
        code, output = run_cli(
            ["above", "--dataset", "netflix", "--algorithm", "clustered",
             "--theta", "1.0", "--scale", "tiny"]
        )
        assert code == 2
        assert "error:" in output
        assert "Row-Top-k" in output

    def test_index_skip_verify(self, tmp_path):
        out = tmp_path / "idx2"
        code, output = run_cli(
            ["index", "--dataset", "ie-svd", "--spec", "naive", "--scale", "tiny",
             "--out", str(out), "--skip-verify"]
        )
        assert code == 0
        assert "reload verified" not in output

    def test_every_table_builder_exists(self):
        assert set(TABLE_BUILDERS) >= {
            "table1", "table2", "table3", "table4", "table5", "table6", "figure3", "ablation"
        }
