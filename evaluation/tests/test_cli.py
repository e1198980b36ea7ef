"""Unit tests for the ``python -m evaluation`` CLI."""

import importlib.util
import json
from pathlib import Path

import pytest

from evaluation.cli import main

SCHEMA_TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_bench_schema.py"


class TestCli:
    def test_single_panel_tiny_run(self, capsys):
        status = main(
            [
                "--figure", "fig1a",
                "--peers", "16", "64",
                "--words", "150",
                "--repetitions", "1",
            ]
        )
        captured = capsys.readouterr()
        assert "Figure 1(a)" in captured.out
        assert "qsamples" in captured.out
        assert status in (0, 1)  # shape checks may be noisy at tiny scale

    def test_titles_panel(self, capsys):
        main(
            [
                "--figure", "fig1d",
                "--peers", "16",
                "--titles", "80",
                "--repetitions", "1",
            ]
        )
        captured = capsys.readouterr()
        assert "Figure 1(d)" in captured.out
        assert "MB" in captured.out

    def test_csv_output(self, tmp_path, capsys):
        main(
            [
                "--figure", "fig1a",
                "--peers", "16",
                "--words", "100",
                "--repetitions", "1",
                "--csv-dir", str(tmp_path),
            ]
        )
        capsys.readouterr()
        csv_path = tmp_path / "bible.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "dataset,peers,strategy,messages,megabytes"

    def test_json_baselines(self, tmp_path, capsys):
        status = main(
            [
                "--figure", "fig1a",
                "--peers", "16",
                "--words", "100",
                "--repetitions", "1",
                "--json",
                "--json-dir", str(tmp_path),
                "--skip-shape-check",
            ]
        )
        capsys.readouterr()
        assert status == 0
        fig1 = json.loads((tmp_path / "BENCH_fig1.json").read_text())
        assert fig1["schema"] == "repro-bench-fig1/v7"
        assert fig1["generated_by"] == "python -m evaluation --json"
        assert fig1["datasets"]["bible"]["sweep_seconds"] > 0
        assert "jobs" not in fig1["scale"]
        assert "fanout" not in fig1["scale"]
        cells = fig1["datasets"]["bible"]["cells"]
        assert cells[0]["peers"] == 16
        assert cells[0]["total_entries"] > 0
        assert cells[0]["build_seconds"] >= 0
        assert fig1["scale"]["adaptive"] is True
        assert set(cells[0]["strategies"]) == {
            "qsamples", "qgrams", "strings", "adaptive",
        }
        assert all("messages" in s for s in cells[0]["strategies"].values())
        assert cells[0]["adaptive_stats_messages"] > 0
        assert sum(cells[0]["adaptive_choices"].values()) > 0
        assert [path.name for path in tmp_path.iterdir()] == ["BENCH_fig1.json"]

    def test_skip_shape_check_masks_findings(self, capsys):
        # Tiny runs often violate the qualitative shapes; the flag must
        # turn findings into warnings instead of a failing status.
        status = main(
            [
                "--figure", "fig1a",
                "--peers", "16",
                "--words", "80",
                "--repetitions", "1",
                "--skip-shape-check",
            ]
        )
        capsys.readouterr()
        assert status == 0

    def test_invalid_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["--figure", "fig9z"])

    def test_removed_fanout_flag_rejected(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["--fanout", "2"])
        assert exit_info.value.code == 2

    def test_removed_jobs_flag_rejected(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["--jobs", "2"])
        assert exit_info.value.code == 2

    def test_json_validates_as_v7(self, tmp_path, capsys):
        """Both datasets of a tiny run, checked by the schema tool."""
        spec = importlib.util.spec_from_file_location(
            "check_bench_schema", SCHEMA_TOOL
        )
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        status = main(
            [
                "--peers", "16",
                "--words", "80",
                "--titles", "40",
                "--repetitions", "1",
                "--no-adaptive",
                "--json",
                "--json-dir", str(tmp_path),
                "--skip-shape-check",
            ]
        )
        capsys.readouterr()
        assert status == 0
        path = tmp_path / "BENCH_fig1.json"
        assert tool.check_file(path) == []
        fig1 = json.loads(path.read_text())
        assert fig1["schema"] == "repro-bench-fig1/v7"
        assert sorted(fig1["datasets"]) == ["bible", "titles"]
        assert set(fig1["scale"]) == {
            "full", "words", "titles", "peer_counts", "repetitions",
            "seed", "adaptive",
        }

    def test_full_scale_env_toggle(self, monkeypatch):
        from evaluation.sweep import full_scale

        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        assert full_scale()
        monkeypatch.setenv("REPRO_FULL_SCALE", "0")
        assert not full_scale()
        monkeypatch.delenv("REPRO_FULL_SCALE")
        assert not full_scale()
