"""Unit tests for the ``python -m repro.bench`` CLI."""


import pytest

from repro.bench.cli import main


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
        import json

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
        assert fig1["schema"] == "repro-bench-fig1/v5"
        assert fig1["datasets"]["bible"]["sweep_seconds"] > 0
        assert fig1["scale"]["jobs"] == 1
        assert fig1["scale"]["fanout"] == 0
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

    def test_full_scale_env_toggle(self, monkeypatch):
        from repro.bench.sweep import full_scale

        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        assert full_scale()
        monkeypatch.setenv("REPRO_FULL_SCALE", "0")
        assert not full_scale()
        monkeypatch.delenv("REPRO_FULL_SCALE")
        assert not full_scale()
