"""Experiment presets and the CLI."""

from __future__ import annotations

import ast
import os
import subprocess
import sys

import pytest

from repro.workflows.experiments import PRESETS, get_preset


class TestPresets:
    def test_all_presets_complete(self):
        for name, preset in PRESETS.items():
            assert preset.name == name
            assert preset.pipeline.scale > 0
            assert preset.cnn_epochs >= 1

    def test_paper_preset_is_full_size(self):
        paper = get_preset("paper")
        assert paper.pipeline.scale == 1.0
        assert paper.pipeline.decimate == 1
        assert paper.pipeline.block_size == (500, 500)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            get_preset("huge")


class TestCLI:
    def test_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "table1" in proc.stdout
        assert "scaling" in proc.stdout

    def test_graphs_has_no_output_option(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as usage:
            main(["graphs", "--output", "x"])
        assert usage.value.code == 2

    def test_graphs_runs_the_figure_tests_from_anywhere(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro import cli

        calls = []
        monkeypatch.setattr(
            subprocess, "call", lambda argv, cwd: calls.append((argv, cwd)) or 0
        )
        monkeypatch.chdir(tmp_path)
        assert cli.main(["graphs"]) == 0
        ((argv, cwd),) = calls
        (path,) = [a for a in argv if a.endswith("test_graphs.py")]
        assert os.path.isabs(path) and os.path.isfile(path)
        assert os.path.samefile(cwd, os.path.dirname(os.path.dirname(path)))
        assert "DOT files are in" in capsys.readouterr().out

    def test_graphs_failure_prints_no_dot_location(self, monkeypatch, capsys):
        from repro import cli

        monkeypatch.setattr(subprocess, "call", lambda argv, cwd: 4)
        assert cli.main(["graphs"]) == 4
        assert "DOT files" not in capsys.readouterr().out

    def test_graphs_without_the_figure_tests_exits_1(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro import cli

        monkeypatch.setattr(cli, "__file__", str(tmp_path / "src" / "repro" / "cli.py"))
        monkeypatch.setattr(subprocess, "call", lambda argv, cwd: 0)
        assert cli.main(["graphs"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1

    def test_scaling_command_runs(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "scaling",
                "--algorithm", "rf", "--samples", "600",
                "--block-rows", "150", "--nodes", "1", "2",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-1500:]
        assert "simulated MareNostrum IV" in proc.stdout

    def test_faults_command_retries_then_reports_a_node_failure(self, capsys):
        from repro.cli import main

        assert main(["faults", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        # four blocks of arange(64) + i, summed: 4 * 2016 + 64 * (0+1+2+3)
        assert "result: 8448.0" in out
        # every train call fails attempts 0 and 1, succeeds on attempt 2
        (attempts_line,) = [ln for ln in out.splitlines() if ln.startswith("train attempts:")]
        attempts = ast.literal_eval(attempts_line.removeprefix("train attempts:").strip())
        statuses = sorted((attempt, status) for _, attempt, status in attempts)
        assert statuses == [(0, "failed")] * 4 + [(1, "failed")] * 4 + [(2, "done")] * 4
        assert "stats: retries=8 failed_attempts=8" in out
        # the failure_report of the simulated node failure
        assert "node failure" in out and "killed attempts" in out
        assert "recovery overhead" in out

    @pytest.mark.slow
    def test_table1_tiny(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "table1", "--preset", "tiny", "--skip-cnn"],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-1500:]
        assert "CSVM" in proc.stdout
