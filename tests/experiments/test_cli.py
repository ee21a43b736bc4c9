"""Tests for the figure-regeneration CLI."""

import pytest

from repro.experiments.cli import COMMANDS, _endtoend_config, main
from repro.experiments.endtoend import run_comparison
from repro.experiments.export import export_endtoend


class TestDispatch:
    def test_all_figures_registered(self):
        expected = {
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
            "case-study", "ablations", "voting", "endtoend", "chaos", "bench",
            "loadtest", "scenario",
        }
        assert set(COMMANDS) == expected

    def test_trace_flag_rejected_for_untraceable_command(self):
        with pytest.raises(SystemExit):
            main(["fig3", "--quick", "--trace-out", "/tmp/x"])

    def test_case_study_quick(self, capsys):
        assert main(["case-study", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "CrowdFlower" in out
        assert "trust > 0.5" in out

    def test_fig7_quick(self, capsys):
        assert main(["fig7", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out
        assert "react" in out and "traditional" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_scenario_quick(self, capsys):
        assert main(["scenario", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Scenario pack" in out
        assert "total splits performed:" in out
        # The quick config must actually exercise the overload remedy.
        splits = int(out.split("total splits performed: ")[1].split()[0])
        assert splits >= 1


class TestExport:
    def test_out_flag_writes_series(self, tmp_path, capsys):
        assert main(["fig3", "--quick", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "# wrote" in out
        assert (tmp_path / "fig3_4.csv").exists()


def _file_map(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestDefaultPathIsSequentialReference:
    """The default (no ``--parallel``) run writes exactly what a pooled run
    and, for ``endtoend``, the sequential ``run_comparison`` driver write."""

    @pytest.mark.parametrize("cmd", ["endtoend", "chaos"])
    def test_default_equals_parallel_and_sequential(self, cmd, tmp_path, capsys):
        def run(tag, *extra):
            out = tmp_path / tag
            args = [cmd, "--quick", "--out", str(out)]
            args += ["--trace-out", str(out), "--metrics-out", str(out)]
            assert main(args + list(extra)) == 0
            return out, capsys.readouterr().out.replace(str(out), "<out>")

        default_dir, default_stdout = run("default")
        pooled_dir, pooled_stdout = run("pooled", "--parallel", "2")
        files = _file_map(default_dir)
        assert files, "telemetry files were not written"
        assert files == _file_map(pooled_dir)
        assert default_stdout == pooled_stdout

        if cmd == "endtoend":
            reference = tmp_path / "reference"
            export_endtoend(run_comparison(_endtoend_config(True)), reference)
            exported = _file_map(reference)
            assert exported
            assert exported == {name: files[name] for name in exported}
