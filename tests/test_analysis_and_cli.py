"""Tests for the analysis/reporting layer and the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.analysis import (
    AlgorithmEntry,
    agreement_check,
    cluster_summary,
    compare_on_suite,
    count_cuts_by_constraint,
    default_algorithms,
    figure5_report,
    format_table,
    population_stats,
    result_summary,
    scatter_plot,
)
from repro.cli import build_parser, main
from repro.core import Constraints, enumerate_cuts
from repro.dfg.builder import diamond, linear_chain
from repro.workloads import size_cluster
from repro.workloads.kernels import build_kernel


@pytest.fixture(scope="module")
def tiny_suite():
    return [diamond(), linear_chain(4), build_kernel("crc32_step")]


@pytest.fixture(scope="module")
def tiny_report(tiny_suite):
    return compare_on_suite(
        tiny_suite,
        Constraints(max_inputs=3, max_outputs=2),
        cluster_of=size_cluster,
    )


class TestComparison:
    def test_measurements_cover_every_pair(self, tiny_report, tiny_suite):
        algorithms = tiny_report.algorithms()
        assert len(algorithms) == 2
        assert len(tiny_report.measurements) == len(tiny_suite) * len(algorithms)
        for measurement in tiny_report.measurements:
            assert measurement.elapsed_seconds >= 0
            assert measurement.cuts_found > 0
            assert measurement.work_units > 0
            assert measurement.cluster != ""

    def test_paired_rows(self, tiny_report, tiny_suite):
        rows = tiny_report.paired("poly-enum-incremental", "exhaustive")
        assert len(rows) == len(tiny_suite)
        for row in rows:
            assert row["speed_ratio"] > 0
            # The exhaustive baseline is complete; the polynomial algorithm may
            # legitimately report slightly fewer cuts (tests/test_core_oracle.py
            # checks it reports at least the paper-enumerable ones).
            assert row["poly-enum-incremental_cuts"] <= row["exhaustive_cuts"]

    def test_custom_algorithm_entry(self, tiny_suite):
        entries = [AlgorithmEntry("only-poly", lambda g, c: enumerate_cuts(g, c))]
        report = compare_on_suite(tiny_suite, algorithms=entries)
        assert report.algorithms() == ["only-poly"]

    def test_agreement_check_passes(self, tiny_suite):
        assert agreement_check(tiny_suite, Constraints(max_inputs=3, max_outputs=2)) == []

    def test_default_algorithm_names(self):
        names = [entry.name for entry in default_algorithms()]
        assert names == ["poly-enum-incremental", "exhaustive"]


class TestMetricsAndReporting:
    def test_population_stats(self, tiny_suite):
        result = enumerate_cuts(tiny_suite[0], Constraints(max_inputs=4, max_outputs=2))
        stats = population_stats(result.cuts)
        assert stats.total == len(result)
        assert sum(stats.by_size.values()) == stats.total
        assert sum(stats.by_num_inputs.values()) == stats.total
        assert stats.max_size == max(cut.num_nodes for cut in result)
        assert "cuts" in stats.summary()

    def test_result_summary_text(self, tiny_suite):
        result = enumerate_cuts(tiny_suite[0], Constraints(max_inputs=4, max_outputs=2))
        text = result_summary(result)
        assert result.graph_name in text
        assert str(len(result)) in text

    def test_count_cuts_by_constraint(self, tiny_suite):
        results = {
            "2/1": enumerate_cuts(tiny_suite[0], Constraints(max_inputs=2, max_outputs=1)),
            "4/2": enumerate_cuts(tiny_suite[0], Constraints(max_inputs=4, max_outputs=2)),
        }
        rows = count_cuts_by_constraint(results)
        assert [row["constraints"] for row in rows] == ["2/1", "4/2"]
        assert rows[0]["cuts"] <= rows[1]["cuts"]

    def test_format_table_alignment(self):
        rows = [{"name": "a", "value": 1.0}, {"name": "bbbb", "value": 123456.0}]
        table = format_table(rows)
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert format_table([]) == "(no data)"

    def test_scatter_plot_contains_points_and_diagonal(self, tiny_report):
        rows = tiny_report.paired("poly-enum-incremental", "exhaustive")
        plot = scatter_plot(
            rows, x_key="poly-enum-incremental_seconds", y_key="exhaustive_seconds"
        )
        assert "." in plot
        assert "log10" in plot

    def test_figure5_report(self, tiny_report):
        text = figure5_report(tiny_report)
        assert "Figure 5 reproduction" in text
        assert "blocks where the polynomial algorithm is faster" in text

    def test_cluster_summary(self, tiny_report):
        rows = cluster_summary(tiny_report)
        assert rows
        for row in rows:
            assert row["blocks"] >= 1
            assert row["mean_seconds"] <= row["total_seconds"] + 1e-12


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["enumerate", "crc32_step", "--max-inputs", "3"])
        assert args.command == "enumerate"
        assert args.max_inputs == 3

    def test_kernels_command(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "crc32_step" in out

    def test_closed_stdout_exits_without_traceback(self):
        """A reader that closes the pipe before the first write (``repro
        kernels | head -0``) ends the command with status 1 and no
        ``BrokenPipeError`` traceback on stderr."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli", "kernels"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert completed.stderr == b""
        assert completed.returncode == 1

    def test_enumerate_command(self, capsys):
        assert main(["enumerate", "crc32_step", "--show-cuts"]) == 0
        out = capsys.readouterr().out
        assert "cuts" in out
        assert "Cut[" in out

    def test_enumerate_exhaustive_algorithm(self, capsys):
        assert main(["enumerate", "dct_butterfly", "--algorithm", "exhaustive"]) == 0
        assert "exhaustive" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "algorithm",
        [
            "poly-enum-incremental",
            "poly-enum-basic",
            "exhaustive",
            "brute-force",
            "connected-only",
        ],
    )
    def test_enumerate_every_registered_algorithm(self, algorithm, capsys):
        assert main([
            "enumerate", "dct_butterfly", "--algorithm", algorithm, "--max-inputs", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "cuts" in out

    @pytest.mark.parametrize("alias", ["poly", "basic", "connected", "oracle"])
    def test_enumerate_algorithm_aliases(self, alias, capsys):
        assert main(["enumerate", "dct_butterfly", "--algorithm", alias]) == 0
        assert "cuts" in capsys.readouterr().out

    def test_enumerate_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["enumerate", "dct_butterfly", "--algorithm", "not-a-registered-algo"])

    def test_enumerate_with_jobs(self, capsys):
        assert main(["enumerate", "crc32_step", "--jobs", "2"]) == 0
        assert "cuts" in capsys.readouterr().out

    def test_enumerate_with_jobs_auto(self, capsys):
        assert main(["enumerate", "crc32_step", "--jobs", "auto"]) == 0
        assert "cuts" in capsys.readouterr().out

    def test_enumerate_rejects_bad_jobs(self):
        with pytest.raises(SystemExit):
            main(["enumerate", "crc32_step", "--jobs", "some"])
        with pytest.raises(SystemExit):
            main(["enumerate", "crc32_step", "--jobs", "0"])

    @pytest.mark.parametrize(
        "argv,option",
        [
            pytest.param(
                ["enumerate", "crc32_step", "--max-inputs", "0"], "--max-inputs",
                id="enumerate-max-inputs-0",
            ),
            pytest.param(
                ["ise", "crc32_step", "--max-outputs", "-1"], "--max-outputs",
                id="ise-max-outputs-negative",
            ),
            pytest.param(
                ["ise", "crc32_step", "--max-instructions", "-1"], "--max-instructions",
                id="ise-max-instructions-negative",
            ),
            pytest.param(
                ["compare", "--max-inputs", "0"], "--max-inputs", id="compare-max-inputs-0"
            ),
            pytest.param(
                ["compare", "--min-ops", "12", "--max-ops", "10"], "--min-ops",
                id="compare-min-ops-above-max-ops",
            ),
            pytest.param(
                ["generate", "{dir}", "--blocks", "0"], "--blocks", id="generate-blocks-0"
            ),
            pytest.param(
                ["generate", "{dir}", "--min-ops", "5", "--max-ops", "2"], "--min-ops",
                id="generate-min-ops-above-max-ops",
            ),
        ],
    )
    def test_out_of_range_integer_options_are_usage_errors(
        self, argv, option, tmp_path, capsys
    ):
        argv = [arg.replace("{dir}", str(tmp_path / "suite")) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert option in err
        assert "Traceback" not in err
        assert not (tmp_path / "suite").exists()

    def test_enumerate_json_file(self, tmp_path, capsys):
        from repro.dfg.serialization import save

        path = tmp_path / "graph.json"
        save(diamond(), path)
        assert main(["enumerate", str(path)]) == 0
        assert "cuts" in capsys.readouterr().out

    def test_unknown_target_fails(self):
        with pytest.raises(SystemExit):
            main(["enumerate", "no_such_kernel_or_file"])

    def test_ise_command(self, capsys):
        assert main(["ise", "crc32_step", "--max-instructions", "1"]) == 0
        out = capsys.readouterr().out
        assert "application speedup" in out

    def test_generate_command(self, tmp_path, capsys):
        output = tmp_path / "suite"
        assert main([
            "generate", str(output), "--blocks", "3", "--min-ops", "5", "--max-ops", "10",
        ]) == 0
        index = json.loads((output / "suite.json").read_text())
        assert index["graphs"]

    def test_compare_command_small(self, capsys):
        assert main([
            "compare", "--blocks", "2", "--min-ops", "5", "--max-ops", "10",
            "--no-kernels", "--no-trees", "--max-inputs", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 5 reproduction" in out

    def test_compare_command_algorithm_selection(self, capsys):
        assert main([
            "compare", "--blocks", "2", "--min-ops", "5", "--max-ops", "10",
            "--no-kernels", "--no-trees", "--max-inputs", "3",
            "--algorithm", "poly-enum-incremental", "--algorithm", "connected-only",
        ]) == 0
        out = capsys.readouterr().out
        # Not the default Figure 5 pair: only the cluster table is printed.
        assert "Figure 5 reproduction" not in out
        assert "connected-only" in out

    def test_ise_command_with_engine_flags(self, capsys):
        assert main([
            "ise", "crc32_step", "bitcount", "--max-instructions", "1",
            "--algorithm", "exhaustive", "--jobs", "2",
        ]) == 0
        assert "application speedup" in capsys.readouterr().out
