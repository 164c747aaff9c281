"""Tests for the analysis/reporting layer and the command-line interface."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from collections import defaultdict
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

    def test_timeout_raises_alike_at_jobs_1_and_2(self, tiny_suite):
        """A budget applies at every ``jobs``: at jobs=1 it routes the
        comparison through the batch runner, as jobs=2 does, and the first
        timed-out block raises the same error on both."""
        messages = []
        for jobs in (1, 2):
            with pytest.raises(RuntimeError) as excinfo:
                compare_on_suite(
                    tiny_suite,
                    Constraints(max_inputs=3, max_outputs=2),
                    jobs=jobs,
                    timeout=1e-9,
                )
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert messages[0] == (
            f"algorithm 'poly-enum-incremental' failed on block "
            f"{tiny_suite[0].name!r}: timed out"
        )

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


def _fresh_interpreter_env():
    """The environment for a child interpreter that imports this ``repro``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_fresh_interpreter(code):
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_fresh_interpreter_env(),
        timeout=120,
    )


#: The packages whose names load with their defining module on first use.
LAZY_PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.dfg",
    "repro.dominators",
    "repro.engine",
    "repro.frontend",
    "repro.ise",
    "repro.memo",
    "repro.obs",
    "repro.workloads",
]

#: Modules no ``repro ise`` or ``repro enumerate`` run executes, which
#: ``import repro.cli`` therefore does not load.
NOT_LOADED_BY_THE_CLI = [
    "repro.analysis.comparison",
    "repro.analysis.reporting",
    "repro.baselines.exhaustive",
    "repro.baselines.connected_only",
    "repro.core.enumeration",
    "repro.core.recovery",
    "repro.dominators.multi_vertex",
    "repro.dfg.dot",
    "repro.dfg.validate",
    "repro.workloads.mibench_like",
    "repro.workloads.synthetic",
    "repro.workloads.trees",
    "repro.obs.export",
    "repro.obs.report",
    "repro.frontend",
    "repro.perf",
    "repro.lint",
]


def _src_modules():
    """``(dotted name, path)`` of every non-package module under ``repro``."""
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        if path.name != "__init__.py":
            parts = path.relative_to(root).with_suffix("").parts
            yield ".".join(("repro",) + parts), path


@pytest.fixture(scope="module")
def top_level_definitions():
    """Each name a module under ``repro`` defines at top level, with the
    modules that define it (an import does not count)."""
    defined = defaultdict(set)
    for module, path in _src_modules():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            for name in targets:
                defined[name].add(module)
    return defined


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
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli", "kernels"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=_fresh_interpreter_env(),
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert completed.stderr == b""
        assert completed.returncode == 1

    def test_import_loads_neither_networkx_nor_the_process_pool(self):
        """``import repro.cli`` loads neither networkx nor the process pool's
        modules: an in-process run needs neither, and
        ``BatchRunner._make_pool`` imports the pool when it makes one."""
        code = (
            "import sys, repro.cli\n"
            "names = ('networkx', 'multiprocessing', 'concurrent.futures.process')\n"
            "print([name for name in names if name in sys.modules])"
        )
        completed = _run_fresh_interpreter(code)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout == "[]\n"

    def test_import_repro_loads_no_submodule(self):
        completed = _run_fresh_interpreter(
            "import sys, repro\n"
            "print(sorted(name for name in sys.modules if name.startswith('repro.')))"
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout == "[]\n"

    def test_import_cli_loads_only_what_ise_and_enumerate_run(self):
        completed = _run_fresh_interpreter(
            f"import sys, repro.cli\nnames = {NOT_LOADED_BY_THE_CLI!r}\n"
            "print([name for name in names if name in sys.modules])"
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout == "[]\n"

    def test_ise_and_enumerate_load_no_module_after_the_cli_import(self, tmp_path):
        """``import repro.cli`` already loads every ``repro`` module that
        ``repro ise`` and ``repro enumerate`` run on kernel and DFG JSON
        targets, with and without a store, in-process and with a pool, so a
        fresh interpreter's import time is what these commands pay for it."""
        from repro.dfg.serialization import save

        graph_path = tmp_path / "sha1_round.json"
        save(build_kernel("sha1_round"), graph_path)
        cache = str(tmp_path / "cache")
        runs = [
            ["enumerate", "crc32_step"],
            ["ise", "crc32_step", "bitcount", "--no-cache"],
            ["ise", "crc32_step", "bitcount", "--no-cache", "--jobs", "2"],
            ["ise", "crc32_step", "bitcount", "--cache-dir", cache],
            ["ise", "crc32_step", "bitcount", "--cache-dir", cache],
            ["enumerate", str(graph_path), "--no-cache"],
        ]
        code = (
            "import contextlib, io, json, sys\n"
            "import repro.cli\n"
            "loaded = {name for name in sys.modules if name.startswith('repro')}\n"
            "new = []\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        status = repro.cli.main(argv)\n"
            "    now = {name for name in sys.modules if name.startswith('repro')}\n"
            "    new.append([status, sorted(now - loaded)])\n"
            "    loaded = now\n"
            "print(json.dumps(new))"
        )
        completed = _run_fresh_interpreter(code)
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == [[0, []]] * len(runs)

    def test_ise_runs_without_networkx(self):
        """With networkx made unimportable, ``repro ise`` exits 0 and prints
        what a normal run prints."""
        argv = ["repro", "ise", "crc32_step", "bitcount", "--no-cache"]
        run_cli = (
            f"import runpy, sys\nsys.argv = {argv!r}\n"
            "runpy.run_module('repro.cli', run_name='__main__')"
        )
        normal = _run_fresh_interpreter(run_cli)
        blocked = _run_fresh_interpreter(
            "import sys\nsys.modules['networkx'] = None\n" + run_cli
        )
        assert normal.returncode == 0, normal.stderr
        assert blocked.returncode == 0, blocked.stderr
        assert "application speedup" in normal.stdout
        assert blocked.stdout == normal.stdout

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

    def test_compare_timeout_fails_in_one_line(self):
        """``repro compare`` on a timed-out block exits 1 with one stderr
        line naming the block, not a traceback."""
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "compare", "--blocks", "1",
                "--min-ops", "5", "--max-ops", "6", "--no-kernels", "--no-trees",
                "--max-inputs", "3", "--timeout", "1e-9",
            ],
            capture_output=True,
            text=True,
            env=_fresh_interpreter_env(),
            timeout=120,
        )
        assert completed.returncode == 1
        assert completed.stderr.endswith(": timed out\n")
        assert completed.stderr.count("\n") == 1, completed.stderr

    def test_ise_enumeration_error_fails_in_one_line(self, tmp_path):
        """``repro ise`` on a block whose enumeration raised (brute force
        over its 22-candidate limit) exits 1 with one stderr line, not a
        traceback."""
        from repro.dfg.serialization import save
        from repro.workloads.kernels import KERNEL_FACTORIES
        from repro.workloads.mibench_like import _unrolled_kernel

        path = tmp_path / "adpcm_x3.json"
        save(_unrolled_kernel("adpcm_decode_step", KERNEL_FACTORIES["adpcm_decode_step"], 3), path)
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "ise", str(path),
                "--algorithm", "brute-force", "--no-cache",
            ],
            capture_output=True,
            text=True,
            env=_fresh_interpreter_env(),
            timeout=120,
        )
        assert completed.returncode == 1
        assert completed.stderr.startswith(
            "enumeration failed for block 'adpcm_decode_step_x3': ValueError: "
            "brute force oracle limited to 22 candidate vertices"
        )
        assert completed.stderr.count("\n") == 1, completed.stderr

    def test_ise_command_with_engine_flags(self, capsys):
        assert main([
            "ise", "crc32_step", "bitcount", "--max-instructions", "1",
            "--algorithm", "exhaustive", "--jobs", "2",
        ]) == 0
        assert "application speedup" in capsys.readouterr().out


class TestLazyExports:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_exports_resolve_to_their_defining_modules(
        self, package, top_level_definitions
    ):
        # dir() lists every export before any has loaded.
        completed = _run_fresh_interpreter(
            f"import {package} as pkg\n"
            "print([name for name in pkg.__all__ if name not in dir(pkg)])"
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout == "[]\n"

        pkg = importlib.import_module(package)
        eager = {"__version__", "runtime"}
        for name in pkg.__all__:
            if name in eager:
                continue
            value = getattr(pkg, name)
            owners = [
                module
                for module in top_level_definitions[name]
                if module.startswith(package + ".")
            ]
            assert any(
                getattr(importlib.import_module(module), name) is value
                for module in owners
            ), (name, owners)

        with pytest.raises(AttributeError, match="no_such_export"):
            getattr(pkg, "no_such_export")

        namespace = {}
        exec(f"from {package} import *", namespace)
        assert [
            name for name in pkg.__all__ if namespace.get(name) is not getattr(pkg, name)
        ] == []

    def test_names_that_are_also_submodules(self):
        import repro.core.context  # imports the repro.dfg.augment submodule
        import repro.dfg
        import repro.obs

        assert isinstance(repro.dfg.augment, types.FunctionType)
        assert repro.dfg.augment is sys.modules["repro.dfg.augment"].augment
        assert repro.obs.runtime is sys.modules["repro.obs.runtime"]

    def test_src_imports_names_from_their_defining_modules(self):
        """Modules under ``src/`` never import a name through a lazily
        exporting package: they import it from the module that defines it
        (a submodule, such as ``repro.obs.runtime``, may be imported from its
        package)."""
        through_packages = []
        for module, path in _src_modules():
            parts = module.split(".")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.ImportFrom):
                    continue
                source = node.module or ""
                if node.level:
                    base = parts[: len(parts) - node.level]
                    source = ".".join(base + ([source] if source else []))
                if source not in LAZY_PACKAGES:
                    continue
                for alias in node.names:
                    if importlib.util.find_spec(f"{source}.{alias.name}") is None:
                        through_packages.append(
                            f"{module}:{node.lineno} from {source} import {alias.name}"
                        )
        assert through_packages == []
