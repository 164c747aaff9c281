"""Command-line interface: ``repro-enum``.

Sub-commands
------------
``enumerate``
    Enumerate the convex cuts of a DFG (JSON file or built-in kernel).
``compare``
    Compare the polynomial algorithm against the exhaustive baseline on a
    workload (the Figure 5 experiment, scaled by ``--blocks``/``--max-ops``).
``ise``
    Run the full ISE identification pipeline on one or more kernels.
``generate``
    Generate a synthetic workload suite and save it to a directory.
``kernels``
    List the built-in hand-written kernels.
``frontend``
    Compile Python source (or the bundled corpus) through the bytecode →
    CFG → DFG frontend, optionally profile it, and feed it to the ISE
    pipeline: ``repro frontend path.py --func f --profile --ise``.
``cache``
    Inspect, clear or warm the persistent enumeration-result cache.
``metrics``
    Pretty-print the run report of a ``--metrics-json`` document (optionally
    with its matching ``--trace`` file for span accounting).
``bench``
    The unified benchmark harness (``repro.perf``): ``bench run`` executes
    registered benchmarks and appends to the ``BENCH_history.jsonl`` ledger,
    ``bench compare`` gates fresh records against baselines, ``bench
    history`` renders the perf trajectory, ``bench list`` shows the
    registry, ``bench env`` prints the environment fingerprint.  Human
    progress goes to stderr, so ``bench run --json -`` emits machine-
    parseable JSON on stdout.

Targets: wherever a kernel name or DFG JSON file is accepted, a Python
source target ``file.py::function`` is too (the function's largest basic
block); ``--from-source`` on ``enumerate``/``ise`` forces that
interpretation, and on ``ise`` expands every basic block of the function.

Caching: ``enumerate``, ``compare`` and ``ise`` accept ``--cache-dir`` (or the
``REPRO_ENUM_CACHE`` environment variable) to memoize enumeration results
across runs, and ``--no-cache`` to force recomputation.

Progress: the engine streams per-block results as they complete;
``--progress`` (on ``enumerate``, ``compare``, ``ise`` and ``cache warm``)
prints one status line per finished block to stderr.

Observability: ``--trace FILE`` records a span timeline (``.jsonl`` for the
raw span log, anything else for a Perfetto-loadable Chrome trace) and
``--metrics-json FILE`` dumps the metrics registry (``-`` writes the JSON to
stdout and diverts the command's normal output to stderr, so piped stdout
stays machine-readable).  Both default to off, in which case the
instrumentation throughout the tree is no-op stubs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

# Module-level imports are what ``enumerate`` and ``ise`` run on kernel and
# DFG JSON targets; the other commands import their helpers when they run.
from .analysis.metrics import population_stats, result_summary
from .core.constraints import Constraints
from .dfg.serialization import load as load_graph
from .engine.batch import BatchRunner
from .engine.registry import (
    DEFAULT_ALGORITHM,
    algorithm_aliases,
    available_algorithms,
)
from .ise.pipeline import BlockProfile, identify_instruction_set_extension
from .ise.selection import SelectionConfig
from .memo.store import ResultStore
from .obs import runtime as obs_runtime
from .workloads.kernels import KERNEL_FACTORIES, build_kernel, kernel_names
from .workloads.suite import WorkloadSuite


def _algorithm_choices() -> List[str]:
    """Every accepted ``--algorithm`` value: canonical names plus aliases."""
    return sorted({*available_algorithms(), *algorithm_aliases()})


def _add_engine_arguments(
    parser: argparse.ArgumentParser,
    default_algorithm: Optional[str] = DEFAULT_ALGORITHM,
    multiple: bool = False,
) -> None:
    """The uniform ``--algorithm`` / ``--jobs`` / ``--timeout`` flags."""
    if multiple:
        parser.add_argument(
            "--algorithm",
            choices=_algorithm_choices(),
            action="append",
            help="enumeration algorithm (repeatable; default: "
            "poly-enum-incremental vs exhaustive)",
        )
    else:
        parser.add_argument(
            "--algorithm",
            choices=_algorithm_choices(),
            default=default_algorithm,
            help=f"enumeration algorithm (default {default_algorithm})",
        )
    parser.add_argument(
        "--jobs",
        type=_jobs_value,
        default=1,
        help='number of enumeration worker processes, or "auto" for the '
        "machine's CPU count (default 1)",
    )
    parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        help="per-block enumeration budget in seconds, charged from the "
        "block's start — queue wait is excluded; a block past it is timed "
        "out (default: none)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-block status to stderr as each block finishes",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """The uniform ``--trace`` / ``--metrics-json`` observability flags."""
    parser.add_argument(
        "--trace",
        dest="trace_out",
        metavar="FILE",
        default=None,
        help="record a span timeline: .jsonl writes the raw span log, any "
        "other extension a Chrome trace-event JSON (load in ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics-json",
        dest="metrics_json",
        metavar="FILE",
        default=None,
        help="write the run's metrics registry as JSON ('-' prints it to "
        "stdout and diverts normal output to stderr)",
    )


#: Environment variable naming the default cache directory.
CACHE_ENV_VAR = "REPRO_ENUM_CACHE"


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    """The uniform ``--cache-dir`` / ``--no-cache`` flags."""
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the persistent enumeration-result cache "
        f"(default: ${CACHE_ENV_VAR} if set, else caching is off)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache even if --cache-dir or "
        f"${CACHE_ENV_VAR} is set",
    )


def _store_from(args: argparse.Namespace) -> Optional[ResultStore]:
    """Build the :class:`ResultStore` selected by the cache flags, if any."""
    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None) or os.environ.get(CACHE_ENV_VAR)
    return ResultStore(cache_dir) if cache_dir else None


def _progress_from(args: argparse.Namespace):
    """Per-block progress printer for ``--progress``, or ``None``."""
    if not getattr(args, "progress", False):
        return None

    def report(item, completed: int, total: int) -> None:
        if item.error is not None:
            status = f"error: {item.error}"
        elif item.result is None:
            status = "timed out"
        elif item.cached:
            status = "cached"
        else:
            status = "ok"
        print(
            f"[{completed}/{total}] {item.graph_name}: {status} "
            f"({item.elapsed_seconds:.3f}s)",
            file=sys.stderr,
            flush=True,
        )

    return report


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _jobs_value(text: str):
    """``--jobs`` accepts a positive integer or the literal ``auto``."""
    if text == "auto":
        return "auto"
    try:
        return _positive_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f'must be a positive integer or "auto", got {text!r}'
        )


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_constraint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-inputs", type=_positive_int, default=4, help="Nin (default 4)")
    parser.add_argument("--max-outputs", type=_positive_int, default=2, help="Nout (default 2)")
    parser.add_argument(
        "--allow-memory",
        action="store_true",
        help="allow loads/stores inside custom instructions",
    )
    parser.add_argument(
        "--connected-only",
        action="store_true",
        help="restrict the search to connected cuts",
    )


def _constraints_from(args: argparse.Namespace) -> Constraints:
    return Constraints(
        max_inputs=args.max_inputs,
        max_outputs=args.max_outputs,
        allow_memory_ops=args.allow_memory,
        connected_only=args.connected_only,
    )


def _load_python_target(path: Path, func: Optional[str]):
    """Resolve ``file.py`` / ``file.py::func`` to the function's largest-block DFG."""
    from .frontend.dfg_from_bytecode import graph_for_function
    from .frontend.loader import SourceResolutionError, resolve_functions

    try:
        selected = resolve_functions(path, func)
    except SourceResolutionError as exc:
        raise SystemExit(str(exc))
    if len(selected) > 1:
        available = ", ".join(name for name, _ in selected)
        raise SystemExit(
            f"{path} defines {len(selected)} functions; pick one with "
            f"'{path}::<name>' or --func (available: {available})"
        )
    name, fn = selected[0]
    return graph_for_function(fn, name=name)


def _split_target(target: str) -> Tuple[Path, Optional[str]]:
    """``file.py::function`` as its path and function name (``None`` when
    the target names no function), as ``repro.frontend.split_target``
    splits it, without loading the frontend for kernel and JSON targets."""
    base, sep, func = target.partition("::")
    return Path(base), (func if sep else None)


def _load_target(target: str, from_source: bool = False):
    """Interpret *target* as a kernel name, a DFG JSON file, or Python source.

    Shared resolution helper for ``enumerate``/``ise``/``cache warm`` and the
    ``frontend`` subcommand: Python sources are addressed as
    ``file.py::function`` and contribute the function's largest basic block.
    """
    # Built-in kernel names always resolve, even under --from-source (the
    # flag governs how *paths* are interpreted, and kernels/sources can be
    # mixed freely in one invocation).
    if target in KERNEL_FACTORIES:
        return build_kernel(target)
    path, func = _split_target(target)
    if path.exists():
        if path.suffix == ".py" or from_source or func is not None:
            return _load_python_target(path, func)
        if path.suffix == ".json":
            return load_graph(path)
        raise SystemExit(
            f"target {target!r} exists but has unsupported extension "
            f"{path.suffix or '(none)'!r}: expected a .json DFG file or a "
            f".py source (address functions as 'file.py::function')"
        )
    raise SystemExit(
        f"unknown target {target!r}: not a built-in kernel "
        f"({', '.join(kernel_names())}), not an existing DFG JSON file, and "
        "not an existing .py source"
    )


# --------------------------------------------------------------------------- #
# Sub-commands
# --------------------------------------------------------------------------- #
def _cmd_enumerate(args: argparse.Namespace) -> int:
    with obs_runtime.tracer().span("cli.load_targets", cat="cli", targets=1):
        graph = _load_target(
            args.target, from_source=getattr(args, "from_source", False)
        )
    with obs_runtime.tracer().span("cli.setup", cat="cli"):
        store = _store_from(args)
        runner = BatchRunner(
            algorithm=args.algorithm,
            constraints=_constraints_from(args),
            jobs=args.jobs,
            timeout=args.timeout,
            store=store,
        )
        progress = _progress_from(args)
    item = runner.run([graph], progress=progress).items[0]
    if item.cached:
        print(f"(result served from cache {store.root})", file=sys.stderr)
    if item.error is not None:
        raise SystemExit(f"enumeration failed: {item.error}")
    if item.result is None:
        raise SystemExit(
            f"enumeration of {graph.name!r} exceeded the {args.timeout}s budget"
        )
    result = item.result
    with obs_runtime.tracer().span("cli.report", cat="cli"):
        print(result_summary(result))
        print()
        print(population_stats(result.cuts).summary())
        if args.show_cuts:
            print()
            for cut in sorted(
                result.cuts, key=lambda c: (-c.num_nodes, sorted(c.nodes))
            ):
                print("  " + cut.describe())
    if store is not None:
        store.persist_stats()
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    # The set-up imports the comparison harness and the suite generator,
    # which only this command runs, so a trace charges them to a span.
    with obs_runtime.tracer().span("cli.setup", cat="cli"):
        from .analysis.comparison import algorithms_from_registry, compare_on_suite
        from .analysis.reporting import cluster_summary, figure5_report, format_table
        from .workloads.mibench_like import SuiteConfig, build_suite, size_cluster

        suite = build_suite(
            SuiteConfig(
                num_blocks=args.blocks,
                min_operations=args.min_ops,
                max_operations=args.max_ops,
                include_kernels=not args.no_kernels,
                include_trees=not args.no_trees,
            )
        )
        constraints = _constraints_from(args)
        entries = algorithms_from_registry(args.algorithm) if args.algorithm else None
        store = _store_from(args)
    if store is not None:
        print(
            f"note: result cache {store.root} is active; cached blocks report "
            "lookup time, not enumeration time (pass --no-cache for clean "
            "timings)",
            file=sys.stderr,
        )
    try:
        report = compare_on_suite(
            suite,
            constraints,
            algorithms=entries,
            cluster_of=size_cluster,
            jobs=args.jobs,
            timeout=args.timeout,
            store=store,
            progress=_progress_from(args),
        )
    except RuntimeError as exc:  # a block failed or timed out
        raise SystemExit(str(exc))
    names = report.algorithms()
    if "poly-enum-incremental" in names and "exhaustive" in names:
        print(figure5_report(report))
        print()
    print(format_table(cluster_summary(report)))
    if store is not None:
        store.persist_stats()
    return 0


def _ise_blocks_from_target(target: str, args: argparse.Namespace) -> List[BlockProfile]:
    """Expand one ``ise`` target into profiled blocks.

    With ``--from-source``, a Python target contributes *every* non-trivial
    basic block of the function (execution counts weighted by the CFG's
    static profile); otherwise a target is one graph, as before.
    """
    from_source = getattr(args, "from_source", False)
    path, func = _split_target(target)
    if from_source and path.suffix == ".py":
        from .frontend.loader import SourceResolutionError, resolve_functions
        from .frontend.profile import static_profile

        try:
            selected = resolve_functions(path, func)
        except SourceResolutionError as exc:
            raise SystemExit(str(exc))
        blocks: List[BlockProfile] = []
        for name, fn in selected:
            profiled = static_profile(fn, name=name, default_count=args.execution_count)
            blocks.extend(profiled.block_profiles())
        if not blocks:
            raise SystemExit(f"{target!r} produced no blocks with operations")
        return blocks
    return [
        BlockProfile(
            graph=_load_target(target, from_source=from_source),
            execution_count=args.execution_count,
        )
    ]


def _write_instruction_dots(result, graphs: dict, dot_dir: str) -> int:
    """One DOT file per selected custom instruction, cut vertices shaded."""
    from .dfg.dot import to_dot

    directory = Path(dot_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written = 0
    for instruction in result.extension.instructions:
        graph = graphs.get(instruction.cut.graph_name)
        if graph is None:
            continue
        text = to_dot(
            graph,
            highlight=instruction.cut.nodes,
            title=f"{graph.name} / {instruction.name}",
        )
        (directory / f"{graph.name}__{instruction.name}.dot").write_text(
            text, encoding="utf-8"
        )
        written += 1
    return written


def _identify(blocks: List[BlockProfile], args: argparse.Namespace):
    """Run the ISE pipeline on *blocks* under the command's flags.

    A block whose enumeration raised ends the command with one line.
    """
    with obs_runtime.tracer().span("cli.setup", cat="cli"):
        store = _store_from(args)
        constraints = _constraints_from(args)
        selection = SelectionConfig(max_instructions=args.max_instructions)
        progress = _progress_from(args)
    try:
        result = identify_instruction_set_extension(
            blocks,
            constraints,
            selection=selection,
            application_name=args.name,
            algorithm=args.algorithm,
            jobs=args.jobs,
            timeout=args.timeout,
            store=store,
            progress=progress,
        )
    except RuntimeError as exc:
        raise SystemExit(str(exc))
    if store is not None:
        store.persist_stats()
    return result


def _cmd_ise(args: argparse.Namespace) -> int:
    blocks: List[BlockProfile] = []
    with obs_runtime.tracer().span(
        "cli.load_targets", cat="cli", targets=len(args.targets)
    ):
        for target in args.targets:
            blocks.extend(_ise_blocks_from_target(target, args))
    result = _identify(blocks, args)
    with obs_runtime.tracer().span("cli.report", cat="cli"):
        print(result.summary())
        if args.dot_dir:
            graphs = {}
            duplicates = set()
            for block in blocks:
                existing = graphs.get(block.graph.name)
                if existing is not None and existing is not block.graph:
                    duplicates.add(block.graph.name)
                graphs[block.graph.name] = block.graph
            if duplicates:
                print(
                    "warning: multiple distinct blocks share the name(s) "
                    f"{', '.join(sorted(duplicates))}; their DOT renderings "
                    "may highlight the wrong graph",
                    file=sys.stderr,
                )
            written = _write_instruction_dots(result, graphs, args.dot_dir)
            print(f"wrote {written} DOT file(s) to {args.dot_dir}", file=sys.stderr)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .workloads.mibench_like import SuiteConfig, build_suite

    config = SuiteConfig(
        num_blocks=args.blocks,
        min_operations=args.min_ops,
        max_operations=args.max_ops,
    )
    suite = WorkloadSuite(name=args.name, graphs=build_suite(config))
    suite.save(args.output)
    print(f"wrote {len(suite)} graphs to {args.output}")
    return 0


def _cmd_frontend(args: argparse.Namespace) -> int:
    """Compile Python source through the frontend; optionally profile + ISE."""
    import json as _json

    from .frontend.corpus import CORPUS, corpus_names, profile_kernel
    from .frontend.loader import SourceResolutionError
    from .frontend.profile import profile_function, static_profile

    explicit_calls = []
    for text in args.call or []:
        try:
            parsed = _json.loads(text)
        except ValueError as exc:
            raise SystemExit(f"--call {text!r} is not valid JSON: {exc}")
        if not isinstance(parsed, list):
            raise SystemExit(
                f"--call {text!r} must be a JSON argument *list*, e.g. '[255, 3]'"
            )
        explicit_calls.append(tuple(parsed))

    profiled = []  # (name, ProfiledFunction)
    if args.source == "corpus":
        if explicit_calls:
            print(
                "note: corpus kernels are profiled with their bundled sample "
                "calls; --call is ignored",
                file=sys.stderr,
            )
        names = args.functions or corpus_names()
        for name in names:
            if name not in CORPUS:
                raise SystemExit(
                    f"unknown corpus kernel {name!r} (available: "
                    f"{', '.join(corpus_names())})"
                )
            profiled.append((name, profile_kernel(name, profile=args.profile)))
    else:
        from .frontend.loader import functions_in_module, load_module

        path, func_in_target = _split_target(args.source)
        if not path.exists():
            raise SystemExit(
                f"source {args.source!r} does not exist (pass a .py file or "
                "'corpus' for the bundled kernels)"
            )
        # Load (and execute) the module exactly once, however many functions
        # are requested.
        try:
            module = load_module(path)
        except SourceResolutionError as exc:
            raise SystemExit(str(exc))
        available = functions_in_module(module, include_private=True)
        public = sorted(n for n in available if not n.startswith("_"))
        wanted = args.functions or (
            [func_in_target] if func_in_target else public
        )
        if not wanted:
            raise SystemExit(f"{path} defines no public plain Python functions")
        for name in wanted:
            fn = available.get(name)
            if fn is None:
                raise SystemExit(
                    f"{path} defines no function {name!r} "
                    f"(available: {', '.join(public) or '(none)'})"
                )
            if args.profile:
                if not explicit_calls:
                    raise SystemExit(
                        "--profile on a source file needs at least one "
                        "--call '[arg, ...]' sample invocation"
                    )
                try:
                    profiled.append(
                        (name, profile_function(fn, explicit_calls, name=name))
                    )
                except Exception as exc:
                    raise SystemExit(
                        f"profiling {name}{fn.__code__.co_varnames[: fn.__code__.co_argcount]} "
                        f"with the given --call arguments failed: {exc}"
                    )
            else:
                profiled.append((name, static_profile(fn, name=name)))

    blocks: List[BlockProfile] = []
    for name, prof in profiled:
        print(prof.dfgs.describe())
        counts = prof.execution_counts()
        if args.profile:
            hot = ", ".join(
                f"{graph_name}={count:.0f}" for graph_name, count in counts.items()
            )
            print(f"  profiled execution counts: {hot}")
        blocks.extend(prof.block_profiles())
    print(
        f"{len(profiled)} function(s) -> {len(blocks)} basic block(s) "
        "with operations"
    )

    if args.save_suite:
        suite = WorkloadSuite(name=args.name, metadata={"source": args.source})
        for block in blocks:
            suite.add(block.graph, execution_count=block.execution_count)
        suite.save(args.save_suite)
        print(f"saved {len(suite)} block graph(s) to {args.save_suite}")

    if args.ise:
        if not blocks:
            raise SystemExit("nothing to run ISE on: no blocks with operations")
        result = _identify(blocks, args)
        print()
        print(result.summary())
        if args.dot_dir:
            graphs = {block.graph.name: block.graph for block in blocks}
            written = _write_instruction_dots(result, graphs, args.dot_dir)
            print(f"wrote {written} DOT file(s) to {args.dot_dir}", file=sys.stderr)
    return 0


def _cmd_kernels(_: argparse.Namespace) -> int:
    for name in kernel_names():
        graph = build_kernel(name)
        print(
            f"{name:20s} {len(graph.operation_nodes()):3d} operations, "
            f"{graph.num_edges:3d} edges"
        )
    return 0


# --------------------------------------------------------------------------- #
# cache sub-command
# --------------------------------------------------------------------------- #
def _cache_store(args: argparse.Namespace) -> ResultStore:
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
    if not cache_dir:
        raise SystemExit(
            f"no cache directory: pass --cache-dir or set ${CACHE_ENV_VAR}"
        )
    return ResultStore(cache_dir)


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    store = _cache_store(args)
    info = store.scan()
    print(f"cache directory : {info['root']}")
    print(f"entries         : {info['entries']}")
    print(f"total size      : {info['total_bytes']} bytes")
    lifetime = store.lifetime_stats()
    if lifetime.lookups or lifetime.writes:
        # Cumulative hit/miss/put counters persisted by past runs
        # (every command flushes its deltas on exit), so operators see the
        # cache's actual effectiveness, not just its disk footprint.
        print(f"lifetime        : {lifetime.summary()}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .obs.export import read_trace_file
    from .obs.metrics import METRICS_SCHEMA
    from .obs.report import format_run_report, load_metrics

    if args.metrics_file == "-":
        try:
            document = json.load(sys.stdin)
        except ValueError as exc:
            raise SystemExit(f"stdin: invalid JSON ({exc})")
        if not isinstance(document, dict) or document.get("schema") != METRICS_SCHEMA:
            raise SystemExit(f"stdin: not a {METRICS_SCHEMA} document")
    else:
        try:
            document = load_metrics(args.metrics_file)
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc))
    trace = None
    if args.trace:
        try:
            trace = read_trace_file(args.trace)
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc))
    print(format_run_report(document, trace=trace))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the lint framework is not needed by the enumeration
    # commands, and keeping it out of the default import path keeps CLI
    # startup lean.
    from .lint import format_text_report, iter_rules, report_to_dict, run_lint

    if args.list_rules:
        for rule, pass_name, description in iter_rules():
            print(f"{rule:24} [{pass_name}] {description}")
        return 0
    select = None
    if args.select:
        select = [
            rule.strip()
            for entry in args.select
            for rule in entry.split(",")
            if rule.strip()
        ]
    try:
        report = run_lint(args.paths, select=select, changed=args.changed)
    except (FileNotFoundError, RuntimeError, ValueError) as exc:
        raise SystemExit(str(exc))
    if args.format == "json":
        rendered = (
            json.dumps(
                report_to_dict(
                    report.diagnostics,
                    report.files_scanned,
                    report.roots,
                    report.changed_ref,
                ),
                indent=2,
            )
            + "\n"
        )
    else:
        rendered = format_text_report(report.diagnostics, report.files_scanned) + "\n"
    if args.output:
        Path(args.output).write_text(rendered, encoding="utf-8")
        # Keep the terminal/CI log readable even when the machine-readable
        # report goes to a file.
        print(format_text_report(report.diagnostics, report.files_scanned))
        print(f"lint report: {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(rendered)
    return 0 if report.ok else 1


# --------------------------------------------------------------------------- #
# bench sub-command (the unified harness in repro.perf)
# --------------------------------------------------------------------------- #
def _bench_echo(message: str) -> None:
    """Human progress for ``bench``: always stderr, so ``--json -`` stdout
    stays machine-parseable."""
    print(message, file=sys.stderr, flush=True)


def _bench_ledger_path(args: argparse.Namespace):
    from .perf import LEDGER_NAME

    if getattr(args, "no_ledger", False):
        return None
    if getattr(args, "ledger", None):
        return Path(args.ledger)
    return Path(args.records_dir) / LEDGER_NAME


def _bench_metric_line(record) -> str:
    """The gated/directional metrics of a record, one compact line."""
    shown = [
        f"{name}={value.value:g}{(' ' + value.unit) if value.unit else ''}"
        for name, value in sorted(record.metrics.items())
        if value.better != "none"
    ]
    return ", ".join(shown)


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from . import perf

    try:
        if args.names:
            names = [perf.get_benchmark(name).name for name in args.names]
        else:
            names = perf.benchmark_names(args.suite)
    except KeyError as exc:
        raise SystemExit(exc.args[0])
    if not names:
        raise SystemExit(
            f"no benchmarks in suite {args.suite!r} "
            f"(suites: {', '.join(perf.suite_names())})"
        )

    records_dir = Path(args.records_dir)
    outcomes = []
    problems: dict = {}
    for name in names:
        _bench_echo(f"bench {name}: running (scale={args.scale}) ...")
        try:
            outcome = perf.run_registered(name, args.scale)
        except Exception as exc:  # a broken benchmark must not kill the suite
            problems[name] = [f"{type(exc).__name__}: {exc}"]
            _bench_echo(f"bench {name}: ERROR {type(exc).__name__}: {exc}")
            continue
        outcomes.append(outcome)
        bench_problems = list(outcome.problems)

        if args.compare_against_committed:
            baseline, compare_problems, deltas = perf.compare_with_committed(
                outcome.record, records_dir
            )
            env_warnings = (
                perf.comparability_warnings(baseline.env, outcome.record.env)
                if baseline is not None
                else []
            )
            if deltas:
                _bench_echo(f"bench {name}: vs committed baseline")
                _bench_echo(perf.format_compare(deltas, env_warnings))
            # compare_problems repeats the absolute-gate findings (prefixed
            # with the benchmark name); keep each finding once.
            bench_problems = [
                p
                for p in bench_problems
                if not any(p in cp for cp in compare_problems)
            ] + compare_problems

        status = "ok" if not bench_problems else "FAIL"
        _bench_echo(
            f"bench {name}: {status} in {outcome.seconds:.1f}s  "
            f"{_bench_metric_line(outcome.record)}"
        )
        for problem in bench_problems:
            _bench_echo(f"  problem: {problem}")
        if bench_problems:
            problems[name] = bench_problems

    fresh_records = [outcome.record for outcome in outcomes]
    ledger = _bench_ledger_path(args)
    if ledger is not None and fresh_records:
        appended, deduplicated = perf.append_records(ledger, fresh_records)
        _bench_echo(
            f"ledger {ledger}: +{appended} record(s)"
            + (f", {deduplicated} duplicate(s) skipped" if deduplicated else "")
        )

    if args.write_records:
        records_dir.mkdir(parents=True, exist_ok=True)
        for record in fresh_records:
            path = records_dir / f"BENCH_{record.benchmark}.json"
            path.write_text(
                json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        _bench_echo(f"wrote {len(fresh_records)} record(s) to {records_dir}")

    ok = not problems
    if args.json:
        document = {
            "schema": "repro-bench-run-1",
            "scale": args.scale,
            "benchmarks": names,
            "ok": ok,
            "problems": problems,
            "records": [record.to_dict() for record in fresh_records],
        }
        payload = json.dumps(document, indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            Path(args.json).write_text(payload, encoding="utf-8")
            _bench_echo(f"run document: {args.json}")
    if not ok:
        _bench_echo(
            f"bench run: {len(problems)} of {len(names)} benchmark(s) failed"
        )
    return 0 if ok else 1


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from . import perf

    records_dir = Path(args.records_dir)
    try:
        if args.against_committed:
            pairs = []
            for path in args.records:
                current = perf.load_record_file(path)
                baseline, problems, deltas = perf.compare_with_committed(
                    current, records_dir
                )
                pairs.append((current, baseline, problems, deltas))
        else:
            if len(args.records) != 2:
                raise SystemExit(
                    "bench compare needs exactly two record files (baseline "
                    "current), or --against-committed with one or more "
                    "current records"
                )
            baseline = perf.load_record_file(args.records[0])
            current = perf.load_record_file(args.records[1])
            if baseline.benchmark != current.benchmark:
                raise SystemExit(
                    f"records describe different benchmarks: "
                    f"{baseline.benchmark!r} vs {current.benchmark!r}"
                )
            pairs = [
                (
                    current,
                    baseline,
                    perf.comparison_problems(baseline, current),
                    perf.compare_records(baseline, current),
                )
            ]
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc))

    failed = False
    for current, baseline, problems, deltas in pairs:
        env_warnings = (
            perf.comparability_warnings(baseline.env, current.env)
            if baseline is not None
            else []
        )
        print(f"{current.benchmark} (scale={current.scale}):")
        if deltas:
            print(perf.format_compare(deltas, env_warnings))
        for problem in problems:
            print(f"  problem: {problem}")
            failed = True
        if not problems:
            print("  ok: within gates and tolerances")
    return 1 if failed else 0


def _cmd_bench_history(args: argparse.Namespace) -> int:
    from . import perf

    ledger = (
        Path(args.ledger)
        if args.ledger
        else Path(args.records_dir) / perf.LEDGER_NAME
    )
    records, parse_problems = perf.load_history(ledger)
    for problem in parse_problems:
        print(f"warning: {problem}", file=sys.stderr)
    if args.latest:
        records = perf.latest_by_benchmark(records, args.benchmark)
        print(perf.history_table(records, None))
        return 0
    print(perf.history_table(records, args.benchmark, limit=args.limit))
    return 0


def _cmd_bench_list(args: argparse.Namespace) -> int:
    from . import perf

    names = perf.benchmark_names(args.suite)
    if not names:
        raise SystemExit(
            f"no benchmarks in suite {args.suite!r} "
            f"(suites: {', '.join(perf.suite_names())})"
        )
    for name in names:
        bench = perf.get_benchmark(name)
        gated = [
            spec.name
            for spec in bench.metrics
            if spec.gate_min is not None
            or spec.gate_max is not None
            or spec.rel_tolerance is not None
        ]
        print(f"{name:24s} [{', '.join(bench.suites)}] {bench.title}")
        print(
            f"{'':24s} metrics: {len(bench.metrics)}, gated: "
            f"{', '.join(gated) or '(none)'}"
        )
    return 0


def _cmd_bench_env(args: argparse.Namespace) -> int:
    from .perf import environment_fingerprint

    print(json.dumps(environment_fingerprint(), indent=2, sort_keys=True))
    return 0


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    store = _cache_store(args)
    removed = store.clear()
    print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} from {store.root}")
    return 0


def _cmd_cache_warm(args: argparse.Namespace) -> int:
    store = _cache_store(args)
    graphs = []
    for target in args.targets:
        path = Path(target)
        if path.is_dir():
            graphs.extend(WorkloadSuite.load(path))
        else:
            graphs.append(_load_target(target))
    if not graphs:
        raise SystemExit("nothing to warm: no targets resolved to graphs")
    runner = BatchRunner(
        algorithm=args.algorithm,
        constraints=_constraints_from(args),
        jobs=args.jobs,
        timeout=args.timeout,
        store=store,
    )
    report = runner.run(graphs, progress=_progress_from(args))
    computed = sum(1 for item in report.items if item.ok and not item.cached)
    already = sum(1 for item in report.items if item.cached)
    failed = len(report.failures())
    print(
        f"warmed {store.root}: {computed} block(s) enumerated and stored, "
        f"{already} already cached, {failed} failed"
    )
    print(store.stats.summary())
    store.persist_stats()
    return 0 if failed == 0 else 1


# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-enum",
        description="Polynomial-time convex subgraph enumeration for instruction set extension",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_enum = subparsers.add_parser("enumerate", help="enumerate cuts of one basic block")
    p_enum.add_argument(
        "target", help="kernel name, DFG JSON file, or Python source (file.py::func)"
    )
    p_enum.add_argument("--show-cuts", action="store_true", help="print every cut")
    _add_profile_argument(p_enum)
    p_enum.add_argument(
        "--from-source",
        action="store_true",
        help="treat the target as Python source and enumerate the function's "
        "largest basic block",
    )
    _add_engine_arguments(p_enum)
    _add_constraint_arguments(p_enum)
    _add_cache_arguments(p_enum)
    _add_obs_arguments(p_enum)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_cmp = subparsers.add_parser("compare", help="compare algorithms on a suite (Figure 5)")
    p_cmp.add_argument("--blocks", type=_positive_int, default=20)
    p_cmp.add_argument("--min-ops", type=_positive_int, default=10)
    p_cmp.add_argument("--max-ops", type=_positive_int, default=40)
    p_cmp.add_argument("--no-kernels", action="store_true")
    p_cmp.add_argument("--no-trees", action="store_true")
    _add_profile_argument(p_cmp)
    _add_engine_arguments(p_cmp, multiple=True)
    _add_constraint_arguments(p_cmp)
    _add_cache_arguments(p_cmp)
    _add_obs_arguments(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_ise = subparsers.add_parser("ise", help="identify an instruction set extension")
    p_ise.add_argument(
        "targets",
        nargs="+",
        help="kernel names, DFG JSON files, or Python sources (file.py::func)",
    )
    p_ise.add_argument("--name", default="application")
    p_ise.add_argument("--execution-count", type=float, default=1000.0)
    p_ise.add_argument("--max-instructions", type=_non_negative_int, default=4)
    p_ise.add_argument(
        "--from-source",
        action="store_true",
        help="treat Python targets as whole functions: every basic block "
        "with operations joins the application",
    )
    p_ise.add_argument(
        "--dot-dir",
        default=None,
        help="write one Graphviz DOT file per selected custom instruction "
        "(cut vertices highlighted) into this directory",
    )
    _add_engine_arguments(p_ise)
    _add_constraint_arguments(p_ise)
    _add_cache_arguments(p_ise)
    _add_obs_arguments(p_ise)
    p_ise.set_defaults(func=_cmd_ise)

    p_gen = subparsers.add_parser("generate", help="generate and save a workload suite")
    p_gen.add_argument("output", help="output directory")
    p_gen.add_argument("--name", default="suite")
    p_gen.add_argument("--blocks", type=_positive_int, default=30)
    p_gen.add_argument("--min-ops", type=_positive_int, default=10)
    p_gen.add_argument("--max-ops", type=_positive_int, default=60)
    p_gen.set_defaults(func=_cmd_generate)

    p_ker = subparsers.add_parser("kernels", help="list built-in kernels")
    p_ker.set_defaults(func=_cmd_kernels)

    p_front = subparsers.add_parser(
        "frontend",
        help="compile Python source (or 'corpus') through the bytecode -> "
        "CFG -> DFG frontend",
    )
    p_front.add_argument(
        "source",
        help="a .py file (optionally file.py::func) or 'corpus' for the "
        "bundled reference kernels",
    )
    p_front.add_argument(
        "--func",
        dest="functions",
        action="append",
        help="function to compile (repeatable; default: every function "
        "defined in the file / every corpus kernel)",
    )
    p_front.add_argument(
        "--profile",
        action="store_true",
        help="run the function(s) and attribute execution counts to blocks "
        "(corpus kernels use their bundled sample calls)",
    )
    p_front.add_argument(
        "--call",
        action="append",
        help="one profiling invocation as a JSON argument list, e.g. "
        "--call '[255, 3]' (repeatable; required with --profile on files)",
    )
    p_front.add_argument(
        "--ise",
        action="store_true",
        help="run the ISE pipeline on the translated blocks",
    )
    p_front.add_argument(
        "--save-suite",
        default=None,
        help="save the translated blocks (with execution counts) as a "
        "workload suite directory",
    )
    p_front.add_argument("--name", default="frontend")
    p_front.add_argument("--max-instructions", type=_non_negative_int, default=4)
    p_front.add_argument(
        "--dot-dir",
        default=None,
        help="with --ise: write one DOT file per selected instruction",
    )
    _add_engine_arguments(p_front)
    _add_constraint_arguments(p_front)
    _add_cache_arguments(p_front)
    _add_obs_arguments(p_front)
    p_front.set_defaults(func=_cmd_frontend)

    p_cache = subparsers.add_parser(
        "cache", help="inspect, clear or warm the enumeration-result cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)

    p_stats = cache_sub.add_parser("stats", help="show cache entry count and size")
    p_stats.add_argument("--cache-dir", default=None)
    p_stats.set_defaults(func=_cmd_cache_stats)

    p_clear = cache_sub.add_parser("clear", help="delete every cache entry")
    p_clear.add_argument("--cache-dir", default=None)
    p_clear.set_defaults(func=_cmd_cache_clear)

    p_warm = cache_sub.add_parser(
        "warm", help="pre-populate the cache by enumerating targets"
    )
    p_warm.add_argument(
        "targets",
        nargs="+",
        help="kernel names, DFG JSON files, or saved workload-suite directories",
    )
    p_warm.add_argument("--cache-dir", default=None)
    _add_engine_arguments(p_warm)
    _add_constraint_arguments(p_warm)
    _add_obs_arguments(p_warm)
    p_warm.set_defaults(func=_cmd_cache_warm)

    p_metrics = subparsers.add_parser(
        "metrics",
        help="pretty-print the run report of a --metrics-json document",
    )
    p_metrics.add_argument(
        "metrics_file",
        help="a --metrics-json output file, or '-' to read it from stdin",
    )
    p_metrics.add_argument(
        "--trace",
        default=None,
        help="matching --trace file (.jsonl or Chrome JSON) for span "
        "accounting of the run's wall time",
    )
    p_metrics.set_defaults(func=_cmd_metrics)

    p_bench = subparsers.add_parser(
        "bench",
        help="run, compare and browse the unified benchmark harness "
        "(repro.perf)",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    def _add_records_dir(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--records-dir",
            default="benchmarks",
            help="directory of the committed BENCH_*.json records and the "
            "history ledger (default: benchmarks)",
        )

    p_brun = bench_sub.add_parser(
        "run", help="run registered benchmarks and append to the ledger"
    )
    p_brun.add_argument(
        "names",
        nargs="*",
        help="benchmark names to run (default: every benchmark in --suite)",
    )
    p_brun.add_argument(
        "--suite",
        default="ci",
        help="suite to run when no names are given (default: ci; "
        "'all' runs everything)",
    )
    p_brun.add_argument(
        "--scale",
        choices=("small", "full"),
        default="small",
        help="workload tier (small is the CI configuration; default small)",
    )
    p_brun.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the run document (records + problems) as JSON; '-' "
        "prints it to stdout with all progress on stderr",
    )
    p_brun.add_argument(
        "--compare-against-committed",
        action="store_true",
        help="gate each fresh record against its committed "
        "BENCH_<name>.json baseline (exit 1 on regression)",
    )
    p_brun.add_argument(
        "--write-records",
        action="store_true",
        help="overwrite the committed BENCH_<name>.json records with this "
        "run's results (re-baselining)",
    )
    p_brun.add_argument(
        "--ledger",
        default=None,
        metavar="FILE",
        help="history ledger path (default: <records-dir>/BENCH_history.jsonl)",
    )
    p_brun.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not append this run to the history ledger",
    )
    _add_records_dir(p_brun)
    _add_obs_arguments(p_brun)
    p_brun.set_defaults(func=_cmd_bench_run)

    p_bcmp = bench_sub.add_parser(
        "compare",
        help="compare record files; exit 1 on gate violations or regressions",
    )
    p_bcmp.add_argument(
        "records",
        nargs="+",
        help="two record files (baseline current), or current records only "
        "with --against-committed",
    )
    p_bcmp.add_argument(
        "--against-committed",
        action="store_true",
        help="compare each record against its committed BENCH_<name>.json",
    )
    _add_records_dir(p_bcmp)
    p_bcmp.set_defaults(func=_cmd_bench_compare)

    p_bhist = bench_sub.add_parser(
        "history", help="render the perf trajectory from the ledger"
    )
    p_bhist.add_argument(
        "benchmark", nargs="?", default=None, help="restrict to one benchmark"
    )
    p_bhist.add_argument(
        "--ledger",
        default=None,
        metavar="FILE",
        help="ledger path (default: <records-dir>/BENCH_history.jsonl)",
    )
    p_bhist.add_argument(
        "--limit", type=_positive_int, default=None, help="show only the last N runs"
    )
    p_bhist.add_argument(
        "--latest",
        action="store_true",
        help="show only the newest record per benchmark",
    )
    _add_records_dir(p_bhist)
    p_bhist.set_defaults(func=_cmd_bench_history)

    p_blist = bench_sub.add_parser("list", help="list registered benchmarks")
    p_blist.add_argument(
        "--suite", default=None, help="restrict to one suite (default: all)"
    )
    p_blist.set_defaults(func=_cmd_bench_list)

    p_benv = bench_sub.add_parser(
        "env", help="print the environment fingerprint records are stamped with"
    )
    p_benv.set_defaults(func=_cmd_bench_env)

    p_lint = subparsers.add_parser(
        "lint",
        help="run the domain-aware static analysis passes (see repro.lint)",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "benchmarks"],
        help="files or directories to lint (default: src tests benchmarks)",
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json is the versioned CI artifact document)",
    )
    p_lint.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (repeatable); default: all",
    )
    p_lint.add_argument(
        "--changed",
        default=None,
        metavar="REF",
        help="report only findings on lines touched since the git ref",
    )
    p_lint.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the report to FILE (text summary still goes to stdout)",
    )
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list every rule id with its pass and description, then exit",
    )
    p_lint.set_defaults(func=_cmd_lint)

    return parser


def _add_profile_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile-enum",
        action="store_true",
        help="run the command under cProfile and print the top-20 "
        "cumulative-time entries to stderr (perf-investigation aid)",
    )


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected sub-command (optionally under cProfile)."""
    if getattr(args, "profile_enum", False):
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return args.func(args)
        finally:
            profiler.disable()
            print("\n--- cProfile: top 20 by cumulative time ---", file=sys.stderr)
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative").print_stats(20)
    return args.func(args)


def _run_observed(args: argparse.Namespace, argv: Optional[List[str]]) -> int:
    """Run the sub-command with the obs recorders active, then write artifacts.

    The artifacts are written in a ``finally`` block so a command that raises
    (including ``SystemExit``) still leaves its telemetry behind for
    post-mortem inspection.
    """
    registry, recorder = obs_runtime.activate()
    start = time.perf_counter()
    try:
        with recorder.span(f"cli.{args.command}", cat="cli"):
            if args.metrics_json == "-":
                # Keep piped stdout machine-readable: the JSON document goes
                # to the real stdout below, everything else to stderr.
                with contextlib.redirect_stdout(sys.stderr):
                    return _dispatch(args)
            return _dispatch(args)
    finally:
        registry.set_gauge("run.wall_seconds", time.perf_counter() - start)
        # Imported after the root span and the wall time: the trace writer
        # is not what the command ran.
        from .obs.export import write_trace_file
        from .perf.env import environment_fingerprint

        meta = {
            "command": args.command,
            "argv": list(argv) if argv is not None else sys.argv[1:],
            # The same fingerprint bench records carry, so a run report and
            # the benchmark ledger are attributable to the same machine.
            "env": environment_fingerprint(),
        }
        if args.trace_out:
            kind = write_trace_file(args.trace_out, recorder.records, meta)
            print(f"trace ({kind}): {args.trace_out}", file=sys.stderr)
        if args.metrics_json:
            payload = json.dumps(registry.to_dict(meta=meta), indent=2) + "\n"
            if args.metrics_json == "-":
                sys.stdout.write(payload)
            else:
                Path(args.metrics_json).write_text(payload, encoding="utf-8")
                print(f"metrics: {args.metrics_json}", file=sys.stderr)
        obs_runtime.deactivate()


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro-enum`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "min_ops") and args.min_ops > args.max_ops:
        parser.error(f"--min-ops ({args.min_ops}) must not exceed --max-ops ({args.max_ops})")
    try:
        if getattr(args, "trace_out", None) or getattr(args, "metrics_json", None):
            status = _run_observed(args, argv)
        else:
            status = _dispatch(args)
        # Flush inside the try: a reader already gone (``repro ... | head``)
        # raises here, not at exit.  Python's documented recipe then points
        # stdout at devnull, so the flush at exit cannot raise again.
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
