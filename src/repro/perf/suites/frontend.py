"""Frontend benchmark: corpus shape, DFG build throughput, end-to-end ISE,
and the cold start every ``repro`` command pays first.

Port of the former standalone ``benchmarks/bench_frontend.py`` measurement
body.  The corpus-shape counters double as rot detection: a shrinking corpus
or a translation regression shows up in the record diff even when no timing
gate fires.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Set, Tuple

from ...core.constraints import Constraints
from ...frontend.corpus import CORPUS, build_corpus_suite, corpus_block_profiles, corpus_names
from ...frontend.dfg_from_bytecode import function_to_dfgs
from ...ise.pipeline import identify_instruction_set_extension
from ..registry import Benchmark, MeasureOutput, register
from ..schema import MetricSpec

CONSTRAINTS = Constraints(max_inputs=4, max_outputs=2)

#: Fresh interpreters whose ``import repro.cli`` the cold-start metrics time.
IMPORT_RUNS = 5

#: Run in each fresh interpreter: the import's own time, then the number of
#: ``repro`` modules it loaded.
_IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import repro.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(elapsed, sum(1 for m in sys.modules if m == 'repro' or m.startswith('repro.')))"
)


def _cli_import() -> Tuple[float, int]:
    """Median ``import repro.cli`` time over :data:`IMPORT_RUNS` fresh
    interpreters, each timing itself (interpreter start-up is not counted),
    and the number of ``repro`` modules the import loads.

    The children import this ``repro`` and inherit the environment, so
    whether they read cached bytecode is the environment's choice
    (``PYTHONDONTWRITEBYTECODE``).
    """
    src = str(Path(__file__).resolve().parents[3])  # the directory holding repro/
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    times: List[float] = []
    counts: Set[int] = set()
    for _ in range(IMPORT_RUNS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env,
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        seconds, modules = done.stdout.split()
        times.append(float(seconds))
        counts.add(int(modules))
    assert len(counts) == 1, f"import repro.cli loaded {sorted(counts)} modules"
    return statistics.median(times), counts.pop()


def _frontend_setup(scale: str) -> object:
    return {"names": corpus_names(), "build_rounds": 5 if scale == "small" else 25}


def _frontend_measure(state: object) -> MeasureOutput:
    assert isinstance(state, dict)
    names, build_rounds = state["names"], state["build_rounds"]

    # --- corpus shape ------------------------------------------------------ #
    start = time.perf_counter()
    suite = build_corpus_suite(profile=True)
    profiled_build_seconds = time.perf_counter() - start
    total_ops = sum(len(g.operation_nodes()) for g in suite)
    assert len(suite) >= 10

    # --- DFG build throughput (translate-only, repeated) ------------------- #
    start = time.perf_counter()
    translations = 0
    ops_emitted = 0
    for _ in range(build_rounds):
        for name in names:
            dfgs = function_to_dfgs(CORPUS[name].fn)
            translations += len(dfgs.blocks)
            ops_emitted += sum(e.num_operations for e in dfgs.blocks)
    translate_seconds = time.perf_counter() - start

    # --- end-to-end ISE over the profiled corpus --------------------------- #
    blocks = corpus_block_profiles(profile=True)
    start = time.perf_counter()
    result = identify_instruction_set_extension(
        blocks, CONSTRAINTS, application_name="frontend-corpus"
    )
    ise_seconds = time.perf_counter() - start
    selected = sum(len(block.selected) for block in result.blocks)
    assert selected >= 1, "the corpus must yield at least one custom instruction"

    # --- cold start ------------------------------------------------------ #
    import_seconds, import_modules = _cli_import()

    values: Dict[str, object] = {
        "ise_application_speedup": round(result.application_speedup, 3),
        "ise_selected_instructions": float(selected),
        "dfg_blocks_per_second": round(translations / max(translate_seconds, 1e-9), 1),
        "dfg_ops_per_second": round(ops_emitted / max(translate_seconds, 1e-9), 1),
        "profiled_build_seconds": round(profiled_build_seconds, 4),
        "ise_seconds": round(ise_seconds, 4),
        "cli_import_seconds": round(import_seconds, 4),
        "cli_import_modules": float(import_modules),
    }
    extra = {
        "corpus_kernels": len(names),
        "corpus_blocks": len(suite),
        "corpus_operations": total_ops,
        "translate_rounds": build_rounds,
        "ise_blocks": len(blocks),
        "cli_import_runs": IMPORT_RUNS,
    }
    return values, extra


register(
    Benchmark(
        name="frontend",
        title="Frontend corpus throughput and end-to-end ISE",
        suites=("ci", "frontend"),
        metrics=(
            MetricSpec(
                "ise_application_speedup",
                "x",
                better="higher",
                gate_min=1.0,
                description="full corpus -> enumerate -> score -> select "
                "pipeline speedup; the corpus must keep yielding profitable "
                "custom instructions",
            ),
            MetricSpec(
                "ise_selected_instructions", "count", better="higher", gate_min=1.0
            ),
            MetricSpec("dfg_blocks_per_second", "blocks/s", better="higher"),
            MetricSpec("dfg_ops_per_second", "ops/s", better="higher"),
            MetricSpec("profiled_build_seconds", "s", better="lower"),
            MetricSpec("ise_seconds", "s", better="lower"),
            MetricSpec(
                "cli_import_seconds",
                "s",
                better="lower",
                description="median `import repro.cli` time over 5 fresh "
                "interpreters, timed inside each: the import layer every "
                "`repro` invocation pays first",
            ),
            MetricSpec(
                "cli_import_modules",
                "count",
                better="lower",
                description="`repro` modules `import repro.cli` loads (the "
                "package and the CLI included); machine-independent",
            ),
        ),
        setup=_frontend_setup,
        measure=_frontend_measure,
        description="Bytecode->DFG translation throughput on the bundled "
        "reference corpus, the end-to-end ISE pipeline wall time and the "
        "fresh-interpreter `import repro.cli` time.",
    )
)
