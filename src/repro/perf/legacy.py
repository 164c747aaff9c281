"""Legacy-record shim: lift pre-schema ``BENCH_*.json`` files onto ``repro-bench-1``.

Three committed records predate the unified schema (BENCH_core_baseline,
BENCH_frontend, BENCH_memo; BENCH_core, BENCH_batch_runner, BENCH_streaming
and BENCH_obs were re-baselined onto the native schema), each with its own
ad-hoc layout.  This shim reads them so

* ``repro bench compare --against-committed`` can gate fresh runs against
  them without waiting for a re-baselining commit, and
* the history ledger starts populated with the perf trajectory the previous
  eight PRs actually recorded, instead of empty.

The lift is declaration-driven: a legacy top-level numeric field whose name
matches a registered :class:`~repro.perf.schema.MetricSpec` of the same
benchmark becomes that metric; the only special case is BENCH_core's nested
per-family speedup medians.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

from .registry import get_benchmark
from .schema import BENCH_SCHEMA, BenchRecord, MetricValue

#: Legacy file stem -> registered benchmark name (stems that differ).
LEGACY_ALIASES = {"core_baseline": "core"}

#: Per-family medians nested under BENCH_core's ``families`` object.
_CORE_FAMILIES = ("trees", "mibench", "corpus")


def _legacy_env(data: Dict[str, object]) -> Dict[str, object]:
    env: Dict[str, object] = {}
    for key in ("python", "platform", "cpu_count", "scale"):
        if key in data:
            env[key] = data[key]
    return env


def legacy_to_record(name: str, data: Dict[str, object]) -> BenchRecord:
    """Lift one pre-schema record dict onto the unified schema."""
    benchmark = LEGACY_ALIASES.get(name, name)
    bench = get_benchmark(benchmark)
    metrics: Dict[str, MetricValue] = {}
    for spec in bench.metrics:
        raw = data.get(spec.name)
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            metrics[spec.name] = MetricValue(float(raw), spec.unit, spec.better)
    if benchmark == "core":
        families = data.get("families")
        if isinstance(families, dict):
            for family in _CORE_FAMILIES:
                median = families.get(family, {}).get("median_speedup_vs_legacy")
                if isinstance(median, (int, float)):
                    spec = bench.spec(f"median_speedup_{family}")
                    if spec is not None:
                        metrics[spec.name] = MetricValue(
                            float(median), spec.unit, spec.better
                        )
    if not metrics:
        raise ValueError(
            f"legacy record for {name!r} contains no fields matching the "
            f"registered metrics of benchmark {benchmark!r}"
        )
    return BenchRecord(
        benchmark=benchmark,
        scale=str(data.get("scale", "small")),
        env=_legacy_env(data),
        metrics=metrics,
        extra={"legacy_source": f"BENCH_{name}.json"},
        legacy=True,
    )


def load_committed_record(
    name: str, records_dir: Union[str, Path]
) -> Optional[BenchRecord]:
    """Load ``BENCH_<name>.json`` — native schema or legacy, transparently."""
    path = Path(records_dir) / f"BENCH_{name}.json"
    if not path.exists():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(data, dict) and data.get("schema") == BENCH_SCHEMA:
        return BenchRecord.from_dict(data)
    return legacy_to_record(name, data)


def load_record_file(path: Union[str, Path]) -> BenchRecord:
    """Load a record from an explicit path (native schema or legacy).

    Legacy files are identified by their ``BENCH_<name>.json`` stem or a
    top-level ``benchmark`` field.
    """
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(data, dict) and data.get("schema") == BENCH_SCHEMA:
        return BenchRecord.from_dict(data)
    stem = path.stem
    name = stem[len("BENCH_"):] if stem.startswith("BENCH_") else stem
    raw_name = data.get("benchmark") if isinstance(data, dict) else None
    if name not in _known_legacy_names() and isinstance(raw_name, str):
        name = raw_name
    return legacy_to_record(name, data)


def _known_legacy_names() -> set:
    from .registry import benchmark_names

    return set(benchmark_names()) | set(LEGACY_ALIASES)


def ingest_legacy_directory(records_dir: Union[str, Path]) -> Dict[str, BenchRecord]:
    """Every ingestible legacy ``BENCH_*.json`` under *records_dir*.

    Returns ``{file stem: record}``; native-schema files and files with no
    matching registration are skipped (they need no shim).
    """
    ingested: Dict[str, BenchRecord] = {}
    for path in sorted(Path(records_dir).glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        data = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(data, dict) or data.get("schema") == BENCH_SCHEMA:
            continue
        try:
            ingested[name] = legacy_to_record(name, data)
        except (KeyError, ValueError):
            continue
    return ingested
