"""Record comparison: per-metric deltas, noise-aware regression verdicts.

Replaces the five hand-written CI gate re-checks (bench_core,
bench_batch_runner, bench_obs, bench_memo, bench_streaming) with one
mechanism.  For each metric shared by a baseline and a current record:

* the **absolute gates** declared on the registered :class:`MetricSpec`
  (floor/ceiling) are applied to the current value — this is what the old
  per-script asserts did;
* metrics with a ``rel_tolerance`` additionally may not move in their
  *worse* direction by more than that fraction of the baseline — widened by
  the recorded noise (3x the larger relative MAD), so a jittery sample set
  cannot produce a confident-looking regression verdict.

Only ``regressed`` verdicts (and gate violations) make
:func:`comparison_problems` non-empty; everything else is trend data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from .registry import get_benchmark
from .schema import NOISE_SIGMAS, BenchRecord, MetricSpec, check_gates

#: Verdicts a delta can carry.  Only ``regressed`` fails a comparison.
VERDICTS = ("improved", "regressed", "ok", "info", "new", "missing")


@dataclass
class MetricDelta:
    """One metric's movement between a baseline and a current record."""

    metric: str
    unit: str
    better: str
    baseline: Optional[float]
    current: Optional[float]
    #: Fractional change relative to the baseline (sign follows raw values).
    change: Optional[float]
    #: The effective threshold the verdict used (tolerance + noise), if any.
    threshold: Optional[float]
    verdict: str


def _effective_tolerance(
    spec: Optional[MetricSpec],
    baseline: BenchRecord,
    current: BenchRecord,
    name: str,
) -> Optional[float]:
    if spec is None or spec.rel_tolerance is None:
        return None
    tolerance = spec.rel_tolerance
    for record in (baseline, current):
        value = record.metrics.get(name)
        if value is not None and value.mad is not None and value.value != 0:
            tolerance = max(
                tolerance,
                spec.rel_tolerance + NOISE_SIGMAS * abs(value.mad / value.value),
            )
    return tolerance


def compare_records(
    baseline: BenchRecord,
    current: BenchRecord,
    specs: Optional[Tuple[MetricSpec, ...]] = None,
) -> List[MetricDelta]:
    """Per-metric deltas of *current* against *baseline*.

    *specs* defaults to the registered declarations of the current record's
    benchmark (falling back to no relative gating when it is unregistered).
    """
    if specs is None:
        try:
            specs = get_benchmark(current.benchmark).metrics
        except KeyError:
            specs = ()
    by_name = {spec.name: spec for spec in specs}
    deltas: List[MetricDelta] = []
    for name in sorted(set(baseline.metrics) | set(current.metrics)):
        base = baseline.metrics.get(name)
        cur = current.metrics.get(name)
        spec = by_name.get(name)
        unit = cur.unit if cur is not None else (base.unit if base else "")
        better = cur.better if cur is not None else (base.better if base else "none")
        if base is None or cur is None:
            deltas.append(
                MetricDelta(
                    metric=name,
                    unit=unit,
                    better=better,
                    baseline=None if base is None else base.value,
                    current=None if cur is None else cur.value,
                    change=None,
                    threshold=None,
                    verdict="new" if base is None else "missing",
                )
            )
            continue
        change = (
            (cur.value - base.value) / abs(base.value) if base.value != 0 else None
        )
        tolerance = _effective_tolerance(spec, baseline, current, name)
        verdict = "info"
        if better in ("higher", "lower") and change is not None:
            worse = change < 0 if better == "higher" else change > 0
            if tolerance is None:
                verdict = "ok"
            elif worse and abs(change) > tolerance:
                verdict = "regressed"
            elif not worse and abs(change) > tolerance:
                verdict = "improved"
            else:
                verdict = "ok"
        deltas.append(
            MetricDelta(
                metric=name,
                unit=unit,
                better=better,
                baseline=base.value,
                current=cur.value,
                change=change,
                threshold=tolerance,
                verdict=verdict,
            )
        )
    return deltas


def comparison_problems(
    baseline: BenchRecord,
    current: BenchRecord,
    specs: Optional[Tuple[MetricSpec, ...]] = None,
) -> List[str]:
    """Everything that should fail a comparison: gates first, then deltas."""
    if specs is None:
        try:
            specs = get_benchmark(current.benchmark).metrics
        except KeyError:
            specs = ()
    problems = [
        f"{current.benchmark}: {problem}" for problem in check_gates(current, specs)
    ]
    for delta in compare_records(baseline, current, specs):
        if delta.verdict == "regressed":
            assert delta.change is not None and delta.threshold is not None
            problems.append(
                f"{current.benchmark}: {delta.metric} regressed "
                f"{delta.change:+.1%} (baseline {delta.baseline:g}, now "
                f"{delta.current:g}, tolerance {delta.threshold:.1%})"
            )
    return problems


def format_compare(
    deltas: List[MetricDelta], env_warnings: Optional[List[str]] = None
) -> str:
    """Human-readable delta table (stderr-safe: plain text, no JSON)."""
    lines: List[str] = []
    for warning in env_warnings or []:
        lines.append(f"note: {warning}")
    width = max((len(d.metric) for d in deltas), default=10)
    for delta in deltas:
        base = "-" if delta.baseline is None else f"{delta.baseline:g}"
        cur = "-" if delta.current is None else f"{delta.current:g}"
        move = "" if delta.change is None else f" ({delta.change:+.1%})"
        lines.append(
            f"  {delta.metric:<{width}s} {base:>12s} -> {cur:>12s}{move:<10s} "
            f"[{delta.verdict}]"
        )
    return "\n".join(lines)


def load_record_file(path: Union[str, Path]) -> BenchRecord:
    """Load one ``repro-bench-1`` record file (``ValueError`` if malformed)."""
    return BenchRecord.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def compare_with_committed(
    current: BenchRecord, records_dir: Union[str, Path]
) -> Tuple[Optional[BenchRecord], List[str], List[MetricDelta]]:
    """Compare one fresh record against its committed ``BENCH_<name>.json``.

    Returns ``(baseline, problems, deltas)``; a missing or unreadable
    committed baseline is itself a problem (a gate that silently stops
    gating is a regression in the measurement layer).
    """
    path = Path(records_dir) / f"BENCH_{current.benchmark}.json"
    try:
        baseline = load_record_file(path)
    except FileNotFoundError:
        problem = f"no committed baseline {path.name} in {records_dir}"
    except ValueError as exc:
        problem = f"committed baseline {path.name} is unreadable: {exc}"
    else:
        # Environment drift is surfaced by the caller (via
        # comparability_warnings) but does not fail the comparison: the
        # gated metrics are ratios, which are stable across runners by design.
        problems = comparison_problems(baseline, current)
        return baseline, problems, compare_records(baseline, current)
    return None, [f"{current.benchmark}: {problem}"], []
