"""Human-readable run reports from metrics documents and trace files.

``repro metrics run.metrics.json [--trace run.trace.json]`` renders the
quantities the paper's evaluation is about — where the wall time went, how
dominant the dominator kernel is, how often the memoization layers hit
— from the artifacts a ``--trace``/``--metrics-json`` run leaves behind.

The span-accounting section is computed without any parent/child links:
the *root* span is the ``cli``-category span (the whole command); coverage is
the interval-union of every other same-process span clipped to the root, so
nested spans never double-count and the "≥95% of wall time accounted for"
acceptance check is a one-number read-out.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .metrics import METRICS_SCHEMA


# --------------------------------------------------------------------------- #
# Sample statistics (shared with the repro.perf benchmark harness)
# --------------------------------------------------------------------------- #
def median_abs_deviation(samples: Sequence[float]) -> float:
    """Median absolute deviation — the robust spread of a timing sample set."""
    if not samples:
        raise ValueError("median_abs_deviation() of an empty sample set")
    center = statistics.median(samples)
    return statistics.median(abs(value - center) for value in samples)


def load_metrics(path: Union[str, Path]) -> Dict[str, object]:
    """Load and schema-check a ``--metrics-json`` document."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(document, dict) or document.get("schema") != METRICS_SCHEMA:
        raise ValueError(
            f"{path}: not a {METRICS_SCHEMA} document "
            f"(schema={document.get('schema') if isinstance(document, dict) else None!r})"
        )
    return document


def counter_totals(document: Dict[str, object]) -> Dict[str, float]:
    """Counter name → value summed over every label set."""
    totals: Dict[str, float] = {}
    for entry in document.get("counters", []):
        totals[entry["name"]] = totals.get(entry["name"], 0) + entry["value"]
    return totals


def counter_by_label(
    document: Dict[str, object], name: str, label: str
) -> Dict[str, float]:
    """Values of counter *name* grouped by one label's value."""
    grouped: Dict[str, float] = {}
    for entry in document.get("counters", []):
        if entry["name"] != name:
            continue
        key = str(entry.get("labels", {}).get(label, ""))
        grouped[key] = grouped.get(key, 0) + entry["value"]
    return grouped


def gauge_value(document: Dict[str, object], name: str) -> Optional[float]:
    """First value of gauge *name* (any label set), or ``None``."""
    for entry in document.get("gauges", []):
        if entry["name"] == name:
            return float(entry["value"])
    return None


# --------------------------------------------------------------------------- #
# Span accounting
# --------------------------------------------------------------------------- #
def find_root_span(records: List[Dict[str, object]]) -> Optional[Dict[str, object]]:
    """The whole-command span: the longest ``cli``-category span, if any."""
    roots = [r for r in records if r["type"] == "span" and r["cat"] == "cli"]
    if not roots:
        roots = [r for r in records if r["type"] == "span"]
    return max(roots, key=lambda r: r["dur"], default=None)


def _interval_union_us(intervals: List[Tuple[int, int]]) -> int:
    """Total length of the union of ``(start, end)`` microsecond intervals."""
    total = 0
    last_end: Optional[int] = None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


def span_coverage(records: List[Dict[str, object]]) -> Optional[Dict[str, object]]:
    """How much of the root span's wall time named child spans account for.

    Considers only spans in the root's process and thread (worker spans
    overlap the parent's dispatch span in wall time and would double-count),
    clips them to the root interval and takes their union.  Returns ``None``
    when there is no root span.
    """
    root = find_root_span(records)
    if root is None or root["dur"] <= 0:
        return None
    root_start, root_end = root["ts"], root["ts"] + root["dur"]
    intervals: List[Tuple[int, int]] = []
    for record in records:
        if record is root or record["type"] != "span":
            continue
        if record["pid"] != root["pid"] or record["tid"] != root["tid"]:
            continue
        start = max(record["ts"], root_start)
        end = min(record["ts"] + record["dur"], root_end)
        if end > start:
            intervals.append((start, end))
    covered_us = _interval_union_us(intervals)
    return {
        "root": root["name"],
        "root_seconds": root["dur"] / 1e6,
        "covered_seconds": covered_us / 1e6,
        "coverage": covered_us / root["dur"],
    }


def aggregate_spans(
    records: List[Dict[str, object]]
) -> List[Tuple[str, int, float]]:
    """``(name, count, total_seconds)`` per span name, by descending time."""
    by_name: Dict[str, Tuple[int, int]] = {}
    for record in records:
        if record["type"] != "span":
            continue
        count, total = by_name.get(record["name"], (0, 0))
        by_name[record["name"]] = (count + 1, total + record["dur"])
    rows = [(name, count, total / 1e6) for name, (count, total) in by_name.items()]
    rows.sort(key=lambda row: row[2], reverse=True)
    return rows


# --------------------------------------------------------------------------- #
# The report
# --------------------------------------------------------------------------- #
def _rate(hits: float, misses: float) -> str:
    lookups = hits + misses
    if not lookups:
        return "no lookups"
    return f"{hits:.0f}/{lookups:.0f} ({hits / lookups:.1%} hit rate)"


def format_run_report(
    document: Dict[str, object],
    trace: Optional[Tuple[Dict[str, object], List[Dict[str, object]]]] = None,
) -> str:
    """Render the run report (see the module docstring)."""
    lines: List[str] = []
    meta = document.get("meta", {})
    command = meta.get("command", "?")
    wall = gauge_value(document, "run.wall_seconds")
    lines.append(f"run            : {command}")
    if meta.get("argv"):
        lines.append(f"argv           : {' '.join(str(a) for a in meta['argv'])}")
    env = meta.get("env")
    if isinstance(env, dict):
        # The environment fingerprint the CLI stamps into every metrics
        # document (see repro.perf.env) — provenance first, numbers second.
        lines.append(
            "environment    : python {python} ({implementation}), "
            "{cpu_count} cpu, {platform}".format(
                python=env.get("python", "?"),
                implementation=env.get("implementation", "?"),
                cpu_count=env.get("cpu_count", "?"),
                platform=env.get("platform", "?"),
            )
        )
        if env.get("git_sha"):
            lines.append(f"git revision   : {env['git_sha']}")
    if wall is not None:
        lines.append(f"wall time      : {wall:.3f} s")
    totals = counter_totals(document)

    # --- span accounting --------------------------------------------------- #
    if trace is not None:
        _, records = trace
        coverage = span_coverage(records)
        if coverage is not None:
            if wall is None:
                wall = coverage["root_seconds"]
            lines.append("")
            lines.append("span accounting (whole run = root span "
                         f"{coverage['root']!r}, {coverage['root_seconds']:.3f} s):")
            denominator = coverage["root_seconds"] or 1e-9
            for name, count, seconds in aggregate_spans(records)[:12]:
                lines.append(
                    f"  {name:<28s} x{count:<5d} {seconds:9.3f} s"
                    f"  ({seconds / denominator:6.1%} of wall)"
                )
            lines.append(
                f"  named-span coverage of wall time: {coverage['coverage']:.1%}"
                f" ({coverage['covered_seconds']:.3f} s"
                f" of {coverage['root_seconds']:.3f} s)"
            )

    # --- enumeration ------------------------------------------------------- #
    blocks = counter_by_label(document, "enum.blocks_total", "status")
    if blocks or totals.get("enum.cuts_found_total"):
        lines.append("")
        lines.append("enumeration:")
        if blocks:
            breakdown = ", ".join(
                f"{int(v)} {k}" for k, v in sorted(blocks.items())
            )
            lines.append(f"  blocks               : {breakdown}")
        lines.append(
            f"  cuts found           : {int(totals.get('enum.cuts_found_total', 0))}"
        )
        lt_calls = totals.get("enum.lt_calls_total", 0)
        lt_seconds = totals.get("enum.lt_seconds_total", 0.0)
        line = f"  dominator arrays     : {int(lt_calls)} fresh, derived or full"
        if lt_seconds:
            line += f", {lt_seconds:.3f} s"
            if wall:
                line += f" ({lt_seconds / wall:.1%} of wall)"
        lines.append(line)
        work = (
            lt_calls
            + totals.get("enum.candidates_checked_total", 0)
            + totals.get("enum.pick_output_calls_total", 0)
        )
        if work:
            lines.append(
                f"  dominator share      : {lt_calls / work:.1%} of "
                f"{int(work)} work units (arrays + checks + expansions)"
            )
        pruned = counter_by_label(document, "enum.pruned_total", "rule")
        if pruned:
            rules = ", ".join(f"{k}={int(v)}" for k, v in sorted(pruned.items()))
            lines.append(f"  pruned               : {rules}")

    # --- memoization ------------------------------------------------------- #
    store_lookups = totals.get("store.hits_total", 0) + totals.get(
        "store.misses_total", 0
    )
    cache_hits = totals.get("context_cache.hits_total", 0)
    cache_misses = totals.get("context_cache.misses_total", 0)
    if store_lookups or cache_hits or cache_misses:
        lines.append("")
        lines.append("memoization:")
        if store_lookups:
            lines.append(
                "  result store         : "
                + _rate(totals.get("store.hits_total", 0), totals.get("store.misses_total", 0))
                + f", {int(totals.get('store.puts_total', 0))} put(s)"
            )
        if cache_hits or cache_misses:
            lines.append(
                "  context cache        : " + _rate(cache_hits, cache_misses)
            )

    # --- pool -------------------------------------------------------------- #
    if totals.get("pool.blocks_dispatched_total"):
        lines.append("")
        lines.append("worker pool:")
        lines.append(
            f"  blocks dispatched    : {int(totals.get('pool.blocks_dispatched_total', 0))}"
        )
        lines.append(
            f"  crash recoveries     : {int(totals.get('pool.crash_recoveries_total', 0))}"
        )

    # --- ISE --------------------------------------------------------------- #
    speedup = gauge_value(document, "ise.application_speedup")
    if speedup is not None:
        lines.append("")
        lines.append("ise:")
        lines.append(
            f"  instructions selected: "
            f"{int(totals.get('ise.instructions_selected_total', 0))}"
        )
        lines.append(f"  application speedup  : {speedup:.2f}x")

    return "\n".join(lines)
