"""The regression ledger: ``BENCH_history.jsonl``, one record per line.

The committed ``BENCH_*.json`` files only ever show the *latest* number;
the trajectory across PRs — the thing a perf claim actually rests on — was
lost on every overwrite.  The ledger is append-only: every ``repro bench
run`` adds its records here, and ``repro bench history`` renders the
trajectory.  Its first rows were lifted from the pre-schema committed files
and name that file in ``extra["legacy_source"]``.

Appends are deduplicated on a content key (benchmark + metric values +
environment digest): re-running an identical measurement on an identical
machine records nothing new, so CI re-runs are idempotent.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, List, Optional, Tuple, Union

from .env import fingerprint_digest
from .schema import BenchRecord

#: Default ledger location, relative to the records directory.
LEDGER_NAME = "BENCH_history.jsonl"


def record_key(record: BenchRecord) -> str:
    """Content key used for ledger dedup (ignores the run timestamp)."""
    payload = {
        "benchmark": record.benchmark,
        "scale": record.scale,
        "env": fingerprint_digest(record.env),
        "metrics": {
            name: value.value for name, value in sorted(record.metrics.items())
        },
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_history(
    path: Union[str, Path], strict: bool = False
) -> Tuple[List[BenchRecord], List[str]]:
    """Parse the ledger; returns ``(records, problems)``.

    Malformed lines are reported, not fatal (``strict=True`` raises instead):
    an append-only file shared across PRs must survive one bad writer.
    """
    records: List[BenchRecord] = []
    problems: List[str] = []
    ledger = Path(path)
    if not ledger.exists():
        return records, problems
    for lineno, line in enumerate(
        ledger.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            records.append(BenchRecord.from_dict(json.loads(line)))
        except ValueError as exc:
            message = f"{ledger}:{lineno}: {exc}"
            if strict:
                raise ValueError(message)
            problems.append(message)
    return records, problems


def append_records(
    path: Union[str, Path], records: Iterable[BenchRecord]
) -> Tuple[int, int]:
    """Append *records*, skipping content-identical entries.

    Returns ``(appended, deduplicated)``.
    """
    ledger = Path(path)
    existing, _ = load_history(ledger)
    seen = {record_key(record) for record in existing}
    appended = deduplicated = 0
    lines: List[str] = []
    for record in records:
        key = record_key(record)
        if key in seen:
            deduplicated += 1
            continue
        seen.add(key)
        lines.append(json.dumps(record.to_dict(), sort_keys=True))
        appended += 1
    if lines:
        ledger.parent.mkdir(parents=True, exist_ok=True)
        with ledger.open("a", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
    return appended, deduplicated


def latest_by_benchmark(
    records: List[BenchRecord], benchmark: Optional[str] = None
) -> List[BenchRecord]:
    """The newest record per benchmark (ledger order breaks timestamp ties)."""
    newest: dict = {}
    for record in records:
        if benchmark is not None and record.benchmark != benchmark:
            continue
        current = newest.get(record.benchmark)
        # Later ledger lines win at equal timestamps (lifted rows carry 0).
        if current is None or record.created_unix >= current.created_unix:
            newest[record.benchmark] = record
    return [newest[name] for name in sorted(newest)]


def history_table(
    records: List[BenchRecord],
    benchmark: Optional[str] = None,
    limit: Optional[int] = None,
) -> str:
    """Render the trajectory: one line per run, key metrics inline."""
    rows = [r for r in records if benchmark is None or r.benchmark == benchmark]
    if limit is not None:
        rows = rows[-limit:]
    if not rows:
        return "(no history)"
    lines = []
    for record in rows:
        gated = {
            name: value
            for name, value in record.metrics.items()
            if value.better != "none"
        } or record.metrics
        shown = ", ".join(
            f"{name}={value.value:g}{('' if not value.unit else ' ' + value.unit)}"
            for name, value in sorted(gated.items())[:4]
        )
        origin = record.extra.get("legacy_source") or record.env.get("git_sha") or "?"
        lines.append(
            f"{record.benchmark:<24s} scale={record.scale:<5s} "
            f"[{origin}] {shown}"
        )
    return "\n".join(lines)
