"""Process-safe metrics registry: counters, gauges and histograms with labels.

The registry is the numeric half of the observability layer (the other half
is :mod:`repro.obs.trace`).  Design constraints, in order:

* **Snapshot/merge semantics instead of shared memory.**  Every process —
  the parent and each pool worker — owns a private registry; a worker
  periodically takes a :meth:`MetricsRegistry.snapshot_wire` (which *resets*
  its registry, so snapshots are deltas) and ships it back inside the
  engine's task result, where the parent folds it in with
  :meth:`MetricsRegistry.merge_wire`.  No locks, no shared state, and a
  crashed worker loses at most one un-shipped delta.
* **Plain-tuple wire form.**  Snapshots are nested tuples of primitives —
  cheap to pickle and structurally versioned (:data:`METRICS_WIRE_VERSION`).
* **Merge rules**: counters add, gauges keep the incoming value
  (last-write-wins), histograms add bucket-wise (the bucket bounds must
  match — a mismatch raises, it is a programming error, not data).

Metric naming convention (documented in the README): ``subsystem.name``,
with counters suffixed ``_total`` (``enum.lt_calls_total``,
``pool.blocks_dispatched_total``), gauges plain (``run.wall_seconds``) and
histograms named after the measured quantity (``enum.block_seconds``).
Label keys are free-form but low-cardinality (``algorithm``, ``status``,
``rule``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Optional, Tuple

#: Schema tag of the JSON document form (``--metrics-json`` files).
METRICS_SCHEMA = "repro-metrics-1"

#: Structural version of the picklable wire form (worker snapshots).
METRICS_WIRE_VERSION = 1

#: Label items in canonical (sorted) order — the registry key component.
LabelItems = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds, in seconds: covers everything from
#: a sub-millisecond cache hit to a multi-minute straggler block.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
)


def label_key(labels: Dict[str, object]) -> LabelItems:
    """Canonical, hashable form of a label set (values coerced to str)."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Histogram:
    """Fixed-bucket histogram: counts per bucket plus sum and count.

    ``bounds`` are inclusive upper bounds; one extra overflow bucket catches
    everything above the last bound, so ``len(counts) == len(bounds) + 1``.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_TIME_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted and non-empty: {bounds!r}")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bucket bounds: "
                f"{self.bounds!r} vs {other.bounds!r}"
            )
        for index, amount in enumerate(other.counts):
            self.counts[index] += amount
        self.total += other.total
        self.count += other.count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Registry of labelled counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelItems], float] = {}
        self._gauges: Dict[Tuple[str, LabelItems], float] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}
        self._histogram_bounds: Dict[str, Tuple[float, ...]] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def inc(self, name: str, amount: float = 1, **labels: object) -> None:
        """Add *amount* to the counter *name* with the given label set."""
        key = (name, label_key(labels))
        self._counters[key] = self._counters.get(key, 0) + amount

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set the gauge *name* (last write wins, per label set)."""
        self._gauges[(name, label_key(labels))] = float(value)

    def declare_histogram(self, name: str, bounds: Iterable[float]) -> None:
        """Fix non-default bucket bounds for histogram *name* (before use)."""
        self._histogram_bounds[name] = tuple(float(b) for b in bounds)

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record *value* into the histogram *name*."""
        key = (name, label_key(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = Histogram(
                self._histogram_bounds.get(name, DEFAULT_TIME_BUCKETS)
            )
            self._histograms[key] = histogram
        histogram.observe(value)

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def counter(self, name: str, **labels: object) -> float:
        """Value of one counter series (0 when never incremented)."""
        return self._counters.get((name, label_key(labels)), 0)

    def counter_total(self, name: str) -> float:
        """Sum of the counter *name* over every label set."""
        return sum(v for (n, _), v in self._counters.items() if n == name)

    def gauge(self, name: str, **labels: object) -> Optional[float]:
        return self._gauges.get((name, label_key(labels)))

    def histogram(self, name: str, **labels: object) -> Optional[Histogram]:
        return self._histograms.get((name, label_key(labels)))

    def counter_series(self, name: str) -> Dict[LabelItems, float]:
        """Every label set of counter *name* with its value."""
        return {k[1]: v for k, v in self._counters.items() if k[0] == name}

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # ------------------------------------------------------------------ #
    # Wire form (worker → parent snapshots)
    # ------------------------------------------------------------------ #
    def snapshot_wire(self, reset: bool = False) -> tuple:
        """Compact picklable snapshot; with ``reset=True`` it is a delta.

        The result contains only primitives and tuples, so it travels
        cheaply inside the engine's task results.
        """
        wire = (
            "metrics",
            METRICS_WIRE_VERSION,
            tuple((n, l, v) for (n, l), v in self._counters.items()),
            tuple((n, l, v) for (n, l), v in self._gauges.items()),
            tuple(
                (n, l, h.bounds, tuple(h.counts), h.total, h.count)
                for (n, l), h in self._histograms.items()
            ),
        )
        if reset:
            self.clear()
        return wire

    def merge_wire(self, wire: tuple) -> None:
        """Fold one :meth:`snapshot_wire` result into this registry."""
        if not isinstance(wire, tuple) or len(wire) != 5 or wire[0] != "metrics":
            raise ValueError(f"not a metrics wire snapshot: {wire!r}")
        if wire[1] != METRICS_WIRE_VERSION:
            raise ValueError(
                f"metrics wire version mismatch: got {wire[1]!r}, "
                f"expected {METRICS_WIRE_VERSION}"
            )
        _, _, counters, gauges, histograms = wire
        for name, labels, value in counters:
            key = (name, tuple(tuple(item) for item in labels))
            self._counters[key] = self._counters.get(key, 0) + value
        for name, labels, value in gauges:
            self._gauges[(name, tuple(tuple(item) for item in labels))] = value
        for name, labels, bounds, counts, total, count in histograms:
            key = (name, tuple(tuple(item) for item in labels))
            incoming = Histogram(bounds)
            incoming.counts = list(counts)
            incoming.total = total
            incoming.count = count
            existing = self._histograms.get(key)
            if existing is None:
                self._histograms[key] = incoming
            else:
                existing.merge(incoming)

    # ------------------------------------------------------------------ #
    # Document form (--metrics-json files)
    # ------------------------------------------------------------------ #
    def to_dict(self, meta: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """JSON-serializable document of the whole registry."""
        return {
            "schema": METRICS_SCHEMA,
            "meta": dict(meta or {}),
            "counters": [
                {"name": n, "labels": dict(l), "value": v}
                for (n, l), v in sorted(self._counters.items())
            ],
            "gauges": [
                {"name": n, "labels": dict(l), "value": v}
                for (n, l), v in sorted(self._gauges.items())
            ],
            "histograms": [
                {
                    "name": n,
                    "labels": dict(l),
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for (n, l), h in sorted(self._histograms.items())
            ],
        }

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output (schema-checked)."""
        if document.get("schema") != METRICS_SCHEMA:
            raise ValueError(
                f"not a {METRICS_SCHEMA} document: schema={document.get('schema')!r}"
            )
        registry = cls()
        for entry in document.get("counters", []):
            key = (str(entry["name"]), label_key(entry.get("labels", {})))
            registry._counters[key] = registry._counters.get(key, 0) + entry["value"]
        for entry in document.get("gauges", []):
            key = (str(entry["name"]), label_key(entry.get("labels", {})))
            registry._gauges[key] = float(entry["value"])
        for entry in document.get("histograms", []):
            key = (str(entry["name"]), label_key(entry.get("labels", {})))
            histogram = Histogram(tuple(entry["bounds"]))
            histogram.counts = [int(c) for c in entry["counts"]]
            histogram.total = float(entry["sum"])
            histogram.count = int(entry["count"])
            existing = registry._histograms.get(key)
            if existing is None:
                registry._histograms[key] = histogram
            else:
                existing.merge(histogram)
        return registry


class NullMetrics:
    """No-op stand-in used when observability is disabled (zero overhead)."""

    __slots__ = ()

    def inc(self, name: str, amount: float = 1, **labels: object) -> None:
        pass

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        pass

    def declare_histogram(self, name: str, bounds: Iterable[float]) -> None:
        pass

    def observe(self, name: str, value: float, **labels: object) -> None:
        pass

    def counter(self, name: str, **labels: object) -> float:
        return 0

    def counter_total(self, name: str) -> float:
        return 0

    def gauge(self, name: str, **labels: object) -> Optional[float]:
        return None

    def histogram(self, name: str, **labels: object) -> Optional[Histogram]:
        return None


#: Shared no-op singleton (see :mod:`repro.obs.runtime`).
NULL_METRICS = NullMetrics()
