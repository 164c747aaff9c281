"""Structured run tracing: spans with start/end/attrs, process-merge, sinks.

A *span* is one named, timed region of the run — ``cli.ise`` wrapping a whole
command, ``batch.run`` wrapping a batch, ``worker.chunk`` wrapping one pool
task inside a worker (one block per task), ``worker.block`` and
``enum.block`` wrapping one block's enumeration.  Spans carry:

* ``ts`` — wall-clock start in **microseconds since the Unix epoch** (so
  records from different processes on one machine line up on a shared
  timeline without clock negotiation);
* ``dur`` — duration in microseconds, measured with ``perf_counter`` (so the
  duration is monotonic even if the wall clock steps);
* ``pid``/``tid`` — recorded at *close* time, which makes traces correct in
  forked pool workers;
* ``args`` — free-form primitive attributes (graph name, cut count, ...).

Worker processes record spans into their own tracer and ship them back as
plain tuples (:meth:`Tracer.wire_records`) inside the engine's task results;
the parent folds them in with :meth:`Tracer.merge_wire`.  Sinks — the JSONL
file and the Chrome trace-event export — live in :mod:`repro.obs.export`.

When observability is off, instrumented code talks to :data:`NULL_TRACER`,
whose ``span()`` returns one shared do-nothing context manager.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

#: Schema tag of the JSONL trace file (first line, ``type: "meta"``).
TRACE_SCHEMA = "repro-trace-1"

#: Structural version of the picklable wire form (worker span shipping).
TRACE_WIRE_VERSION = 1

#: JSON-safe primitive types allowed as span attribute values.
_PRIMITIVES = (str, int, float, bool, type(None))


def _clean_args(attrs: Dict[str, object]) -> Dict[str, object]:
    """Coerce attribute values to JSON-safe primitives."""
    return {
        key: (value if isinstance(value, _PRIMITIVES) else repr(value))
        for key, value in attrs.items()
    }


class Span:
    """Context manager recording one span into its tracer on exit."""

    __slots__ = ("_tracer", "name", "cat", "args", "_ts_us", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._ts_us = 0
        self._t0 = 0.0

    def note(self, **attrs: object) -> None:
        """Attach additional attributes (e.g. results known only at the end)."""
        self.args.update(attrs)

    def __enter__(self) -> "Span":
        self._ts_us = time.time_ns() // 1000
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration_us = int((time.perf_counter() - self._t0) * 1_000_000)
        if exc_type is not None:
            self.args.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._tracer.records.append(
            {
                "type": "span",
                "name": self.name,
                "cat": self.cat,
                "ts": self._ts_us,
                "dur": duration_us,
                "pid": os.getpid(),
                "tid": threading.get_ident() & 0xFFFFFFFF,
                "args": _clean_args(self.args),
            }
        )


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, process_label: str = "repro") -> None:
        self.process_label = process_label
        self.records: List[Dict[str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def span(self, name: str, cat: str = "repro", **attrs: object) -> Span:
        """Open a span; use as ``with tracer.span("batch.run", jobs=2):``."""
        return Span(self, name, cat, dict(attrs))

    def instant(self, name: str, cat: str = "repro", **attrs: object) -> None:
        """Record a zero-duration marker event."""
        self.records.append(
            {
                "type": "instant",
                "name": name,
                "cat": cat,
                "ts": time.time_ns() // 1000,
                "dur": 0,
                "pid": os.getpid(),
                "tid": threading.get_ident() & 0xFFFFFFFF,
                "args": _clean_args(dict(attrs)),
            }
        )

    # ------------------------------------------------------------------ #
    # Cross-process merging
    # ------------------------------------------------------------------ #
    def wire_records(self, reset: bool = True) -> tuple:
        """The recorded spans as a compact picklable tuple (a delta)."""
        wire = (
            "trace",
            TRACE_WIRE_VERSION,
            tuple(
                (
                    record["type"],
                    record["name"],
                    record["cat"],
                    record["ts"],
                    record["dur"],
                    record["pid"],
                    record["tid"],
                    tuple(sorted(record["args"].items())),
                )
                for record in self.records
            ),
        )
        if reset:
            self.records = []
        return wire

    def merge_wire(self, wire: tuple) -> None:
        """Fold a worker's :meth:`wire_records` into this tracer."""
        if not isinstance(wire, tuple) or len(wire) != 3 or wire[0] != "trace":
            raise ValueError(f"not a trace wire payload: {wire!r}")
        if wire[1] != TRACE_WIRE_VERSION:
            raise ValueError(
                f"trace wire version mismatch: got {wire[1]!r}, "
                f"expected {TRACE_WIRE_VERSION}"
            )
        for kind, name, cat, ts, dur, pid, tid, args in wire[2]:
            self.records.append(
                {
                    "type": kind,
                    "name": name,
                    "cat": cat,
                    "ts": ts,
                    "dur": dur,
                    "pid": pid,
                    "tid": tid,
                    "args": dict(args),
                }
            )

    def extend(self, records: List[Dict[str, object]]) -> None:
        self.records.extend(records)

    def __len__(self) -> int:
        return len(self.records)


class _NullSpan:
    """Shared do-nothing span."""

    __slots__ = ()

    def note(self, **attrs: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op stand-in used when observability is disabled."""

    __slots__ = ()
    records: List[Dict[str, object]] = []

    def span(self, name: str, cat: str = "repro", **attrs: object) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, cat: str = "repro", **attrs: object) -> None:
        pass

    def wire_records(self, reset: bool = True) -> Optional[tuple]:
        return None

    def merge_wire(self, wire: tuple) -> None:
        pass

    def extend(self, records: List[Dict[str, object]]) -> None:
        pass

    def __len__(self) -> int:
        return 0


#: Shared no-op singleton (see :mod:`repro.obs.runtime`).
NULL_TRACER = NullTracer()
