"""Process-global observability state: the active registry and tracer.

Instrumented code everywhere in the tree (engine, memo store, ISE pipeline,
frontend) asks this module for the current recorder:

    from ..obs import runtime as obs
    obs.metrics().inc("pool.blocks_dispatched_total")
    with obs.tracer().span("batch.run", jobs=2):
        ...

When nothing activated observability — the default — :func:`metrics` and
:func:`tracer` return shared no-op singletons, so the instrumentation costs
one attribute lookup and an empty call: *zero overhead when disabled* in any
sense that matters next to a graph enumeration.

Activation is explicit (:func:`activate` / :func:`deactivate`), done by the
CLI when ``--trace`` or ``--metrics-json`` is passed, by tests, and — inside
pool workers — by :func:`ensure_worker`, driven by the small config tuple the
engine ships inside each task payload.  Worker-side recorders are drained
per task (:func:`drain_worker`): snapshots are *deltas*, riding back to the
parent inside the task's result record, where the engine merges them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from .metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from .trace import NULL_TRACER, NullTracer, Tracer

#: Version tag of the worker activation config shipped in task payloads.
_WORKER_CONFIG_VERSION = 1

_metrics: Optional[MetricsRegistry] = None
_tracer: Optional[Tracer] = None


def enabled() -> bool:
    """``True`` when an observability session is active in this process."""
    return _metrics is not None or _tracer is not None


def metrics() -> Union[MetricsRegistry, NullMetrics]:
    """The active metrics registry, or the shared no-op one."""
    return _metrics if _metrics is not None else NULL_METRICS


def tracer() -> Union[Tracer, NullTracer]:
    """The active tracer, or the shared no-op one."""
    return _tracer if _tracer is not None else NULL_TRACER


def activate(
    metrics_registry: Optional[MetricsRegistry] = None,
    trace_recorder: Optional[Tracer] = None,
) -> Tuple[MetricsRegistry, Tracer]:
    """Install (and return) the process-wide registry and tracer."""
    global _metrics, _tracer
    _metrics = metrics_registry if metrics_registry is not None else MetricsRegistry()
    _tracer = trace_recorder if trace_recorder is not None else Tracer()
    return _metrics, _tracer


def deactivate() -> None:
    """Remove the active recorders (instrumentation reverts to no-ops)."""
    global _metrics, _tracer
    _metrics = None
    _tracer = None


# --------------------------------------------------------------------------- #
# Worker-side lifecycle (driven by the engine's task payloads)
# --------------------------------------------------------------------------- #
# repro-lint: worker-entry
def reset_worker() -> None:
    """Pool-worker initializer: start every worker with no recorders.

    A worker forked from an observing parent inherits copies of the parent's
    live registry and tracer, holding everything recorded before the fork;
    draining those would ship the parent's own counts back to it.
    :func:`ensure_worker` activates fresh recorders on the first observed
    task instead.
    """
    deactivate()


def worker_config() -> Optional[Tuple[str, int]]:
    """The activation config to ship to pool workers (None when disabled)."""
    if not enabled():
        return None
    return ("obs", _WORKER_CONFIG_VERSION)


def ensure_worker(config: Optional[Tuple[str, int]]) -> None:
    """Apply the parent's activation *config* inside a pool worker.

    Activates a fresh worker-local registry/tracer the first time an
    observability-enabled task arrives, and deactivates (dropping any
    stale, never-drained records) when the parent stopped observing —
    workers are long-lived and must follow the parent's current session.
    """
    if config is None:
        if enabled():
            deactivate()
        return
    if not isinstance(config, tuple) or len(config) != 2 or config[0] != "obs":
        raise ValueError(f"not an observability worker config: {config!r}")
    if config[1] != _WORKER_CONFIG_VERSION:
        raise ValueError(
            f"observability config version mismatch: got {config[1]!r}, "
            f"expected {_WORKER_CONFIG_VERSION}"
        )
    if not enabled():
        activate()


def drain_worker() -> Dict[str, tuple]:
    """Snapshot-and-reset this process's recorders for shipping to the parent.

    Returns ``{"metrics": <wire>, "spans": <wire>}`` (either key omitted when
    its recorder holds nothing), or ``{}`` when observability is off.
    """
    payload: Dict[str, tuple] = {}
    if _metrics is not None and len(_metrics):
        payload["metrics"] = _metrics.snapshot_wire(reset=True)
    if _tracer is not None and len(_tracer):
        payload["spans"] = _tracer.wire_records(reset=True)
    return payload


def absorb_worker_payload(payload: Dict[str, object]) -> None:
    """Parent side: fold a worker's drained snapshot into the live recorders."""
    metrics_wire = payload.get("metrics")
    if metrics_wire is not None and _metrics is not None:
        _metrics.merge_wire(metrics_wire)
    spans_wire = payload.get("spans")
    if spans_wire is not None and _tracer is not None:
        _tracer.merge_wire(spans_wire)
