"""The benchmark registry: one ``Benchmark`` protocol for every experiment.

A benchmark is three phases plus declarations:

* ``setup(scale)`` — build workloads, temp dirs, warm pools; returns the
  state object the other phases receive;
* ``measure(state)`` — the timed body; returns ``(values, extra)`` where
  *values* maps declared metric names to numbers (plain floats,
  ``(value, mad)`` pairs from a timing loop, or ready :class:`MetricValue`
  objects) and *extra* is free-form detail for the record;
* ``teardown(state)`` — optional cleanup, always run.

:func:`run_registered` drives the phases, wraps each in a ``repro.obs`` span
(so ``repro bench run --trace`` attributes wall time per phase for free),
stamps the environment fingerprint, checks the declared absolute gates and
returns the finished ``repro-bench-1`` record.

Benchmarks self-register at import of :mod:`repro.perf.suites`; everything
else (CLI, compare) looks them up here by name.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..obs import runtime as obs
from .env import environment_fingerprint
from .schema import BenchRecord, MetricSpec, MetricValue, check_gates

#: Suite every registered benchmark belongs to implicitly.
SUITE_ALL = "all"

#: The CI suite: what `repro bench run --suite ci` executes.
SUITE_CI = "ci"

MeasureOutput = Tuple[Dict[str, object], Dict[str, object]]


@dataclass(frozen=True)
class Benchmark:
    """One registered benchmark (see the module docstring for the phases)."""

    name: str
    title: str
    suites: Tuple[str, ...]
    metrics: Tuple[MetricSpec, ...]
    setup: Callable[[str], object]
    measure: Callable[[object], MeasureOutput]
    teardown: Optional[Callable[[object], None]] = None
    description: str = ""

    def spec(self, metric_name: str) -> Optional[MetricSpec]:
        for spec in self.metrics:
            if spec.name == metric_name:
                return spec
        return None


@dataclass
class RunOutcome:
    """Result of one :func:`run_registered` invocation."""

    record: BenchRecord
    problems: List[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        """Human-readable run summary (the benchmark scripts print this)."""
        status = "ok" if self.ok else "FAIL"
        lines = [
            f"{self.record.benchmark} (scale={self.record.scale}): "
            f"{status} in {self.seconds:.1f}s"
        ]
        for name, value in sorted(self.record.metrics.items()):
            unit = f" {value.unit}" if value.unit else ""
            mad = f" (±{value.mad:g})" if value.mad is not None else ""
            lines.append(f"  {name:36s} {value.value:g}{unit}{mad}")
        lines.extend(f"  problem: {problem}" for problem in self.problems)
        return "\n".join(lines)


_REGISTRY: Dict[str, Benchmark] = {}
_BUILTIN_LOADED = False


def register(benchmark: Benchmark, replace: bool = False) -> Benchmark:
    """Add *benchmark* to the registry (rejects duplicate names)."""
    if not replace and benchmark.name in _REGISTRY:
        raise ValueError(f"benchmark {benchmark.name!r} is already registered")
    _REGISTRY[benchmark.name] = benchmark
    return benchmark


def unregister(name: str) -> None:
    """Remove a registration (test helper)."""
    _REGISTRY.pop(name, None)


def _load_builtin() -> None:
    global _BUILTIN_LOADED
    if not _BUILTIN_LOADED:
        _BUILTIN_LOADED = True
        # Import for the registration side effect; the suites pull in the
        # engine/frontend stacks, so this stays off the plain-CLI import path.
        from . import suites  # noqa: F401


def get_benchmark(name: str) -> Benchmark:
    _load_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(f"no benchmark {name!r} registered (known: {known})")


def benchmark_names(suite: Optional[str] = None) -> List[str]:
    """Registered names, optionally restricted to one suite."""
    _load_builtin()
    if suite is None or suite == SUITE_ALL:
        return sorted(_REGISTRY)
    return sorted(
        name for name, bench in _REGISTRY.items() if suite in bench.suites
    )


def suite_names() -> List[str]:
    _load_builtin()
    names = {SUITE_ALL}
    for bench in _REGISTRY.values():
        names.update(bench.suites)
    return sorted(names)


def _coerce_metric(
    bench: Benchmark, name: str, raw: object
) -> MetricValue:
    """Lift a measured value onto :class:`MetricValue` using its declaration."""
    spec = bench.spec(name)
    unit = spec.unit if spec is not None else ""
    better = spec.better if spec is not None else "none"
    if isinstance(raw, MetricValue):
        return raw
    if isinstance(raw, tuple):
        value, mad = raw
        return MetricValue(float(value), unit, better, mad=float(mad))
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return MetricValue(float(raw), unit, better)
    raise TypeError(
        f"benchmark {bench.name!r} produced a non-numeric value for metric "
        f"{name!r}: {raw!r}"
    )


def run_registered(name: str, scale: str = "small") -> RunOutcome:
    """Run one registered benchmark end to end and gate-check the record."""
    bench = get_benchmark(name)
    start = time.perf_counter()
    with obs.tracer().span("bench.run", cat="bench", benchmark=name, scale=scale):
        with obs.tracer().span("bench.setup", cat="bench", benchmark=name):
            state = bench.setup(scale)
        try:
            with obs.tracer().span("bench.measure", cat="bench", benchmark=name):
                values, extra = bench.measure(state)
        finally:
            if bench.teardown is not None:
                with obs.tracer().span("bench.teardown", cat="bench", benchmark=name):
                    bench.teardown(state)
    seconds = time.perf_counter() - start

    declared = {spec.name for spec in bench.metrics}
    undeclared = sorted(set(values) - declared)
    metrics = {
        metric_name: _coerce_metric(bench, metric_name, raw)
        for metric_name, raw in values.items()
    }
    record = BenchRecord(
        benchmark=bench.name,
        scale=scale,
        env=environment_fingerprint(scale),
        metrics=metrics,
        extra=dict(extra),
        created_unix=time.time(),
    )
    problems = check_gates(record, bench.metrics)
    if undeclared:
        problems.append(
            f"benchmark {bench.name!r} emitted undeclared metric(s): "
            + ", ".join(undeclared)
        )
    obs.metrics().inc(
        "bench.runs_total", benchmark=name, ok=str(not problems).lower()
    )
    return RunOutcome(record=record, problems=problems, seconds=seconds)
