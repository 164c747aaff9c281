"""The ``repro-bench-1`` record schema: metrics with units and directions.

Every benchmark run — whatever it measures — produces one
:class:`BenchRecord`: a named set of :class:`MetricValue` entries (value,
unit, better-direction, optional noise estimate) plus the environment
fingerprint of the machine that produced it.  The twelve historically
incompatible ``BENCH_*.json`` layouts collapse onto this one shape: every
committed ``BENCH_*.json`` is a record of this schema, and the ledger rows
once lifted from pre-schema files name their source in
``extra["legacy_source"]``.

Gate thresholds live on :class:`MetricSpec`, the *declaration* a benchmark
registers for each metric it emits:

* ``gate_min`` / ``gate_max`` — absolute bounds checked on every run
  (``dispatch_overhead <= 0.15``, ``median speedup >= 3x``, ...);
* ``rel_tolerance`` — the allowed fractional move in the *worse* direction
  when comparing two records (``None`` = the metric is informational for
  comparisons; absolute seconds on shared runners are the usual case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Version tag carried by every record this package writes.
BENCH_SCHEMA = "repro-bench-1"

#: Accepted better-direction values.  ``none`` marks a purely informational
#: metric (e.g. a growth ratio recorded for the trend) that is never gated.
BETTER_DIRECTIONS = ("higher", "lower", "none")


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric a benchmark emits."""

    name: str
    unit: str
    better: str = "lower"
    #: Absolute gates, enforced on every run of the owning benchmark.
    gate_min: Optional[float] = None
    gate_max: Optional[float] = None
    #: Allowed fractional regression vs a baseline record; ``None`` means the
    #: metric is never a comparison gate (recorded for the trend only).
    rel_tolerance: Optional[float] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.better not in BETTER_DIRECTIONS:
            raise ValueError(
                f"metric {self.name!r}: better must be one of "
                f"{BETTER_DIRECTIONS}, got {self.better!r}"
            )
        if self.better == "none" and (
            self.gate_min is not None
            or self.gate_max is not None
            or self.rel_tolerance is not None
        ):
            raise ValueError(
                f"metric {self.name!r}: an informational (better='none') "
                "metric cannot carry gates"
            )


@dataclass
class MetricValue:
    """One measured metric inside a record."""

    value: float
    unit: str = ""
    better: str = "lower"
    #: Median absolute deviation of the underlying samples, when the value
    #: came from a repeated timing loop; comparisons widen their tolerance
    #: by it (see :mod:`repro.perf.compare`).
    mad: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "value": self.value,
            "unit": self.unit,
            "better": self.better,
        }
        if self.mad is not None:
            data["mad"] = self.mad
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MetricValue":
        return cls(
            value=float(data["value"]),  # type: ignore[arg-type]
            unit=str(data.get("unit", "")),
            better=str(data.get("better", "lower")),
            mad=None if data.get("mad") is None else float(data["mad"]),  # type: ignore[arg-type]
        )


@dataclass
class BenchRecord:
    """One benchmark run in the ``repro-bench-1`` schema."""

    benchmark: str
    scale: str
    env: Dict[str, object]
    metrics: Dict[str, MetricValue]
    extra: Dict[str, object] = field(default_factory=dict)
    #: Unix timestamp of the run (0.0 for the ledger rows lifted from
    #: pre-schema files, which never carried one).
    created_unix: float = 0.0
    schema: str = BENCH_SCHEMA

    def metric(self, name: str) -> Optional[MetricValue]:
        return self.metrics.get(name)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "benchmark": self.benchmark,
            "scale": self.scale,
            "created_unix": self.created_unix,
            "env": dict(self.env),
            "metrics": {
                name: value.to_dict() for name, value in sorted(self.metrics.items())
            },
            "extra": self.extra,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BenchRecord":
        problems = validate_record(data)
        if problems:
            raise ValueError(
                f"not a valid {BENCH_SCHEMA} record: " + "; ".join(problems[:3])
            )
        metrics_raw = data["metrics"]
        assert isinstance(metrics_raw, dict)
        return cls(
            benchmark=str(data["benchmark"]),
            scale=str(data["scale"]),
            env=dict(data.get("env", {})),  # type: ignore[call-overload]
            metrics={
                str(name): MetricValue.from_dict(entry)
                for name, entry in metrics_raw.items()
            },
            extra=dict(data.get("extra", {})),  # type: ignore[call-overload]
            created_unix=float(data.get("created_unix", 0.0)),  # type: ignore[arg-type]
            schema=str(data["schema"]),
        )


def validate_record(data: object) -> List[str]:
    """Schema problems of one record dict (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(data, dict):
        return [f"record must be an object, got {type(data).__name__}"]
    if data.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema is {data.get('schema')!r}, expected {BENCH_SCHEMA!r}")
    for key in ("benchmark", "scale"):
        if not isinstance(data.get(key), str) or not data.get(key):
            problems.append(f"{key!r} must be a non-empty string")
    env = data.get("env")
    if not isinstance(env, dict):
        problems.append("'env' must be an object (the environment fingerprint)")
    metrics = data.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        problems.append("'metrics' must be a non-empty object")
    else:
        for name, entry in metrics.items():
            if not isinstance(entry, dict):
                problems.append(f"metric {name!r} must be an object")
                continue
            value = entry.get("value")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                problems.append(f"metric {name!r}: 'value' must be a number")
            if entry.get("better") not in BETTER_DIRECTIONS:
                problems.append(
                    f"metric {name!r}: 'better' must be one of {BETTER_DIRECTIONS}"
                )
    return problems


#: Noise widening: gates and relative tolerances grow by this many MADs.
NOISE_SIGMAS = 3.0


def check_gates(
    record: BenchRecord, specs: Tuple[MetricSpec, ...]
) -> List[str]:
    """Absolute-gate violations of *record* against its declared specs.

    A metric that carries a noise estimate fails only when it is past the
    gate by more than ``NOISE_SIGMAS`` MADs — the same widening the relative
    comparison applies, so a jittery shared runner cannot trip a ceiling
    (e.g. a 3% overhead gate measured with ±2% round-to-round spread) that
    the underlying code never actually crossed.
    """
    problems: List[str] = []
    by_name = {spec.name: spec for spec in specs}
    for name, spec in by_name.items():
        measured = record.metrics.get(name)
        if measured is None:
            if spec.gate_min is not None or spec.gate_max is not None:
                problems.append(f"gated metric {name!r} is missing from the record")
            continue
        margin = NOISE_SIGMAS * abs(measured.mad) if measured.mad else 0.0
        if spec.gate_min is not None and measured.value + margin < spec.gate_min:
            problems.append(
                f"{name} = {measured.value:g} {spec.unit} is below the "
                f"{spec.gate_min:g} floor"
                + (f" (noise margin {margin:g})" if margin else "")
            )
        if spec.gate_max is not None and measured.value - margin > spec.gate_max:
            problems.append(
                f"{name} = {measured.value:g} {spec.unit} exceeds the "
                f"{spec.gate_max:g} ceiling"
                + (f" (noise margin {margin:g})" if margin else "")
            )
    return problems
