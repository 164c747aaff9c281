"""Set-up, timed passes and the result line of one benchmark run.

Imported by ``run.py`` once the library is on ``sys.path``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from host import on_host
from inputs import WORKLOADS, Prepared, build_blocks, build_oracle, check_pass, prepare
from passes import PassRun, run_traced, run_untraced

from repro.obs.export import write_trace_file

#: Where trace exports and set-up stores go, relative to the repository root.
OUT_DIR = ".isebench_out"

#: Set-ups (and fresh-interpreter imports) per run; setup_s is their median.
SETUP_REPEATS = 5

#: Fewest untraced passes a run makes, however long they take; with
#: --trace 1, the fewest of each kind.
MIN_PASSES = 3
MIN_PASSES_TRACED = 2

#: Seconds a child process (import or peak-memory probe) may take.
CHILD_TIMEOUT = 150


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Cold `repro ise` passes over one workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    # Defaults to BENCHMARK.json's run_seconds, which the bounds were set on.
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one untraced pass in this fresh process and print its
    # peak resident set size.
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--store", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    here = str(Path(__file__).resolve().parent)
    paths = ["src", here, env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    return env


def _import_seconds() -> float:
    """A fresh interpreter's import of the `repro` CLI, timed and calibrated
    inside that interpreter (interpreter start-up is not counted)."""
    done = subprocess.run(
        [sys.executable, "-c", "import host; print(host.import_seconds())"],
        env=_child_env(),
        check=True,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _peak_rss_mb(args: argparse.Namespace, store_dir: Optional[Path]) -> float:
    """Peak RSS of one untraced pass in a fresh child process.

    ``ru_maxrss`` is a lifetime high-water mark, so only a process that ran
    nothing else can attribute it to this workload.
    """
    command = [
        sys.executable, str(Path(__file__).resolve().with_name("run.py")), "--rss-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    if store_dir is not None:
        command += ["--store", str(store_dir)]
    done = subprocess.run(
        command, env=_child_env(), check=True, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT,
    )
    return float(json.loads(done.stdout.strip().splitlines()[-1])["peak_rss_mb"])


def _rss_probe(workload, seed: int, store: Optional[str]) -> int:
    prepared = Prepared(workload, build_blocks(workload, seed), Path(store) if store else None)
    run_untraced(prepared)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps({"peak_rss_mb": peak_kb / 1024.0}))
    return 0


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _lower_quartile(values: List[float]) -> float:
    """First quartile of the pass times of a run.

    Contention bursts on a shared host slow the passes inside them, and the
    calibration next to a pass catches a burst only in part; bursts never
    speed a pass up, so the lower quartile follows the code, not the bursts.
    The inclusive method keeps it inside the observed range however few
    passes a run fits in.
    """
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=4, method="inclusive")[0]


class Measurement:
    """The passes of one run and their oracle verdicts."""

    def __init__(self, prepared: Prepared) -> None:
        self.prepared = prepared
        #: Pass times at reference speed, and the untraced wall times.
        self.untraced: List[float] = []
        self.untraced_wall: List[float] = []
        self.slowest: List[float] = []
        self.speedups: List[float] = []
        self.traced: List[float] = []
        self.slowdowns: List[float] = []
        self.layers: List[Dict[str, float]] = []
        self.records: List[Dict[str, object]] = []
        self.missing_cuts = 0
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, str] = {}

    def record(self, run: PassRun, traced: bool, slowdown: float) -> None:
        oracle = self.prepared.oracle
        self.attempted += len(oracle)
        failures = check_pass(self.prepared, run.items, run.result)
        if traced and self.speedups and run.result.application_speedup != self.speedups[-1]:
            failures.setdefault("<trace>", "traced pass selected other instructions")
        self.failed += len(failures)
        for block, reason in failures.items():
            self.reasons.setdefault(block, reason)
        self.slowdowns.append(slowdown)
        if traced:
            self.traced.append(run.seconds / slowdown)
            self.layers.append(
                {name: value / slowdown if _is_time(name) else value for name, value in run.layers.items()}
            )
            self.records = run.records
            by_index = sorted(run.items, key=lambda item: item.index)
            self.missing_cuts = sum(
                len(expect.exhaustive - {cut.node_mask() for cut in item.result.cuts})
                for item, expect in zip(by_index, oracle)
                if item.result is not None
            )
        else:
            self.untraced.append(run.seconds / slowdown)
            self.untraced_wall.append(run.seconds)
            self.slowest.append(max(item.elapsed_seconds for item in run.items) / slowdown)
            self.speedups.append(run.result.application_speedup)

    def fail_pass(self) -> None:
        traceback.print_exc()
        self.attempted += len(self.prepared.oracle)
        self.failed += len(self.prepared.oracle)
        self.reasons.setdefault("<pass>", "the pass raised; traceback above")


def _measure(prepared: Prepared, seconds: float, trace: bool) -> Measurement:
    measurement = Measurement(prepared)
    deadline = time.perf_counter() + seconds
    turn = 0
    while True:
        if trace:
            enough = min(len(measurement.untraced), len(measurement.traced)) >= MIN_PASSES_TRACED
        else:
            enough = len(measurement.untraced) >= MIN_PASSES
        if enough and time.perf_counter() >= deadline:
            break
        traced = trace and turn % 2 == 1
        turn += 1
        gc.collect()  # each pass starts on a clean heap, as a fresh process would
        try:
            run, _, slowdown = on_host(lambda: (run_traced if traced else run_untraced)(prepared))
        except Exception:
            measurement.fail_pass()
            break
        measurement.record(run, traced, slowdown)
    return measurement


def _is_time(metric: str) -> bool:
    return metric.endswith("_s") or metric.endswith(".s")


def _per_layer(m: Measurement, exhaustive_s: float) -> Dict[str, float]:
    layers = {name: _median([run[name] for run in m.layers]) for name in m.layers[0]}
    oracle = m.prepared.oracle
    enumeration_s = layers["search.s"] + layers["dominators.lt_s"]
    layers.update(
        {
            "exhaustive.s": exhaustive_s,
            "exhaustive.cuts": sum(len(o.exhaustive) for o in oracle),
            "exhaustive.missing_cuts": m.missing_cuts,
            "exhaustive.poly_ratio": enumeration_s / exhaustive_s if exhaustive_s else 0.0,
            "trace.overhead_frac": _lower_quartile(m.traced) / _lower_quartile(m.untraced) - 1.0,
            "oracle.failed_frac": m.failed / m.attempted,
            "host.slowdown": _median(m.slowdowns),
        }
    )
    return layers


def _export_trace(m: Measurement, out_dir: Path, args: argparse.Namespace) -> Path:
    path = out_dir / f"{args.workload}-seed{args.seed}.trace.json"
    write_trace_file(
        path, m.records, meta={"workload": args.workload, "seed": args.seed, "benchmark": "isebench"}
    )
    return path


def main(argv: List[str]) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"isebench: unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.rss_probe:
        return _rss_probe(workload, args.seed, args.store)

    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else float(declared["run_seconds"])
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)

    # Set-up times, like pass times, are at reference host speed.
    import_s, setup_s = [], []
    setups: List[Prepared] = []
    try:
        for _ in range(SETUP_REPEATS):
            import_s.append(_import_seconds())
            prepared, wall, slowdown = on_host(lambda: prepare(workload, args.seed, out_dir))
            setups.append(prepared)
            setup_s.append(wall / slowdown)
        # The oracle is the benchmark's own work, not the user's: not in setup_s.
        _, _, slowdown = on_host(lambda: build_oracle(prepared))
        exhaustive_s = prepared.exhaustive_s / slowdown
        peak_rss_mb = _peak_rss_mb(args, prepared.store_dir)
        m = _measure(prepared, seconds, bool(args.trace))
    finally:
        for setup in setups:
            setup.discard()

    if args.trace:
        values = _per_layer(m, exhaustive_s) if m.layers and m.untraced else {}
        wanted = declared["per_layer"]
        trace_path = _export_trace(m, out_dir, args) if m.records else None
    else:
        values = {
            "pass_s": _lower_quartile(m.untraced),
            "slowest_block_s": _lower_quartile(m.slowest),
            "peak_rss_mb": peak_rss_mb,
            "application_speedup": _median(m.speedups),
            "setup_s": _median(import_s) + _median(setup_s),
        }
        wanted = declared["end_to_end"]
        trace_path = None

    for block, reason in sorted(m.reasons.items()):
        print(f"isebench: FAILED {block}: {reason}", file=sys.stderr)
    print(
        f"isebench: {args.workload} seed={args.seed}: {len(m.untraced)} untraced, "
        f"{len(m.traced)} traced passes; {m.failed}/{m.attempted} blocks failed; "
        f"host slowdown {_median(m.slowdowns):.2f}, untraced wall time "
        f"{_lower_quartile(m.untraced_wall):.4f} s (lower quartile)"
        + (f"; trace written to {trace_path}" if trace_path else ""),
        file=sys.stderr,
    )
    # A run whose passes all failed has nothing to report: zeros, correct=false.
    metrics = {
        spec["name"]: {"value": float(values[spec["name"]] if values else 0.0), "unit": spec["unit"]}
        for spec in wanted
    }
    print(
        json.dumps(
            {
                "correct": m.failed == 0 and bool(m.untraced),
                "attempted": m.attempted,
                "failed": m.failed,
                "metrics": metrics,
            }
        )
    )
    return 0

