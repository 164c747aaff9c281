"""Host-speed calibration, free of any library import.

The 2-CPU runner's speed drifts by up to 2.4x, over seconds to minutes, with
no steal time recorded.  Every timed step is bracketed by a fixed calibration
workload, and its wall time is divided by the slowdown measured next to it:
that gives the time at reference host speed, which the benchmark reports.

This module imports nothing from the library, so a fresh interpreter can
calibrate itself before it imports ``repro``: ``import_seconds`` runs there.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, Tuple, TypeVar

#: Rounds of the calibration workload, and its time on the 2-CPU runner when
#: the host is quiet (lowest of 400 samples: 7.05 ms).
CALIBRATION_ROUNDS = 3
CALIBRATION_REFERENCE_S = 0.007

#: How strongly the library's passes follow the calibration workload: a
#: host on which the calibration runs r times slower slows a pass about
#: r ** HOST_SENSITIVITY times.  Fitted on per-pass records of all four
#: workloads (log-log slopes 0.3-0.8, biased low by calibration noise); 0.75
#: gave the steadiest simulated 16-second runs on each, full correction (1.0)
#: over-corrected synthetic_large.
HOST_SENSITIVITY = 0.75

T = TypeVar("T")


def calibration_seconds() -> float:
    """Time of a fixed pure-Python workload that never touches the library.

    Its mix follows the search's own: big-integer masks, dict and set probes
    and a sort.  It tracks the host's drift better than an arithmetic loop,
    which misses the slowdowns that hit memory rather than the core.
    """
    start = time.perf_counter()
    for _ in range(CALIBRATION_ROUNDS):
        masks = [(i * 2654435761) & ((1 << 120) - 1) for i in range(4000)]
        counts: Dict[int, int] = {}
        union = 0
        for mask in masks:
            union |= mask & -mask
            counts[mask % 4099] = counts.get(mask % 4099, 0) + (mask >> 64)
        kept = {key for key, _ in sorted(counts.items(), key=lambda kv: kv[1])[::3]}
        union ^= sum(1 for key in range(4099) if key in kept)
    return time.perf_counter() - start


def on_host(work: Callable[[], T]) -> Tuple[T, float, float]:
    """Run *work*; return its result, its wall time and the host slowdown.

    The slowdown is the calibration workload's mean time just before and just
    after *work*, over its quiet-host reference, raised to HOST_SENSITIVITY.
    It is measured in the process that does the work, since the two vCPUs
    drift apart.
    """
    before = calibration_seconds()
    start = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - start
    after = calibration_seconds()
    ratio = (before + after) / (2 * CALIBRATION_REFERENCE_S)
    return result, elapsed, ratio ** HOST_SENSITIVITY


def import_seconds() -> float:
    """Time this interpreter takes to import the `repro` CLI, at reference
    host speed.  Meant for a fresh interpreter that has imported nothing
    else of the library."""
    _, elapsed, slowdown = on_host(lambda: importlib.import_module("repro.cli"))
    return elapsed / slowdown
