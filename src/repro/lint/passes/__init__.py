"""Domain pass registry of ``repro lint``.

``all_passes()`` is the single construction point: the engine (and its
worker processes) build a fresh pass list from here, so passes must be
cheap to instantiate and hold no cross-file state outside ``check_*``.
"""

from __future__ import annotations

from typing import List

from .base import FilePass, ProjectPass
from .field_drift import FieldDriftPass
from .hot_path import HOT_MODULE_PREFIXES, HOT_MODULES, HotPathPass, is_hot_module
from .obs_discipline import ObsDisciplinePass
from .worker_state import WORKER_STATE_ALLOWLIST, WorkerStatePass

__all__ = [
    "FilePass",
    "ProjectPass",
    "FieldDriftPass",
    "HotPathPass",
    "ObsDisciplinePass",
    "WorkerStatePass",
    "HOT_MODULES",
    "HOT_MODULE_PREFIXES",
    "WORKER_STATE_ALLOWLIST",
    "all_passes",
    "is_hot_module",
]


def all_passes() -> List[FilePass]:
    """Fresh instances of every registered domain pass."""
    return [
        FieldDriftPass(),
        HotPathPass(),
        ObsDisciplinePass(),
        WorkerStatePass(),
    ]
