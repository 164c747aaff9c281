"""Baseline enumeration algorithms.

* :func:`enumerate_cuts_exhaustive` — the pruned exhaustive search of
  Atasu/Pozzi/Ienne [4][15], the comparison baseline of Figure 5;
* :func:`enumerate_cuts_brute_force` — exponential subset oracle for tests;
* :func:`enumerate_connected_cuts` — connected-only enumeration (Yu & Mitra
  [17] style restriction).
"""

from .brute_force import (
    count_excluded_by_technical_condition,
    enumerate_cuts_brute_force,
)
from .connected_only import enumerate_connected_cuts
from .exhaustive import enumerate_cuts_exhaustive

__all__ = [
    "count_excluded_by_technical_condition",
    "enumerate_cuts_brute_force",
    "enumerate_connected_cuts",
    "enumerate_cuts_exhaustive",
]
