"""Baseline enumeration algorithms.

* :func:`enumerate_cuts_exhaustive` — the pruned exhaustive search of
  Atasu/Pozzi/Ienne [4][15], the comparison baseline of Figure 5;
* :func:`enumerate_cuts_brute_force` — exponential subset oracle for tests;
* :func:`enumerate_connected_cuts` — connected-only enumeration (Yu & Mitra
  [17] style restriction).
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        ".brute_force": (
            "count_excluded_by_technical_condition",
            "enumerate_cuts_brute_force",
        ),
        ".connected_only": ("enumerate_connected_cuts",),
        ".exhaustive": ("enumerate_cuts_exhaustive",),
    },
)
