"""Analysis and reporting: comparison harness, cut statistics, text reports."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        ".comparison": (
            "AlgorithmEntry",
            "BlockMeasurement",
            "ComparisonReport",
            "agreement_check",
            "algorithms_from_registry",
            "compare_on_suite",
            "default_algorithms",
        ),
        ".metrics": (
            "CutPopulationStats",
            "count_cuts_by_constraint",
            "population_stats",
            "result_summary",
        ),
        ".reporting": ("cluster_summary", "figure5_report", "format_table", "scatter_plot"),
    },
)
