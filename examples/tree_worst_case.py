#!/usr/bin/env python3
"""Demonstrate the tree-shaped worst case of Figure 4.

Tree-shaped data-flow graphs are the worst case for the exhaustive
search-space algorithms the paper compares against: the number of explored
search-tree nodes grows exponentially with the tree size, while the number of
valid cuts (and the work of the polynomial algorithm) grows polynomially.
This example measures both algorithms on trees of increasing depth and prints
the growth factors, which make the asymptotic difference visible even at
Python-friendly sizes.

Run with ``python examples/tree_worst_case.py [--max-depth D]``.
"""

import argparse

from repro.analysis import format_table
from repro.baselines import enumerate_cuts_exhaustive
from repro.core import Constraints, enumerate_cuts
from repro.workloads import tree_dfg


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-depth", type=int, default=4,
                        help="largest tree depth to measure (4 = 31 vertices)")
    args = parser.parse_args()

    constraints = Constraints(max_inputs=4, max_outputs=2)
    rows = []
    previous = None
    for depth in range(2, args.max_depth + 1):
        graph = tree_dfg(depth)
        poly = enumerate_cuts(graph, constraints)
        exhaustive = enumerate_cuts_exhaustive(graph, constraints)
        assert poly.node_sets() == exhaustive.node_sets()

        row = {
            "depth": depth,
            "nodes": graph.num_nodes,
            "valid_cuts": len(poly),
            "poly_seconds": round(poly.stats.elapsed_seconds, 3),
            "poly_dominator_calls": poly.stats.lt_calls,
            # The fig4_tree_worst_case benchmark's measure of poly's work.
            "poly_work": poly.stats.lt_calls + poly.stats.candidates_checked,
            "exhaustive_seconds": round(exhaustive.stats.elapsed_seconds, 3),
            "exhaustive_search_nodes": exhaustive.stats.pick_output_calls,
        }
        if previous is not None:
            row["search_node_growth"] = round(
                row["exhaustive_search_nodes"] / previous["exhaustive_search_nodes"], 1
            )
            row["poly_work_growth"] = round(row["poly_work"] / previous["poly_work"], 1)
            row["cut_growth"] = round(row["valid_cuts"] / previous["valid_cuts"], 1)
        rows.append(row)
        previous = row

    print("tree-shaped worst case (Figure 4), Nin=4, Nout=2")
    print(format_table(rows, columns=list(rows[-1].keys())))
    print()
    print("Doubling the tree size multiplies the exhaustive algorithm's explored")
    print("search nodes by a larger factor than the polynomial algorithm's work")
    print("(dominator arrays plus candidate checks) — the growth gap of the")
    print("paper's Figure 4.")


if __name__ == "__main__":
    main()
