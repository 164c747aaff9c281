"""Hot-path optimisation guard-rails.

The kernel optimisation PR (contribution tables, per-region dominator cache,
closure-based validity fast path) must be invisible in the results.  The
randomized property test drives well over 200 graphs from the tree,
synthetic and frontend-corpus generators through **every** pruning variant
and asserts the optimized enumerator's cut sets are bit-identical (vertex
sets, inputs and outputs) to the frozen pre-optimization snapshot
(:mod:`tests.reference.baselines.legacy_incremental`) — and identical to
``enumerate_cuts_basic`` on every graph where the pre-optimization
enumerator already coincided with it (the two polynomial variants
legitimately differ on a few borderline cuts of some graphs; the
optimisation may not change that relationship in either direction).

The unit tests pin down the new machinery directly: the DAG dominator
kernel against Lengauer–Tarjan, the derivation of each input set's region and
dominator array from the one-vertex-smaller parent its search frame holds
against full recomputation, the contribution rows against their reachability
definition, the input budget's packed paths against brute-force dominating
sets, the output budget under the output before the last against
brute-force valid cuts, the frame-level output-count masks and the stuck
masks against the per-seed tests and their definition, the integer state
keys against runs recorded at other I/O budgets, the
``REPRO_DEBUG_VALIDITY`` cross-check, that a run keeps every attribute in a
slot, and that a run leaves its context untouched, so a second run on it
counts exactly what the first did.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import time
from collections import Counter

import pytest

from repro.baselines.brute_force import enumerate_cuts_brute_force
from repro.core import Constraints
from repro.core.context import EnumerationContext
from repro.core.enumeration import enumerate_cuts_basic
from repro.core.incremental import IncrementalEnumerator, _output_count_doomed, enumerate_cuts
from repro.core.pruning import FULL_PRUNING, NO_PRUNING
from repro.dfg.builder import diamond
from repro.dfg.graph import DataFlowGraph
from repro.dfg.reachability import ReachabilityIndex, ids_from_mask, mask_from_ids, popcount
from repro.dominators import reachable_mask_avoiding
from repro.dominators.iterative import derive_immediate_dominators, immediate_dominators_dag
from repro.frontend.corpus import build_corpus_suite
from repro.perf.suites.engine import (
    CONSTRAINTS as CORE_CONSTRAINTS,
    MAX_BASIC_NODES,
    _core_families,
    cut_digest,
    recorded_cut_digest,
)
from repro.workloads import (
    SuiteConfig,
    SyntheticBlockSpec,
    build_suite,
    generate_basic_block,
    generate_suite,
    inverted_tree_dfg,
    tree_dfg,
)
from tests.conftest import integer_stats, make_random_dag, skip_unless_recorded_corpus
from tests.reference.baselines.legacy_incremental import enumerate_cuts_legacy
from tests.reference.lengauer_tarjan import immediate_dominators

PRUNING_VARIANTS = [FULL_PRUNING, NO_PRUNING] + [
    FULL_PRUNING.disable(name) for name in FULL_PRUNING.enabled_names()
]


def _cut_keys(result):
    return sorted(
        (cut.sorted_nodes(), tuple(sorted(cut.inputs)), tuple(sorted(cut.outputs)))
        for cut in result.cuts
    )


def _count_calls(monkeypatch, name, function):
    """Wrap ``repro.core.incremental.<name>`` (which is *function*) and
    return the list that gets one entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)

    monkeypatch.setattr(f"repro.core.incremental.{name}", counted)
    return calls


def _renumbered(graph, rng):
    """An isomorphic copy of *graph* whose vertex ids are in random order.

    The ids of the generators' graphs already follow a topological order;
    shuffling them keeps an id-for-position mix-up from passing unnoticed.
    """
    order = list(graph.node_ids())
    rng.shuffle(order)
    clone = DataFlowGraph(name=graph.name)
    new_id = {}
    for vertex in order:
        node = graph.node(vertex)
        new_id[vertex] = clone.add_node(
            node.opcode,
            name=node.name,
            forbidden=node.forbidden,
            live_out=node.live_out,
            **node.attributes,
        )
    for vertex in graph.node_ids():
        for succ in graph.successors(vertex):
            clone.add_edge(new_id[vertex], new_id[succ])
    return clone


def _property_graphs():
    """>= 200 graphs across the tree / synthetic / corpus generators."""
    graphs = []
    for depth in (1, 2, 3):
        graphs.append(tree_dfg(depth))
        graphs.append(inverted_tree_dfg(depth))
    graphs.extend(build_corpus_suite(profile=False))
    for seed in range(130):
        graphs.append(make_random_dag(seed, num_operations=5 + seed % 6))
    for seed in range(60):
        graphs.append(
            generate_basic_block(
                SyntheticBlockSpec(num_operations=8 + seed % 8, seed=seed)
            )
        )
    assert len(graphs) >= 200
    return graphs


class TestOptimizedEnumeratorBitIdentity:
    """The randomized equivalence property of the optimisation PR."""

    @pytest.mark.parametrize(
        "constraints,min_graphs,rare_bound_share",
        [
            # The paper's experimental constraints carry the full >= 200-graph
            # property; the other sets spot-check different I/O budgets on a
            # subset so the whole sweep stays in the tens of seconds.  Five
            # inputs seldom bind on the subset's small graphs, so at Nin = 5
            # the input budget and the next-output budget fire on fewer of
            # them (21 and 10 of 96 when recorded).
            (Constraints(max_inputs=4, max_outputs=2), 200, (4, 5)),
            (Constraints(max_inputs=3, max_outputs=1), 60, (4, 5)),
            (Constraints(max_inputs=5, max_outputs=2), 60, (5, 10)),
        ],
        ids=["nin4-nout2", "nin3-nout1", "nin5-nout2"],
    )
    def test_bit_identical_across_generators_and_prunings(
        self, constraints, min_graphs, rare_bound_share
    ):
        checked = 0
        basic_agreements = 0
        budget_bound_fired = input_budget_fired = input_hole_fired = 0
        next_output_fired = 0
        graphs = _property_graphs()
        if min_graphs < len(graphs):
            graphs = graphs[: min_graphs + 40]  # headroom for the size filter
        for index, graph in enumerate(graphs):
            if graph.num_nodes > 18:
                # Keep the basic reference affordable; the big corpus blocks
                # are checked live against the snapshot by the core digest
                # test below.
                continue
            basic_keys = _cut_keys(enumerate_cuts_basic(graph, constraints))
            legacy_matches_basic = False
            # Every graph runs the two semantic extremes; every other graph
            # additionally sweeps each single-rule ablation, so all variants
            # see >= 100 graphs without doubling the suite's runtime.
            variants = (
                PRUNING_VARIANTS if index % 2 == 0 else PRUNING_VARIANTS[:2]
            )
            for pruning in variants:
                legacy_keys = _cut_keys(
                    enumerate_cuts_legacy(graph, constraints, pruning=pruning)
                )
                new = enumerate_cuts(graph, constraints, pruning=pruning)
                new_keys = _cut_keys(new)
                assert new_keys == legacy_keys, (
                    f"optimized enumerator diverged from the pre-PR snapshot "
                    f"on {graph.name!r} with pruning={pruning}"
                )
                if pruning is FULL_PRUNING:
                    budget_bound_fired += new.stats.pruned.get("output_budget", 0) > 0
                    input_budget_fired += new.stats.pruned.get("input_budget", 0) > 0
                    input_hole_fired += new.stats.pruned.get("input_hole", 0) > 0
                    next_output_fired += new.stats.pruned.get("next_output_budget", 0) > 0
                    legacy_matches_basic = legacy_keys == basic_keys
                    if legacy_matches_basic:
                        assert new_keys == basic_keys, graph.name
            checked += 1
            basic_agreements += legacy_matches_basic
        assert checked >= min_graphs
        # Enough graphs where the two polynomial variants coincide that the
        # basic-identity branch above is genuinely exercised (on the rest
        # they differ on borderline cuts — a pre-existing, documented
        # property, not something this PR may change).
        assert basic_agreements >= min_graphs // 5
        # The snapshot has none of the four bounds, so the identity above
        # covers them only if they fire; they are part of every variant that
        # keeps prune_while_building on.  The output budget under the output
        # before the last needs two outputs (it fired on 54 of 207 graphs at
        # Nout = 2 when recorded).
        input_budget_share, next_output_share = rare_bound_share
        assert budget_bound_fired * 4 >= checked
        assert input_budget_fired * input_budget_share >= checked
        assert input_hole_fired * 4 >= checked
        if constraints.max_outputs > 1:
            assert next_output_fired * next_output_share >= checked
        else:
            assert next_output_fired == 0

    def test_debug_validity_cross_check_runs(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_VALIDITY", "1")
        constraints = Constraints(max_inputs=4, max_outputs=2)
        for seed in range(5):
            graph = make_random_dag(seed, num_operations=8)
            result = enumerate_cuts(graph, constraints)
            assert result.cuts  # the assertion path executed without tripping

    def test_core_digest_table_matches_the_snapshot(self):
        """The ``core`` benchmark checks poly-enum-incremental against recorded
        cut digests.  Here poly is checked live against the snapshot on every
        small-scale ``core`` graph of at most ``MAX_BASIC_NODES`` vertices and
        on every corpus block, so each CPython checks the corpus as it compiles
        it; and the snapshot re-derives those graphs' table entries, so the
        table cannot drift from it."""
        families = _core_families("small")
        corpus = families.pop("corpus")
        small = [
            graph
            for graphs in families.values()
            for graph in graphs
            if graph.num_nodes <= MAX_BASIC_NODES
        ]
        assert len(small) == 13
        legacy_digests = {}
        for graph in small + corpus:
            legacy = cut_digest(enumerate_cuts_legacy(graph, CORE_CONSTRAINTS))
            assert cut_digest(enumerate_cuts(graph, CORE_CONSTRAINTS)) == legacy, (
                graph.name
            )
            legacy_digests[graph.name] = legacy
        for graph in small:
            assert recorded_cut_digest(graph) == legacy_digests[graph.name], graph.name
        skip_unless_recorded_corpus(corpus)
        assert len(corpus) == 22
        for graph in corpus:
            assert graph.num_nodes <= MAX_BASIC_NODES, graph.name
            assert recorded_cut_digest(graph) == legacy_digests[graph.name], graph.name


#: Runs recorded before the last-output budget bound and the whole-mask
#: candidate filtering, per block: the SHA-256 of ``result.masks`` under full
#: pruning and with prune-while-building off, each in discovery order and
#: sorted, the candidates full pruning checked, and every integer stat with
#: prune-while-building off.  Then, recorded before the input budget bound,
#: the duplicates, PICK-OUTPUT calls, PICK-INPUTS calls and dominator arrays
#: of full pruning.  Then the duplicates and PICK-OUTPUT calls of full
#: pruning with the input-hole bound; last, the same two with the output
#: budget under the output before the last, which lowers both where it fires.
#: The discovery-order digests, the PICK-INPUTS calls, duplicates and
#: input-input and output-input counts with prune-while-building off, and the
#: last pair were recorded again when each seed tree became ordered (see
#: ``TestSeedOrder``): a seed set is built once, so fewer seeds are tested;
#: an ordered tree's state is not deduplicated against another tree's, so
#: its completions can reach CHECK-CUT again; and a state that an exact bound
#: drops on its one path is no longer reached along another.  The sorted
#: digests were taken before, so the cut sets are the same.
_RECORDED_RUNS = {
    "synthetic_n30_s2007": (
        (
            "24b8a5100e258449886d3ad5f57fd0e5f85db8f2fc61c96ec39bf7e41f479b0c",
            "7581b6fba39d690811bd7ca2cbc571553518a50635f469ad1352dabd0fd261e5",
        ),
        (
            "6f2f5be36497b0c2905fa30d27399f3c7c4c11d10566fbb205e8d51b0abe594a",
            "7581b6fba39d690811bd7ca2cbc571553518a50635f469ad1352dabd0fd261e5",
        ),
        4905,
        {
            "cuts_found": 297, "duplicates": 9457, "candidates_checked": 7285,
            "lt_calls": 1608, "pick_output_calls": 1747, "pick_input_calls": 17668,
            "pruned": {
                "input_input_postdom": 338, "output_input_forbidden_path": 4897,
                "output_output": 14539, "connectedness": 4725,
            },
            "insearch_hits": 0, "insearch_misses": 0, "insearch_evictions": 0,
        },
        {"duplicates": 2982, "pick_output_calls": 1048, "pick_input_calls": 8912, "lt_calls": 1018},
        (2334, 438),
        (2167, 366),
    ),
    "tree_depth4": (
        (
            "4427fa1e09a8650458642ac089b2b619a26ff4e2a1a090b9506424eb6d40d118",
            "988aa5596d2a3b40399199e23fa025d125a068ab5ed09c88686ae61b19c5f478",
        ),
        (
            "4427fa1e09a8650458642ac089b2b619a26ff4e2a1a090b9506424eb6d40d118",
            "988aa5596d2a3b40399199e23fa025d125a068ab5ed09c88686ae61b19c5f478",
        ),
        119,
        {
            "cuts_found": 119, "duplicates": 342, "candidates_checked": 119,
            "lt_calls": 2857, "pick_output_calls": 49, "pick_input_calls": 4354,
            "pruned": {"input_input_postdom": 1308},
            "insearch_hits": 0, "insearch_misses": 0, "insearch_evictions": 0,
        },
        {"duplicates": 342, "pick_output_calls": 49, "pick_input_calls": 10551, "lt_calls": 2857},
        (342, 49),
        (342, 49),
    ),
    "mibench_like_013_n29": (
        (
            "904d1588e4d230bc719b072c99bbb4a7fcdecb86fc336e1465099daff218e896",
            "1fdfb8c9c8bace34f217e6b64138b076accd7b9756d6be5f09842477902709ea",
        ),
        (
            "0befb05e9c9c59640d9f7940f752784fb865fa0cd837bb46f06abe86969d207c",
            "1fdfb8c9c8bace34f217e6b64138b076accd7b9756d6be5f09842477902709ea",
        ),
        4308,
        {
            "cuts_found": 245, "duplicates": 6921, "candidates_checked": 6064,
            "lt_calls": 1697, "pick_output_calls": 1708, "pick_input_calls": 15758,
            "pruned": {
                "output_input_forbidden_path": 3241, "input_input_postdom": 273,
                "output_output": 16277, "connectedness": 5098,
            },
            "insearch_hits": 0, "insearch_misses": 0, "insearch_evictions": 0,
        },
        {"duplicates": 2800, "pick_output_calls": 1260, "pick_input_calls": 11180, "lt_calls": 1293},
        (2079, 510),
        (1810, 400),
    ),
    "mibench_like_014_n30": (
        (
            "d4621d1b137422d7ee1b7a88d16d90cfe782d17379b4415573dcd73269a1320a",
            "b964b55df59bd6b63cabb6593c71147e1f00c2734b9deb3db860bc88792d0d8b",
        ),
        (
            "d4621d1b137422d7ee1b7a88d16d90cfe782d17379b4415573dcd73269a1320a",
            "b964b55df59bd6b63cabb6593c71147e1f00c2734b9deb3db860bc88792d0d8b",
        ),
        2973,
        {
            "cuts_found": 251, "duplicates": 4333, "candidates_checked": 3304,
            "lt_calls": 1325, "pick_output_calls": 858, "pick_input_calls": 9429,
            "pruned": {
                "output_input_forbidden_path": 2641, "input_input_postdom": 910,
                "output_output": 5297, "connectedness": 1573,
            },
            "insearch_hits": 0, "insearch_misses": 0, "insearch_evictions": 0,
        },
        {"duplicates": 2082, "pick_output_calls": 811, "pick_input_calls": 7620, "lt_calls": 1026},
        (1559, 345),
        (1362, 268),
    ),
    "mibench_like_015_n32": (
        (
            "402f334c7b90b43c4cb77b7363a7d0988225f4a5363f330161757883e7c76e47",
            "09765f62b0e2f4d45722dea9fb91d63070189c544e57f74b02a23cc1779a55d5",
        ),
        (
            "c3a966f8144047360dcec5e40add210ebce24f29ddc683c0a0edc0e0f5fd2701",
            "09765f62b0e2f4d45722dea9fb91d63070189c544e57f74b02a23cc1779a55d5",
        ),
        5264,
        {
            "cuts_found": 414, "duplicates": 7601, "candidates_checked": 5924,
            "lt_calls": 2498, "pick_output_calls": 1341, "pick_input_calls": 20112,
            "pruned": {
                "output_input_forbidden_path": 4004, "input_input_postdom": 2152,
                "output_output": 11870, "connectedness": 5027,
            },
            "insearch_hits": 0, "insearch_misses": 0, "insearch_evictions": 0,
        },
        {"duplicates": 3620, "pick_output_calls": 1248, "pick_input_calls": 19000, "lt_calls": 2047},
        (2467, 439),
        (2272, 377),
    ),
}


def _masks_fingerprint(masks):
    return hashlib.sha256(",".join(format(m, "x") for m in masks).encode()).hexdigest()


def _pickable(ctx, pruning, outputs_mask, vertex):
    """Whether PICK-OUTPUT may pick the candidate *vertex* after the outputs
    *outputs_mask*: it is no chosen output, postdominates none and is
    postdominated by none, and, under output-output pruning, reaches none."""
    chosen = ids_from_mask(outputs_mask)
    return (
        not (outputs_mask >> vertex) & 1
        and not any((ctx.postdom_comparable[o] >> vertex) & 1 for o in chosen)
        and not (
            pruning.output_output and any(ctx.reach.has_path(vertex, o) for o in chosen)
        )
    )


class TestBudgetBounds:
    """The bounds of prune-while-building keep the cuts and their order;
    the mask filtering keeps every count."""

    def test_reproduces_the_recorded_runs(self):
        constraints = Constraints(max_inputs=4, max_outputs=2)
        suite = build_suite(
            SuiteConfig(
                num_blocks=16,
                min_operations=10,
                max_operations=32,
                include_kernels=False,
                include_trees=False,
            )
        )
        largest = sorted(suite, key=lambda graph: graph.num_nodes)[-3:]
        blocks = list(generate_suite((30,))) + [tree_dfg(4)] + largest
        assert sorted(graph.name for graph in blocks) == sorted(_RECORDED_RUNS)
        bound_off = FULL_PRUNING.disable("prune_while_building")
        for graph in blocks:
            (
                (full_sha, full_sorted), (off_sha, off_sorted), checked, off_stats,
                full_counts, hole_counts, next_counts,
            ) = _RECORDED_RUNS[graph.name]
            full = enumerate_cuts(graph, constraints, pruning=FULL_PRUNING)
            off = enumerate_cuts(graph, constraints, pruning=bound_off)
            assert _masks_fingerprint(full.masks) == full_sha, graph.name
            assert _masks_fingerprint(sorted(full.masks)) == full_sorted, graph.name
            assert _masks_fingerprint(off.masks) == off_sha, graph.name
            assert _masks_fingerprint(sorted(off.masks)) == off_sorted, graph.name
            assert integer_stats(off.stats) == off_stats, graph.name
            if graph.name.startswith("tree"):
                assert full.stats.candidates_checked == checked
            else:
                assert full.stats.candidates_checked < checked, graph.name
            # The input budget drops only subtrees that reach no CHECK-CUT,
            # so it lowers only PICK-INPUTS and dominator work.  The
            # input-hole bound and the output budget under the output before
            # the last also drop completions before CHECK-CUT and the
            # PICK-OUTPUT calls under them; on the tree neither fires.
            stats = full.stats
            assert (stats.duplicates, stats.pick_output_calls) == next_counts, graph.name
            if graph.name.startswith("tree"):
                assert "input_hole" not in stats.pruned
                assert "next_output_budget" not in stats.pruned
                assert next_counts == hole_counts == (
                    full_counts["duplicates"], full_counts["pick_output_calls"]
                )
            else:
                assert stats.pruned["input_hole"] > 0, graph.name
                assert stats.pruned["next_output_budget"] > 0, graph.name
                assert hole_counts[0] < full_counts["duplicates"], graph.name
                assert hole_counts[1] < full_counts["pick_output_calls"], graph.name
                assert all(now < then for now, then in zip(next_counts, hole_counts)), (
                    graph.name
                )
            assert stats.pick_input_calls < full_counts["pick_input_calls"], graph.name
            assert stats.lt_calls < full_counts["lt_calls"], graph.name

    def test_input_budget_seeds_keep_every_completing_set(self):
        """The packed paths against brute force on random DAGs.

        For inputs ``I``, an output ``o`` reachable in ``G − I`` and the
        inputs' comparability union as the shared vertices, every set ``S``
        of at most ``nin_left`` non-shared proper ancestors (not the source)
        with ``I ∪ S`` dominating ``o`` must survive the answer: none exists
        when it is 0, and each lies inside it when it restricts.
        """
        constraints = Constraints(max_inputs=4, max_outputs=2)
        rng = random.Random(19)
        queries = restricted = dropped = 0
        for seed in range(30):
            graph = make_random_dag(seed, num_operations=9)
            ctx = EnumerationContext.build(graph, constraints)
            enumerator = IncrementalEnumerator(graph, constraints, context=ctx)
            source = ctx.source
            others = [v for v in range(ctx.num_nodes) if v != source]
            comparable = ctx.postdom_comparable
            for _ in range(6):
                inputs = rng.sample(others, rng.randrange(3))
                inputs_mask = mask_from_ids(inputs)
                region = enumerator.reachable_avoiding(inputs_mask)
                outputs = [o for o in ctx.candidate_nodes if (region >> o) & 1]
                if not outputs:
                    continue
                output = rng.choice(outputs)
                shared = 0
                for vertex in inputs:
                    shared |= comparable[vertex]
                ancestors = [
                    v
                    for v in ids_from_mask(ctx.reach.ancestors_mask(output))
                    if v != source and not ((shared | inputs_mask) >> v) & 1
                ]
                completing = [
                    mask
                    for size in range(1, 4)
                    for members in itertools.combinations(ancestors, size)
                    for mask in (mask_from_ids(members),)
                    if not (
                        reachable_mask_avoiding(
                            ctx.successor_lists, source, avoid_mask=inputs_mask | mask
                        )
                        >> output
                    )
                    & 1
                ]
                for nin_left in (2, 3):
                    allowed = enumerator._input_budget_seeds(
                        region, output, nin_left, shared
                    )
                    fits = [mask for mask in completing if mask.bit_count() <= nin_left]
                    queries += 1
                    if allowed == 0:
                        assert not fits, (graph.name, inputs, output, nin_left)
                        dropped += 1
                    elif allowed != -1:
                        assert all(mask & ~allowed == 0 for mask in fits), (
                            graph.name, inputs, output, nin_left
                        )
                        restricted += 1
        assert queries >= 300
        assert dropped and restricted
        assert (dropped + restricted) * 4 >= queries

    def test_input_hole_need_is_a_lower_bound(self):
        """The input-hole bound against brute force on random DAGs.

        A state is a random input set (0-3 vertices) and a body that is a
        union of ``B({w}, o)`` rows; ``E`` is the body less the inputs and
        the forbidden vertices.  A set ``R`` of vertices of ``E`` *closes*
        the state when no input lies on a path between two vertices of
        ``E ∖ R``.  The bound may drop a state with *slack* inputs left
        only if no ``R`` of at most *slack* vertices closes it; with one
        hole it drops exactly those states.  With no input left it drops
        exactly the states with a hole, and with one left it returns
        exactly the vertices that close the state alone.
        """
        constraints = Constraints(max_inputs=4, max_outputs=2)
        rng = random.Random(29)
        states = with_hole = 0
        dropped = [0, 0, 0, 0]  # per slack
        for seed in range(30):
            graph = make_random_dag(seed, num_operations=20, num_inputs=2)
            ctx = EnumerationContext.build(graph, constraints)
            enumerator = IncrementalEnumerator(graph, constraints, context=ctx)
            has_path = ctx.reach.has_path
            others = [v for v in range(ctx.num_nodes) if v != ctx.source]
            for _ in range(16):
                output = rng.choice(ctx.candidate_nodes)
                rows = enumerator._contributions(output)
                # The search's seeds and inputs are ancestors of the output.
                ancestors = ids_from_mask(enumerator._seed_masks[output]) or others
                body = 0
                for vertex in rng.sample(ancestors, min(rng.randrange(1, 4), len(ancestors))):
                    body |= rows[vertex]
                inputs = rng.sample(ancestors, min(rng.randrange(4), len(ancestors)))
                inputs_mask = mask_from_ids(inputs)
                effective = body & ~(inputs_mask | ctx.forbidden_mask)
                members = ids_from_mask(effective)
                # Per input, the vertices of E above and below it.
                sides = [
                    (
                        mask_from_ids(a for a in members if has_path(a, x)),
                        mask_from_ids(d for d in members if has_path(x, d)),
                    )
                    for x in inputs
                ]

                def closes(removed):
                    return not any(up & ~removed and down & ~removed for up, down in sides)

                smallest = next(
                    (
                        size
                        for size in range(4)
                        if any(
                            closes(mask_from_ids(chosen))
                            for chosen in itertools.combinations(members, size)
                        )
                    ),
                    4,  # more than 3
                )
                holes = sum(1 for up, down in sides if up and down)
                singles = mask_from_ids(v for v in members if closes(1 << v))
                states += 1
                with_hole += holes > 0
                for slack in range(4):
                    answer = enumerator._input_holes(inputs_mask, effective, slack)
                    where = (graph.name, inputs, output, slack)
                    if not answer:
                        assert smallest > slack, where
                        dropped[slack] += 1
                    if holes == 1:
                        assert (answer == 0) == (smallest > slack), where
                    if slack == 0:
                        assert (answer == 0) == (holes > 0), where
                    elif slack == 1:
                        assert answer == (singles if holes else -1), where
        assert states == 480
        assert with_hole * 8 >= states
        assert dropped[0] == with_hole and dropped[1] and dropped[2]

    def test_next_output_bound_is_sound(self):
        """The output budget under the output before the last, against brute
        force on random DAGs.

        A state under output ``o`` with one output still to pick has inputs
        among the ancestors of the chosen outputs and a body that is a union
        of ``B({w}, ·)`` rows of the chosen outputs; at Nout = 3 ``o`` is the
        second output, so part of the body lies outside its cone.  Its room
        is that part plus ``o`` and its ancestors, and ``E`` is the body less
        the inputs and the forbidden vertices.  Where the search would drop
        the state (its stuck vertices outnumber ``Nout`` plus the inputs
        left without a later output, and :meth:`_next_output_absorbs` says
        no later output takes in enough of them), no valid cut keeps all
        but the inputs left of ``E`` and lies in the room, or in the room
        plus the cone of an output still pickable (holding that output when
        output-output pruning is on).
        """
        rng = random.Random(41)
        states = 0
        dropped = Counter()
        for seed in range(30):
            graph = make_random_dag(seed, num_operations=12 + seed % 5)
            for nin, nout in ((4, 2), (3, 2), (4, 3)):
                constraints = Constraints(max_inputs=nin, max_outputs=nout)
                ctx = EnumerationContext.build(graph, constraints)
                valid = enumerate_cuts_brute_force(graph, constraints, context=ctx).masks
                reach = ctx.reach
                cone = {
                    v: reach.ancestors_mask(v) | 1 << v for v in ctx.candidate_nodes
                }
                for pruning in (FULL_PRUNING, FULL_PRUNING.disable("output_output")):
                    enumerator = IncrementalEnumerator(graph, constraints, pruning, ctx)
                    for _ in range(16):
                        outputs = []
                        for _ in range(nout - 1):
                            pickable = [
                                v
                                for v in ctx.candidate_nodes
                                if _pickable(ctx, pruning, mask_from_ids(outputs), v)
                            ]
                            if not pickable:
                                break
                            outputs.append(rng.choice(pickable))
                        if len(outputs) < nout - 1:
                            continue
                        output = outputs[-1]
                        outputs_mask = mask_from_ids(outputs)
                        body = inputs = 0
                        for chosen in outputs:
                            ancestors = ids_from_mask(enumerator._seed_masks[chosen])
                            if not ancestors:
                                continue
                            rows = enumerator._contributions(chosen)
                            for vertex in rng.sample(ancestors, min(3, len(ancestors))):
                                body |= rows[vertex]
                            inputs |= mask_from_ids(
                                rng.sample(ancestors, min(rng.randrange(3), len(ancestors)))
                            )
                        outside = body & ~cone[output]
                        room = outside | cone[output]
                        effective = body & ~(inputs | ctx.forbidden_mask)
                        kept = effective & enumerator._stuck_outputs(output, outside)
                        for slack in range(3):
                            # A completion leaves no input to a cut without a
                            # later output; a seed leaves them all.
                            for alone in sorted({0, slack}):
                                if kept.bit_count() - alone <= nout:
                                    continue
                                states += 1
                                if enumerator._next_output_absorbs(
                                    output, outputs_mask, body, kept, slack
                                ):
                                    continue
                                dropped[nout, pruning.output_output] += 1
                                where = (graph.name, outputs, inputs, body, slack, alone)
                                for cut in valid:
                                    if cut & ~room == 0:
                                        assert (effective & ~cut).bit_count() > alone, where
                                for later in ctx.candidate_nodes:
                                    if not _pickable(ctx, pruning, outputs_mask, later):
                                        continue
                                    window = room | cone[later]
                                    for cut in valid:
                                        if cut & ~window or (
                                            pruning.output_output and not (cut >> later) & 1
                                        ):
                                            continue
                                        assert (effective & ~cut).bit_count() > slack, (
                                            where, later
                                        )
        assert states >= 3000
        # Drops at Nout = 2 and 3, with output-output pruning on and off.
        assert len(dropped) == 4 and min(dropped.values()) >= 100, dropped

    def test_output_count_masks_drop_only_seeds_the_seed_tests_drop(self):
        """The frame-level output-count masks against the per-seed tests, on
        random DAGs.

        A PICK-INPUTS state under output ``o`` has outputs picked as
        PICK-OUTPUT may pick them (``o`` last), inputs among their ancestors
        and a body that is a union of their ``B({w}, ·)`` rows.  Its stuck
        mask is what the search hands down: :meth:`_stuck_outputs` under the
        last two outputs, which must equal its definition over the room
        with and without the body boundary a PICK-OUTPUT call passes, and
        the forbidden-successor mask above them.  Every seed a mask of
        :func:`_output_count_doomed` drops must be one the per-seed tests
        drop: its child's body, less the child's inputs and the forbidden
        vertices, keeps more than ``Nout`` vertices with a forbidden
        successor (the too-many-unavoidable-outputs mask), or, with no
        output left to pick, does that or keeps more than ``Nout`` plus the
        inputs left stuck vertices (the output-budget mask).
        """
        rng = random.Random(53)
        states = 0
        dropped = Counter()
        for seed in range(24):
            graph = make_random_dag(seed, num_operations=12 + seed % 5)
            for nin, nout in ((4, 1), (4, 2), (3, 2), (4, 3)):
                constraints = Constraints(max_inputs=nin, max_outputs=nout)
                ctx = EnumerationContext.build(graph, constraints)
                successors = ctx.reach.successor_rows()
                forbidden = ctx.forbidden_mask
                for pruning in (FULL_PRUNING, FULL_PRUNING.disable("output_output")):
                    enumerator = IncrementalEnumerator(graph, constraints, pruning, ctx)
                    forbidden_succ = enumerator._forbidden_succ_mask
                    for _ in range(12):
                        outputs = []
                        for _ in range(rng.randint(1, nout)):
                            pickable = [
                                v
                                for v in ctx.candidate_nodes
                                if _pickable(ctx, pruning, mask_from_ids(outputs), v)
                            ]
                            if not pickable:
                                break
                            outputs.append(rng.choice(pickable))
                        if not outputs:
                            continue
                        output = outputs[-1]
                        nout_left = nout - len(outputs)
                        body = inputs = 0
                        for chosen in outputs:
                            ancestors = ids_from_mask(enumerator._seed_masks[chosen])
                            if not ancestors:
                                continue
                            rows = enumerator._contributions(chosen)
                            for vertex in rng.sample(ancestors, min(4, len(ancestors))):
                                body |= rows[vertex]
                            inputs |= mask_from_ids(
                                rng.sample(ancestors, min(rng.randrange(3), len(ancestors)))
                            )
                        cone = enumerator._closed_ancestors[output]
                        outside = body & ~cone
                        if nout_left <= 1:
                            room = outside | cone
                            stuck = enumerator._stuck_outputs(output, outside)
                            assert stuck == forbidden_succ | mask_from_ids(
                                v
                                for v in ids_from_mask(room & ~forbidden)
                                if successors[v] & ~room
                            ), (graph.name, outputs, body)
                            boundary = enumerator._body_boundary(body)
                            assert enumerator._stuck_outputs(output, outside, boundary) == stuck
                        else:
                            stuck = forbidden_succ
                        body_kept = body & ~(inputs | forbidden) & stuck
                        between = enumerator._contributions(output)
                        seeds = enumerator._seed_masks[output] & ~inputs
                        for slack in range(1, nin - inputs.bit_count()):
                            states += 1
                            too_many, over_budget = _output_count_doomed(
                                body_kept, forbidden_succ, nout, slack, nout_left
                            )
                            for vertex in ids_from_mask(seeds & (too_many | over_budget)):
                                effective = (body | between[vertex]) & ~(
                                    inputs | 1 << vertex | forbidden
                                )
                                unavoidable = (effective & forbidden_succ).bit_count() > nout
                                where = (graph.name, outputs, inputs, body, slack, vertex)
                                if (too_many >> vertex) & 1:
                                    assert unavoidable, where
                                    rule = "too_many_unavoidable_outputs"
                                else:
                                    assert not nout_left, where
                                    assert unavoidable or (
                                        (effective & stuck).bit_count() - slack > nout
                                    ), where
                                    rule = "output_budget"
                                dropped[nout, rule, pruning.output_output] += 1
        assert states >= 3000
        # Both masks drop seeds at Nout = 1, 2 and 3, with output-output
        # pruning on and off.
        assert len(dropped) == 12 and min(dropped.values()) >= 20, dropped


#: Runs at other I/O budgets, recorded before each visited search state
#: became one integer: per budget and block, the SHA-256 of ``result.masks``
#: in discovery order and sorted, and every integer stat.  At Nout = 3 a
#: PICK-INPUTS state's key holds two earlier outputs, and without pruning the
#: outputs are picked in any order.  The stats of the runs the input-hole bound
#: prunes were recorded again with it, and those the output budget under the
#: output before the last prunes again with that; the masks were not.  Last,
#: the PICK-INPUTS calls and the too-many-unavoidable-outputs and output
#: budget counts were recorded again when those two tests first dropped a
#: frame's seeds with one mask each: a seed they drop is no longer probed in
#: the visited set first, and one that both drop counts as the output
#: budget's.  Then the discovery-order digests and the stats that moved were
#: recorded again when each seed tree became ordered (see
#: ``_RECORDED_RUNS``); the sorted digests were taken before.
_BUDGETS = {
    "nin4-nout3": (Constraints(max_inputs=4, max_outputs=3), FULL_PRUNING),
    "nin3-nout1": (Constraints(max_inputs=3, max_outputs=1), FULL_PRUNING),
    "nin4-nout3-connected": (
        Constraints(max_inputs=4, max_outputs=3, connected_only=True),
        FULL_PRUNING,
    ),
    "nin4-nout3-no-pruning": (Constraints(max_inputs=4, max_outputs=3), NO_PRUNING),
}
_RECORDED_BUDGET_RUNS = {
    "nin4-nout3": {
        "synthetic_n30_s2008": (
            "41a037023cba21a8e202012e2892a8c8f2ea3b9e2876bef4037e1b0c99be90fe",
            "7efdbb6437d3d4a90581dab7744ef50bebca63d74b6c96cef93d4324391e62ff",
            {
                "cuts_found": 733, "duplicates": 5451, "candidates_checked": 3095,
                "lt_calls": 1247, "pick_output_calls": 2235, "pick_input_calls": 16154,
                "pruned": {
                    "connectedness": 5716, "input_budget": 4041, "input_hole": 5089,
                    "input_input_postdom": 1214, "next_output_budget": 3457,
                    "output_budget": 5907, "output_input_forbidden_path": 2184,
                    "output_output": 12834, "too_many_unavoidable_outputs": 84,
                },
                "insearch_hits": 0, "insearch_misses": 0, "insearch_evictions": 0,
            },
        ),
        "tree_depth4": (
            "4427fa1e09a8650458642ac089b2b619a26ff4e2a1a090b9506424eb6d40d118",
            "988aa5596d2a3b40399199e23fa025d125a068ab5ed09c88686ae61b19c5f478",
            {
                "cuts_found": 119, "duplicates": 342, "candidates_checked": 119,
                "lt_calls": 583, "pick_output_calls": 120, "pick_input_calls": 1216,
                "pruned": {
                    "input_budget": 1278, "input_input_postdom": 698,
                },
                "insearch_hits": 0, "insearch_misses": 0, "insearch_evictions": 0,
            },
        ),
        "mibench_like_013_n29": (
            "f509e5b28b211cdbb12965c4bee5526db5498b4f2f4fe9d8f47506da7bfd0e66",
            "89f3c3bb7a9dea6ad585a428306319973dcadc0d91bae131a815c1c72e499cfe",
            {
                "cuts_found": 507, "duplicates": 4041, "candidates_checked": 2477,
                "lt_calls": 1046, "pick_output_calls": 1865, "pick_input_calls": 11429,
                "pruned": {
                    "connectedness": 3198, "input_budget": 3620, "input_hole": 3627,
                    "input_input_postdom": 247, "next_output_budget": 2361,
                    "output_budget": 5452, "output_input_forbidden_path": 3011,
                    "output_output": 12165, "too_many_unavoidable_outputs": 1271,
                },
                "insearch_hits": 0, "insearch_misses": 0, "insearch_evictions": 0,
            },
        ),
    },
    "nin3-nout1": {
        "synthetic_n30_s2008": (
            "53cf190f5aa05d3f248da58f01d3e15cf7d76f18a1423f23ce81771a86146536",
            "0e621f5419bb4e546e9f384543c6e34e9f316cee481b754690ba2c9657abe7e6",
            {
                "cuts_found": 42, "duplicates": 164, "candidates_checked": 101,
                "lt_calls": 135, "pick_output_calls": 1, "pick_input_calls": 464,
                "pruned": {
                    "input_budget": 355, "input_hole": 64, "input_input_postdom": 77,
                    "output_budget": 434, "output_input_forbidden_path": 127,
                    "too_many_unavoidable_outputs": 88,
                },
                "insearch_hits": 0, "insearch_misses": 0, "insearch_evictions": 0,
            },
        ),
        "tree_depth4": (
            "708d9665724fa57174bfe40683f06055ef8223ef9405a665f84e59b72e910f12",
            "4dbc9f0a27a19404b912960d889bc8604366bd6fcfd03d2993349a52c014dadd",
            {
                "cuts_found": 29, "duplicates": 58, "candidates_checked": 29,
                "lt_calls": 115, "pick_output_calls": 1, "pick_input_calls": 220,
                "pruned": {
                    "input_budget": 454, "input_input_postdom": 172,
                },
                "insearch_hits": 0, "insearch_misses": 0, "insearch_evictions": 0,
            },
        ),
        "mibench_like_013_n29": (
            "d15003bb18d90aa9f8692a2c457f1c1fe72a09b929b1883f13ea18224d24638d",
            "fd1f11bd1331f8078b858596202abd154db2089369f2dfa8d896f9a96d3c0477",
            {
                "cuts_found": 27, "duplicates": 127, "candidates_checked": 84,
                "lt_calls": 111, "pick_output_calls": 1, "pick_input_calls": 313,
                "pruned": {
                    "input_budget": 228, "input_hole": 17, "input_input_postdom": 13,
                    "output_budget": 272, "output_input_forbidden_path": 185,
                    "too_many_unavoidable_outputs": 159,
                },
                "insearch_hits": 0, "insearch_misses": 0, "insearch_evictions": 0,
            },
        ),
    },
    "nin4-nout3-connected": {
        "synthetic_n30_s2008": (
            "c0bc754b69d9f5e558d5ebd95885e1e5eca8c2f03289316d6c53c1c442ae9353",
            "ddaab1324c83710bbfb2d9cdd017e969e3b0f83e6a2c2dcdbfac39186ecc0e40",
            {
                "cuts_found": 291, "duplicates": 3790, "candidates_checked": 2397,
                "lt_calls": 1060, "pick_output_calls": 1771, "pick_input_calls": 12005,
                "pruned": {
                    "connectedness": 9148, "input_budget": 3023, "input_hole": 4687,
                    "input_input_postdom": 1125, "next_output_budget": 3027,
                    "output_budget": 4852, "output_input_forbidden_path": 1765,
                    "output_output": 10085, "too_many_unavoidable_outputs": 54,
                },
                "insearch_hits": 0, "insearch_misses": 0, "insearch_evictions": 0,
            },
        ),
        "tree_depth4": (
            "8f3b087d3bb70ba6524cb5c45cba9a7d1fafae45b2dcc2b1097d249d36bcda5d",
            "80f071cb7da3269e2c1a57e66dcaed624b44429d49c9205dae6497d6f547ec04",
            {
                "cuts_found": 48, "duplicates": 129, "candidates_checked": 48,
                "lt_calls": 361, "pick_output_calls": 49, "pick_input_calls": 546,
                "pruned": {
                    "connectedness": 360, "input_budget": 1086,
                    "input_input_postdom": 698,
                },
                "insearch_hits": 0, "insearch_misses": 0, "insearch_evictions": 0,
            },
        ),
        "mibench_like_013_n29": (
            "b920b0ffc477e87624eeeeeeb861bcc62b639effa9be2f6a520dc74874084a7f",
            "f31663a58717675a9333a5e9a553c85df36d43abcf943d35a2056a6d48ae64df",
            {
                "cuts_found": 223, "duplicates": 3145, "candidates_checked": 2080,
                "lt_calls": 883, "pick_output_calls": 1595, "pick_input_calls": 8939,
                "pruned": {
                    "connectedness": 5191, "input_budget": 2833, "input_hole": 3234,
                    "input_input_postdom": 235, "next_output_budget": 2231,
                    "output_budget": 4930, "output_input_forbidden_path": 2841,
                    "output_output": 10015, "too_many_unavoidable_outputs": 1231,
                },
                "insearch_hits": 0, "insearch_misses": 0, "insearch_evictions": 0,
            },
        ),
    },
    "nin4-nout3-no-pruning": {
        "synthetic_n30_s2008": (
            "d6dedc6d4cf6a30026609b2abbe83fda2a62bbdfee304e8e84782365bbfd3646",
            "c3e30e44159d0e055bf5e799f8efdd875864b1448d9862f79a02a99fe194cbf4",
            {
                "cuts_found": 798, "duplicates": 55837, "candidates_checked": 40980,
                "lt_calls": 2413, "pick_output_calls": 16325, "pick_input_calls": 75852,
                "pruned": {},
                "insearch_hits": 0, "insearch_misses": 0, "insearch_evictions": 0,
            },
        ),
        "tree_depth4": (
            "de5befe4effb184e899eb78e0d08debc392ecd761c446ea1c81292c7ef46b612",
            "988aa5596d2a3b40399199e23fa025d125a068ab5ed09c88686ae61b19c5f478",
            {
                "cuts_found": 119, "duplicates": 1326, "candidates_checked": 829,
                "lt_calls": 4481, "pick_output_calls": 830, "pick_input_calls": 6822,
                "pruned": {},
                "insearch_hits": 0, "insearch_misses": 0, "insearch_evictions": 0,
            },
        ),
        "mibench_like_013_n29": (
            "63f0248bfb1847be0f9abbadab03667d13bedd22bb9dd19b40e25b69b2861676",
            "89f3c3bb7a9dea6ad585a428306319973dcadc0d91bae131a815c1c72e499cfe",
            {
                "cuts_found": 507, "duplicates": 57824, "candidates_checked": 44634,
                "lt_calls": 1947, "pick_output_calls": 15937, "pick_input_calls": 77123,
                "pruned": {},
                "insearch_hits": 0, "insearch_misses": 0, "insearch_evictions": 0,
            },
        ),
    },
}


#: Where the input-hole bound fires, the candidates checked, duplicates and
#: dominator arrays of the run before it: the bound lowers each.
_BEFORE_INPUT_HOLE = {
    ("nin4-nout3", "synthetic_n30_s2008"): (7974, 10223, 1869),
    ("nin4-nout3", "mibench_like_013_n29"): (5937, 7075, 1533),
    ("nin3-nout1", "synthetic_n30_s2008"): (127, 182, 157),
    ("nin3-nout1", "mibench_like_013_n29"): (92, 135, 121),
    ("nin4-nout3-connected", "synthetic_n30_s2008"): (6910, 8267, 1698),
    ("nin4-nout3-connected", "mibench_like_013_n29"): (5330, 5974, 1369),
}


#: Where the output budget under the output before the last fires, the
#: candidates checked, duplicates, dominator arrays, PICK-OUTPUT calls and
#: PICK-INPUTS calls of the run before it: the bound lowers each.
_BEFORE_NEXT_OUTPUT_BUDGET = {
    ("nin4-nout3", "synthetic_n30_s2008"): (3408, 6096, 1287, 2531, 25825),
    ("nin4-nout3", "mibench_like_013_n29"): (2644, 4421, 1075, 2032, 16695),
    ("nin4-nout3-connected", "synthetic_n30_s2008"): (2663, 4406, 1101, 2020, 20696),
    ("nin4-nout3-connected", "mibench_like_013_n29"): (2245, 3522, 916, 1760, 13758),
}


class TestStateKeys:
    """The integer state keys are exact at every I/O budget."""

    @pytest.mark.parametrize("budget", list(_RECORDED_BUDGET_RUNS))
    def test_reproduces_the_recorded_runs_at_other_budgets(self, budget):
        constraints, pruning = _BUDGETS[budget]
        suite = build_suite(
            SuiteConfig(
                num_blocks=16,
                min_operations=10,
                max_operations=32,
                include_kernels=False,
                include_trees=False,
            )
        )
        blocks = generate_suite((30,), base_seed=2008) + [tree_dfg(4)]
        blocks += [graph for graph in suite if graph.name == "mibench_like_013_n29"]
        recorded = _RECORDED_BUDGET_RUNS[budget]
        assert [graph.name for graph in blocks] == list(recorded)
        for graph in blocks:
            sha, sorted_sha, stats = recorded[graph.name]
            result = enumerate_cuts(graph, constraints, pruning=pruning)
            assert _masks_fingerprint(result.masks) == sha, graph.name
            assert _masks_fingerprint(sorted(result.masks)) == sorted_sha, graph.name
            assert integer_stats(result.stats) == stats, graph.name
            before = _BEFORE_INPUT_HOLE.get((budget, graph.name))
            assert ("input_hole" in stats["pruned"]) == (before is not None), graph.name
            if before is not None:
                counts = (stats["candidates_checked"], stats["duplicates"], stats["lt_calls"])
                assert all(now < then for now, then in zip(counts, before)), graph.name
            before = _BEFORE_NEXT_OUTPUT_BUDGET.get((budget, graph.name))
            assert ("next_output_budget" in stats["pruned"]) == (before is not None), graph.name
            if before is not None:
                counts = tuple(
                    stats[name]
                    for name in (
                        "candidates_checked", "duplicates", "lt_calls",
                        "pick_output_calls", "pick_input_calls",
                    )
                )
                assert all(now < then for now, then in zip(counts, before)), graph.name


#: ``make_random_dag`` seeds (``num_operations = 8 + seed % 17``) whose runs at
#: Nin = 5, Nout = 2 lose one cut each if every seed tree is ordered: a seed
#: candidate in the body at a tree's root has a forbidden successor there.
_UNORDERED_TREE_SEEDS = (9, 23, 227)


def _record_seed_trees(monkeypatch):
    """Wrap PICK-OUTPUT and PICK-INPUTS and return the list that gets one
    ``(run, tree, parent, state, seed_window)`` entry per PICK-INPUTS frame.

    A frame entered from PICK-OUTPUT starts a seed tree (*parent* ``None``);
    a seed child belongs to its parent's tree, *parent* being the parent's
    entry.  *state* is ``(inputs, outputs, body, output, key)``, *key* the
    frame's visited-set key, and *run* the enumerator.
    """
    frames = []
    stack = []  # None for a PICK-OUTPUT call, else the frame's entry
    pick_output = IncrementalEnumerator._pick_output
    pick_inputs = IncrementalEnumerator._pick_inputs

    def output_frame(self, *args, **kwargs):
        stack.append(None)
        try:
            return pick_output(self, *args, **kwargs)
        finally:
            stack.pop()

    def inputs_frame(self, inputs, outputs, body, output, output_key, *args):
        parent = stack[-1] if stack else None
        key = (
            output_key
            | body << self._key_body_shift
            | inputs << self._key_inputs_shift
        )
        tree = len(frames) if parent is None else parent[1]
        entry = (self, tree, parent, (inputs, outputs, body, output, key), args[-1])
        frames.append(entry)
        stack.append(entry)
        try:
            return pick_inputs(self, inputs, outputs, body, output, output_key, *args)
        finally:
            stack.pop()

    monkeypatch.setattr(IncrementalEnumerator, "_pick_output", output_frame)
    monkeypatch.setattr(IncrementalEnumerator, "_pick_inputs", inputs_frame)
    return frames


class TestSeedOrder:
    """An ordered seed tree adds each seed set once, descendants first, and
    reports what the all-orders search reports."""

    def test_reports_the_all_orders_cuts(self, monkeypatch):
        """Sorted cuts equal the snapshot's, which adds seeds in every order,
        on random DAGs at Nin = 5, Nout = 2 under full pruning, and on copies
        whose ids are not topological.  The seeds in
        ``_UNORDERED_TREE_SEEDS`` need their unordered trees."""
        frames = _record_seed_trees(monkeypatch)
        constraints = Constraints(max_inputs=5, max_outputs=2)
        rng = random.Random(67)
        trees = Counter()
        seeds = [seed for seed in range(0, 40, 2) if seed % 17 <= 8]  # at most 16 ops
        for seed in seeds + list(_UNORDERED_TREE_SEEDS):
            graph = make_random_dag(seed, num_operations=8 + seed % 17)
            for candidate in (graph, _renumbered(graph, rng)):
                frames.clear()
                new = enumerate_cuts(candidate, constraints)
                legacy = enumerate_cuts_legacy(candidate, constraints)
                assert _cut_keys(new) == _cut_keys(legacy), (seed, candidate.node_ids())
                roots = [window for _, _, parent, _, window in frames if parent is None]
                trees["ordered"] += roots.count(-1)
                trees["unordered"] += roots.count(None)
                if seed in _UNORDERED_TREE_SEEDS:
                    assert None in roots, seed
        assert trees["ordered"] > 2 * trees["unordered"] > 0, trees

    def test_each_seed_set_is_built_once(self, monkeypatch):
        """In an ordered tree each seed child adds a seed topologically
        before its parent's newest one, no state is entered twice, and no
        seed child leaves a key in the visited set (unless the same state is
        also a tree's root or a frame of an unordered tree)."""
        frames = _record_seed_trees(monkeypatch)
        rng = random.Random(71)
        checked = Counter()
        for seed in range(24):
            graph = _renumbered(make_random_dag(seed, num_operations=10 + seed % 9), rng)
            for nin, nout in ((4, 2), (5, 2), (4, 3)):
                frames.clear()
                enumerate_cuts(graph, Constraints(max_inputs=nin, max_outputs=nout))
                if not frames:
                    continue
                run = frames[0][0]
                position = run.ctx.topo_position
                newest = {}  # per ordered seed child (tree, state), its newest seed
                per_tree = set()
                keyed = set()
                for _, tree, parent, state, window in frames:
                    inputs = state[0]
                    if parent is None or window is None:
                        keyed.add(state[4])
                    if window is None:
                        checked["unordered"] += 1
                        continue
                    assert (tree, state) not in per_tree, (graph.name, nin, nout, state)
                    per_tree.add((tree, state))
                    if parent is None:
                        assert window == -1
                        continue
                    seed_added = (inputs ^ parent[3][0]).bit_length() - 1
                    assert parent[3][0] | 1 << seed_added == inputs
                    if parent[2] is not None:
                        parent_newest = newest[tree, parent[3]]
                        assert position[seed_added] < position[parent_newest], graph.name
                    newest[tree, state] = seed_added
                    checked["child"] += 1
                for _, state in newest:
                    if state[4] not in keyed:
                        assert state[4] not in run._visited_states, (graph.name, state)
                        checked["unkeyed"] += 1
        assert checked["child"] >= 1000 and checked["unkeyed"] >= 1000, checked
        assert checked["unordered"], checked


class TestRunState:
    def test_a_run_with_a_deadline_has_no_instance_dict(self):
        """Every attribute of a run is a slot, the deadline too, so no
        attribute a run sets moves the search's attribute loads off
        CPython's specialized paths for slots."""
        graph = diamond()
        constraints = Constraints(max_inputs=4, max_outputs=2)
        enumerator = IncrementalEnumerator(
            graph, constraints, deadline=time.perf_counter() + 3600
        )
        assert not hasattr(enumerator, "__dict__")
        with pytest.raises(AttributeError):
            enumerator.unlisted = 0
        assert enumerator.run().masks == enumerate_cuts(graph, constraints).masks


class TestDagDominatorKernel:
    def test_matches_lengauer_tarjan_on_random_reduced_dags(self):
        rng = random.Random(7)
        constraints = Constraints(max_inputs=4, max_outputs=2)
        for seed in range(25):
            graph = make_random_dag(seed, num_operations=9)
            ctx = EnumerationContext.build(graph, constraints)
            for _ in range(15):
                removed = 0
                for _ in range(rng.randrange(0, 5)):
                    vertex = rng.randrange(ctx.num_nodes)
                    if vertex != ctx.source:
                        removed |= 1 << vertex
                reference = immediate_dominators(
                    ctx.num_nodes, ctx.successor_lists, ctx.source,
                    removed_mask=removed,
                )
                fast = immediate_dominators_dag(
                    ctx.topo_order, ctx.predecessor_lists, ctx.source,
                    removed_mask=removed,
                )
                assert fast == reference

    def test_rejects_removed_root(self):
        ctx = EnumerationContext.build(diamond(), Constraints())
        with pytest.raises(ValueError, match="root"):
            immediate_dominators_dag(
                ctx.topo_order, ctx.predecessor_lists, ctx.source,
                removed_mask=1 << ctx.source,
            )

    def test_derivation_matches_full_recomputation_on_growing_input_sets(self, monkeypatch):
        rng = random.Random(11)
        constraints = Constraints(max_inputs=4, max_outputs=2)
        full_runs = _count_calls(
            monkeypatch, "immediate_dominators_dag", immediate_dominators_dag
        )
        unreachable_removals = leaf_removals = 0
        for seed in range(30):
            graph = _renumbered(make_random_dag(seed, num_operations=9), rng)
            ctx = EnumerationContext.build(graph, constraints)
            num_nodes, source = ctx.num_nodes, ctx.source
            reach = ctx.reach

            def check_removal(removed, region, idom, vertex):
                """Grow the solved set *removed* by *vertex*, as a search
                frame does with the *region* and array *idom* it holds."""
                grown = removed | (1 << vertex)
                # A new set, so its region is derived (a sampled vertex may
                # have been removed already as a cut-off one).
                assert grown == removed or grown not in enumerator._reachable_cache
                full = immediate_dominators_dag(
                    ctx.topo_order, ctx.predecessor_lists, source, removed_mask=grown
                )
                grown_region = enumerator.reachable_avoiding(grown, (vertex, region))
                assert grown_region == reachable_mask_avoiding(
                    ctx.successor_lists, source, avoid_mask=grown
                )
                assert enumerator._dominator_array(grown, grown_region, (vertex, idom)) == full
                assert not full_runs  # derived, not solved by the full kernel
                descendants = reach.descendants_mask(vertex)
                derived = derive_immediate_dominators(
                    idom,
                    vertex,
                    [v for v in ctx.topo_order if (descendants >> v) & 1],
                    ctx.predecessor_lists,
                    ctx.topo_position,
                )
                assert derived == full
                return grown, grown_region, derived

            for _ in range(6):
                # One run per chain of growing sets: no set is solved twice.
                enumerator = IncrementalEnumerator(graph, constraints, context=ctx)
                removed = 0
                region = enumerator.reachable_avoiding(removed)
                idom = enumerator._dominator_array(removed, region, None)
                assert idom == immediate_dominators_dag(
                    ctx.topo_order, ctx.predecessor_lists, source
                )
                assert len(full_runs) == 1  # the empty set has no parent
                full_runs.clear()
                others = [v for v in range(num_nodes) if v != source]
                for vertex in rng.sample(others, 5):
                    removed, region, idom = check_removal(removed, region, idom, vertex)
                    # A vertex the removals have cut off from the source.
                    cut_off = [
                        v
                        for v in others
                        if not (region >> v) & 1 and not (removed >> v) & 1
                    ]
                    if cut_off:
                        removed, region, idom = check_removal(
                            removed, region, idom, rng.choice(cut_off)
                        )
                        unreachable_removals += 1
                # The sink has no descendants: only its own entry changes.
                if not (removed >> ctx.sink) & 1:
                    assert reach.descendants_mask(ctx.sink) == 0
                    removed, region, idom = check_removal(removed, region, idom, ctx.sink)
                    leaf_removals += 1
        assert unreachable_removals >= 20
        assert leaf_removals >= 20

    def test_derivation_rejects_removed_root(self):
        ctx = EnumerationContext.build(diamond(), Constraints())
        idom = immediate_dominators_dag(
            ctx.topo_order, ctx.predecessor_lists, ctx.source
        )
        with pytest.raises(ValueError, match="root"):
            derive_immediate_dominators(
                idom, ctx.source, [], ctx.predecessor_lists, ctx.topo_position
            )

    @pytest.mark.parametrize(
        "graph",
        [
            tree_dfg(4),
            generate_basic_block(SyntheticBlockSpec(num_operations=30, seed=0)),
        ],
        ids=lambda graph: graph.name,
    )
    def test_fallback_paths_match_the_default_path(self, graph, monkeypatch):
        constraints = Constraints(max_inputs=4, max_outputs=2)
        default = enumerate_cuts(graph, constraints)
        full_runs = _count_calls(
            monkeypatch, "immediate_dominators_dag", immediate_dominators_dag
        )
        derived_runs = _count_calls(
            monkeypatch, "derive_immediate_dominators", derive_immediate_dominators
        )

        # Derivation off: the search frames' parents are dropped, so every
        # region is swept and every array is a full kernel run.
        sweep = IncrementalEnumerator.reachable_avoiding
        solve = IncrementalEnumerator._dominator_array
        with monkeypatch.context() as patch:
            patch.setattr(
                IncrementalEnumerator,
                "reachable_avoiding",
                lambda self, mask, parent=None: sweep(self, mask),
            )
            patch.setattr(
                IncrementalEnumerator,
                "_dominator_array",
                lambda self, mask, region, parent: solve(self, mask, region, None),
            )
            underived = enumerate_cuts(graph, constraints)
        assert not derived_runs
        assert len(full_runs) == underived.stats.lt_calls
        assert _cut_keys(underived) == _cut_keys(default)
        assert integer_stats(underived.stats) == integer_stats(default.stats)

    @pytest.mark.parametrize(
        "graph",
        [
            tree_dfg(4),
            generate_basic_block(SyntheticBlockSpec(num_operations=30, seed=0)),
        ],
        ids=lambda graph: graph.name,
    )
    def test_capped_caches_run_the_full_kernel_once(self, graph, monkeypatch):
        """A tiny cache: first-in evictions drop solved regions, which are
        solved again, and each fresh array counts, so only ``lt_calls`` may
        exceed the default.  Every input set but the empty one is derived
        from the array its search frame holds, so evictions never bring the
        full kernel back."""
        constraints = Constraints(max_inputs=4, max_outputs=2)
        default = enumerate_cuts(graph, constraints)
        full_runs = _count_calls(
            monkeypatch, "immediate_dominators_dag", immediate_dominators_dag
        )
        derived_runs = _count_calls(
            monkeypatch, "derive_immediate_dominators", derive_immediate_dominators
        )
        monkeypatch.setattr("repro.core.incremental.REGION_CACHE_LIMIT", 8)
        capped = enumerate_cuts(graph, constraints)
        assert len(full_runs) == 1
        assert capped.masks == default.masks
        assert capped.stats.lt_calls == len(full_runs) + len(derived_runs)
        assert capped.stats.lt_calls >= default.stats.lt_calls
        expected = dict(integer_stats(default.stats), lt_calls=capped.stats.lt_calls)
        assert integer_stats(capped.stats) == expected

    def test_shared_region_cache_counts_one_kernel_run_per_region(self, monkeypatch):
        constraints = Constraints(max_inputs=4, max_outputs=2)
        graph = diamond()
        ctx = EnumerationContext.build(graph, constraints)
        full_runs = _count_calls(
            monkeypatch, "immediate_dominators_dag", immediate_dominators_dag
        )
        derived_runs = _count_calls(
            monkeypatch, "derive_immediate_dominators", derive_immediate_dominators
        )
        enumerator = IncrementalEnumerator(graph, constraints, context=ctx)
        first = enumerator.run()
        assert first.stats.lt_calls > 0
        assert first.stats.lt_calls == len(full_runs) + len(derived_runs)
        # One count per distinct region, whether its array was derived from a
        # parent or computed in full; only the empty input set has no parent.
        assert first.stats.lt_calls == len(enumerator._idom_cache)
        assert len(full_runs) == 1 < first.stats.lt_calls
        # A second run over the same context solves every region again: the
        # dominator arrays belonged to the first run, not to the context.
        second = enumerate_cuts(graph, constraints, context=ctx)
        assert integer_stats(second.stats) == integer_stats(first.stats)
        assert len(full_runs) == 2
        assert _cut_keys(second) == _cut_keys(first)


class TestContributionTables:
    def test_between_matches_reachability_definition(self):
        """The ``B({w}, o)`` rows, and the output-input mask of a state.

        The search blocks a candidate input ``w`` of output ``o`` when a
        forbidden vertex that is not an input lies strictly between them;
        it builds that test as the ancestor union of ``o``'s forbidden
        ancestors that are not inputs yet.
        """
        constraints = Constraints(max_inputs=4, max_outputs=2)
        rng = random.Random(3)
        blocked_candidates = 0
        for seed in range(10):
            graph = make_random_dag(seed, num_operations=10)
            ctx = EnumerationContext.build(graph, constraints)
            enumerator = IncrementalEnumerator(graph, constraints, context=ctx)
            reach = ctx.reach
            candidates = [v for v in range(ctx.num_nodes) if v != ctx.source]
            for output in ctx.candidate_nodes:
                rows = enumerator._contributions(output)
                assert enumerator._contributions(output) is rows  # built once
                for vertex in range(ctx.num_nodes):
                    assert rows[vertex] == reach.between_mask(1 << vertex, output)
                for inputs_mask in (0, mask_from_ids(rng.sample(candidates, 2))):
                    blocked = reach.union_ancestors(
                        enumerator._forbidden_ancestors[output] & ~inputs_mask
                    )
                    for vertex in candidates:
                        interior = (
                            reach.descendants_mask(vertex)
                            & reach.ancestors_mask(output)
                            & ctx.forbidden_mask
                            & ~inputs_mask
                        )
                        assert bool((blocked >> vertex) & 1) == bool(interior)
                        blocked_candidates += bool(interior)
        assert blocked_candidates > 0

    def test_shared_across_pruning_configs_via_context(self):
        """One context serves every pruning variant, and no run writes to it.

        The contribution rows and the dominator caches belong to each run's
        enumerator, so after any number of runs the context's fields are
        the very objects :meth:`EnumerationContext.build` made.
        """
        constraints = Constraints(max_inputs=3, max_outputs=2)
        graph = diamond()
        ctx = EnumerationContext.build(graph, constraints)
        before = {spec.name: getattr(ctx, spec.name) for spec in dataclasses.fields(ctx)}
        enumerate_cuts(graph, constraints, pruning=FULL_PRUNING, context=ctx)
        enumerate_cuts(graph, constraints, pruning=NO_PRUNING, context=ctx)
        for name, value in before.items():
            assert getattr(ctx, name) is value, name
        for gone in ("lt_calls_performed", "lt_seconds_performed", "contribution_tables"):
            assert not hasattr(ctx, gone), gone


class TestStatelessContext:
    """A run's counters do not depend on earlier runs over its context."""

    def test_second_run_on_one_context_counts_like_the_first(self):
        constraints = Constraints(max_inputs=4, max_outputs=2)
        graph = tree_dfg(4)
        ctx = EnumerationContext.build(graph, constraints)
        first = enumerate_cuts(graph, constraints, context=ctx)
        second = enumerate_cuts(graph, constraints, context=ctx)
        assert first.stats.lt_calls > 0
        assert _cut_keys(second) == _cut_keys(first)
        assert integer_stats(second.stats) == integer_stats(first.stats)
        for result in (first, second):
            assert result.stats.lt_seconds > 0

    def test_context_is_read_only(self):
        ctx = EnumerationContext.build(diamond(), Constraints())
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.forbidden_mask = 0


class TestClosureHelpers:
    def test_popcount_is_bit_count_alias(self):
        assert popcount is int.bit_count
        assert popcount(0b1011001) == 4

    def test_cut_profile_agrees_with_individual_queries(self):
        graph = make_random_dag(5, num_operations=10)
        index = ReachabilityIndex(graph)
        rng = random.Random(5)
        ids = list(graph.node_ids())
        for _ in range(50):
            cut = mask_from_ids(rng.sample(ids, rng.randrange(1, len(ids))))
            inputs, outputs, convex = index.cut_profile(cut)
            assert inputs == index.cut_inputs_mask(cut)
            assert outputs == index.cut_outputs_mask(cut)
            assert convex == index.is_convex_mask(cut)
