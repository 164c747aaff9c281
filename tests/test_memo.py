"""Tests of the canonical-form memoization subsystem (``repro.memo``)."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.core.constraints import Constraints
from repro.core.incremental import enumerate_cuts
from repro.core.stats import EnumerationStats
from repro.dfg.builder import DFGBuilder
from repro.dfg.serialization import graph_from_dict, graph_to_dict
from repro.engine.batch import BatchRunner
from repro.memo import (
    ResultStore,
    StoredResult,
    canonical_form,
    canonical_hash,
    permute_graph,
    request_fingerprint,
    stats_from_dict,
    stats_to_dict,
)
from repro.memo.store import STORE_FORMAT_VERSION
from repro.workloads.kernels import build_kernel
from repro.workloads.synthetic import SyntheticBlockSpec, generate_basic_block
from repro.workloads.trees import tree_dfg

CONSTRAINTS = Constraints(max_inputs=4, max_outputs=2)


def _random_graphs():
    """A deterministic mix of synthetic blocks and kernels."""
    graphs = [
        generate_basic_block(
            SyntheticBlockSpec(num_operations=ops, seed=seed)
        )
        for ops, seed in ((12, 1), (18, 2), (24, 3), (15, 4))
    ]
    graphs.append(build_kernel("crc32_step"))
    graphs.append(build_kernel("bitcount"))
    return graphs


def _shuffled(graph, seed, name=None):
    perm = list(range(graph.num_nodes))
    random.Random(seed).shuffle(perm)
    return permute_graph(graph, perm, name=name or f"{graph.name}_p{seed}"), perm


def _duplicated_suite():
    """Two isomorphism classes, each a block, a renamed copy and a permuted copy."""
    bases = [
        build_kernel("crc32_step"),
        generate_basic_block(SyntheticBlockSpec(num_operations=14, seed=9)),
    ]
    blocks = []
    for base in bases:
        blocks.append(base)
        blocks.append(base.copy(name=f"{base.name}_copy"))
        permuted, _ = _shuffled(base, 21)
        blocks.append(permuted)
    return blocks


# --------------------------------------------------------------------------- #
# canon
# --------------------------------------------------------------------------- #
class TestCanonicalForm:
    def test_permutation_invariance_randomized(self):
        """Satellite: random DFGs x random permutations -> identical hash."""
        for graph in _random_graphs():
            reference = canonical_form(graph, CONSTRAINTS)
            assert reference.complete
            for seed in (11, 22, 33):
                permuted, _ = _shuffled(graph, seed)
                form = canonical_form(permuted, CONSTRAINTS)
                assert form.hash == reference.hash
                assert form.complete

    def test_remapped_cuts_bit_identical_to_direct_enumeration(self):
        """Satellite: remapping the reference cut masks through the canonical
        permutations reproduces the permuted graph's own enumeration."""
        for graph in _random_graphs():
            reference_form = canonical_form(graph, CONSTRAINTS)
            reference_masks = [
                cut.node_mask() for cut in enumerate_cuts(graph, CONSTRAINTS).cuts
            ]
            for seed in (5, 6):
                permuted, _ = _shuffled(graph, seed)
                form = canonical_form(permuted, CONSTRAINTS)
                remapped = {
                    form.from_canonical_mask(reference_form.to_canonical_mask(mask))
                    for mask in reference_masks
                }
                direct = {
                    cut.node_mask()
                    for cut in enumerate_cuts(permuted, CONSTRAINTS).cuts
                }
                assert remapped == direct

    def test_names_and_attributes_do_not_affect_hash(self):
        builder = DFGBuilder("named")
        a, b = builder.inputs("a", "b")
        builder.xor(builder.add(a, b), b, live_out=True)
        first = builder.build()
        second = first.copy(name="renamed")
        for node in second.nodes():
            node.name = f"other_{node.node_id}"
            node.attributes["comment"] = "ignored"
        assert canonical_hash(first) == canonical_hash(second)

    def test_flags_and_structure_affect_hash(self):
        builder = DFGBuilder("base")
        a, b = builder.inputs("a", "b")
        t = builder.add(a, b)
        builder.xor(t, b, live_out=True)
        graph = builder.build()
        base = canonical_hash(graph)

        flagged = graph.copy()
        flagged.set_live_out(t, True)
        assert canonical_hash(flagged) != base

        forbidden = graph.copy()
        forbidden.set_forbidden(t, True)
        assert canonical_hash(forbidden) != base

    def test_extra_forbidden_is_folded_into_the_hash(self):
        """``extra_forbidden`` names raw vertex ids, so it must shift the
        canonical hash — otherwise isomorphic graphs with incompatible
        forbidden sets would falsely share cache entries."""
        graph = build_kernel("crc32_step")
        operation = graph.candidate_nodes()[0]
        plain = canonical_hash(graph, CONSTRAINTS)
        constrained = canonical_hash(
            graph, CONSTRAINTS.with_forbidden([operation])
        )
        assert plain != constrained

    def test_non_isomorphic_graphs_differ(self):
        specs = [SyntheticBlockSpec(num_operations=14, seed=s) for s in range(6)]
        hashes = {canonical_hash(generate_basic_block(spec)) for spec in specs}
        assert len(hashes) == len(specs)

    def test_mask_roundtrip(self):
        graph = build_kernel("bitcount")
        form = canonical_form(graph)
        for mask in (0, 1, 0b1010, (1 << graph.num_nodes) - 1):
            assert form.from_canonical_mask(form.to_canonical_mask(mask)) == mask

    def test_mask_remap_matches_the_permutation_on_random_masks(self):
        rng = random.Random(11)
        graphs = _random_graphs()
        graphs += [_shuffled(graph, seed)[0] for seed, graph in enumerate(graphs)]
        forms = [canonical_form(graph, CONSTRAINTS) for graph in graphs]
        fallback = canonical_form(tree_dfg(3), backtrack_budget=0)
        assert not fallback.complete
        for form in forms + [fallback]:
            n, permutation = form.num_nodes, form.permutation
            for _ in range(40):
                mask = rng.getrandbits(n)
                canonical = form.to_canonical_mask(mask)
                assert canonical == sum(1 << permutation[v] for v in range(n) if mask >> v & 1)
                assert form.from_canonical_mask(canonical) == mask
                assert form.from_canonical_mask(mask) == sum(
                    1 << v for v in range(n) if mask >> permutation[v] & 1
                )
                # Bits past the graph's vertices are dropped, as before.
                assert form.to_canonical_mask(mask | (1 << (n + 3))) == canonical

    def test_budget_fallback_is_flagged_and_deterministic(self):
        graph = build_kernel("crc32_step")
        form = canonical_form(graph, backtrack_budget=0)
        again = canonical_form(graph, backtrack_budget=0)
        if not form.complete:
            assert form.hash == again.hash
            assert form.permutation == tuple(range(graph.num_nodes))
            assert form.hash != canonical_form(graph).hash

    def test_permute_graph_rejects_non_permutation(self):
        graph = build_kernel("bitcount")
        with pytest.raises(ValueError):
            permute_graph(graph, [0] * graph.num_nodes)


# --------------------------------------------------------------------------- #
# store
# --------------------------------------------------------------------------- #
class TestResultStore:
    def _entry(self, masks=(0b101, 0b11)):
        stats = EnumerationStats(cuts_found=len(masks), lt_calls=7)
        return StoredResult(
            canonical_hash="c" * 64,
            algorithm="poly-enum-incremental",
            fingerprint="f" * 64,
            masks=list(masks),
            stats=stats,
        )

    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = ResultStore.make_key("c" * 64, "poly-enum-incremental", "f" * 64)
        assert store.get(key) is None
        store.put(key, self._entry())
        loaded = ResultStore(tmp_path / "cache").get(key)  # fresh instance: from disk
        assert loaded is not None
        assert loaded.masks == [0b101, 0b11]
        assert loaded.stats.lt_calls == 7

    def test_sharded_layout_and_scan(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = ResultStore.make_key("a" * 64, "x", "y")
        store.put(key, self._entry())
        path = store.path_of(key)
        assert path.exists()
        assert path.parent.parent.name == key[:2]
        assert path.parent.name == key[2:4]
        info = store.scan()
        assert info["entries"] == 1
        assert info["total_bytes"] > 0

    def test_unknown_format_version_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = ResultStore.make_key("b" * 64, "x", "y")
        store.put(key, self._entry())
        payload = json.loads(store.path_of(key).read_text())
        payload["format_version"] = STORE_FORMAT_VERSION + 1
        store.path_of(key).write_text(json.dumps(payload))
        assert store.get(key) is None
        assert store.stats.invalid == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = ResultStore.make_key("d" * 64, "x", "y")
        store.put(key, self._entry())
        store.path_of(key).write_text("{ not json")
        assert store.get(key) is None
        assert store.stats.invalid == 1

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        for i in range(3):
            store.put(ResultStore.make_key(f"{i}" * 64, "x", "y"), self._entry())
        assert len(store) == 3
        assert store.clear() == 3
        assert len(store) == 0

    def test_clear_prunes_empty_shard_directories(self, tmp_path):
        root = tmp_path / "cache"
        store = ResultStore(root)
        for i in range(3):
            store.put(ResultStore.make_key(f"{i}" * 64, "x", "y"), self._entry())
        assert any(root.iterdir())
        store.clear()
        # `cache clear` genuinely empties the root: no stranded ab/cd dirs.
        assert list(root.iterdir()) == []

    def test_clear_keeps_shards_with_foreign_files(self, tmp_path):
        root = tmp_path / "cache"
        store = ResultStore(root)
        key = ResultStore.make_key("e" * 64, "x", "y")
        store.put(key, self._entry())
        foreign = store.path_of(key).parent / "not-an-entry.txt"
        foreign.write_text("keep me")
        assert store.clear() == 1
        assert foreign.exists()

    def test_stats_dict_roundtrip(self):
        stats = EnumerationStats(cuts_found=3, lt_calls=9, elapsed_seconds=0.5)
        stats.count_pruned("output_output", 4)
        rebuilt = stats_from_dict(stats_to_dict(stats))
        assert rebuilt == stats

    def test_request_fingerprint_sensitivity(self):
        base = request_fingerprint(CONSTRAINTS)
        assert base == request_fingerprint(Constraints(max_inputs=4, max_outputs=2))
        assert base != request_fingerprint(Constraints(max_inputs=3, max_outputs=2))
        from repro.core.pruning import NO_PRUNING

        assert base != request_fingerprint(CONSTRAINTS, NO_PRUNING)


class TestConstraintsSerialization:
    def test_dict_roundtrip(self):
        constraints = Constraints(
            max_inputs=3,
            max_outputs=1,
            allow_memory_ops=True,
            connected_only=True,
            max_depth=5,
            extra_forbidden=frozenset({4, 2}),
        )
        assert Constraints.from_dict(constraints.to_dict()) == constraints

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown constraint"):
            Constraints.from_dict({"max_inputs": 4, "bogus": 1})

    def test_fingerprint_tracks_equality(self):
        first = Constraints(extra_forbidden=frozenset({1, 2}))
        second = Constraints(extra_forbidden=frozenset({2, 1}))
        assert first.fingerprint() == second.fingerprint()
        assert first.fingerprint() != Constraints(max_depth=3).fingerprint()


class TestSchemaVersion:
    def test_dict_carries_version(self):
        graph = build_kernel("bitcount")
        data = graph_to_dict(graph)
        assert data["version"] == 1
        rebuilt = graph_from_dict(data)
        assert rebuilt.num_nodes == graph.num_nodes

    def test_versionless_dict_still_loads(self):
        data = graph_to_dict(build_kernel("bitcount"))
        del data["version"]
        assert graph_from_dict(data).num_nodes > 0

    def test_unsupported_version_names_the_graph(self):
        data = graph_to_dict(build_kernel("bitcount"))
        data["version"] = 99
        with pytest.raises(ValueError, match="'bitcount'.*version 99"):
            graph_from_dict(data)


# --------------------------------------------------------------------------- #
# engine integration
# --------------------------------------------------------------------------- #
class TestBatchRunnerStore:
    def test_same_graph_warm_run_is_bit_identical_including_order(self, tmp_path):
        graph = build_kernel("crc32_step")
        cold = BatchRunner(
            constraints=CONSTRAINTS, store=ResultStore(tmp_path / "c")
        ).run([graph])
        warm_store = ResultStore(tmp_path / "c")
        warm = BatchRunner(constraints=CONSTRAINTS, store=warm_store).run([graph])
        assert not cold.items[0].cached
        assert warm.items[0].cached
        assert [c.nodes for c in warm.items[0].result.cuts] == [
            c.nodes for c in cold.items[0].result.cuts
        ]
        assert [c.inputs for c in warm.items[0].result.cuts] == [
            c.inputs for c in cold.items[0].result.cuts
        ]
        assert warm_store.stats.hits == 1

    def test_isomorph_hits_produce_identical_cut_sets(self, tmp_path):
        graph = build_kernel("bitcount")
        permuted, _ = _shuffled(graph, 17)
        store = ResultStore(tmp_path / "c")
        BatchRunner(constraints=CONSTRAINTS, store=store).run([graph])
        warm = BatchRunner(
            constraints=CONSTRAINTS, store=ResultStore(tmp_path / "c")
        ).run([permuted])
        assert warm.items[0].cached
        direct = BatchRunner(constraints=CONSTRAINTS).run([permuted])
        assert warm.items[0].result.node_sets() == direct.items[0].result.node_sets()

    def test_different_algorithm_or_constraints_miss(self, tmp_path):
        graph = build_kernel("bitcount")
        store = ResultStore(tmp_path / "c")
        BatchRunner(constraints=CONSTRAINTS, store=store).run([graph])
        other_algo = BatchRunner(
            algorithm="exhaustive", constraints=CONSTRAINTS, store=store
        ).run([graph])
        assert not other_algo.items[0].cached
        other_constraints = BatchRunner(
            constraints=Constraints(max_inputs=2, max_outputs=1), store=store
        ).run([graph])
        assert not other_constraints.items[0].cached

    def test_cold_run_reuses_results_within_the_batch(self, tmp_path):
        """Isomorphic duplicates inside one run enumerate once per class, and
        every member gets the cut set of its own direct enumeration."""
        blocks = _duplicated_suite()
        direct = [enumerate_cuts(graph, CONSTRAINTS).node_sets() for graph in blocks]
        for jobs in (1, 2):
            store = ResultStore(tmp_path / f"jobs{jobs}")
            with BatchRunner(constraints=CONSTRAINTS, jobs=jobs, store=store) as runner:
                report = runner.run(blocks)
            assert store.stats.writes == 2  # one per isomorphism class
            assert [item.cached for item in report.items] == [
                False, True, True, False, True, True
            ]
            assert [item.result.node_sets() for item in report.items] == direct

    def test_total_stats_count_only_blocks_enumerated_in_the_run(self, tmp_path):
        """Store hits carry their writer's stats; they are not work done here."""
        base = build_kernel("crc32_step")
        permuted, _ = _shuffled(base, 21)
        blocks = [base, base.copy(name="crc32_step_copy"), permuted]

        def counters(stats):
            return {
                spec.name: getattr(stats, spec.name)
                for spec in dataclasses.fields(stats)
                if not isinstance(getattr(stats, spec.name), float)
            }

        one_search = counters(enumerate_cuts(base, CONSTRAINTS).stats)
        assert one_search["lt_calls"] > 0
        cold = BatchRunner(
            constraints=CONSTRAINTS, store=ResultStore(tmp_path / "c")
        ).run(blocks)
        assert counters(cold.total_stats()) == one_search
        assert "2 block(s) served from the store" in cold.summary()
        warm = BatchRunner(
            constraints=CONSTRAINTS, store=ResultStore(tmp_path / "c")
        ).run(blocks)
        assert counters(warm.total_stats()) == counters(EnumerationStats())
        assert warm.total_stats().elapsed_seconds == 0.0
        assert warm.total_cuts() == cold.total_cuts()
        assert "3 block(s) served from the store" in warm.summary()

    def test_failed_leader_does_not_stall_followers(self, tmp_path):
        """Every copy of a class that cannot be enumerated reports its error."""
        big = generate_basic_block(SyntheticBlockSpec(num_operations=40, seed=1))
        blocks = [big, big.copy(name="big_copy")]
        report = BatchRunner(
            algorithm="brute-force",
            constraints=CONSTRAINTS,
            store=ResultStore(tmp_path / "c"),
        ).run(blocks)
        assert all(not item.ok and item.error for item in report.items)

    def test_parallel_run_uses_and_fills_the_store(self, tmp_path):
        graphs = [
            generate_basic_block(SyntheticBlockSpec(num_operations=12, seed=s))
            for s in (1, 2, 3)
        ]
        store = ResultStore(tmp_path / "c")
        cold = BatchRunner(constraints=CONSTRAINTS, jobs=2, store=store).run(graphs)
        assert all(item.ok and not item.cached for item in cold.items)
        warm = BatchRunner(
            constraints=CONSTRAINTS, jobs=2, store=ResultStore(tmp_path / "c")
        ).run(graphs)
        assert all(item.cached for item in warm.items)
        for cold_item, warm_item in zip(cold.items, warm.items):
            assert warm_item.result.node_sets() == cold_item.result.node_sets()

    def test_warm_ise_selection_matches_uncached_across_isomorphs(self, tmp_path):
        """Instruction selection must not depend on cache history: a block
        served from an isomorphic writer's entry selects the same cuts as a
        direct run."""
        from repro.ise import BlockProfile, identify_instruction_set_extension
        from repro.ise.selection import SelectionConfig

        base = build_kernel("crc32_step")
        permuted, _ = _shuffled(base, 41)
        store = ResultStore(tmp_path / "c")
        BatchRunner(constraints=CONSTRAINTS, store=store).run([base])
        selection = SelectionConfig(max_instructions=2)
        cached = identify_instruction_set_extension(
            [BlockProfile(permuted)],
            CONSTRAINTS,
            selection=selection,
            store=ResultStore(tmp_path / "c"),
        )
        direct = identify_instruction_set_extension(
            [BlockProfile(permuted)], CONSTRAINTS, selection=selection
        )
        assert [s.cut.nodes for s in cached.blocks[0].selected] == [
            s.cut.nodes for s in direct.blocks[0].selected
        ]
        assert cached.application_speedup == direct.application_speedup


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestCacheCli:
    def test_enumerate_warm_and_cache_commands(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        assert main(["enumerate", "bitcount", "--cache-dir", cache_dir]) == 0
        cold_out = capsys.readouterr().out
        assert main(["enumerate", "bitcount", "--cache-dir", cache_dir]) == 0
        warm_out = capsys.readouterr().out
        assert warm_out == cold_out

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries         : 1" in capsys.readouterr().out

        assert main(["cache", "warm", "bitcount", "crc32_step", "--cache-dir", cache_dir]) == 0
        assert "1 already cached" in capsys.readouterr().out

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 2" in capsys.readouterr().out

    def test_no_cache_flag_disables_store(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        assert (
            main(["enumerate", "bitcount", "--cache-dir", cache_dir, "--no-cache"])
            == 0
        )
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries         : 0" in capsys.readouterr().out

    def test_cache_stats_without_dir_fails(self, monkeypatch):
        from repro.cli import CACHE_ENV_VAR, main

        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        with pytest.raises(SystemExit):
            main(["cache", "stats"])
