"""The ``EnumerationStats.insearch_*`` counters.

The search has no in-search memo, so these three fields are always zero;
they stay on :class:`~repro.core.stats.EnumerationStats` because isebench
reads them.  These tests pin what is left of them: the stored-result
serializer keeps them, and a batch reports the same cuts and the same
counters, zeros included, whether it runs in this process or in a worker
pool, even when structurally identical blocks repeat under other names.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import Constraints
from repro.core.stats import EnumerationStats
from repro.engine import BatchRunner
from repro.memo.store import stats_from_dict, stats_to_dict
from repro.workloads import build_kernel, generate_suite

CONSTRAINTS = Constraints(max_inputs=4, max_outputs=2)

INSEARCH_FIELDS = ("insearch_hits", "insearch_misses", "insearch_evictions")


def _cut_keys(result):
    return sorted(
        (cut.sorted_nodes(), tuple(sorted(cut.inputs)), tuple(sorted(cut.outputs)))
        for cut in result.cuts
    )


def _counters(stats: EnumerationStats) -> dict:
    """Every counter except the wall-clock timings."""
    values = dataclasses.asdict(stats)
    del values["elapsed_seconds"], values["lt_seconds"]
    return values


class TestBatchIntegration:
    @pytest.fixture()
    def suite(self):
        suite = []
        for graph in (
            build_kernel("crc32_step"),
            *generate_suite(sizes=(10, 14), blocks_per_size=1, base_seed=31),
        ):
            suite.append(graph)
            suite.append(graph.copy(name=f"{graph.name}_copy"))
        return suite

    def test_sequential_vs_pool_parity(self, suite):
        sequential = BatchRunner(constraints=CONSTRAINTS, jobs=1).run(suite)
        with BatchRunner(constraints=CONSTRAINTS, jobs=2) as runner:
            pooled = runner.run(suite)
        assert len(sequential.items) == len(pooled.items) == len(suite)
        for seq_item, pool_item in zip(sequential.items, pooled.items):
            assert seq_item.graph_name == pool_item.graph_name
            assert seq_item.ok and pool_item.ok
            assert _cut_keys(seq_item.result) == _cut_keys(pool_item.result)
            assert _counters(seq_item.result.stats) == _counters(
                pool_item.result.stats
            ), seq_item.graph_name
        seq_stats = sequential.total_stats()
        pool_stats = pooled.total_stats()
        assert seq_stats.lt_calls > 0
        for name in INSEARCH_FIELDS:
            assert getattr(seq_stats, name) == getattr(pool_stats, name) == 0


class TestStatsSerialization:
    def test_new_counters_round_trip(self):
        stats = EnumerationStats(
            cuts_found=3, insearch_hits=7, insearch_misses=5, insearch_evictions=2
        )
        restored = stats_from_dict(stats_to_dict(stats))
        assert restored.insearch_hits == 7
        assert restored.insearch_misses == 5
        assert restored.insearch_evictions == 2
        # A record written without the fields reads back as zeros.
        legacy = stats_to_dict(stats)
        for name in INSEARCH_FIELDS:
            del legacy[name]
        restored = stats_from_dict(legacy)
        assert restored.cuts_found == 3
        assert all(getattr(restored, name) == 0 for name in INSEARCH_FIELDS)
