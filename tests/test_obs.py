"""Tests for the observability subsystem: metrics, tracing, export, CLI.

Covers the merge semantics of the metrics registry (label sets, histogram
bucket merges, snapshot/merge wire round-trips), trace-record schema
validation and file round-trips, the worker-snapshot path through the
worker pool (including the sequential-vs-pool stats-parity guarantee),
the ``ResultStore`` lifetime counters, and the ``--trace`` /
``--metrics-json`` / ``metrics`` CLI surface.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.cli import main
from repro.core import Constraints, EnumerationStats, enumerate_cuts
from repro.dfg.builder import diamond, linear_chain
from repro.engine import BatchRunner
from repro.frontend.corpus import build_corpus_suite
from repro.memo.store import ResultStore, StoredResult
from repro.obs import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    Histogram,
    MetricsRegistry,
    Tracer,
    load_metrics,
    read_trace_file,
    runtime as obs_runtime,
    span_coverage,
    to_chrome_trace,
    validate_trace_records,
    write_trace_file,
)
from repro.workloads import (
    SyntheticBlockSpec,
    WorkloadSuite,
    build_kernel,
    generate_basic_block,
)
from tests.conftest import integer_stats, make_random_dag


@pytest.fixture(autouse=True)
def _clean_obs_session():
    """Every test starts and ends without an active observability session."""
    obs_runtime.deactivate()
    yield
    obs_runtime.deactivate()


@pytest.fixture(scope="module")
def obs_suite():
    suite = WorkloadSuite("obs-test")
    suite.add(build_kernel("crc32_step"))
    suite.add(build_kernel("bitcount"))
    suite.add(diamond())
    suite.add(linear_chain(4))
    for seed in range(3):
        suite.add(make_random_dag(seed, num_operations=6))
    return suite


# --------------------------------------------------------------------------- #
# Metrics registry
# --------------------------------------------------------------------------- #
class TestHistogram:
    def test_observe_places_values_into_buckets(self):
        hist = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 100.0):
            hist.observe(value)
        assert hist.counts == [2, 1, 1]  # <=1, <=10, overflow
        assert hist.count == 4
        assert hist.total == pytest.approx(106.2)
        assert hist.mean == pytest.approx(106.2 / 4)

    def test_merge_is_bucket_wise(self):
        a = Histogram(bounds=(1.0, 10.0))
        b = Histogram(bounds=(1.0, 10.0))
        a.observe(0.5)
        b.observe(5.0)
        b.observe(20.0)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.total == pytest.approx(25.5)

    def test_merge_rejects_mismatched_bounds(self):
        a = Histogram(bounds=(1.0, 10.0))
        b = Histogram(bounds=(1.0, 2.0, 10.0))
        with pytest.raises(ValueError, match="bounds"):
            a.merge(b)


class TestMetricsRegistry:
    def test_counters_keep_label_sets_apart(self):
        reg = MetricsRegistry()
        reg.inc("enum.blocks_total", status="fresh")
        reg.inc("enum.blocks_total", status="fresh")
        reg.inc("enum.blocks_total", status="cached")
        assert reg.counter("enum.blocks_total", status="fresh") == 2
        assert reg.counter("enum.blocks_total", status="cached") == 1
        assert reg.counter_total("enum.blocks_total") == 3
        series = reg.counter_series("enum.blocks_total")
        assert set(series) == {(("status", "fresh"),), (("status", "cached"),)}

    def test_gauges_are_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("run.wall_seconds", 1.0)
        reg.set_gauge("run.wall_seconds", 2.5)
        assert reg.gauge("run.wall_seconds") == 2.5

    def test_to_dict_from_dict_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("enum.pruned_total", 4, rule="connectedness")
        reg.set_gauge("run.wall_seconds", 0.125)
        reg.observe("enum.block_seconds", 0.01)
        document = reg.to_dict(meta={"command": "test"})
        assert document["schema"] == METRICS_SCHEMA
        assert document["meta"]["command"] == "test"
        clone = MetricsRegistry.from_dict(document)
        assert clone.counter("enum.pruned_total", rule="connectedness") == 4
        assert clone.gauge("run.wall_seconds") == 0.125
        hist = clone.histogram("enum.block_seconds")
        assert hist.count == 1 and hist.total == pytest.approx(0.01)


# --------------------------------------------------------------------------- #
# Tracer + export
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_span_records_required_fields(self):
        tracer = Tracer()
        with tracer.span("outer", cat="test", graph="g1") as span:
            span.note(cuts=7)
        tracer.instant("tick", cat="test")
        assert validate_trace_records(tracer.records) == []
        span_rec, instant_rec = tracer.records
        assert span_rec["type"] == "span"
        assert span_rec["name"] == "outer"
        assert span_rec["args"] == {"graph": "g1", "cuts": 7}
        assert span_rec["dur"] >= 0
        assert span_rec["pid"] == os.getpid()
        assert instant_rec["type"] == "instant"

    def test_span_closes_on_exception_with_error_arg(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed", cat="test"):
                raise RuntimeError("boom")
        (record,) = tracer.records
        assert "RuntimeError" in record["args"]["error"]

    def test_wire_round_trip_preserves_records(self):
        worker = Tracer()
        with worker.span("worker.block", cat="pool", graph="g"):
            pass
        original = [dict(r) for r in worker.records]
        parent = Tracer()
        parent.merge_wire(worker.wire_records(reset=True))
        assert len(worker) == 0
        assert parent.records == original
        assert validate_trace_records(parent.records) == []

    def test_validate_flags_bad_records(self):
        problems = validate_trace_records(
            [{"type": "span", "name": "x", "cat": "c", "ts": 1, "dur": "long"}]
        )
        assert problems  # missing pid/tid and a non-numeric dur


class TestExport:
    def _records(self):
        tracer = Tracer()
        with tracer.span("cli.run", cat="cli"):
            with tracer.span("inner", cat="test"):
                pass
        tracer.instant("marker", cat="test")
        return tracer.records

    def test_jsonl_round_trip(self, tmp_path):
        records = self._records()
        path = tmp_path / "run.trace.jsonl"
        assert write_trace_file(path, records, {"command": "test"}) == "jsonl"
        meta, loaded = read_trace_file(path)
        assert meta["command"] == "test"
        assert loaded == records

    def test_chrome_trace_structure_and_reingest(self, tmp_path):
        records = self._records()
        document = to_chrome_trace(records, {"command": "test"})
        phases = [event["ph"] for event in document["traceEvents"]]
        assert "M" in phases and "X" in phases and "i" in phases
        assert document["otherData"]["schema"] == TRACE_SCHEMA
        path = tmp_path / "run.trace.json"
        assert write_trace_file(path, records, {"command": "test"}) == "chrome"
        _meta, loaded = read_trace_file(path)
        assert [r["name"] for r in loaded if r["type"] == "span"] == [
            r["name"] for r in records if r["type"] == "span"
        ]
        assert validate_trace_records(loaded) == []


# --------------------------------------------------------------------------- #
# Engine integration: worker snapshots and stats parity
# --------------------------------------------------------------------------- #
class TestEngineIntegration:
    def test_sequential_run_populates_metrics_and_spans(self, obs_suite):
        registry, recorder = obs_runtime.activate()
        report = BatchRunner().run(obs_suite)
        assert registry.counter(
            "enum.blocks_total", status="fresh", algorithm=report.algorithm
        ) == len(obs_suite)
        totals = report.total_stats()
        assert registry.counter("enum.cuts_found_total") == totals.cuts_found
        assert registry.counter("enum.lt_calls_total") == totals.lt_calls
        hist = registry.histogram("enum.block_seconds")
        assert hist is not None and hist.count == len(obs_suite)
        names = {r["name"] for r in recorder.records}
        assert "batch.run" in names and "enum.block" in names

    def test_pool_counters_match_sequential_counters(self, obs_suite):
        registry, _ = obs_runtime.activate()
        BatchRunner(jobs=1).run(obs_suite)
        sequential = registry.counter_series("enum.cuts_found_total")
        sequential_blocks = registry.counter_total("enum.blocks_total")
        obs_runtime.deactivate()

        registry, recorder = obs_runtime.activate()
        with BatchRunner(jobs=2) as runner:
            runner.run(obs_suite)
        assert registry.counter_series("enum.cuts_found_total") == sequential
        assert registry.counter_total("enum.blocks_total") == sequential_blocks
        assert registry.counter("pool.blocks_dispatched_total") == len(obs_suite)
        # Worker spans crossed the wire and carry the *worker's* pid.
        worker_spans = [
            r for r in recorder.records if r["name"] == "worker.block"
        ]
        assert len(worker_spans) == len(obs_suite)
        assert all(r["pid"] != os.getpid() for r in worker_spans)
        assert validate_trace_records(recorder.records) == []

    @pytest.mark.parametrize("jobs", [1, 3, "auto"])
    def test_stats_parity_sequential_vs_pool(self, obs_suite, jobs):
        """Per-block EnumerationStats survive the pool bit for bit, whatever
        its size (``jobs=1`` is a forced one-worker pool).

        This is the guarantee that makes the parent-side metrics recording
        exact: the parent counts each block once, from the stats the pool
        returns, so crash retries must neither drop nor double-count any
        counter.
        """
        sequential = BatchRunner(jobs=1).run(obs_suite)
        with BatchRunner(jobs=jobs, force_pool=True) as runner:
            parallel = runner.run(obs_suite)
        for seq_item, par_item in zip(sequential.items, parallel.items):
            assert seq_item.graph_name == par_item.graph_name
            assert par_item.ok, f"{par_item.graph_name}: {par_item.error}"
            assert integer_stats(seq_item.result.stats) == integer_stats(
                par_item.result.stats
            ), f"stats diverged for {seq_item.graph_name}"

    def test_block_stats_do_not_depend_on_batch_history(self):
        """A block reports the same counters whatever ran before it.

        The twin has the original's structure under another name, so the
        context cache builds it a fresh context; no search state may carry
        over from the original's run and shrink the twin's ``lt_calls``.
        """
        constraints = Constraints(max_inputs=4, max_outputs=2)
        original = generate_basic_block(SyntheticBlockSpec(num_operations=14, seed=3))
        twin = original.copy(name=f"{original.name}_twin")
        report = BatchRunner(constraints=constraints, jobs=1).run([original, twin])
        alone = enumerate_cuts(twin, constraints)
        assert alone.stats.lt_calls > 0
        assert integer_stats(report.items[1].result.stats) == integer_stats(alone.stats)

    def test_sequential_rerun_counts_like_the_first_run(self):
        """Re-running one sequential runner over the same blocks counts again.

        The runner's context cache serves the second run the contexts of
        the first; contexts are read-only, so every block's integer counters
        (``lt_calls`` included) equal its first run's and a pooled run's.
        """
        constraints = Constraints(max_inputs=4, max_outputs=2)
        blocks = list(build_corpus_suite(profile=False))[:6]
        runner = BatchRunner(constraints=constraints, jobs=1)
        first = runner.run(blocks)
        second = runner.run(blocks)
        assert runner.cache.hits == len(blocks)
        with BatchRunner(constraints=constraints, jobs=2) as pool_runner:
            pooled = pool_runner.run(blocks)
        for first_item, second_item, pooled_item in zip(
            first.items, second.items, pooled.items
        ):
            expected = integer_stats(first_item.result.stats)
            assert expected["lt_calls"] > 0
            assert integer_stats(second_item.result.stats) == expected
            assert integer_stats(pooled_item.result.stats) == expected

    def test_pool_block_stats_do_not_depend_on_worker_history(self):
        """A pooled block reports the same counters on a reused pool.

        Workers keep nothing between tasks, so the second run of the same
        blocks through one persistent pool must count exactly what the
        first run and a sequential run count (``lt_calls`` included).
        """
        constraints = Constraints(max_inputs=4, max_outputs=2)
        blocks = [
            generate_basic_block(SyntheticBlockSpec(num_operations=14, seed=seed))
            for seed in range(4)
        ]
        sequential = BatchRunner(constraints=constraints, jobs=1).run(blocks)
        with BatchRunner(constraints=constraints, jobs=1, force_pool=True) as runner:
            first = runner.run(blocks)
            second = runner.run(blocks)
        for seq_item, first_item, second_item in zip(
            sequential.items, first.items, second.items
        ):
            expected = integer_stats(seq_item.result.stats)
            assert expected["lt_calls"] > 0
            assert integer_stats(first_item.result.stats) == expected
            assert integer_stats(second_item.result.stats) == expected

    def test_disabled_obs_keeps_wire_format_plain(self, obs_suite):
        """With observability off, nothing must change on the pool wire."""
        assert not obs_runtime.enabled()
        assert obs_runtime.worker_config() is None
        with BatchRunner(jobs=2) as runner:
            report = runner.run(obs_suite)
        assert all(item.ok for item in report.items)

    def test_worker_snapshot_round_trip_through_runtime(self):
        """absorb_worker_payload folds a worker's drained spans into the
        parent's tracer; the payload carries no metrics."""
        registry, recorder = obs_runtime.activate()
        config = obs_runtime.worker_config()
        assert config == ("obs", 1)

        worker_tracer = Tracer()
        with worker_tracer.span("worker.block", cat="pool"):
            pass
        obs_runtime.absorb_worker_payload(worker_tracer.wire_records(reset=True))
        assert [r["name"] for r in recorder.records] == ["worker.block"]
        assert len(registry) == 0

    def test_ensure_worker_rejects_version_mismatch(self):
        with pytest.raises(ValueError, match="version mismatch"):
            obs_runtime.ensure_worker(("obs", 99))
        with pytest.raises(ValueError, match="not an observability"):
            obs_runtime.ensure_worker(("bogus",))


# --------------------------------------------------------------------------- #
# ResultStore counters and lifetime persistence
# --------------------------------------------------------------------------- #
class TestStoreObservability:
    def _entry(self):
        return StoredResult(
            canonical_hash="c" * 64,
            algorithm="poly-enum-incremental",
            fingerprint="f" * 64,
            masks=[0b101],
            stats=EnumerationStats(cuts_found=1),
        )

    def test_hit_miss_put_metrics(self, tmp_path):
        registry, _ = obs_runtime.activate()
        store = ResultStore(tmp_path / "cache")
        key = ResultStore.make_key("a" * 64, "x", "y")
        assert store.get(key) is None
        store.put(key, self._entry())
        assert store.get(key) is not None
        assert registry.counter("store.misses_total") == 1
        assert registry.counter("store.hits_total") == 1
        assert registry.counter("store.puts_total") == 1

    def test_lifetime_stats_accumulate_across_instances(self, tmp_path):
        root = tmp_path / "cache"
        key = ResultStore.make_key("b" * 64, "x", "y")

        first = ResultStore(root)
        assert first.get(key) is None
        first.put(key, self._entry())
        first.persist_stats()

        second = ResultStore(root)
        assert second.get(key) is not None
        lifetime = second.lifetime_stats()  # persisted + this run's delta
        assert lifetime.lookups == 2
        assert lifetime.hits == 1
        assert lifetime.misses == 1
        assert lifetime.writes == 1
        second.persist_stats()
        second.persist_stats()  # idempotent: the delta was already flushed

        third = ResultStore(root)
        persisted = third.lifetime_stats()
        assert persisted.lookups == 2 and persisted.writes == 1

    def test_sidecar_with_evictions_key_still_loads(self, tmp_path):
        """Sidecars written while the store had an LRU front carry an
        ``evictions`` count; they load, and the next flush drops it."""
        root = tmp_path / "cache"
        root.mkdir()
        sidecar = root / ResultStore.STATS_SIDECAR
        sidecar.write_text(
            json.dumps({"hits": 3, "misses": 2, "writes": 2, "invalid": 1, "evictions": 5})
        )
        store = ResultStore(root)
        lifetime = store.lifetime_stats()
        assert (lifetime.hits, lifetime.misses, lifetime.writes, lifetime.invalid) == (3, 2, 2, 1)
        assert store.get(ResultStore.make_key("e" * 64, "x", "y")) is None
        store.persist_stats()
        assert json.loads(sidecar.read_text()) == {
            "hits": 3, "misses": 3, "writes": 2, "invalid": 1
        }

    def test_clear_removes_lifetime_sidecar(self, tmp_path):
        root = tmp_path / "cache"
        store = ResultStore(root)
        store.get(ResultStore.make_key("c" * 64, "x", "y"))
        store.persist_stats()
        assert (root / ResultStore.STATS_SIDECAR).exists()
        store.clear()
        assert not (root / ResultStore.STATS_SIDECAR).exists()

    def test_sidecar_is_invisible_to_entry_scan(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        store.get(ResultStore.make_key("d" * 64, "x", "y"))
        store.persist_stats()
        assert store.scan()["entries"] == 0
        assert len(store) == 0

    def test_stats_round_trip_keeps_every_counter(self):
        """Serialization must not silently drop EnumerationStats fields."""
        from repro.memo.store import stats_from_dict, stats_to_dict

        stats = EnumerationStats(
            cuts_found=3,
            duplicates=1,
            candidates_checked=11,
            lt_calls=5,
            pick_output_calls=4,
            pick_input_calls=2,
            pruned={"connectedness": 6},
            elapsed_seconds=0.5,
            lt_seconds=0.125,
            insearch_hits=8,
            insearch_misses=9,
            insearch_evictions=10,
        )
        clone = stats_from_dict(stats_to_dict(stats))
        assert clone == stats

    def test_merge_adds_every_counter(self):
        counters = [
            f.name for f in dataclasses.fields(EnumerationStats) if f.name != "pruned"
        ]
        total = EnumerationStats(**{name: 1 for name in counters})
        total.merge(EnumerationStats(**{name: 2 for name in counters}))
        assert {name: getattr(total, name) for name in counters} == {
            name: 3 for name in counters
        }


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
class TestObservabilityCLI:
    def test_ise_writes_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        metrics_path = tmp_path / "run.metrics.json"
        rc = main(
            [
                "ise",
                "sha1_round",
                "--trace",
                str(trace_path),
                "--metrics-json",
                str(metrics_path),
            ]
        )
        assert rc == 0
        assert not obs_runtime.enabled()  # session torn down afterwards

        document = load_metrics(metrics_path)
        assert document["meta"]["command"] == "ise"
        totals = {c["name"] for c in document["counters"]}
        assert "enum.blocks_total" in totals
        assert "ise.instructions_selected_total" in totals

        _meta, records = read_trace_file(trace_path)
        assert validate_trace_records(records) == []
        coverage = span_coverage(records)
        assert coverage is not None
        assert coverage["root"] == "cli.ise"
        assert coverage["coverage"] >= 0.95

    def test_metrics_json_dash_keeps_stdout_machine_readable(self, capsys):
        rc = main(["ise", "sha1_round", "--metrics-json", "-"])
        assert rc == 0
        captured = capsys.readouterr()
        document = json.loads(captured.out)  # stdout is *only* the JSON
        assert document["schema"] == METRICS_SCHEMA
        assert "application speedup" in captured.err  # summary was diverted

    def test_metrics_subcommand_renders_report(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.jsonl"
        metrics_path = tmp_path / "run.metrics.json"
        main(
            [
                "ise",
                "sha1_round",
                "--trace",
                str(trace_path),
                "--metrics-json",
                str(metrics_path),
            ]
        )
        capsys.readouterr()
        rc = main(["metrics", str(metrics_path), "--trace", str(trace_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wall time" in out
        assert "named-span coverage" in out
        assert "dominator arrays     :" in out
        assert "instructions selected" in out

    def test_metrics_subcommand_rejects_non_metrics_file(self, tmp_path):
        bogus = tmp_path / "not-metrics.json"
        bogus.write_text('{"schema": "something-else"}', encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["metrics", str(bogus)])

    def test_enumerate_with_trace_jsonl(self, tmp_path, capsys):
        trace_path = tmp_path / "enum.trace.jsonl"
        rc = main(["enumerate", "bitcount", "--trace", str(trace_path)])
        assert rc == 0
        meta, records = read_trace_file(trace_path)
        assert meta["command"] == "enumerate"
        names = {r["name"] for r in records}
        assert "cli.enumerate" in names and "enum.block" in names

    def test_plain_run_stays_unobserved(self, capsys):
        rc = main(["enumerate", "bitcount"])
        assert rc == 0
        assert not obs_runtime.enabled()
