"""The unified benchmark harness: schema, compare gates, ledger, CLI.

The harness replaced five hand-written CI gate re-checks with one
mechanism, so these tests pin down exactly the behaviours CI now rests on:
a synthetic regression against a committed baseline must fail ``repro
bench compare --against-committed`` (and an improvement must not), every
committed ``BENCH_*.json`` must be a ``repro-bench-1`` record of a ``ci``
benchmark, the ledger must stay append-only and idempotent, and ``bench
run --json -`` must keep stdout machine-parseable.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.perf import (
    BENCH_SCHEMA,
    BenchRecord,
    Benchmark,
    MetricSpec,
    MetricValue,
    append_records,
    benchmark_names,
    compare_records,
    comparison_problems,
    environment_fingerprint,
    fingerprint_digest,
    get_benchmark,
    history_table,
    interleaved_timings,
    latest_by_benchmark,
    load_history,
    load_record_file,
    paired_overhead,
    record_key,
    register,
    run_registered,
    time_callable,
    unregister,
    validate_record,
)
from repro.perf.measure import TimingResult
from repro.perf.schema import NOISE_SIGMAS, check_gates

RECORDS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def make_record(
    benchmark: str = "synthetic_gate",
    value: float = 10.0,
    mad: float = None,
    scale: str = "small",
) -> BenchRecord:
    return BenchRecord(
        benchmark=benchmark,
        scale=scale,
        env=environment_fingerprint(scale),
        metrics={
            "speedup": MetricValue(value, "x", "higher", mad=mad),
            "seconds": MetricValue(1.0, "s", "lower"),
        },
        created_unix=1e9,
    )


SYNTHETIC_SPECS = (
    MetricSpec("speedup", "x", better="higher", gate_min=2.0, rel_tolerance=0.1),
    MetricSpec("seconds", "s", better="lower"),
)


@pytest.fixture
def synthetic_benchmark():
    """A registered benchmark with one gated metric; unregistered afterwards."""
    calls = {"setup": 0, "measure": 0, "teardown": 0}

    def setup(scale):
        calls["setup"] += 1
        return {"scale": scale}

    def measure(state):
        calls["measure"] += 1
        return {"speedup": 5.0, "seconds": (0.5, 0.01)}, {"detail": state["scale"]}

    def teardown(state):
        calls["teardown"] += 1

    bench = Benchmark(
        name="synthetic_gate",
        title="synthetic harness-test benchmark",
        suites=("testonly",),
        metrics=SYNTHETIC_SPECS,
        setup=setup,
        measure=measure,
        teardown=teardown,
    )
    register(bench)
    try:
        yield bench, calls
    finally:
        unregister("synthetic_gate")


# --------------------------------------------------------------------------- #
# schema
# --------------------------------------------------------------------------- #
class TestSchema:
    def test_record_round_trip(self):
        record = make_record(mad=0.2)
        clone = BenchRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert clone.benchmark == record.benchmark
        assert clone.scale == record.scale
        assert clone.metrics["speedup"].value == 10.0
        assert clone.metrics["speedup"].mad == 0.2
        assert clone.metrics["seconds"].better == "lower"
        assert clone.env == record.env
        assert clone.schema == BENCH_SCHEMA

    def test_validate_record_rejects_malformed(self):
        good = make_record().to_dict()
        assert validate_record(good) == []
        assert validate_record([]) != []
        assert validate_record({}) != []
        bad_schema = dict(good, schema="repro-bench-0")
        assert any("schema" in p for p in validate_record(bad_schema))
        bad_metric = json.loads(json.dumps(good))
        bad_metric["metrics"]["speedup"]["value"] = "fast"
        assert any("value" in p for p in validate_record(bad_metric))
        with pytest.raises(ValueError):
            BenchRecord.from_dict(bad_schema)

    def test_informational_metric_cannot_carry_gates(self):
        with pytest.raises(ValueError):
            MetricSpec("ratio", "x", better="none", gate_min=1.0)
        with pytest.raises(ValueError):
            MetricSpec("ratio", "x", better="wrong")

    def test_absolute_gates_widen_by_measured_noise(self):
        spec = MetricSpec("overhead", "ratio", better="lower", gate_max=0.03)

        def record_with(value, mad):
            return BenchRecord(
                benchmark="noisy",
                scale="small",
                env={},
                metrics={
                    "overhead": MetricValue(
                        value=value, unit="ratio", better="lower", mad=mad
                    )
                },
                created_unix=1e9,
            )

        # Past the ceiling, but within NOISE_SIGMAS MADs of it: no problem.
        assert check_gates(record_with(0.06, 0.02), (spec,)) == []
        # Past the ceiling by more than the noise margin: fails, and the
        # message says how much slack the noise bought.
        problems = check_gates(record_with(0.06, 0.005), (spec,))
        assert len(problems) == 1 and "noise margin" in problems[0]
        # No noise estimate: the gate is exact, as before.
        assert check_gates(record_with(0.031, None), (spec,)) != []
        assert NOISE_SIGMAS == 3.0


# --------------------------------------------------------------------------- #
# measurement helpers
# --------------------------------------------------------------------------- #
class TestMeasure:
    def test_time_callable_counts_runs(self):
        runs = []
        result = time_callable(lambda: runs.append(1), repeats=3, warmup=2)
        assert len(runs) == 5
        assert len(result.samples) == 3
        assert result.best == min(result.samples)
        assert result.mad >= 0.0

    def test_interleaved_timings_runs_every_variant_per_round(self):
        order = []
        timings = interleaved_timings(
            {"a": lambda: order.append("a"), "b": lambda: order.append("b")},
            repeats=3,
            warmup=1,
        )
        assert order == ["a", "b"] * 4
        assert set(timings) == {"a", "b"}

    def test_paired_overhead_resists_outlier_round(self):
        # One lucky-fast denominator round: min-ratio sees +100%; the
        # median of per-round ratios stays at the true ~0%.
        denominator = TimingResult.from_samples([0.1, 0.2, 0.2, 0.2, 0.2])
        numerator = TimingResult.from_samples([0.2, 0.2, 0.2, 0.2, 0.2])
        min_ratio = numerator.best / denominator.best - 1.0
        overhead, mad = paired_overhead(numerator, denominator)
        assert min_ratio == pytest.approx(1.0)
        assert overhead == pytest.approx(0.0)
        assert mad >= 0.0
        with pytest.raises(ValueError):
            paired_overhead(numerator, TimingResult.from_samples([0.1]))


# --------------------------------------------------------------------------- #
# registry + run_registered
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_run_registered_runs_phases_and_passes_gates(self, synthetic_benchmark):
        _, calls = synthetic_benchmark
        outcome = run_registered("synthetic_gate", "small")
        assert outcome.ok, outcome.problems
        assert calls == {"setup": 1, "measure": 1, "teardown": 1}
        assert outcome.record.metrics["speedup"].value == 5.0
        assert outcome.record.metrics["seconds"].mad == 0.01
        assert outcome.record.env["scale"] == "small"
        assert "synthetic_gate" in outcome.summary()

    def test_run_registered_reports_gate_violation(self, synthetic_benchmark):
        bench, _ = synthetic_benchmark
        failing = Benchmark(
            name="synthetic_gate",
            title=bench.title,
            suites=bench.suites,
            metrics=bench.metrics,
            setup=bench.setup,
            measure=lambda state: ({"speedup": 1.0, "seconds": 0.5}, {}),
            teardown=bench.teardown,
        )
        register(failing, replace=True)
        outcome = run_registered("synthetic_gate", "small")
        assert not outcome.ok
        assert any("floor" in p for p in outcome.problems)
        assert "FAIL" in outcome.summary()

    def test_run_registered_flags_undeclared_metrics(self, synthetic_benchmark):
        bench, _ = synthetic_benchmark
        chatty = Benchmark(
            name="synthetic_gate",
            title=bench.title,
            suites=bench.suites,
            metrics=bench.metrics,
            setup=bench.setup,
            measure=lambda state: ({"speedup": 5.0, "surprise": 1.0}, {}),
            teardown=bench.teardown,
        )
        register(chatty, replace=True)
        outcome = run_registered("synthetic_gate", "small")
        assert any("undeclared" in p for p in outcome.problems)

    def test_teardown_runs_when_measure_raises(self, synthetic_benchmark):
        bench, calls = synthetic_benchmark

        def broken(state):
            raise RuntimeError("measurement exploded")

        register(
            Benchmark(
                name="synthetic_gate",
                title=bench.title,
                suites=bench.suites,
                metrics=bench.metrics,
                setup=bench.setup,
                measure=broken,
                teardown=bench.teardown,
            ),
            replace=True,
        )
        with pytest.raises(RuntimeError):
            run_registered("synthetic_gate", "small")
        assert calls["teardown"] == 1

    def test_duplicate_registration_rejected(self, synthetic_benchmark):
        bench, _ = synthetic_benchmark
        with pytest.raises(ValueError):
            register(bench)

    def test_ci_suite_covers_every_committed_benchmark(self):
        names = benchmark_names("ci")
        paths = sorted(RECORDS_DIR.glob("BENCH_*.json"))
        assert paths
        for path in paths:
            record = BenchRecord.from_dict(json.loads(path.read_text()))
            assert path.name == f"BENCH_{record.benchmark}.json"
            assert record.benchmark in names, path.name
        assert get_benchmark("core").spec("median_speedup_corpus_mibench").gate_min == 3.0


# --------------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------------- #
class TestCompare:
    def test_load_record_file_reads_native_records_only(self, tmp_path):
        path = tmp_path / "BENCH_synthetic_gate.json"
        path.write_text(json.dumps(make_record().to_dict()))
        loaded = load_record_file(path)
        assert loaded.metrics["speedup"].value == 10.0
        pre_schema = tmp_path / "BENCH_memo.json"
        pre_schema.write_text(json.dumps({"benchmark": "memo", "warm_speedup": 3.0}))
        with pytest.raises(ValueError, match="repro-bench-1"):
            load_record_file(pre_schema)

    def test_verdicts(self, synthetic_benchmark):
        baseline = make_record(value=10.0)
        same = compare_records(baseline, make_record(value=10.2))
        by_name = {d.metric: d for d in same}
        assert by_name["speedup"].verdict == "ok"  # within 10% tolerance
        # seconds has no rel_tolerance: never gates relative movement.
        assert by_name["seconds"].verdict == "ok"

        worse = compare_records(baseline, make_record(value=8.0))
        assert {d.metric: d for d in worse}["speedup"].verdict == "regressed"
        better = compare_records(baseline, make_record(value=12.0))
        assert {d.metric: d for d in better}["speedup"].verdict == "improved"

        current = make_record(value=8.0)
        del current.metrics["seconds"]
        current.metrics["extra_metric"] = MetricValue(1.0, "", "none")
        verdicts = {d.metric: d.verdict for d in compare_records(baseline, current)}
        assert verdicts["seconds"] == "missing"
        assert verdicts["extra_metric"] == "new"

    def test_noise_widens_tolerance(self, synthetic_benchmark):
        baseline = make_record(value=10.0)
        # An 20% drop fails at the declared 10% tolerance...
        noisy_fail = comparison_problems(baseline, make_record(value=8.0))
        assert any("regressed" in p for p in noisy_fail)
        # ...but a MAD of 1.0 widens it by 3 * 1.0/8.0 = 37.5 points.
        noisy_ok = comparison_problems(baseline, make_record(value=8.0, mad=1.0))
        assert not any("regressed" in p for p in noisy_ok)

    def test_comparison_problems_include_absolute_gates(self, synthetic_benchmark):
        baseline = make_record(value=2.2)
        problems = comparison_problems(baseline, make_record(value=2.1))
        assert not problems
        below_floor = comparison_problems(baseline, make_record(value=1.0))
        assert any("floor" in p for p in below_floor)


# --------------------------------------------------------------------------- #
# ledger
# --------------------------------------------------------------------------- #
class TestLedger:
    def test_append_is_idempotent(self, tmp_path):
        ledger = tmp_path / "BENCH_history.jsonl"
        first = make_record(value=10.0)
        second = make_record(value=11.0)
        assert append_records(ledger, [first, second]) == (2, 0)
        assert append_records(ledger, [first, second]) == (0, 2)
        records, problems = load_history(ledger)
        assert problems == []
        assert [r.metrics["speedup"].value for r in records] == [10.0, 11.0]
        assert record_key(first) != record_key(second)

    def test_record_key_ignores_timestamp(self):
        a = make_record(value=10.0)
        b = make_record(value=10.0)
        b.created_unix = a.created_unix + 1000
        assert record_key(a) == record_key(b)

    def test_malformed_ledger_lines_reported_not_fatal(self, tmp_path):
        ledger = tmp_path / "BENCH_history.jsonl"
        append_records(ledger, [make_record()])
        with ledger.open("a") as handle:
            handle.write('{"schema": "nope"}\n')
        records, problems = load_history(ledger)
        assert len(records) == 1
        assert len(problems) == 1
        with pytest.raises(ValueError):
            load_history(ledger, strict=True)

    def test_latest_by_benchmark_prefers_newest(self, tmp_path):
        old = make_record(value=10.0)
        old.created_unix = 1.0
        new = make_record(value=12.0)
        new.created_unix = 2.0
        other = make_record(benchmark="other_bench", value=3.0)
        latest = latest_by_benchmark([old, new, other])
        assert [r.benchmark for r in latest] == ["other_bench", "synthetic_gate"]
        assert latest[1].metrics["speedup"].value == 12.0

    def test_history_labels_lifted_rows_by_their_source_file(self):
        records, problems = load_history(RECORDS_DIR / "BENCH_history.jsonl")
        assert not problems
        lifted = [r for r in records if "legacy_source" in r.extra]
        assert len(lifted) == 8
        lines = history_table(lifted).splitlines()
        for record, line in zip(lifted, lines):
            assert f"[{record.extra['legacy_source']}]" in line

    def test_fingerprint_digest_tracks_comparability_fields(self):
        env = environment_fingerprint("small")
        assert fingerprint_digest(env) == fingerprint_digest(dict(env, hostname="x"))
        assert fingerprint_digest(env) != fingerprint_digest(dict(env, cpu_count=99))


# --------------------------------------------------------------------------- #
# CLI: the acceptance criteria
# --------------------------------------------------------------------------- #
class TestBenchCli:
    def test_compare_gate_fails_on_synthetic_regression(
        self, synthetic_benchmark, tmp_path, capsys
    ):
        """The load-bearing property: a regression vs the committed baseline
        must make ``bench compare --against-committed`` exit nonzero."""
        (tmp_path / "BENCH_synthetic_gate.json").write_text(
            json.dumps(make_record(value=10.0).to_dict())
        )
        current = tmp_path / "current.json"
        current.write_text(json.dumps(make_record(value=8.0).to_dict()))
        rc = cli_main(
            [
                "bench",
                "compare",
                str(current),
                "--against-committed",
                "--records-dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "regressed" in out

    def test_compare_gate_passes_on_improvement(
        self, synthetic_benchmark, tmp_path, capsys
    ):
        (tmp_path / "BENCH_synthetic_gate.json").write_text(
            json.dumps(make_record(value=10.0).to_dict())
        )
        current = tmp_path / "current.json"
        current.write_text(json.dumps(make_record(value=12.0).to_dict()))
        rc = cli_main(
            [
                "bench",
                "compare",
                str(current),
                "--against-committed",
                "--records-dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "improved" in out
        assert "ok: within gates and tolerances" in out

    def test_compare_missing_committed_baseline_fails(
        self, synthetic_benchmark, tmp_path, capsys
    ):
        current = tmp_path / "current.json"
        current.write_text(json.dumps(make_record(value=12.0).to_dict()))
        rc = cli_main(
            [
                "bench",
                "compare",
                str(current),
                "--against-committed",
                "--records-dir",
                str(tmp_path),
            ]
        )
        assert rc == 1
        assert "no committed baseline" in capsys.readouterr().out

    def test_bench_run_reports_an_unreadable_committed_baseline(
        self, synthetic_benchmark, tmp_path, capsys
    ):
        (tmp_path / "BENCH_synthetic_gate.json").write_text(
            json.dumps({"benchmark": "synthetic_gate", "speedup": 5.0})
        )
        rc = cli_main(
            [
                "bench",
                "run",
                "synthetic_gate",
                "--records-dir",
                str(tmp_path),
                "--compare-against-committed",
                "--no-ledger",
            ]
        )
        assert rc == 1
        assert "BENCH_synthetic_gate.json is unreadable" in capsys.readouterr().err

    def test_compare_two_record_files(self, synthetic_benchmark, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(make_record(value=10.0).to_dict()))
        b.write_text(json.dumps(make_record(value=5.0).to_dict()))
        assert cli_main(["bench", "compare", str(a), str(b)]) == 1
        assert "regressed" in capsys.readouterr().out
        assert cli_main(["bench", "compare", str(a), str(a)]) == 0

    def test_bench_run_writes_ledger_and_json_stdout_stays_pure(
        self, synthetic_benchmark, tmp_path, capsys
    ):
        rc = cli_main(
            [
                "bench",
                "run",
                "synthetic_gate",
                "--records-dir",
                str(tmp_path),
                "--json",
                "-",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        # stdout is exactly one machine-parseable JSON document ...
        document = json.loads(captured.out)
        assert document["schema"] == "repro-bench-run-1"
        assert document["ok"] is True
        assert document["benchmarks"] == ["synthetic_gate"]
        assert document["records"][0]["metrics"]["speedup"]["value"] == 5.0
        # ... progress went to stderr, and the ledger was written.
        assert "bench synthetic_gate" in captured.err
        records, _ = load_history(tmp_path / "BENCH_history.jsonl")
        assert [r.benchmark for r in records] == ["synthetic_gate"]

    def test_bench_run_write_records_then_compare_round_trip(
        self, synthetic_benchmark, tmp_path, capsys
    ):
        rc = cli_main(
            [
                "bench",
                "run",
                "synthetic_gate",
                "--records-dir",
                str(tmp_path),
                "--write-records",
                "--no-ledger",
            ]
        )
        assert rc == 0
        committed = tmp_path / "BENCH_synthetic_gate.json"
        assert committed.exists()
        capsys.readouterr()
        rc = cli_main(
            [
                "bench",
                "run",
                "synthetic_gate",
                "--records-dir",
                str(tmp_path),
                "--compare-against-committed",
                "--no-ledger",
            ]
        )
        assert rc == 0
        assert "vs committed baseline" in capsys.readouterr().err

    def test_bench_run_unknown_name_and_empty_suite(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["bench", "run", "definitely-not-registered"])
        with pytest.raises(SystemExit):
            cli_main(["bench", "run", "--suite", "no-such-suite"])

    def test_bench_list_and_env(self, capsys):
        assert cli_main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "core" in out and "gated" in out
        assert cli_main(["bench", "env"]) == 0
        env = json.loads(capsys.readouterr().out)
        assert env["python"] and "cpu_count" in env

    def test_bench_history_renders_ledger(self, tmp_path, capsys):
        ledger = tmp_path / "BENCH_history.jsonl"
        append_records(ledger, [make_record(value=10.0), make_record(value=11.0)])
        assert cli_main(["bench", "history", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert out.count("synthetic_gate") == 2
        assert (
            cli_main(["bench", "history", "--ledger", str(ledger), "--latest"]) == 0
        )
        assert capsys.readouterr().out.count("synthetic_gate") == 1


# --------------------------------------------------------------------------- #
# the harness package keeps its own lint discipline
# --------------------------------------------------------------------------- #
def test_perf_package_is_lint_clean():
    from repro.lint import run_lint

    perf_dir = Path(__file__).resolve().parent.parent / "src" / "repro" / "perf"
    report = run_lint([str(perf_dir)])
    assert not report.diagnostics, [
        f"{d.path}:{d.line}: {d.rule}" for d in report.diagnostics
    ]
