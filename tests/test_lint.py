"""Tests of the ``repro lint`` framework and its four domain passes.

Every rule has a known-good and a known-bad fixture; the bad fixture must
trigger *exactly* its intended rule id (no collateral findings), so the
passes stay precise as they evolve.  Fixtures are written to ``tmp_path``
at test time — keeping them out of the real tree means the repo-wide
self-check (``repro lint src tests benchmarks``) stays clean.
"""

from __future__ import annotations

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import (
    LINT_SCHEMA,
    Diagnostic,
    iter_rules,
    report_to_dict,
    run_lint,
)
from repro.lint.engine import Suppressions, changed_lines, module_name_for
from repro.lint.passes import all_passes
from tests.conftest import run_git


def write_fixture(root: Path, relpath: str, source: str) -> Path:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def hot_fixture(root: Path, name: str, source: str) -> Path:
    """A fixture that lives inside a synthetic ``repro.core`` package, so
    the hot-path pass treats it as a hot module."""
    write_fixture(root, "repro/__init__.py", "")
    write_fixture(root, "repro/core/__init__.py", "")
    return write_fixture(root, f"repro/core/{name}", source)


def rules_found(root: Path, *paths: Path) -> dict:
    report = run_lint([str(p) for p in (paths or (root,))])
    counts: dict = {}
    for diagnostic in report.diagnostics:
        counts[diagnostic.rule] = counts.get(diagnostic.rule, 0) + 1
    return counts


# --------------------------------------------------------------------------- #
# field-drift
# --------------------------------------------------------------------------- #
GOOD_STATS = """
    from dataclasses import dataclass, field
    from typing import Dict


    @dataclass
    class Stats:
        cuts_found: int = 0
        lt_calls: int = 0
        pruned: Dict[str, int] = field(default_factory=dict)

        def merge(self, other: "Stats") -> None:
            self.cuts_found += other.cuts_found
            self.lt_calls += other.lt_calls
            for key, value in other.pruned.items():
                self.pruned[key] = self.pruned.get(key, 0) + value


    def stats_to_dict(stats: Stats) -> dict:
        return {
            "cuts_found": stats.cuts_found,
            "lt_calls": stats.lt_calls,
            "pruned": dict(stats.pruned),
        }


    def stats_from_dict(data: dict) -> Stats:
        return Stats(
            cuts_found=int(data.get("cuts_found", 0)),
            lt_calls=int(data.get("lt_calls", 0)),
            pruned=dict(data.get("pruned", {})),
        )
"""

# Reconstruction of the PR 7 bug: EnumerationStats grew the forbidden-cache
# counters, but the memo store's stats_to_dict predated them — the counters
# silently vanished on every cache round-trip.
BAD_STATS_PR7 = """
    from dataclasses import dataclass


    @dataclass
    class EnumerationStats:
        cuts_found: int = 0
        lt_calls: int = 0
        forbidden_cache_hits: int = 0
        forbidden_cache_misses: int = 0


    def enumeration_stats_to_dict(stats: EnumerationStats) -> dict:
        return {
            "cuts_found": stats.cuts_found,
            "lt_calls": stats.lt_calls,
        }
"""


def test_field_drift_good_fixture_is_clean(tmp_path):
    write_fixture(tmp_path, "good_stats.py", GOOD_STATS)
    assert rules_found(tmp_path) == {}


def test_field_drift_catches_pr7_dropped_counters(tmp_path):
    write_fixture(tmp_path, "bad_stats.py", BAD_STATS_PR7)
    report = run_lint([str(tmp_path)])
    assert {d.rule for d in report.diagnostics} == {"field-drift"}
    messages = "\n".join(d.message for d in report.diagnostics)
    assert "forbidden_cache_hits" in messages
    assert "forbidden_cache_misses" in messages
    # The fields that *are* serialized are not reported.
    assert "cuts_found" not in messages


def test_field_drift_incomplete_merge_method(tmp_path):
    write_fixture(
        tmp_path,
        "bad_merge.py",
        """
        from dataclasses import dataclass


        @dataclass
        class Stats:
            cuts_found: int = 0
            duplicates: int = 0

            def merge(self, other: "Stats") -> None:
                self.cuts_found += other.cuts_found
        """,
    )
    report = run_lint([str(tmp_path)])
    assert {d.rule for d in report.diagnostics} == {"field-drift"}
    assert ["duplicates"] == sorted(
        d.message.split("'")[1] for d in report.diagnostics
    )


def test_field_drift_fields_introspection_is_complete_by_construction(tmp_path):
    write_fixture(
        tmp_path,
        "generic.py",
        """
        from dataclasses import dataclass, fields


        @dataclass
        class Stats:
            cuts_found: int = 0
            duplicates: int = 0

            def to_dict(self) -> dict:
                return {f.name: getattr(self, f.name) for f in fields(self)}
        """,
    )
    assert rules_found(tmp_path) == {}


def test_mutable_default_arg(tmp_path):
    write_fixture(
        tmp_path,
        "bad_default.py",
        """
        def accumulate(item, bucket=[]):
            bucket.append(item)
            return bucket
        """,
    )
    assert rules_found(tmp_path) == {"mutable-default-arg": 1}


# --------------------------------------------------------------------------- #
# hot-path rules
# --------------------------------------------------------------------------- #
def test_hot_path_impure_call_fires_only_in_hot_modules(tmp_path):
    source = """
        import json


        def fingerprint(payload) -> str:
            return json.dumps(payload, sort_keys=True)
    """
    hot_fixture(tmp_path, "bad_impure.py", source)
    assert rules_found(tmp_path) == {"hot-path-impure-call": 1}

    cold = tmp_path / "cold"
    write_fixture(cold, "cold_impure.py", source)
    assert rules_found(cold) == {}


def test_hot_loop_closure(tmp_path):
    hot_fixture(
        tmp_path,
        "bad_closure.py",
        """
        def scan(items):
            out = []
            for item in items:
                out.append(sorted(item, key=lambda pair: pair[1]))
            return out
        """,
    )
    assert rules_found(tmp_path) == {"hot-loop-closure": 1}


def test_hot_loop_attr_flags_invariant_chain(tmp_path):
    hot_fixture(
        tmp_path,
        "bad_attr.py",
        """
        def sweep(ctx, masks):
            total = 0
            for mask in masks:
                total += ctx.reach.between_mask(mask, 0)
            return total
        """,
    )
    report = run_lint([str(tmp_path)])
    assert [d.rule for d in report.diagnostics] == ["hot-loop-attr"]
    assert report.diagnostics[0].severity == "warning"
    assert "ctx.reach.between_mask" in report.diagnostics[0].message


def test_hot_loop_attr_skips_rebound_roots_and_hoisted_lookups(tmp_path):
    hot_fixture(
        tmp_path,
        "good_attr.py",
        """
        def sweep(contexts, masks):
            total = 0
            between = None
            for ctx in contexts:
                # The root is the loop target: not invariant, not flagged.
                total += ctx.reach.between_mask(0, 0)
            hoisted = contexts[0].reach.between_mask
            for mask in masks:
                total += hoisted(mask, 0)
            return total
        """,
    )
    assert rules_found(tmp_path) == {}


# The four first-in evictions of the search's per-run caches as they once
# were (one cache renamed), plus the ``del`` form of the same idiom.
FIRST_KEY_EVICTIONS = """
    LIMIT = 8


    class Search:
        def remember(self):
            if len(self._stuck_cache) >= LIMIT:
                self._stuck_cache.pop(next(iter(self._stuck_cache)))
            if len(self._reachable_cache) >= LIMIT:
                self._reachable_cache.pop(next(iter(self._reachable_cache)))
            if len(self._idom_cache) >= LIMIT:
                self._idom_cache.pop(next(iter(self._idom_cache)))
            if len(self._step_cache) >= LIMIT:
                self._step_cache.pop(next(iter(self._step_cache)))


    def drop_oldest(cache):
        del cache[next(iter(cache))]
"""


def test_hot_first_key_eviction_fires_in_hot_modules_only(tmp_path):
    hot_fixture(tmp_path, "bad_eviction.py", FIRST_KEY_EVICTIONS)
    assert rules_found(tmp_path) == {"hot-first-key-eviction": 5}

    cold = tmp_path / "cold"
    write_fixture(cold, "cold_eviction.py", FIRST_KEY_EVICTIONS)
    assert rules_found(cold) == {}


def test_hot_first_key_eviction_skips_ordered_dict_popitem(tmp_path):
    hot_fixture(
        tmp_path,
        "good_eviction.py",
        """
        from collections import OrderedDict

        LIMIT = 8


        def remember(cache: OrderedDict, key, value):
            if len(cache) >= LIMIT:
                cache.popitem(last=False)
            cache[key] = value
            return cache.pop(key, None)
        """,
    )
    assert rules_found(tmp_path) == {}


# --------------------------------------------------------------------------- #
# worker-shared-state
# --------------------------------------------------------------------------- #
def test_worker_state_flags_global_write_in_entry(tmp_path):
    write_fixture(
        tmp_path,
        "bad_worker.py",
        """
        _RESULTS = {}


        # repro-lint: worker-entry
        def run_chunk(payload):
            for key, value in payload:
                _RESULTS[key] = value
            return list(_RESULTS)
        """,
    )
    counts = rules_found(tmp_path)
    assert counts == {"worker-shared-state": 1}


def test_worker_state_follows_cross_module_calls(tmp_path):
    write_fixture(tmp_path, "pkg/__init__.py", "")
    write_fixture(
        tmp_path,
        "pkg/state.py",
        """
        _CACHE = {}


        def remember(key, value):
            _CACHE[key] = value
        """,
    )
    write_fixture(
        tmp_path,
        "pkg/worker.py",
        """
        from pkg.state import remember


        # repro-lint: worker-entry
        def run_chunk(payload):
            for key, value in payload:
                remember(key, value)
            return len(payload)
        """,
    )
    report = run_lint([str(tmp_path)])
    assert [d.rule for d in report.diagnostics] == ["worker-shared-state"]
    finding = report.diagnostics[0]
    assert finding.path.endswith("state.py")
    assert "reachable via run_chunk" in finding.message


def test_worker_state_clean_when_state_is_local(tmp_path):
    write_fixture(
        tmp_path,
        "good_worker.py",
        """
        _LIMIT = 8


        # repro-lint: worker-entry
        def run_chunk(payload):
            results = {}
            for key, value in payload:
                results[key] = min(value, _LIMIT)
            return results
        """,
    )
    assert rules_found(tmp_path) == {}


def test_worker_state_allowlist_is_honoured():
    # The obs recorders are the only deliberate worker-resident state: the
    # repo tree must stay clean with the default allowlist even though the
    # pass reaches their writes (see the explicit-allowlist assertion below).
    from repro.lint.engine import Project, collect_files, load_file
    from repro.lint.passes.worker_state import WorkerStatePass

    contexts = []
    for path in collect_files(["src/repro/engine", "src/repro/obs"]):
        ctx, _problem = load_file(path)
        if ctx is not None:
            contexts.append(ctx)
    project = Project(contexts)
    assert WorkerStatePass().check_project(project) == []
    uncovered = WorkerStatePass(allowlist=()).check_project(project)
    flagged = set()
    for diagnostic in uncovered:
        match = re.search(r"state '([^']+)'", diagnostic.message)
        assert match is not None
        flagged.add(match.group(1))
    assert flagged == {"_metrics", "_tracer"}


# --------------------------------------------------------------------------- #
# obs-global-access
# --------------------------------------------------------------------------- #
def test_obs_private_global_import_is_flagged(tmp_path):
    write_fixture(
        tmp_path,
        "bad_obs_import.py",
        """
        from repro.obs.runtime import _metrics


        def record(value):
            if _metrics is not None:
                _metrics.increment("value", value)
        """,
    )
    assert rules_found(tmp_path) == {"obs-global-access": 1}


def test_obs_private_attribute_access_is_flagged(tmp_path):
    write_fixture(
        tmp_path,
        "bad_obs_attr.py",
        """
        from repro.obs import runtime as obs


        def record(value):
            obs._metrics.increment("value", value)
        """,
    )
    assert rules_found(tmp_path) == {"obs-global-access": 1}


def test_obs_import_time_accessor_call_is_flagged(tmp_path):
    write_fixture(
        tmp_path,
        "bad_obs_frozen.py",
        """
        from repro.obs import runtime as obs

        METRICS = obs.metrics()


        def record(value):
            METRICS.increment("value", value)
        """,
    )
    assert rules_found(tmp_path) == {"obs-global-access": 1}


def test_obs_accessor_at_call_site_is_clean(tmp_path):
    write_fixture(
        tmp_path,
        "good_obs.py",
        """
        from repro.obs import runtime as obs


        def record(value):
            obs.metrics().increment("value", value)
        """,
    )
    assert rules_found(tmp_path) == {}


# --------------------------------------------------------------------------- #
# Engine behaviour: suppressions, parse errors, --select, parallelism
# --------------------------------------------------------------------------- #
def test_line_suppression_silences_only_its_line(tmp_path):
    write_fixture(
        tmp_path,
        "suppressed_line.py",
        """
        def one(bucket=[]):  # repro-lint: disable=mutable-default-arg
            return bucket


        def two(bucket=[]):
            return bucket
        """,
    )
    report = run_lint([str(tmp_path)])
    assert [d.rule for d in report.diagnostics] == ["mutable-default-arg"]
    assert report.diagnostics[0].line > 2  # only the unsuppressed def


def test_file_suppression_silences_whole_file(tmp_path):
    write_fixture(
        tmp_path,
        "suppressed_file.py",
        """
        # repro-lint: disable=mutable-default-arg


        def one(bucket=[]):
            return bucket


        def two(bucket=[]):
            return bucket
        """,
    )
    assert rules_found(tmp_path) == {}


def test_disable_all_suppresses_every_rule(tmp_path):
    write_fixture(
        tmp_path,
        "suppressed_all.py",
        """
        # repro-lint: disable=all
        import json


        def one(bucket=[]):
            return json.dumps(bucket)
        """,
    )
    assert rules_found(tmp_path) == {}


def test_suppressions_parse_line_vs_file_scope():
    suppressions = Suppressions.parse(
        "x = 1  # repro-lint: disable=rule-a\n"
        "# repro-lint: disable=rule-b,rule-c\n"
    )
    assert suppressions.line_rules == {1: {"rule-a"}}
    assert suppressions.file_rules == {"rule-b", "rule-c"}


def test_parse_error_is_reported_not_fatal(tmp_path):
    write_fixture(tmp_path, "broken.py", "def broken(:\n")
    write_fixture(tmp_path, "fine.py", "VALUE = 1\n")
    report = run_lint([str(tmp_path)])
    assert [d.rule for d in report.diagnostics] == ["parse-error"]
    assert report.files_scanned == 2


def test_select_restricts_rules(tmp_path):
    write_fixture(tmp_path, "bad_stats.py", BAD_STATS_PR7)
    write_fixture(
        tmp_path,
        "bad_default.py",
        "def accumulate(item, bucket=[]):\n    return bucket\n",
    )
    report = run_lint([str(tmp_path)], select=["mutable-default-arg"])
    assert {d.rule for d in report.diagnostics} == {"mutable-default-arg"}
    with pytest.raises(ValueError, match="unknown rule"):
        run_lint([str(tmp_path)], select=["no-such-rule"])


def test_module_name_for_resolves_package_chain(tmp_path):
    path = hot_fixture(tmp_path, "deep.py", "VALUE = 1\n")
    assert module_name_for(path) == "repro.core.deep"
    bare = write_fixture(tmp_path, "standalone.py", "VALUE = 1\n")
    assert module_name_for(bare) == "standalone"


def test_every_rule_has_a_description():
    rules = list(iter_rules())
    assert len({rule for rule, _, _ in rules}) == len(rules)
    for rule, pass_name, description in rules:
        assert rule and pass_name and description


def test_pass_registry_is_fresh_per_call():
    first, second = all_passes(), all_passes()
    assert [type(p) for p in first] == [type(p) for p in second]
    assert all(a is not b for a, b in zip(first, second))


# --------------------------------------------------------------------------- #
# JSON report schema and CLI
# --------------------------------------------------------------------------- #
def test_json_report_schema(tmp_path):
    write_fixture(tmp_path, "bad_stats.py", BAD_STATS_PR7)
    report = run_lint([str(tmp_path)])
    document = report_to_dict(
        report.diagnostics, report.files_scanned, report.roots, None
    )
    assert document["schema"] == LINT_SCHEMA
    assert document["files_scanned"] == 1
    assert document["summary"] == {"field-drift": 2}
    for entry in document["diagnostics"]:
        assert set(entry) >= {"rule", "severity", "path", "line", "col", "message"}
        assert Diagnostic.from_dict(entry).to_dict() == entry


def test_cli_lint_exit_codes_and_json_output(tmp_path, capsys):
    clean = tmp_path / "clean"
    write_fixture(clean, "fine.py", "VALUE = 1\n")
    assert cli_main(["lint", str(clean)]) == 0
    capsys.readouterr()

    dirty = tmp_path / "dirty"
    write_fixture(dirty, "bad_stats.py", BAD_STATS_PR7)
    out_file = tmp_path / "report.json"
    assert (
        cli_main(
            ["lint", str(dirty), "--format", "json", "--output", str(out_file)]
        )
        == 1
    )
    captured = capsys.readouterr()
    assert "field-drift" in captured.out  # text summary stays on stdout
    document = json.loads(out_file.read_text(encoding="utf-8"))
    assert document["schema"] == LINT_SCHEMA
    assert document["summary"] == {"field-drift": 2}


def test_cli_lint_list_rules(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule, _pass, _description in iter_rules():
        assert rule in out


# --------------------------------------------------------------------------- #
# --changed mode
# --------------------------------------------------------------------------- #
def test_changed_mode_reports_only_touched_lines(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    run_git(repo, "init", "-q")
    committed = write_fixture(
        repo,
        "module.py",
        """
        def old_offender(bucket=[]):
            return bucket
        """,
    )
    run_git(repo, "add", "module.py")
    run_git(repo, "commit", "-qm", "seed")

    # Append a *new* offender; the old one predates the ref.
    committed.write_text(
        committed.read_text(encoding="utf-8")
        + "\n\ndef new_offender(extra={}):\n    return extra\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(repo)

    full = run_lint(["module.py"])
    assert len(full.diagnostics) == 2

    changed = run_lint(["module.py"], changed="HEAD")
    assert [d.rule for d in changed.diagnostics] == ["mutable-default-arg"]
    assert changed.diagnostics[0].line > 2
    assert changed.changed_ref == "HEAD"

    touched = changed_lines("HEAD", cwd=str(repo))
    assert str(committed.resolve()) in touched


def test_changed_mode_unknown_ref_raises(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    run_git(repo, "init", "-q")
    write_fixture(repo, "module.py", "VALUE = 1\n")
    run_git(repo, "add", "module.py")
    run_git(repo, "commit", "-qm", "seed")
    monkeypatch.chdir(repo)
    with pytest.raises(RuntimeError, match="git diff failed"):
        run_lint(["module.py"], changed="no-such-ref")


# --------------------------------------------------------------------------- #
# Repo-wide self-check
# --------------------------------------------------------------------------- #
def test_repo_tree_is_lint_clean():
    """The acceptance gate: the tree at HEAD has zero findings."""
    report = run_lint(["src", "tests", "benchmarks"])
    assert report.diagnostics == []
