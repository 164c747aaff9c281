"""Persistent content-addressed store of enumeration results.

A :class:`ResultStore` maps ``(canonical graph hash, algorithm name, request
fingerprint)`` to the cut set that enumeration produced, so that re-running
enumeration on a structurally identical block — in the same process, a later
process, or a different workload containing an isomorphic block — becomes a
disk lookup instead of a recomputation.

Storage layout and format:

* keys are SHA-256 hex digests of the three key components; entries live in a
  two-level sharded directory tree (``root/ab/cd/<key>.json``) so that even
  millions of entries keep directories small;
* every entry is a standalone, versioned JSON document (see
  :data:`STORE_FORMAT_VERSION`); entries written by an unknown format version
  are treated as misses, never misread;
* cut masks are stored in the **canonical** id space of the graph, so one
  entry serves every member of the isomorphism class (callers remap through
  :class:`~repro.memo.canon.CanonicalForm` permutations);
* writes are atomic (temp file + ``os.replace``) so a crashed or concurrent
  writer can never leave a torn entry;
* every lookup reads and decodes its entry from disk, so each hit gets its
  own :class:`StoredResult`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..core.constraints import Constraints
from ..core.pruning import PruningConfig
from ..core.stats import EnumerationStats
from ..obs import runtime as obs

#: Version of the on-disk entry format.  Bump when the payload schema
#: changes; readers treat entries with any other version as cache misses.
STORE_FORMAT_VERSION = 1


def request_fingerprint(
    constraints: Optional[Constraints],
    pruning: Optional[PruningConfig] = None,
) -> str:
    """Stable hash of everything besides the graph that shapes a result.

    Combines the constraint fingerprint with the pruning configuration: the
    configurations do not all report the same cuts (see
    :mod:`repro.core.incremental`), so each gets its own entries.
    """
    payload = json.dumps(
        {
            "constraints": (constraints or Constraints()).to_dict(),
            "pruning": None if pruning is None else asdict(pruning),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def stats_to_dict(stats: EnumerationStats) -> Dict[str, object]:
    """JSON form of :class:`EnumerationStats` (inverse of :func:`stats_from_dict`).

    Every counter of the dataclass must round-trip: this dict is also the
    form in which per-block stats travel from pool workers back to the
    parent, and a field dropped here silently vanishes from parallel runs
    (that is exactly how the forbidden-cache counters once disappeared).
    """
    return {
        "cuts_found": stats.cuts_found,
        "duplicates": stats.duplicates,
        "candidates_checked": stats.candidates_checked,
        "lt_calls": stats.lt_calls,
        "pick_output_calls": stats.pick_output_calls,
        "pick_input_calls": stats.pick_input_calls,
        "pruned": dict(stats.pruned),
        "elapsed_seconds": stats.elapsed_seconds,
        "lt_seconds": stats.lt_seconds,
        "insearch_hits": stats.insearch_hits,
        "insearch_misses": stats.insearch_misses,
        "insearch_evictions": stats.insearch_evictions,
    }


def stats_from_dict(data: Dict[str, object]) -> EnumerationStats:
    """Rebuild :class:`EnumerationStats` from :func:`stats_to_dict` output."""
    return EnumerationStats(
        cuts_found=int(data.get("cuts_found", 0)),
        duplicates=int(data.get("duplicates", 0)),
        candidates_checked=int(data.get("candidates_checked", 0)),
        lt_calls=int(data.get("lt_calls", 0)),
        pick_output_calls=int(data.get("pick_output_calls", 0)),
        pick_input_calls=int(data.get("pick_input_calls", 0)),
        pruned={str(k): int(v) for k, v in dict(data.get("pruned", {})).items()},
        elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        lt_seconds=float(data.get("lt_seconds", 0.0)),
        insearch_hits=int(data.get("insearch_hits", 0)),
        insearch_misses=int(data.get("insearch_misses", 0)),
        insearch_evictions=int(data.get("insearch_evictions", 0)),
    )


@dataclass
class StoredResult:
    """One decoded store entry.

    ``masks`` are cut node masks in the canonical id space of the graph, in
    the discovery order of the original run (so a same-graph warm run
    reproduces the cold run bit-for-bit, order included).
    """

    canonical_hash: str
    algorithm: str
    fingerprint: str
    masks: List[int]
    stats: EnumerationStats

    def to_payload(self) -> Dict[str, object]:
        return {
            "format_version": STORE_FORMAT_VERSION,
            "canonical_hash": self.canonical_hash,
            "algorithm": self.algorithm,
            "fingerprint": self.fingerprint,
            "masks": [format(mask, "x") for mask in self.masks],
            "stats": stats_to_dict(self.stats),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "StoredResult":
        return cls(
            canonical_hash=str(payload["canonical_hash"]),
            algorithm=str(payload["algorithm"]),
            fingerprint=str(payload["fingerprint"]),
            masks=[int(text, 16) for text in payload["masks"]],
            stats=stats_from_dict(payload.get("stats", {})),
        )


@dataclass
class StoreStats:
    """Lookup/write counters of one :class:`ResultStore` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    invalid: int = 0  # undecodable or wrong-version entries encountered

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        return (
            f"{self.lookups} lookup(s): {self.hits} hit(s), "
            f"{self.misses} miss(es) (hit rate {self.hit_rate:.1%}), "
            f"{self.writes} write(s), {self.invalid} invalid entr(y/ies)"
        )

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "invalid": self.invalid,
        }

    def add_dict(self, data: Dict[str, object]) -> None:
        """Accumulate a :meth:`to_dict`-shaped mapping into these counters.

        Keys it does not know (such as the ``evictions`` count that sidecars
        written by older versions carry) are ignored.
        """
        self.hits += int(data.get("hits", 0))
        self.misses += int(data.get("misses", 0))
        self.writes += int(data.get("writes", 0))
        self.invalid += int(data.get("invalid", 0))


class ResultStore:
    """Disk-backed, content-addressed enumeration-result store.

    Parameters
    ----------
    root:
        Directory holding the store (created lazily on first write).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()
        self.stats = StoreStats()
        self._persisted = StoreStats()  # counters already flushed to the sidecar

    # ------------------------------------------------------------------ #
    # Keys and paths
    # ------------------------------------------------------------------ #
    @staticmethod
    def make_key(canonical_hash: str, algorithm: str, fingerprint: str) -> str:
        """The store key of one (graph class, algorithm, request) triple."""
        text = f"{canonical_hash}\n{algorithm}\n{fingerprint}"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def path_of(self, key: str) -> Path:
        """On-disk location of *key* (two-level sharding)."""
        return self.root / key[:2] / key[2:4] / f"{key}.json"

    # ------------------------------------------------------------------ #
    # Lookup / insert
    # ------------------------------------------------------------------ #
    def _count_hit(self) -> None:
        self.stats.hits += 1
        obs.metrics().inc("store.hits_total")

    def _count_miss(self, invalid: bool = False) -> None:
        self.stats.misses += 1
        obs.metrics().inc("store.misses_total")
        if invalid:
            # The entry exists but cannot be decoded or has the wrong format
            # version — corruption, not a plain miss; keep the counters
            # honest for operators.
            self.stats.invalid += 1
            obs.metrics().inc("store.invalid_total")

    def get(self, key: str) -> Optional[StoredResult]:
        """Return the stored result for *key*, or ``None`` on a miss."""
        path = self.path_of(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self._count_miss()
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            self._count_miss(invalid=True)
            return None
        if not isinstance(payload, dict):
            self._count_miss(invalid=True)
            return None
        if payload.get("format_version") != STORE_FORMAT_VERSION:
            self._count_miss(invalid=True)
            return None
        try:
            result = StoredResult.from_payload(payload)
        except (KeyError, TypeError, ValueError):
            self._count_miss(invalid=True)
            return None
        self._count_hit()
        return result

    def put(self, key: str, result: StoredResult) -> None:
        """Insert *result* under *key* (atomic; last writer wins)."""
        path = self.path_of(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(result.to_payload(), sort_keys=True)
        handle, temp_name = tempfile.mkstemp(
            prefix=f".{key[:8]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(text)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        obs.metrics().inc("store.puts_total")

    # ------------------------------------------------------------------ #
    # Lifetime statistics (cross-run sidecar)
    # ------------------------------------------------------------------ #
    #: Name of the lifetime-counter sidecar at the store root.  Entries live
    #: two shard levels down (``ab/cd/*.json``), so the sidecar never shows
    #: up in entry scans.
    STATS_SIDECAR = "_lifetime_stats.json"

    @property
    def _sidecar_path(self) -> Path:
        return self.root / self.STATS_SIDECAR

    def lifetime_stats(self) -> StoreStats:
        """Cumulative counters across every run that called :meth:`persist_stats`.

        Includes this instance's not-yet-persisted activity, so callers see
        up-to-date totals whether or not a flush happened.
        """
        totals = StoreStats()
        try:
            payload = json.loads(self._sidecar_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            payload = {}
        if isinstance(payload, dict):
            totals.add_dict(payload)
        delta = self._unpersisted_delta()
        totals.add_dict(delta.to_dict())
        return totals

    def _unpersisted_delta(self) -> StoreStats:
        delta = StoreStats()
        delta.add_dict(self.stats.to_dict())
        for field_name, flushed in self._persisted.to_dict().items():
            setattr(delta, field_name, getattr(delta, field_name) - flushed)
        return delta

    def persist_stats(self) -> None:
        """Flush this instance's counter deltas into the lifetime sidecar.

        Best-effort (a read-modify-write with an atomic replace): concurrent
        writers may drop each other's increment, which is acceptable for
        operator-facing counters and keeps the hot path lock-free.  Safe to
        call repeatedly — only the delta since the previous flush is added.
        """
        delta = self._unpersisted_delta()
        if not any(delta.to_dict().values()):
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            totals = StoreStats()
            try:
                payload = json.loads(self._sidecar_path.read_text(encoding="utf-8"))
                if isinstance(payload, dict):
                    totals.add_dict(payload)
            except (OSError, ValueError):
                pass
            totals.add_dict(delta.to_dict())
            handle, temp_name = tempfile.mkstemp(
                prefix=".stats-", suffix=".tmp", dir=self.root
            )
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(json.dumps(totals.to_dict(), sort_keys=True))
            os.replace(temp_name, self._sidecar_path)
        except OSError:
            return
        self._persisted = StoreStats()
        self._persisted.add_dict(self.stats.to_dict())

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def _entry_paths(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("??/??/*.json"))

    def scan(self) -> Dict[str, object]:
        """Walk the store directory: entry count and total size in bytes."""
        entries = self._entry_paths()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": sum(p.stat().st_size for p in entries),
        }

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed.

        Also prunes the emptied two-level shard directories, so clearing
        genuinely empties the cache root instead of stranding a skeleton of
        ``ab/cd/`` directories.
        """
        entries = self._entry_paths()
        for path in entries:
            path.unlink()
        try:
            self._sidecar_path.unlink()
        except OSError:
            pass
        if self.root.is_dir():
            # Children before parents; rmdir refuses non-empty directories
            # (e.g. a concurrent writer landed a fresh entry), which is what
            # we want — only genuinely emptied shards disappear.
            for shard in sorted(self.root.glob("??/??"), reverse=True):
                try:
                    shard.rmdir()
                except OSError:
                    pass
            for shard in sorted(self.root.glob("??"), reverse=True):
                try:
                    shard.rmdir()
                except OSError:
                    pass
        return len(entries)

    def __len__(self) -> int:
        return len(self._entry_paths())
