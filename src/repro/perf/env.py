"""Environment fingerprinting: what machine produced a benchmark record.

A performance number without its provenance is noise: the committed records
span at least two container kernels and two CPython versions already.  Every
``repro-bench-1`` record carries the fingerprint, ``repro bench env`` prints
it, and ``--metrics-json`` run reports are stamped with it too, so any two
artifacts can be checked for comparability before their numbers are.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import subprocess
from typing import Dict, Optional

#: Fields two fingerprints must share for their timings to be comparable at
#: all; the digest (and the compare warning) is computed over exactly these.
COMPARABILITY_FIELDS = ("python", "implementation", "machine", "cpu_count", "scale")


def _git_output(cwd: Optional[str], *argv: str) -> Optional[str]:
    """The stripped stdout of ``git *argv``, or ``None`` if it fails."""
    try:
        completed = subprocess.run(
            ["git", *argv],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The current git commit sha, or ``None`` outside a work tree.

    The sha gets a ``-dirty`` suffix when a tracked file differs from the
    commit, so a record measured before committing a change does not pass
    for a record of the commit it started from.
    """
    sha = _git_output(cwd, "rev-parse", "--short=12", "HEAD")
    if not sha:
        return None
    if _git_output(cwd, "status", "--porcelain", "--untracked-files=no"):
        sha += "-dirty"
    return sha


def environment_fingerprint(scale: Optional[str] = None) -> Dict[str, object]:
    """The provenance stamp carried by every benchmark record."""
    env: Dict[str, object] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "hostname": socket.gethostname(),
        "git_sha": git_revision(),
    }
    if scale is not None:
        env["scale"] = scale
    return env


def fingerprint_digest(env: Dict[str, object]) -> str:
    """Short stable digest of the comparability-relevant fingerprint fields."""
    subset = {key: env.get(key) for key in COMPARABILITY_FIELDS}
    payload = json.dumps(subset, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


def comparability_warnings(
    baseline_env: Dict[str, object], current_env: Dict[str, object]
) -> list:
    """Human-readable mismatches that make a timing comparison suspect."""
    warnings = []
    for key in COMPARABILITY_FIELDS:
        a, b = baseline_env.get(key), current_env.get(key)
        if a is not None and b is not None and a != b:
            warnings.append(f"{key} differs: baseline {a!r} vs current {b!r}")
    return warnings
