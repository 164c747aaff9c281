"""Repository benchmark: cold `repro ise` passes over four workloads.

Run from the repository root::

    python3 isebench/run.py --workload corpus_ise --seed 1 --trace 0

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.
With ``--trace 0`` the run times untraced passes and reports the end-to-end
metrics declared in ``BENCHMARK.json``; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics.  Every pass is
checked against the oracle built before the passes.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
(blocks) and ``metrics``.  See ``isebench/README.md`` for the metric
definitions.
"""

import sys
from pathlib import Path


def main() -> int:
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("isebench: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import measure  # imports the library, so only once it is on sys.path

    return measure.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
