"""The ``repro lint`` execution engine.

Responsibilities, in order of a run:

1. **File collection** — positional paths (files or directories) expand to a
   deterministic, sorted list of ``.py`` files (``__pycache__`` and hidden
   directories skipped).
2. **Parsing** — each file becomes a :class:`FileContext`: source text, AST,
   the dotted module name derived from the enclosing package (``__init__.py``
   chain), and the parsed suppression comments.
3. **Pass execution** — *file passes* see one :class:`FileContext` at a time.
   *Project passes* (cross-module analyses such as the worker shared-state
   race detector) see the whole :class:`Project` and run once.  Everything
   runs in one process: on a 2-CPU host, spreading the file passes over a
   process pool made ``repro lint src tests benchmarks`` slower.
4. **Filtering** — ``# repro-lint: disable=RULE[,RULE]`` comments suppress
   findings on their line; a disable comment on a line of its own (no code)
   suppresses the rules for the entire file.  ``disable=all`` suppresses
   every rule.  With ``--changed REF``, findings are additionally restricted
   to lines touched since the git ref.
5. **Reporting** — sorted diagnostics, rendered by :mod:`.diagnostics`.

A file that fails to parse contributes a single ``parse-error`` diagnostic
instead of aborting the run.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .diagnostics import Diagnostic

#: Rule id attached to unparseable files.
PARSE_ERROR_RULE = "parse-error"

#: ``# repro-lint: disable=rule-a,rule-b`` (optionally ``disable=all``).
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\-\s]+)")

#: ``# repro-lint: worker-entry`` — marks a function as a pool worker entry
#: point for the worker shared-state pass (see passes/worker_state.py).
_WORKER_ENTRY_RE = re.compile(r"#\s*repro-lint:\s*worker-entry\b")


# --------------------------------------------------------------------------- #
# Suppressions
# --------------------------------------------------------------------------- #
@dataclass
class Suppressions:
    """Parsed ``repro-lint: disable`` comments of one file."""

    #: Rules disabled for the whole file ("all" disables everything).
    file_rules: Set[str] = field(default_factory=set)
    #: Line number -> rules disabled on that line.
    line_rules: Dict[int, Set[str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, source: str) -> "Suppressions":
        suppressions = cls()
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            rules = {
                rule.strip() for rule in match.group(1).split(",") if rule.strip()
            }
            code = line[: match.start()].strip()
            if code:  # trailing comment: suppress on this line only
                suppressions.line_rules.setdefault(lineno, set()).update(rules)
            else:  # comment-only line: suppress for the whole file
                suppressions.file_rules.update(rules)
        return suppressions

    def suppressed(self, diagnostic: Diagnostic) -> bool:
        for rules in (
            self.file_rules,
            self.line_rules.get(diagnostic.line, ()),
        ):
            if diagnostic.rule in rules or "all" in rules:
                return True
        return False


# --------------------------------------------------------------------------- #
# File context
# --------------------------------------------------------------------------- #
@dataclass
class FileContext:
    """One parsed source file, as seen by the lint passes."""

    path: str  # path as reported in diagnostics (relative when possible)
    abspath: str
    source: str
    tree: ast.Module
    module: Optional[str]  # dotted module name, when under a package
    suppressions: Suppressions

    @property
    def lines(self) -> List[str]:
        return self.source.splitlines()

    def worker_entry_lines(self) -> Set[int]:
        """Line numbers carrying a ``repro-lint: worker-entry`` marker."""
        return {
            lineno
            for lineno, line in enumerate(self.source.splitlines(), start=1)
            if _WORKER_ENTRY_RE.search(line)
        }

    def diagnostic(
        self,
        rule: str,
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
        severity: str = "error",
    ) -> Diagnostic:
        """Build a diagnostic anchored at *node* in this file."""
        return Diagnostic(
            rule=rule,
            severity=severity,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=hint,
        )


def module_name_for(path: Path) -> Optional[str]:
    """Dotted module name of *path*, derived from the ``__init__.py`` chain.

    ``src/repro/engine/batch.py`` -> ``repro.engine.batch``.  Files outside
    any package (no ``__init__.py`` in the parent) return the bare stem, so
    fixture files still get a usable module identity.
    """
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else None


def load_file(path: Path, display_path: Optional[str] = None) -> Tuple[
    Optional[FileContext], Optional[Diagnostic]
]:
    """Parse *path*; return a context, or a ``parse-error`` diagnostic."""
    display = display_path or _display_path(path)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", None) or 1
        return None, Diagnostic(
            rule=PARSE_ERROR_RULE,
            severity="error",
            path=display,
            line=int(line),
            col=0,
            message=f"cannot lint file: {type(exc).__name__}: {exc}",
        )
    return (
        FileContext(
            path=display,
            abspath=str(path.resolve()),
            source=source,
            tree=tree,
            module=module_name_for(path),
            suppressions=Suppressions.parse(source),
        ),
        None,
    )


def _display_path(path: Path) -> str:
    """Report paths relative to the working directory when possible."""
    try:
        return os.path.relpath(path)
    except ValueError:  # different drive (Windows) — keep it absolute
        return str(path)


# --------------------------------------------------------------------------- #
# Project (cross-module view for project passes)
# --------------------------------------------------------------------------- #
class Project:
    """The full set of linted files, indexed by dotted module name."""

    def __init__(self, files: Sequence[FileContext]) -> None:
        self.files = list(files)
        self.by_module: Dict[str, FileContext] = {}
        for ctx in self.files:
            if ctx.module is not None:
                # First one wins deterministically (files arrive sorted).
                self.by_module.setdefault(ctx.module, ctx)

    def resolve_module(self, module: str) -> Optional[FileContext]:
        """The linted file defining *module*, if any (packages resolve to
        their ``__init__`` file)."""
        return self.by_module.get(module)


# --------------------------------------------------------------------------- #
# File collection
# --------------------------------------------------------------------------- #
def collect_files(paths: Sequence[str]) -> List[Path]:
    """Expand *paths* (files or directories) to a sorted ``.py`` file list."""
    seen: Set[str] = set()
    collected: List[Path] = []

    def add(path: Path) -> None:
        key = str(path.resolve())
        if key not in seen:
            seen.add(key)
            collected.append(path)

    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = candidate.relative_to(path).parts
                if any(
                    part == "__pycache__" or part.startswith(".")
                    for part in parts
                ):
                    continue
                add(candidate)
        elif path.is_file():
            add(path)
        else:
            raise FileNotFoundError(f"lint path does not exist: {entry}")
    collected.sort(key=lambda p: str(p))
    return collected


# --------------------------------------------------------------------------- #
# git --changed support
# --------------------------------------------------------------------------- #
def changed_lines(ref: str, cwd: Optional[str] = None) -> Dict[str, Set[int]]:
    """Map of absolute file path -> line numbers touched since git *ref*.

    Parsed from ``git diff --unified=0 <ref>``; files added since the ref
    report every line.  Raises ``RuntimeError`` when git fails (unknown ref,
    not a repository).
    """
    try:
        toplevel_proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            cwd=cwd,
            capture_output=True,
            text=True,
            check=True,
        )
        diff_proc = subprocess.run(
            ["git", "diff", "--unified=0", "--no-color", ref],
            cwd=cwd,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError) as exc:
        stderr = getattr(exc, "stderr", "") or ""
        raise RuntimeError(
            f"--changed {ref!r}: git diff failed: {stderr.strip() or exc}"
        ) from exc
    toplevel = Path(toplevel_proc.stdout.strip())
    changed: Dict[str, Set[int]] = {}
    current: Optional[Set[int]] = None
    for line in diff_proc.stdout.splitlines():
        if line.startswith("+++ "):
            target = line[4:].strip()
            if target == "/dev/null":
                current = None
                continue
            if target.startswith("b/"):
                target = target[2:]
            current = changed.setdefault(
                str((toplevel / target).resolve()), set()
            )
        elif line.startswith("@@") and current is not None:
            match = re.search(r"\+(\d+)(?:,(\d+))?", line)
            if match is None:
                continue
            start = int(match.group(1))
            count = int(match.group(2)) if match.group(2) is not None else 1
            current.update(range(start, start + count))
    return changed


# --------------------------------------------------------------------------- #
# Runner
# --------------------------------------------------------------------------- #
@dataclass
class LintReport:
    """Outcome of one engine run."""

    diagnostics: List[Diagnostic]
    files_scanned: int
    roots: List[str]
    changed_ref: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def _select_passes(select: Optional[Sequence[str]]):
    """Resolve ``--select`` rule ids to the passes that implement them."""
    from .passes import all_passes

    passes = all_passes()
    if not select:
        return passes, None
    wanted = set(select)
    known: Set[str] = set()
    for lint_pass in passes:
        known.update(lint_pass.rules)
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(sorted(unknown))}; "
            f"available: {', '.join(sorted(known))}"
        )
    return (
        [p for p in passes if wanted & set(p.rules)],
        wanted,
    )


def _run_file_pass(lint_pass, ctx: FileContext, wanted: Optional[Set[str]]):
    found = lint_pass.check_file(ctx)
    return [
        diagnostic
        for diagnostic in found
        if (wanted is None or diagnostic.rule in wanted)
        and not ctx.suppressions.suppressed(diagnostic)
    ]


def run_lint(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    changed: Optional[str] = None,
) -> LintReport:
    """Lint *paths* and return the filtered, sorted report.

    *select* restricts execution to the passes implementing the given rule
    ids; *changed* restricts findings to lines touched since the given git
    ref.
    """
    passes, wanted = _select_passes(select)
    files = collect_files(paths)
    diagnostics: List[Diagnostic] = []

    contexts: List[FileContext] = []
    for path in files:
        ctx, problem = load_file(path)
        if ctx is None:
            if problem is not None and (wanted is None or problem.rule in wanted):
                diagnostics.append(problem)
            continue
        contexts.append(ctx)

    file_passes = [p for p in passes if not p.is_project_pass]
    project_passes = [p for p in passes if p.is_project_pass]

    for ctx in contexts:
        for lint_pass in file_passes:
            diagnostics.extend(_run_file_pass(lint_pass, ctx, wanted))

    if project_passes:
        project = Project(contexts)
        by_path = {ctx.path: ctx for ctx in contexts}
        for lint_pass in project_passes:
            for diagnostic in lint_pass.check_project(project):
                if wanted is not None and diagnostic.rule not in wanted:
                    continue
                owner = by_path.get(diagnostic.path)
                if owner is not None and owner.suppressions.suppressed(
                    diagnostic
                ):
                    continue
                diagnostics.append(diagnostic)

    if changed is not None:
        touched = changed_lines(changed)
        abspaths = {ctx.path: ctx.abspath for ctx in contexts}
        kept: List[Diagnostic] = []
        for diagnostic in diagnostics:
            abspath = abspaths.get(
                diagnostic.path, str(Path(diagnostic.path).resolve())
            )
            lines = touched.get(abspath)
            if lines and diagnostic.line in lines:
                kept.append(diagnostic)
        diagnostics = kept

    diagnostics.sort(key=Diagnostic.sort_key)
    return LintReport(
        diagnostics=diagnostics,
        files_scanned=len(files),
        roots=list(paths),
        changed_ref=changed,
    )


def iter_rules() -> Iterable[Tuple[str, str, str]]:
    """``(rule id, pass name, description)`` for every registered rule."""
    from .passes import all_passes

    for lint_pass in all_passes():
        for rule in lint_pass.rules:
            yield rule, lint_pass.name, lint_pass.rule_descriptions.get(rule, "")
