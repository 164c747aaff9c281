"""Pass protocol and shared AST utilities of the lint framework.

Two kinds of pass exist:

* **File passes** (:class:`FilePass`) see one parsed file at a time and may
  run in parallel across files.
* **Project passes** (:class:`ProjectPass`) see the whole
  :class:`~repro.lint.engine.Project` — required for cross-module analyses
  such as the worker shared-state race detector.

The helpers below are the vocabulary every domain pass is built from:
dotted-name rendering of attribute chains, import tables with relative
import resolution, and dataclass field extraction.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..diagnostics import Diagnostic
from ..engine import FileContext, Project


class FilePass:
    """Base class of per-file passes."""

    name: str = "base"
    rules: Tuple[str, ...] = ()
    rule_descriptions: Dict[str, str] = {}
    is_project_pass: bool = False

    def check_file(self, ctx: FileContext) -> List[Diagnostic]:
        raise NotImplementedError


class ProjectPass(FilePass):
    """Base class of whole-project passes."""

    is_project_pass = True

    def check_file(self, ctx: FileContext) -> List[Diagnostic]:
        return []

    def check_project(self, project: Project) -> List[Diagnostic]:
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# Attribute chains
# --------------------------------------------------------------------------- #
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


# --------------------------------------------------------------------------- #
# Imports
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ImportedName:
    """One local binding created by an import statement.

    ``kind`` is ``"module"`` (``import x.y as z`` -> target ``x.y``) or
    ``"from"`` (``from pkg import name`` -> target ``pkg``, ``obj=name`` —
    which may resolve to either the module ``pkg.name`` or an object in
    ``pkg``; consumers try both).
    """

    kind: str
    target: str
    obj: Optional[str] = None


def resolve_relative(module: Optional[str], is_init: bool, level: int, name: str) -> str:
    """Absolute module path of ``from <level dots><name> import ...``."""
    if level == 0 or not module:
        return name
    parts = module.split(".")
    # Level 1 is the current package: for a plain module that is the parent
    # package, for an ``__init__`` file it is the package itself.
    chop = level if not is_init else level - 1
    base = parts[: len(parts) - chop] if chop else parts
    return ".".join(base + ([name] if name else []))


def import_table(ctx: FileContext) -> Dict[str, ImportedName]:
    """Local name -> import binding, for the module-level imports of *ctx*.

    Imports inside functions are included too (common for cycle-avoidance),
    keyed by the same local alias — a best-effort flat view that is
    sufficient for call resolution.
    """
    is_init = ctx.abspath.endswith("__init__.py")
    table: Dict[str, ImportedName] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                table[local] = ImportedName(kind="module", target=target)
        elif isinstance(node, ast.ImportFrom):
            base = resolve_relative(
                ctx.module, is_init, node.level, node.module or ""
            )
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = ImportedName(
                    kind="from", target=base, obj=alias.name
                )
    return table


# --------------------------------------------------------------------------- #
# Dataclasses
# --------------------------------------------------------------------------- #
def is_dataclass_def(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = dotted_name(target)
        if name is not None and name.split(".")[-1] == "dataclass":
            return True
    return False


def dataclass_fields(node: ast.ClassDef) -> List[Tuple[str, ast.AnnAssign]]:
    """``(field name, annotation node)`` for every dataclass field.

    ``ClassVar`` annotations and names starting with ``_`` are skipped —
    they are not part of the serialized surface.
    """
    fields: List[Tuple[str, ast.AnnAssign]] = []
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign):
            continue
        target = statement.target
        if not isinstance(target, ast.Name) or target.id.startswith("_"):
            continue
        annotation = ast.dump(statement.annotation)
        if "ClassVar" in annotation:
            continue
        fields.append((target.id, statement))
    return fields


def annotation_names(node: Optional[ast.AST]) -> List[str]:
    """Every bare class name mentioned by an annotation expression.

    Handles string annotations (``-> "Constraints"``), ``Optional[X]``,
    qualified names and unions; returns the unqualified trailing names.
    """
    if node is None:
        return []
    names: List[str] = []
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Constant) and isinstance(current.value, str):
            try:
                stack.append(ast.parse(current.value, mode="eval").body)
            except SyntaxError:
                continue
        elif isinstance(current, ast.Name):
            names.append(current.id)
        elif isinstance(current, ast.Attribute):
            names.append(current.attr)
        else:
            stack.extend(ast.iter_child_nodes(current))
    return names


# --------------------------------------------------------------------------- #
# Loops and stores
# --------------------------------------------------------------------------- #
def collect_loops(tree: ast.AST) -> List[ast.stmt]:
    """Every ``for``/``while`` statement in *tree*, outermost first."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.While, ast.AsyncFor))
    ]


def stored_names(nodes: Sequence[ast.AST]) -> Tuple[set, set]:
    """``(names, dotted prefixes)`` assigned anywhere in *nodes*.

    Names cover plain rebinding (``x = ...``, loop targets, ``del x``);
    prefixes cover attribute stores (``a.b = ...`` records ``a.b``), so a
    hoistability check can tell that ``a.b.c`` is invalidated.
    """
    names: set = set()
    prefixes: set = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                chain = dotted_name(node)
                if chain is not None:
                    prefixes.add(chain)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.ClassDef):
                names.add(node.name)
    return names, prefixes
