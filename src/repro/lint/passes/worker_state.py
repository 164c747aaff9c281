"""Worker shared-state race detector (``worker-shared-state``).

Pool workers are stateless: each task builds what it needs and drops it on
return, and the only deliberate worker-resident state is the pair of
observability recorders.  Everything else that code running inside a pool
worker touches must be worker-local: a write to module-level mutable state
looks correct under ``fork`` on Linux (the child sees a copy), silently
diverges from the parent, and breaks outright under ``spawn`` — the classic
cross-process aliasing bug.

The pass:

1. finds the worker entry points — functions whose ``def`` line (or the
   line above) carries a ``# repro-lint: worker-entry`` marker comment
   (``repro.engine.batch._enumerate_block`` and ``_worker_ping`` in this
   repo);
2. computes the statically-resolvable call graph reachable from them,
   following same-module calls, ``from x import f`` calls, module-alias
   calls (``obs.ensure_worker``), class constructions and ``self.``/
   ``cls.`` method calls across every linted module (instance method calls
   through arbitrary objects are out of scope, as documented);
3. flags, in every reachable function: assignments through a ``global``
   statement, stores into subscripts/attributes of module-level names, and
   known mutating method calls (``append``/``update``/``popitem``/…) on
   module-level names.

Deliberate worker-resident registries are allowlisted by
``"module:name"`` entries in :data:`WORKER_STATE_ALLOWLIST` — an explicit,
reviewable list, so a new global must either be justified here or fail CI.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..diagnostics import Diagnostic
from ..engine import FileContext, Project
from .base import ProjectPass, dotted_name, import_table

#: Deliberate worker-resident module-level state (``module:name``).  Keep
#: this list short and justified: every entry is state a pool worker owns
#: per-process *by design*.
WORKER_STATE_ALLOWLIST = frozenset(
    {
        # Worker-local observability recorders: ensure_worker() activates a
        # tracer per worker, drained back to the parent inside task results,
        # and clears both slots when the parent stops observing.
        "repro.obs.runtime:_metrics",
        "repro.obs.runtime:_tracer",
    }
)

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "move_to_end",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: Depth bound of the import re-export chase (``from .store import X`` in a
#: package ``__init__``).
_REEXPORT_DEPTH = 4

FunctionKey = Tuple[str, Optional[str], str]  # (module, class or None, name)


class _ModuleIndex:
    """Per-module symbol tables the call-graph resolution needs."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.module = ctx.module or ""
        self.imports = import_table(ctx)
        self.functions: Dict[str, ast.FunctionDef] = {}
        self.classes: Dict[str, ast.ClassDef] = {}
        self.methods: Dict[Tuple[str, str], ast.FunctionDef] = {}
        self.globals: Set[str] = set()
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node  # type: ignore[assignment]
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self.methods[(node.name, member.name)] = member  # type: ignore[assignment]
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in _target_names(target):
                        self.globals.add(name)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                for name in _target_names(node.target):
                    self.globals.add(name)

    def resolve_function(self, key: FunctionKey) -> Optional[ast.FunctionDef]:
        module, cls, name = key
        if cls is None:
            return self.functions.get(name)
        return self.methods.get((cls, name))


def _target_names(target: ast.AST) -> Iterable[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)


class WorkerStatePass(ProjectPass):
    name = "worker-state"
    rules = ("worker-shared-state",)
    rule_descriptions = {
        "worker-shared-state": (
            "code reachable from a pool worker entry point writes "
            "module-level state (cross-process aliasing hazard); allowlist "
            "deliberate worker-resident registries explicitly"
        ),
    }

    def __init__(self, allowlist: Optional[Iterable[str]] = None) -> None:
        self.allowlist = (
            frozenset(allowlist)
            if allowlist is not None
            else WORKER_STATE_ALLOWLIST
        )

    # ------------------------------------------------------------------ #
    def check_project(self, project: Project) -> List[Diagnostic]:
        indexes: Dict[str, _ModuleIndex] = {}

        def index_of(ctx: FileContext) -> _ModuleIndex:
            key = ctx.module or ctx.abspath
            if key not in indexes:
                indexes[key] = _ModuleIndex(ctx)
            return indexes[key]

        entries: List[Tuple[FileContext, ast.FunctionDef]] = []
        for ctx in project.files:
            marker_lines = ctx.worker_entry_lines()
            if not marker_lines:
                continue
            for node in ast.walk(ctx.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    node.lineno in marker_lines
                    or node.lineno - 1 in marker_lines
                ):
                    entries.append((ctx, node))  # type: ignore[arg-type]

        diagnostics: List[Diagnostic] = []
        visited: Set[FunctionKey] = set()
        parents: Dict[FunctionKey, Optional[FunctionKey]] = {}
        queue: "deque[Tuple[FunctionKey, FileContext, ast.FunctionDef]]" = deque()
        for ctx, func in entries:
            key: FunctionKey = (ctx.module or ctx.abspath, None, func.name)
            if key not in visited:
                visited.add(key)
                parents[key] = None
                queue.append((key, ctx, func))

        while queue:
            key, ctx, func = queue.popleft()
            index = index_of(ctx)
            diagnostics.extend(self._check_function(key, ctx, index, func, parents))
            for callee_key, callee_ctx, callee_func in self._callees(
                key, ctx, index, func, project, index_of
            ):
                if callee_key in visited:
                    continue
                visited.add(callee_key)
                parents[callee_key] = key
                queue.append((callee_key, callee_ctx, callee_func))
        return diagnostics

    # ------------------------------------------------------------------ #
    # Call-graph expansion
    # ------------------------------------------------------------------ #
    def _callees(
        self,
        key: FunctionKey,
        ctx: FileContext,
        index: _ModuleIndex,
        func: ast.FunctionDef,
        project: Project,
        index_of,
    ):
        module, cls, _ = key
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if chain is None:
                continue
            parts = chain.split(".")
            resolved = self._resolve_call(parts, cls, ctx, index, project, index_of)
            if resolved is not None:
                yield resolved

    def _resolve_call(
        self,
        parts: List[str],
        current_class: Optional[str],
        ctx: FileContext,
        index: _ModuleIndex,
        project: Project,
        index_of,
        depth: int = 0,
    ):
        if depth > _REEXPORT_DEPTH:
            return None
        root = parts[0]
        module_name = ctx.module or ctx.abspath

        # self.method() / cls.method() inside a class body.
        if root in ("self", "cls") and current_class is not None and len(parts) == 2:
            method = index.methods.get((current_class, parts[1]))
            if method is not None:
                return (module_name, current_class, parts[1]), ctx, method
            return None

        if len(parts) == 1:
            if root in index.functions:
                return (module_name, None, root), ctx, index.functions[root]
            if root in index.classes:
                init = index.methods.get((root, "__init__"))
                if init is not None:
                    return (module_name, root, "__init__"), ctx, init
                return None
            binding = index.imports.get(root)
            if binding is not None:
                return self._resolve_imported(
                    binding, None, project, index_of, depth
                )
            return None

        # alias.attr(...) through an imported module (or module object).
        binding = index.imports.get(root)
        if binding is not None:
            return self._resolve_imported(
                binding, parts[1:], project, index_of, depth
            )
        return None

    def _resolve_imported(
        self, binding, attrs: Optional[List[str]], project: Project, index_of, depth: int
    ):
        """Resolve a call through an import binding, chasing re-exports."""
        candidates: List[Tuple[str, Optional[str]]] = []
        if binding.kind == "module":
            if attrs:
                candidates.append((binding.target, attrs[0]))
                if len(attrs) > 1:
                    candidates.append((f"{binding.target}.{attrs[0]}", attrs[1]))
        else:  # from target import obj
            if attrs:
                # The imported name is a module: obj.attr(...)
                candidates.append((f"{binding.target}.{binding.obj}", attrs[0]))
            else:
                # The imported name is the callable itself.
                candidates.append((binding.target, binding.obj))
        for target_module, symbol in candidates:
            if symbol is None:
                continue
            target_ctx = project.resolve_module(target_module)
            if target_ctx is None:
                continue
            target_index = index_of(target_ctx)
            if symbol in target_index.functions:
                return (
                    (target_ctx.module or target_ctx.abspath, None, symbol),
                    target_ctx,
                    target_index.functions[symbol],
                )
            if symbol in target_index.classes:
                init = target_index.methods.get((symbol, "__init__"))
                if init is not None:
                    return (
                        (target_ctx.module or target_ctx.abspath, symbol, "__init__"),
                        target_ctx,
                        init,
                    )
                continue
            # Re-exported through the target module's own imports.
            reexport = target_index.imports.get(symbol)
            if reexport is not None:
                resolved = self._resolve_imported(
                    reexport, None, project, index_of, depth + 1
                )
                if resolved is not None:
                    return resolved
        return None

    # ------------------------------------------------------------------ #
    # Write detection
    # ------------------------------------------------------------------ #
    def _check_function(
        self,
        key: FunctionKey,
        ctx: FileContext,
        index: _ModuleIndex,
        func: ast.FunctionDef,
        parents: Dict[FunctionKey, Optional[FunctionKey]],
    ) -> List[Diagnostic]:
        module = ctx.module or ctx.abspath
        declared_global: Set[str] = set()
        local_names: Set[str] = set()
        for arg in (
            list(func.args.posonlyargs)
            + list(func.args.args)
            + list(func.args.kwonlyargs)
            + ([func.args.vararg] if func.args.vararg else [])
            + ([func.args.kwarg] if func.args.kwarg else [])
        ):
            local_names.add(arg.arg)
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                local_names.add(node.id)
        local_names -= declared_global

        def is_module_global(name: str) -> bool:
            return (
                name not in local_names
                and (name in index.globals or name in declared_global)
            )

        diagnostics: List[Diagnostic] = []

        def report(node: ast.AST, name: str, what: str) -> None:
            if f"{module}:{name}" in self.allowlist:
                return
            diagnostics.append(
                ctx.diagnostic(
                    "worker-shared-state",
                    node,
                    f"{self._chain_text(key, parents)} {what} module-level "
                    f"state {name!r} of {module!r} — cross-process aliasing "
                    "hazard in pool workers",
                    hint=(
                        "make the state worker-resident by design and add "
                        f"'{module}:{name}' to WORKER_STATE_ALLOWLIST, or "
                        "return the data to the parent instead"
                    ),
                )
            )

        for node in ast.walk(func):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                for name in _target_names(target):
                    if name in declared_global and is_module_global(name):
                        report(node, name, "rebinds")
                root = self._subscript_or_attribute_root(target)
                if root is not None and is_module_global(root):
                    report(node, root, "writes into")
            if isinstance(node, ast.Call):
                chain = dotted_name(node.func)
                if chain is None:
                    continue
                parts = chain.split(".")
                if (
                    len(parts) >= 2
                    and parts[-1] in MUTATING_METHODS
                    and is_module_global(parts[0])
                ):
                    report(node, parts[0], f"mutates (.{parts[-1]}())")
        return diagnostics

    @staticmethod
    def _subscript_or_attribute_root(target: ast.AST) -> Optional[str]:
        node = target
        seen_container_hop = False
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            seen_container_hop = True
            node = node.value
        if seen_container_hop and isinstance(node, ast.Name):
            return node.id
        return None

    @staticmethod
    def _chain_text(
        key: FunctionKey, parents: Dict[FunctionKey, Optional[FunctionKey]]
    ) -> str:
        names: List[str] = []
        current: Optional[FunctionKey] = key
        while current is not None:
            module, cls, name = current
            label = f"{cls}.{name}" if cls else name
            names.append(label)
            current = parents.get(current)
        names.reverse()
        if len(names) == 1:
            return f"worker entry {names[0]!r}"
        return f"{names[-1]!r} (reachable via {' -> '.join(names[:-1])})"
