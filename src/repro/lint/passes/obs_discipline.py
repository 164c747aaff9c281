"""Observability stub discipline pass (``obs-global-access``).

The PR 7 observability layer is dormant-by-default: ``repro.obs.runtime``
holds module-private recorder slots (``_metrics`` / ``_tracer``) and the
*only* supported way to reach them is the runtime accessors
(``obs.metrics()`` / ``obs.tracer()``), called at the instrumentation site.
Two access patterns break that contract:

* importing or touching the private globals directly
  (``from repro.obs.runtime import _metrics``,
  ``runtime._tracer.span(...)``) — the reader captures whatever recorder
  was installed at import time and silently misses later ``activate()`` /
  ``deactivate()`` swaps (worker processes swap recorders between tasks);
* calling an accessor at module import time
  (``METRICS = obs.metrics()`` at top level) — same freeze, one level up.

Everything inside the ``repro.obs`` package itself is exempt: the runtime
module owns its globals.
"""

from __future__ import annotations

import ast
from typing import List, Set

from ..diagnostics import Diagnostic
from ..engine import FileContext
from .base import FilePass, dotted_name, import_table

#: The module owning the private recorder slots.
RUNTIME_MODULE = "repro.obs.runtime"

#: Accessor functions that must only be called at call sites, never at
#: module import time.
ACCESSOR_NAMES = frozenset({"metrics", "tracer"})


def _in_obs_package(module: str) -> bool:
    return module == "repro.obs" or module.startswith("repro.obs.")


class ObsDisciplinePass(FilePass):
    name = "obs-discipline"
    rules = ("obs-global-access",)
    rule_descriptions = {
        "obs-global-access": (
            "instrumentation reaches repro.obs internals directly (private "
            "recorder globals, or accessors called at import time) instead "
            "of calling obs.metrics()/obs.tracer() at the instrumentation "
            "site"
        ),
    }

    def check_file(self, ctx: FileContext) -> List[Diagnostic]:
        if ctx.module is not None and _in_obs_package(ctx.module):
            return []
        diagnostics: List[Diagnostic] = []
        runtime_aliases: Set[str] = set()
        accessor_aliases: Set[str] = set()
        for local, binding in import_table(ctx).items():
            if binding.kind == "module" and binding.target == RUNTIME_MODULE:
                runtime_aliases.add(local)
            elif binding.kind == "from":
                if binding.target == "repro.obs" and binding.obj == "runtime":
                    runtime_aliases.add(local)
                elif binding.target == RUNTIME_MODULE:
                    if binding.obj is not None and binding.obj.startswith("_"):
                        diagnostics.append(
                            self._private_import(ctx, local, binding.obj)
                        )
                    elif binding.obj in ACCESSOR_NAMES:
                        accessor_aliases.add(local)

        # Private attribute access through a runtime-module alias.
        if runtime_aliases:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Attribute):
                    continue
                base = node.value
                if (
                    isinstance(base, ast.Name)
                    and base.id in runtime_aliases
                    and node.attr.startswith("_")
                ):
                    diagnostics.append(
                        ctx.diagnostic(
                            "obs-global-access",
                            node,
                            f"direct access to private recorder global "
                            f"'{base.id}.{node.attr}' — bypasses "
                            "activate()/deactivate() swaps",
                            hint=(
                                "call the runtime accessor "
                                "(obs.metrics()/obs.tracer()) at the "
                                "instrumentation site instead"
                            ),
                        )
                    )

        diagnostics.extend(
            self._import_time_calls(ctx, runtime_aliases, accessor_aliases)
        )
        return diagnostics

    # ------------------------------------------------------------------ #
    def _private_import(
        self, ctx: FileContext, local: str, obj: str
    ) -> Diagnostic:
        node = self._import_node(ctx, obj)
        return ctx.diagnostic(
            "obs-global-access",
            node,
            f"private recorder global {obj!r} imported from "
            f"{RUNTIME_MODULE!r} — the binding freezes whichever recorder "
            "was installed at import time",
            hint=(
                "import the module and call its accessor "
                "(obs.metrics()/obs.tracer()) at the instrumentation site"
            ),
        )

    def _import_node(self, ctx: FileContext, obj: str) -> ast.AST:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and any(
                alias.name == obj for alias in node.names
            ):
                return node
        return ctx.tree

    # ------------------------------------------------------------------ #
    def _import_time_calls(
        self,
        ctx: FileContext,
        runtime_aliases: Set[str],
        accessor_aliases: Set[str],
    ) -> List[Diagnostic]:
        """Accessor calls executed at module import time."""
        if not runtime_aliases and not accessor_aliases:
            return []
        diagnostics: List[Diagnostic] = []
        for node in self._module_level_nodes(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if chain is None:
                continue
            parts = chain.split(".")
            hit = (len(parts) == 1 and parts[0] in accessor_aliases) or (
                len(parts) == 2
                and parts[0] in runtime_aliases
                and parts[1] in ACCESSOR_NAMES
            )
            if hit:
                diagnostics.append(
                    ctx.diagnostic(
                        "obs-global-access",
                        node,
                        f"observability accessor {chain}() called at module "
                        "import time — the result freezes the recorder "
                        "installed at import",
                        hint=(
                            "call the accessor inside the function that "
                            "records, so activate()/deactivate() take effect"
                        ),
                    )
                )
        return diagnostics

    @staticmethod
    def _module_level_nodes(tree: ast.Module):
        """Every node executed at import time (skips function/lambda bodies).

        Class bodies *are* executed at import time, so they are included.
        """
        stack: List[ast.AST] = list(tree.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                # Default expressions and decorators still run at import time.
                if not isinstance(node, ast.Lambda):
                    stack.extend(node.decorator_list)
                stack.extend(d for d in node.args.defaults)
                stack.extend(d for d in node.args.kw_defaults if d is not None)
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))
