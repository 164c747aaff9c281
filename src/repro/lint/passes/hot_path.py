"""Hot-path purity pass (``hot-path-impure-call``, ``hot-loop-closure``,
``hot-loop-attr``, ``hot-first-key-eviction``).

The PR 5/PR 6 speedups rest on the enumeration kernels staying allocation-
and JSON-free: the inner loops run tens of thousands of times per block, so
a stray ``json.dumps``, a per-iteration closure, or a repeated deep
attribute lookup silently re-taxes every block of every suite.  This pass
patrols the designated hot modules (:data:`HOT_MODULES` /
:data:`HOT_MODULE_PREFIXES` — ``repro.core``, ``repro.dominators`` and
``repro.dfg.reachability``):

* ``hot-path-impure-call`` — any call into ``json`` / ``pickle`` /
  ``marshal`` or to ``copy.deepcopy`` (including names imported from those
  modules).  Cold administrative helpers that legitimately serialize (e.g.
  ``Constraints.fingerprint``) carry an explicit line suppression, which
  keeps the next json call in that module visible.
* ``hot-loop-closure`` — a ``lambda`` or nested ``def`` inside a
  ``for``/``while`` body allocates a fresh closure object per iteration.
* ``hot-loop-attr`` — an attribute chain of two or more hops
  (``self.stats.count_pruned``) loaded inside a loop whose root and
  intermediate objects are never rebound in the loop: the lookup is
  loop-invariant and should be hoisted into a local before the loop.
* ``hot-first-key-eviction`` — ``d.pop(k)`` or ``del d[k]`` with ``k`` the
  first key (``next`` of ``iter(d)``): on a dict that lookup walks every slot
  freed since the last resize, so a full cache slows with every eviction.
  ``OrderedDict.popitem(last=False)`` evicts first-in in O(1).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from ..diagnostics import Diagnostic
from ..engine import FileContext
from .base import FilePass, collect_loops, dotted_name, import_table, stored_names

#: Exact hot modules (in addition to the package prefixes below).
HOT_MODULES = frozenset({"repro.dfg.reachability"})

#: Every module under these packages is hot.
HOT_MODULE_PREFIXES = ("repro.core.", "repro.dominators.")

#: Impure / serializing modules that must not be called on the hot path.
IMPURE_MODULES = frozenset({"json", "pickle", "marshal"})

#: ``copy`` functions that deep-copy object graphs.
_DEEPCOPY_NAMES = frozenset({"deepcopy"})


def is_hot_module(module: Optional[str]) -> bool:
    if module is None:
        return False
    if module in HOT_MODULES:
        return True
    return any(
        module.startswith(prefix) or module == prefix.rstrip(".")
        for prefix in HOT_MODULE_PREFIXES
    )


class HotPathPass(FilePass):
    name = "hot-path"
    rules = (
        "hot-path-impure-call",
        "hot-loop-closure",
        "hot-loop-attr",
        "hot-first-key-eviction",
    )
    rule_descriptions = {
        "hot-path-impure-call": (
            "a designated hot module calls json/pickle/marshal/deepcopy"
        ),
        "hot-loop-closure": (
            "a lambda or nested def inside a hot-module loop allocates a "
            "closure per iteration"
        ),
        "hot-loop-attr": (
            "a loop-invariant multi-hop attribute lookup inside a "
            "hot-module loop should be hoisted into a local"
        ),
        "hot-first-key-eviction": (
            "a hot module evicts a dict's first key, found by iterating "
            "the dict, which slows with every eviction"
        ),
    }

    def check_file(self, ctx: FileContext) -> List[Diagnostic]:
        if not is_hot_module(ctx.module):
            return []
        diagnostics: List[Diagnostic] = []
        diagnostics.extend(self._impure_calls(ctx))
        diagnostics.extend(self._loop_findings(ctx))
        diagnostics.extend(self._first_key_evictions(ctx))
        return diagnostics

    # ------------------------------------------------------------------ #
    def _first_key_evictions(self, ctx: FileContext) -> List[Diagnostic]:
        evictions: List[Tuple[ast.AST, ast.AST, ast.AST]] = []
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop"
                and len(node.args) == 1
            ):
                evictions.append((node, node.func.value, node.args[0]))
            elif isinstance(node, ast.Delete):
                evictions.extend(
                    (node, target.value, target.slice)
                    for target in node.targets
                    if isinstance(target, ast.Subscript)
                )
        return [
            ctx.diagnostic(
                "hot-first-key-eviction",
                node,
                "first-key eviction: finding the first key walks every "
                "slot freed since the dict last resized",
                hint="keep the cache in a collections.OrderedDict and evict "
                "with popitem(last=False)",
            )
            for node, container, key in evictions
            if isinstance(key, ast.Call)
            and dotted_name(key.func) == "next"
            and len(key.args) == 1
            and isinstance(key.args[0], ast.Call)
            and dotted_name(key.args[0].func) == "iter"
            and [ast.dump(arg) for arg in key.args[0].args] == [ast.dump(container)]
        ]

    # ------------------------------------------------------------------ #
    def _impure_aliases(self, ctx: FileContext) -> Tuple[Set[str], Set[str]]:
        """Local aliases of impure modules and of impure imported functions."""
        module_aliases: Set[str] = set()
        function_aliases: Set[str] = set()
        for local, binding in import_table(ctx).items():
            if binding.kind == "module" and binding.target in IMPURE_MODULES:
                module_aliases.add(local)
            elif binding.kind == "from":
                if binding.target in IMPURE_MODULES:
                    function_aliases.add(local)
                elif binding.target == "copy" and binding.obj in _DEEPCOPY_NAMES:
                    function_aliases.add(local)
            if binding.kind == "module" and binding.target == "copy":
                # copy.deepcopy(...) through the module alias.
                module_aliases.add(local)
        return module_aliases, function_aliases

    def _impure_calls(self, ctx: FileContext) -> List[Diagnostic]:
        module_aliases, function_aliases = self._impure_aliases(ctx)
        if not module_aliases and not function_aliases:
            return []
        imports = import_table(ctx)
        diagnostics: List[Diagnostic] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if chain is None:
                continue
            parts = chain.split(".")
            flagged = False
            if parts[0] in function_aliases and len(parts) == 1:
                flagged = True
            elif parts[0] in module_aliases and len(parts) > 1:
                # `copy` module alias: only deepcopy is a hot-path hazard.
                binding = imports.get(parts[0])
                root_is_copy = binding is not None and binding.target == "copy"
                flagged = (not root_is_copy) or parts[-1] in _DEEPCOPY_NAMES
            if flagged:
                diagnostics.append(
                    ctx.diagnostic(
                        "hot-path-impure-call",
                        node,
                        f"hot module {ctx.module!r} calls {chain}() — "
                        "serialization/deep-copy is banned on the "
                        "enumeration hot path",
                        hint=(
                            "move the call out of the hot module, or suppress "
                            "with a justification if this is a cold "
                            "administrative helper"
                        ),
                    )
                )
        return diagnostics

    # ------------------------------------------------------------------ #
    def _loop_findings(self, ctx: FileContext) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        for loop in collect_loops(ctx.tree):
            body = list(loop.body) + list(getattr(loop, "orelse", []))
            assigned, stored_prefixes = stored_names(body)
            if isinstance(loop, (ast.For, ast.AsyncFor)):
                target_names, _ = stored_names([loop.target])
                assigned |= target_names
            seen_chains: Set[str] = set()
            for statement in body:
                for node in ast.walk(statement):
                    if isinstance(node, (ast.Lambda, ast.FunctionDef)):
                        diagnostics.append(
                            ctx.diagnostic(
                                "hot-loop-closure",
                                node,
                                "closure allocated inside a hot-module loop "
                                "(one object per iteration)",
                                hint="define it once before the loop",
                            )
                        )
                    elif isinstance(node, ast.Attribute) and isinstance(
                        node.ctx, ast.Load
                    ):
                        diagnostic = self._hoistable_chain(
                            ctx, node, assigned, stored_prefixes, seen_chains
                        )
                        if diagnostic is not None:
                            diagnostics.append(diagnostic)
        return self._dedupe(diagnostics)

    def _hoistable_chain(
        self,
        ctx: FileContext,
        node: ast.Attribute,
        assigned: Set[str],
        stored_prefixes: Set[str],
        seen_chains: Set[str],
    ) -> Optional[Diagnostic]:
        chain = dotted_name(node)
        if chain is None:
            return None
        parts = chain.split(".")
        if len(parts) < 3:  # one-hop lookups are not worth the noise
            return None
        # Only the outermost chain of a nested Attribute should report.
        if chain in seen_chains:
            return None
        root = parts[0]
        if root in assigned:
            return None
        for depth in range(2, len(parts) + 1):
            prefix = ".".join(parts[:depth])
            if prefix in stored_prefixes:
                return None
        seen_chains.add(chain)
        # Record sub-chains so `a.b.c` does not re-report through `a.b`.
        for depth in range(3, len(parts)):
            seen_chains.add(".".join(parts[:depth]))
        return ctx.diagnostic(
            "hot-loop-attr",
            node,
            f"loop-invariant attribute lookup {chain!r} inside a "
            "hot-module loop",
            hint=f"hoist `{chain}` into a local before the loop",
            severity="warning",
        )

    @staticmethod
    def _dedupe(diagnostics: List[Diagnostic]) -> List[Diagnostic]:
        seen: Dict[Tuple[str, int, str], Diagnostic] = {}
        for diagnostic in diagnostics:
            key = (diagnostic.rule, diagnostic.line, diagnostic.message)
            seen.setdefault(key, diagnostic)
        return list(seen.values())
