"""Registry-contract rule: registered backends and schedulers must
statically satisfy their protocols.

``@register_backend`` and ``@register_scheduler`` are string-keyed
plug-in seams — which means a class missing its protocol method fails
only when a request first routes to it, potentially deep inside a
worker pool. This rule moves that failure to lint time:

- a class under ``@register_backend(...)`` must provide ``run_layer``,
  directly or through a base class resolvable in the tree — and only
  that: a backend defining ``run_shards`` or ``run_plan`` is flagged,
  because *where* shards run is a scheduler concern, never a backend's;
- a class under ``@register_scheduler(...)`` must provide
  ``run_shards`` (the one method the scheduler registry documents);
- protocol flags (``deterministic``, ``stateless``,
  ``needs_task_graph``, ``requires_seeds``) must be literal ``True`` /
  ``False`` when assigned in a registered class body — a truthy string
  here silently flips a scheduling decision;
- the registry key must be a string literal: dynamic names defeat both
  this check and ``repro.cli backends``.

Base-class resolution is static and best-effort: bases are looked up by
name across the scanned tree (same module first), so mixins from
third-party code cannot vouch for a method — in that case define a
stub raising ``NotImplementedError`` locally.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.core import (
    Finding,
    Project,
    Rule,
    dotted_name,
    literal_str,
    register_rule,
)

#: decorator name -> (registry label, required method, forbidden methods)
CONTRACTS = {
    "register_backend": ("backend", "run_layer", ("run_plan", "run_shards")),
    "register_scheduler": ("scheduler", "run_shards", ()),
}

_BOOL_FLAGS = ("deterministic", "stateless", "needs_task_graph", "requires_seeds")


@register_rule(
    "registry-contract",
    summary="registered backends/schedulers must implement their protocol",
)
class RegistryContractRule(Rule):
    def check(self, project: Project) -> Iterable[Finding]:
        class_index = project.classes()
        for f in project.repro_files():
            if f.tree is None:
                continue
            for node in ast.walk(f.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                registration = self._registration(node)
                if registration is None:
                    continue
                decorator, reg_call = registration
                label, required, forbidden = CONTRACTS[decorator]
                yield from self._check_key(f, node, reg_call, label)
                yield from self._check_methods(
                    f, node, label, required, forbidden, class_index
                )
                yield from self._check_flags(f, node, label)

    # ------------------------------------------------------------------
    @staticmethod
    def _registration(node: ast.ClassDef) -> Optional[Tuple[str, ast.Call]]:
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                name = dotted_name(decorator.func) or ""
                tail = name.rsplit(".", 1)[-1]
                if tail in CONTRACTS:
                    return tail, decorator
        return None

    def _check_key(self, f, node: ast.ClassDef, call: ast.Call, label: str):
        key = literal_str(call.args[0]) if call.args else None
        if key is None:
            yield Finding(
                rule=self.name,
                severity="error",
                path=f.rel,
                line=node.lineno,
                message=f"{label} class {node.name} registers under a "
                f"non-literal name",
                hint="registry keys must be string literals so CLI listings "
                "and this checker can see them",
            )

    def _check_methods(
        self,
        f,
        node: ast.ClassDef,
        label: str,
        required: str,
        forbidden: Tuple[str, ...],
        class_index: Dict[str, List],
    ):
        provided = self._methods_of(node, class_index, depth=0)
        if required not in provided:
            yield Finding(
                rule=self.name,
                severity="error",
                path=f.rel,
                line=node.lineno,
                message=f"registered {label} {node.name} implements none of "
                f"the protocol methods ({required})",
                hint="implement the method (or inherit it from a base class "
                "defined in this tree)",
            )
        for method in forbidden:
            if method in provided:
                yield Finding(
                    rule=self.name,
                    severity="error",
                    path=f.rel,
                    line=node.lineno,
                    message=f"registered {label} {node.name} defines "
                    f"{method}, outside the {label} protocol ({required} "
                    f"only)",
                    hint="where shards run is a scheduler concern: register "
                    "a scheduler (run_shards) instead",
                )

    def _methods_of(
        self, node: ast.ClassDef, class_index: Dict[str, List], depth: int
    ) -> Set[str]:
        if depth > 8:  # pathological inheritance chains / cycles
            return set()
        methods = {
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        # Assigned callables (method = staticmethod(fn) etc.) count too.
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        methods.add(target.id)
        for base in node.bases:
            base_name = (dotted_name(base) or "").rsplit(".", 1)[-1]
            for _file, base_node in class_index.get(base_name, []):
                methods |= self._methods_of(base_node, class_index, depth + 1)
        return methods

    def _check_flags(self, f, node: ast.ClassDef, label: str):
        for stmt in node.body:
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in _BOOL_FLAGS
                    and not (
                        isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, bool)
                    )
                ):
                    yield Finding(
                        rule=self.name,
                        severity="error",
                        path=f.rel,
                        line=stmt.lineno,
                        message=f"{label} {node.name}.{target.id} must be a "
                        f"literal True/False",
                        hint="a truthy non-bool here silently flips "
                        "scheduling/caching decisions",
                    )
