"""Project-wide symbol table and call graph — analysis **phase 1**.

The single-file visitor (:mod:`repro.analysis.visitor`) sees one module at
a time, so it can only flag nondeterminism *spelled out* in the file it is
looking at.  This module builds the cross-file picture the dataflow rules
(phase 2) run over:

1. **Index.**  Every target module's tree is indexed: module-level
   functions, classes with their methods and bases, and an import table
   derived from the per-file pass's :class:`~repro.analysis.rules.ImportMap`
   with relative imports resolved against the module's own dotted name.
2. **Link.**  Names are resolved through the import tables — including
   re-export chains through ``__init__`` modules — to the *defining*
   function, so ``from repro.parallel import worker; worker.run_cell(...)``
   produces an edge to ``repro.parallel.worker.run_cell`` no matter how many
   aliases the call travelled through.
3. **Edges.**  Each indexed function body contributes call edges (with the
   call site for witness paths), external references (calls or attribute
   reads that resolve outside the project — the taint seeds), and a
   bounded account of what could *not* be resolved.

Dynamic dispatch is handled, deliberately, only as far as static evidence
reaches: ``self.method()`` resolves through the enclosing class and its
project-local bases, ``super().method()`` through the bases, and
``ClassName(...)`` to ``ClassName.__init__``.  A call through a variable
(``handler()``, ``obj.run()``) is counted as a *dynamic* call — visible in
:attr:`ProjectGraph.dynamic_calls` — rather than guessed at.  Calls that
*look* project-internal but resolve to nothing are recorded in
:attr:`ProjectGraph.unresolved` as warnings; a meta-test pins their count
so resolver regressions surface as test failures, not silent blind spots.

The builder parses nothing itself: it indexes the :class:`ParsedModule`
records the per-file pass (:class:`repro.analysis.visitor.Analyzer`) has
already made, and shares their suppression indexes, so each file is read,
parsed and scanned for suppressions once per run.
"""

from __future__ import annotations

import ast
import os
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from repro.analysis.rules import ImportMap, dotted_name
from repro.analysis.suppressions import SuppressionIndex

__all__ = [
    "CallEdge",
    "ExternalRef",
    "FunctionInfo",
    "ParsedModule",
    "ProjectGraph",
    "UnresolvedCall",
    "build_graph",
    "module_name_for",
]

#: Longest alias/re-export chain the resolver follows before giving up.
_MAX_ALIAS_DEPTH = 16

#: Deepest project-local inheritance chain searched for ``self.m()``.
_MAX_MRO_DEPTH = 8

#: Pseudo-function holding a module's import-time (top-level) statements.
MODULE_BODY = "<module>"


def module_name_for(path: str) -> str:
    """Dotted module name for a display path (``src/`` prefix dropped)."""
    normalized = os.path.normpath(path).replace(os.sep, "/")
    parts = [p for p in normalized.split("/") if p and p != "."]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    elif parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    return ".".join(parts)


@dataclass(frozen=True)
class FunctionInfo:
    """One indexed function, method, or module body."""

    qualname: str
    module: str
    path: str
    line: int
    name: str
    class_name: Optional[str] = None
    is_async: bool = False


@dataclass(frozen=True)
class CallEdge:
    """A resolved project-internal call: ``caller`` invokes ``callee``."""

    caller: str
    callee: str
    path: str
    line: int


@dataclass(frozen=True)
class ExternalRef:
    """A reference leaving the project (``time.time``, ``os.environ``...)."""

    owner: str
    target: str
    path: str
    line: int
    is_call: bool


@dataclass(frozen=True)
class UnresolvedCall:
    """A call that looked project-internal but resolved to nothing."""

    owner: str
    target: str
    path: str
    line: int


class ParsedModule(NamedTuple):
    """One file as the per-file pass read it: the graph's only input."""

    #: Display path (relative to the lint root, ``/``-separated).
    path: str
    tree: ast.Module
    #: The analyzer's own index: a comment a graph rule consults counts
    #: as used in the analyzer's stale-suppression check.
    suppressions: SuppressionIndex
    #: The per-file pass's import table; the graph resolves its relative
    #: imports instead of walking the tree for imports again.
    imports: ImportMap


class _ClassIndex:
    """One class: its methods and the (unresolved) base expressions."""

    __slots__ = ("name", "qualname", "bases", "methods", "line")

    def __init__(self, name: str, qualname: str, line: int):
        self.name = name
        self.qualname = qualname
        self.line = line
        self.bases: list[str] = []
        self.methods: dict[str, FunctionInfo] = {}


class _ModuleIndex:
    """One module: imports, top-level defs, classes."""

    __slots__ = ("name", "path", "is_package", "imports", "functions",
                 "classes", "data", "tree")

    def __init__(self, name: str, path: str, tree: ast.Module):
        self.name = name
        self.path = path
        self.is_package = path.endswith("__init__.py")
        self.imports: dict[str, str] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, _ClassIndex] = {}
        #: Module-level assigned names (constants/tables); calls through
        #: them are dynamic dispatch, not resolver misses.
        self.data: set[str] = set()
        self.tree = tree


class ProjectGraph:
    """The indexed symbol table plus the call graph built over it."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, _ClassIndex] = {}
        self.edges: dict[str, list[CallEdge]] = {}
        self.external: dict[str, list[ExternalRef]] = {}
        self.unresolved: list[UnresolvedCall] = []
        self.dynamic_calls = 0
        self.build_seconds = 0.0
        self._modules: dict[str, _ModuleIndex] = {}
        self._packages: set[str] = set()
        self._suppressions: dict[str, SuppressionIndex] = {}
        self._reverse: Optional[dict[str, list[CallEdge]]] = None

    # -- queries -----------------------------------------------------------

    def callers_of(self, qualname: str) -> list[CallEdge]:
        if self._reverse is None:
            reverse: dict[str, list[CallEdge]] = {}
            for edge_list in self.edges.values():
                for edge in edge_list:
                    reverse.setdefault(edge.callee, []).append(edge)
            self._reverse = reverse
        return self._reverse.get(qualname, [])

    def external_refs(self, qualname: str) -> list[ExternalRef]:
        return self.external.get(qualname, [])

    def suppressed(self, path: str, rule: str, line: int) -> bool:
        """Whether ``rule`` is inline-suppressed at ``path:line``."""
        index = self._suppressions.get(path)
        return index is not None and index.is_suppressed(rule, line)

    def stats(self) -> dict:
        return {
            "modules": len(self._modules),
            "functions": len(self.functions),
            "edges": sum(len(v) for v in self.edges.values()),
            "external_refs": sum(len(v) for v in self.external.values()),
            "unresolved": len(self.unresolved),
            "dynamic_calls": self.dynamic_calls,
            "build_seconds": round(self.build_seconds, 4),
        }

    # -- construction ------------------------------------------------------

    def _index_module(self, parsed: ParsedModule) -> None:
        name = module_name_for(parsed.path)
        module = _ModuleIndex(name, parsed.path, parsed.tree)
        self._modules[name] = module
        self._packages.add(name.split(".")[0])
        self._suppressions[parsed.path] = parsed.suppressions
        package = name if module.is_package else name.rpartition(".")[0]
        module.imports = parsed.imports.absolute(package)
        _collect_defs(module, self)

    def _resolve(self, dotted: str, depth: int = 0) -> tuple[str, str]:
        """Resolve an absolute dotted path.

        Returns ``(kind, value)`` where kind is one of ``function``,
        ``class``, ``module``, ``external``, or ``missing`` (looked
        project-internal but nothing matched).
        """
        if depth > _MAX_ALIAS_DEPTH:
            return ("missing", dotted)
        parts = dotted.split(".")
        if parts[0] not in self._packages:
            return ("external", dotted)
        # Longest module prefix wins: `a.b.c` may be module a.b, symbol c.
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            module = self._modules.get(prefix)
            if module is None:
                continue
            rest = parts[cut:]
            return self._resolve_in_module(module, rest, depth)
        return ("missing", dotted)

    def _resolve_in_module(
        self, module: _ModuleIndex, rest: Sequence[str], depth: int
    ) -> tuple[str, str]:
        if not rest:
            return ("module", module.name)
        head = rest[0]
        if head in module.functions:
            if len(rest) == 1:
                return ("function", module.functions[head].qualname)
            return ("missing", ".".join([module.name, *rest]))
        if head in module.classes:
            klass = module.classes[head]
            if len(rest) == 1:
                return ("class", klass.qualname)
            if len(rest) == 2:
                method = self._resolve_method(klass, rest[1], depth)
                if method is not None:
                    return ("function", method.qualname)
            return ("missing", ".".join([module.name, *rest]))
        if head in module.imports:
            target = module.imports[head]
            joined = ".".join([target, *rest[1:]]) if len(rest) > 1 else target
            return self._resolve(joined, depth + 1)
        if head in module.data:
            return ("data", ".".join([module.name, *rest]))
        return ("missing", ".".join([module.name, *rest]))

    def _resolve_method(
        self, klass: _ClassIndex, method: str, depth: int = 0
    ) -> Optional[FunctionInfo]:
        """Find ``method`` on ``klass`` or its project-local bases."""
        seen: set[str] = set()
        stack = [klass]
        hops = 0
        while stack and hops < _MAX_MRO_DEPTH * 4:
            hops += 1
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if method in current.methods:
                return current.methods[method]
            module_name = current.qualname.rsplit(".", 1)[0]
            module = self._modules.get(module_name)
            if module is None:
                continue
            for base in current.bases:
                resolved = self._resolve_local(module, base, depth + 1)
                if resolved is not None and resolved[0] == "class":
                    base_class = self._find_class(resolved[1])
                    if base_class is not None:
                        stack.append(base_class)
        return None

    def _find_class(self, qualname: str) -> Optional[_ClassIndex]:
        module_name, _, class_name = qualname.rpartition(".")
        module = self._modules.get(module_name)
        if module is None:
            return None
        return module.classes.get(class_name)

    def _resolve_local(
        self, module: _ModuleIndex, dotted: str, depth: int = 0
    ) -> Optional[tuple[str, str]]:
        """Resolve a dotted name as spelled *inside* ``module``."""
        head, _, rest = dotted.partition(".")
        if head in module.functions and not rest:
            return ("function", module.functions[head].qualname)
        if head in module.classes:
            if not rest:
                return ("class", module.classes[head].qualname)
            if "." not in rest:
                method = self._resolve_method(
                    module.classes[head], rest, depth
                )
                if method is not None:
                    return ("function", method.qualname)
            return ("missing", f"{module.name}.{dotted}")
        if head in module.imports:
            target = module.imports[head]
            joined = f"{target}.{rest}" if rest else target
            return self._resolve(joined, depth + 1)
        if head in module.data:
            return ("data", f"{module.name}.{dotted}")
        return None


def _collect_defs(module: _ModuleIndex, graph: ProjectGraph) -> None:
    """Index module-level functions, classes, and their methods."""
    body_name = f"{module.name}.{MODULE_BODY}"
    graph.functions[body_name] = FunctionInfo(
        qualname=body_name,
        module=module.name,
        path=module.path,
        line=1,
        name=MODULE_BODY,
    )
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(
                qualname=f"{module.name}.{node.name}",
                module=module.name,
                path=module.path,
                line=node.lineno,
                name=node.name,
                is_async=isinstance(node, ast.AsyncFunctionDef),
            )
            module.functions[node.name] = info
            graph.functions[info.qualname] = info
        elif isinstance(node, ast.ClassDef):
            klass = _ClassIndex(
                node.name, f"{module.name}.{node.name}", node.lineno
            )
            for base in node.bases:
                base_name = dotted_name(base)
                if base_name is not None:
                    klass.bases.append(base_name)
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    info = FunctionInfo(
                        qualname=f"{klass.qualname}.{item.name}",
                        module=module.name,
                        path=module.path,
                        line=item.lineno,
                        name=item.name,
                        class_name=node.name,
                        is_async=isinstance(item, ast.AsyncFunctionDef),
                    )
                    klass.methods[item.name] = info
                    graph.functions[info.qualname] = info
            module.classes[node.name] = klass
            graph.classes[klass.qualname] = klass
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    module.data.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            module.data.add(element.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                module.data.add(node.target.id)
        elif isinstance(node, (ast.If, ast.Try)):
            # One level of conditional definitions (TYPE_CHECKING guards,
            # optional-dependency fallbacks) keeps the resolver honest.
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            module.data.add(target.id)


class _EdgeCollector(ast.NodeVisitor):
    """Walk one module attributing calls/references to indexed functions."""

    def __init__(self, module: _ModuleIndex, graph: ProjectGraph):
        self.module = module
        self.graph = graph
        self._owner_stack: list[str] = [f"{module.name}.{MODULE_BODY}"]
        self._class_stack: list[_ClassIndex] = []
        self._seen_external: set[tuple[str, str, int]] = set()

    # -- scope maintenance -------------------------------------------------

    def _enter_function(self, node) -> None:
        if self._class_stack and len(self._owner_stack) == 1:
            owner = f"{self._class_stack[-1].qualname}.{node.name}"
        elif len(self._owner_stack) == 1 and not self._class_stack:
            owner = f"{self.module.name}.{node.name}"
        else:
            # Nested def: attribute its body to the enclosing function.
            owner = self._owner_stack[-1]
        if owner not in self.graph.functions:
            owner = self._owner_stack[-1]
        self._owner_stack.append(owner)
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self._owner_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        klass = self.module.classes.get(node.name)
        if klass is not None and len(self._owner_stack) == 1:
            self._class_stack.append(klass)
            for child in ast.iter_child_nodes(node):
                self.visit(child)
            self._class_stack.pop()
        else:
            self.generic_visit(node)

    # -- references --------------------------------------------------------

    @property
    def _owner(self) -> str:
        return self._owner_stack[-1]

    def visit_Call(self, node: ast.Call) -> None:
        self._handle_call(node)
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # A bare attribute chain (`os.environ[...]`, `sys.argv`): resolve
        # through the import table; external chains become taint seeds.
        dotted = dotted_name(node)
        if dotted is not None:
            self._record_reference(node, dotted, is_call=False)
            return  # the chain is consumed whole; don't descend
        self.generic_visit(node)

    def _handle_call(self, node: ast.Call) -> None:
        func = node.func
        # super().method() — resolve through the enclosing class's bases.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and self._class_stack
        ):
            method = self.graph._resolve_method(
                self._class_stack[-1], func.attr
            )
            if method is not None and method.qualname != self._owner:
                self._add_edge(method.qualname, node)
            else:
                self.graph.dynamic_calls += 1
            return
        dotted = dotted_name(func)
        if dotted is None:
            # Call on a computed expression: bounded dynamic dispatch.
            self.graph.dynamic_calls += 1
            return
        head, _, rest = dotted.partition(".")
        if head in ("self", "cls") and self._class_stack and rest:
            if "." in rest:
                # self.attr.method() — attr's type is not tracked.
                self.graph.dynamic_calls += 1
                return
            method = self.graph._resolve_method(self._class_stack[-1], rest)
            if method is not None:
                self._add_edge(method.qualname, node)
            else:
                self.graph.dynamic_calls += 1
            return
        self._record_reference(node, dotted, is_call=True)

    def _record_reference(
        self, node: ast.AST, dotted: str, is_call: bool
    ) -> None:
        head = dotted.partition(".")[0]
        local = (
            head in self.module.functions
            or head in self.module.classes
            or head in self.module.imports
        )
        if not local:
            if is_call:
                if head in _BUILTIN_CALLS:
                    self._add_external(f"builtins.{dotted}", node, is_call)
                else:
                    # A local variable or parameter: dynamic dispatch.
                    self.graph.dynamic_calls += 1
            return
        resolved = self.graph._resolve_local(self.module, dotted)
        if resolved is None:
            self.graph.dynamic_calls += 1
            return
        kind, value = resolved
        if kind == "function":
            if is_call:
                self._add_edge(value, node)
            return
        if kind == "class":
            if is_call:
                klass = self.graph._find_class(value)
                init = (
                    self.graph._resolve_method(klass, "__init__")
                    if klass is not None
                    else None
                )
                if init is not None:
                    self._add_edge(init.qualname, node)
            return
        if kind == "external":
            self._add_external(value, node, is_call)
            return
        if kind == "module":
            return
        if kind == "data":
            if is_call:
                self.graph.dynamic_calls += 1
            return
        if is_call:  # kind == "missing"
            self.graph.unresolved.append(
                UnresolvedCall(
                    owner=self._owner,
                    target=value,
                    path=self.module.path,
                    line=getattr(node, "lineno", 1),
                )
            )

    def _add_edge(self, callee: str, node: ast.AST) -> None:
        self.graph.edges.setdefault(self._owner, []).append(
            CallEdge(
                caller=self._owner,
                callee=callee,
                path=self.module.path,
                line=getattr(node, "lineno", 1),
            )
        )

    def _add_external(
        self, target: str, node: ast.AST, is_call: bool
    ) -> None:
        line = getattr(node, "lineno", 1)
        key = (self._owner, target, line)
        if key in self._seen_external:
            return
        self._seen_external.add(key)
        self.graph.external.setdefault(self._owner, []).append(
            ExternalRef(
                owner=self._owner,
                target=target,
                path=self.module.path,
                line=line,
                is_call=is_call,
            )
        )


#: Builtins whose *calls* are worth recording as external references.
_BUILTIN_CALLS = frozenset({"open", "input", "exec", "eval", "__import__"})


def build_graph(modules: Sequence[ParsedModule]) -> ProjectGraph:
    """Index already-parsed ``modules`` and build the call graph (phase 1)."""
    started = time.perf_counter()  # reporting only, never in results
    graph = ProjectGraph()
    for parsed in modules:
        graph._index_module(parsed)
    for module in graph._modules.values():
        _EdgeCollector(module, graph).visit(module.tree)
    graph.build_seconds = time.perf_counter() - started
    return graph
