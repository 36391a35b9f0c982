"""Rule protocol, per-file context, and the rule registry.

A rule is a small class with a ``rule_id``/``name``/``description`` and a
set of AST node types it wants to see.  One shared visitor
(:mod:`repro.analysis.visitor`) walks each file exactly once and dispatches
every node to the rules interested in its type — adding a rule never adds
another tree traversal.  Cross-file rules (e.g. fault-site consistency)
accumulate state per file and emit at :meth:`Rule.end_run`.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable, Optional, Type

from repro.analysis.findings import Finding

__all__ = [
    "Rule",
    "FileContext",
    "ImportMap",
    "register",
    "all_rules",
    "select_rules",
    "dotted_name",
]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class ImportMap:
    """Alias resolution for one module: local name -> canonical dotted path.

    ``import numpy as np`` maps ``np`` -> ``numpy``; ``from time import
    perf_counter as pc`` maps ``pc`` -> ``time.perf_counter``.  Relative
    imports keep their leading dots — repo-specific rules only need the
    absolute spellings; :meth:`absolute` resolves them for the project
    graph, which shares this one table per file.
    """

    def __init__(self, tree: ast.AST):
        self._aliases: dict[str, str] = {}
        #: ``level`` of each name last bound by a relative import.
        self._levels: dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    self._aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{module}.{alias.name}"
                    if node.level:
                        self._levels[local] = node.level

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of a Name/Attribute expression, or None."""
        name = dotted_name(node)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        target = self._aliases.get(head)
        if target is None:
            return name
        return f"{target}.{rest}" if rest else target

    def absolute(self, package: str) -> dict[str, str]:
        """Local name -> absolute dotted path, relative imports resolved.

        ``package`` is the dotted name of the package holding the module
        (the module's own name for an ``__init__``); ``from .. import x``
        climbs one package above it.
        """
        table = dict(self._aliases)
        parts = package.split(".")
        for local, level in self._levels.items():
            target = table[local]
            if not target.startswith("."):
                continue  # rebound by a later absolute import
            base = ".".join(parts[: -(level - 1)] if level > 1 else parts)
            # ``target`` is ``level`` dots, then ``module.name`` or, for
            # ``from . import name``, ``.name``.
            rest = target[level:]
            table[local] = base + rest if rest[0] == "." else f"{base}.{rest}"
        return table


class FileContext:
    """Everything a rule may consult while one file is being walked."""

    def __init__(
        self,
        path: str,
        tree: ast.Module,
        lines: list[str],
        report: Callable[[Finding], None],
    ):
        self.path = path
        self.tree = tree
        self.lines = lines
        self.imports = ImportMap(tree)
        #: Ancestor nodes of the one being dispatched, outermost first
        #: (maintained by the shared visitor; excludes the node itself).
        self.ancestors: list[ast.AST] = []
        self._report = report

    def scope(self) -> str:
        """Dotted Class.method scope of the current dispatch point."""
        parts = [
            node.name
            for node in self.ancestors
            if isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            )
        ]
        return ".".join(parts)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def report(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
        scope: Optional[str] = None,
    ) -> None:
        self._report(
            Finding(
                rule=rule.rule_id,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                scope=self.scope() if scope is None else scope,
            )
        )


class Rule:
    """Base class for analysis rules.

    Subclasses set :attr:`rule_id` (``REPnnn``), :attr:`name`,
    :attr:`description`, and :attr:`node_types` — the AST node classes they
    want dispatched to :meth:`visit`.  One rule instance lives for a whole
    analyzer run, so per-file state must be reset in :meth:`start_file`.
    """

    rule_id: str = ""
    name: str = ""
    description: str = ""
    node_types: tuple[Type[ast.AST], ...] = ()
    #: Graph rules opt in to analysis phase 2: the analyzer builds the
    #: project call graph once and hands it to :meth:`run_graph`.
    needs_graph: bool = False

    def applies_to(self, path: str) -> bool:
        """Whether this rule inspects ``path`` at all (cheap pre-filter)."""
        return True

    def start_file(self, ctx: FileContext) -> None:
        """Called before the file's tree is walked."""

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        """Called for every node whose type is in :attr:`node_types`."""

    def end_file(self, ctx: FileContext) -> None:
        """Called after the file's tree is walked."""

    def end_run(self, report: Callable[[Finding], None]) -> None:
        """Called once after every file; emit cross-file findings here."""

    def run_graph(self, graph, report: Callable[[Finding], None]) -> None:
        """Phase 2: called with the project call graph when
        :attr:`needs_graph` is set.  Findings reported here honour the
        suppression comments of the file they anchor to, like
        :meth:`end_run` findings."""


_REGISTRY: dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the default registry."""
    if not rule_cls.rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    existing = _REGISTRY.get(rule_cls.rule_id)
    if existing is not None and existing is not rule_cls:
        raise ValueError(f"duplicate rule id {rule_cls.rule_id}")
    _REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def all_rules() -> list[Type[Rule]]:
    """Every registered rule class, sorted by rule id."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def select_rules(only: Optional[Iterable[str]] = None) -> list[Rule]:
    """Instantiate the registered rules, optionally restricted to ``only``."""
    classes = all_rules()
    if only is None:
        return [cls() for cls in classes]
    wanted = {token.strip().upper() for token in only if token.strip()}
    known = {cls.rule_id for cls in classes}
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )
    return [cls() for cls in classes if cls.rule_id in wanted]


def _load_builtin_rules() -> None:
    """Import the built-in rule modules (each self-registers)."""
    from repro.analysis import checks  # noqa: F401
