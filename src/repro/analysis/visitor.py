"""The shared single-pass walker and the two-phase analyzer driver.

``Analyzer`` owns one instance of each active rule and runs analysis in
two phases.  **Phase 1** reads and parses every target file once, scans
it for suppression comments once, and walks its AST once, dispatching
each node to the rules registered for its type.  When any active rule
sets ``needs_graph``, the parsed files then feed the project-wide call
graph (:mod:`repro.analysis.graph`); nothing is parsed twice.  **Phase
2** hands that graph to the graph rules, whose findings (witness paths
included) honour the suppression comments of the file they anchor to,
exactly like per-file findings.

The analyzer also keeps the books the CLI reports on: per-rule wall time
and finding counts (``--stats``), and which suppression comments actually
excused something — the rest are *stale* and fail the run.  Nothing
carries over from one :meth:`Analyzer.run` to the next.
"""

from __future__ import annotations

import ast
import os
import time
from typing import Iterable, Optional, Sequence

from repro.analysis.findings import PARSE_ERROR_RULE, Finding
from repro.analysis.graph import ParsedModule, ProjectGraph, build_graph
from repro.analysis.rules import FileContext, Rule, all_rules, select_rules
from repro.analysis.suppressions import (
    SuppressionIndex,
    comment_lines,
    parse_suppressions,
)

__all__ = ["Analyzer", "UnusedSuppression", "analyze_paths",
           "iter_python_files"]


def iter_python_files(paths: Sequence[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            out.add(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in ("__pycache__", ".git")
                )
                for name in files:
                    if name.endswith(".py"):
                        out.add(os.path.join(root, name))
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(out)


class UnusedSuppression:
    """A ``# repro: ignore`` comment that excused nothing this run."""

    __slots__ = ("path", "line", "rules")

    def __init__(self, path: str, line: int, rules: Optional[frozenset[str]]):
        self.path = path
        self.line = line
        self.rules = rules

    def describe(self) -> str:
        names = "all rules" if self.rules is None else ", ".join(
            sorted(self.rules)
        )
        return f"{self.path}:{self.line}: unused suppression for {names}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "rules": None if self.rules is None else sorted(self.rules),
        }


class Analyzer:
    """Run a set of rules over a set of files, one AST pass per file."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None):
        self.rules = list(rules) if rules is not None else select_rules()
        #: The last run's call graph; None when no graph rule was active.
        self.graph: Optional[ProjectGraph] = None
        self._findings: list[Finding] = []
        self._suppressions: dict[str, SuppressionIndex] = {}
        self._rule_seconds: dict[str, float] = {}
        self.unused_suppressions: list[UnusedSuppression] = []
        self.stats: dict = {}

    # -- collection -----------------------------------------------------------

    def run(self, files: Iterable[str], root: Optional[str] = None) -> list[Finding]:
        """Analyze ``files``; paths in findings are relative to ``root``."""
        started = time.perf_counter()
        file_list = list(files)
        self.graph = None
        self._findings = []
        self._suppressions = {}
        self._rule_seconds = {rule.rule_id: 0.0 for rule in self.rules}
        self.unused_suppressions = []
        parsed = [self._run_file(path, root) for path in file_list]
        # Phase 2: the graph rules run over a graph of the parsed files.
        # It shares their suppression indexes, so a comment consulted only
        # through the graph (a justified primitive stopping REP010 taint
        # at its seed) counts as used.
        graph_rules = [rule for rule in self.rules if rule.needs_graph]
        if graph_rules:
            self.graph = build_graph([m for m in parsed if m is not None])
        late: list[Finding] = []
        for rule in graph_rules:
            t0 = time.perf_counter()
            rule.run_graph(self.graph, late.append)
            self._rule_seconds[rule.rule_id] += time.perf_counter() - t0
        # Cross-file findings honour the suppression comments of the file
        # they anchor to, same as per-file ones.
        for rule in self.rules:
            t0 = time.perf_counter()
            rule.end_run(late.append)
            self._rule_seconds[rule.rule_id] += time.perf_counter() - t0
        for finding in late:
            index = self._suppressions.get(finding.path)
            if index is None or not index.is_suppressed(
                finding.rule, finding.line
            ):
                self._findings.append(finding)
        findings = sorted(
            self._findings,
            key=lambda f: (f.path, f.line, f.col, f.rule, f.message),
        )
        self._collect_unused_suppressions()
        self._collect_stats(findings, len(file_list), started)
        return findings

    def _collect_unused_suppressions(self) -> None:
        active = frozenset(rule.rule_id for rule in self.rules)
        registered = {cls.rule_id for cls in all_rules()}
        complete = active >= registered
        for path in sorted(self._suppressions):
            index = self._suppressions[path]
            for line, rules in index.unused(active, complete=complete):
                self.unused_suppressions.append(
                    UnusedSuppression(path, line, rules)
                )

    def _collect_stats(
        self, findings: Sequence[Finding], files: int, started: float
    ) -> None:
        per_rule: dict[str, dict] = {}
        counts: dict[str, int] = {}
        for finding in findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        for rule in sorted(self.rules, key=lambda r: r.rule_id):
            per_rule[rule.rule_id] = {
                "findings": counts.get(rule.rule_id, 0),
                "seconds": round(self._rule_seconds[rule.rule_id], 4),
            }
        self.stats = {
            "files": files,
            "analysis_seconds": round(time.perf_counter() - started, 4),
            "rules": per_rule,
        }
        if self.graph is not None:
            self.stats["graph"] = self.graph.stats()

    def _run_file(
        self, path: str, root: Optional[str]
    ) -> Optional[ParsedModule]:
        """Parse and walk one file; None when it cannot be parsed."""
        display = os.path.relpath(path, root) if root else path
        display = display.replace(os.sep, "/")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
        except (OSError, SyntaxError, ValueError) as exc:
            self._findings.append(
                Finding(
                    rule=PARSE_ERROR_RULE,
                    path=display,
                    line=getattr(exc, "lineno", None) or 1,
                    col=1,
                    message=f"cannot analyze file: {exc}",
                )
            )
            return None
        lines = source.splitlines()
        suppressions = parse_suppressions(
            lines, comment_lines=comment_lines(source)
        )
        self._suppressions[display] = suppressions
        collected: list[Finding] = []
        ctx = FileContext(display, tree, lines, collected.append)
        parsed = ParsedModule(display, tree, suppressions, ctx.imports)
        active = [rule for rule in self.rules if rule.applies_to(display)]
        if not active:
            return parsed
        dispatch: dict[type, list[Rule]] = {}
        for rule in active:
            rule.start_file(ctx)
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)
        self._walk(tree, ctx, dispatch)
        for rule in active:
            rule.end_file(ctx)
        for finding in collected:
            if not suppressions.is_suppressed(finding.rule, finding.line):
                self._findings.append(finding)
        return parsed

    def _walk(
        self,
        node: ast.AST,
        ctx: FileContext,
        dispatch: dict[type, list[Rule]],
    ) -> None:
        interested = dispatch.get(type(node))
        if interested:
            for rule in interested:
                t0 = time.perf_counter()
                rule.visit(node, ctx)
                self._rule_seconds[rule.rule_id] += time.perf_counter() - t0
        ctx.ancestors.append(node)
        try:
            for child in ast.iter_child_nodes(node):
                self._walk(child, ctx, dispatch)
        finally:
            ctx.ancestors.pop()


def analyze_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    root: Optional[str] = None,
) -> list[Finding]:
    """Convenience: expand ``paths`` and run the (default) rule set."""
    return Analyzer(rules).run(iter_python_files(paths), root=root)
