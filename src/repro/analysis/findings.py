"""Findings: what a rule reports, pinned to a source location.

A :class:`Finding` pins a rule violation to ``path:line:col`` and names
its enclosing scope.  Graph rules add a witness call path.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding"]

#: Pseudo-rule used for files the analyzer cannot parse.
PARSE_ERROR_RULE = "REP000"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: Dotted enclosing scope (``Class.method``), "" at module level.
    scope: str = ""
    #: Witness call path for graph findings (``caller -> callee`` hops).
    witness: tuple[str, ...] = ()

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        data = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "scope": self.scope,
            "message": self.message,
        }
        if self.witness:
            data["witness"] = list(self.witness)
        return data
