"""``# repro: ignore[...]`` suppression comments.

A finding is suppressed when the violating line — or the line directly
above it — carries a suppression comment naming its rule::

    t0 = time.perf_counter()  # repro: ignore[REP001] — host-clock miniapp

    # repro: ignore[REP002,REP003] reason text is free-form
    self._closed = True

A bare ``# repro: ignore`` (no bracket list) suppresses every rule on that
line; prefer the explicit form so the justification names what it excuses.
Suppressions are parsed from raw source lines (not the AST), so they work
on lines the parser folds away (decorators, multi-line calls).
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Optional, Sequence

__all__ = ["SuppressionIndex", "comment_lines", "parse_suppressions"]


def comment_lines(source: str) -> Optional[set[int]]:
    """Line numbers carrying real ``#`` comment tokens.

    Returns ``None`` when the source cannot be tokenized; callers fall
    back to the permissive raw-line scan.
    """
    lines: set[int] = set()
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                lines.add(token.start[0])
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return None
    return lines

_PATTERN = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?"
)


class SuppressionIndex:
    """Per-file map of line number -> suppressed rule IDs (None = all).

    The index remembers which comment lines actually suppressed a finding
    (:attr:`used`), which is what lets the CLI flag stale suppressions.
    """

    def __init__(self, by_line: dict[int, Optional[frozenset[str]]]):
        self._by_line = by_line
        #: Comment lines that matched at least one finding this run.
        self.used: set[int] = set()

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is ignored on ``line`` (or from the line above)."""
        for candidate in (line, line - 1):
            rules = self._by_line.get(candidate, _MISSING)
            if rules is _MISSING:
                continue
            if rules is None or rule in rules:
                self.used.add(candidate)
                return True
        return False

    def entries(self) -> list[tuple[int, Optional[frozenset[str]]]]:
        """All suppression comments as ``(line, rules-or-None)`` pairs."""
        return sorted(self._by_line.items())

    def unused(
        self,
        active_rules: Optional[frozenset[str]] = None,
        complete: bool = True,
    ) -> list[tuple[int, Optional[frozenset[str]]]]:
        """Suppression comments that excused nothing this run.

        When the analyzer ran a *filtered* rule set, only comments naming
        at least one active rule can be judged — a ``REP001`` suppression
        is not stale just because ``--select REP010`` skipped REP001.  Bare
        ``# repro: ignore`` comments are only judged on a ``complete`` run.
        """
        stale: list[tuple[int, Optional[frozenset[str]]]] = []
        for line, rules in self.entries():
            if line in self.used:
                continue
            if rules is None:
                if not complete:
                    continue
            elif active_rules is not None and not (rules & active_rules):
                continue
            stale.append((line, rules))
        return stale

    def __len__(self) -> int:
        return len(self._by_line)


_MISSING: frozenset = frozenset(("\0missing",))


def parse_suppressions(
    lines: Sequence[str],
    comment_lines: Optional[set[int]] = None,
) -> SuppressionIndex:
    """Scan source lines for suppression comments (1-based line numbers).

    ``comment_lines``, when given, restricts matches to lines known to
    carry a real ``#`` comment token — this keeps suppression *examples*
    inside docstrings (like the ones in this module) from being indexed,
    which matters now that unindexed-but-unused suppressions fail the run.
    """
    by_line: dict[int, Optional[frozenset[str]]] = {}
    for lineno, text in enumerate(lines, start=1):
        if "repro:" not in text:
            continue
        if comment_lines is not None and lineno not in comment_lines:
            continue
        match = _PATTERN.search(text)
        if match is None:
            continue
        raw = match.group("rules")
        if raw is None:
            by_line[lineno] = None
        else:
            rules = frozenset(
                token.strip().upper()
                for token in raw.split(",")
                if token.strip()
            )
            by_line[lineno] = rules or None
    return SuppressionIndex(by_line)
