"""The ``repro lint`` subcommand.

Exit codes follow linter convention: **0** clean (every finding fixed or
suppressed), **1** at least one finding or a stale suppression comment
(one that excused nothing, so it must go), **2** usage/configuration
errors (bad path, unknown rule id).

Each run starts from the source alone: every file is read and parsed
once, and no state is kept between runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.analysis.reporting import render_json, render_text
from repro.analysis.rules import select_rules
from repro.analysis.visitor import Analyzer, iter_python_files

__all__ = ["add_lint_arguments", "run_lint"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint subcommand's arguments to ``parser``."""
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (json is the CI artifact form)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="append per-rule finding counts and wall time to the report",
    )
    parser.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="write the report here instead of stdout",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute ``repro lint``; returns the process exit code."""
    try:
        rules = select_rules(
            args.select.split(",") if args.select is not None else None
        )
        files = iter_python_files(args.paths)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # Anchor module names (and finding paths) at the invocation cwd so
    # `repro lint .` resolves cross-module imports exactly like
    # `repro lint src` does from the repo root.
    analyzer = Analyzer(rules)
    findings = analyzer.run(files, root=os.getcwd())
    unused = analyzer.unused_suppressions
    if args.format == "json":
        report = render_json(
            findings,
            files_analyzed=len(files),
            rules=rules,
            unused_suppressions=unused,
            stats=analyzer.stats,
        )
    else:
        report = render_text(
            findings,
            files_analyzed=len(files),
            unused_suppressions=unused,
            stats=analyzer.stats if args.stats else None,
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    else:
        print(report)
    return EXIT_FINDINGS if findings or unused else EXIT_CLEAN


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.analysis.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST invariant checks for the repro codebase",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
