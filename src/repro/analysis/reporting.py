"""Text and JSON reporters for analysis findings."""

from __future__ import annotations

import json
from typing import Optional, Sequence

from repro.analysis.findings import Finding
from repro.analysis.visitor import UnusedSuppression

__all__ = ["render_text", "render_json"]


def render_text(
    findings: Sequence[Finding],
    files_analyzed: int = 0,
    unused_suppressions: Sequence[UnusedSuppression] = (),
    stats: Optional[dict] = None,
) -> str:
    """Human-readable report: one ``path:line:col`` line per finding."""
    lines = []
    for f in findings:
        lines.append(f"{f.location()}: {f.rule} {f.message}")
        for hop in f.witness:
            lines.append(f"    via {hop}")
    if unused_suppressions:
        lines.append("")
        lines.append(
            "stale suppressions (the comment excused nothing — fix or "
            "remove it):"
        )
        lines.extend(f"  {entry.describe()}" for entry in unused_suppressions)
    if stats:
        lines.append("")
        lines.append(
            f"analysis: {stats.get('analysis_seconds', 0.0):.3f}s over "
            f"{stats.get('files', files_analyzed)} file(s)"
        )
        graph = stats.get("graph")
        if graph:
            lines.append(
                f"call graph: {graph['functions']} function(s), "
                f"{graph['edges']} edge(s), {graph['unresolved']} "
                f"unresolved, {graph['dynamic_calls']} dynamic "
                f"({graph['build_seconds']:.3f}s build)"
            )
        for rule_id, entry in sorted(stats.get("rules", {}).items()):
            lines.append(
                f"  {rule_id}: {entry['findings']} finding(s) in "
                f"{entry['seconds']:.3f}s"
            )
    lines.append("")
    by_rule: dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    breakdown = ", ".join(
        f"{rule}={count}" for rule, count in sorted(by_rule.items())
    )
    summary = (
        f"{len(findings)} finding(s) in {files_analyzed} file(s)"
        + (f" ({breakdown})" if breakdown else "")
        + (
            f"; {len(unused_suppressions)} stale suppression(s)"
            if unused_suppressions
            else ""
        )
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding],
    files_analyzed: int = 0,
    rules: Optional[Sequence] = None,
    unused_suppressions: Sequence[UnusedSuppression] = (),
    stats: Optional[dict] = None,
) -> str:
    """Machine-readable report (the CI artifact format)."""
    by_rule: dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    document = {
        "version": 3,
        "files_analyzed": files_analyzed,
        "findings": [f.to_dict() for f in findings],
        "unused_suppressions": [
            entry.to_dict() for entry in unused_suppressions
        ],
        "summary": {
            "total": len(findings),
            "by_rule": dict(sorted(by_rule.items())),
            "stale_suppressions": len(unused_suppressions),
        },
    }
    if stats is not None:
        document["stats"] = stats
    if rules is not None:
        document["rules"] = [
            {
                "id": rule.rule_id,
                "name": rule.name,
                "description": rule.description,
            }
            for rule in rules
        ]
    return json.dumps(document, indent=2, sort_keys=True)
