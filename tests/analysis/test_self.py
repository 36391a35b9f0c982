"""Meta-test: the repository's own source tree passes its invariant checks.

This is the CI gate in tier 1: every REP rule runs over ``src/`` and must
report nothing, and no suppression comment may be stale, exactly as
``repro lint src`` exits 0.  Intentional exceptions carry a justified
inline suppression (``# repro: ignore[REPnnn] — why``); there is no
baseline.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import Analyzer, iter_python_files

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_source_tree_has_no_unbaselined_findings():
    analyzer = Analyzer()
    findings = analyzer.run(
        iter_python_files([str(REPO_ROOT / "src")]), root=str(REPO_ROOT)
    )
    assert findings == [], "analysis findings:\n" + "\n".join(
        f"  {f.location()}: {f.rule} {f.message}" for f in findings
    )
    assert analyzer.unused_suppressions == [], "stale suppressions:\n" + (
        "\n".join(
            f"  {entry.describe()}" for entry in analyzer.unused_suppressions
        )
    )
