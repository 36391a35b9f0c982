"""Liveness: a kept rule fires on the real module it guards.

Fixture pairs prove a rule recognises a violation in a toy file; they do
not prove it still reaches the code it exists for (a path filter or an
import spelling can drift away from the tree). Each test here copies one
real ``src/`` module into a temporary tree, requires no finding on the
untouched copy, then injects the violation the rule exists for and
requires exactly one finding of that rule.
"""

from __future__ import annotations

from pathlib import Path

from repro import simmachine
from repro.analysis import analyze_paths, select_rules

SIMMACHINE = Path(simmachine.__file__).parent


def _lint_copy(root, module, rule, injected=""):
    """Lint a copy of ``simmachine/<module>`` with ``injected`` appended."""
    target = root / "repro" / "simmachine" / module
    target.parent.mkdir(parents=True)
    source = (SIMMACHINE / module).read_text(encoding="utf-8")
    target.write_text(source + injected, encoding="utf-8")
    findings = analyze_paths(
        [str(root)], rules=select_rules([rule]), root=str(root)
    )
    return [f.rule for f in findings]


def test_rep001_fires_on_a_clock_in_noise(tmp_path):
    clock = (
        "\n\nimport time\n\n\n"
        "def _stamp() -> float:\n"
        "    return time.perf_counter()\n"
    )
    assert _lint_copy(tmp_path / "clean", "noise.py", "REP001") == []
    assert _lint_copy(
        tmp_path / "injected", "noise.py", "REP001", clock
    ) == ["REP001"]


def test_rep009_fires_on_a_profiler_import_in_engine(tmp_path):
    profiler = "\nfrom repro.obs import profile\n"
    assert _lint_copy(tmp_path / "clean", "engine.py", "REP009") == []
    assert _lint_copy(
        tmp_path / "injected", "engine.py", "REP009", profiler
    ) == ["REP009"]
