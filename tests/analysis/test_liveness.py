"""Liveness: a kept rule fires on the real module it guards.

Fixture pairs prove a rule recognises a violation in a toy file; they do
not prove it still reaches the code it exists for (a path filter or an
import spelling can drift away from the tree). Each test here copies one
real ``src/`` module into a temporary tree, requires no finding on the
untouched copy, then injects the violation the rule exists for and
requires exactly one finding of that rule.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import repro
from repro.analysis import analyze_paths, select_rules

PACKAGE = Path(repro.__file__).parent


def _lint(root, rule):
    findings = analyze_paths(
        [str(root)], rules=select_rules([rule]), root=str(root)
    )
    return [f.rule for f in findings]


def _lint_copy(root, module, rule, injected=""):
    """Lint a copy of ``repro/<module>`` with ``injected`` appended."""
    target = root / "repro" / module
    target.parent.mkdir(parents=True)
    source = (PACKAGE / module).read_text(encoding="utf-8")
    target.write_text(source + injected, encoding="utf-8")
    return _lint(root, rule)


def _lint_package_copy(root, rule, injected=None):
    """Lint a copy of the whole package, each ``injected`` text appended.

    ``injected`` maps a module path to the text appended to it. For
    cross-file rules that reconcile the whole tree or follow its calls.
    """
    shutil.copytree(
        PACKAGE,
        root / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    for module, text in (injected or {}).items():
        target = root / "repro" / module
        target.write_text(
            target.read_text(encoding="utf-8") + text, encoding="utf-8"
        )
    return _lint(root, rule)


def test_rep001_fires_on_a_clock_in_noise(tmp_path):
    clock = (
        "\n\nimport time\n\n\n"
        "def _stamp() -> float:\n"
        "    return time.perf_counter()\n"
    )
    module = "simmachine/noise.py"
    assert _lint_copy(tmp_path / "clean", module, "REP001") == []
    assert _lint_copy(
        tmp_path / "injected", module, "REP001", clock
    ) == ["REP001"]


def test_rep009_fires_on_a_profiler_import_in_engine(tmp_path):
    profiler = "\nfrom repro.obs import profile\n"
    module = "simmachine/engine.py"
    assert _lint_copy(tmp_path / "clean", module, "REP009") == []
    assert _lint_copy(
        tmp_path / "injected", module, "REP009", profiler
    ) == ["REP009"]


def test_rep007_fires_on_a_lambda_submitted_to_the_cell_pool(tmp_path):
    lambda_task = (
        "\n\ndef _submit_lambda(pool: CellPool, spec: CellSpec) -> Future:\n"
        "    return pool.submit(lambda cell: run_cell(cell), spec)\n"
    )
    module = "parallel/executor.py"
    assert _lint_copy(tmp_path / "clean", module, "REP007") == []
    assert _lint_copy(
        tmp_path / "injected", module, "REP007", lambda_task
    ) == ["REP007"]


def test_rep004_fires_on_an_unregistered_site_in_the_worker_pool(tmp_path):
    unregistered = (
        "\n\ndef _vanish() -> bool:\n"
        '    return faults.check("worker.cell.vanish") is not None\n'
    )
    assert _lint_package_copy(tmp_path / "clean", "REP004") == []
    assert _lint_package_copy(
        tmp_path / "injected",
        "REP004",
        {"service/workers.py": unregistered},
    ) == ["REP004"]


def test_rep008_fires_on_an_engine_import_in_the_analytic_model(tmp_path):
    engine = "\nfrom repro.simmachine import engine\n"
    module = "analytic/model.py"
    assert _lint_copy(tmp_path / "clean", module, "REP008") == []
    assert _lint_copy(
        tmp_path / "injected", module, "REP008", engine
    ) == ["REP008"]


def test_rep005_fires_on_a_builtin_raise_in_the_wire_api(tmp_path):
    untyped = (
        "\n\ndef _reject(line: str) -> None:\n"
        "    raise ValueError(line)\n"
    )
    module = "service/api.py"
    assert _lint_copy(tmp_path / "clean", module, "REP005") == []
    assert _lint_copy(
        tmp_path / "injected", module, "REP005", untyped
    ) == ["REP005"]


def test_rep006_fires_on_a_silent_broad_except_in_the_wire_api(tmp_path):
    swallowed = (
        "\n\ndef _quietly(service: PredictionService, line: str) -> None:\n"
        "    try:\n"
        "        handle_line(service, line)\n"
        "    except Exception:\n"
        "        pass\n"
    )
    module = "service/api.py"
    assert _lint_copy(tmp_path / "clean", module, "REP006") == []
    assert _lint_copy(
        tmp_path / "injected", module, "REP006", swallowed
    ) == ["REP006"]


def test_rep002_fires_on_an_unguarded_flag_in_the_worker_pool(tmp_path):
    # WorkerPool is the module's last statement: the appended method
    # lands in its body, outside any `with self._lock:`.
    unguarded = (
        "\n    def _probe(self) -> None:\n"
        "        self._closed_probe = True\n"
    )
    module = "service/workers.py"
    assert _lint_copy(tmp_path / "clean", module, "REP002") == []
    assert _lint_copy(
        tmp_path / "injected", module, "REP002", unguarded
    ) == ["REP002"]


def test_rep003_fires_on_an_unbounded_get_in_the_worker_pool(tmp_path):
    unbounded = "\n\ndef _drain(q):\n    return q.get()\n"
    module = "service/workers.py"
    assert _lint_copy(tmp_path / "clean", module, "REP003") == []
    assert _lint_copy(
        tmp_path / "injected", module, "REP003", unbounded
    ) == ["REP003"]


def test_rep010_fires_on_a_clock_two_hops_from_noise(tmp_path):
    # noise._jitter_seed -> validation._stamp -> validation._wall_clock
    # -> time.time: no clock is spelled in the tier, so REP001 is silent.
    clock = (
        "\n\nimport time\n\n\n"
        "def _wall_clock() -> float:\n"
        "    return time.time()\n\n\n"
        "def _stamp() -> float:\n"
        "    return _wall_clock()\n"
    )
    caller = (
        "\n\nfrom repro.util.validation import _stamp\n\n\n"
        "def _jitter_seed() -> float:\n"
        "    return _stamp()\n"
    )
    injected = {"util/validation.py": clock, "simmachine/noise.py": caller}
    assert _lint_package_copy(tmp_path / "clean", "REP010") == []
    assert _lint_package_copy(
        tmp_path / "injected", "REP010", injected
    ) == ["REP010"]
