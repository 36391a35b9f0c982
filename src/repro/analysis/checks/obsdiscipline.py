"""REP009 — the simulator's hot loops stay observability-free.

:mod:`repro.simmachine.engine` and :mod:`repro.simmachine.memory` execute
per *event* and per *memory reference* — millions of times per campaign.
Observability there belongs one level up: :class:`Machine.run` tags the
whole run (one pointer check), the instrument layer opens spans around
measurements, and the sampling profiler attributes time statistically
from outside.  A span opened inside the event loop, or a direct import of
:mod:`repro.obs.profile`, would put dictionary writes and clock reads on
the per-event path and silently sink the throughput budget that
``benchmarks/test_microbench_simulator.py`` and perfbench's
``sim-cells`` guard — so the boundary is enforced structurally, like
REP008's tier purity.
"""

from __future__ import annotations

import ast

from repro.analysis.rules import FileContext, Rule, register

__all__ = ["ObsDisciplineRule"]

#: Files forming the per-event hot path (within a ``simmachine`` dir).
HOT_FILES = frozenset({"engine.py", "memory.py"})

#: The profiler must observe the engine from outside, never from within.
FORBIDDEN_MODULE = "repro.obs.profile"

#: Canonical callables that open a span (``obs.span`` is the re-export).
_SPAN_CALLS = frozenset({"repro.obs.span", "repro.obs.tracing.span"})


def in_hot_path(path: str) -> bool:
    parts = path.split("/")
    return parts[-1] in HOT_FILES and "simmachine" in parts[:-1]


def _imports_profile(module: str) -> bool:
    stripped = module.lstrip(".")
    return (
        stripped == FORBIDDEN_MODULE
        or stripped.startswith(FORBIDDEN_MODULE + ".")
        or stripped == "obs.profile"
        or stripped.endswith(".obs.profile")
    )


@register
class ObsDisciplineRule(Rule):
    rule_id = "REP009"
    name = "obs-discipline"
    description = (
        "the simulator hot path (simmachine/engine.py, memory.py) must "
        "not open spans or import repro.obs.profile — per-event "
        "observability sinks the throughput budget"
    )
    node_types = (ast.Call, ast.Import, ast.ImportFrom)

    def applies_to(self, path: str) -> bool:
        return in_hot_path(path)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _imports_profile(alias.name):
                    ctx.report(
                        self, node,
                        f"hot path imports {alias.name}; the profiler "
                        "observes the engine from outside, never from "
                        "within",
                    )
            return
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if _imports_profile(module):
                ctx.report(
                    self, node,
                    f"hot path imports from {module}; the profiler "
                    "observes the engine from outside, never from within",
                )
                return
            stripped = module.lstrip(".")
            if stripped.endswith("obs") or stripped == "repro.obs":
                for alias in node.names:
                    if alias.name == "profile":
                        ctx.report(
                            self, node,
                            f"hot path imports profile from {module}; the "
                            "profiler observes the engine from outside, "
                            "never from within",
                        )
            return
        resolved = ctx.imports.resolve(node.func)
        if resolved is None:
            return
        stripped = resolved.lstrip(".")
        if stripped in _SPAN_CALLS or stripped.endswith(".obs.span"):
            ctx.report(
                self, node,
                "span opened on the simulator hot path; per-event spans "
                "cost clock reads and dict writes millions of times per "
                "campaign — tag the run from Machine.run instead",
            )
