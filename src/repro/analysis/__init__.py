"""AST-based invariant checking for the repro codebase.

The paper's methodology rests on reproducible measurements; this package
statically enforces the conventions that keep them reproducible — in the
spirit of Kerncraft/PPT-style static modeling, applied to our own source:

========  ==================================================================
REP001    determinism: no wall clocks / global RNGs in the deterministic tier
REP002    lock discipline: guarded classes mutate state under their lock
REP003    blocking calls in service/ carry timeouts (deadlock hygiene)
REP004    fault-site strings match the registered ``faults.SITES`` table
REP005    wire-path raises use the ``repro.errors`` taxonomy
REP006    broad excepts in service/ carry an inline justification
REP007    pool-submitted callables and arguments must be picklable
REP008    tier purity: the analytic fast path never imports the simulator
REP009    observability discipline: no spans/logging in the engine hot path
REP010    transitive determinism: prediction tiers must not *reach* wall
          clocks / global RNG / env reads through project calls (graph
          rule; findings carry a witness call path)
========  ==================================================================

Analysis runs in two phases: phase 1 walks each file's AST once for the
per-file rules and builds a project-wide call graph
(:mod:`repro.analysis.graph`); phase 2 runs dataflow rules
(:mod:`repro.analysis.dataflow`) over that graph.

Run it as ``repro lint src/`` (exit 0 = clean, 1 = findings / stale
baseline entries / stale suppressions, 2 = usage error).  Findings can be
suppressed inline (``# repro: ignore[REP001]``) or grandfathered in
``analysis-baseline.json``; see docs/DEVELOPMENT.md.
"""

from repro.analysis.baseline import Baseline, split_against_baseline
from repro.analysis.dataflow import TaintAnalysis
from repro.analysis.findings import Finding, assign_stable_ids
from repro.analysis.graph import (
    CallEdge,
    ExternalRef,
    FunctionInfo,
    ProjectGraph,
    UnresolvedCall,
    build_graph,
    load_cached,
)
from repro.analysis.reporting import render_json, render_text
from repro.analysis.rules import (
    FileContext,
    Rule,
    all_rules,
    register,
    select_rules,
)
from repro.analysis.visitor import (
    Analyzer,
    UnusedSuppression,
    analyze_paths,
    iter_python_files,
)

__all__ = [
    "Analyzer",
    "Baseline",
    "CallEdge",
    "ExternalRef",
    "FileContext",
    "Finding",
    "FunctionInfo",
    "ProjectGraph",
    "Rule",
    "TaintAnalysis",
    "UnresolvedCall",
    "UnusedSuppression",
    "all_rules",
    "analyze_paths",
    "assign_stable_ids",
    "build_graph",
    "iter_python_files",
    "load_cached",
    "register",
    "render_json",
    "render_text",
    "select_rules",
    "split_against_baseline",
]
