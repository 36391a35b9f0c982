"""Analytical fast-path predictor tier (the serving ladder's top rung).

``repro.analytic`` answers prediction requests in microseconds from closed
forms instead of seconds of discrete-event simulation:

* :mod:`repro.analytic.tiers` — tier labels, :class:`TierPolicy` and the
  built-in ``fast`` / ``balanced`` / ``exact`` policies;
* :mod:`repro.analytic.descriptors` — static per-kernel working-set and
  communication descriptors for BT/SP/LU;
* :mod:`repro.analytic.model` — ECM-style compute/memory replay, alpha/beta
  communication forms, the self-reported confidence, and
  :class:`AnalyticPredictor`.

The package must stay simulation-free: analysis rule REP008 forbids it
from importing :mod:`repro.simmachine.engine`.

Policy/tier symbols import eagerly (the CLI needs them at parse time);
the model stack loads on first attribute access.
"""

from repro.analytic.tiers import (
    POLICIES,
    TIER_ANALYTIC,
    TIER_MEMO,
    TIER_SIMULATION,
    TIERS,
    TierPolicy,
    policy_names,
    resolve_tier_policy,
    tier_policy_name,
)

__all__ = [
    "ANALYTIC_REL_ERROR_BOUND",
    "AnalyticModel",
    "AnalyticPredictor",
    "AnalyticReport",
    "POLICIES",
    "TIER_ANALYTIC",
    "TIER_MEMO",
    "TIER_SIMULATION",
    "TIERS",
    "TierPolicy",
    "describe",
    "policy_names",
    "resolve_tier_policy",
    "tier_policy_name",
]

_LAZY = {
    "ANALYTIC_REL_ERROR_BOUND": "repro.analytic.model",
    "AnalyticModel": "repro.analytic.model",
    "AnalyticPredictor": "repro.analytic.model",
    "AnalyticReport": "repro.analytic.model",
    "describe": "repro.analytic.descriptors",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(__all__)
