"""Helpers shared by the memo-store and sweep tests."""

from __future__ import annotations

import json

from repro.parallel import keys as keys_module
from repro.parallel import memo as memo_module


def count_serialisation(monkeypatch):
    """Count ``canonical_json``, ``json.dumps`` and ``json.loads`` calls."""
    calls = {"canonical_json": 0, "dumps": 0, "loads": 0}

    def counted(original, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for module in (memo_module, keys_module):
        monkeypatch.setattr(
            module, "canonical_json",
            counted(keys_module.canonical_json, "canonical_json"),
        )
    monkeypatch.setattr(json, "dumps", counted(json.dumps, "dumps"))
    monkeypatch.setattr(json, "loads", counted(json.loads, "loads"))
    return calls
