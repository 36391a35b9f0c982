"""Property battery for the consistent-hash shard ring.

The ring is the shard router's load-bearing wall: if placement is
unbalanced the fleet hot-spots, and if membership changes remap more
than the departed shard's arcs, every kill/respawn invalidates warm
caches fleet-wide. Both properties are checked here with Hypothesis
over 1–16 shards rather than a couple of hand-picked sizes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.service.shard import HashRing, route_key

#: A fixed fleet-sized key population; hashing is deterministic, so the
#: property checks are exact for this set, not statistical estimates.
KEYS = [
    f"{bench}|{cls}|{nprocs}|{seed}"
    for bench in ("BT", "SP", "LU", "CG", "MG")
    for cls in ("S", "W", "A", "B")
    for nprocs in (1, 4, 9, 16, 25, 36, 49, 64, 81, 100)
    for seed in range(10)
]


def _placement(ring: HashRing) -> dict[str, int]:
    return {key: ring.shard_for(key) for key in KEYS}


def _counts(placement: dict[str, int]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for shard in placement.values():
        counts[shard] = counts.get(shard, 0) + 1
    return counts


@settings(max_examples=16, deadline=None)
@given(n=st.integers(min_value=1, max_value=16))
def test_key_distribution_is_balanced(n):
    """No shard holds more than 2x (or less than a third of) its share."""
    ring = HashRing(range(n), vnodes=128)
    counts = _counts(_placement(ring))
    assert set(counts) <= set(range(n))
    mean = len(KEYS) / n
    assert max(counts.values()) <= 2.0 * mean
    assert min(counts.values()) >= mean / 3.0
    # every shard serves something
    assert len(counts) == n


@settings(max_examples=16, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=16),
    victim_index=st.integers(min_value=0, max_value=15),
)
def test_removing_a_shard_remaps_only_its_keys(n, victim_index):
    """The minimal-disruption property that makes kill/respawn cheap.

    Dropping one shard moves exactly the keys it held — every other
    key's placement is untouched — and the moved fraction is about 1/n.
    """
    victim = victim_index % n
    ring = HashRing(range(n), vnodes=128)
    before = _placement(ring)
    ring.remove(victim)
    after = _placement(ring)
    moved = [key for key in KEYS if before[key] != after[key]]
    assert all(before[key] == victim for key in moved)
    assert all(after[key] != victim for key in KEYS)
    # everything the victim held moved, nothing else did
    assert len(moved) == sum(1 for s in before.values() if s == victim)
    assert len(moved) <= 2.0 * len(KEYS) / n


@settings(max_examples=16, deadline=None)
@given(n=st.integers(min_value=1, max_value=15))
def test_adding_a_shard_steals_only_its_arcs(n):
    """Growth is minimal-disruption too: moved keys all land on the
    newcomer, and the newcomer takes roughly its fair 1/(n+1) share."""
    ring = HashRing(range(n), vnodes=128)
    before = _placement(ring)
    newcomer = n
    ring.add(newcomer)
    after = _placement(ring)
    moved = [key for key in KEYS if before[key] != after[key]]
    assert all(after[key] == newcomer for key in moved)
    assert len(moved) <= 2.0 * len(KEYS) / (n + 1)
    assert len(moved) >= len(KEYS) / (3.0 * (n + 1))


@settings(max_examples=16, deadline=None)
@given(n=st.integers(min_value=1, max_value=16))
def test_placement_is_independent_of_insertion_order(n):
    forward = HashRing(range(n), vnodes=128)
    backward = HashRing(reversed(range(n)), vnodes=128)
    assert _placement(forward) == _placement(backward)


def test_ring_membership_bookkeeping():
    ring = HashRing()
    assert len(ring) == 0
    ring.add(3)
    ring.add(3)  # idempotent
    ring.add(1)
    assert ring.shard_ids == (1, 3)
    assert 3 in ring and 2 not in ring
    ring.remove(3)
    ring.remove(3)  # idempotent
    assert ring.shard_ids == (1,)
    assert all(ring.shard_for(key) == 1 for key in KEYS[:20])


def test_empty_ring_raises_typed_error():
    ring = HashRing()
    with pytest.raises(ServiceError):
        ring.shard_for("BT|S|4|0")


def test_route_key_ignores_chain_length():
    """All chain lengths of one cell must land on one shard, so its
    batcher can coalesce them into a single measurement plan."""
    base = {"benchmark": "BT", "problem_class": "S", "nprocs": 4, "seed": 0}
    keys = {route_key({**base, "chain_length": c}) for c in (2, 3, 4)}
    assert len(keys) == 1
    # malformed requests still route somewhere (the shard rejects them)
    assert isinstance(route_key({}), str)
