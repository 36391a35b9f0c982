"""The service's L1 tier: an in-process report LRU.

:class:`LRUCache` (optional TTL) holds finished
:class:`~repro.core.predictor.PredictionReport` objects keyed by the full
request tuple (benchmark, class, nprocs, chain length, seed). Below it
sits the one persistent result store, the
:class:`~repro.parallel.memo.SimulationMemoStore` directory: it holds the
seed-keyed measurement and cell records that campaigns and the serving
engine share, and the engine's seed-free archive records
(:func:`~repro.parallel.keys.archive_key`), so even when a report ages
out of the LRU (or a fresh process starts against a warm directory) the
service answers from one archive record on the request thread, without
re-running a single simulation.

Only the L1 tier distinguishes seeds for an archived answer: the archive
record of a (machine, protocol, cell, chain length) is written once, by
the first cell to finish it, and answers every seed after.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """Thread-safe least-recently-used cache with optional TTL.

    ``clock`` is injectable (tests freeze it); entries older than
    ``ttl`` seconds are treated as absent and dropped on access.
    """

    def __init__(
        self,
        capacity: int = 1024,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"cache ttl must be positive, got {ttl}")
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock
        self._entries: "OrderedDict[Hashable, tuple[Any, float]]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value, refreshing recency; ``default`` on miss."""
        with self._lock:
            entry = self._entries.get(key, _MISSING)
            if entry is _MISSING:
                self.misses += 1
                return default
            value, stored_at = entry
            if self.ttl is not None and self._clock() - stored_at > self.ttl:
                del self._entries[key]
                self.expirations += 1
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh an entry, evicting the LRU tail beyond capacity."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (value, self._clock())
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def drop(self, key: Hashable) -> bool:
        """Remove one entry (if present); True when something was dropped."""
        with self._lock:
            return self._entries.pop(key, _MISSING) is not _MISSING

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Counters snapshot (hits/misses/evictions/expirations/size)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
            }
