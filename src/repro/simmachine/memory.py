"""Region-granularity cache / memory-hierarchy model.

Kernels declare named :class:`DataRegion`\\ s (arrays) that they stream
through once per invocation. The hierarchy tracks, per cache level, how many
bytes of each region are resident, with LRU replacement at region
granularity: touching a region makes it most-recently-used and resident up
to the level's capacity, evicting bytes from the least-recently-used
regions.

This is deliberately coarser than a line-accurate cache simulator, but it
captures exactly the phenomenon the paper's coupling parameter measures:

* a kernel re-touching the region a *preceding* kernel just produced finds
  it (partially) resident → **constructive coupling** (``C < 1``);
* two kernels whose combined footprint exceeds a level evict each other's
  data relative to running alone → **destructive coupling** (``C > 1``);
* how much of the region is still resident depends on capacity, so the
  coupling value *transitions* as the per-processor working set crosses
  each level's capacity while the problem size or processor count scales —
  the paper's "finite number of major value changes".

Costs are per-byte service times per level, so a touch's cost is::

    sum(bytes_served_by_level * level.byte_time) + bytes_from_memory * memory_byte_time

Writes pay ``write_factor`` on bytes that miss all levels (write-allocate
traffic to memory).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from repro.errors import ConfigurationError
from repro.util.validation import check_non_negative, check_positive

__all__ = ["DataRegion", "TouchResult", "MemoryHierarchy"]


@dataclass(frozen=True)
class DataRegion:
    """A named, fixed-size block of application data (one array)."""

    name: str
    nbytes: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("DataRegion needs a non-empty name")
        check_non_negative("DataRegion.nbytes", self.nbytes)


class TouchResult(NamedTuple):
    """Outcome of streaming through a region once.

    Attributes
    ----------
    time:
        Simulated seconds spent on memory traffic for this touch.
    served_by_level:
        Bytes served by each cache level, innermost first.
    from_memory:
        Bytes that missed every level (fetched from main memory).
    total:
        Total bytes touched.
    """

    time: float
    served_by_level: tuple[int, ...]
    from_memory: int
    total: int

    @property
    def hit_fraction(self) -> float:
        """Fraction of touched bytes served by any cache level."""
        if self.total == 0:
            return 1.0
        return 1.0 - self.from_memory / self.total


class _Level:
    """One cache level: LRU-ordered residency map (first=LRU, last=MRU)."""

    __slots__ = ("name", "capacity", "byte_time", "resident", "occupied")

    def __init__(self, name: str, capacity: int, byte_time: float) -> None:
        self.name = name
        self.capacity = int(capacity)
        self.byte_time = byte_time
        self.resident: OrderedDict[str, int] = OrderedDict()
        self.occupied = 0

    def resident_bytes(self, region_name: str) -> int:
        return self.resident.get(region_name, 0)

    def install(self, region_name: str, nbytes: int) -> None:
        """Make ``nbytes`` of the region resident as MRU, evicting LRU bytes."""
        nbytes = min(nbytes, self.capacity)
        old = self.resident.pop(region_name, 0)
        self.occupied -= old
        # Evict from the cold end until the new region fits.
        while self.occupied + nbytes > self.capacity and self.resident:
            victim, vbytes = next(iter(self.resident.items()))
            need = self.occupied + nbytes - self.capacity
            if vbytes <= need:
                self.resident.popitem(last=False)
                self.occupied -= vbytes
            else:
                self.resident[victim] = vbytes - need
                self.occupied -= need
        self.resident[region_name] = nbytes
        self.occupied += nbytes

    def flush(self) -> None:
        self.resident.clear()
        self.occupied = 0


class MemoryHierarchy:
    """A stack of cache levels in front of main memory, for one processor."""

    def __init__(
        self,
        level_specs: Sequence[tuple[str, int, float]],
        memory_byte_time: float,
        write_factor: float = 1.0,
    ) -> None:
        """
        Parameters
        ----------
        level_specs:
            ``(name, capacity_bytes, byte_time)`` per level, innermost first.
            Capacities must be strictly increasing outward.
        memory_byte_time:
            Seconds per byte served from main memory. Must exceed every
            level's ``byte_time``.
        write_factor:
            Multiplier on the memory cost of bytes *written* that miss all
            levels (write-allocate + write-back traffic).
        """
        if not level_specs:
            raise ConfigurationError("MemoryHierarchy needs >= 1 cache level")
        self.levels: list[_Level] = []
        prev_cap = 0
        prev_bt = 0.0
        for name, cap, bt in level_specs:
            check_positive(f"{name} capacity", cap)
            check_positive(f"{name} byte_time", bt)
            if cap <= prev_cap:
                raise ConfigurationError(
                    "cache capacities must increase outward "
                    f"({name}: {cap} <= {prev_cap})"
                )
            if bt <= prev_bt:
                raise ConfigurationError(
                    "cache byte times must increase outward "
                    f"({name}: {bt} <= {prev_bt})"
                )
            self.levels.append(_Level(name, cap, bt))
            prev_cap, prev_bt = cap, bt
        check_positive("memory_byte_time", memory_byte_time)
        if memory_byte_time <= prev_bt:
            raise ConfigurationError(
                "memory_byte_time must exceed the outermost cache byte_time"
            )
        self.memory_byte_time = memory_byte_time
        self.write_factor = check_positive("write_factor", write_factor)
        # Aggregate statistics (flushed into the obs registry per run).
        self.touches = 0
        self.bytes_hit = 0
        self.bytes_from_memory = 0

    # -- queries ----------------------------------------------------------

    def resident_bytes(self, level: int, region_name: str) -> int:
        """Bytes of ``region_name`` resident at cache level ``level``."""
        return self.levels[level].resident_bytes(region_name)

    @property
    def capacities(self) -> tuple[int, ...]:
        """Capacity of each level, innermost first."""
        return tuple(lv.capacity for lv in self.levels)

    # -- operations --------------------------------------------------------

    def touch(
        self,
        region: DataRegion,
        nbytes: Optional[int] = None,
        write: bool = False,
    ) -> TouchResult:
        """Stream through ``nbytes`` of ``region`` (default: all of it).

        Returns the traffic cost and updates residency at every level.
        """
        total = region.nbytes if nbytes is None else int(nbytes)
        if total < 0:
            raise ConfigurationError(f"touch of negative size {total}")
        if region.nbytes < total:
            total = region.nbytes
        name = region.name
        served: list[int] = []
        covered = 0  # bytes already served by an inner level
        time = 0.0
        for level in self.levels:
            res = level.resident.get(name, 0)
            if total < res:
                res = total
            here = res - covered
            if here > 0:
                covered = res
            else:
                here = 0
            served.append(here)
            time += here * level.byte_time
        from_memory = total - covered
        mem_time = from_memory * self.memory_byte_time
        if write:
            mem_time *= self.write_factor
        time += mem_time
        # The touched bytes become the hottest data at every level.
        for level in self.levels:
            level.install(name, total)
        self.touches += 1
        self.bytes_hit += covered
        self.bytes_from_memory += from_memory
        return TouchResult(time, tuple(served), from_memory, total)

    def flush(self) -> None:
        """Invalidate everything (cold caches)."""
        for level in self.levels:
            level.flush()
