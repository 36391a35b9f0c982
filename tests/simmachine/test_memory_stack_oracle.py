"""LRU stack oracle for the cache model (Mattson's stack property).

``MemoryHierarchy`` keeps one LRU residency map per level and evicts
byte by byte. The oracle below never evicts anything. It keeps one
recency stack of regions with each region's last installed size
``s_R`` and answers every capacity ``C`` from that stack alone:

* ``peak_R`` is the largest ``sum(min(s_Q, C))`` over the regions ``Q``
  installed after ``R``, taken over every install since ``R``'s own;
* ``R`` holds ``max(0, min(s_R, C, C - peak_R))`` bytes at capacity ``C``.

The peak, not the current sum, is what makes it exact: a partial
re-touch of a region above ``R`` shrinks that region, but the bytes of
``R`` it evicted earlier stay evicted. Each level then serves its
residency minus what the inner levels already covered, and the rest
comes from memory. ``flush()`` empties the stack.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simmachine.memory import DataRegion, MemoryHierarchy


class LruStackOracle:
    """Whole-region recency stack that answers every capacity at once."""

    def __init__(self, capacities):
        self.capacities = tuple(capacities)
        self.stack = []  # region names, most recent last
        self.size = {}  # last installed size s_R
        self.peak = {}  # peak_R, one entry per capacity

    def resident(self, name, index):
        if name not in self.size:
            return 0
        capacity = self.capacities[index]
        return max(
            0, min(self.size[name], capacity, capacity - self.peak[name][index])
        )

    def install(self, name, nbytes):
        if name in self.size:
            self.stack.remove(name)
        self.stack.append(name)
        self.size[name] = nbytes
        self.peak[name] = [0] * len(self.capacities)
        for index, capacity in enumerate(self.capacities):
            above = 0
            for other in reversed(self.stack):
                peak = self.peak[other]
                peak[index] = max(peak[index], above)
                above += min(self.size[other], capacity)

    def touch(self, region, nbytes):
        total = region.nbytes if nbytes is None else min(nbytes, region.nbytes)
        served = []
        covered = 0
        for index in range(len(self.capacities)):
            res = min(self.resident(region.name, index), total)
            served.append(max(0, res - covered))
            covered = max(covered, res)
        self.install(region.name, total)
        return tuple(served), total - covered

    def flush(self):
        self.stack.clear()
        self.size.clear()
        self.peak.clear()


@st.composite
def streams(draw):
    """A 1-3 level hierarchy, up to six regions and up to 40 operations.

    Capacities and sizes are tens of bytes, so that exact fits, where
    eviction arithmetic goes wrong, come up often.
    """
    capacities = sorted(
        draw(st.sets(st.integers(1, 64), min_size=1, max_size=3))
    )
    regions = [
        DataRegion(name, draw(st.integers(0, 48)))
        for name in "abcdef"[: draw(st.integers(1, 6))]
    ]
    touch = st.tuples(
        st.just("touch"),
        st.sampled_from(regions),
        st.one_of(st.none(), st.integers(0, 56)),
    )
    operation = st.one_of(
        touch,
        touch,
        touch,
        st.tuples(st.just("flush")),
    )
    return capacities, draw(st.lists(operation, max_size=40))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(streams())
# A partial eviction that leaves exactly one byte of the victim.
@example(
    (
        [1, 2],
        [
            ("touch", DataRegion("b", 2), None),
            ("touch", DataRegion("a", 1), None),
            ("touch", DataRegion("b", 2), None),
        ],
    )
)
def test_touches_match_the_lru_stack_oracle(stream):
    capacities, operations = stream
    hierarchy = MemoryHierarchy(
        [
            (f"L{i + 1}", capacity, 1e-9 * (i + 1))
            for i, capacity in enumerate(capacities)
        ],
        memory_byte_time=1e-8,
    )
    oracle = LruStackOracle(capacities)
    for op in operations:
        if op[0] == "touch":
            _, region, nbytes = op
            result = hierarchy.touch(region, nbytes)
            served, from_memory = oracle.touch(region, nbytes)
            assert result.served_by_level == served, op
            assert result.from_memory == from_memory, op
        else:
            hierarchy.flush()
            oracle.flush()
