"""Common benchmark machinery: layouts, kernels, and comm helpers.

A :class:`Benchmark` instance binds a problem class to a process count and
exposes the paper's kernel decomposition: an ordered list of *loop kernels*
(the application's cyclic control flow), plus *pre* kernels run once before
the loop (INITIALIZATION, ...) and *post* kernels run once after (FINAL,
...). Each kernel's body is a generator taking a
:class:`~repro.simmachine.process.RankContext` and performing **one
invocation** on that rank; the measurement harness and the application
driver compose these bodies into full programs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional, Sequence

from repro.errors import ConfigurationError
from repro.npb.classes import ProblemSize, problem_size
from repro.simmachine.engine import Event
from repro.simmachine.memory import DataRegion
from repro.simmachine.process import RankContext
from repro.simmpi.topology import CartGrid, partition_sizes

__all__ = ["KernelInstance", "Layout", "Benchmark", "staged_memory"]

KernelBody = Callable[[RankContext], Generator[Event, Any, Any]]


@dataclass(frozen=True)
class KernelInstance:
    """A named kernel bound to a benchmark configuration."""

    name: str
    body: KernelBody

    def __call__(self, ctx: RankContext) -> Generator[Event, Any, Any]:
        """Label ``ctx``'s counters and return one invocation's generator.

        The label is set at call time, not at the generator's first step,
        so the caller must run the generator at once (``yield from``), as
        every composed program does. Returning the body's own generator
        spares one frame on every resume inside the kernel.
        """
        ctx.set_label(self.name)
        return self.body(ctx)


class Layout:
    """2-D block decomposition of a cubic grid over a process grid.

    x is split over the grid's first dimension, y over the second, z stays
    local — the simplification of the NPB multi-partition/pencil schemes
    documented in DESIGN.md. Uneven divisions follow the NPB convention
    (leading ranks get the extra points), which is a deliberate source of
    load imbalance.
    """

    def __init__(self, size: ProblemSize, grid: CartGrid):
        if grid.px > size.nx or grid.py > size.ny:
            raise ConfigurationError(
                f"grid {grid.px}x{grid.py} too fine for {size.label}"
            )
        self.size = size
        self.grid = grid
        self._x_parts = partition_sizes(size.nx, grid.px)
        self._y_parts = partition_sizes(size.ny, grid.py)

    def local_dims(self, rank: int) -> tuple[int, int, int]:
        """``(nx_loc, ny_loc, nz_loc)`` for ``rank``."""
        i, j = self.grid.coords(rank)
        return (self._x_parts[i], self._y_parts[j], self.size.nz)

    def local_points(self, rank: int) -> int:
        """Grid points owned by ``rank``."""
        nx, ny, nz = self.local_dims(rank)
        return nx * ny * nz

    def max_local_points(self) -> int:
        """Points on the most loaded rank."""
        return max(self.local_points(r) for r in range(self.grid.size))


def staged_memory(
    ctx: RankContext,
    regions: Sequence[tuple[DataRegion, Optional[int], bool]],
    stages: int,
) -> float:
    """Charge a kernel's full memory traffic once, spread over ``stages``.

    Kernels that interleave computation with communication (multi-partition
    sweeps, wavefronts) stream their arrays once per invocation, not once
    per stage. Touching the region per stage would double-count residency
    (the model tracks the *first* N bytes of a region), so the traffic is
    charged in one bulk touch here and the caller adds
    ``returned_value`` seconds to each stage's delay.
    """
    if stages < 1:
        raise ConfigurationError(f"stages must be >= 1, got {stages}")
    return ctx.touch_regions(regions) / stages


class Benchmark(ABC):
    """Base class for the BT/SP/LU work-alikes."""

    #: Benchmark name, set by subclasses ("BT", "SP", "LU").
    name: str = ""

    def __init__(self, problem_class: str, nprocs: int):
        self.size: ProblemSize = problem_size(self.name, problem_class)
        self.nprocs = nprocs
        self.grid: CartGrid = self._make_grid(nprocs)
        self.layout = Layout(self.size, self.grid)
        self._regions: Dict[tuple[int, str], DataRegion] = {}
        self._kernels: Dict[str, KernelInstance] = {}
        self._build_kernels()

    # -- to be provided by subclasses ---------------------------------------

    @abstractmethod
    def _make_grid(self, nprocs: int) -> CartGrid:
        """Validate ``nprocs`` and return the process grid."""

    @abstractmethod
    def _build_kernels(self) -> None:
        """Register all kernels via :meth:`_register`."""

    @property
    @abstractmethod
    def loop_kernel_names(self) -> tuple[str, ...]:
        """Loop kernels in control-flow order (the cyclic chain)."""

    @property
    @abstractmethod
    def pre_kernel_names(self) -> tuple[str, ...]:
        """Kernels run once before the loop."""

    @property
    @abstractmethod
    def post_kernel_names(self) -> tuple[str, ...]:
        """Kernels run once after the loop."""

    @abstractmethod
    def field_bytes_per_point(self) -> dict[str, int]:
        """Bytes per grid point for each named data field."""

    @abstractmethod
    def kernel_fields(self) -> dict[str, tuple[str, ...]]:
        """Data fields each kernel streams through, in touch order.

        Single source of truth shared by the kernel bodies, the analytical
        models, and the measurement harness's context replay (which
        re-creates the cache state left by the kernels that run *between*
        two executions of a measured chain).
        """

    # -- common machinery ----------------------------------------------------

    def _register(self, name: str, body: KernelBody) -> None:
        if name in self._kernels:
            raise ConfigurationError(f"duplicate kernel {name!r}")
        self._kernels[name] = KernelInstance(name, body)

    def kernel(self, name: str) -> KernelInstance:
        """Look up a kernel by name."""
        try:
            return self._kernels[name]
        except KeyError:
            raise ConfigurationError(
                f"{self.name} has no kernel {name!r}; "
                f"known: {sorted(self._kernels)}"
            ) from None

    def kernel_names(self) -> tuple[str, ...]:
        """All kernels: pre + loop + post, in execution order."""
        return self.pre_kernel_names + self.loop_kernel_names + self.post_kernel_names

    @property
    def iterations(self) -> int:
        """Main-loop iteration count for this problem class."""
        return self.size.iterations

    def region(self, rank: int, field: str) -> DataRegion:
        """The (cached) data region of ``field`` on ``rank``."""
        key = (rank, field)
        reg = self._regions.get(key)
        if reg is None:
            per_point = self.field_bytes_per_point()
            if field not in per_point:
                raise ConfigurationError(
                    f"{self.name} has no field {field!r}; "
                    f"known: {sorted(per_point)}"
                )
            nbytes = per_point[field] * self.layout.local_points(rank)
            reg = self._regions[key] = DataRegion(f"{field}", nbytes)
        return reg

    def footprint_bytes(self, rank: int) -> int:
        """Total bytes of all fields on ``rank`` (sizes the cold-context)."""
        per_point = self.field_bytes_per_point()
        return sum(b for b in per_point.values()) * self.layout.local_points(rank)

    # -- shared communication idioms ----------------------------------------

    def exchange_faces(
        self,
        ctx: RankContext,
        bytes_per_xface_point: int,
        bytes_per_yface_point: int,
        tag: int,
        depth: int = 1,
    ) -> Generator[Event, Any, None]:
        """Nonblocking halo exchange with the (up to) four grid neighbors."""
        comm = ctx.comm
        nx, ny, nz = self.layout.local_dims(ctx.rank)
        requests = []
        for dim, step in ((0, -1), (0, +1), (1, -1), (1, +1)):
            peer = self.grid.neighbor(ctx.rank, dim, step)
            if peer is None:
                continue
            if dim == 0:
                nbytes = bytes_per_xface_point * ny * nz * depth
            else:
                nbytes = bytes_per_yface_point * nx * nz * depth
            requests.append(comm.irecv(peer, tag))
            requests.append(comm.isend(peer, nbytes, tag))
        if requests:
            yield from comm.waitall(requests)

    def ranks(self) -> range:
        """All ranks of this configuration."""
        return range(self.nprocs)
