"""Per-kernel working-set and communication descriptors.

The analytic tier never executes kernel generators. Instead, each supported
benchmark (BT/SP/LU) is *described*: for every kernel, how many flops each
rank performs, how many jittered work calls the body issues, which data
regions it streams through (in body order, with write flags), and which
communication phases it runs. The tables here mirror the kernel bodies in
:mod:`repro.npb` exactly — they are the closed-form twin of the generator
code, sharing the same :mod:`repro.npb.workloads` constants so the two
views cannot drift on operation counts.

:func:`describe` binds the static tables to a live
:class:`~repro.npb.base.Benchmark` (for its layout, grid and regions) and
returns plain frozen data that :mod:`repro.analytic.model` evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import PredictionError
from repro.npb import workloads as w

__all__ = [
    "RankWork",
    "HaloPhase",
    "RingPhase",
    "WavefrontPhase",
    "AllreducePhase",
    "BarrierPhase",
    "KernelDescriptor",
    "BenchmarkDescriptors",
    "describe",
]

@dataclass(frozen=True)
class RankWork:
    """One rank's computation and memory traffic for one kernel invocation.

    ``touches`` entries are ``(region, nbytes_or_None, write)`` — the exact
    argument triples the kernel body passes to
    :meth:`~repro.simmachine.memory.MemoryHierarchy.touch`, in body order.
    ``work_calls`` counts noise-jittered compute calls (one per ``work()``
    or per staged ``compute_seconds``), which fixes the expected additive
    OS-jitter floor at ``work_calls * noise_floor / 2``.
    """

    flops: float
    work_calls: int
    touches: tuple[tuple[object, Optional[int], bool], ...]


@dataclass(frozen=True)
class HaloPhase:
    """Nonblocking neighbor exchange (``Benchmark.exchange_faces``).

    ``sends[r]`` lists the byte sizes of rank ``r``'s outgoing messages
    (one per live neighbor); every send pairs with a matching receive.
    """

    sends: tuple[tuple[int, ...], ...]
    messages: int


@dataclass(frozen=True)
class RingPhase:
    """Multi-partition solve: ``stages`` cyclic sendrecv steps per rank.

    Only present when the solve direction is decomposed (``stages > 1``);
    ``boundary[r]`` is rank ``r``'s per-stage boundary payload in bytes.
    """

    stages: int
    boundary: tuple[int, ...]
    messages: int


@dataclass(frozen=True)
class WavefrontPhase:
    """LU's pipelined diagonal sweep (one plane at a time, burst sends).

    ``bursts[r]`` holds ``(messages, total_bytes)`` per outgoing direction
    of rank ``r``, issued once per z-plane; ``planes`` is the pipeline
    depth (``nz``).
    """

    lower: bool
    planes: int
    bursts: tuple[tuple[tuple[int, int], ...], ...]
    messages: int


@dataclass(frozen=True)
class AllreducePhase:
    """An allreduce of ``nbytes`` (recursive doubling / reduce+bcast)."""

    nbytes: int
    rounds: int
    messages: int


@dataclass(frozen=True)
class BarrierPhase:
    """A barrier: zero-byte reduce + broadcast over binomial trees."""

    rounds: int
    messages: int


CommPhase = object  # union of the five phase dataclasses above


@dataclass(frozen=True)
class KernelDescriptor:
    """Everything the closed forms need about one kernel."""

    name: str
    ranks: tuple[RankWork, ...]
    phases: tuple[CommPhase, ...]

    @property
    def messages(self) -> int:
        """Messages injected machine-wide by one invocation."""
        return sum(p.messages for p in self.phases)


@dataclass(frozen=True)
class BenchmarkDescriptors:
    """A full benchmark configuration, described rather than executed."""

    benchmark: str
    problem_class: str
    nprocs: int
    px: int
    py: int
    iterations: int
    pre_kernels: tuple[str, ...]
    loop_kernels: tuple[str, ...]
    post_kernels: tuple[str, ...]
    kernels: dict[str, KernelDescriptor]
    #: Per-rank data footprint of the most loaded rank (cache-edge term
    #: of the confidence model).
    max_footprint_bytes: int


# ---------------------------------------------------------------------------
# Phase builders (bind grid/layout information from the live benchmark)
# ---------------------------------------------------------------------------


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _halo(bench, bytes_per_point: int, depth: int) -> HaloPhase:
    sends = []
    for r in bench.ranks():
        nx, ny, nz = bench.layout.local_dims(r)
        msgs = []
        for dim, step in ((0, -1), (0, +1), (1, -1), (1, +1)):
            if bench.grid.neighbor(r, dim, step) is None:
                continue
            points = (ny if dim == 0 else nx) * nz
            msgs.append(bytes_per_point * points * depth)
        sends.append(tuple(msgs))
    return HaloPhase(
        sends=tuple(sends), messages=sum(len(s) for s in sends)
    )


def _ring(bench, dim: int, boundary_per_point: int) -> Optional[RingPhase]:
    stages = bench.grid.px if dim == 0 else bench.grid.py
    if stages <= 1:
        return None
    boundary = []
    for r in bench.ranks():
        nx, ny, nz = bench.layout.local_dims(r)
        face_points = (ny if dim == 0 else nx) * nz
        boundary.append(boundary_per_point * face_points)
    return RingPhase(
        stages=stages,
        boundary=tuple(boundary),
        messages=stages * bench.nprocs,
    )


def _wavefront(bench, lower: bool) -> WavefrontPhase:
    outof = +1 if lower else -1
    msg = w.LU_PIPELINE_MESSAGE_BYTES
    planes = bench.size.nz
    bursts = []
    total = 0
    for r in bench.ranks():
        nx, ny, _nz = bench.layout.local_dims(r)
        out = []
        if bench.grid.neighbor(r, 0, outof) is not None:
            out.append((ny, msg * ny))
        if bench.grid.neighbor(r, 1, outof) is not None:
            out.append((nx, msg * nx))
        bursts.append(tuple(out))
        total += planes * sum(m for m, _ in out)
    return WavefrontPhase(
        lower=lower, planes=planes, bursts=tuple(bursts), messages=total
    )


def _allreduce(bench, nbytes: int) -> AllreducePhase:
    nprocs = bench.nprocs
    if nprocs <= 1:
        return AllreducePhase(nbytes=nbytes, rounds=0, messages=0)
    k = math.ceil(math.log2(nprocs))
    if _is_pow2(nprocs):
        # Recursive doubling: every rank sends once per round.
        return AllreducePhase(nbytes=nbytes, rounds=k, messages=nprocs * k)
    # Binomial reduce then broadcast: P-1 sends each way.
    return AllreducePhase(nbytes=nbytes, rounds=2 * k, messages=2 * (nprocs - 1))


def _barrier(bench) -> BarrierPhase:
    nprocs = bench.nprocs
    if nprocs <= 1:
        return BarrierPhase(rounds=0, messages=0)
    k = math.ceil(math.log2(nprocs))
    return BarrierPhase(rounds=2 * k, messages=2 * (nprocs - 1))


# ---------------------------------------------------------------------------
# Static kernel tables: touches mirror the kernel bodies field-for-field
# ---------------------------------------------------------------------------

#: touch table entries: ``(field, write)`` or ``(field, write, divisor)``
#: where a divisor touches only ``region.nbytes // divisor`` bytes.
_BT_TOUCHES = {
    "INITIALIZATION": (("u", True), ("forcing", True), ("aux", True)),
    "COPY_FACES": (
        ("u", False), ("forcing", False), ("aux", False), ("rhs", True),
    ),
    "X_SOLVE": (("u", False), ("rhs", True), ("lhs", True)),
    "Y_SOLVE": (("u", False), ("rhs", True), ("lhs", True)),
    "Z_SOLVE": (("u", False), ("rhs", True), ("lhs", True)),
    "ADD": (("rhs", False), ("u", True)),
    "FINAL": (("u", False), ("rhs", False)),
}

_SP_TOUCHES = {
    "INITIALIZATION": (("u", True), ("forcing", True), ("aux", True)),
    "COPY_FACES": (
        ("u", False), ("forcing", False), ("aux", False), ("rhs", True),
    ),
    "TXINVR": (("aux", False), ("rhs", True)),
    "X_SOLVE": (("u", False), ("aux", False), ("rhs", True), ("lhs", True)),
    "Y_SOLVE": (("u", False), ("aux", False), ("rhs", True), ("lhs", True)),
    "Z_SOLVE": (("u", False), ("aux", False), ("rhs", True), ("lhs", True)),
    "ADD": (("rhs", False), ("u", True)),
    "FINAL": (("u", False), ("rhs", False)),
}

_LU_TOUCHES = {
    "INITIALIZATION": (("u", True), ("rsd", True), ("aux", True)),
    "ERHS": (("u", False), ("frct", True)),
    "SSOR_INIT": (("rsd", True),),
    "SSOR_ITER": (("rsd", True),),
    "SSOR_LT": (("u", False), ("rsd", True), ("jac", True)),
    "SSOR_UT": (("u", False), ("rsd", True), ("jac", True)),
    "SSOR_RS": (("frct", False), ("u", True), ("rsd", True)),
    "ERROR": (("u", False),),
    "PINTGR": (("u", False, 4),),
    "FINAL": (("rsd", False),),
}


def _bt_phases(bench) -> dict[str, tuple]:
    return {
        "INITIALIZATION": (_barrier(bench),),
        "COPY_FACES": (_halo(bench, w.BT_FACE_BYTES, depth=2),),
        "X_SOLVE": (_ring(bench, 0, w.BT_SOLVE_BOUNDARY_BYTES),),
        "Y_SOLVE": (_ring(bench, 1, w.BT_SOLVE_BOUNDARY_BYTES),),
        "FINAL": (_allreduce(bench, 5 * w.DOUBLE),),
    }


def _sp_phases(bench) -> dict[str, tuple]:
    return {
        "INITIALIZATION": (_barrier(bench),),
        "COPY_FACES": (_halo(bench, w.SP_FACE_BYTES, depth=2),),
        "X_SOLVE": (_ring(bench, 0, w.SP_SOLVE_BOUNDARY_BYTES),),
        "Y_SOLVE": (_ring(bench, 1, w.SP_SOLVE_BOUNDARY_BYTES),),
        "FINAL": (_allreduce(bench, 5 * w.DOUBLE),),
    }


def _lu_phases(bench) -> dict[str, tuple]:
    halo = _halo(bench, w.LU_FACE_BYTES, depth=1)
    barrier = _barrier(bench)
    return {
        "INITIALIZATION": (barrier,),
        "ERHS": (halo,),
        "SSOR_INIT": (barrier,),
        "SSOR_LT": (_wavefront(bench, lower=True),),
        "SSOR_UT": (_wavefront(bench, lower=False),),
        "SSOR_RS": (halo, _allreduce(bench, 5 * w.DOUBLE)),
        "ERROR": (_allreduce(bench, 5 * w.DOUBLE),),
        "PINTGR": (_allreduce(bench, 3 * w.DOUBLE),),
        "FINAL": (barrier,),
    }


def _bt_sp_work_calls(bench, kernel: str) -> int:
    if kernel == "X_SOLVE":
        return bench.grid.px
    if kernel == "Y_SOLVE":
        return bench.grid.py
    return 1


def _lu_work_calls(bench, kernel: str) -> int:
    if kernel in ("SSOR_LT", "SSOR_UT"):
        return bench.size.nz
    return 1


_SPECS: dict[str, tuple[dict, dict, Callable, Callable]] = {
    "BT": (w.BT_FLOPS_PER_POINT, _BT_TOUCHES, _bt_phases, _bt_sp_work_calls),
    "SP": (w.SP_FLOPS_PER_POINT, _SP_TOUCHES, _sp_phases, _bt_sp_work_calls),
    "LU": (w.LU_FLOPS_PER_POINT, _LU_TOUCHES, _lu_phases, _lu_work_calls),
}


def describe(bench) -> BenchmarkDescriptors:
    """Descriptors for a live :class:`~repro.npb.base.Benchmark`.

    Every registered NPB benchmark has tables; any other application
    (a :class:`~repro.npb.custom.CustomApplication`, say) raises
    :class:`~repro.errors.PredictionError`.
    """
    spec = _SPECS.get(bench.name)
    if spec is None:
        raise PredictionError(
            f"no analytic descriptors for benchmark {bench.name!r}; "
            f"supported: {sorted(_SPECS)}"
        )
    flops_per_point, touch_table, phase_fn, work_calls_fn = spec
    phase_table = phase_fn(bench)
    kernels: dict[str, KernelDescriptor] = {}
    local_points = [bench.layout.local_points(r) for r in bench.ranks()]
    for name in bench.kernel_names():
        work_calls = work_calls_fn(bench, name)
        ranks = []
        for r, points in enumerate(local_points):
            touches = []
            for entry in touch_table[name]:
                field, write = entry[0], entry[1]
                region = bench.region(r, field)
                nbytes = region.nbytes // entry[2] if len(entry) > 2 else None
                touches.append((region, nbytes, write))
            ranks.append(
                RankWork(
                    flops=flops_per_point[name] * points,
                    work_calls=work_calls,
                    touches=tuple(touches),
                )
            )
        phases = tuple(
            p for p in phase_table.get(name, ()) if p is not None
        )
        kernels[name] = KernelDescriptor(
            name=name, ranks=tuple(ranks), phases=phases
        )
    return BenchmarkDescriptors(
        benchmark=bench.name,
        problem_class=bench.size.problem_class,
        nprocs=bench.nprocs,
        px=bench.grid.px,
        py=bench.grid.py,
        iterations=bench.iterations,
        pre_kernels=bench.pre_kernel_names,
        loop_kernels=bench.loop_kernel_names,
        post_kernels=bench.post_kernel_names,
        kernels=kernels,
        max_footprint_bytes=max(
            bench.footprint_bytes(r) for r in bench.ranks()
        ),
    )
