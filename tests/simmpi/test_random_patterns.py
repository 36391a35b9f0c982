"""Property-based stress tests: random matched communication schedules.

Any schedule in which every send has a matching receive (same src, dst,
tag, in per-channel FIFO order) must complete without deadlock and deliver
every payload to the right place — regardless of interleaving, timing
jitter, or how late receives are posted.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmachine import Machine, ibm_sp_argonne
from repro.simmpi import attach_world


@st.composite
def matched_schedules(draw):
    """A list of (src, dst, tag) messages over a small communicator."""
    size = draw(st.integers(2, 5))
    n_msgs = draw(st.integers(1, 12))
    msgs = [
        (
            draw(st.integers(0, size - 1)),
            draw(st.integers(0, size - 1)),
            draw(st.integers(0, 3)),
        )
        for _ in range(n_msgs)
    ]
    # Random extra delays before each rank starts communicating.
    delays = [draw(st.floats(0.0, 1e-3)) for _ in range(size)]
    return size, msgs, delays


@settings(max_examples=60, deadline=None)
@given(matched_schedules())
def test_matched_schedule_never_deadlocks(bundle):
    size, msgs, delays = bundle
    config = ibm_sp_argonne().with_(noise_cv=0.0, noise_floor=0.0)
    machine = Machine(config, size, seed=0)
    attach_world(machine)
    received: dict[int, list] = {r: [] for r in range(size)}

    def program(ctx):
        comm = ctx.comm
        yield ctx.sim.timeout(delays[ctx.rank])
        # Post all receives nonblocking first, then all sends, then wait:
        # a valid MPI pattern for any matched schedule.
        recvs = [
            comm.irecv(src, tag)
            for i, (src, dst, tag) in enumerate(msgs)
            if dst == ctx.rank
        ]
        for i, (src, dst, tag) in enumerate(msgs):
            if src == ctx.rank:
                yield from comm.send(dst, 8 * (i + 1), tag, payload=i)
        values = yield from comm.waitall(recvs)
        received[ctx.rank].extend(values)

    machine.run(program)
    # Every message delivered exactly once, to its destination.
    delivered = sorted(v for values in received.values() for v in values)
    assert delivered == list(range(len(msgs)))
    for rank, values in received.items():
        expected = {i for i, (s, d, t) in enumerate(msgs) if d == rank}
        assert set(values) == expected


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 6),
    st.lists(
        st.sampled_from(["barrier", "bcast", "allreduce"]),
        min_size=1,
        max_size=6,
    ),
)
def test_random_collective_sequences(size, sequence):
    """Arbitrary SPMD collective sequences complete with correct results."""
    config = ibm_sp_argonne().with_(noise_cv=0.0, noise_floor=0.0)
    machine = Machine(config, size, seed=0)
    attach_world(machine)
    checks: list[bool] = []

    def program(ctx):
        comm = ctx.comm
        for op in sequence:
            if op == "barrier":
                yield from comm.barrier()
            elif op == "bcast":
                value = yield from comm.bcast(
                    8, root=0, payload="x" if comm.rank == 0 else None
                )
                checks.append(value == "x")
            elif op == "allreduce":
                total = yield from comm.allreduce(1, 8)
                checks.append(total == comm.size)

    machine.run(program)
    assert all(checks)
