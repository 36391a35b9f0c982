"""Collectives: correctness of the tree algorithms at several sizes."""

import operator

import pytest

from repro.errors import CommunicationError
from tests.conftest import make_machine

SIZES = [1, 2, 3, 4, 5, 8]


@pytest.fixture(params=SIZES)
def machine(request, quiet_config):
    return make_machine(quiet_config, request.param)


class TestBarrier:
    def test_synchronizes_all_ranks(self, machine):
        after = []

        def program(ctx):
            yield ctx.sim.timeout(0.001 * ctx.rank)  # staggered arrivals
            yield from ctx.comm.barrier()
            after.append(ctx.sim.now)

        machine.run(program)
        slowest_arrival = 0.001 * (machine.nprocs - 1)
        assert all(t >= slowest_arrival for t in after)

    def test_multiple_barriers_in_sequence(self, machine):
        def program(ctx):
            for _ in range(3):
                yield from ctx.comm.barrier()

        machine.run(program)  # must not deadlock or mismatch tags


class TestBcast:
    @pytest.mark.parametrize("root", [0, 1])
    def test_everyone_gets_payload(self, machine, root):
        if root >= machine.nprocs:
            pytest.skip("root outside communicator")
        got = []

        def program(ctx):
            payload = "secret" if ctx.comm.rank == root else None
            value = yield from ctx.comm.bcast(64, root=root, payload=payload)
            got.append(value)

        machine.run(program)
        assert got == ["secret"] * machine.nprocs

    def test_bad_root_rejected(self, machine):
        def program(ctx):
            yield from ctx.comm.bcast(8, root=machine.nprocs + 3)

        with pytest.raises(CommunicationError):
            machine.run(program)


class TestReduce:
    def test_sum_at_root(self, machine):
        results = {}

        def program(ctx):
            value = yield from ctx.comm.reduce(ctx.comm.rank + 1, 8, root=0)
            results[ctx.comm.rank] = value

        machine.run(program)
        expected = sum(range(1, machine.nprocs + 1))
        assert results[0] == expected
        assert all(v is None for r, v in results.items() if r != 0)

    def test_custom_op(self, machine):
        results = {}

        def program(ctx):
            value = yield from ctx.comm.reduce(
                ctx.comm.rank + 1, 8, root=0, op=operator.mul
            )
            results[ctx.comm.rank] = value

        machine.run(program)
        expected = 1
        for i in range(1, machine.nprocs + 1):
            expected *= i
        assert results[0] == expected


class TestAllreduce:
    def test_everyone_gets_sum(self, machine):
        got = []

        def program(ctx):
            value = yield from ctx.comm.allreduce(ctx.comm.rank, 8)
            got.append(value)

        machine.run(program)
        assert got == [sum(range(machine.nprocs))] * machine.nprocs


class TestMixedSequences:
    def test_back_to_back_different_collectives(self, machine):
        """Tag sequencing across collective kinds must never cross-match."""
        def program(ctx):
            comm = ctx.comm
            total = yield from comm.allreduce(1, 8)
            assert total == comm.size
            yield from comm.barrier()
            value = yield from comm.bcast(8, root=0, payload="z" if comm.rank == 0 else None)
            assert value == "z"
            partial = yield from comm.reduce(comm.rank, 8, root=comm.size - 1)
            if comm.rank == comm.size - 1:
                assert partial == sum(range(comm.size))
            total2 = yield from comm.allreduce(2, 8)
            assert total2 == 2 * comm.size

        machine.run(program)

    def test_collective_cost_grows_with_size(self, quiet_config):
        def program(ctx):
            yield from ctx.comm.barrier()

        t2 = make_machine(quiet_config, 2).run(program)
        t8 = make_machine(quiet_config, 8).run(program)
        assert t8 > t2
