"""Allreduce: the algorithm follows from the communicator size.

Recursive doubling runs on a power-of-two communicator, the binomial
reduce-then-broadcast tree on any other; ``TestClosedForm`` pins each
side of that choice by its exact message count.
"""

import math
import operator

import pytest

from repro.simmachine import linear_test_machine
from tests.conftest import make_machine


def run_allreduce(machine, op=operator.add):
    results = []

    def program(ctx):
        value = yield from ctx.comm.allreduce(ctx.comm.rank + 1, 8, op=op)
        results.append(value)

    elapsed = machine.run(program)
    return results, elapsed


class TestCorrectness:
    @pytest.mark.parametrize("size", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("algorithm", ["recursive_doubling", "auto"])
    def test_sum_all_ranks(self, quiet_config, size, algorithm):
        """At a power-of-two size ``auto`` is recursive doubling.

        Every rank gets the sum; the ``recursive_doubling`` case also pins
        the log2(P) exchange rounds of P messages that the choice implies.
        """
        machine = make_machine(quiet_config, size)
        results, _ = run_allreduce(machine)
        assert results == [sum(range(1, size + 1))] * size
        if algorithm == "recursive_doubling":
            assert machine.network.messages_sent == size * int(math.log2(size))

    @pytest.mark.parametrize("size", [3, 5, 6])
    def test_auto_handles_non_pow2(self, quiet_config, size):
        machine = make_machine(quiet_config, size)
        results, _ = run_allreduce(machine)
        assert results == [sum(range(1, size + 1))] * size

    def test_max_op(self, quiet_config):
        machine = make_machine(quiet_config, 8)
        results, _ = run_allreduce(machine, op=max)
        assert results == [8] * 8


class TestClosedForm:
    """Message counts and results on the interaction-free machine."""

    @pytest.mark.parametrize("size", range(1, 34))
    def test_message_count_and_sum(self, size):
        machine = make_machine(linear_test_machine(), size)
        got = {}

        def program(ctx):
            got[ctx.rank] = yield from ctx.comm.allreduce(ctx.rank + 1, 8)

        machine.run(program)
        log2 = math.log2(size)
        if log2.is_integer():
            # Recursive doubling: every rank exchanges once per round.
            expected = size * int(log2)
        else:
            # Tree: one message per edge up, one per edge down.
            expected = 2 * (size - 1)
        assert machine.network.messages_sent == expected
        assert got == {rank: size * (size + 1) // 2 for rank in range(size)}


class TestCost:
    def test_auto_picks_recursive_doubling_for_pow2(self, quiet_config):
        """16 ranks: 4 exchange rounds of 16 messages, not the tree's 30."""
        machine = make_machine(quiet_config, 16)
        run_allreduce(machine)
        assert machine.network.messages_sent == 16 * 4


class TestFaultInjection:
    def test_dropped_collective_message_deadlocks(self, quiet_config):
        from repro.errors import DeadlockError

        machine = make_machine(quiet_config, 6)
        world = machine.contexts[0].comm.world
        world.fault_injector = lambda src, dst, tag: src == 2
        with pytest.raises(DeadlockError):
            run_allreduce(machine)
        assert world.dropped_messages >= 1

    def test_sender_unaffected_by_drop(self, quiet_config):
        machine = make_machine(quiet_config, 2)
        world = machine.contexts[0].comm.world
        world.fault_injector = lambda src, dst, tag: tag == 7
        done = []

        def program(ctx):
            if ctx.comm.rank == 0:
                yield from ctx.comm.send(1, 10, tag=7)
                done.append("sent")
            else:
                yield ctx.sim.timeout(0.0)

        machine.run(program)
        assert done == ["sent"]
        assert world.dropped_messages == 1
        assert world.unmatched_messages() == 0
