"""Point-to-point messaging: matching, ordering, blocking semantics."""

import sys

import pytest

from repro.errors import CommunicationError, DeadlockError
from repro.simmachine.machine import linear_test_machine
from repro.simmpi.comm import COLL_TAG_BASE
from tests.conftest import make_machine


def run(machine, program):
    return machine.run(program)


class TestSendRecv:
    def test_payload_delivered(self, machine4):
        received = {}

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                yield from comm.send(1, 100, tag=5, payload={"x": 1})
            elif comm.rank == 1:
                received["msg"] = yield from comm.recv(0, tag=5)

        run(machine4, program)
        assert received["msg"] == {"x": 1}

    def test_recv_before_send(self, machine4):
        """Posting the receive first must not deadlock."""
        got = []

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 1:
                got.append((yield from comm.recv(0, tag=1)))
            elif comm.rank == 0:
                yield ctx.sim.timeout(1e-3)  # make rank 1 wait
                yield from comm.send(1, 10, tag=1, payload="late")

        run(machine4, program)
        assert got == ["late"]

    def test_fifo_per_channel(self, machine4):
        order = []

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                for i in range(5):
                    yield from comm.send(1, 10, tag=2, payload=i)
            elif comm.rank == 1:
                for _ in range(5):
                    order.append((yield from comm.recv(0, tag=2)))

        run(machine4, program)
        assert order == [0, 1, 2, 3, 4]

    def test_tags_demultiplex(self, machine4):
        got = {}

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                yield from comm.send(1, 10, tag=7, payload="seven")
                yield from comm.send(1, 10, tag=8, payload="eight")
            elif comm.rank == 1:
                # Receive in the opposite order of sending.
                got["eight"] = yield from comm.recv(0, tag=8)
                got["seven"] = yield from comm.recv(0, tag=7)

        run(machine4, program)
        assert got == {"eight": "eight", "seven": "seven"}

    def test_sources_demultiplex(self, machine4):
        got = {}

        def program(ctx):
            comm = ctx.comm
            if comm.rank in (0, 2):
                yield from comm.send(1, 10, tag=1, payload=f"from{comm.rank}")
            elif comm.rank == 1:
                got[2] = yield from comm.recv(2, tag=1)
                got[0] = yield from comm.recv(0, tag=1)

        run(machine4, program)
        assert got == {0: "from0", 2: "from2"}

    def test_self_send(self, machine4):
        got = []

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                yield from comm.send(0, 10, tag=3, payload="me")
                got.append((yield from comm.recv(0, tag=3)))

        run(machine4, program)
        assert got == ["me"]

    def test_recv_arrival_time_respects_latency(self, machine4):
        times = {}

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                yield from comm.send(1, 1000, tag=1)
            elif comm.rank == 1:
                yield from comm.recv(0, tag=1)
                times["recv_done"] = ctx.sim.now

        run(machine4, program)
        net = machine4.config.network
        assert times["recv_done"] >= net.latency


class TestNonBlocking:
    def test_isend_returns_immediately(self, machine4):
        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                req = comm.isend(1, 10, tag=1, payload="x")
                assert not req.complete
                yield from comm.wait(req)
                assert req.complete
            elif comm.rank == 1:
                yield from comm.recv(0, tag=1)

        run(machine4, program)

    def test_waitall_gathers_payloads(self, machine4):
        got = []

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                for peer in (1, 2, 3):
                    yield from comm.send(peer, 10, tag=4, payload=peer * 10)
            else:
                req = comm.irecv(0, tag=4)
                values = yield from comm.waitall([req])
                got.append(values[0])

        run(machine4, program)
        assert sorted(got) == [10, 20, 30]

    def test_request_payload_property(self, machine4):
        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                yield from comm.send(1, 10, tag=1, payload="v")
            elif comm.rank == 1:
                req = comm.irecv(0, tag=1)
                assert req.payload is None or req.payload == "v"
                yield from comm.wait(req)
                assert req.payload == "v"

        run(machine4, program)

    def test_sendrecv_exchanges(self, machine4):
        got = {}

        def program(ctx):
            comm = ctx.comm
            peer = comm.rank ^ 1
            got[comm.rank] = yield from comm.sendrecv(
                peer, 10, send_tag=6, payload=comm.rank
            )

        run(machine4, program)
        assert got == {0: 1, 1: 0, 2: 3, 3: 2}

    def test_wait_accounts_wait_time(self, machine4):
        def program(ctx):
            comm = ctx.comm
            ctx.set_label("k")
            if comm.rank == 1:
                yield from comm.recv(0, tag=1)
            elif comm.rank == 0:
                yield ctx.sim.timeout(1e-2)
                yield from comm.send(1, 10, tag=1)

        run(machine4, program)
        waited = machine4.contexts[1].counters["k"].wait_time
        assert waited >= 1e-2


class TestErrors:
    def test_unmatched_recv_deadlocks(self, machine4):
        def program(ctx):
            if ctx.comm.rank == 0:
                yield from ctx.comm.recv(1, tag=9)
            else:
                yield ctx.sim.timeout(0.0)

        with pytest.raises(DeadlockError) as exc:
            run(machine4, program)
        assert any("0" in name for name in exc.value.blocked)

    def test_bad_peer_rejected(self, machine4):
        def program(ctx):
            yield from ctx.comm.send(99, 10)

        with pytest.raises(CommunicationError):
            run(machine4, program)

    def test_wildcard_source_rejected(self, machine4):
        def program(ctx):
            yield from ctx.comm.recv(-1)

        with pytest.raises(CommunicationError, match="wildcard"):
            run(machine4, program)

    def test_user_tag_in_collective_space_rejected(self, machine4):
        def program(ctx):
            yield from ctx.comm.send(0, 10, tag=COLL_TAG_BASE + 1)

        with pytest.raises(CommunicationError, match="user tags"):
            run(machine4, program)

    def test_negative_tag_rejected(self, machine4):
        def program(ctx):
            yield from ctx.comm.send(0, 10, tag=-1)

        with pytest.raises(CommunicationError):
            run(machine4, program)

    def test_unreceived_message_detectable(self, quiet_config):
        machine = make_machine(quiet_config, 2)
        world = machine.contexts[0].comm.world

        def program(ctx):
            if ctx.comm.rank == 0:
                yield from ctx.comm.send(1, 10, tag=1)
            else:
                yield ctx.sim.timeout(0.0)

        machine.run(program)
        assert world.unmatched_messages() == 1


def spy_send_timing(machine):
    """Record ``(src, dst, timing)`` for every message the network times."""
    log = []
    original = machine.network.send_timing

    def spy(src, dst, nbytes, now, messages=1):
        timing = original(src, dst, nbytes, now, messages)
        log.append((src, dst, timing))
        return timing

    machine.network.send_timing = spy
    return log


class TestSendrecvCompletion:
    """``sendrecv`` ends at the later of its arrival and its own injection."""

    @pytest.mark.parametrize("queued", [True, False], ids=["queued", "not-queued"])
    @pytest.mark.parametrize(
        "inbound, outbound",
        [(10, 4_000_000), (4_000_000, 10)],
        ids=["send-bound", "recv-bound"],
    )
    def test_completes_at_max_of_arrival_and_injection(
        self, queued, inbound, outbound
    ):
        machine = make_machine(linear_test_machine(2), 2)
        log = spy_send_timing(machine)
        done = {}

        def program(ctx):
            comm = ctx.comm
            ctx.set_label("k")
            if comm.rank == 0:
                if queued:
                    # Let rank 1 inject first: its message is queued when
                    # sendrecv posts the receive.
                    yield ctx.sim.timeout(0.0)
                    assert comm.world.pending_msgs[0]
                else:
                    assert not comm.world.pending_msgs[0]
                got = yield from comm.sendrecv(1, outbound, send_tag=3, payload="a")
                done["payload"] = got
                done["time"] = ctx.sim.now
            else:
                if not queued:
                    yield ctx.sim.timeout(0.0)
                yield from comm.send(0, inbound, tag=3, payload="b")
                assert (yield from comm.recv(0, tag=3)) == "a"

        machine.run(program)
        timing = {(src, dst): t for src, dst, t in log}
        arrival = timing[(1, 0)][2]
        sender_done = timing[(0, 1)][1]
        assert done["payload"] == "b"
        assert done["time"] == max(arrival, sender_done)
        assert machine.contexts[0].counters["k"].wait_time == done["time"]


class TestWaitallOrder:
    def test_payloads_in_request_order_under_reverse_completion(self):
        machine = make_machine(linear_test_machine(4), 4)
        got = {}

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                reqs = [comm.irecv(peer, tag=1) for peer in (1, 2, 3)]
                # Ranks 3 and 2 have delivered by now; rank 1 has not.
                yield ctx.sim.timeout(2.5e-3)
                assert [r.complete for r in reqs] == [False, True, True]
                got["values"] = yield from comm.waitall(reqs)
                got["time"] = ctx.sim.now
            else:
                yield ctx.sim.timeout((4 - comm.rank) * 1e-3)
                yield from comm.send(0, 10, tag=1, payload=comm.rank * 10)

        machine.run(program)
        assert got["values"] == [10, 20, 30]
        assert got["time"] > 3e-3  # waited for the last arrival (rank 1)

    def test_all_pending_in_reverse_order(self, machine4):
        got = []

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                reqs = [comm.irecv(peer, tag=2) for peer in (1, 2, 3)]
                got.extend((yield from comm.waitall(reqs)))
            else:
                yield ctx.sim.timeout((4 - comm.rank) * 1e-3)
                yield from comm.send(0, 10, tag=2, payload=comm.rank)

        run(machine4, program)
        assert got == [1, 2, 3]

    def test_many_already_fired_requests_do_not_recurse(self):
        nprocs = 80
        machine = make_machine(linear_test_machine(nprocs), nprocs)
        # More completed requests than the interpreter's frame limit.
        count = sys.getrecursionlimit() + 100
        dests = [1 + i % (nprocs - 1) for i in range(count)]
        got = {}

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                reqs = [comm.isend(d, 8, tag=5, payload=i) for i, d in enumerate(dests)]
                yield ctx.sim.timeout(1.0)
                assert all(r.complete for r in reqs)
                got["values"] = yield from comm.waitall(reqs)
            else:
                for _ in range(dests.count(comm.rank)):
                    yield from comm.recv(0, tag=5)

        machine.run(program)
        assert got["values"] == [None] * count


class TestDroppedSendrecv:
    def test_dropped_message_deadlocks_the_receiver(self, machine4):
        world = machine4.contexts[0].comm.world
        world.fault_injector = lambda src, dst, tag: (src, dst) == (1, 0)

        def program(ctx):
            comm = ctx.comm
            if comm.rank in (0, 1):
                yield from comm.sendrecv(comm.rank ^ 1, 10, send_tag=4)
            else:
                yield ctx.sim.timeout(0.0)

        with pytest.raises(DeadlockError) as exc:
            run(machine4, program)
        assert exc.value.blocked == ["rank0"]
        assert world.dropped_messages == 1


class TestArrivedReceive:
    """A receive whose message has arrived completes when it is posted."""

    @staticmethod
    def run_pair(post_delay):
        """Rank 0 sends at 0; rank 1 receives after ``post_delay``."""
        machine = make_machine(linear_test_machine(2), 2)
        seen = {}

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                yield from comm.send(1, 800, tag=1, payload="x")
            else:
                yield ctx.sim.timeout(post_delay)
                ctx.set_label("k")
                req = comm.irecv(0, tag=1)
                seen["complete"] = req.complete
                seen["post"] = ctx.sim.now
                seen["value"] = yield from comm.wait(req)
                seen["done"] = ctx.sim.now

        machine.run(program)
        counters = machine.contexts[1].counters.get("k")
        seen["wait"] = 0.0 if counters is None else counters.wait_time
        seen["events"] = machine.sim.events_processed
        return seen

    def test_complete_at_post_with_no_wait_and_one_event_fewer(self):
        early = self.run_pair(0.0)
        late = self.run_pair(1.0)
        assert not early["complete"]
        assert early["wait"] > 0.0
        assert late["complete"]
        assert late["value"] == early["value"] == "x"
        assert late["done"] == late["post"] == 1.0
        assert late["wait"] == 0.0
        assert late["events"] == early["events"] - 1

    @pytest.mark.parametrize("blocking", ["recv", "wait"])
    def test_many_arrived_receives_do_not_recurse(self, blocking):
        # More arrived receives than the interpreter's frame limit.
        count = sys.getrecursionlimit() + 100
        machine = make_machine(linear_test_machine(2), 2)
        got = []

        def program(ctx):
            comm = ctx.comm
            if comm.rank == 0:
                for i in range(count):
                    comm.isend(1, 8, tag=5, payload=i)
            else:
                yield ctx.sim.timeout(1.0)
                if blocking == "recv":
                    for _ in range(count):
                        got.append((yield from comm.recv(0, tag=5)))
                else:
                    reqs = [comm.irecv(0, tag=5) for _ in range(count)]
                    for req in reqs:
                        got.append((yield from comm.wait(req)))
            yield ctx.sim.timeout(0.0)

        machine.run(program)
        assert got == list(range(count))
