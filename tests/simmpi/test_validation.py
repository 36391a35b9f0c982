"""Argument validation on the message path, and mailbox hygiene.

``isend``/``irecv`` check peers and tags inline and only call the
``_check_peer``/``_check_tag`` helpers to raise; these tests pin the
error types and messages of every rejected input, and that matched
mailboxes do not outlive their messages.
"""

import pytest

from repro.errors import CommunicationError
from repro.simmpi.comm import COLL_TAG_BASE
from tests.conftest import make_machine

BAD_PEERS = [
    (True, "rank must be an int, got True"),
    (False, "rank must be an int, got False"),
    (1.0, "rank must be an int, got 1.0"),
    (-1, "negative rank -1 (wildcard receives are not supported)"),
    (4, "rank 4 out of range for communicator of size 4"),
    (99, "rank 99 out of range for communicator of size 4"),
]

BAD_USER_TAGS = [
    (-1, "negative tag -1"),
    (COLL_TAG_BASE, f"user tags must be < {COLL_TAG_BASE}, got {COLL_TAG_BASE}"),
    (
        COLL_TAG_BASE + 7,
        f"user tags must be < {COLL_TAG_BASE}, got {COLL_TAG_BASE + 7}",
    ),
]


def rejection(machine, call):
    """Run ``call(comm)`` on rank 0 and return the error it raised."""

    def program(ctx):
        if ctx.rank == 0:
            yield from call(ctx.comm)
        else:
            yield ctx.sim.timeout(0.0)

    with pytest.raises(CommunicationError) as exc:
        machine.run(program)
    return str(exc.value)


class TestPeerValidation:
    @pytest.mark.parametrize("peer,message", BAD_PEERS)
    def test_messages_match_the_checker(self, machine4, peer, message):
        comm = machine4.contexts[0].comm
        with pytest.raises(CommunicationError) as exc:
            comm._check_peer(peer)
        assert str(exc.value) == message
        with pytest.raises(CommunicationError) as exc:
            comm.isend(peer, 8)
        assert str(exc.value) == message
        with pytest.raises(CommunicationError) as exc:
            comm.irecv(peer)
        assert str(exc.value) == message

    def test_int_subclass_peer_accepted(self, machine4):
        class Rank(int):
            pass

        got = []

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(Rank(1), 8, payload="x")
            elif ctx.rank == 1:
                got.append((yield from ctx.comm.recv(Rank(0))))

        machine4.run(program)
        assert got == ["x"]


class TestTagValidation:
    @pytest.mark.parametrize("tag,message", BAD_USER_TAGS)
    def test_send_rejects_bad_tag(self, machine4, tag, message):
        assert rejection(machine4, lambda comm: comm.send(1, 8, tag=tag)) == message

    @pytest.mark.parametrize("tag,message", BAD_USER_TAGS)
    def test_recv_rejects_bad_tag(self, machine4, tag, message):
        assert rejection(machine4, lambda comm: comm.recv(1, tag=tag)) == message

    def test_collective_tags_allowed_internally(self, machine4):
        comm = machine4.contexts[0].comm
        comm.irecv(1, COLL_TAG_BASE + 3, _collective=True)
        comm.isend(1, 8, COLL_TAG_BASE + 3, _collective=True)
        with pytest.raises(CommunicationError) as exc:
            comm.isend(1, 8, -2, _collective=True)
        assert str(exc.value) == "negative tag -2"


class TestCollectiveRootValidation:
    @pytest.mark.parametrize("root,message", BAD_PEERS)
    @pytest.mark.parametrize(
        "collective",
        [
            lambda comm, root: comm.bcast(8, root=root),
            lambda comm, root: comm.reduce(1, 8, root=root),
        ],
        ids=["bcast", "reduce"],
    )
    def test_bad_root_rejected(self, machine4, collective, root, message):
        assert rejection(machine4, lambda comm: collective(comm, root)) == message


class TestMailboxes:
    def test_collectives_leave_no_mailboxes(self, quiet_config):
        # 8 ranks run the recursive-doubling allreduce, 6 the tree.
        for size in (8, 6):
            machine = make_machine(quiet_config, size)
            world = machine.contexts[0].comm.world

            def program(ctx):
                comm = ctx.comm
                for round_no in range(40):
                    yield from comm.barrier()
                    yield from comm.allreduce(round_no, 8)
                    yield from comm.bcast(8, root=round_no % size, payload=round_no)
                    yield from comm.reduce(ctx.rank, 8, root=round_no % size)

            machine.run(program)
            assert world.unmatched_messages() == 0
            assert all(not boxes for boxes in world.pending_msgs)
            assert all(not boxes for boxes in world.pending_recvs)

    def test_posted_receive_box_removed_when_matched(self, machine4):
        world = machine4.contexts[0].comm.world

        def program(ctx):
            comm = ctx.comm
            if ctx.rank == 1:
                yield from comm.recv(0, tag=3)  # posted before the send
            elif ctx.rank == 0:
                yield ctx.sim.timeout(1e-3)
                yield from comm.send(1, 8, tag=3)

        machine4.run(program)
        assert world.pending_recvs[1] == {}
        assert world.pending_msgs[1] == {}
