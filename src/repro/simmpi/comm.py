"""Point-to-point messaging and tree-based collectives.

See the package docstring for usage. Implementation notes:

* Message matching is by ``(source, tag)`` with per-channel FIFO order.
  ``MPI_ANY_SOURCE`` semantics are deliberately unsupported — the NPB
  work-alikes always know their peers, and wildcard matching would make
  simulations timing-dependent in ways the paper's codes are not.
* Collectives allocate tags from a private per-communicator sequence, so
  they never collide with user tags (which must be < :data:`COLL_TAG_BASE`)
  and consecutive collectives never collide with each other. SPMD discipline
  (every rank calls the same collectives in the same order) is assumed, as
  in MPI.
* Collectives are real algorithms over point-to-point messages: binomial
  trees for ``bcast``/``reduce``/``barrier``, and for ``allreduce``
  recursive doubling on a power-of-two communicator, otherwise a binomial
  reduce then broadcast — their simulated cost therefore scales with
  ``P`` the way real MPI implementations do. BT, SP and LU call
  ``barrier`` and ``allreduce``; ``bcast`` and ``reduce`` are the two
  halves of the tree ``allreduce``.
* Every send, blocking or not, goes through :meth:`Comm.isend`, and every
  receive through :meth:`Comm.irecv`. A :class:`Request` is itself the
  engine event of its operation: blocking calls yield it directly, and
  ``waitall``/``sendrecv`` wait on their requests in turn, with no join
  event. A receive whose message has already arrived completes when it is
  posted, with no engine event, and no blocking call yields a request that
  is already complete. Each operation still completes when a join would;
  fewer events change only the order of work that falls at one simulated
  time, and the golden tables pin every simulated number.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import CommunicationError
from repro.simmachine.engine import Event
from repro.simmachine.process import Machine, RankContext
from repro.simmpi.request import Request

__all__ = ["COLL_TAG_BASE", "World", "Comm", "attach_world"]

#: User tags must stay below this; collectives use tags at/above it.
COLL_TAG_BASE = 1_000_000


class World:
    """Shared mailbox state for all ranks of one machine run."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.size = machine.nprocs
        # pending_msgs[dst][(src, tag)] -> deque of (arrival, nbytes, payload)
        self.pending_msgs: list[dict[tuple[int, int], deque[tuple[float, int, Any]]]] = [
            {} for _ in range(self.size)
        ]
        # pending_recvs[dst][(src, tag)] -> deque of receive requests
        self.pending_recvs: list[dict[tuple[int, int], deque[Request]]] = [
            {} for _ in range(self.size)
        ]
        #: Fault injection hook for tests: called as ``fn(src, dst, tag)``
        #: for every message; returning True silently drops it (the sender
        #: completes, the payload never arrives — the receiver's eventual
        #: deadlock is reported by the engine). None = no faults.
        self.fault_injector = None
        self.dropped_messages = 0

    def unmatched_messages(self) -> int:
        """Messages delivered but never received (leak detector for tests)."""
        return sum(
            len(q) for boxes in self.pending_msgs for q in boxes.values()
        )


class Comm:
    """Per-rank communicator facade."""

    def __init__(self, world: World, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.size = world.size
        self.ctx: RankContext = world.machine.contexts[rank]
        self.sim = world.machine.sim
        self.network = world.machine.network
        self._coll_seq = 0

    # -- validation ---------------------------------------------------------

    def _check_peer(self, peer: int) -> None:
        if not isinstance(peer, int) or isinstance(peer, bool):
            raise CommunicationError(f"rank must be an int, got {peer!r}")
        if peer < 0:
            raise CommunicationError(
                f"negative rank {peer} (wildcard receives are not supported)"
            )
        if peer >= self.size:
            raise CommunicationError(
                f"rank {peer} out of range for communicator of size {self.size}"
            )

    @staticmethod
    def _check_tag(tag: int, collective: bool = False) -> None:
        if tag < 0:
            raise CommunicationError(f"negative tag {tag}")
        if not collective and tag >= COLL_TAG_BASE:
            raise CommunicationError(
                f"user tags must be < {COLL_TAG_BASE}, got {tag}"
            )

    # -- point to point -------------------------------------------------------

    def isend(
        self,
        dest: int,
        nbytes: int,
        tag: int = 0,
        payload: Any = None,
        messages: int = 1,
        _collective: bool = False,
    ) -> Request:
        """Nonblocking send; the request completes when injection finishes.

        ``messages > 1`` sends a burst of small messages totalling
        ``nbytes`` as one matched unit (see
        :meth:`repro.simmachine.network.NetworkModel.send_timing`).
        """
        # Inline fast paths; the checkers only run to raise their errors.
        if type(dest) is not int or not 0 <= dest < self.size:
            self._check_peer(dest)
        if tag < 0 or (tag >= COLL_TAG_BASE and not _collective):
            self._check_tag(tag, _collective)
        world = self.world
        sim = self.sim
        now = sim.now
        _, sender_done, arrival, _ = self.network.send_timing(
            self.rank, dest, nbytes, now, messages
        )
        self.ctx.account_send(nbytes)
        if world.fault_injector is not None and world.fault_injector(
            self.rank, dest, tag
        ):
            # Message lost in the network: sender proceeds normally.
            world.dropped_messages += 1
        else:
            key = (self.rank, tag)
            recv_boxes = world.pending_recvs[dest]
            recv_box = recv_boxes.get(key)
            if recv_box:
                rreq = recv_box.popleft()
                if not recv_box:
                    del recv_boxes[key]
                rreq.trigger_at_time(payload, arrival)
            else:
                boxes = world.pending_msgs[dest]
                queue = boxes.get(key)
                if queue is None:
                    queue = boxes[key] = deque()
                queue.append((arrival, nbytes, payload))
        req = Request(sim, "send", dest, tag, nbytes)
        req.trigger_at_time(None, sender_done)
        return req

    def irecv(self, source: int, tag: int = 0, _collective: bool = False) -> Request:
        """Nonblocking receive from a specific source and tag.

        When the matching message has already arrived, the request comes
        back complete, carrying the payload, with no engine event.
        """
        if type(source) is not int or not 0 <= source < self.size:
            self._check_peer(source)
        if tag < 0 or (tag >= COLL_TAG_BASE and not _collective):
            self._check_tag(tag, _collective)
        key = (source, tag)
        sim = self.sim
        boxes = self.world.pending_msgs[self.rank]
        queue = boxes.get(key)
        if queue:
            arrival, nbytes, payload = queue.popleft()
            if not queue:
                del boxes[key]
            req = Request(sim, "recv", source, tag, nbytes)
            if arrival > sim.now:
                req.trigger_at_time(payload, arrival)
            else:
                # Arrived: complete at post, as the queue would at delay 0.
                req._value = payload
                req.processed = True
            return req
        req = Request(sim, "recv", source, tag, -1)
        recv_boxes = self.world.pending_recvs[self.rank]
        waiting = recv_boxes.get(key)
        if waiting is None:
            waiting = recv_boxes[key] = deque()
        waiting.append(req)
        return req

    def wait(self, request: Request) -> Generator[Event, Any, Any]:
        """Block until ``request`` completes; returns the payload (recv)."""
        if request.processed:
            return request._value
        sim = self.sim
        t0 = sim.now
        value = yield request
        self.ctx.account_wait(sim.now - t0)
        return value

    def waitall(
        self, requests: Iterable[Request]
    ) -> Generator[Event, Any, list[Any]]:
        """Block until every request completes; returns payloads in order.

        Waits on the requests one at a time, with no join event: a request
        that already completed is read, a pending one is yielded. This
        finishes at the latest completion, as a join would. No event in
        ``simmpi`` ever fails, so there is no order of failure to keep.
        """
        reqs = list(requests)
        sim = self.sim
        t0 = sim.now
        values: list[Any] = []
        for req in reqs:
            if req.processed:
                values.append(req._value)
            else:
                values.append((yield req))
        self.ctx.account_wait(sim.now - t0)
        return values

    def send(
        self,
        dest: int,
        nbytes: int,
        tag: int = 0,
        payload: Any = None,
        messages: int = 1,
        _collective: bool = False,
    ) -> Generator[Event, Any, None]:
        """Blocking (buffered) send: returns once the message is injected."""
        req = self.isend(dest, nbytes, tag, payload, messages, _collective)
        sim = self.sim
        t0 = sim.now
        yield req
        self.ctx.account_wait(sim.now - t0)

    def recv(
        self, source: int, tag: int = 0, _collective: bool = False
    ) -> Generator[Event, Any, Any]:
        """Blocking receive; returns the payload."""
        req = self.irecv(source, tag, _collective)
        if req.processed:
            return req._value
        sim = self.sim
        t0 = sim.now
        value = yield req
        self.ctx.account_wait(sim.now - t0)
        return value

    def sendrecv(
        self,
        dest: int,
        nbytes: int,
        send_tag: int = 0,
        source: Optional[int] = None,
        recv_tag: Optional[int] = None,
        payload: Any = None,
        messages: int = 1,
        _collective: bool = False,
    ) -> Generator[Event, Any, Any]:
        """Simultaneous exchange: returns the received payload.

        Waits on the receive unless its message had arrived, then on the
        send if it is still pending, with no join event.
        """
        source = dest if source is None else source
        recv_tag = send_tag if recv_tag is None else recv_tag
        # Posted before the send, so a message to self can match it.
        rreq = self.irecv(source, recv_tag, _collective)
        sreq = self.isend(dest, nbytes, send_tag, payload, messages, _collective)
        sim = self.sim
        t0 = sim.now
        if rreq.processed:
            value = rreq._value
        else:
            value = yield rreq
        if not sreq.processed:
            yield sreq
        self.ctx.account_wait(sim.now - t0)
        return value

    # -- collectives ----------------------------------------------------------

    def _next_coll_tag(self) -> int:
        self._coll_seq += 1
        return COLL_TAG_BASE + self._coll_seq

    def barrier(self) -> Generator[Event, Any, None]:
        """Synchronize all ranks (binomial gather + binomial broadcast)."""
        tag = self._next_coll_tag()
        yield from self._reduce_impl(0, 0, tag, None, lambda a, b: None)
        # Reduce uses child->parent channels, bcast parent->child, so the
        # same tag cannot mismatch between the two phases.
        yield from self._bcast_impl(0, 0, tag, None)

    def bcast(
        self, nbytes: int, root: int = 0, payload: Any = None
    ) -> Generator[Event, Any, Any]:
        """Broadcast ``payload`` from ``root``; every rank returns it."""
        self._check_peer(root)
        tag = self._next_coll_tag()
        return (yield from self._bcast_impl(nbytes, root, tag, payload))

    def _bcast_impl(
        self,
        nbytes: int,
        root: int,
        tag: int,
        payload: Any,
    ) -> Generator[Event, Any, Any]:
        size = self.size
        relrank = (self.rank - root) % size
        mask = 1
        while mask < size:
            if relrank & mask:
                src = (relrank - mask + root) % size
                payload = yield from self.recv(src, tag, _collective=True)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if relrank + mask < size:
                dst = (relrank + mask + root) % size
                yield from self.send(dst, nbytes, tag, payload, _collective=True)
            mask >>= 1
        return payload

    def reduce(
        self,
        value: Any,
        nbytes: int,
        root: int = 0,
        op: Callable[[Any, Any], Any] = lambda a, b: a + b,
    ) -> Generator[Event, Any, Any]:
        """Reduce ``value`` across ranks with ``op``; result only at root."""
        self._check_peer(root)
        tag = self._next_coll_tag()
        return (yield from self._reduce_impl(value, nbytes, tag, root, op))

    def _reduce_impl(
        self,
        value: Any,
        nbytes: int,
        tag: int,
        root: Optional[int],
        op: Callable[[Any, Any], Any],
    ) -> Generator[Event, Any, Any]:
        size = self.size
        base = 0 if root is None else root
        relrank = (self.rank - base) % size
        mask = 1
        while mask < size:
            if relrank & mask:
                dst = ((relrank & ~mask) + base) % size
                yield from self.send(dst, nbytes, tag, value, _collective=True)
                return None
            peer = relrank | mask
            if peer < size:
                other = yield from self.recv((peer + base) % size, tag, _collective=True)
                value = op(value, other)
            mask <<= 1
        return value

    def allreduce(
        self,
        value: Any,
        nbytes: int,
        op: Callable[[Any, Any], Any] = lambda a, b: a + b,
    ) -> Generator[Event, Any, Any]:
        """Reduce across ranks; every rank returns the result.

        The algorithm follows from P, as in real MPI implementations:

        * P a power of two — recursive doubling, log2(P) pairwise exchange
          rounds (P·log2 P messages). Requires a *commutative* op
          (partner order differs across ranks).
        * otherwise — binomial reduce to rank 0, then binomial broadcast
          (2 log2(P) rounds, 2(P-1) messages); any op ordering.
        """
        if self.size & (self.size - 1):
            tag = self._next_coll_tag()
            result = yield from self._reduce_impl(value, nbytes, tag, 0, op)
            result = yield from self._bcast_impl(nbytes, 0, tag, result)
            return result
        # Recursive doubling: after round k every rank holds the reduction
        # of its 2^(k+1)-rank block.
        tag = self._next_coll_tag()
        self._coll_seq += self.size.bit_length()  # one tag per round
        mask = 1
        round_no = 0
        while mask < self.size:
            partner = self.rank ^ mask
            other = yield from self.sendrecv(
                partner,
                nbytes,
                send_tag=tag + round_no,
                payload=value,
                _collective=True,
            )
            value = op(value, other)
            mask <<= 1
            round_no += 1
        return value


def attach_world(machine: Machine) -> World:
    """Create a :class:`World` for ``machine`` and attach per-rank comms.

    After this call every ``machine.contexts[r].comm`` is a :class:`Comm`.
    """
    world = World(machine)
    for ctx in machine.contexts:
        ctx.comm = Comm(world, ctx.rank)
    return world
