"""Completion oracle for blocking receives on a contention-free machine.

With no contention backlog (``drain_window=0``) the network's only state
is each sender's adapter, so the arrival of every message follows from
replaying :meth:`NetworkModel.send_timing` over the same sends, in each
sender's order, on a fresh model. A blocking receive then has exactly
one right answer, whatever the engine does in between:

* it returns at ``max(post_time, arrival)``;
* it charges ``max(0, arrival - post_time)`` of wait time;
* it returns the payload of the oldest unmatched message on its
  ``(source, tag)`` channel.

A receive still waiting when its message is matched (at its post or at
the send) completes at ``arrival`` itself, not at ``now + (arrival -
now)``, which can land one ulp off it: the oracle takes nothing from the
engine's arithmetic. The recorded 39,997-byte example is one where the
relative form rounds.

Ranks first issue their sends after scripted gaps, then post their
receives after scripted delays, so some receives find their message
already arrived and others wait for it, or for its send.
"""

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simmachine.machine import ibm_sp_argonne
from repro.simmachine.network import NetworkModel
from tests.conftest import make_machine

CONFIG = ibm_sp_argonne().with_(noise_cv=0.0, noise_floor=0.0)
CONFIG = CONFIG.with_(network=replace(CONFIG.network, drain_window=0.0))


@st.composite
def scripts(draw):
    """``(nprocs, sends, receives)`` for one run.

    ``sends[i] = (src, dst, tag, nbytes, gap)``: ``src`` waits ``gap``
    seconds, then sends. ``receives[r]`` lists ``(index, delay)`` per
    receive on rank ``r``: wait ``delay``, then receive the message from
    ``sends[index]``'s source and tag.
    """
    nprocs = draw(st.integers(2, 4))
    rank = st.integers(0, nprocs - 1)
    sends = draw(
        st.lists(
            st.tuples(
                rank,
                rank,
                st.integers(0, 1),
                st.integers(0, 40_000),
                st.sampled_from([0.0, 5e-6, 40e-6, 300e-6]),
            ),
            max_size=10,
        )
    )
    receives = {}
    for dst in range(nprocs):
        incoming = [i for i, send in enumerate(sends) if send[1] == dst]
        order = draw(st.permutations(incoming))
        delays = st.sampled_from([0.0, 10e-6, 100e-6, 1e-3])
        receives[dst] = [(i, draw(delays)) for i in order]
    return nprocs, sends, receives


def reach(now, time):
    """The clock once the engine reaches ``time`` from ``now``: exactly
    ``time`` (a message completes at its absolute arrival time)."""
    return time


def expected(nprocs, sends, receives):
    """Each receive's ``(payload, post, done, wait)``, per rank."""
    network = NetworkModel(CONFIG.network, nprocs)
    sent = {}
    arrival = {}
    sends_done = [0.0] * nprocs
    for src in range(nprocs):
        now = 0.0
        for i, (s, dst, _tag, nbytes, gap) in enumerate(sends):
            if s == src:
                now += gap
                sent[i] = now
                arrival[i] = network.send_timing(src, dst, nbytes, now)[2]
        sends_done[src] = now
    out = {}
    for dst, script in receives.items():
        # FIFO per channel: a receive from (src, tag) gets the oldest
        # unmatched send on it, whichever send the script named.
        channels = {}
        for i, (src, d, tag, _nbytes, _gap) in enumerate(sends):
            if d == dst:
                channels.setdefault((src, tag), []).append(i)
        now = sends_done[dst]
        rows = []
        for i, delay in script:
            src, _, tag, _, _ = sends[i]
            match = channels[(src, tag)].pop(0)
            post = now + delay
            if arrival[match] <= post:
                now = post
            else:
                now = reach(max(post, sent[match]), arrival[match])
            rows.append((match, post, now, now - post))
        out[dst] = rows
    return out


def simulate(nprocs, sends, receives):
    machine = make_machine(CONFIG, nprocs)
    out = {}

    def program(ctx):
        comm = ctx.comm
        for i, (src, dst, tag, nbytes, gap) in enumerate(sends):
            if src == comm.rank:
                yield ctx.sim.timeout(gap)
                comm.isend(dst, nbytes, tag, payload=i)
        rows = []
        for j, (i, delay) in enumerate(receives[comm.rank]):
            yield ctx.sim.timeout(delay)
            # A label per receive, so its counter holds this wait alone.
            label = f"recv{j}"
            ctx.set_label(label)
            post = ctx.sim.now
            payload = yield from comm.recv(sends[i][0], tag=sends[i][2])
            counters = ctx.counters.get(label)
            wait = 0.0 if counters is None else counters.wait_time
            rows.append((payload, post, ctx.sim.now, wait))
        out[comm.rank] = rows

    machine.run(program)
    return out


@settings(derandomize=True, max_examples=200, deadline=None)
@given(scripts())
# Posted before the send; 3e-4 + (arrival - 3e-4) is one ulp below arrival.
@example((2, [(0, 1, 0, 39997, 300e-6)], {0: [], 1: [(0, 0.0)]}))
# Posted after arrival: complete at post, no wait.
@example((2, [(0, 1, 0, 800, 0.0)], {0: [], 1: [(0, 1e-3)]}))
def test_blocking_receives_complete_at_max_of_post_and_arrival(script):
    assert simulate(*script) == expected(*script)
