"""Interconnect model: injection serialization, contention, bursts."""

import copy
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommunicationError
from repro.simmachine.machine import NetworkConfig
from repro.simmachine.network import NetworkModel


def config(**overrides):
    base = dict(
        latency=10e-6,
        byte_time=1e-8,
        injection_byte_time=1e-9,
        per_message_overhead=1e-6,
        contention_coeff=0.0,
        drain_window=0.0,
    )
    base.update(overrides)
    return NetworkConfig(**base)


class TestBasicTiming:
    def test_message_cost_components(self):
        net = NetworkModel(config(), nprocs=4)
        t = net.send_timing(0, 1, nbytes=1000, now=0.0)
        assert t.start == 0.0
        assert t.sender_done == pytest.approx(1e-6 + 1000 * 1e-9)
        assert t.arrival == pytest.approx(t.sender_done + 10e-6 + 1000 * 1e-8)

    def test_zero_byte_message_pays_latency(self):
        net = NetworkModel(config(), nprocs=2)
        t = net.send_timing(0, 1, 0, now=0.0)
        assert t.arrival == pytest.approx(1e-6 + 10e-6)

    def test_self_message_skips_wire(self):
        net = NetworkModel(config(), nprocs=2)
        t = net.send_timing(1, 1, 500, now=0.0)
        assert t.arrival == t.sender_done

    def test_nic_serializes_same_sender(self):
        net = NetworkModel(config(), nprocs=4)
        t1 = net.send_timing(0, 1, 1000, now=0.0)
        t2 = net.send_timing(0, 2, 1000, now=0.0)
        assert t2.start == pytest.approx(t1.sender_done)

    def test_different_senders_do_not_serialize(self):
        net = NetworkModel(config(), nprocs=4)
        net.send_timing(0, 1, 1000, now=0.0)
        t = net.send_timing(1, 2, 1000, now=0.0)
        assert t.start == 0.0

    def test_nic_frees_over_time(self):
        net = NetworkModel(config(), nprocs=2)
        net.send_timing(0, 1, 1000, now=0.0)
        t = net.send_timing(0, 1, 1000, now=1.0)
        assert t.start == 1.0

    def test_statistics(self):
        net = NetworkModel(config(), nprocs=2)
        net.send_timing(0, 1, 100, 0.0)
        net.send_timing(0, 1, 200, 0.0)
        assert net.messages_sent == 2
        assert net.bytes_sent == 300


class TestValidation:
    def test_rank_out_of_range(self):
        net = NetworkModel(config(), nprocs=2)
        with pytest.raises(CommunicationError):
            net.send_timing(0, 5, 10, 0.0)

    def test_negative_bytes(self):
        net = NetworkModel(config(), nprocs=2)
        with pytest.raises(CommunicationError):
            net.send_timing(0, 1, -1, 0.0)

    def test_zero_procs(self):
        with pytest.raises(CommunicationError):
            NetworkModel(config(), nprocs=0)

    def test_burst_count_must_be_positive(self):
        net = NetworkModel(config(), nprocs=2)
        with pytest.raises(CommunicationError):
            net.send_timing(0, 1, 10, 0.0, messages=0)


class TestContention:
    def test_no_contention_without_window(self):
        net = NetworkModel(config(contention_coeff=0.5), nprocs=4)
        for _ in range(10):
            t = net.send_timing(0, 1, 10, 0.0)
        assert t.contention == 1.0

    def test_backlog_raises_latency(self):
        net = NetworkModel(
            config(contention_coeff=0.1, drain_window=1.0), nprocs=4
        )
        first = net.send_timing(0, 1, 10, 0.0)
        assert first.contention == 1.0
        later = net.send_timing(1, 2, 10, 0.0)
        assert later.contention == pytest.approx(1.1)

    def test_backlog_expires_outside_window(self):
        net = NetworkModel(
            config(contention_coeff=0.1, drain_window=1e-3), nprocs=4
        )
        net.send_timing(0, 1, 10, 0.0)
        t = net.send_timing(1, 2, 10, 1.0)
        assert t.contention == 1.0

    def test_drain_clears_backlog(self):
        net = NetworkModel(
            config(contention_coeff=0.1, drain_window=10.0), nprocs=4
        )
        for _ in range(5):
            net.send_timing(0, 1, 10, 0.0)
        net.drain()
        t = net.send_timing(1, 2, 10, 0.0)
        assert t.contention == 1.0

    def test_max_inflight_tracked(self):
        net = NetworkModel(
            config(contention_coeff=0.1, drain_window=10.0), nprocs=4
        )
        for _ in range(7):
            net.send_timing(0, 1, 10, 0.0)
        assert net.max_inflight == 7


class TestBursts:
    def test_burst_pays_overhead_per_message(self):
        net = NetworkModel(config(), nprocs=2)
        t = net.send_timing(0, 1, 1000, 0.0, messages=10)
        assert t.sender_done == pytest.approx(10 * 1e-6 + 1000 * 1e-9)

    def test_burst_counts_toward_contention(self):
        net = NetworkModel(
            config(contention_coeff=0.01, drain_window=1.0), nprocs=4
        )
        net.send_timing(0, 1, 1000, 0.0, messages=50)
        t = net.send_timing(1, 2, 10, 0.0)
        assert t.contention == pytest.approx(1.5)

    def test_burst_counts_in_statistics(self):
        net = NetworkModel(config(), nprocs=2)
        net.send_timing(0, 1, 1000, 0.0, messages=25)
        assert net.messages_sent == 25


class ReferenceNetwork:
    """Oracle: the backlog kept as one entry per message, expired one by one."""

    def __init__(self, cfg, nprocs):
        self.cfg = cfg
        self.nic_free = [0.0] * nprocs
        self.inflight = deque()
        self.max_inflight = 0

    def send_timing(self, src, dst, nbytes, now, messages=1):
        cfg = self.cfg
        start = max(now, self.nic_free[src])
        sender_done = start + (
            messages * cfg.per_message_overhead + nbytes * cfg.injection_byte_time
        )
        self.nic_free[src] = sender_done
        count = 0
        if cfg.drain_window > 0.0:
            horizon = start - cfg.drain_window
            while self.inflight and self.inflight[0] < horizon:
                self.inflight.popleft()
            count = len(self.inflight)
        contention = 1.0 + cfg.contention_coeff * count
        if src == dst:
            arrival = sender_done
        else:
            arrival = sender_done + cfg.latency * contention + nbytes * cfg.byte_time
        if cfg.drain_window > 0.0:
            self.inflight.extend([start] * messages)
            self.max_inflight = max(self.max_inflight, len(self.inflight))
        return sender_done, arrival, contention

    def drain(self):
        self.inflight.clear()


NPROCS = 4

sends = st.tuples(
    st.integers(0, NPROCS - 1),                 # src
    st.integers(0, NPROCS - 1),                 # dst
    st.integers(0, 100_000),                    # nbytes
    # Advance of the clock; the dyadic steps land starts exactly on the
    # expiry horizon of a dyadic window.
    st.one_of(
        st.floats(0.0, 2e-4, allow_nan=False),
        st.sampled_from([0.0, 2.0**-16, 2.0**-13]),
    ),
    st.integers(1, 60),                         # messages in the burst
)
operations = st.lists(st.one_of(sends, st.just("drain")), max_size=80)


class TestBacklogOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        ops=operations,
        window=st.sampled_from([0.0, 1e-6, 2e-5, 1e-4, 2.0**-13, 2e-3]),
        coeff=st.sampled_from([0.0, 0.02, 0.5]),
    )
    def test_run_length_backlog_matches_per_message_model(self, ops, window, coeff):
        cfg = config(contention_coeff=coeff, drain_window=window)
        net = NetworkModel(cfg, NPROCS)
        ref = ReferenceNetwork(cfg, NPROCS)
        now = 0.0
        for op in ops:
            if op == "drain":
                net.drain()
                ref.drain()
                continue
            src, dst, nbytes, advance, messages = op
            now += advance
            # Each sender's adapter frees at its own time, so injection
            # starts reach the backlog out of order across sources.
            got = net.send_timing(src, dst, nbytes, now, messages)
            sender_done, arrival, contention = ref.send_timing(
                src, dst, nbytes, now, messages
            )
            assert got.sender_done == sender_done
            assert got.arrival == arrival
            assert got.contention == contention
            assert net.max_inflight == ref.max_inflight

    def test_bursts_expire_whole_behind_an_unexpired_front(self):
        cfg = config(contention_coeff=0.01, drain_window=1e-3)
        net = NetworkModel(cfg, NPROCS)
        ref = ReferenceNetwork(cfg, NPROCS)
        schedule = [
            (0, 1, 10_000_000, 0.0, 30),  # keeps rank 0's adapter busy
            (0, 1, 10, 0.0, 5),           # starts late, sits behind ...
            (1, 2, 10, 0.0, 7),           # ... an earlier start
            (2, 3, 10, 5e-3, 1),          # expires the front burst only
        ]
        for src, dst, nbytes, now, messages in schedule:
            got = net.send_timing(src, dst, nbytes, now, messages)
            assert (got.sender_done, got.arrival, got.contention) == (
                ref.send_timing(src, dst, nbytes, now, messages)
            )
        assert net.max_inflight == ref.max_inflight

    def test_burst_on_the_horizon_still_counts(self):
        net = NetworkModel(config(contention_coeff=0.25, drain_window=0.5), 2)
        net.send_timing(0, 1, 0, 0.0, messages=3)
        # horizon = 0.5 - 0.5 == 0.0: the burst started at 0.0 is not older.
        assert net.send_timing(1, 0, 0, 0.5).contention == 1.75


prefixes = st.lists(
    st.tuples(
        st.integers(0, NPROCS - 1),
        st.integers(0, NPROCS - 1),
        st.integers(0, 100_000),
        st.floats(0.0, 1e-3, allow_nan=False),
        st.integers(1, 20),
    ),
    max_size=30,
).map(lambda ops: sorted(ops, key=lambda op: op[3]))


class TestMonotonicity:
    @settings(max_examples=100, deadline=None)
    @given(
        prefix=prefixes,
        byte_times=st.tuples(st.floats(1e-10, 1e-7), st.floats(1e-10, 1e-7)),
        window=st.sampled_from([0.0, 1e-4, 2e-3]),
    )
    def test_more_bandwidth_is_never_slower(self, prefix, byte_times, window):
        fast_bt, slow_bt = sorted(byte_times)
        fast = NetworkModel(
            config(byte_time=fast_bt, contention_coeff=0.05, drain_window=window),
            NPROCS,
        )
        slow = NetworkModel(
            config(byte_time=slow_bt, contention_coeff=0.05, drain_window=window),
            NPROCS,
        )
        for src, dst, nbytes, now, messages in prefix:
            a = fast.send_timing(src, dst, nbytes, now, messages)
            b = slow.send_timing(src, dst, nbytes, now, messages)
            assert a.sender_done == b.sender_done
            assert a.arrival <= b.arrival

    @settings(max_examples=100, deadline=None)
    @given(
        prefix=prefixes,
        sizes=st.tuples(st.integers(0, 1_000_000), st.integers(0, 1_000_000)),
        messages=st.integers(1, 20),
        window=st.sampled_from([0.0, 1e-4, 2e-3]),
    )
    def test_bigger_message_never_arrives_sooner(
        self, prefix, sizes, messages, window
    ):
        small, big = sorted(sizes)
        net = NetworkModel(
            config(contention_coeff=0.05, drain_window=window), NPROCS
        )
        for src, dst, nbytes, now, messages in prefix:
            net.send_timing(src, dst, nbytes, now, messages)
        twin = copy.deepcopy(net)
        now = prefix[-1][3] if prefix else 0.0
        a = net.send_timing(0, 1, small, now, messages)
        b = twin.send_timing(0, 1, big, now, messages)
        assert a.start == b.start
        assert a.sender_done <= b.sender_done
        assert a.arrival <= b.arrival
