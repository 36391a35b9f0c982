"""Machine + RankContext: programs, counters, labels, state management."""

import pytest

from dataclasses import asdict

from repro.errors import ConfigurationError, SimulationError
from repro.simmachine import Machine, DataRegion, ibm_sp_argonne
from repro.simmachine.process import KernelCounters, RankContext
from tests.conftest import make_machine


@pytest.fixture
def quiet():
    return ibm_sp_argonne().with_(noise_cv=0.0, noise_floor=0.0)


class TestMachineConstruction:
    def test_rejects_zero_procs(self, quiet):
        with pytest.raises(ConfigurationError):
            Machine(quiet, 0)

    def test_rejects_over_capacity(self, quiet):
        with pytest.raises(ConfigurationError, match="80 procs"):
            Machine(quiet, 81)

    def test_per_rank_memories_are_independent(self, quiet):
        m = Machine(quiet, 2)
        region = DataRegion("r", 1024)
        m.memories[0].touch(region)
        assert m.memories[0].resident_bytes(0, "r") == 1024
        assert m.memories[1].resident_bytes(0, "r") == 0


class TestWork:
    def test_compute_time_matches_flop_rate(self, quiet):
        m = Machine(quiet, 1)

        def program(ctx):
            yield ctx.work(flops=1e6)

        elapsed = m.run(program)
        assert elapsed == pytest.approx(1e6 * quiet.processor.flop_time)

    def test_memory_time_added(self, quiet):
        m = Machine(quiet, 1)
        region = DataRegion("data", 100 * 1024)

        def program(ctx):
            yield ctx.work(flops=0, regions=[(region, None, False)])

        elapsed = m.run(program)
        assert elapsed == pytest.approx(
            100 * 1024 * quiet.processor.memory_byte_time
        )

    def test_negative_flops_rejected(self, quiet):
        m = Machine(quiet, 1)

        def program(ctx):
            yield ctx.work(flops=-1)

        with pytest.raises(SimulationError):
            m.run(program)

    def test_jitter_disabled_flag(self):
        noisy = ibm_sp_argonne().with_(noise_cv=0.2, noise_floor=0.0)
        m1 = Machine(noisy, 1, seed=1)
        m2 = Machine(noisy, 1, seed=2)

        def program(ctx):
            yield ctx.work(flops=1e6, jitter=False)

        assert m1.run(program) == m2.run(program)

    def test_jitter_varies_with_seed(self):
        noisy = ibm_sp_argonne().with_(noise_cv=0.2, noise_floor=0.0)

        def program(ctx):
            yield ctx.work(flops=1e6)

        t1 = Machine(noisy, 1, seed=1).run(program)
        t2 = Machine(noisy, 1, seed=2).run(program)
        assert t1 != t2


class TestCounters:
    def test_label_attribution(self, quiet):
        m = Machine(quiet, 2)
        region = DataRegion("d", 2048)

        def program(ctx):
            ctx.set_label("alpha")
            yield ctx.work(flops=100, regions=[(region, None, False)])
            ctx.set_label("beta")
            yield ctx.work(flops=200)

        m.run(program)
        alpha = m.counters_for("alpha")
        beta = m.counters_for("beta")
        assert alpha.flops == 200  # two ranks x 100
        assert beta.flops == 400
        assert alpha.bytes_from_memory == 2 * 2048
        assert beta.bytes_touched == 0
        assert m.all_labels() == ["alpha", "beta"]

    def test_busy_time(self, quiet):
        m = Machine(quiet, 1)

        def program(ctx):
            ctx.set_label("k")
            yield ctx.work(flops=1e6)

        m.run(program)
        c = m.counters_for("k")
        assert c.busy_time == pytest.approx(c.compute_time + c.memory_time)

    def test_counters_for_unknown_label_is_zero(self, quiet):
        m = Machine(quiet, 1)
        assert m.counters_for("nothing").flops == 0


def _switching_program(ctx):
    """Work, messages and waits under labels that change mid-program."""
    region = DataRegion(f"r{ctx.rank}", 4096)
    comm = ctx.comm
    peer = (ctx.rank + 1) % comm.size
    for label in ("alpha", "beta", "idle", "alpha", "gamma"):
        ctx.set_label(label)
        if label == "idle":
            continue  # set but never charged
        yield ctx.work(flops=1000 * len(label), regions=[(region, None, False)])
        yield from comm.sendrecv(peer, 256 * len(label), source=(ctx.rank - 1) % comm.size)
        yield ctx.sim.timeout(1e-6 * ctx.rank)


def _label_totals(config):
    machine = make_machine(config, 3, seed=5)
    machine.run(_switching_program)
    return {
        label: asdict(machine.counters_for(label)) for label in machine.all_labels()
    }


class TestLabelCache:
    def test_work_after_switch_goes_to_new_label(self, quiet):
        m = Machine(quiet, 1)

        def program(ctx):
            ctx.set_label("first")
            yield ctx.work(flops=10)
            ctx.set_label("second")
            yield ctx.work(flops=30)
            ctx.set_label("first")
            yield ctx.work(flops=5)

        m.run(program)
        assert m.counters_for("first").flops == 15
        assert m.counters_for("second").flops == 30

    def test_totals_match_an_uncached_run(self, monkeypatch):
        config = ibm_sp_argonne()  # noise on: jitter draws stay in step
        cached = _label_totals(config)

        def uncached(self):
            c = self.counters.get(self.label)
            if c is None:
                c = self.counters[self.label] = KernelCounters()
            return c

        monkeypatch.setattr(RankContext, "_counters", uncached)
        assert _label_totals(config) == cached
        assert sorted(cached) == ["alpha", "beta", "gamma"]
        assert cached["alpha"]["messages_sent"] == 6
        assert all(totals["wait_time"] > 0 for totals in cached.values())


class TestStateManagement:
    def test_flush_memory_clears_all_ranks(self, quiet):
        m = Machine(quiet, 3)
        region = DataRegion("r", 512)
        for mem in m.memories:
            mem.touch(region)
        m.flush_memory()
        assert all(mem.resident_bytes(0, "r") == 0 for mem in m.memories)

    def test_run_returns_elapsed_since_launch(self, quiet):
        m = Machine(quiet, 2)

        def program(ctx):
            yield ctx.sim.timeout(1.0)

        assert m.run(program) == pytest.approx(1.0)
        assert m.run(program) == pytest.approx(1.0)  # relative to second launch

    def test_trace_records_phases(self, quiet):
        m = Machine(quiet, 1, trace=True)

        def program(ctx):
            ctx.set_label("phase1")
            yield ctx.work(flops=10)

        m.run(program)
        phases = m.trace.by_kind("phase")
        assert [p.label for p in phases] == ["phase1"]
        assert len(m.trace.by_kind("compute")) == 1

    def test_trace_off_by_default(self, quiet):
        assert Machine(quiet, 1).trace is None
