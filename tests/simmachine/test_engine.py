"""Discrete-event engine: events, timeouts, processes, determinism.

``TestBaselineParity`` checks the engine against an independent copy:
the frozen pre-optimisation engine in ``benchmarks/_engine_baseline.py``
must produce the same event schedule, floats included, the same error
messages and the same deadlock reports.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.simmachine import engine

BASELINE_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "_engine_baseline.py"
)


# One id, so every test keeps the name the suite has always reported.
@pytest.fixture(params=["pure"])
def eng():
    """The engine module under test."""
    return engine


@pytest.fixture
def sim(eng):
    return eng.Simulator()


class TestEvent:
    def test_starts_pending(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().value

    def test_succeed_carries_value(self, sim):
        ev = sim.event().succeed(42)
        assert ev.triggered
        assert ev.value == 42

    def test_double_trigger_raises(self, sim):
        ev = sim.event().succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_trigger_at_fires_later(self, sim):
        ev = sim.event()
        ev.trigger_at("hello", 2.5)
        seen = []
        ev.add_callback(lambda e: seen.append((sim.now, e.value)))
        sim.run()
        assert seen == [(2.5, "hello")]

    def test_trigger_at_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().trigger_at(None, -1.0)

    def test_callback_after_processed_runs_immediately(self, sim):
        ev = sim.event().succeed(7)
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]

    def test_many_callbacks_run_in_registration_order(self, sim):
        ev = sim.event()
        ev.trigger_at("v", 1.0)
        seen = []
        for i in range(4):
            ev.add_callback(lambda e, i=i: seen.append(i))
        sim.run()
        assert seen == [0, 1, 2, 3]

    def test_fail_propagates_exception_to_process(self, sim):
        ev = sim.event()

        def proc():
            with pytest.raises(ValueError, match="boom"):
                yield ev
            return "handled"

        p = sim.process(proc())
        ev.fail(ValueError("boom"))
        sim.run()
        assert p.value == "handled"

    def test_callback_exception_propagates_out_of_run(self, sim):
        ev = sim.event().succeed()

        def bad(event):
            raise RuntimeError("callback exploded")

        ev.add_callback(bad)
        with pytest.raises(RuntimeError, match="callback exploded"):
            sim.run()


class TestTimeout:
    def test_advances_clock(self, eng, sim):
        eng.Timeout(sim, 5.0)
        assert sim.run() == 5.0

    def test_zero_delay_allowed(self, eng, sim):
        eng.Timeout(sim, 0.0)
        assert sim.run() == 0.0

    def test_negative_delay_raises(self, eng, sim):
        with pytest.raises(SimulationError):
            eng.Timeout(sim, -0.1)

    def test_negative_delay_message_repr(self, eng, sim):
        with pytest.raises(SimulationError) as exc:
            eng.Timeout(sim, -0.1)
        assert str(exc.value) == "negative timeout delay -0.1"

    def test_carries_value(self, sim):
        results = []

        def proc():
            v = yield sim.timeout(1.0, value="done")
            results.append(v)

        sim.process(proc())
        sim.run()
        assert results == ["done"]

    def test_ordering_is_time_then_fifo(self, sim):
        order = []
        for delay, tag in [(2.0, "b"), (1.0, "a"), (2.0, "c")]:
            sim.timeout(delay).add_callback(lambda e, t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]


class TestProcess:
    def test_returns_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return 99

        p = sim.process(proc())
        assert sim.run_all([p]) == [99]

    def test_requires_generator(self, sim):
        with pytest.raises(SimulationError, match="generator"):
            sim.process(lambda: None)

    def test_yielding_non_event_fails(self, sim):
        def proc():
            yield 42

        sim.process(proc())
        with pytest.raises(SimulationError, match="yielded int"):
            sim.run()

    def test_crash_surfaces(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise KeyError("oops")

        sim.process(proc())
        with pytest.raises(KeyError):
            sim.run()

    def test_crash_marks_process_failed(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise KeyError("oops")

        p = sim.process(proc(), name="crasher")
        with pytest.raises(KeyError):
            sim.run()
        with pytest.raises(SimulationError, match="'crasher' failed"):
            sim.run_all([p])

    def test_two_processes_interleave(self, sim):
        trace = []

        def proc(name, delays):
            for d in delays:
                yield sim.timeout(d)
                trace.append((sim.now, name))

        sim.process(proc("a", [1.0, 3.0]))
        sim.process(proc("b", [2.0, 0.5]))
        sim.run()
        assert trace == [(1.0, "a"), (2.0, "b"), (2.5, "b"), (4.0, "a")]

    def test_process_completion_is_event(self, sim):
        def child():
            yield sim.timeout(2.0)
            return "child-done"

        def parent():
            result = yield sim.process(child())
            return f"saw {result}"

        p = sim.process(parent())
        sim.run()
        assert p.value == "saw child-done"

    def test_yielding_already_processed_event_resumes_inline(self, sim):
        done = sim.timeout(1.0, value="past")
        sim.run()
        assert done.processed

        def proc():
            v = yield done
            return v

        p = sim.process(proc())
        sim.run()
        assert p.value == "past"


class TestDeadlock:
    def test_blocked_process_raises_deadlock(self, sim):
        ev = sim.event()  # never triggered

        def proc():
            yield ev

        sim.process(proc(), name="stuck-rank")
        with pytest.raises(DeadlockError) as exc:
            sim.run()
        assert exc.value.blocked == ["stuck-rank"]

    def test_deadlock_lists_all_blocked(self, sim):
        ev = sim.event()

        def proc():
            yield ev

        for i in range(3):
            sim.process(proc(), name=f"r{i}")
        with pytest.raises(DeadlockError) as exc:
            sim.run()
        assert exc.value.blocked == ["r0", "r1", "r2"]

    def test_completed_processes_do_not_deadlock(self, sim):
        def proc():
            yield sim.timeout(1.0)

        sim.process(proc())
        assert sim.run() == 1.0


class TestRun:
    def test_event_count_tracked(self, sim):
        for _ in range(5):
            sim.timeout(1.0)
        sim.run()
        assert sim.events_processed == 5

    def test_determinism_same_structure(self, eng):
        def build():
            s = eng.Simulator()
            log = []

            def proc(n):
                for i in range(5):
                    yield s.timeout(0.1 * (n + 1))
                    log.append((round(s.now, 10), n))

            for n in range(4):
                s.process(proc(n))
            s.run()
            return log

        assert build() == build()


class TestAnyOf:
    def test_first_completion_wins(self, eng, sim):
        slow = sim.timeout(5.0, value="slow")
        fast = sim.timeout(1.0, value="fast")
        seen = []

        def proc():
            result = yield eng.AnyOf(sim, [slow, fast])
            seen.append((sim.now, result))

        sim.process(proc())
        sim.run()
        assert seen == [(1.0, (1, "fast"))]

    def test_empty_rejected(self, eng, sim):
        with pytest.raises(SimulationError):
            eng.AnyOf(sim, [])

    def test_failure_of_first_child_propagates(self, sim):
        bad = sim.event()
        slow = sim.timeout(10.0)

        def proc():
            with pytest.raises(RuntimeError):
                yield sim.any_of([bad, slow])

        sim.process(proc())
        bad.fail(RuntimeError("boom"))
        sim.run()

    def test_later_completions_harmless(self, sim):
        a = sim.timeout(1.0, value="a")
        b = sim.timeout(2.0, value="b")

        def proc():
            idx, val = yield sim.any_of([a, b])
            assert (idx, val) == (0, "a")
            # b fires later without error.
            yield b
            return "done"

        p = sim.process(proc())
        sim.run()
        assert p.value == "done"


class TestBaselineParity:
    """Bit-identical behaviour against the frozen pre-optimisation engine."""

    @pytest.fixture(scope="class")
    def baseline(self):
        """The frozen pre-optimisation engine module, loaded by path."""
        spec = importlib.util.spec_from_file_location(
            "repro_test_engine_baseline", BASELINE_PATH
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def _schedule_log(simulator_cls):
        """A mixed workload touching every event kind; full float log."""
        sim = simulator_cls()
        log = []

        def worker(n):
            for i in range(20):
                yield sim.timeout(0.013 * (n + 1) * (i + 1), value=(n, i))
                log.append(("t", sim.now, n, i))
            return n

        def messenger(n, peer_ev):
            v = yield peer_ev
            log.append(("m", sim.now, n, v))
            yield sim.timeout(0.5)
            return "ok"

        def gatherer(events):
            vals = []
            for ev in events:
                vals.append((yield ev))
            log.append(("all", sim.now, tuple(vals)))
            first = yield sim.any_of(list(events))
            log.append(("any", sim.now, first))

        workers = [sim.process(worker(n), name=f"w{n}") for n in range(4)]
        evs = []
        for n in range(3):
            ev = sim.event()
            ev.trigger_at(f"payload{n}", 0.31 * (n + 1))
            evs.append(ev)
            sim.process(messenger(n, ev), name=f"m{n}")
        sim.process(gatherer(evs), name="g")
        results = sim.run_all(workers)
        log.append(("done", sim.now, sim.events_processed, tuple(results)))
        return log

    def test_identical_event_schedules(self, baseline):
        log = self._schedule_log(engine.Simulator)
        assert len(log) == 86
        # Exact equality, floats included: same arithmetic, same order.
        assert log == self._schedule_log(baseline.Simulator)

    def test_identical_error_messages(self, baseline):
        def messages(mod):
            sim = mod.Simulator()
            out = []
            for trigger in (
                lambda: mod.Timeout(sim, -0.25),
                lambda: sim.event().succeed().succeed(),
                lambda: sim.event().trigger_at(None, -2),
                lambda: sim.event().value,
                lambda: mod.AnyOf(sim, []),
                lambda: sim.process(object()),
            ):
                with pytest.raises(SimulationError) as exc:
                    trigger()
                out.append(str(exc.value))
            return out

        assert messages(engine) == messages(baseline)

    def test_identical_deadlock_reports(self, baseline):
        def deadlock(mod):
            sim = mod.Simulator()

            def stuck():
                yield sim.event()

            for i in range(3):
                sim.process(stuck(), name=f"rank{2 - i}")
            with pytest.raises(DeadlockError) as exc:
                sim.run()
            return exc.value.blocked, str(exc.value)

        assert deadlock(engine) == deadlock(baseline)
