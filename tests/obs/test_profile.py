"""The sampling profiler: backends, attribution, merging, exports."""

import sys
import threading
import time

import pytest

from repro import obs
from repro.obs import profile
from repro.obs.profile import ProfileData, SamplingProfiler


def _burn(seconds: float) -> int:
    deadline = time.perf_counter() + seconds
    acc = 0
    while time.perf_counter() < deadline:
        acc += sum(range(100))
    return acc


class TestProfileData:
    def test_record_and_self_cumulative(self):
        data = ProfileData(interval=0.01)
        data.record(("a", "b"), (), 0.0, 1)
        data.record(("a", "b"), (), 0.01, 1)
        data.record(("a", "c"), (), 0.02, 1)
        assert data.sample_count == 3
        assert data.self_seconds() == pytest.approx(
            {"b": 0.02, "c": 0.01}
        )
        # "a" is on every stack: cumulative == whole profile.
        assert data.cumulative_seconds()["a"] == pytest.approx(0.03)

    def test_recursion_counts_once_in_cumulative(self):
        data = ProfileData(interval=0.01)
        data.record(("f", "f", "f"), (), 0.0, 1)
        assert data.cumulative_seconds()["f"] == pytest.approx(0.01)

    def test_collapsed_format(self):
        data = ProfileData(interval=0.005)
        data.record(("main", "solve"), ("sweep",), 0.0, 1)
        data.record(("main", "solve"), ("sweep",), 0.0, 1)
        data.record(("main",), (), 0.0, 1)
        assert data.collapsed() == "main 1\nmain;solve 2\n"
        assert data.collapsed("spans") == "sweep 2\n"
        with pytest.raises(ValueError):
            data.collapsed("nope")

    def test_merge_adds_counts(self):
        a = ProfileData(interval=0.01)
        a.record(("x",), ("s",), 0.0, 1)
        b = ProfileData(interval=0.01)
        b.record(("x",), ("s",), 0.0, 2)
        b.record(("y",), (), 0.0, 2)
        b.duration = 3.0
        a.merge(b)
        assert a.samples == {("x",): 2, ("y",): 1}
        assert a.span_samples == {("s",): 2}
        assert a.sample_count == 3
        assert a.duration == 3.0

    def test_stack_cap_folds_into_truncated(self):
        data = ProfileData(interval=0.01)
        data.record(("a",), (), 0.0, 1, max_stacks=1)
        data.record(("b",), (), 0.0, 1, max_stacks=1)
        assert data.samples == {("a",): 1, (profile.TRUNCATED,): 1}
        assert data.truncated == 1

    def test_dict_round_trip(self):
        data = ProfileData(interval=0.002)
        data.record(("m", "f"), ("span.a",), 0.0, 1)
        data.duration = 1.5
        restored = ProfileData.from_dict(data.to_dict())
        assert restored.samples == data.samples
        assert restored.span_samples == data.span_samples
        assert restored.interval == data.interval
        assert restored.duration == data.duration
        with pytest.raises(ValueError):
            ProfileData.from_dict({"schema": 999})

    def test_chrome_trace_validates(self):
        data = ProfileData(interval=0.005)
        data.record(("m", "f"), (), 0.01, 1)
        data.record(("m", "g"), (), 0.02, 2)
        document = data.chrome_trace()
        obs.validate_chrome_trace(document)
        slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in slices} == {"f", "g"}
        assert {e["tid"] for e in slices} == {1, 2}


class TestSamplingProfiler:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0.0)
        with pytest.raises(ValueError):
            SamplingProfiler(backend="magic")

    def test_thread_backend_samples_other_threads(self):
        done = threading.Event()

        def busy():
            while not done.is_set():
                sum(range(200))

        worker = threading.Thread(target=busy, daemon=True)
        worker.start()
        try:
            with SamplingProfiler(
                interval=0.002, backend="thread"
            ) as profiler:
                time.sleep(0.15)
        finally:
            done.set()
            worker.join()
        data = profiler.data
        assert data.sample_count > 0
        assert data.duration > 0.1
        assert any("busy" in label for label in data.cumulative_seconds())

    def test_walk_stack_rejects_a_chain_with_a_non_frame_link(self):
        frame = sys._getframe()
        broken = type("Link", (), {})()
        stale = type(
            "Frame",
            (),
            {"f_globals": frame.f_globals, "f_code": frame.f_code,
             "f_back": broken},
        )()
        with pytest.raises(AttributeError):
            profile._walk_stack(stale)

    def test_thread_sampler_survives_a_frame_chain_changing_mid_walk(
        self, monkeypatch
    ):
        # A thread's frame chain can change under the walk, e.g. when a
        # pool's manager thread exits: one link is then not a frame.
        frame = sys._getframe()
        stale = type(
            "Frame",
            (),
            {"f_globals": frame.f_globals, "f_code": frame.f_code,
             "f_back": object()},
        )()
        me = threading.get_ident()
        monkeypatch.setattr(
            sys, "_current_frames", lambda: {-1: stale, me: frame}
        )
        profiler = SamplingProfiler(interval=0.002, backend="thread")
        with profiler:
            time.sleep(0.1)
            alive = profiler._sampler_thread.is_alive()
        assert alive
        # Every tick skipped the broken thread and sampled the healthy one.
        assert profiler.data.sample_count > 1
        assert all(
            thread == me for _offset, thread, _stack in profiler.data.timeline
        )

    def test_signal_backend_on_main_thread(self):
        profiler = SamplingProfiler(interval=0.002, backend="signal")
        with profiler:
            _burn(0.2)
        assert profiler.backend == "signal"
        assert profiler.data.sample_count > 0
        assert any(
            "_burn" in label
            for label in profiler.data.cumulative_seconds()
        )

    def test_signal_backend_refused_off_main_thread(self):
        errors = []

        def attempt():
            try:
                SamplingProfiler(backend="signal").start()
            except RuntimeError as exc:
                errors.append(exc)

        t = threading.Thread(target=attempt)
        t.start()
        t.join()
        assert len(errors) == 1

    def test_auto_backend_falls_back_off_main_thread(self):
        backends = []

        def attempt():
            profiler = SamplingProfiler(backend="auto").start()
            backends.append(profiler.backend)
            profiler.stop()

        t = threading.Thread(target=attempt)
        t.start()
        t.join()
        assert backends == ["thread"]

    def test_single_profiler_per_process(self):
        with SamplingProfiler(backend="thread"):
            with pytest.raises(RuntimeError):
                SamplingProfiler(backend="thread").start()
        assert profile.active() is None

    def test_stop_is_idempotent(self):
        profiler = SamplingProfiler(backend="thread").start()
        first = profiler.stop()
        assert profiler.stop() is first

    def test_span_attribution(self):
        with SamplingProfiler(
            interval=0.002, backend="signal"
        ) as profiler:
            with obs.span("outer.stage"):
                with obs.span("inner.stage"):
                    _burn(0.2)
        spans = profiler.data.span_samples
        assert ("outer.stage", "inner.stage") in spans
        assert profiler.data.span_seconds()["inner.stage"] > 0

    def test_tag_attribution_and_disabled_noop(self):
        # Without a profiler, tag() must be a no-op...
        with obs.tag("free"):
            pass
        with SamplingProfiler(
            interval=0.002, backend="signal"
        ) as profiler:
            with obs.tag("hot.region"):
                _burn(0.2)
        assert profiler.data.span_seconds().get("hot.region", 0) > 0


    @pytest.mark.timeout(10)
    def test_signal_inside_span_bookkeeping_does_not_deadlock(self):
        # SIGPROF can land while the interrupted thread holds the span
        # stack lock (inside obs.span's push or pop); the handler must
        # still take its sample instead of waiting on that lock forever.
        profiler = SamplingProfiler(interval=0.002, backend="thread")
        profiler._push(threading.get_ident(), "outer")
        profiler._running = True
        with profiler._stacks_lock:
            profiler._on_signal(0, sys._getframe())
        profiler._running = False
        assert profiler.data.sample_count == 1
        assert profiler.data.span_samples == {("outer",): 1}


class TestModuleApi:
    def test_start_stop_roundtrip(self):
        profiler = profile.start(interval=0.002, backend="thread")
        assert profile.active() is profiler
        assert profile.worker_interval() == pytest.approx(0.002)
        data = profile.stop()
        assert data is profiler.data
        assert profile.active() is None
        assert profile.stop() is None
        assert profile.worker_interval() is None

    def test_merge_child_profile(self):
        child = ProfileData(interval=0.004)
        child.record(("worker", "cell"), ("parallel.cell",), 0.0, 9)
        # No active profiler: nothing to merge into.
        assert not profile.merge_child_profile(child.to_dict())
        with SamplingProfiler(
            interval=0.004, backend="thread"
        ) as parent:
            assert profile.merge_child_profile(child.to_dict())
            assert not profile.merge_child_profile(None)
        assert parent.data.samples[("worker", "cell")] == 1
        assert parent.data.span_samples[("parallel.cell",)] == 1
