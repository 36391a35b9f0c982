"""Per-rule fixture pairs: each rule fires on the violation, not the fix."""

from __future__ import annotations

import pytest

from repro.analysis import all_rules, select_rules


def rule_ids(findings):
    return [f.rule for f in findings]


class TestRegistry:
    def test_builtin_rules_present(self):
        ids = [cls.rule_id for cls in all_rules()]
        assert ids == sorted(ids)
        for expected in ("REP001", "REP002", "REP003", "REP004", "REP005",
                         "REP006", "REP007", "REP008", "REP009", "REP010",
                         "REP011", "REP012", "REP013"):
            assert expected in ids

    def test_every_rule_documented(self):
        for cls in all_rules():
            assert cls.name, cls.rule_id
            assert cls.description, cls.rule_id
            # A rule either visits AST nodes or consumes the call graph.
            assert cls.node_types or cls.needs_graph, cls.rule_id

    def test_select_is_case_insensitive(self):
        (rule,) = select_rules(["rep001"])
        assert rule.rule_id == "REP001"

    def test_select_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="REP999"):
            select_rules(["REP999"])


class TestDeterminismREP001:
    def test_violations_in_deterministic_tier(self, lint):
        findings = lint(
            {
                "simmachine/clock.py": """\
                import time
                import random
                import numpy as np
                from time import perf_counter as pc

                def now():
                    return time.time()

                def tick():
                    return pc()

                def draw():
                    random.seed(0)
                    return random.random()

                def rng():
                    return np.random.default_rng()
                """
            },
            select=["REP001"],
        )
        assert rule_ids(findings) == ["REP001"] * 5
        messages = " ".join(f.message for f in findings)
        assert "time.time" in messages
        assert "time.perf_counter" in messages
        assert "global RNG" in messages
        assert "without a seed" in messages

    def test_seeded_generators_pass(self, lint):
        findings = lint(
            {
                "npb/kernels.py": """\
                import random
                import numpy as np

                def draw(seed):
                    return random.Random(seed).random()

                def field(seed):
                    return np.random.default_rng(seed).standard_normal(4)
                """
            },
            select=["REP001"],
        )
        assert findings == []

    def test_rule_ignores_files_outside_the_tier(self, lint):
        findings = lint(
            {
                "util/clock.py": """\
                import time

                def now():
                    return time.time()
                """
            },
            select=["REP001"],
        )
        assert findings == []

    def test_faults_py_is_in_the_tier_by_name(self, lint):
        findings = lint(
            {
                "faults.py": """\
                import random

                def jitter():
                    return random.random()
                """
            },
            select=["REP001"],
        )
        assert rule_ids(findings) == ["REP001"]


class TestLockDisciplineREP002:
    VIOLATING = {
        "state.py": """\
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def bump(self):
                self.count += 1
        """
    }

    def test_unguarded_mutation_flagged(self, lint):
        findings = lint(self.VIOLATING, select=["REP002"])
        assert rule_ids(findings) == ["REP002"]
        assert findings[0].scope == "Counter.bump"
        assert "self.count" in findings[0].message

    def test_guarded_mutation_passes(self, lint):
        findings = lint(
            {
                "state.py": """\
                import threading

                class Counter:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def bump(self):
                        with self._lock:
                            self.count += 1
                """
            },
            select=["REP002"],
        )
        assert findings == []

    def test_init_is_exempt_and_lockless_classes_ignored(self, lint):
        findings = lint(
            {
                "state.py": """\
                class Plain:
                    def __init__(self):
                        self.count = 0

                    def bump(self):
                        self.count += 1
                """
            },
            select=["REP002"],
        )
        assert findings == []

    def test_condition_counts_as_a_lock(self, lint):
        findings = lint(
            {
                "state.py": """\
                import threading

                class Queue:
                    def __init__(self):
                        self._cond = threading.Condition()
                        self.items = []

                    def put(self, item):
                        with self._cond:
                            self.items = self.items + [item]
                            self._cond.notify()

                    def mark(self):
                        self.dirty = True
                """
            },
            select=["REP002"],
        )
        assert rule_ids(findings) == ["REP002"]
        assert findings[0].scope == "Queue.mark"


class TestBlockingTimeoutsREP003:
    def test_argless_blocking_calls_flagged(self, lint):
        findings = lint(
            {
                "service/pipe.py": """\
                def drain(q, fut):
                    value = q.get()
                    return value, fut.result()
                """
            },
            select=["REP003"],
        )
        assert rule_ids(findings) == ["REP003", "REP003"]

    def test_timeouts_pass(self, lint):
        findings = lint(
            {
                "service/pipe.py": """\
                def drain(q, fut, thread):
                    value = q.get(timeout=1.0)
                    thread.join(2.0)
                    return value, fut.result(timeout=5.0)
                """
            },
            select=["REP003"],
        )
        assert findings == []

    def test_rule_only_applies_to_service_layer(self, lint):
        findings = lint(
            {
                "instrument/pipe.py": """\
                def drain(q):
                    return q.get()
                """
            },
            select=["REP003"],
        )
        assert findings == []

    def test_request_handler_without_timeout_flagged(self, lint):
        findings = lint(
            {
                "service/wire.py": """\
                import socketserver

                class Handler(socketserver.StreamRequestHandler):
                    def handle(self):
                        for raw in self.rfile:
                            self.wfile.write(raw)
                """
            },
            select=["REP003"],
        )
        assert rule_ids(findings) == ["REP003"]
        assert "timeout" in findings[0].message

    def test_request_handler_with_timeout_passes(self, lint):
        findings = lint(
            {
                "service/wire.py": """\
                import socketserver

                class Handler(socketserver.StreamRequestHandler):
                    timeout = 30.0

                    def handle(self):
                        for raw in self.rfile:
                            self.wfile.write(raw)
                """
            },
            select=["REP003"],
        )
        assert findings == []


class TestFaultSitesREP004:
    FAULTS = """\
    SITES = {
        "a.one": "first checkpoint",
        "b.two": "second checkpoint",
    }

    def check(site):
        return None
    """

    def test_drift_both_directions(self, lint):
        findings = lint(
            {
                "faults.py": self.FAULTS,
                "service/mod.py": """\
                import faults

                def go():
                    faults.check("a.one")
                    faults.check("c.three")
                """,
            },
            select=["REP004"],
        )
        assert rule_ids(findings) == ["REP004", "REP004"]
        by_path = {f.path: f.message for f in findings}
        assert "'c.three' is not registered" in by_path["service/mod.py"]
        assert "'b.two' is never passed" in by_path["faults.py"]

    def test_consistent_table_passes(self, lint):
        findings = lint(
            {
                "faults.py": self.FAULTS,
                "service/mod.py": """\
                import faults

                def go():
                    faults.check("a.one")
                    faults.check("b.two")
                """,
            },
            select=["REP004"],
        )
        assert findings == []

    def test_stands_down_without_faults_py(self, lint):
        findings = lint(
            {
                "service/mod.py": """\
                import faults

                def go():
                    faults.check("never.registered")
                """
            },
            select=["REP004"],
        )
        assert findings == []


class TestErrorTaxonomyREP005:
    def test_builtin_raise_on_wire_path_flagged(self, lint):
        findings = lint(
            {
                "service/api.py": """\
                def validate(n):
                    if n < 0:
                        raise ValueError(f"bad {n}")
                """
            },
            select=["REP005"],
        )
        assert rule_ids(findings) == ["REP005"]
        assert "ValueError" in findings[0].message

    def test_taxonomy_raise_passes(self, lint):
        findings = lint(
            {
                "service/api.py": """\
                from repro.errors import ConfigurationError

                def validate(n):
                    if n < 0:
                        raise ConfigurationError(f"bad {n}")
                    try:
                        return 1 / n
                    except ZeroDivisionError:
                        raise
                """
            },
            select=["REP005"],
        )
        assert findings == []

    def test_non_wire_files_exempt(self, lint):
        findings = lint(
            {
                "service/cache.py": """\
                def validate(n):
                    if n < 0:
                        raise ValueError(f"bad {n}")
                """
            },
            select=["REP005"],
        )
        assert findings == []


class TestPicklablePoolREP007:
    def test_lambda_submission_flagged(self, lint):
        findings = lint(
            {
                "parallel/executor.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def fan_out(items):
                    with ProcessPoolExecutor() as pool:
                        return [pool.submit(lambda: item) for item in items]
                """
            },
            select=["REP007"],
        )
        assert rule_ids(findings) == ["REP007"]
        assert "lambda" in findings[0].message

    def test_nested_function_flagged(self, lint):
        findings = lint(
            {
                "parallel/executor.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def fan_out(items):
                    def work(item):
                        return item * 2

                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(work, items))
                """
            },
            select=["REP007"],
        )
        assert rule_ids(findings) == ["REP007"]
        assert "'work'" in findings[0].message

    def test_lock_argument_flagged_direct_and_via_name(self, lint):
        findings = lint(
            {
                "parallel/executor.py": """\
                import threading
                from concurrent.futures import ProcessPoolExecutor

                from repro.parallel.worker import run_cell

                shared = threading.Lock()

                def fan_out(specs):
                    with ProcessPoolExecutor() as pool:
                        pool.submit(run_cell, threading.Lock())
                        pool.submit(run_cell, shared)
                """
            },
            select=["REP007"],
        )
        assert rule_ids(findings) == ["REP007", "REP007"]
        messages = " ".join(f.message for f in findings)
        assert "threading.Lock" in messages
        assert "'shared'" in messages

    def test_tracer_argument_flagged(self, lint):
        findings = lint(
            {
                "parallel/executor.py": """\
                from concurrent.futures import ProcessPoolExecutor

                from repro import obs
                from repro.parallel.worker import run_cell

                def fan_out(spec):
                    with ProcessPoolExecutor() as pool:
                        return pool.submit(run_cell, spec, obs.get_tracer())
                """
            },
            select=["REP007"],
        )
        assert rule_ids(findings) == ["REP007"]
        assert "get_tracer" in findings[0].message

    def test_module_level_callable_with_plain_specs_passes(self, lint):
        findings = lint(
            {
                "parallel/executor.py": """\
                from concurrent.futures import ProcessPoolExecutor

                from repro.parallel.worker import run_cell

                def fan_out(specs):
                    with ProcessPoolExecutor() as pool:
                        futures = [pool.submit(run_cell, s) for s in specs]
                    return [f.result(timeout=600.0) for f in futures]
                """
            },
            select=["REP007"],
        )
        assert findings == []

    def test_rule_only_applies_to_parallel_layer(self, lint):
        findings = lint(
            {
                "service/workers.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def fan_out(items):
                    with ProcessPoolExecutor() as pool:
                        return [pool.submit(lambda: item) for item in items]
                """
            },
            select=["REP007"],
        )
        assert findings == []


class TestBroadExceptREP006:
    def test_uncommented_broad_catch_flagged(self, lint):
        findings = lint(
            {
                "service/pipe.py": """\
                def swallow(fn):
                    try:
                        return fn()
                    except Exception:
                        return None
                """
            },
            select=["REP006"],
        )
        assert rule_ids(findings) == ["REP006"]

    def test_justified_or_narrow_catches_pass(self, lint):
        findings = lint(
            {
                "service/pipe.py": """\
                def swallow(fn):
                    try:
                        return fn()
                    except KeyError:
                        return None
                    except Exception:  # degrade: every failure means miss
                        return None
                """
            },
            select=["REP006"],
        )
        assert findings == []

    def test_bare_and_tuple_forms_are_broad(self, lint):
        findings = lint(
            {
                "service/pipe.py": """\
                def swallow(fn):
                    try:
                        return fn()
                    except (ValueError, BaseException):
                        return None
                """
            },
            select=["REP006"],
        )
        assert rule_ids(findings) == ["REP006"]


class TestTierPurityREP008:
    def test_engine_imports_in_analytic_tier(self, lint):
        findings = lint(
            {
                "analytic/model.py": """\
                import repro.simmachine.engine
                from repro.simmachine.engine import Machine
                from repro.simmachine import engine
                from ..simmachine.engine import Machine as M
                from ..simmachine import engine as eng
                """
            },
            select=["REP008"],
        )
        assert rule_ids(findings) == ["REP008"] * 5

    def test_allowed_simmachine_imports(self, lint):
        findings = lint(
            {
                "analytic/model.py": """\
                from repro.simmachine.machine import MachineConfig
                from repro.simmachine.memory import MemoryHierarchy
                from repro.simmachine import machine
                """
            },
            select=["REP008"],
        )
        assert findings == []

    def test_engine_imports_outside_analytic_are_fine(self, lint):
        findings = lint(
            {
                "instrument/runner.py": """\
                from repro.simmachine.engine import Machine
                """
            },
            select=["REP008"],
        )
        assert findings == []

    def test_real_analytic_package_is_clean(self):
        import os

        from repro import analytic
        from repro.analysis import analyze_paths, select_rules

        pkg_dir = os.path.dirname(analytic.__file__)
        src_root = os.path.dirname(os.path.dirname(pkg_dir))
        findings = analyze_paths(
            [pkg_dir], rules=select_rules(["REP008"]), root=src_root
        )
        assert findings == []


class TestObsDisciplineREP009:
    def test_spans_and_profile_imports_on_hot_path(self, lint):
        findings = lint(
            {
                "simmachine/engine.py": """\
                import repro.obs.profile
                from repro.obs import profile
                from repro.obs.profile import SamplingProfiler
                from ..obs import profile as prof
                from repro import obs

                def run_all(self):
                    with obs.span("engine.step"):
                        pass
                """
            },
            select=["REP009"],
        )
        assert rule_ids(findings) == ["REP009"] * 5

    def test_memory_is_also_hot(self, lint):
        findings = lint(
            {
                "simmachine/memory.py": """\
                from repro.obs.tracing import span

                def touch(self):
                    with span("mem.touch"):
                        pass
                """
            },
            select=["REP009"],
        )
        assert rule_ids(findings) == ["REP009"]

    def test_allowed_obs_uses_pass(self, lint):
        # Logging and counters are fine; so is obs elsewhere in simmachine.
        findings = lint(
            {
                "simmachine/engine.py": """\
                from repro.obs.logging import get_logger
                from repro import obs

                def run_all(self):
                    obs.counter("events").inc()
                """,
                "simmachine/process.py": """\
                from repro import obs

                def run(self):
                    with obs.span("sim.run"):
                        pass
                """,
            },
            select=["REP009"],
        )
        assert findings == []

    def test_suppression_comment_is_honoured(self, lint):
        findings = lint(
            {
                "simmachine/engine.py": """\
                from repro.obs import profile  # repro: ignore[REP009] bench seam
                """
            },
            select=["REP009"],
        )
        assert findings == []

    def test_real_hot_path_is_clean(self):
        import os

        from repro import simmachine
        from repro.analysis import analyze_paths, select_rules

        pkg_dir = os.path.dirname(simmachine.__file__)
        src_root = os.path.dirname(os.path.dirname(pkg_dir))
        findings = analyze_paths(
            [pkg_dir], rules=select_rules(["REP009"]), root=src_root
        )
        assert findings == []


class TestAwaitUnderSyncLockREP011:
    def test_await_under_sync_lock_fires(self, lint):
        findings = lint(
            {
                "service/front.py": """\
                async def handler(self):
                    with self._lock:
                        await self.flush()
                """
            },
            select=["REP011"],
        )
        assert rule_ids(findings) == ["REP011"]

    def test_async_with_asyncio_lock_is_fine(self, lint):
        findings = lint(
            {
                "service/front.py": """\
                async def handler(self):
                    async with self._lock:
                        await self.flush()
                """
            },
            select=["REP011"],
        )
        assert findings == []

    def test_threading_lock_constructor_in_with_fires(self, lint):
        findings = lint(
            {
                "service/front.py": """\
                import threading

                async def handler(self):
                    with threading.Lock():
                        await self.flush()
                """
            },
            select=["REP011"],
        )
        assert rule_ids(findings) == ["REP011"]

    def test_non_lock_context_manager_is_fine(self, lint):
        findings = lint(
            {
                "service/front.py": """\
                async def handler(self, path):
                    with self.session() as s:
                        await s.flush()
                """
            },
            select=["REP011"],
        )
        assert findings == []

    def test_with_in_nested_sync_def_does_not_span_await(self, lint):
        findings = lint(
            {
                "service/front.py": """\
                def outer(self):
                    with self._lock:
                        async def inner():
                            await flush()
                        return inner
                """
            },
            select=["REP011"],
        )
        # The `with` belongs to the sync outer function; by the time
        # `inner` awaits, outer has returned and the lock is released.
        assert findings == []

    def test_outside_service_is_ignored(self, lint):
        findings = lint(
            {
                "parallel/pool.py": """\
                async def handler(self):
                    with self._lock:
                        await self.flush()
                """
            },
            select=["REP011"],
        )
        assert findings == []


class TestBlockingInAsyncREP012:
    def test_time_sleep_in_async_def_fires(self, lint):
        findings = lint(
            {
                "service/front.py": """\
                import time

                async def handler(self):
                    time.sleep(0.1)
                """
            },
            select=["REP012"],
        )
        assert rule_ids(findings) == ["REP012"]

    def test_socket_and_sqlite_and_open_fire(self, lint):
        findings = lint(
            {
                "service/front.py": """\
                import socket
                import sqlite3

                async def handler(self, path):
                    sock = socket.create_connection(("h", 1))
                    db = sqlite3.connect(path)
                    with open(path) as fh:
                        return fh.read()
                """
            },
            select=["REP012"],
        )
        assert rule_ids(findings) == ["REP012"] * 3

    def test_run_in_executor_handoff_is_fine(self, lint):
        findings = lint(
            {
                "service/front.py": """\
                import asyncio

                async def handler(self, loop, shard_id):
                    await loop.run_in_executor(None, self.respawn, shard_id)
                    await asyncio.to_thread(self.manager.respawn, shard_id)
                """
            },
            select=["REP012"],
        )
        assert findings == []

    def test_sync_def_in_service_is_fine(self, lint):
        findings = lint(
            {
                "service/client.py": """\
                import time

                def retry(self):
                    time.sleep(0.5)
                """
            },
            select=["REP012"],
        )
        assert findings == []

    def test_asyncio_sleep_is_fine(self, lint):
        findings = lint(
            {
                "service/front.py": """\
                import asyncio

                async def handler(self):
                    await asyncio.sleep(0.1)
                """
            },
            select=["REP012"],
        )
        assert findings == []


class TestUnretainedTaskREP013:
    def test_discarded_create_task_fires(self, lint):
        findings = lint(
            {
                "service/front.py": """\
                import asyncio

                async def handler(self):
                    asyncio.create_task(self.flush())
                """
            },
            select=["REP013"],
        )
        assert rule_ids(findings) == ["REP013"]

    def test_discarded_ensure_future_fires(self, lint):
        findings = lint(
            {
                "service/front.py": """\
                import asyncio

                async def handler(self):
                    asyncio.ensure_future(self.flush())
                """
            },
            select=["REP013"],
        )
        assert rule_ids(findings) == ["REP013"]

    def test_retained_task_is_fine(self, lint):
        findings = lint(
            {
                "service/front.py": """\
                import asyncio

                async def handler(self):
                    task = asyncio.create_task(self.flush())
                    self._tasks.add(task)
                    await task
                """
            },
            select=["REP013"],
        )
        assert findings == []

    def test_awaited_inline_is_fine(self, lint):
        findings = lint(
            {
                "service/front.py": """\
                import asyncio

                async def handler(self):
                    await asyncio.create_task(self.flush())
                """
            },
            select=["REP013"],
        )
        assert findings == []

    def test_loop_method_spelling_fires(self, lint):
        findings = lint(
            {
                "service/front.py": """\
                async def handler(self, loop):
                    loop.create_task(self.flush())
                """
            },
            select=["REP013"],
        )
        assert rule_ids(findings) == ["REP013"]
