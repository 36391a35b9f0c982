"""Integration battery for ``repro serve --shards N``.

The acceptance bar for the sharded tier: a shard count is a deployment
knob, not a semantics knob. The same campaign request set answered by
``--shards 1`` and ``--shards 4`` must be *bit-identical* — consistent
hashing only changes which process simulates a cell, and REP001
determinism makes every process simulate it identically.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.instrument import MeasurementConfig
from repro.service import (
    LineClient,
    ProcessShardManager,
    RetryPolicy,
    make_shard_configs,
)
from tests.chaos.harness import serve_router

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def campaign_requests():
    """A small full-factorial campaign: 2 benchmarks x 2 sizes x 2 chains."""
    lines = []
    for benchmark in ("BT", "SP"):
        for nprocs in (1, 4):
            for chain_length in (2, 3):
                lines.append(
                    json.dumps(
                        {
                            "id": f"{benchmark}-{nprocs}-{chain_length}",
                            "benchmark": benchmark,
                            "problem_class": "S",
                            "nprocs": nprocs,
                            "chain_length": chain_length,
                        }
                    )
                )
    return lines


def _serve_stdin(shard_count: int, lines: list[str]) -> list[str]:
    """Run the real CLI in stdin mode and return its response lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--repetitions",
            "2",
            "--shards",
            str(shard_count),
        ],
        input="\n".join(lines) + "\n",
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    responses = [line for line in proc.stdout.splitlines() if line.strip()]
    assert len(responses) == len(lines), proc.stderr[-2000:]
    return responses


def test_shard_count_is_invisible_bit_identical():
    """--shards 1 and --shards 4 serve byte-for-byte the same answers."""
    lines = campaign_requests()
    single = _serve_stdin(1, lines)
    sharded = _serve_stdin(4, lines)
    assert single == sharded
    for raw in sharded:
        payload = json.loads(raw)
        assert payload["ok"], payload
        assert payload["best"]
        assert payload["tier"] == "simulation"


def test_admission_pressure_recovers_via_client_retry():
    """Saturating one real shard sheds typed errors that retries absorb."""
    configs = make_shard_configs(
        1,
        measurement=MeasurementConfig(repetitions=2, warmup=1, seed=0),
        max_workers=1,
        queue_depth=4,
    )
    with ProcessShardManager(configs) as manager, serve_router(
        manager, admission_limit=1
    ) as (router, (host, port)):
        responses = {}
        lock = threading.Lock()

        def client(seed):
            with LineClient(
                host,
                port,
                retry=RetryPolicy(max_attempts=20, base_delay=0.05),
            ) as c:
                response = c.predict(
                    {
                        "benchmark": "BT",
                        "problem_class": "S",
                        "nprocs": 4,
                        "chain_length": 2,
                        "seed": seed,
                    }
                )
            with lock:
                responses[seed] = response

        threads = [
            threading.Thread(target=client, args=(seed,), daemon=True)
            for seed in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "client deadlock"
        assert sorted(responses) == [0, 1, 2, 3]
        assert all(r["ok"] for r in responses.values())
        front = router.handle_line('{"cmd": "stats"}')
        stats = json.loads(front)["stats"]["frontend"]
        assert stats["shed"] >= 1, "admission control never engaged"


def test_sharded_persistence_is_shared_nothing(tmp_path):
    """Each shard owns a private memo slice; none collide."""
    cache = str(tmp_path / "memo")
    configs = make_shard_configs(
        3,
        cache_dir=cache,
        measurement=MeasurementConfig(repetitions=2, warmup=1, seed=0),
        max_workers=2,
    )
    paths = [c.cache_dir for c in configs]
    assert len(set(paths)) == 3
    with ProcessShardManager(configs) as manager, serve_router(
        manager
    ) as (_, (host, port)):
        with LineClient(host, port) as client:
            for nprocs in (1, 4, 9):
                assert client.predict(
                    {
                        "benchmark": "BT",
                        "problem_class": "S",
                        "nprocs": nprocs,
                        "chain_length": 2,
                    }
                )["ok"]
    # every shard that served a cell persisted into its own slice
    populated = [
        path for path in paths
        if os.path.isdir(path) and any(Path(path).glob("*/*.json"))
    ]
    assert populated, "no shard persisted anything"


@pytest.mark.parametrize("bad", ['{"cmd": "unknown"}', "{broken"])
def test_sharded_stdin_mode_reports_typed_errors(bad):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--shards", "2"],
        input=bad + "\n",
        capture_output=True,
        text=True,
        timeout=180,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout.splitlines()[0])
    assert payload["ok"] is False
    assert payload["error_type"]


def test_sharded_tcp_mode_announces_like_single_process(tmp_path):
    """Both serving modes log ``serve.listening host= port=`` on stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    log_path = tmp_path / "serve.log"
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--shards", "2", "--port", "0", "--repetitions", "2",
            ],
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=log,
            env=env,
            cwd=REPO_ROOT,
        )
    try:
        deadline = time.monotonic() + 60.0
        match = None
        while match is None and proc.poll() is None:
            assert time.monotonic() < deadline, log_path.read_text()
            time.sleep(0.05)
            match = re.search(
                r"serve\.listening\b.*\bport=(\d+)", log_path.read_text()
            )
        assert match is not None, log_path.read_text()
        with LineClient("127.0.0.1", int(match.group(1))) as client:
            response = client.predict(
                {
                    "benchmark": "BT",
                    "problem_class": "S",
                    "nprocs": 4,
                    "chain_length": 2,
                    "id": "announced",
                }
            )
            assert response["ok"] and response["id"] == "announced"
            assert client.stats()["stats"]["frontend"]["live_shards"] == 2
    finally:
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=60) == 0, log_path.read_text()[-2000:]
    assert '"listening"' not in log_path.read_text()
