"""``repro serve`` simulating cold cells on its worker processes.

Where a cell is simulated is a deployment knob, not a semantics knob: a
cell's runs are independently seeded (REP001), so the default executor
(``--workers 2`` worker processes) and ``executor="inline"`` must answer
every request of a cold burst with identical floats. A saturated
worker queue sheds typed errors whose ``retry_after`` client retries
honour.
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
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.instrument import MeasurementConfig
from repro.service import (
    LineClient,
    PredictRequest,
    PredictionService,
    RetryPolicy,
)
from repro.service.api import report_to_dict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

#: The cold protocol: 18 distinct cells, each asked once.
COLD_CELLS = [
    (benchmark, problem_class, nprocs)
    for benchmark in ("BT", "SP")
    for problem_class in ("S", "W")
    for nprocs in (1, 4, 9)
] + [("LU", problem_class, nprocs) for problem_class in ("S", "W")
     for nprocs in (2, 4, 8)]
REPETITIONS = 4
CLIENTS = 4


def _request(cell) -> dict:
    benchmark, problem_class, nprocs = cell
    return {
        "benchmark": benchmark,
        "problem_class": problem_class,
        "nprocs": nprocs,
    }


def _answer(response: dict) -> tuple:
    return (response["actual"], response["predictions"])


class _Server:
    """``repro serve --port 0`` in a child process."""

    def __init__(self, tmp_path, *args: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        self.log = tmp_path / "serve.log"
        self._log = open(self.log, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=self._log,
            env=env,
            cwd=REPO_ROOT,
        )
        deadline = time.monotonic() + 60
        while True:
            match = re.search(
                r"serve\.listening\b.*\bport=(\d+)", self.log.read_text()
            )
            if match:
                self.port = int(match.group(1))
                return
            assert self.process.poll() is None, self.log.read_text()
            assert time.monotonic() < deadline, "server never listened"
            time.sleep(0.05)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self._log.close()


@pytest.mark.timeout(300)
def test_worker_processes_answer_the_cold_protocol_like_inline(tmp_path):
    server = _Server(
        tmp_path,
        "--workers", "2",
        "--repetitions", str(REPETITIONS),
        "--cache-dir", str(tmp_path / "memo"),
    )
    try:
        local = threading.local()
        opened: list = []

        def ask(cell):
            if not hasattr(local, "client"):
                local.client = LineClient("127.0.0.1", server.port)
                opened.append(local.client)
            return local.client.predict(_request(cell))

        with ThreadPoolExecutor(CLIENTS) as clients:
            served = list(clients.map(ask, COLD_CELLS))
        for client in opened:
            client.close()
        with LineClient("127.0.0.1", server.port) as client:
            stats = client.stats()["stats"]
    finally:
        server.stop()
    assert all(response["ok"] for response in served), served
    assert stats["simulations"] > 0
    assert stats["worker_respawns"] == 0

    with PredictionService(
        measurement=MeasurementConfig(repetitions=REPETITIONS, warmup=2),
        executor="inline",
    ) as service:
        inline = [
            report_to_dict(request, service.predict(request))
            for request in (PredictRequest(*cell) for cell in COLD_CELLS)
        ]
        inline_stats = service.stats()
    # Each cell's simulations are its memo stores, wherever it ran.
    assert stats["simulations"] == inline_stats["simulations"]
    # JSON round-trips floats exactly, so equal answers are equal bits.
    assert [_answer(r) for r in served] == [
        _answer(json.loads(json.dumps(r))) for r in inline
    ]


@pytest.mark.timeout(180)
def test_admission_pressure_recovers_via_client_retry(tmp_path):
    """Saturating one worker sheds typed errors that client retries absorb."""
    server = _Server(
        tmp_path,
        "--workers", "1",
        "--queue-depth", "1",
        "--repetitions", "2",
        "--cache-dir", str(tmp_path / "memo"),
    )
    try:
        responses = {}
        lock = threading.Lock()

        def client(nprocs):
            with LineClient(
                "127.0.0.1",
                server.port,
                retry=RetryPolicy(max_attempts=20, base_delay=0.05),
            ) as c:
                response = c.predict(_request(("BT", "S", nprocs)))
            with lock:
                responses[nprocs] = response

        threads = [
            threading.Thread(target=client, args=(nprocs,), daemon=True)
            for nprocs in (1, 4, 9, 16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "client deadlock"
        with LineClient("127.0.0.1", server.port) as client:
            stats = client.stats()["stats"]
    finally:
        server.stop()
    assert sorted(responses) == [1, 4, 9, 16]
    assert all(r["ok"] for r in responses.values()), responses
    assert stats["rejected"] >= 1, "admission control never engaged"
