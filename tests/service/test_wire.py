"""The wire path of one server: TCP, ordering, array lines, retry,
reconnection.

Runs :func:`~repro.service.serve_socket` over a service that runs the
synthetic cell function inline, and talks to it with
:class:`~repro.service.LineClient` and raw sockets.
"""

from __future__ import annotations

import functools
import json
import os
import socket
import threading
import time

import pytest

from repro import faults, obs
from repro.faults import FaultPlan, FaultSpec
from repro.service import LineClient, RetryPolicy
from tests.chaos.harness import serving, synthetic_execute


def gated_synthetic(gate, spec):
    """``synthetic_execute`` once the ``gate`` file exists."""
    deadline = time.monotonic() + 30
    while not os.path.exists(gate):
        assert time.monotonic() < deadline, "the gate never opened"
        time.sleep(0.01)
    return synthetic_execute(spec)


def _request(nprocs=4, chain_length=2, benchmark="BT", **extra):
    payload = {
        "benchmark": benchmark,
        "problem_class": "S",
        "nprocs": nprocs,
        "chain_length": chain_length,
    }
    payload.update(extra)
    return payload


@pytest.fixture
def server():
    with serving() as (service, address):
        with LineClient(*address) as client:
            yield service, client


def test_array_reassembles_in_request_order(server):
    _, client = server
    items = [
        _request(nprocs, benchmark=benchmark, id=f"b-{i}")
        for i, (benchmark, nprocs) in enumerate(
            [("BT", 1), ("SP", 4), ("LU", 8), ("BT", 16), ("SP", 25)]
        )
    ]
    response = client.request(items)
    assert response["ok"]
    results = response["results"]
    assert [r["id"] for r in results] == [item["id"] for item in items]
    for item, result in zip(items, results):
        assert result["ok"]
        assert result["request"]["benchmark"] == item["benchmark"]
        assert result["request"]["nprocs"] == item["nprocs"]
    # A malformed item degrades that slot only.
    mixed = client.request([_request(id="good"), 17])
    assert mixed["results"][0]["ok"]
    assert not mixed["results"][1]["ok"]
    assert mixed["results"][1]["error_type"] == "ReproError"


def test_pipelined_lines_are_answered_in_order(server):
    """Interleaved hits and misses on one connection stay ordered."""
    _, client = server
    assert client.predict(_request(nprocs=1, id="warm"))["ok"]
    with socket.create_connection(client.address, timeout=30) as sock:
        stream = sock.makefile("rwb")
        lines = [
            json.dumps(_request(nprocs=36, id="cold-a")),
            json.dumps(_request(nprocs=1, id="warm")),
            json.dumps(_request(nprocs=49, id="cold-b")),
        ]
        stream.write(("\n".join(lines) + "\n").encode())
        stream.flush()
        answers = [json.loads(stream.readline()) for _ in lines]
    assert [a["id"] for a in answers] == ["cold-a", "warm", "cold-b"]
    assert all(a["ok"] for a in answers)


def test_client_retry_honours_retry_after_and_recovers(tmp_path):
    gate = str(tmp_path / "gate")
    with serving(
        execute=functools.partial(gated_synthetic, gate),
        queue_depth=1,
    ) as (service, address):
        blocked = LineClient(*address)
        occupy = threading.Thread(
            target=lambda: blocked.request(_request(nprocs=4))
        )
        occupy.start()
        deadline = time.monotonic() + 30
        while service.pool.outstanding == 0:
            assert time.monotonic() < deadline, "the first cell never started"
            time.sleep(0.01)
        with LineClient(*address) as probe:
            shed = probe.request(_request(nprocs=9))
        assert shed["error_type"] == "ServiceSaturatedError"
        hint = shed["retry_after"]
        assert hint > 0
        sleeps = []

        def sleep_and_release(delay):
            sleeps.append(delay)
            open(gate, "w").close()
            occupy.join(timeout=30)

        retrying = LineClient(
            *address,
            retry=RetryPolicy(max_attempts=6, base_delay=0.01),
            sleep=sleep_and_release,
        )
        try:
            response = retrying.predict(_request(nprocs=9))
        finally:
            retrying.close()
            blocked.close()
        stats = service.stats()
    assert response["ok"]
    assert sleeps and sleeps[0] >= hint  # the shed hint, not the base delay
    assert stats["rejected"] == 2


def test_client_reconnects_once_after_a_dropped_connection(server):
    """The server drops the connection instead of answering (the
    ``api.disconnect`` site); ``request`` reconnects and resends once."""
    _, client = server
    drop_once = FaultPlan(
        specs=(FaultSpec(site="api.disconnect", every_nth=1, max_fires=1),)
    )
    with faults.active(drop_once):
        response = client.request(_request(id="resent"))
    assert response["ok"] and response["id"] == "resent"
    assert obs.get_registry().counter("client_disconnects").value == 1


@pytest.mark.parametrize("command", ["slo", "STATS", 7, None])
def test_unknown_command_is_a_typed_error_naming_it(server, command):
    """A ``cmd`` the protocol does not know gets one ``ok: false`` line
    naming it and the known commands; the connection keeps serving."""
    _, client = server
    response = client.request({"cmd": command})
    assert response["ok"] is False
    assert response["error_type"] == "ServiceError"
    assert f"unknown command {command!r}" in response["error"]
    assert "['counters', 'metrics', 'stats']" in response["error"]
    assert client.stats()["ok"]
