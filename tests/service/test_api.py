"""Wire front-ends: the line handler, JSON-lines loop, TCP socket."""

import io
import json
import socket
import threading

import pytest

from repro.instrument import MeasurementConfig
from repro.service import PredictionService, serve_jsonl, serve_socket
from repro.service.api import handle_line

MEASUREMENT = MeasurementConfig(repetitions=2, warmup=1)


def make_service():
    return PredictionService(
        measurement=MEASUREMENT, executor="inline"
    )


class TestHandleLine:
    def test_blank_line_owes_no_response(self):
        with make_service() as service:
            assert handle_line(service, "   \n") is None

    def test_single_request(self):
        with make_service() as service:
            response = json.loads(
                handle_line(
                    service,
                    '{"benchmark": "BT", "problem_class": "S", "nprocs": 4}',
                )
            )
            assert response["ok"] is True
            assert response["errors_percent"]

    def test_array_is_one_batched_response(self):
        with make_service() as service:
            line = json.dumps(
                [
                    {"benchmark": "BT", "problem_class": "S", "nprocs": 4},
                    {"benchmark": "BT", "problem_class": "S", "nprocs": 4,
                     "chain_length": 3},
                    {"benchmark": "BT", "problem_class": "S", "nprocs": 4,
                     "chain_length": 99},
                ]
            )
            response = json.loads(handle_line(service, line))
            assert response["ok"] is True
            results = response["results"]
            assert len(results) == 3
            assert results[0]["ok"] and results[1]["ok"]
            assert results[2]["ok"] is False  # chain longer than the flow

    def test_invalid_json_and_bad_shapes(self):
        with make_service() as service:
            assert json.loads(handle_line(service, "not json"))["ok"] is False
            assert json.loads(handle_line(service, '"just a string"'))["ok"] is False
            bad = json.loads(
                handle_line(service, '{"benchmark": "BT", "bogus": 1}')
            )
            assert bad["ok"] is False and "unknown request fields" in bad["error"]

    @pytest.mark.parametrize("literal", ["1e400", "4.5", "true"])
    @pytest.mark.parametrize("field", ["nprocs", "chain_length"])
    def test_overflowing_number_is_a_typed_error(self, field, literal):
        """No number that is not an exact integer is rounded into a cell."""
        fields = {"nprocs": "4", "chain_length": "2", field: literal}
        line = (
            '{"benchmark": "BT", "problem_class": "S", '
            f'"nprocs": {fields["nprocs"]}, '
            f'"chain_length": {fields["chain_length"]}}}'
        )
        with make_service() as service:
            single = json.loads(handle_line(service, line))
            batch = json.loads(handle_line(service, f"[{line}]"))
            assert service.stats()["requests"] == 0
        (item,) = batch["results"]
        for reply in (single, item):
            assert reply["ok"] is False
            assert reply["error_type"] == "ServiceError"
            assert reply["error"].startswith("malformed request:")

    def test_stats_command(self):
        with make_service() as service:
            response = json.loads(handle_line(service, '{"cmd": "stats"}'))
            assert response["ok"] is True
            assert "cache_hit_ratio" in response["stats"]

    def test_correlation_id_is_echoed(self):
        with make_service() as service:
            response = json.loads(
                handle_line(
                    service,
                    '{"benchmark": "BT", "problem_class": "S", "nprocs": 4,'
                    ' "id": "req-7"}',
                )
            )
            assert response["ok"] is True
            assert response["id"] == "req-7"

    def test_correlation_id_echoed_on_errors_too(self):
        with make_service() as service:
            response = json.loads(
                handle_line(service, '{"benchmark": "BT", "id": 13}')
            )
            assert response["ok"] is False
            assert response["id"] == 13

    def test_batch_items_keep_their_ids(self):
        with make_service() as service:
            line = json.dumps(
                [
                    {"benchmark": "BT", "problem_class": "S", "nprocs": 4,
                     "id": "a"},
                    {"benchmark": "BT", "bogus": 1, "id": "b"},
                    {"benchmark": "BT", "problem_class": "S", "nprocs": 4},
                ]
            )
            results = json.loads(handle_line(service, line))["results"]
            assert results[0]["ok"] and results[0]["id"] == "a"
            assert not results[1]["ok"] and results[1]["id"] == "b"
            assert "id" not in results[2]

    def test_correlation_id_becomes_the_trace_id(self):
        from repro import obs

        with make_service() as service:
            handle_line(
                service,
                '{"benchmark": "BT", "problem_class": "S", "nprocs": 4,'
                ' "id": "trace-me"}',
            )
        names = {
            s.name for s in obs.get_tracer().spans()
            if s.trace_id == "trace-me"
        }
        assert "service.predict" in names


class TestMetricsCommand:
    def _metrics(self, service):
        # Issue one real prediction first so every subsystem has recorded.
        handle_line(
            service, '{"benchmark": "BT", "problem_class": "S", "nprocs": 4}'
        )
        return json.loads(handle_line(service, '{"cmd": "metrics"}'))

    def test_snapshot_covers_every_layer(self):
        with make_service() as service:
            self._assert_every_layer(self._metrics(service))

    def test_snapshot_covers_every_layer_from_worker_processes(self):
        # The simulator runs in worker processes: its counters and span
        # histograms arrive as merged deltas.
        with PredictionService(
            measurement=MEASUREMENT
        ) as service:
            self._assert_every_layer(self._metrics(service))

    def _assert_every_layer(self, response):
        assert response["ok"] is True
        snap = response["metrics"]
        assert snap["service.requests"] == 1  # request counts
        assert "service.cache_hit_ratio" in snap  # cache hit ratio
        assert "service.queue_depth.high_water" in snap  # queue high-water
        assert snap["sim_events"] > 0  # simulator event counters
        assert snap["sim_messages"] > 0
        assert snap["sim_noise_draws"] > 0
        # Per-stage span histograms:
        for stage in ("service.predict", "measure.chain", "app.run"):
            assert snap[f"span_seconds{{name={stage}}}"]["count"] >= 1

    def test_prometheus_exposition_included(self):
        with make_service() as service:
            response = self._metrics(service)
        text = response["prometheus"]
        assert "# TYPE service_requests_total counter" in text
        assert "service_requests_total 1" in text
        assert "sim_events_total" in text
        assert "span_seconds_bucket" in text

    def test_bare_metrics_line_shorthand(self):
        with make_service() as service:
            response = json.loads(handle_line(service, "metrics\n"))
            assert response["ok"] is True
            assert "prometheus" in response


class TestServeJsonl:
    def test_stream_roundtrip_returns_stats(self):
        lines = [
            '{"benchmark": "BT", "problem_class": "S", "nprocs": 4}',
            "",
            '{"benchmark": "bt", "problem_class": "s", "nprocs": 4}',
        ]
        out = io.StringIO()
        with make_service() as service:
            stats = serve_jsonl(service, lines, out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(responses) == 2  # blank line produced no response
        assert all(r["ok"] for r in responses)
        assert stats["requests"] == 2
        assert stats["l1_hits"] == 1  # case-normalized repeat hit the cache

    def test_metrics_in_a_jsonl_session(self):
        lines = [
            '{"benchmark": "BT", "problem_class": "S", "nprocs": 4, "id": "x"}',
            '{"benchmark": "BT", "problem_class": "S", "nprocs": 4}',
            '{"cmd": "metrics"}',
        ]
        out = io.StringIO()
        with make_service() as service:
            serve_jsonl(service, lines, out)
        first, second, metrics = [
            json.loads(line) for line in out.getvalue().splitlines()
        ]
        assert first["id"] == "x" and "id" not in second
        snap = metrics["metrics"]
        assert snap["service.requests"] == 2
        assert snap["service.cache_hit_ratio"] == 0.5  # repeat hit L1


class TestServeSocket:
    def test_tcp_line_protocol(self):
        service = make_service()
        ready = threading.Event()
        bound: list = []
        control: list = []
        server_thread = threading.Thread(
            target=serve_socket,
            args=(service,),
            kwargs={"ready": ready, "bound": bound, "control": control},
            daemon=True,
        )
        server_thread.start()
        assert ready.wait(timeout=10)
        host, port = bound[0]
        try:
            with socket.create_connection((host, port), timeout=10) as conn:
                conn.sendall(
                    b'{"benchmark": "BT", "problem_class": "S", "nprocs": 4}\n'
                )
                response = json.loads(conn.makefile().readline())
                assert response["ok"] is True
                assert response["best"]
        finally:
            control[0].shutdown()
            server_thread.join(timeout=10)
            service.close()
        assert not server_thread.is_alive()

    def test_tcp_metrics_command_end_to_end(self):
        service = make_service()
        ready = threading.Event()
        bound: list = []
        control: list = []
        server_thread = threading.Thread(
            target=serve_socket,
            args=(service,),
            kwargs={"ready": ready, "bound": bound, "control": control},
            daemon=True,
        )
        server_thread.start()
        assert ready.wait(timeout=10)
        host, port = bound[0]
        try:
            with socket.create_connection((host, port), timeout=10) as conn:
                reader = conn.makefile()
                conn.sendall(
                    b'{"benchmark": "BT", "problem_class": "S", "nprocs": 4,'
                    b' "id": "tcp-1"}\n'
                )
                prediction = json.loads(reader.readline())
                assert prediction["ok"] and prediction["id"] == "tcp-1"
                conn.sendall(b'{"cmd": "metrics"}\n')
                response = json.loads(reader.readline())
        finally:
            control[0].shutdown()
            server_thread.join(timeout=10)
            service.close()
        assert response["ok"] is True
        snap = response["metrics"]
        assert snap["service.requests"] == 1
        assert "service.cache_hit_ratio" in snap
        assert "service.queue_depth.high_water" in snap
        assert snap["sim_events"] > 0
        assert snap["span_seconds{name=service.predict}"]["count"] == 1
        assert "service_requests_total 1" in response["prometheus"]
