"""Command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_arguments(self):
        args = build_parser().parse_args(["run", "table3b", "--seed", "5"])
        assert args.experiment == "table3b"
        assert args.seed == 5

    def test_predict_arguments(self):
        args = build_parser().parse_args(["predict", "BT", "W", "9", "-L", "4"])
        assert args.chain_length == 4
        assert args.nprocs == 9

    def test_lowercase_arguments_normalize(self):
        args = build_parser().parse_args(["predict", "bt", "w", "9"])
        assert args.benchmark == "BT"
        assert args.problem_class == "W"
        args = build_parser().parse_args(["profile", "lu", "a", "8"])
        assert args.benchmark == "LU"
        assert args.problem_class == "A"
        args = build_parser().parse_args(["campaign", "sp", "--classes", "s,w"])
        assert args.benchmark == "SP"

    @pytest.mark.parametrize(
        "argv",
        [["predict", "CG", "S", "4"], ["campaign", "cg"]],
        ids=["predict", "campaign"],
    )
    def test_unregistered_benchmark_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option", [["--shards", "2"], ["--admission-limit", "1"]]
    )
    def test_serve_has_one_server_mode(self, option, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", *option])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_mixed_case_rejected_only_when_invalid(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict", "xx", "S", "4"])
        err = capsys.readouterr().err
        # The error message offers canonical uppercase choices, no dupes.
        assert err.count("'BT'") == 1


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("table2b", "table6a", "table8c", "scaling"):
            assert exp_id in out

    def test_machine(self, capsys):
        assert main(["machine"]) == 0
        out = capsys.readouterr().out
        assert "ibm-sp-argonne" in out
        assert "120 MHz" in out

    def test_predict(self, capsys):
        assert main(["predict", "BT", "S", "4", "-L", "2"]) == 0
        out = capsys.readouterr().out
        assert "Actual:" in out
        assert "Summation:" in out
        assert "Best predictor:" in out

    def test_run_dataset_table(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "12 x 12 x 12" in out
        assert "paper note" in out

    def test_run_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "table99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_small_table_with_low_repetitions(self, capsys):
        assert main(["run", "table2b", "--repetitions", "2"]) == 0
        out = capsys.readouterr().out
        assert "Coupling: 2 kernels" in out
        assert "Actual" in out

    def test_profile(self, capsys):
        assert main(["profile", "BT", "S", "4"]) == 0
        out = capsys.readouterr().out
        assert "X_SOLVE" in out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestServeCommand:
    def test_jsonl_session_over_stdin(self, capsys, monkeypatch):
        requests = "\n".join(
            [
                '{"benchmark": "bt", "problem_class": "s", "nprocs": 4}',
                '{"benchmark": "BT", "problem_class": "S", "nprocs": 4}',
                '{"cmd": "stats"}',
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(requests))
        assert main(
            ["serve", "--repetitions", "2", "--workers", "1"]
        ) == 0
        captured = capsys.readouterr()
        responses = [json.loads(line) for line in captured.out.splitlines()]
        assert len(responses) == 3
        assert all(r["ok"] for r in responses)
        assert responses[0]["request"]["benchmark"] == "BT"  # normalized
        assert responses[2]["stats"]["l1_hits"] == 1  # repeat hit the cache
        # Shutdown logs structured lines and prints the stats snapshot.
        assert "serve.closed requests=2" in captured.err
        assert '"requests"' in captured.err

    def test_serve_persists_measurements(
        self, capsys, caplog, monkeypatch, tmp_path
    ):
        cache = tmp_path / "memo"
        line = '{"benchmark": "BT", "problem_class": "S", "nprocs": 4}\n'
        monkeypatch.setattr("sys.stdin", io.StringIO(line))
        assert main(
            ["serve", "--db", str(tmp_path / "serve.sqlite"),
             "--cache-dir", str(cache), "--repetitions", "2",
             "--workers", "1"]
        ) == 0
        capsys.readouterr()
        # --db is accepted and ignored; the memo directory holds every
        # measurement, the cell record and the chain length's archive.
        ignored = [
            r for r in caplog.records
            if r.getMessage().startswith("serve.db_ignored")
        ]
        assert len(ignored) == 1
        assert not (tmp_path / "serve.sqlite").exists()
        kinds = sorted(
            json.loads(path.read_text(encoding="utf-8"))["key"]["kind"]
            for path in cache.glob("*/*.json")
        )
        assert kinds == (
            ["application", "archive", "cell"] + ["measurement"] * 13
        )


class TestReportCommand:
    def test_report_writes_markdown(self, capsys, tmp_path, monkeypatch):
        # Restrict to the cheap dataset tables via the generator directly;
        # the CLI path is exercised with a tiny repetition count.
        from repro.experiments import ExperimentPipeline, ExperimentSettings
        from repro.experiments.reportgen import generate_markdown
        from repro.instrument import MeasurementConfig

        text = generate_markdown(
            ExperimentPipeline(
                ExperimentSettings(
                    measurement=MeasurementConfig(repetitions=2, warmup=1)
                )
            ),
            experiment_ids=["table1", "table5", "table7"],
        )
        assert text.startswith("# EXPERIMENTS")
        assert "## table1" in text and "## table7" in text
        assert "12 x 12 x 12" in text


class TestTraceCommand:
    def test_trace_writes_valid_chrome_trace(self, capsys, tmp_path):
        from repro.obs import validate_chrome_trace

        out_path = tmp_path / "timeline.json"
        assert main(["trace", "BT", "S", "4", "-o", str(out_path)]) == 0
        assert "wrote" in capsys.readouterr().out
        document = json.loads(out_path.read_text())
        validate_chrome_trace(document)
        events = document["traceEvents"]
        # Simulator rank activity (pid 2) and pipeline spans (pid 1).
        assert any(e["pid"] == 2 and e["ph"] == "X" for e in events)
        assert any(
            e["pid"] == 1 and e.get("name") == "app.run" for e in events
        )
        sim_ranks = {e["tid"] for e in events if e["pid"] == 2 and e["ph"] != "M"}
        assert sim_ranks == {0, 1, 2, 3}

    def test_trace_ring_buffer_bound(self, capsys, tmp_path):
        out_path = tmp_path / "timeline.json"
        assert main(
            ["trace", "BT", "S", "4", "-o", str(out_path), "--max-records", "50"]
        ) == 0
        document = json.loads(out_path.read_text())
        sim_events = [
            e for e in document["traceEvents"]
            if e["pid"] == 2 and e["ph"] != "M"
        ]
        assert 0 < len(sim_events) <= 50


class TestMetricsCommand:
    def test_metrics_against_a_live_server(self, capsys):
        import threading

        from repro.instrument import MeasurementConfig
        from repro.service import PredictionService, serve_socket

        service = PredictionService(
            measurement=MeasurementConfig(repetitions=2, warmup=1),
            executor="inline",
        )
        ready = threading.Event()
        bound: list = []
        control: list = []
        thread = threading.Thread(
            target=serve_socket,
            args=(service,),
            kwargs={"ready": ready, "bound": bound, "control": control},
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=10)
        port = str(bound[0][1])
        try:
            assert main(["metrics", "--port", port]) == 0
            prometheus = capsys.readouterr().out
            assert "# TYPE service_requests_total counter" in prometheus
            assert main(["metrics", "--port", port, "--format", "json"]) == 0
            snapshot = json.loads(capsys.readouterr().out)
            assert "service.requests" in snapshot
        finally:
            control[0].shutdown()
            thread.join(timeout=10)
            service.close()

    def test_metrics_unreachable_server_fails_cleanly(self, capsys):
        assert main(["metrics", "--port", "1", "--timeout", "0.5"]) == 1
        assert "error:" in capsys.readouterr().err


class TestProfileRunCommand:
    def test_profile_run_writes_profile_and_exports(self, capsys, tmp_path):
        from repro.obs import validate_chrome_trace
        from repro.obs.profile import ProfileData

        out = tmp_path / "PROFILE.json"
        flame = tmp_path / "profile.folded"
        chrome = tmp_path / "profile-trace.json"
        assert main([
            "profile", "run", "BT", "S", "4",
            "--repetitions", "2", "--interval", "0.002",
            "-o", str(out), "--flamegraph", str(flame),
            "--chrome", str(chrome),
        ]) == 0
        printed = capsys.readouterr().out
        assert "profiled BT/S/4" in printed
        data = ProfileData.from_dict(json.loads(out.read_text()))
        assert sum(data.samples.values()) > 0
        # Collapsed lines are "frame;frame;... count".
        lines = flame.read_text().strip().splitlines()
        assert lines and all(
            line.rsplit(" ", 1)[1].isdigit() for line in lines
        )
        validate_chrome_trace(json.loads(chrome.read_text()))

    def test_profile_report_reads_saved_profile(self, capsys, tmp_path):
        from repro.obs.profile import ProfileData

        data = ProfileData(0.01)
        data.record(("app:main", "app:solve"), ("sim.run:x",), 0.0, 1)
        data.record(("app:main",), (), 0.01, 1)
        data.duration = 0.02
        saved = tmp_path / "saved.json"
        saved.write_text(json.dumps(data.to_dict()))
        assert main(["profile", "report", "--in", str(saved)]) == 0
        printed = capsys.readouterr().out
        assert "app:solve" in printed
        assert "sim.run:x" in printed

    def test_profile_report_without_input_fails(self, capsys):
        assert main(["profile", "report"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_legacy_profile_rejects_bad_triple(self, capsys):
        assert main(["profile", "XX", "S", "4"]) == 1
        assert "error:" in capsys.readouterr().err


class TestTraceCollapsedFormat:
    def test_trace_collapsed_writes_span_stacks(self, capsys, tmp_path):
        out_path = tmp_path / "spans.folded"
        assert main([
            "trace", "BT", "S", "4", "-o", str(out_path),
            "--format", "collapsed",
        ]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines
        # Self-time-weighted span paths, e.g. "app.run;chain.measure 1234".
        assert any("app.run" in line for line in lines)
        for line in lines:
            path, weight = line.rsplit(" ", 1)
            assert path and weight.isdigit()
