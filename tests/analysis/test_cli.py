"""``repro lint`` exit codes, reporters, rule selection and suppressions."""

from __future__ import annotations

import ast
import json

import pytest

from repro.analysis.cli import main
from tests.analysis.conftest import write_tree

CLEAN = {
    "service/pipe.py": """\
    def drain(q):
        return q.get(timeout=1.0)
    """
}

VIOLATING = {
    "service/pipe.py": """\
    def drain(q):
        return q.get()
    """
}


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch):
        write_tree(tmp_path, CLEAN)
        monkeypatch.chdir(tmp_path)
        assert main(["."]) == 0

    def test_findings_exit_one(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, VIOLATING)
        monkeypatch.chdir(tmp_path)
        assert main(["."]) == 1
        out = capsys.readouterr().out
        assert "REP003" in out
        assert "service/pipe.py:2" in out
        assert "1 finding(s)" in out

    def test_unknown_rule_is_usage_error(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, CLEAN)
        monkeypatch.chdir(tmp_path)
        assert main([".", "--select", "REP999"]) == 2
        assert "REP999" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["does-not-exist"]) == 2
        assert "does-not-exist" in capsys.readouterr().err

    def test_select_restricts_rules(self, tmp_path, monkeypatch):
        write_tree(tmp_path, VIOLATING)
        monkeypatch.chdir(tmp_path)
        assert main([".", "--select", "REP001"]) == 0

    @pytest.mark.parametrize(
        "option",
        [
            ["--graph", "g.json"],
            ["--graph-only"],
            ["--baseline", "bl.json"],
            ["--update-baseline"],
            ["--rule", "REP001"],
        ],
        ids=lambda option: option[0],
    )
    def test_removed_option_is_usage_error(self, tmp_path, monkeypatch,
                                           option):
        write_tree(tmp_path, CLEAN)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([".", *option])
        assert exc.value.code == 2

    def test_unparseable_file_reports_rep000(
        self, tmp_path, monkeypatch, capsys
    ):
        write_tree(tmp_path, {"broken.py": "def f(:\n"})
        monkeypatch.chdir(tmp_path)
        assert main(["."]) == 1
        assert "REP000" in capsys.readouterr().out


class TestJsonReport:
    def test_json_artifact_shape(self, tmp_path, monkeypatch):
        write_tree(tmp_path, VIOLATING)
        monkeypatch.chdir(tmp_path)
        assert main([".", "--format", "json", "-o", "report.json"]) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["version"] == 3
        assert "baselined" not in report and "stale_baseline" not in report
        assert report["files_analyzed"] == 1
        assert report["summary"] == {
            "total": 1,
            "by_rule": {"REP003": 1},
            "stale_suppressions": 0,
        }
        assert "stats" in report and "rules" in report["stats"]
        (finding,) = report["findings"]
        assert finding["rule"] == "REP003"
        assert finding["path"].endswith("service/pipe.py")
        assert "id" not in finding
        catalog = {rule["id"] for rule in report["rules"]}
        assert {"REP001", "REP006"} <= catalog


class TestRuleFilterAndStats:
    def test_stats_section_in_text_report(
        self, tmp_path, monkeypatch, capsys
    ):
        write_tree(tmp_path, VIOLATING)
        monkeypatch.chdir(tmp_path)
        assert main([".", "--stats"]) == 1
        out = capsys.readouterr().out
        assert "analysis:" in out
        assert "REP003: 1 finding(s)" in out


TWO_HOP_CLOCK = {
    "simmachine/__init__.py": "",
    "simmachine/clock.py": """\
    from util.timing import stamp

    def advance(state):
        return stamp(state)
    """,
    "util/__init__.py": "",
    "util/timing.py": """\
    import time

    def stamp(state):
        return raw()

    def raw():
        return time.time()
    """,
}


class TestGraphRulesThroughCli:
    def test_lint_dot_resolves_cross_module_taint(
        self, tmp_path, monkeypatch, capsys
    ):
        # `repro lint .` must anchor module names at the cwd; a regression
        # here silently drops cross-module edges and REP010 goes blind.
        write_tree(tmp_path, TWO_HOP_CLOCK)
        monkeypatch.chdir(tmp_path)
        assert main([".", "--select", "REP010"]) == 1
        out = capsys.readouterr().out
        assert "REP010" in out
        assert "time.time" in out
        assert "simmachine.clock.advance -> util.timing.stamp" in out

    def test_json_report_carries_the_witness(self, tmp_path, monkeypatch):
        write_tree(tmp_path, TWO_HOP_CLOCK)
        monkeypatch.chdir(tmp_path)
        assert main(
            [".", "--select", "REP010", "--format", "json",
             "-o", "report.json"]
        ) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        (finding,) = report["findings"]
        assert finding["rule"] == "REP010"
        assert finding["witness"][0].startswith(
            "simmachine.clock.advance -> util.timing.stamp"
        )


class TestOneParsePerFile:
    def test_each_file_is_parsed_once_and_graph_suppressions_count(
        self, tmp_path, monkeypatch, capsys
    ):
        # util/ is outside REP001's scope, so only REP010's graph walk
        # consults this suppression; it must still count as used.
        tree = dict(TWO_HOP_CLOCK)
        tree["util/timing.py"] = """\
        import time

        def stamp(state):
            return raw()

        def raw():
            return time.time()  # repro: ignore[REP010] — reporting clock
        """
        write_tree(tmp_path, tree)
        monkeypatch.chdir(tmp_path)
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(filename)
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        assert main(["."]) == 0
        assert "stale suppressions" not in capsys.readouterr().out
        assert len(parsed) == len(tree)
        assert len(set(parsed)) == len(tree)


class TestStaleSuppressions:
    def test_unused_suppression_exits_one(self, tmp_path, monkeypatch, capsys):
        write_tree(
            tmp_path,
            {
                "service/pipe.py": """\
                def drain(q):
                    return q.get(timeout=1.0)  # repro: ignore[REP003]
                """
            },
        )
        monkeypatch.chdir(tmp_path)
        assert main(["."]) == 1
        out = capsys.readouterr().out
        assert "stale suppressions" in out
        assert "service/pipe.py:2" in out

    def test_used_suppression_is_not_stale(self, tmp_path, monkeypatch):
        write_tree(
            tmp_path,
            {
                "service/pipe.py": """\
                def drain(q):
                    return q.get()  # repro: ignore[REP003] — drained on close
                """
            },
        )
        monkeypatch.chdir(tmp_path)
        assert main(["."]) == 0

    def test_docstring_example_is_not_a_suppression(
        self, tmp_path, monkeypatch
    ):
        write_tree(
            tmp_path,
            {
                "service/pipe.py": '''\
                """Example: q.get()  # repro: ignore[REP003]"""

                def drain(q):
                    return q.get(timeout=1.0)
                '''
            },
        )
        monkeypatch.chdir(tmp_path)
        assert main(["."]) == 0

    def test_filtered_run_skips_unrelated_suppressions(
        self, tmp_path, monkeypatch
    ):
        # An unused REP003 suppression is only judged when REP003 runs.
        write_tree(
            tmp_path,
            {
                "service/pipe.py": """\
                def drain(q):
                    return q.get(timeout=1.0)  # repro: ignore[REP003]
                """
            },
        )
        monkeypatch.chdir(tmp_path)
        assert main([".", "--select", "REP001"]) == 0
        assert main([".", "--select", "REP003"]) == 1

    def test_json_report_lists_unused_suppressions(
        self, tmp_path, monkeypatch
    ):
        write_tree(
            tmp_path,
            {
                "service/pipe.py": """\
                def drain(q):
                    return q.get(timeout=1.0)  # repro: ignore[REP003]
                """
            },
        )
        monkeypatch.chdir(tmp_path)
        assert main([".", "--format", "json", "-o", "report.json"]) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        (entry,) = report["unused_suppressions"]
        assert entry["path"].endswith("service/pipe.py")
        assert entry["rules"] == ["REP003"]
        assert report["summary"]["stale_suppressions"] == 1
