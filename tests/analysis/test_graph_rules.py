"""Phase-2 graph rules: REP010 transitive determinism."""

from __future__ import annotations

from repro.analysis.rules import select_rules
from repro.analysis.visitor import Analyzer, iter_python_files
from tests.analysis.conftest import write_tree


def lint_tree(tmp_path, files, rules=None, select=None):
    write_tree(tmp_path, files)
    if rules is None:
        rules = select_rules(select) if select is not None else None
    analyzer = Analyzer(rules)
    findings = analyzer.run(
        iter_python_files([str(tmp_path)]), root=str(tmp_path)
    )
    return findings, analyzer


class TestTransitiveDeterminismREP010:
    TWO_HOPS = {
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

    def test_two_hop_clock_is_flagged_with_witness(self, tmp_path):
        findings, _ = lint_tree(
            tmp_path, self.TWO_HOPS, select=["REP010"]
        )
        (finding,) = [f for f in findings if f.path.endswith("clock.py")]
        assert finding.rule == "REP010"
        assert "time.time" in finding.message
        # The witness path walks every hop down to the primitive.
        assert finding.witness == (
            "simmachine.clock.advance -> util.timing.stamp "
            "(simmachine/clock.py:4)",
            "util.timing.stamp -> util.timing.raw (util/timing.py:4)",
            "util.timing.raw -> time.time (util/timing.py:7)",
        )

    def test_direct_clock_is_rep001_territory(self, tmp_path):
        # A clock called *directly* in-tier is REP001's finding; REP010
        # must not double-report it.
        files = {
            "simmachine/__init__.py": "",
            "simmachine/clock.py": """\
            import time

            def now():
                return time.time()
            """,
        }
        findings, _ = lint_tree(tmp_path, files, select=["REP010"])
        assert findings == []
        findings, _ = lint_tree(tmp_path, files, select=["REP001"])
        assert [f.rule for f in findings] == ["REP001"]

    def test_direct_env_read_is_flagged(self, tmp_path):
        files = {
            "core/__init__.py": "",
            "core/config.py": """\
            import os

            def knob():
                return os.environ.get("REPRO_KNOB")
            """,
        }
        findings, _ = lint_tree(tmp_path, files, select=["REP010"])
        (finding,) = findings
        assert "os.environ" in finding.message

    def test_out_of_scope_caller_is_not_flagged(self, tmp_path):
        files = {
            "service/__init__.py": "",
            "service/front.py": """\
            import time

            def latency():
                return time.time()

            def handler():
                return latency()
            """,
        }
        findings, _ = lint_tree(tmp_path, files, select=["REP010"])
        assert findings == []

    def test_suppressed_seed_stops_taint(self, tmp_path):
        files = dict(self.TWO_HOPS)
        files["util/timing.py"] = """\
        import time

        def stamp(state):
            return raw()

        def raw():
            return time.time()  # repro: ignore[REP001] — host-time probe
        """
        findings, _ = lint_tree(tmp_path, files, select=["REP010"])
        assert findings == []

    def test_obs_modules_are_exempt_transmitters(self, tmp_path):
        files = {
            "simmachine/__init__.py": "",
            "simmachine/proc.py": """\
            from obs.tracing import span

            def step():
                span("step")
            """,
            "obs/__init__.py": "",
            "obs/tracing.py": """\
            import time

            def span(name):
                return time.perf_counter()
            """,
        }
        findings, _ = lint_tree(tmp_path, files, select=["REP010"])
        assert findings == []

    def test_finding_suppressible_at_the_call_site(self, tmp_path):
        files = dict(self.TWO_HOPS)
        files["simmachine/clock.py"] = """\
        from util.timing import stamp

        def advance(state):
            return stamp(state)  # repro: ignore[REP010] — test override
        """
        findings, _ = lint_tree(tmp_path, files, select=["REP010"])
        assert findings == []
