"""Framework behavior: inline suppressions."""

from __future__ import annotations

from repro.analysis.suppressions import parse_suppressions

VIOLATION = {
    "service/pipe.py": """\
    def drain(q):
        return q.get()
    """
}


class TestSuppressions:
    def test_parse_inline_and_line_above(self):
        index = parse_suppressions(
            [
                "x = 1  # repro: ignore[REP003]",
                "# repro: ignore[REP001, REP002]",
                "y = 2",
            ]
        )
        assert index.is_suppressed("REP003", 1)
        assert index.is_suppressed("REP001", 3)  # comment on the line above
        assert index.is_suppressed("REP002", 3)
        assert not index.is_suppressed("REP003", 3)

    def test_bare_ignore_suppresses_every_rule(self):
        index = parse_suppressions(["q.get()  # repro: ignore — startup only"])
        assert index.is_suppressed("REP003", 1)
        assert index.is_suppressed("REP001", 1)

    def test_inline_suppression_hides_finding(self, lint):
        findings = lint(
            {
                "service/pipe.py": """\
                def drain(q):
                    return q.get()  # repro: ignore[REP003] — drained on close
                """
            },
            select=["REP003"],
        )
        assert findings == []

    def test_suppression_on_line_above_hides_finding(self, lint):
        findings = lint(
            {
                "service/pipe.py": """\
                def drain(q):
                    # repro: ignore[REP003] — producer joined first
                    return q.get()
                """
            },
            select=["REP003"],
        )
        assert findings == []

    def test_wrong_rule_id_does_not_suppress(self, lint):
        findings = lint(
            {
                "service/pipe.py": """\
                def drain(q):
                    return q.get()  # repro: ignore[REP001]
                """
            },
            select=["REP003"],
        )
        assert [f.rule for f in findings] == ["REP003"]

    def test_cross_file_findings_honour_suppressions(self, lint):
        findings = lint(
            {
                "faults.py": """\
                SITES = {"a.one": "first"}

                def check(site):
                    return None
                """,
                "service/mod.py": """\
                import faults

                def go():
                    # repro: ignore[REP004] — site registered dynamically
                    faults.check("c.three")
                    faults.check("a.one")
                """,
            },
            select=["REP004"],
        )
        assert findings == []
