"""Phase-1 call-graph builder: resolution fixtures and the real-tree gate."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.graph import module_name_for
from repro.analysis.rules import select_rules
from repro.analysis.visitor import Analyzer, iter_python_files
from tests.analysis.conftest import write_tree

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Ceiling for resolver misses over the real tree.  The graph currently
#: builds with **zero** unresolved edges; a small allowance keeps honest
#: future code from flapping CI, while a resolver regression (dozens of
#: misses) still fails loudly.
UNRESOLVED_EDGE_THRESHOLD = 3


def graph_of(paths, root):
    """The call graph a REP010 lint run builds from its parsed files."""
    analyzer = Analyzer(select_rules(["REP010"]))
    analyzer.run(iter_python_files(paths), root=root)
    return analyzer.graph


def build(tmp_path, files):
    write_tree(tmp_path, files)
    return graph_of([str(tmp_path)], str(tmp_path))


def edge_pairs(graph):
    return {
        (edge.caller, edge.callee)
        for edges in graph.edges.values()
        for edge in edges
    }


class TestModuleNaming:
    def test_plain_module(self):
        assert module_name_for("pkg/mod.py") == "pkg.mod"

    def test_package_init(self):
        assert module_name_for("pkg/sub/__init__.py") == "pkg.sub"

    def test_src_prefix_stripped(self):
        assert module_name_for("src/repro/core/models.py") == (
            "repro.core.models"
        )


class TestResolution:
    def test_aliased_import_resolves_to_definition(self, tmp_path):
        graph = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/util.py": """\
                def helper():
                    return 1
                """,
                "pkg/main.py": """\
                from pkg import util as u

                def run():
                    return u.helper()
                """,
            },
        )
        assert ("pkg.main.run", "pkg.util.helper") in edge_pairs(graph)
        assert graph.unresolved == []

    def test_reexport_through_init(self, tmp_path):
        graph = build(
            tmp_path,
            {
                "pkg/__init__.py": "from pkg.impl import helper\n",
                "pkg/impl.py": """\
                def helper():
                    return 1
                """,
                "app.py": """\
                from pkg import helper

                def run():
                    return helper()
                """,
            },
        )
        assert ("app.run", "pkg.impl.helper") in edge_pairs(graph)
        assert graph.unresolved == []

    def test_relative_import_resolves(self, tmp_path):
        graph = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": """\
                def leaf():
                    return 1
                """,
                "pkg/b.py": """\
                from . import a
                from .a import leaf as renamed

                def via_module():
                    return a.leaf()

                def via_alias():
                    return renamed()
                """,
            },
        )
        pairs = edge_pairs(graph)
        assert ("pkg.b.via_module", "pkg.a.leaf") in pairs
        assert ("pkg.b.via_alias", "pkg.a.leaf") in pairs
        assert graph.unresolved == []

    def test_self_method_and_inherited_method(self, tmp_path):
        graph = build(
            tmp_path,
            {
                "m.py": """\
                class Base:
                    def shared(self):
                        return 1

                class Impl(Base):
                    def run(self):
                        return self.shared() + self.own()

                    def own(self):
                        return 2
                """
            },
        )
        pairs = edge_pairs(graph)
        assert ("m.Impl.run", "m.Base.shared") in pairs
        assert ("m.Impl.run", "m.Impl.own") in pairs

    def test_constructor_edge_reaches_init(self, tmp_path):
        graph = build(
            tmp_path,
            {
                "m.py": """\
                class Thing:
                    def __init__(self, x):
                        self.x = x

                def make():
                    return Thing(1)
                """
            },
        )
        assert ("m.make", "m.Thing.__init__") in edge_pairs(graph)

    def test_cycle_does_not_hang(self, tmp_path):
        graph = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": """\
                from pkg import b

                def ping(n):
                    return b.pong(n - 1) if n else 0
                """,
                "pkg/b.py": """\
                from pkg import a

                def pong(n):
                    return a.ping(n - 1) if n else 0
                """,
            },
        )
        pairs = edge_pairs(graph)
        assert ("pkg.a.ping", "pkg.b.pong") in pairs
        assert ("pkg.b.pong", "pkg.a.ping") in pairs
        assert graph.unresolved == []

    def test_external_reference_recorded(self, tmp_path):
        graph = build(
            tmp_path,
            {
                "m.py": """\
                import time

                def now():
                    return time.time()
                """
            },
        )
        (ref,) = graph.external_refs("m.now")
        assert ref.target == "time.time"
        assert ref.is_call

    def test_dynamic_call_counted_not_unresolved(self, tmp_path):
        graph = build(
            tmp_path,
            {
                "m.py": """\
                def run(callback):
                    return callback()
                """
            },
        )
        assert graph.unresolved == []
        assert graph.dynamic_calls == 1

    def test_module_constant_lookup_is_dynamic(self, tmp_path):
        graph = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/data.py": "TABLE = {}\n",
                "pkg/use.py": """\
                from pkg.data import TABLE

                def fetch(key):
                    return TABLE.get(key)
                """,
            },
        )
        assert graph.unresolved == []
        assert graph.dynamic_calls == 1


class TestRealTree:
    def test_real_graph_builds_within_unresolved_threshold(self):
        graph = graph_of([str(REPO_ROOT / "src")], str(REPO_ROOT))
        misses = [
            f"{u.owner} -> {u.target} ({u.path}:{u.line})"
            for u in graph.unresolved
        ]
        assert len(misses) <= UNRESOLVED_EDGE_THRESHOLD, (
            "call-graph resolver regressed:\n" + "\n".join(misses)
        )
        # Sanity: the graph actually saw the engine.
        assert "repro.simmachine.engine.Simulator.run" in graph.functions
        stats = graph.stats()
        assert stats["functions"] > 500
        assert stats["edges"] > 500
