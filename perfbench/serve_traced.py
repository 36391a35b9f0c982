"""Run ``repro serve`` with the layer tracer installed in the server process.

Usage: ``python serve_traced.py serve --port 0 ...`` (the arguments are
passed to ``repro.cli.main`` unchanged). The wrapped layers flush their
totals into the server's ``repro.obs`` counters, which the benchmark reads
back with the ``counters`` wire command.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main

    with Tracer():
        return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
