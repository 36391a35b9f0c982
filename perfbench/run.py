"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see README.md) in a child process, times its set-up,
and prints the result object as the last line of standard output:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Exits non-zero, printing no result, when the workload cannot run.

Set-up is timed from process start to the child's ``ready`` line, less the
child's host-speed probes, and normalised by them (see ``speed.py``).
Untraced runs set up ``SETUP_SAMPLES`` times (``--setup-only`` children
that stop at ``ready``, then the measured child) and report the median as
``setup_s``.

All scratch state (memo stores, sqlite files, server logs) lives in one
temporary directory inside the checkout, removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim-cells", "campaign-warm", "serve-mix")
SETUP_SAMPLES = 3
#: Wall-clock budget of the whole run beyond the measured seconds.
SLACK_SECONDS = 150.0
PREFIX = "perfbench:"


class ChildFailed(Exception):
    pass


class Child:
    """One ``workload.py`` process; its stdout is read line by line."""

    def __init__(self, args: list[str], deadline: float) -> None:
        self.deadline = deadline
        self.started = time.perf_counter()
        # One hash seed for every run: per-process dict and set layouts
        # otherwise move host times by several percent between runs.
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "workload.py"), *args],
            cwd=str(ROOT),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        # A hung child (and any server it started, which shares its
        # process group) is killed at the deadline; its stdout then ends.
        self._watchdog = threading.Timer(
            max(0.0, deadline - self.started), self._kill_group
        )
        self._watchdog.daemon = True
        self._watchdog.start()

    def _kill_group(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def read_until(self, tag: str) -> tuple[float, list[str]]:
        """Lines up to and including ``perfbench:<tag>``; time to reach it."""
        lines = []
        for line in self.process.stdout:
            lines.append(line.rstrip("\n"))
            if line.startswith(PREFIX + tag):
                return time.perf_counter() - self.started, lines
        raise ChildFailed(f"child ended before {tag!r}")

    def finish(self) -> list[str]:
        """Remaining lines; raises unless the child exits 0 in time."""
        lines = [line.rstrip("\n") for line in self.process.stdout]
        remaining = max(1.0, self.deadline - time.perf_counter())
        code = self.process.wait(remaining)
        if code != 0:
            raise ChildFailed(f"child exited with {code}")
        return lines

    def kill(self) -> None:
        """Stop the child's process group (a no-op after a clean exit)."""
        self._watchdog.cancel()
        self._kill_group()
        self.process.wait()
        self.process.stdout.close()


def tagged(lines: list[str], tag: str) -> Optional[dict]:
    for line in lines:
        if line.startswith(PREFIX + tag + " "):
            return json.loads(line[len(PREFIX + tag) + 1:])
    return None


def run(args: argparse.Namespace, workdir: Path) -> tuple[dict, dict, dict]:
    deadline = time.perf_counter() + args.seconds + SLACK_SECONDS
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup = []
    setup_only = SETUP_SAMPLES - 1 if args.trace == 0 else 0
    for index in range(setup_only + 1):
        child = Child(
            base + ["--workdir", str(workdir / f"child-{index}")]
            + (["--setup-only"] if index < setup_only else []),
            deadline,
        )
        try:
            seconds, head = child.read_until("ready")
            ready = tagged(head, "ready")
            setup.append(
                (seconds - ready["probe_s"])
                * speed.REFERENCE_S / statistics.fmean(ready["probes"])
            )
            tail = child.finish()
        finally:
            child.kill()
    lines = head + tail
    result = json.loads(lines[-1])
    env = tagged(lines, "env") or {}
    detail = tagged(lines, "detail") or {}
    detail["setup_samples_s"] = setup
    if args.trace == 0:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setup), "unit": "s"
        }
    return result, env, detail


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result, env, detail = run(args, workdir)
    except (ChildFailed, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("# env " + json.dumps(env, sort_keys=True))
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
