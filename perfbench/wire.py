"""Launch ``repro serve`` and speak its JSON-lines protocol over a raw socket.

Deliberately independent of the program's own clients: one request line
out, one response line back, nothing else.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
_LISTENING = re.compile(r"serve\.listening\b.*\bport=(\d+)")


class Server:
    """One ``repro serve --port 0`` process, stopped by :meth:`stop`.

    ``traced=True`` starts it through ``serve_traced.py``, which installs the
    layer tracer inside the server process before handing over to the CLI.
    """

    def __init__(
        self,
        root: Path,
        workdir: Path,
        traced: bool = False,
        timeout: float = 60.0,
    ) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.log_path = workdir / "serve.log"
        args = [
            "serve",
            "--port", "0",
            "--db", str(workdir / "serve.sqlite"),
            "--cache-dir", str(workdir / "memo"),
        ]
        if traced:
            command = [sys.executable, str(HERE / "serve_traced.py"), *args]
        else:
            command = [sys.executable, "-m", "repro", *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command,
            cwd=str(root),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=self._log,
        )
        self.memo_dir = workdir / "memo"
        self.port = self._await_port(timeout)

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log_path.read_text(encoding="utf-8"))
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(
            "server did not report a listening port:\n"
            + self.log_path.read_text(encoding="utf-8")[-2000:]
        )

    def stop(self, timeout: float = 30.0) -> None:
        """Interrupt the server (its clean shutdown path) and wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout)
        self._log.close()


class Connection:
    """A single closed-loop JSON-lines connection."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def send_line(self, line: bytes) -> bytes:
        self._sock.sendall(line)
        reply = self._reader.readline()
        if not reply:
            raise ConnectionError("server closed the connection")
        return reply

    def call(self, payload: Any) -> Any:
        line = json.dumps(payload).encode("utf-8") + b"\n"
        return json.loads(self.send_line(line))

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


def command(conn: Connection, name: str) -> dict:
    reply = conn.call({"cmd": name})
    if not reply.get("ok"):
        raise RuntimeError(f"{name} command failed: {reply}")
    return reply


def memo_footprint(directory: Path) -> tuple[int, int]:
    """``(entries, bytes)`` of a memo store directory, read from outside."""
    files = list(directory.glob("*/*.json"))
    return len(files), sum(f.stat().st_size for f in files)
