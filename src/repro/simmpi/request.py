"""Nonblocking-operation handles."""

from __future__ import annotations

from typing import Any, Optional

from repro.simmachine.engine import _PENDING, Event, Simulator

__all__ = ["Request"]


class Request(Event):
    """Handle for a nonblocking send or receive; it is its own engine event.

    A send request is scheduled like a :class:`~repro.simmachine.engine.Timeout`
    at the time its injection finishes. A receive request is triggered by
    the matching send with the message payload as its value; when the
    message has already arrived at post time, :meth:`Comm.irecv` returns it
    processed, with no queue entry. Yield it directly, or use
    ``yield from comm.waitall(reqs)`` inside a rank program.
    """

    __slots__ = ("kind", "peer", "tag", "nbytes")

    def __init__(self, sim: Simulator, kind: str, peer: int, tag: int, nbytes: int) -> None:
        # Every slot set directly, as in Timeout: one runs per message.
        self.sim = sim
        self._cb = None
        self.callbacks = None
        self._value = _PENDING
        self._exc = None
        self.processed = False
        self.kind = kind  # "send" | "recv"
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes

    @property
    def complete(self) -> bool:
        """True once the operation has finished."""
        return self.processed

    @property
    def payload(self) -> Optional[Any]:
        """The received payload (receives only; None before completion)."""
        if not self.triggered:
            return None
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.complete else "pending"
        return f"<Request {self.kind} peer={self.peer} tag={self.tag} {state}>"
