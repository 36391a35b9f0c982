"""Nonblocking-operation handles."""

from __future__ import annotations

from typing import Any, Optional

from repro.simmachine.engine import Event

__all__ = ["Request"]


class Request:
    """Handle for a nonblocking send or receive.

    The underlying :class:`~repro.simmachine.engine.Event` fires when the
    operation completes; for receives the event's value is the message
    payload. Use ``yield from comm.wait(req)`` / ``comm.waitall(reqs)``
    inside a rank program.
    """

    __slots__ = ("event", "kind", "peer", "tag", "nbytes")

    def __init__(self, event: Event, kind: str, peer: int, tag: int, nbytes: int) -> None:
        self.event = event
        self.kind = kind  # "send" | "recv"
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes

    @property
    def complete(self) -> bool:
        """True once the operation has finished."""
        return self.event.processed

    @property
    def payload(self) -> Optional[Any]:
        """The received payload (receives only; None before completion)."""
        if not self.event.triggered:
            return None
        return self.event.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.complete else "pending"
        return f"<Request {self.kind} peer={self.peer} tag={self.tag} {state}>"
