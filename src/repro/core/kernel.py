"""Kernels and cyclic control flow.

A *kernel* is "a unit of computation that denotes a logical entity within
the larger context of an application ... a loop, procedure, or file
depending on the level of granularity" (paper §2). The applications studied
here iterate a fixed kernel sequence, so the control flow is a cycle; the
chains whose couplings the paper measures are the *windows* of that cycle
(e.g. for kernels A B C D and length 3: ABC, BCD, CDA, DAB — §3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigurationError

__all__ = ["Kernel", "ControlFlow"]


@dataclass(frozen=True)
class Kernel:
    """A named kernel with its per-loop-iteration call count."""

    name: str
    calls_per_iteration: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("Kernel needs a non-empty name")
        if self.calls_per_iteration < 1:
            raise ConfigurationError(
                f"calls_per_iteration must be >= 1, got {self.calls_per_iteration}"
            )


class ControlFlow:
    """An ordered sequence of kernels executed repeatedly in a loop."""

    def __init__(
        self, kernels: Sequence[str | Kernel], cyclic: bool = True
    ) -> None:
        if not kernels:
            raise ConfigurationError("ControlFlow needs at least one kernel")
        self.kernels: tuple[Kernel, ...] = tuple(
            k if isinstance(k, Kernel) else Kernel(k) for k in kernels
        )
        names = tuple(k.name for k in self.kernels)
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate kernel names in flow: {list(names)}"
            )
        self.cyclic = cyclic
        self._names = names
        #: Windows per chain length, built on first use.
        self._windows: dict[int, tuple[tuple[str, ...], ...]] = {}

    @property
    def names(self) -> tuple[str, ...]:
        """Kernel names in control-flow order."""
        return self._names

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ControlFlow):
            return NotImplemented
        return self.kernels == other.kernels and self.cyclic == other.cyclic

    def __hash__(self) -> int:
        return hash((self.kernels, self.cyclic))

    def __repr__(self) -> str:
        tail = "" if self.cyclic else ", cyclic=False"
        return f"ControlFlow({list(self.names)!r}{tail})"

    def __len__(self) -> int:
        return len(self.kernels)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def _check_length(self, length: int) -> None:
        if not 1 <= length <= len(self):
            raise ConfigurationError(
                f"chain length must be in 1..{len(self)}, got {length}"
            )

    def windows(self, length: int) -> list[tuple[str, ...]]:
        """All chains of ``length`` consecutive kernels.

        Cyclic flows have exactly ``N`` windows (one starting at each
        kernel, wrapping around); acyclic flows have ``N - length + 1``.
        For a cyclic flow of N kernels, the paper measures the ``N``
        windows of the chosen length — e.g. the "(N-1) pair-wise
        interactions" per unique control path plus the wrap-around pair.

        Each length's windows are computed once; every call returns a
        fresh list, so callers may change it without touching the flow.
        """
        cached = self._windows.get(length)
        if cached is None:
            self._check_length(length)
            names = self._names
            n = len(names)
            if self.cyclic:
                cached = tuple(
                    tuple(names[(start + j) % n] for j in range(length))
                    for start in range(n)
                )
            else:
                cached = tuple(
                    tuple(names[start + j] for j in range(length))
                    for start in range(n - length + 1)
                )
            self._windows[length] = cached
        return list(cached)

    def windows_containing(self, kernel: str, length: int) -> list[tuple[str, ...]]:
        """The windows that include ``kernel`` (the coefficient inputs).

        For a cyclic flow each kernel appears in exactly ``length`` windows
        — the invariant the paper's weighted average relies on.
        """
        if kernel not in self:
            raise ConfigurationError(
                f"kernel {kernel!r} not in flow {self.names}"
            )
        return [w for w in self.windows(length) if kernel in w]

    def adjacencies(self) -> list[tuple[str, str]]:
        """Ordered adjacent pairs of the flow (cyclic flows wrap)."""
        names = self.names
        n = len(names)
        if self.cyclic:
            return [(names[i], names[(i + 1) % n]) for i in range(n)]
        return [(names[i], names[i + 1]) for i in range(n - 1)]

    def validate_window(self, window: Iterable[str]) -> tuple[str, ...]:
        """Check that ``window`` is a window of this flow; return it."""
        win = tuple(window)
        if win not in self.windows(len(win)):
            raise ConfigurationError(
                f"{win} is not a length-{len(win)} window of {self.names}"
            )
        return win
