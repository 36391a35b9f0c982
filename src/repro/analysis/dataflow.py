"""Dataflow over the call graph — analysis **phase 2** machinery.

:class:`TaintAnalysis` is a generic seed-and-propagate pass: external
references matching a seed predicate mark their owning function as
*directly* tainted, and taint then flows backwards over call edges —
if ``g`` is tainted and ``f`` calls ``g``, ``f`` is tainted too.  A BFS
from the seed set guarantees every tainted function gets a **shortest**
witness chain, which keeps the reported paths readable and stable.

Witness chains are materialized by :meth:`TaintAnalysis.witness`: a list
of human-readable hops ending at the external primitive, e.g.::

    repro.simmachine.wavefront.sweep -> repro.npb.miniapp.run_chain
        (src/repro/simmachine/wavefront.py:88)
    repro.npb.miniapp.run_chain -> time.perf_counter
        (src/repro/npb/miniapp.py:76)

Rules own their policy via two predicates: ``seed`` decides which
external references start taint (REP010 passes the wall-clock/RNG/env
set), and ``exempt`` names functions taint may never enter or leave
(REP010 exempts ``repro.obs`` — observability reads host clocks by
design and never feeds simulated results back into predictions).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.analysis.graph import CallEdge, ExternalRef, ProjectGraph

__all__ = ["TaintAnalysis", "WitnessStep"]

#: One hop in a witness chain: either a project call edge or the final
#: external reference that seeded the taint.
WitnessStep = Union[CallEdge, ExternalRef]


class TaintAnalysis:
    """Backwards taint propagation with shortest-path witnesses."""

    def __init__(
        self,
        graph: ProjectGraph,
        seed: Callable[[ExternalRef], bool],
        exempt: Optional[Callable[[str], bool]] = None,
    ):
        self.graph = graph
        self._seed = seed
        self._exempt = exempt or (lambda qualname: False)
        #: qualname -> the step that taints it: an ExternalRef for seeds,
        #: a CallEdge into a tainted callee otherwise.
        self._cause: dict[str, WitnessStep] = {}
        self._propagate()

    def _propagate(self) -> None:
        frontier: list[str] = []
        for owner, refs in self.graph.external.items():
            if self._exempt(owner):
                continue
            for ref in refs:
                if self._seed(ref):
                    if owner not in self._cause:
                        self._cause[owner] = ref
                        frontier.append(owner)
                    break
        # BFS over reverse edges: callers of tainted functions taint too.
        while frontier:
            next_frontier: list[str] = []
            for callee in frontier:
                for edge in self.graph.callers_of(callee):
                    caller = edge.caller
                    if caller in self._cause or self._exempt(caller):
                        continue
                    self._cause[caller] = edge
                    next_frontier.append(caller)
            frontier = next_frontier

    # -- queries -----------------------------------------------------------

    def cause(self, qualname: str) -> Optional[WitnessStep]:
        return self._cause.get(qualname)

    def tainted(self) -> list[str]:
        return sorted(self._cause)

    def chain(self, qualname: str) -> list[WitnessStep]:
        """The shortest hop chain from ``qualname`` to its primitive."""
        steps: list[WitnessStep] = []
        current = qualname
        while True:
            step = self._cause.get(current)
            if step is None:
                break
            steps.append(step)
            if isinstance(step, ExternalRef):
                break
            current = step.callee
        return steps

    def witness(self, qualname: str) -> tuple[str, ...]:
        """Human-readable witness path for a tainted function."""
        lines: list[str] = []
        for step in self.chain(qualname):
            if isinstance(step, ExternalRef):
                lines.append(
                    f"{step.owner} -> {step.target} "
                    f"({step.path}:{step.line})"
                )
            else:
                lines.append(
                    f"{step.caller} -> {step.callee} "
                    f"({step.path}:{step.line})"
                )
        return tuple(lines)
