"""Bokhari's SB path-search algorithm (the comparison objective).

Bokhari (IEEE ToC 1988) searches a doubly weighted graph for the path that
minimises ``SB(P) = max(S(P), B(P))`` — the *bottleneck processing time* of
the corresponding assignment, appropriate when host and satellites pipeline
successive frames and the throughput is limited by the busiest stage.  The
paper reproduced here keeps Bokhari's graph construction but replaces the
objective by the end-to-end delay ``S(P) + B(P)``; this module provides the
original objective so the two can be compared on identical instances
(experiment E8 in DESIGN.md).

The search has the same structure as the SSB search: repeatedly take the
min-``S`` path, record it as candidate if it improves ``max(S, B)``, then
delete all edges with ``β(e) ≥ B(P)``; stop on disconnection or when the
min-``S`` weight reaches the candidate value.

Anytime: an optional :class:`~repro.core.context.SolveContext` is polled once
per iteration, after the candidate update, and once per enumerated path in the
coloured fallback.  When it fires the search returns its current candidate
with ``interrupted`` set; the first shortest path always completes, so an
expired budget still yields a feasible answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.context import SolveContext
from repro.core.dwg import DoublyWeightedGraph, PathMeasures, SIGMA_ATTR
from repro.graphs.dijkstra import shortest_path
from repro.graphs.kshortest import iter_paths_by_weight
from repro.graphs.paths import Path


@dataclass
class SBResult:
    """Outcome of an SB (bottleneck) search."""

    path: Optional[Path]
    sb_weight: float
    s_weight: float
    b_weight: float
    iteration_count: int = 0
    termination: str = "unknown"
    interrupted: Optional[str] = None   #: "deadline"/"cancelled" when cut short

    @property
    def found(self) -> bool:
        return self.path is not None


class SBSearch:
    """Optimal-SB path search (minimise ``max(S(P), B(P))``)."""

    def __init__(self, colored: bool = False) -> None:
        #: When ``colored`` is true the bottleneck measure is the coloured one
        #: (max over colours of per-colour sums), so the SB objective can also
        #: be evaluated on the coloured assignment graphs of §5.
        self.colored = colored

    def _b_weight(self, path: Path) -> float:
        if self.colored:
            return PathMeasures.b_weight_colored(path)
        return PathMeasures.b_weight_plain(path)

    def search(self, dwg: DoublyWeightedGraph,
               context: Optional[SolveContext] = None) -> SBResult:
        work = dwg.copy()
        source, target = work.source, work.target

        candidate: Optional[Path] = None
        candidate_sb = float("inf")
        candidate_s = float("inf")
        candidate_b = float("inf")
        iterations = 0
        termination = "disconnected"
        interrupted: Optional[str] = None

        while True:
            path = shortest_path(work.graph, source, target, weight=SIGMA_ATTR)
            if path is None:
                termination = "disconnected"
                break
            iterations += 1

            s_weight = PathMeasures.s_weight(path)
            if s_weight >= candidate_sb:
                termination = "s-weight-bound"
                break

            b_weight = self._b_weight(path)
            sb_weight = max(s_weight, b_weight)
            if sb_weight < candidate_sb:
                candidate = path
                candidate_sb = sb_weight
                candidate_s = s_weight
                candidate_b = b_weight
            if context is not None:
                interrupted = context.interrupted()
                if interrupted is not None:
                    termination = "interrupted"
                    break

            removable = [e for e in work.graph.edges()
                         if DoublyWeightedGraph.max_beta_component(e) >= b_weight]
            if not removable:
                # In coloured mode the bottleneck may be spread over several
                # same-colour edges so that no single edge is removable.  Fall
                # back to enumerating paths in non-decreasing S order: since
                # max(S, B) ≥ S the enumeration can stop as soon as S reaches
                # the candidate value, which keeps the search exact.
                for alt in iter_paths_by_weight(work.graph, source, target, weight=SIGMA_ATTR):
                    alt_s = PathMeasures.s_weight(alt)
                    if alt_s >= candidate_sb:
                        break
                    alt_sb = max(alt_s, self._b_weight(alt))
                    if alt_sb < candidate_sb:
                        candidate = alt
                        candidate_sb = alt_sb
                        candidate_s = alt_s
                        candidate_b = self._b_weight(alt)
                    if context is not None:
                        interrupted = context.interrupted()
                        if interrupted is not None:
                            break
                termination = "enumeration" if interrupted is None else "interrupted"
                break
            work.graph.remove_edges(e.key for e in removable)

        if candidate is None:
            return SBResult(path=None, sb_weight=float("inf"), s_weight=float("inf"),
                            b_weight=float("inf"), iteration_count=iterations,
                            termination=termination)
        return SBResult(path=candidate, sb_weight=candidate_sb, s_weight=candidate_s,
                        b_weight=candidate_b, iteration_count=iterations,
                        termination=termination, interrupted=interrupted)


def find_optimal_sb_path(dwg: DoublyWeightedGraph, colored: bool = False) -> SBResult:
    """Convenience wrapper: run :class:`SBSearch` with default settings."""
    return SBSearch(colored=colored).search(dwg)
