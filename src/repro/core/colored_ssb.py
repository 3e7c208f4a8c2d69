"""Adapted SSB search on the coloured assignment graph (paper §5.4).

The coloured DWG differs from the plain one of §4 in its bottleneck measure:
the B weight of a path is the **maximum over colours of the per-colour β
sums** — each colour is one satellite, its per-colour sum is the total work
(execution + uplink) of that satellite, and the satellites run in parallel.

The paper adapts the SSB algorithm in two ways:

1. the min-S path can be read off the top of the assignment graph (we keep a
   Dijkstra search, which is asymptotically irrelevant on these small DAGs
   and works on arbitrary coloured DWGs);
2. edge elimination must respect the per-colour sums: an edge may only be
   deleted when one of its per-colour β components alone already reaches the
   current path's B weight.  When the bottleneck colour's contribution is
   spread over *several consecutive same-colour edges*, the paper expands
   that part of the graph into explicit "super-edges", one per possible
   sub-path between the region's end nodes, and then eliminates super-edges.

This implementation performs the elimination and the expansion exactly as
described, with one documented generalisation (DESIGN.md §5): when the
bottleneck colour's edges along the current path are *not* consecutive (a
satellite whose sensors are scattered over the CRU tree) or the expansion
region is entered/left by edges that bypass its end nodes, the expansion is
not applicable and the search finishes *exactly* with a different engine.

Two exact finishers are available:

* ``finisher="labels"`` (default) — the label-dominance DAG sweep of
  :mod:`repro.core.label_search`: one topological pass propagating
  ``(σ, per-colour loads)`` labels with Pareto-dominance and incumbent-bound
  pruning.  It applies whenever the remaining search graph is a DAG (always
  true for assignment graphs) and makes the scattered-sensor regime, where
  the old path enumeration blew up around ``n_processing ≈ 20``, routinely
  solvable.
* ``finisher="enumeration"`` — the original Yen/Lawler walk of the remaining
  paths in non-decreasing S order, kept for non-DAG coloured DWGs and as a
  cross-check oracle.  It terminates as soon as the running S weight reaches
  the candidate SSB weight and therefore also returns the true optimum.

Every elimination performed before the finisher provably preserves at least
one optimal path, so the overall search is exact either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.context import SolveContext
from repro.core.dwg import (
    DoublyWeightedGraph,
    MaxBetaIndex,
    PathMeasures,
    SSBWeighting,
    SIGMA_ATTR,
)
from repro.core.assignment_graph import SUB_EDGES_ATTR
from repro.core.label_search import LabelDominanceSearch, LabelSearchStats
from repro.graphs.dag import DagIndex
from repro.graphs.digraph import Edge, Node
from repro.graphs.dijkstra import shortest_path
from repro.graphs.kshortest import iter_paths_by_weight
from repro.graphs.paths import Path

#: Valid values of the ``finisher`` option of :class:`ColoredSSBSearch`.
FINISHERS = ("labels", "enumeration")

#: Termination string reported per finisher, so result metadata never claims
#: an enumeration that the label engine actually performed.
_FINISH_TERMINATIONS = {"labels": "label-finish", "enumeration": "enumeration"}


@dataclass(frozen=True)
class ColoredSSBIteration:
    """Record of one iteration of the adapted search."""

    index: int
    s_weight: float
    b_weight: float
    ssb_weight: float
    candidate_after: float
    action: str   # "eliminate", "expand", "enumerate", "finish-labels", "terminate"
    removed_edges: int = 0
    added_super_edges: int = 0


@dataclass
class ColoredSSBResult:
    """Outcome of the adapted SSB search."""

    path: Optional[Path]
    ssb_weight: float
    s_weight: float
    b_weight: float
    iterations: List[ColoredSSBIteration] = field(default_factory=list)
    termination: str = "unknown"
    expansions: int = 0
    enumerated_paths: int = 0
    #: which exact finisher ran ("labels", "enumeration", or "none" when the
    #: elimination/expansion machinery terminated the search by itself)
    finisher: str = "none"
    label_stats: Optional[LabelSearchStats] = None
    #: why the search was cut short ("deadline"/"cancelled"), None when the
    #: search ran to completion and the result is the proven optimum
    interrupted: Optional[str] = None

    @property
    def found(self) -> bool:
        return self.path is not None

    @property
    def iteration_count(self) -> int:
        return len(self.iterations)


class ColoredSSBSearch:
    """Optimal-SSB path search on a coloured doubly weighted graph."""

    def __init__(self,
                 weighting: Optional[SSBWeighting] = None,
                 enable_expansion: bool = True,
                 keep_trace: bool = True,
                 max_iterations: Optional[int] = None,
                 finisher: str = "labels") -> None:
        if finisher not in FINISHERS:
            raise ValueError(f"finisher must be one of {FINISHERS}, got {finisher!r}")
        self.weighting = weighting or SSBWeighting()
        self.measures = PathMeasures(self.weighting)
        self.enable_expansion = enable_expansion
        self.keep_trace = keep_trace
        self.max_iterations = max_iterations
        self.finisher = finisher

    # ------------------------------------------------------------------ main
    def search(self, dwg: DoublyWeightedGraph,
               context: Optional[SolveContext] = None) -> ColoredSSBResult:
        """Run the adapted search; ``context`` (optional) is polled once per
        elimination iteration and forwarded into the exact finisher — when it
        fires, the current candidate path is returned with ``interrupted``
        set instead of the search running on."""
        work = dwg.copy()
        source, target = work.source, work.target
        index = DagIndex(work.graph)
        beta_index = MaxBetaIndex(work.graph, DoublyWeightedGraph.max_beta_component)

        candidate: Optional[Path] = None
        cand_ssb = float("inf")
        cand_s = float("inf")
        cand_b = float("inf")
        iterations: List[ColoredSSBIteration] = []
        termination = "disconnected"
        expansions = 0
        enumerated = 0
        finisher_used = "none"
        label_stats: Optional[LabelSearchStats] = None
        interrupted: Optional[str] = None

        max_iterations = self.max_iterations
        if max_iterations is None:
            # generous upper bound; the finisher makes the search exact anyway
            max_iterations = 4 * (work.number_of_edges() + 1) ** 2 + 16

        index_count = 0
        while True:
            index_count += 1
            if context is not None:
                interrupted = context.interrupted()
                if interrupted is not None:
                    if candidate is None:
                        # nothing feasible yet: the min-σ path is one cheap
                        # Dijkstra away and makes the result answerable
                        path = shortest_path(work.graph, source, target,
                                             weight=SIGMA_ATTR)
                        if path is not None:
                            cand_s = self.measures.s_weight(path)
                            cand_b = self.measures.b_weight_colored(path)
                            cand_ssb = self.weighting.combine(cand_s, cand_b)
                            candidate = path
                    termination = interrupted
                    break
            if index_count > max_iterations:
                (candidate, cand_ssb, cand_s, cand_b,
                 enumerated, finisher_used, label_stats,
                 interrupted) = self._finish(
                    work, index, candidate, cand_ssb, cand_s, cand_b, context)
                termination = f"iteration-cap-{_FINISH_TERMINATIONS[finisher_used]}"
                break

            path = shortest_path(work.graph, source, target, weight=SIGMA_ATTR)
            if path is None:
                termination = "disconnected"
                break

            s_weight = self.measures.s_weight(path)
            if self.weighting.lambda_s * s_weight >= cand_ssb:
                termination = "s-weight-bound"
                break

            b_weight = self.measures.b_weight_colored(path)
            ssb_weight = self.weighting.combine(s_weight, b_weight)
            if ssb_weight < cand_ssb:
                candidate, cand_ssb, cand_s, cand_b = path, ssb_weight, s_weight, b_weight
                if context is not None:
                    context.report_incumbent(cand_ssb, source="colored-ssb")

            if b_weight == 0.0:
                # the min-S path has no bottleneck cost at all: no other path
                # can do better than λ_S·S(P) + 0, which is the candidate.
                termination = "zero-bottleneck"
                self._record(iterations, index_count, s_weight, b_weight, ssb_weight,
                             cand_ssb, "terminate")
                break

            # ---- elimination: edges whose single-colour contribution already
            # reaches B(P) force every path through them to B ≥ B(P) while
            # S ≥ S(P) holds for all remaining paths, so they cannot improve.
            removable = beta_index.pop_at_least(b_weight)
            if removable:
                work.graph.remove_edges(e.key for e in removable)
                self._record(iterations, index_count, s_weight, b_weight, ssb_weight,
                             cand_ssb, "eliminate", removed=len(removable))
                continue

            # ---- no single edge is removable: the bottleneck colour's weight
            # is spread over several edges of the current path.
            expanded = False
            if self.enable_expansion:
                expanded, added = self._try_expand(work, path, b_weight,
                                                   index, beta_index)
                if expanded:
                    expansions += 1
                    self._record(iterations, index_count, s_weight, b_weight, ssb_weight,
                                 cand_ssb, "expand", added=added)
                    continue

            # ---- expansion not applicable: finish exactly.
            (candidate, cand_ssb, cand_s, cand_b,
             enumerated, finisher_used, label_stats,
             interrupted) = self._finish(
                work, index, candidate, cand_ssb, cand_s, cand_b, context)
            termination = _FINISH_TERMINATIONS[finisher_used] if not interrupted \
                else interrupted
            self._record(iterations, index_count, s_weight, b_weight, ssb_weight,
                         cand_ssb,
                         "enumerate" if finisher_used == "enumeration" else "finish-labels")
            break

        if candidate is None:
            return ColoredSSBResult(path=None, ssb_weight=float("inf"),
                                    s_weight=float("inf"), b_weight=float("inf"),
                                    iterations=iterations, termination=termination,
                                    expansions=expansions, enumerated_paths=enumerated,
                                    finisher=finisher_used, label_stats=label_stats,
                                    interrupted=interrupted)
        return ColoredSSBResult(path=candidate, ssb_weight=cand_ssb, s_weight=cand_s,
                                b_weight=cand_b, iterations=iterations,
                                termination=termination, expansions=expansions,
                                enumerated_paths=enumerated,
                                finisher=finisher_used, label_stats=label_stats,
                                interrupted=interrupted)

    # ------------------------------------------------------------ inner steps
    def _record(self, iterations: List[ColoredSSBIteration], index: int, s: float,
                b: float, ssb: float, cand: float, action: str,
                removed: int = 0, added: int = 0) -> None:
        if not self.keep_trace:
            return
        iterations.append(ColoredSSBIteration(
            index=index, s_weight=s, b_weight=b, ssb_weight=ssb,
            candidate_after=cand, action=action, removed_edges=removed,
            added_super_edges=added))

    def _finish(self, work: DoublyWeightedGraph, index: DagIndex,
                candidate: Optional[Path], cand_ssb: float, cand_s: float,
                cand_b: float, context: Optional[SolveContext] = None
                ) -> Tuple[Optional[Path], float, float, float,
                           int, str, Optional[LabelSearchStats], Optional[str]]:
        """Exact finisher: label sweep on DAGs, Yen enumeration otherwise."""
        if self.finisher == "labels" and index.is_dag():
            engine = LabelDominanceSearch(self.weighting)
            result = engine.search(work, incumbent=cand_ssb, index=index,
                                   context=context)
            if result.found and result.ssb_weight < cand_ssb:
                candidate = result.path
                cand_ssb = result.ssb_weight
                cand_s = result.s_weight
                cand_b = result.b_weight
            return (candidate, cand_ssb, cand_s, cand_b, 0, "labels",
                    result.stats, result.interrupted)
        candidate, cand_ssb, cand_s, cand_b, count, interrupted = \
            self._enumerate(work, candidate, cand_ssb, cand_s, cand_b, context)
        return (candidate, cand_ssb, cand_s, cand_b, count, "enumeration",
                None, interrupted)

    def _enumerate(self, work: DoublyWeightedGraph, candidate: Optional[Path],
                   cand_ssb: float, cand_s: float, cand_b: float,
                   context: Optional[SolveContext] = None
                   ) -> Tuple[Optional[Path], float, float, float, int,
                              Optional[str]]:
        """Exhaustive fallback: walk paths in non-decreasing S order."""
        count = 0
        interrupted: Optional[str] = None
        for path in iter_paths_by_weight(work.graph, work.source, work.target,
                                         weight=SIGMA_ATTR):
            count += 1
            if context is not None:
                interrupted = context.interrupted()
                if interrupted is not None:
                    break
            s_weight = self.measures.s_weight(path)
            if self.weighting.lambda_s * s_weight >= cand_ssb:
                break
            b_weight = self.measures.b_weight_colored(path)
            ssb_weight = self.weighting.combine(s_weight, b_weight)
            if ssb_weight < cand_ssb:
                candidate, cand_ssb, cand_s, cand_b = path, ssb_weight, s_weight, b_weight
                if context is not None:
                    context.report_incumbent(cand_ssb, source="enumeration")
        return candidate, cand_ssb, cand_s, cand_b, count, interrupted

    # -------------------------------------------------------------- expansion
    def _try_expand(self, work: DoublyWeightedGraph, path: Path,
                    b_weight: float, index: DagIndex,
                    beta_index: MaxBetaIndex) -> Tuple[bool, int]:
        """Apply the paper's expansion step if it is applicable.

        Returns ``(expanded, number_of_super_edges_added)``.  The expansion is
        applicable when

        * the bottleneck colour's edges are consecutive along the current
          path (the situation Figure 9 illustrates),
        * the graph is a DAG (true for assignment graphs), and
        * no edge crosses the boundary of the expansion region other than at
          its two end nodes, so every path through the region's interior is
          represented by one of the new super-edges.

        Reachability questions go through the :class:`DagIndex`, whose cache
        is keyed to the graph's mutation counter — within one iteration the
        graph is stable, so the former per-call reversed-graph copy and
        re-sweeps are gone.
        """
        loads = PathMeasures.color_loads(path)
        bottleneck_color = max(loads, key=lambda c: loads[c])

        positions = [i for i, edge in enumerate(path.edges)
                     if DoublyWeightedGraph.beta_map(edge).get(bottleneck_color, 0.0) > 0.0]
        if len(positions) <= 1:
            return False, 0
        if positions != list(range(positions[0], positions[-1] + 1)):
            return False, 0  # not consecutive: Figure-9 expansion does not apply

        region_start = path.edges[positions[0]].tail
        region_end = path.edges[positions[-1]].head
        if region_start == region_end:
            return False, 0
        if not index.is_dag():
            return False, 0

        # Region = every node lying on some region_start -> region_end path.
        forward = index.reachable_from(region_start)
        backward = index.reachable_to(region_end)
        region_nodes = (forward & backward) | {region_start, region_end}
        interior = region_nodes - {region_start, region_end}

        # One pass: collect the region's edges and reject edges hopping over
        # the region boundary into/out of the interior.
        region_edges = []
        for edge in work.graph.edges():
            in_region = edge.tail in region_nodes and edge.head in region_nodes
            if in_region:
                region_edges.append(edge)
            elif edge.tail in interior or edge.head in interior:
                return False, 0
        if not region_edges:
            return False, 0

        subpaths = self._region_paths(region_edges, region_start, region_end)
        if not subpaths:
            return False, 0

        # Replace the region's edges by one super-edge per possible sub-path.
        work.graph.remove_edges(e.key for e in region_edges)
        added = 0
        for sub in subpaths:
            sigma = sum(DoublyWeightedGraph.sigma(e) for e in sub)
            beta: Dict[Optional[str], float] = {}
            constituents: List[Edge] = []
            for e in sub:
                for color, value in DoublyWeightedGraph.beta_map(e).items():
                    beta[color] = beta.get(color, 0.0) + float(value)
                nested = e.data.get(SUB_EDGES_ATTR)
                constituents.extend(nested if nested else (e,))
            super_edge = work.add_edge(region_start, region_end, sigma=sigma, beta=beta,
                                       **{SUB_EDGES_ATTR: tuple(constituents)})
            beta_index.push(super_edge)
            added += 1
        return True, added

    @staticmethod
    def _region_paths(region_edges: Sequence[Edge], start: Node, end: Node
                      ) -> List[Tuple[Edge, ...]]:
        """All edge sequences from ``start`` to ``end`` within the region."""
        out_edges: Dict[Node, List[Edge]] = {}
        for edge in region_edges:
            out_edges.setdefault(edge.tail, []).append(edge)

        results: List[Tuple[Edge, ...]] = []
        stack: List[Tuple[Node, Tuple[Edge, ...]]] = [(start, ())]
        while stack:
            node, so_far = stack.pop()
            if node == end and so_far:
                results.append(so_far)
                continue
            for edge in out_edges.get(node, []):
                # region graphs are DAGs, so no visited-set is needed
                stack.append((edge.head, so_far + (edge,)))
        return results


def find_optimal_colored_ssb_path(dwg: DoublyWeightedGraph,
                                  weighting: Optional[SSBWeighting] = None
                                  ) -> ColoredSSBResult:
    """Convenience wrapper: run :class:`ColoredSSBSearch` with default settings."""
    return ColoredSSBSearch(weighting=weighting).search(dwg)
