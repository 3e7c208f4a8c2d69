"""DAG-specific search primitives: single-pass shortest paths, potentials and
a mutation-aware structure cache.

The coloured assignment graph (paper §5.2) is a DAG whose edges strictly
advance the face index, so everything the SSB machinery needs from it —
shortest σ paths, min-σ "potentials" to the target, forward/backward
reachability for the expansion step — can be computed in a single topological
sweep instead of a heap-based Dijkstra or a reversed graph copy.

:class:`DagIndex` memoises those derived structures against the graph's
:attr:`~repro.graphs.digraph.DiGraph.version` counter: the SSB elimination
loop removes a few edges per iteration and then asks the same questions
again, so every query after an unchanged iteration is a dictionary lookup.
The label-dominance engine (:mod:`repro.core.label_search`) leans on the
same index for its topological sweep; it computes its bound-pruning
potentials itself, all of them in one walk.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.graphs.connectivity import reachable_from, reachable_to, topological_order
from repro.graphs.digraph import DiGraph, Edge, Node
from repro.graphs.dijkstra import WeightSpec, weight_fn as _weight_fn
from repro.graphs.paths import Path


class NotADagError(ValueError):
    """Raised when a DAG-only routine receives a graph with a directed cycle."""


def dag_shortest_path(graph: DiGraph, source: Node, target: Node,
                      weight: WeightSpec = "weight",
                      order: Optional[List[Node]] = None) -> Optional[Path]:
    """Shortest ``source -> target`` path of a DAG in one topological pass.

    Unlike Dijkstra this tolerates arbitrary (also negative) weights; it
    raises :class:`NotADagError` on cyclic graphs.  ``order`` may carry a
    precomputed topological order to avoid recomputing it.
    """
    if not graph.has_node(source) or not graph.has_node(target):
        return None
    wf = _weight_fn(weight)
    if order is None:
        order = dag_topological_order(graph)

    dist: Dict[Node, float] = {source: 0.0}
    pred: Dict[Node, Edge] = {}
    for node in order:
        if node not in dist:
            continue
        if node == target:
            break
        d = dist[node]
        for edge in graph.out_edges(node):
            nd = d + wf(edge)
            head = edge.head
            if head not in dist or nd < dist[head]:
                dist[head] = nd
                pred[head] = edge
    if target not in dist:
        return None
    if source == target:
        return Path.empty(source)
    edges: List[Edge] = []
    node = target
    while node != source:
        edge = pred[node]
        edges.append(edge)
        node = edge.tail
    edges.reverse()
    return Path.from_edges(edges)


def min_weight_to_target(graph: DiGraph, target: Node,
                         weight: WeightSpec = "weight",
                         order: Optional[List[Node]] = None) -> Dict[Node, float]:
    """Minimum total weight from every node to ``target`` (backward DAG DP).

    Nodes that cannot reach ``target`` are absent from the result.  The
    values are admissible "potentials": any partial path at node ``v`` needs
    at least ``pot[v]`` additional weight to complete.  (The label engine
    computes all of its potentials in one walk of its own; this
    single-weight pass is the reference its tests compare against.)
    """
    if not graph.has_node(target):
        raise KeyError(f"target {target!r} not in graph")
    wf = _weight_fn(weight)
    if order is None:
        order = dag_topological_order(graph)
    pot: Dict[Node, float] = {target: 0.0}
    for node in reversed(order):
        if node == target:
            continue
        best = None
        for edge in graph.out_edges(node):
            tail = pot.get(edge.head)
            if tail is None:
                continue
            value = wf(edge) + tail
            if best is None or value < best:
                best = value
        if best is not None:
            pot[node] = best
    return pot


def dag_topological_order(graph: DiGraph) -> List[Node]:
    """Topological order of ``graph``; raises :class:`NotADagError` on cycles."""
    try:
        return topological_order(graph)
    except ValueError as exc:
        raise NotADagError(str(exc)) from exc


class DagIndex:
    """Cached structural queries over a (possibly mutating) directed graph.

    The index holds the topological order and the forward/backward
    reachability sets of a graph and recomputes them lazily
    whenever the graph's :attr:`~repro.graphs.digraph.DiGraph.version`
    counter has moved — i.e. exactly when an edge or node was added or
    removed, never merely because time passed.  All queries are therefore
    safe to issue once per SSB iteration at amortised dictionary-lookup cost.
    """

    def __init__(self, graph: DiGraph) -> None:
        self.graph = graph
        self._version = -1
        self._order: Optional[List[Node]] = None
        self._acyclic: Optional[bool] = None
        self._forward: Dict[Node, Set[Node]] = {}
        self._backward: Dict[Node, Set[Node]] = {}

    # ------------------------------------------------------------- lifecycle
    def _sync(self) -> None:
        if self._version != self.graph.version:
            self._version = self.graph.version
            self._order = None
            self._acyclic = None
            self._forward.clear()
            self._backward.clear()

    # --------------------------------------------------------------- queries
    def is_dag(self) -> bool:
        self._sync()
        if self._acyclic is None:
            try:
                self._order = topological_order(self.graph)
                self._acyclic = True
            except ValueError:
                self._acyclic = False
        return self._acyclic

    def order(self) -> List[Node]:
        """Topological order (cached); raises :class:`NotADagError` on cycles."""
        if not self.is_dag():
            raise NotADagError("graph has a directed cycle; no topological order exists")
        assert self._order is not None
        return self._order

    def reachable_from(self, node: Node) -> Set[Node]:
        """Forward reachability set of ``node`` (cached per graph version)."""
        self._sync()
        cached = self._forward.get(node)
        if cached is None:
            cached = self._forward[node] = reachable_from(self.graph, node)
        return cached

    def reachable_to(self, node: Node) -> Set[Node]:
        """Backward reachability set of ``node`` (cached per graph version)."""
        self._sync()
        cached = self._backward.get(node)
        if cached is None:
            cached = self._backward[node] = reachable_to(self.graph, node)
        return cached

    def shortest_path(self, source: Node, target: Node,
                      weight: WeightSpec = "weight") -> Optional[Path]:
        """Single-pass DAG shortest path reusing the cached topological order."""
        return dag_shortest_path(self.graph, source, target, weight,
                                 order=self.order())
