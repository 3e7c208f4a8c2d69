"""A small weighted directed multigraph.

The assignment graph of the paper is a *multigraph*: two faces of the closed
CRU tree can be separated by several tree edges (e.g. a CRU receiving several
sensor feeds), each of which becomes its own assignment-graph edge with its
own pair of weights and its own colour.  Hash-based adjacency with explicit
edge keys keeps every parallel edge addressable, which the SSB algorithm needs
when it deletes individual edges between iterations.

Nodes can be any hashable object.  Edge attributes are free-form keyword
arguments stored on the :class:`Edge` record; the core package stores the
``sigma`` / ``beta`` weights and the ``color`` there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

Node = Hashable


@dataclass(frozen=True)
class Edge:
    """A single directed edge of a :class:`DiGraph`.

    Attributes
    ----------
    key:
        Graph-unique integer identifier.  Parallel edges differ by key.
    tail, head:
        Source and target nodes.
    data:
        Arbitrary edge attributes (weights, colours, provenance).
    """

    key: int
    tail: Node
    head: Node
    data: Dict[str, Any] = field(compare=False, default_factory=dict)

    def __getitem__(self, name: str) -> Any:
        return self.data[name]

    def get(self, name: str, default: Any = None) -> Any:
        return self.data.get(name, default)

    def endpoints(self) -> Tuple[Node, Node]:
        return (self.tail, self.head)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Edge({self.tail!r}->{self.head!r}, key={self.key}, {self.data})"


class DiGraph:
    """Weighted directed multigraph with O(1) edge removal by key.

    The structure intentionally mirrors the handful of operations the
    assignment algorithms need: add/remove nodes and edges, iterate
    out-edges, look edges up by key, and copy the graph (the SSB algorithm
    works on a shrinking copy of the original graph).
    """

    def __init__(self) -> None:
        self._succ: Dict[Node, Dict[int, Edge]] = {}
        self._pred: Dict[Node, Dict[int, Edge]] = {}
        self._edges: Dict[int, Edge] = {}
        self._key_counter = itertools.count()
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic structural-mutation counter.

        Incremented by every node/edge addition or removal, so derived
        structures (topological orders, reachability sets, potentials — see
        :class:`repro.graphs.dag.DagIndex`) can cache their results and
        invalidate only when the graph actually changed.
        """
        return self._version

    # ------------------------------------------------------------------ nodes
    def add_node(self, node: Node) -> Node:
        """Add ``node`` if not already present and return it."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}
            self._version += 1
        return node

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every incident edge."""
        if node not in self._succ:
            raise KeyError(f"node {node!r} not in graph")
        for edge in list(self._succ[node].values()):
            self.remove_edge(edge.key)
        for edge in list(self._pred[node].values()):
            self.remove_edge(edge.key)
        del self._succ[node]
        del self._pred[node]
        self._version += 1

    def has_node(self, node: Node) -> bool:
        return node in self._succ

    def nodes(self) -> List[Node]:
        return list(self._succ)

    def number_of_nodes(self) -> int:
        return len(self._succ)

    # ------------------------------------------------------------------ edges
    def add_edge(self, tail: Node, head: Node, **data: Any) -> Edge:
        """Add a directed edge ``tail -> head`` carrying ``data``.

        Parallel edges are allowed; each call creates a new edge with a fresh
        key.
        """
        self.add_node(tail)
        self.add_node(head)
        key = next(self._key_counter)
        edge = Edge(key=key, tail=tail, head=head, data=dict(data))
        self._edges[key] = edge
        self._succ[tail][key] = edge
        self._pred[head][key] = edge
        self._version += 1
        return edge

    def remove_edge(self, key: int) -> Edge:
        """Remove and return the edge identified by ``key``."""
        try:
            edge = self._edges.pop(key)
        except KeyError:
            raise KeyError(f"edge key {key} not in graph") from None
        del self._succ[edge.tail][key]
        del self._pred[edge.head][key]
        self._version += 1
        return edge

    def remove_edges(self, keys: Iterable[int]) -> List[Edge]:
        """Remove several edges by key, returning the removed edges."""
        return [self.remove_edge(key) for key in list(keys)]

    def has_edge(self, key: int) -> bool:
        return key in self._edges

    def edge(self, key: int) -> Edge:
        return self._edges[key]

    def edges(self) -> List[Edge]:
        return list(self._edges.values())

    def number_of_edges(self) -> int:
        return len(self._edges)

    def edges_between(self, tail: Node, head: Node) -> List[Edge]:
        """All parallel edges from ``tail`` to ``head``."""
        if tail not in self._succ:
            return []
        return [e for e in self._succ[tail].values() if e.head == head]

    # -------------------------------------------------------------- adjacency
    def out_edges(self, node: Node) -> List[Edge]:
        if node not in self._succ:
            raise KeyError(f"node {node!r} not in graph")
        return list(self._succ[node].values())

    def in_edges(self, node: Node) -> List[Edge]:
        if node not in self._pred:
            raise KeyError(f"node {node!r} not in graph")
        return list(self._pred[node].values())

    def successors(self, node: Node) -> List[Node]:
        return [e.head for e in self.out_edges(node)]

    def predecessors(self, node: Node) -> List[Node]:
        return [e.tail for e in self.in_edges(node)]

    def out_degree(self, node: Node) -> int:
        return len(self._succ[node])

    def in_degree(self, node: Node) -> int:
        return len(self._pred[node])

    # ------------------------------------------------------------------ misc
    def copy(self) -> "DiGraph":
        """Deep-ish copy: nodes and edges are new records, attribute dicts are
        copied one level deep, edge keys are preserved."""
        g = DiGraph()
        for node in self._succ:
            g.add_node(node)
        for edge in self._edges.values():
            new_edge = Edge(key=edge.key, tail=edge.tail, head=edge.head, data=dict(edge.data))
            g._edges[edge.key] = new_edge
            g._succ[edge.tail][edge.key] = new_edge
            g._pred[edge.head][edge.key] = new_edge
        # keep generating keys above any existing key
        max_key = max(self._edges, default=-1)
        g._key_counter = itertools.count(max_key + 1)
        return g

    def subgraph(self, nodes: Iterable[Node]) -> "DiGraph":
        """Subgraph induced by ``nodes`` (edges keep their keys)."""
        keep = set(nodes)
        g = DiGraph()
        for node in keep:
            if node in self._succ:
                g.add_node(node)
        for edge in self._edges.values():
            if edge.tail in keep and edge.head in keep:
                new_edge = Edge(key=edge.key, tail=edge.tail, head=edge.head, data=dict(edge.data))
                g._edges[edge.key] = new_edge
                g._succ[edge.tail][edge.key] = new_edge
                g._pred[edge.head][edge.key] = new_edge
        max_key = max(self._edges, default=-1)
        g._key_counter = itertools.count(max_key + 1)
        return g

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    def __len__(self) -> int:
        return len(self._succ)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DiGraph(|V|={self.number_of_nodes()}, |E|={self.number_of_edges()})"
        )
