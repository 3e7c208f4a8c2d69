"""Doubly weighted graphs and the S / B / SSB path measures (paper §4.1).

A doubly weighted graph (DWG) ``G=(V,E)`` carries two ordered non-negative
weights on every edge: a *sum* weight ``σ(e)`` and a *bottleneck* weight
``β(e)``.  For a path ``P`` between two distinguished nodes the paper defines

* ``S(P) = Σ σ(e)``  (sum of the sum weights),
* ``B(P) = max β(e)``  (maximum of the bottleneck weights), and
* ``SSB(P) = λ_S·S(P) + λ_B·B(P)`` — the paper writes the convex form
  ``λ·S + (1-λ)·B`` but its worked example (Figure 4) and the end-to-end
  delay semantics use the plain sum ``S + B``, so the default weighting here
  is ``λ_S = λ_B = 1``.

Bokhari's earlier measure is ``SB(P) = max(S(P), B(P))``; it is provided for
the comparison experiments.

The *coloured* DWG of §5 additionally tags every edge with the colour of the
satellite it refers to, and replaces the bottleneck measure by the maximum
over colours of the per-colour β sums.  Both the plain and the coloured
measures are computed by :class:`PathMeasures`.  Super-edges created by the
expansion step of the adapted algorithm carry several colours at once, so
β is stored as a mapping ``colour -> value``; plain single-colour edges are a
special case with a one-entry mapping (or the reserved ``None`` colour for
uncoloured graphs).
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.graphs.digraph import DiGraph, Edge, Node
from repro.graphs.paths import Path

#: Edge-attribute names used on the underlying :class:`DiGraph`.
SIGMA_ATTR = "sigma"
BETA_ATTR = "beta"          # mapping colour -> beta value
COLOR_ATTR = "colors"       # tuple of colours present on the edge
TREE_EDGE_ATTR = "tree_edge"  # (parent_id, child_id) provenance, optional

#: Colour used for edges of an uncoloured DWG.
UNCOLORED = None


@dataclass(frozen=True)
class SSBWeighting:
    """Weighting coefficients of the SSB measure.

    ``SSB(P) = lambda_s * S(P) + lambda_b * B(P)``.

    ``SSBWeighting.convex(lam)`` produces the paper's normalised form
    ``λ·S + (1-λ)·B``.
    """

    lambda_s: float = 1.0
    lambda_b: float = 1.0

    def __post_init__(self) -> None:
        if self.lambda_s < 0 or self.lambda_b < 0:
            raise ValueError("SSB weighting coefficients must be non-negative")
        if self.lambda_s == 0 and self.lambda_b == 0:
            raise ValueError("SSB weighting coefficients cannot both be zero")

    @staticmethod
    def convex(lam: float) -> "SSBWeighting":
        """The paper's ``λ·S + (1-λ)·B`` form, ``0 ≤ λ ≤ 1``."""
        if not 0.0 <= lam <= 1.0:
            raise ValueError("λ must lie in [0, 1]")
        return SSBWeighting(lambda_s=lam, lambda_b=1.0 - lam)

    def combine(self, s_weight: float, b_weight: float) -> float:
        return self.lambda_s * s_weight + self.lambda_b * b_weight


class DoublyWeightedGraph:
    """A DWG with distinguished source/target nodes.

    The class wraps a :class:`~repro.graphs.digraph.DiGraph` whose edges carry
    the ``sigma`` weight, a ``beta`` mapping (colour -> bottleneck value) and
    the tuple of colours present.  For uncoloured DWGs (paper §4) the single
    colour is :data:`UNCOLORED`.
    """

    def __init__(self, source: Node = "S", target: Node = "T") -> None:
        self.graph = DiGraph()
        self.source = source
        self.target = target
        self.graph.add_node(source)
        self.graph.add_node(target)

    # ---------------------------------------------------------------- build
    def add_edge(
        self,
        tail: Node,
        head: Node,
        sigma: float,
        beta: Union[float, Mapping[Optional[str], float]],
        color: Optional[str] = UNCOLORED,
        **extra,
    ) -> Edge:
        """Add a doubly weighted edge.

        ``beta`` may be a plain number (single colour ``color``) or a mapping
        colour -> value for super-edges spanning several colours.
        """
        if sigma < 0:
            raise ValueError("sigma weight must be non-negative")
        if isinstance(beta, Mapping):
            beta_map: Dict[Optional[str], float] = {c: float(v) for c, v in beta.items()}
        else:
            beta_map = {color: float(beta)}
        for c, v in beta_map.items():
            if v < 0:
                raise ValueError(f"beta weight must be non-negative (colour {c!r})")
        colors = tuple(beta_map.keys())
        return self.graph.add_edge(
            tail, head,
            **{SIGMA_ATTR: float(sigma), BETA_ATTR: beta_map, COLOR_ATTR: colors},
            **extra,
        )

    def copy(self) -> "DoublyWeightedGraph":
        dwg = DoublyWeightedGraph(source=self.source, target=self.target)
        dwg.graph = self.graph.copy()
        return dwg

    # --------------------------------------------------------------- access
    @staticmethod
    def sigma(edge: Edge) -> float:
        """σ(e): the sum weight of an edge."""
        return float(edge.data[SIGMA_ATTR])

    @staticmethod
    def beta_map(edge: Edge) -> Dict[Optional[str], float]:
        """β(e) per colour.  Plain edges have exactly one entry."""
        return edge.data[BETA_ATTR]

    @staticmethod
    def beta(edge: Edge) -> float:
        """Total β(e) of an edge (sum over its colours).

        For single-colour edges this is the paper's β(e); for super-edges it
        is the aggregate bottleneck contribution of the represented sub-path.
        """
        return float(sum(edge.data[BETA_ATTR].values()))

    @staticmethod
    def max_beta_component(edge: Edge) -> float:
        """Largest per-colour β component of an edge."""
        return float(max(edge.data[BETA_ATTR].values()))

    @staticmethod
    def colors(edge: Edge) -> Tuple[Optional[str], ...]:
        return edge.data[COLOR_ATTR]

    def edges(self) -> List[Edge]:
        return self.graph.edges()

    def number_of_edges(self) -> int:
        return self.graph.number_of_edges()

    def number_of_nodes(self) -> int:
        return self.graph.number_of_nodes()

    def all_colors(self) -> List[Optional[str]]:
        """All colours appearing on any edge (deterministic order)."""
        seen: Dict[Optional[str], None] = {}
        for edge in self.graph.edges():
            for c in self.colors(edge):
                seen.setdefault(c, None)
        return list(seen)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DoublyWeightedGraph(source={self.source!r}, target={self.target!r}, "
            f"|V|={self.number_of_nodes()}, |E|={self.number_of_edges()})"
        )


class MaxBetaIndex:
    """Descending-β index over the edges of a shrinking search graph.

    Every iteration of the SSB searches removes all edges whose β measure
    reaches the current path's B weight.  Scanning every edge per iteration
    costs O(|E|) even when nothing is removable; this index keeps edge keys in
    a max-heap ordered by β so an iteration only touches the edges it actually
    eliminates.  Entries for edges that left the graph through other means
    (the expansion step replaces whole regions) are discarded lazily, and
    edges added later (super-edges) are pushed as they appear.
    """

    def __init__(self, graph: DiGraph, key: Callable[[Edge], float]) -> None:
        self._graph = graph
        self._key = key
        self._heap: List[Tuple[float, int]] = [(-key(e), e.key) for e in graph.edges()]
        heapq.heapify(self._heap)

    def push(self, edge: Edge) -> None:
        heapq.heappush(self._heap, (-self._key(edge), edge.key))

    def pop_at_least(self, threshold: float) -> List[Edge]:
        """Edges still present whose β measure is ``>= threshold``.

        The returned edges leave the index; the caller is expected to remove
        them from the graph (the elimination step of the SSB searches).
        """
        out: List[Edge] = []
        heap = self._heap
        while heap and -heap[0][0] >= threshold:
            _, edge_key = heapq.heappop(heap)
            if self._graph.has_edge(edge_key):
                out.append(self._graph.edge(edge_key))
        return out


class PathMeasures:
    """S, B and SSB measures of paths of a :class:`DoublyWeightedGraph`."""

    def __init__(self, weighting: Optional[SSBWeighting] = None) -> None:
        self.weighting = weighting or SSBWeighting()

    # ----------------------------------------------------------- components
    @staticmethod
    def s_weight(path: Path) -> float:
        """``S(P) = Σ σ(e)``."""
        return float(sum(DoublyWeightedGraph.sigma(e) for e in path.edges))

    @staticmethod
    def b_weight_plain(path: Path) -> float:
        """Uncoloured bottleneck ``B(P) = max β(e)`` (0 for the empty path)."""
        if not path.edges:
            return 0.0
        return float(max(DoublyWeightedGraph.beta(e) for e in path.edges))

    @staticmethod
    def color_loads(path: Path) -> Dict[Optional[str], float]:
        """Per-colour sums of β along the path (paper §5.4 coloured B weight)."""
        loads: Dict[Optional[str], float] = {}
        for edge in path.edges:
            for color, value in DoublyWeightedGraph.beta_map(edge).items():
                loads[color] = loads.get(color, 0.0) + float(value)
        return loads

    @staticmethod
    def b_weight_colored(path: Path) -> float:
        """``B(P) = max_colour Σ β_colour(e)`` (0 for the empty path)."""
        loads = PathMeasures.color_loads(path)
        if not loads:
            return 0.0
        return float(max(loads.values()))

    # ------------------------------------------------------------ composites
    def ssb_plain(self, path: Path) -> float:
        """SSB weight with the uncoloured bottleneck measure."""
        return self.weighting.combine(self.s_weight(path), self.b_weight_plain(path))

    def ssb_colored(self, path: Path) -> float:
        """SSB weight with the coloured (per-colour-sum) bottleneck measure."""
        return self.weighting.combine(self.s_weight(path), self.b_weight_colored(path))

    @staticmethod
    def sb(path: Path) -> float:
        """Bokhari's SB weight ``max(S(P), B(P))`` with the plain bottleneck."""
        return max(PathMeasures.s_weight(path), PathMeasures.b_weight_plain(path))

    @staticmethod
    def sb_colored(path: Path) -> float:
        """``max(S(P), B(P))`` with the coloured bottleneck measure."""
        return max(PathMeasures.s_weight(path), PathMeasures.b_weight_colored(path))
