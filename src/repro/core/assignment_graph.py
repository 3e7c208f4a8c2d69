"""Building the coloured assignment graph (paper §5.2).

Bokhari's construction — kept by the paper — closes the task tree by merging
all sensors into a single dummy node ``A``, inserts a node into every face of
the resulting planar graph plus one node on each side of the tree (``S`` on
the left, ``T`` on the right), and connects two face nodes whenever their
faces share a tree edge.  The resulting *assignment graph* is the planar dual
of the closed tree: every tree edge is crossed by exactly one assignment
edge, every ``S→T`` path crosses a set of tree edges that forms a valid cut
(a partition of the CRU tree between host and satellites), and vice versa.
Assignment edges inherit the colour of the tree edge they cross; conflicted
tree edges (subtree spanning several satellites) are not cuttable and produce
no assignment edge.

Instead of drawing the tree we use the equivalent *interval dual*: number the
leaves 1..m in DFS (left-to-right) order; every tree edge covers a contiguous
leaf interval ``[i..j]`` and becomes the assignment edge ``F_{i-1} → F_j``
(faces are numbered 0..m, ``S = F_0``, ``T = F_m``).  An ``S→T`` path is then
a partition of the leaf sequence into consecutive runs, each run being the
full leaf set of one cut subtree — exactly the cuts of the drawn construction.
The graph is a DAG whose edges always advance the face index, which the
adapted SSB search exploits.

Every label of the dual is a subtree aggregate over the tree's cached
pre-order index, so :func:`build_assignment_graph` is one parents-first pass
over it: a leaf-count prefix sum gives each subtree's leaf interval, the
Figure-8 σ of :mod:`repro.core.labeling` and β of
:meth:`AssignmentProblem.offload_costs` are read by pre-order position, and
the owning satellite comes from the memoised correspondent map.  The §5.1
:class:`~repro.core.coloring.ColoredTree` is not needed for any of this; it
is built on demand, the first time :attr:`ColoredAssignmentGraph.colored_tree`
is read.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.assignment import Assignment
from repro.core.coloring import ColoredTree, color_tree
from repro.core.dwg import (
    BETA_ATTR,
    COLOR_ATTR,
    DoublyWeightedGraph,
    SIGMA_ATTR,
    TREE_EDGE_ATTR,
)
from repro.core.labeling import preorder_host_weights
from repro.graphs.digraph import Edge
from repro.graphs.paths import Path
from repro.model.problem import AssignmentProblem

#: Extra edge attributes stored on assignment-graph edges.
SATELLITE_ATTR = "satellite"
INTERVAL_ATTR = "leaf_interval"
SUB_EDGES_ATTR = "sub_edges"   # set by the expansion step of the adapted search


class AssignmentGraphError(ValueError):
    """Raised when the problem instance cannot produce an assignment graph."""


class ColoredAssignmentGraph:
    """The coloured, doubly weighted assignment graph of a problem instance.

    Attributes
    ----------
    problem:
        The instance the graph was built from.
    colored_tree:
        The §5.1 colouring of the instance: the one passed to the builder,
        else computed by :func:`~repro.core.coloring.color_tree` on first
        access (the edges already carry their colours and satellites).
    dwg:
        The doubly weighted graph; ``dwg.source`` is the left outer face
        (``S``), ``dwg.target`` the right outer face (``T``).
    leaf_positions:
        Leaf CRU id -> 1-based position in DFS order.
    num_faces:
        Number of face nodes (``number of leaves + 1``).
    """

    def __init__(self, problem: AssignmentProblem, dwg: DoublyWeightedGraph,
                 leaf_positions: Dict[str, int], num_faces: int,
                 colored_tree: Optional[ColoredTree] = None) -> None:
        self.problem = problem
        self.dwg = dwg
        self.leaf_positions = leaf_positions
        self.num_faces = num_faces
        self._colored_tree = colored_tree

    @property
    def colored_tree(self) -> ColoredTree:
        if self._colored_tree is None:
            self._colored_tree = color_tree(self.problem)
        return self._colored_tree

    # ----------------------------------------------------------------- edges
    def tree_edge_of(self, edge: Edge) -> Tuple[str, str]:
        """The CRU tree edge ``(parent, child)`` crossed by an assignment edge."""
        return edge.data[TREE_EDGE_ATTR]

    def satellite_of(self, edge: Edge) -> Optional[str]:
        return edge.data.get(SATELLITE_ATTR)

    def edge_for_tree_edge(self, parent_id: str, child_id: str) -> Edge:
        """The assignment edge crossing a given (non-conflicted) tree edge."""
        for edge in self.dwg.edges():
            if edge.data.get(TREE_EDGE_ATTR) == (parent_id, child_id):
                return edge
        raise KeyError(f"no assignment edge crosses tree edge ({parent_id!r}, {child_id!r})")

    # ----------------------------------------------------------- conversions
    def path_to_cut(self, path: Path) -> List[str]:
        """Children of the tree edges crossed by a path (the offloaded subtree
        roots / raw-data sensors)."""
        cut: List[str] = []
        for edge in path.edges:
            sub_edges = edge.data.get(SUB_EDGES_ATTR)
            members = sub_edges if sub_edges else (edge,)
            for member in members:
                tree_edge = member.data.get(TREE_EDGE_ATTR)
                if tree_edge is None:
                    raise ValueError(f"assignment edge {member!r} lacks tree-edge provenance")
                cut.append(tree_edge[1])
        return cut

    def path_to_assignment(self, path: Path) -> Assignment:
        """Convert an ``S→T`` path into the partition it represents."""
        cut_children = self.path_to_cut(path)
        # sensors in the cut simply mean "raw data crosses the link"; only
        # processing subtrees are offloaded
        offloaded = [c for c in cut_children if self.problem.tree.cru(c).is_processing]
        return Assignment.from_cut(self.problem, offloaded)

    def assignment_to_path(self, assignment: Assignment) -> Path:
        """Inverse conversion: the unique path crossing the assignment's cut edges."""
        wanted = {tuple(edge) for edge in assignment.cut_edges()}
        chosen: Dict[int, Edge] = {}
        for edge in self.dwg.edges():
            tree_edge = edge.data.get(TREE_EDGE_ATTR)
            if tree_edge in wanted:
                chosen[edge.tail] = edge
        # stitch the edges together from S to T
        edges: List[Edge] = []
        node = self.dwg.source
        while node != self.dwg.target:
            if node not in chosen:
                raise ValueError(
                    "assignment does not correspond to a path of this graph "
                    f"(stuck at face {node!r})")
            edge = chosen[node]
            edges.append(edge)
            node = edge.head
        return Path.from_edges(edges)

    # ----------------------------------------------------------------- sizes
    def number_of_edges(self) -> int:
        return self.dwg.number_of_edges()

    def number_of_nodes(self) -> int:
        return self.dwg.number_of_nodes()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ColoredAssignmentGraph(faces={self.num_faces}, "
            f"edges={self.number_of_edges()})"
        )


def build_assignment_graph(problem: AssignmentProblem,
                           colored_tree: Optional[ColoredTree] = None) -> ColoredAssignmentGraph:
    """Construct the coloured, doubly weighted assignment graph of an instance.

    The interval dual comes from the tree's pre-order index: with
    ``before[i]`` the number of leaves ahead of position ``i`` (a prefix
    sum), the subtree at ``i`` covers leaves ``before[i] + 1 ..
    before[i + size[i]]``.  One parents-first pass then turns every parent
    edge that is not conflicted into the assignment edge between those
    faces, in pre-order of the child (:meth:`CRUTree.edges` order), carrying
    σ, β as ``{colour: β}``, the colour, the tree edge, the owning satellite
    and the leaf interval.

    ``colored_tree`` is kept as :attr:`ColoredAssignmentGraph.colored_tree`
    when given; otherwise the §5.1 colouring is computed only if that
    attribute is read.

    Raises
    ------
    AssignmentGraphError
        If some leaf of the CRU tree is not a sensor (the closed tree then has
        a branch that can never be cut, i.e. the instance is degenerate), or
        if the instance has no sensors at all.
    ValueError
        If a cuttable edge gets a negative σ or β (possible only on an
        instance that skipped validation).
    """
    tree = problem.tree
    order, _, size = tree.tree.preorder_index()
    n = len(order)

    # leaf-count prefix sum over the pre-order; leaves are numbered 1..m
    before = [0] * (n + 1)
    leaf_positions: Dict[str, int] = {}
    non_sensor_leaves: List[str] = []
    for i, cru_id in enumerate(order):
        before[i] = len(leaf_positions)
        if size[i] == 1:
            leaf_positions[cru_id] = len(leaf_positions) + 1
            if not tree.cru(cru_id).is_sensor:
                non_sensor_leaves.append(cru_id)
    num_leaves = before[n] = len(leaf_positions)
    if not num_leaves:
        raise AssignmentGraphError("the CRU tree has no leaves")
    if non_sensor_leaves:
        raise AssignmentGraphError(
            "every leaf of the CRU tree must be a sensor; offending leaves: "
            f"{non_sensor_leaves!r}")

    sigma = preorder_host_weights(tree, problem.profile)
    beta = problem.offload_costs()
    correspondent = problem.correspondent_satellites()
    color_of = problem.system.color_of

    dwg = DoublyWeightedGraph(source=0, target=num_leaves)
    graph = dwg.graph
    for face in range(num_leaves + 1):
        graph.add_node(face)

    for i, tree_edge in enumerate(tree.edges(), 1):
        child_id = tree_edge[1]
        satellite_id = correspondent[child_id]
        if satellite_id is None:
            continue  # conflicted, not cuttable: the CRUs above stay on the host
        sigma_weight = float(sigma[i])
        beta_weight = float(beta[child_id])
        if sigma_weight < 0:
            raise ValueError("sigma weight must be non-negative")
        color = color_of(satellite_id)
        if beta_weight < 0:
            raise ValueError(f"beta weight must be non-negative (colour {color!r})")
        lo, hi = before[i] + 1, before[i + size[i]]
        graph.add_edge(
            lo - 1,
            hi,
            **{
                SIGMA_ATTR: sigma_weight,
                BETA_ATTR: {color: beta_weight},
                COLOR_ATTR: (color,),
                TREE_EDGE_ATTR: tree_edge,
                SATELLITE_ATTR: satellite_id,
                INTERVAL_ATTR: (lo, hi),
            },
        )

    return ColoredAssignmentGraph(
        problem=problem,
        dwg=dwg,
        leaf_positions=leaf_positions,
        num_faces=num_leaves + 1,
        colored_tree=colored_tree,
    )
