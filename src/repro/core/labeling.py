"""Labelling the assignment graph with σ and β weights (paper §5.3).

Every edge of the coloured assignment graph crosses exactly one tree edge of
the closed CRU tree; it receives

* a **bottleneck weight β**: the satellite-side cost of cutting there — the
  satellite execution times of every processing CRU in the cut subtree plus
  the communication cost of shipping the cut edge's data over the
  host-satellite link.  The paper's examples: β of the edge crossing
  ``<CRU3, CRU6>`` is ``s6 + s13 + c63``; β of the edge crossing the sensor
  edge ``<A, CRU10>`` is ``c_{s,10}`` (raw data transfer, no satellite
  processing because sensors do not process).

* a **sum weight σ**: the host-side cost, assigned through Bokhari's pre-order
  "leftmost child" labelling (Figure 8): initialise every tree-edge weight to
  0, walk the tree in pre-order, and when visiting ``CRU_j`` (whose parent
  edge carries weight ``w``) give the edge towards its *leftmost* child the
  weight ``w + h_j``; the left-most edge leaving the root gets ``h_root``.
  With this labelling the σ weights of the edges of any S-T path sum to the
  total host execution time of the CRUs above the cut — each host CRU is
  counted exactly once, on the unique cut edge its leftmost-descendant chain
  crosses.

σ has one implementation: a node's leftmost child directly follows it in
pre-order, so the labelling is one pass over the tree's cached pre-order
index (:func:`preorder_host_weights`).  The per-edge maps below and the
assignment-graph builder both read that pass; β is one entry of
:meth:`AssignmentProblem.offload_costs`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.model.problem import AssignmentProblem
from repro.model.profiles import ExecutionProfile
from repro.model.cru import CRUTree


def preorder_host_weights(tree: CRUTree, profile: ExecutionProfile) -> List[float]:
    """Figure-8 σ of the tree edge entering each node, by pre-order position.

    Entry ``i`` is the label of the edge ``(parent, order[i])``; the root's
    entry is 0.  A node with children has its leftmost child at position
    ``i + 1``, whose edge gets ``incoming(u) + h_u``; every other edge keeps 0.
    """
    order, _, size = tree.tree.preorder_index()
    sigma = [0.0] * len(order)
    for i, cru_id in enumerate(order):
        if size[i] > 1:
            sigma[i + 1] = sigma[i] + profile.host_time(cru_id)
    return sigma


def host_weight_labels(tree: CRUTree, profile: ExecutionProfile) -> Dict[Tuple[str, str], float]:
    """Figure-8 σ labels: map each tree edge ``(parent, child)`` to its host weight.

    Only edges leading to a *leftmost* child carry weight; all other edges are 0.
    """
    sigma = preorder_host_weights(tree, profile)
    # tree.edges() lists the edges in pre-order of the child, from position 1
    return {edge: sigma[i] for i, edge in enumerate(tree.edges(), 1)}


def satellite_cut_cost(problem: AssignmentProblem, parent_id: str, child_id: str) -> float:
    """β label of the assignment edge crossing tree edge ``(parent, child)``.

    Sum of satellite execution times of every processing CRU in the child's
    subtree, plus the communication cost of shipping the child's output (or
    raw sensor data) from the satellite to the host: one entry of
    :meth:`AssignmentProblem.offload_costs`.
    """
    return problem.offload_costs()[child_id]


def label_assignment_graph(problem: AssignmentProblem) -> Tuple[
        Dict[Tuple[str, str], float], Dict[Tuple[str, str], float]]:
    """Compute both label families for every tree edge.

    Returns
    -------
    (sigma_labels, beta_labels):
        Maps keyed by the tree edge ``(parent, child)``.  They are computed
        for *every* tree edge, conflicted or not; the assignment-graph builder
        simply skips the conflicted ones.
    """
    sigma_labels = host_weight_labels(problem.tree, problem.profile)
    beta = problem.offload_costs()
    beta_labels = {(parent, child): beta[child]
                   for parent, child in problem.tree.edges()}
    return sigma_labels, beta_labels
