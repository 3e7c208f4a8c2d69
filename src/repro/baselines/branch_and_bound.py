"""Branch-and-bound solver (paper §6 future work).

The paper's conclusion names branch-and-bound as one of the approaches for
the general assignment problem.  For the tree-to-host-satellites case the
decision space is the set of feasible cuts; this solver explores it with
depth-first branch-and-bound:

* **branching**: process the root's children branch by branch; at every node
  that could be offloaded, branch between *offload the whole subtree here*
  and *keep this node on the host and descend into its children*;
* **bounding**: a partial solution's cost can only grow — the host time
  already committed plus the largest per-satellite load already committed is
  a valid lower bound on every completion — so subtrees whose bound meets
  the incumbent are pruned;
* **incumbent**: the greedy heuristic provides the initial upper bound.

Because the bound is admissible and branching is exhaustive, the solver is
exact; it serves as a third independent optimum oracle in the test-suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.baselines.greedy import greedy_assignment
from repro.core.assignment import Assignment
from repro.core.context import SolveContext
from repro.model.problem import AssignmentProblem

#: Explored nodes between two context polls (node bodies are tiny).
_CONTEXT_STRIDE = 256


def branch_and_bound_assignment(problem: AssignmentProblem,
                                use_greedy_incumbent: bool = True,
                                node_limit: Optional[int] = None,
                                context: Optional[SolveContext] = None,
                                **_ignored) -> Tuple[Assignment, Dict[str, object]]:
    """Exact branch-and-bound over feasible cuts.

    Anytime: ``context`` is polled once per candidate move of the greedy
    seed's climb and then every :data:`_CONTEXT_STRIDE` explored nodes; on
    expiry the climb or the exploration stops (like an exhausted node
    budget) and the incumbent — the greedy seed until a branch beats it —
    is returned with ``details["interrupted"]`` set.
    """
    tree = problem.tree
    satellite_ids = problem.system.satellite_ids()
    sat_index = {sid: i for i, sid in enumerate(satellite_ids)}
    n_sats = len(satellite_ids)

    # Pre-compute, per CRU, the satellite-side cost of offloading its subtree.
    offload_cost: Dict[str, Optional[Tuple[int, float]]] = {}
    for cru_id, beta in problem.offload_costs().items():
        satellite = problem.correspondent_satellite(cru_id)
        offload_cost[cru_id] = (None if satellite is None
                                else (sat_index[satellite], beta))

    # The branches to cover: the root's children (the root is host-bound).
    branches = tree.children_ids(tree.root_id)

    best_cut: Optional[List[str]] = None
    best_value = float("inf")
    interrupted: Optional[str] = None
    if use_greedy_incumbent or context is not None:
        # under a context the greedy incumbent doubles as the guaranteed
        # anytime answer, so it is always seeded; its climb polls the
        # context, and a climb the context stopped skips the branching
        incumbent, seeded = greedy_assignment(problem, context=context)
        best_value = incumbent.end_to_end_delay()
        best_cut = incumbent.cut_children()
        interrupted = seeded.get("interrupted")
        if context is not None:
            context.report_incumbent(best_value, source="b&b-greedy-seed")

    explored = 0
    pruned = 0
    limit_hit = False

    # Work list of "pending" nodes still to be covered, processed depth-first.
    def recurse(pending: List[str], host_time: float, loads: List[float],
                cut: List[str]) -> None:
        nonlocal best_cut, best_value, explored, pruned, limit_hit, interrupted
        if limit_hit or interrupted is not None:
            return
        explored += 1
        if node_limit is not None and explored > node_limit:
            limit_hit = True
            return
        if context is not None and explored % _CONTEXT_STRIDE == 0:
            interrupted = context.interrupted()
            if interrupted is not None:
                return

        bound = host_time + (max(loads) if loads else 0.0)
        if bound >= best_value - 1e-12:
            pruned += 1
            return
        if not pending:
            if bound < best_value:
                best_value = bound
                best_cut = list(cut)
                if context is not None:
                    context.report_incumbent(best_value, source="b&b")
            return

        node = pending[0]
        rest = pending[1:]

        # Option 1: offload the whole subtree of `node` (if possible).
        option = offload_cost[node]
        if option is not None:
            idx, load = option
            loads[idx] += load
            cut.append(node)
            recurse(rest, host_time, loads, cut)
            cut.pop()
            loads[idx] -= load

        # Option 2: keep `node` on the host and descend into its children.
        if tree.cru(node).is_processing:
            children = tree.children_ids(node)
            recurse(children + rest, host_time + problem.host_time(node), loads, cut)

    recurse(list(branches), problem.host_time(tree.root_id), [0.0] * n_sats, [])

    if best_cut is None:
        raise RuntimeError("the instance admits no feasible assignment")
    offloaded = [c for c in best_cut if tree.cru(c).is_processing]
    assignment = Assignment.from_cut(problem, offloaded)
    details: Dict[str, object] = {
        "explored": explored,
        "pruned": pruned,
        "delay": assignment.end_to_end_delay(),
        "node_limit_hit": limit_hit,
    }
    if interrupted is not None:
        details["interrupted"] = interrupted
    return assignment, details
