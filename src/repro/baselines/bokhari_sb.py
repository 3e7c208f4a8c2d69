"""Bokhari's bottleneck objective on host-satellite instances.

Bokhari's original tree-to-host-satellites method minimises the *bottleneck
processing time* ``max(host time, max satellite load)`` — the right objective
when frames are pipelined and throughput matters.  The paper argues that for
context-aware applications the end-to-end delay ``host time + max satellite
load`` of a single frame is the quantity of interest and replaces the SB
measure by the SSB measure.

This baseline applies the SB search to the *same* coloured assignment graph
(i.e. it keeps the paper's relaxation of Bokhari's two structural assumptions
but optimises Bokhari's objective), so experiments can compare the two
objectives on identical instances: the SB-optimal partition typically has a
larger end-to-end delay than the SSB-optimal one, and vice versa for the
bottleneck time.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.assignment import Assignment
from repro.core.assignment_graph import build_assignment_graph
from repro.core.context import SolveContext
from repro.core.sb import SBSearch
from repro.model.problem import AssignmentProblem


def bokhari_sb_assignment(problem: AssignmentProblem,
                          context: Optional[SolveContext] = None
                          ) -> Tuple[Assignment, Dict[str, object]]:
    """The assignment minimising ``max(host time, max satellite load)``.

    Anytime: ``context`` is polled by the SB search; on expiry the current
    candidate is returned with ``details["interrupted"]`` set.
    """
    graph = build_assignment_graph(problem)
    result = SBSearch(colored=True).search(graph.dwg, context=context)
    if not result.found:
        raise RuntimeError("the coloured assignment graph has no S-T path; "
                           "the instance admits no feasible assignment")
    assignment = graph.path_to_assignment(result.path)
    details: Dict[str, object] = {
        "sb_weight": result.sb_weight,
        "s_weight": result.s_weight,
        "b_weight": result.b_weight,
        "iterations": result.iteration_count,
        "termination": result.termination,
        "bottleneck_time": assignment.bottleneck_time(),
        "end_to_end_delay": assignment.end_to_end_delay(),
    }
    if result.interrupted is not None:
        details["interrupted"] = result.interrupted
    return assignment, details
