"""Exhaustive enumeration of feasible partitions (ground-truth reference).

A feasible assignment is fully described by its *cut*: the set of tree-edge
children whose subtrees are offloaded to their correspondent satellites
(sensors whose raw data crosses the link count as single-node "subtrees").
Every root-to-sensor path crosses exactly one cut edge, and a subtree can
only be offloaded when all of its sensors are wired to a single satellite.

The enumeration is exponential in the tree size — the per-node recurrence is
``count(v) = [v offloadable] + Π count(child)`` — so this module is a test
oracle for small instances, not a solver.  The exact solver for realistic
sizes is :mod:`repro.baselines.pareto_dp`.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.assignment import Assignment
from repro.core.context import SolveContext
from repro.core.dwg import SSBWeighting
from repro.model.problem import AssignmentProblem


def _subtree_cuts(problem: AssignmentProblem, cru_id: str) -> Iterator[Tuple[str, ...]]:
    """Every cut of the subtree of ``cru_id``, as tuples of cut children.

    Each cut assumes the parent of ``cru_id`` runs on the host, so the
    subtree either hangs below a cut at ``cru_id`` itself (yielded first) or
    keeps ``cru_id`` on the host and cuts somewhere below.
    """
    if problem.correspondent_satellite(cru_id) is not None:
        yield (cru_id,)
    if problem.tree.cru(cru_id).is_processing:
        yield from _sibling_cuts(problem, problem.tree.children_ids(cru_id))


def _sibling_cuts(problem: AssignmentProblem,
                  children: List[str]) -> Iterator[Tuple[str, ...]]:
    """The product of the children's cuts, concatenated, last child fastest.

    ``itertools.product``'s order without materialising any child's cuts: an
    odometer over one lazy generator per child, restarting a child's
    generator when it runs out.  Nothing is yielded when a child has no cut.
    """
    streams = [_subtree_cuts(problem, child) for child in children]
    current = [next(stream, None) for stream in streams]
    if None in current:
        return
    while True:
        yield tuple(itertools.chain.from_iterable(current))
        j = len(children) - 1
        while j >= 0:
            cut = next(streams[j], None)
            if cut is not None:
                current[j] = cut
                break
            streams[j] = _subtree_cuts(problem, children[j])
            current[j] = next(streams[j])
            j -= 1
        else:
            return


def enumerate_cuts(problem: AssignmentProblem) -> Iterator[Tuple[str, ...]]:
    """Yield every feasible cut (the root always stays on the host).

    The enumeration is lazy: memory stays linear in the tree size and the
    first cut arrives after one walk, however many cuts there are.
    """
    tree = problem.tree
    return _sibling_cuts(problem, tree.children_ids(tree.root_id))


def enumerate_assignments(problem: AssignmentProblem) -> Iterator[Assignment]:
    """Yield every feasible assignment of the instance."""
    for cut in enumerate_cuts(problem):
        offloaded = [c for c in cut if problem.tree.cru(c).is_processing]
        yield Assignment.from_cut(problem, offloaded)


def count_feasible_assignments(problem: AssignmentProblem) -> int:
    """Number of feasible assignments, computed by the product recurrence
    (no enumeration)."""
    tree = problem.tree

    def count(cru_id: str) -> int:
        total = 1 if problem.correspondent_satellite(cru_id) is not None else 0
        if tree.cru(cru_id).is_processing:
            product = 1
            for child in tree.children_ids(cru_id):
                product *= count(child)
            total += product
        return total

    product = 1
    for child in tree.children_ids(tree.root_id):
        product *= count(child)
    return product


def brute_force_assignment(problem: AssignmentProblem,
                           weighting: Optional[SSBWeighting] = None,
                           context: Optional[SolveContext] = None
                           ) -> Tuple[Assignment, Dict[str, object]]:
    """The delay-optimal assignment found by full enumeration.

    ``weighting`` generalises the objective to
    ``λ_S · host time + λ_B · max satellite load`` (default: plain sum, the
    end-to-end delay).

    Anytime: ``context`` is polled every ``context.check_stride`` enumerated
    cuts (the first cut always evaluates, so an incumbent always exists); on
    expiry the best cut seen so far is returned with
    ``details["interrupted"]`` set — no longer the proven optimum.
    """
    weighting = weighting or SSBWeighting()
    best: Optional[Assignment] = None
    best_value = float("inf")
    enumerated = 0
    interrupted: Optional[str] = None
    for assignment in enumerate_assignments(problem):
        if context is not None and enumerated \
                and enumerated % context.check_stride == 0:
            interrupted = context.interrupted()
            if interrupted is not None:
                break
        enumerated += 1
        value = weighting.combine(assignment.host_load(), assignment.max_satellite_load())
        if value < best_value:
            best, best_value = assignment, value
            if context is not None:
                context.report_incumbent(best_value, source="brute-force")
    if best is None:
        raise RuntimeError("the instance admits no feasible assignment")
    details: Dict[str, object] = {"enumerated": enumerated,
                                  "objective": best_value}
    if interrupted is not None:
        details["interrupted"] = interrupted
    return best, details
