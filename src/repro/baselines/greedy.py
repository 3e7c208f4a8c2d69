"""Greedy / local-search heuristic.

A fast comparison point for the exact algorithms: start from the *maximal
offloading* cut (cut every highest subtree that has a correspondent
satellite, which minimises the host load) and hill-climb with two moves until
no move improves the end-to-end delay:

* **lower** a cut: move an offloaded subtree's root back to the host and cut
  at its children instead (reduces the load of the bottleneck satellite at
  the price of host time),
* **raise** a cut: if all children of a host CRU are currently cut and the
  CRU has a correspondent satellite, offload the whole subtree instead
  (reduces host time at the price of satellite load).

The heuristic is not optimal in general — tests demonstrate instances where
it is beaten by the exact solvers — but it is a natural baseline and provides
the incumbent solution that seeds the branch-and-bound solver.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.assignment import Assignment
from repro.core.context import SolveContext
from repro.model.problem import AssignmentProblem


def maximal_offload_cut(problem: AssignmentProblem) -> List[str]:
    """The highest possible cut: offload every maximal single-satellite subtree."""
    tree = problem.tree
    cut: List[str] = []

    def descend(cru_id: str) -> None:
        if problem.correspondent_satellite(cru_id) is not None:
            cut.append(cru_id)
            return
        for child in tree.children_ids(cru_id):
            descend(child)

    for child in tree.children_ids(tree.root_id):
        descend(child)
    return cut


def _cut_to_assignment(problem: AssignmentProblem, cut: List[str]) -> Assignment:
    offloaded = [c for c in cut if problem.tree.cru(c).is_processing]
    return Assignment.from_cut(problem, offloaded)


def maximal_offload_assignment(problem: AssignmentProblem) -> Assignment:
    """The :func:`maximal_offload_cut` as an assignment: feasible, built in
    one pass with no search, so it is the instant incumbent of anytime
    solvers."""
    return _cut_to_assignment(problem, maximal_offload_cut(problem))


def _lower_moves(problem: AssignmentProblem, cut: List[str]) -> List[List[str]]:
    """All cuts obtained by splitting one offloaded processing subtree."""
    moves: List[List[str]] = []
    for i, child in enumerate(cut):
        if not problem.tree.cru(child).is_processing:
            continue
        grandchildren = problem.tree.children_ids(child)
        if not grandchildren:
            continue
        moves.append(cut[:i] + grandchildren + cut[i + 1:])
    return moves


def _raise_moves(problem: AssignmentProblem, cut: List[str]) -> List[List[str]]:
    """All cuts obtained by merging a full sibling group back into its parent."""
    tree = problem.tree
    cut_set: Set[str] = set(cut)
    moves: List[List[str]] = []
    candidate_parents = {tree.parent_id(c) for c in cut if tree.parent_id(c) is not None}
    for parent in candidate_parents:
        if parent == tree.root_id:
            continue
        children = tree.children_ids(parent)
        if not children or not all(c in cut_set for c in children):
            continue
        if problem.correspondent_satellite(parent) is None:
            continue
        new_cut = [c for c in cut if c not in children] + [parent]
        moves.append(new_cut)
    return moves


def greedy_assignment(problem: AssignmentProblem, max_steps: int = 10_000,
                      context: Optional[SolveContext] = None,
                      **_ignored) -> Tuple[Assignment, Dict[str, object]]:
    """Hill-climbing from the maximal-offload cut.

    Returns the best assignment found and a details dict with the number of
    improvement steps taken.  The starting cut is already feasible, so under
    a ``context`` the climb is anytime from its very first instant; the
    context is polled once per candidate move, since one step may scan
    every move of a large cut before it finds an improving one.
    """
    best = maximal_offload_assignment(problem)
    cut = best.cut_children()
    best_delay = best.end_to_end_delay()
    steps = 0
    interrupted: Optional[str] = None
    if context is not None:
        context.report_incumbent(best_delay, source="greedy")

    improved = True
    while improved and steps < max_steps:
        improved = False
        for move in _lower_moves(problem, cut) + _raise_moves(problem, cut):
            if context is not None:
                interrupted = context.interrupted()
                if interrupted is not None:
                    break
            candidate = _cut_to_assignment(problem, move)
            delay = candidate.end_to_end_delay()
            if delay < best_delay - 1e-12:
                cut, best, best_delay = move, candidate, delay
                improved = True
                steps += 1
                if context is not None:
                    context.report_incumbent(best_delay, source="greedy")
                break

    details: Dict[str, object] = {"steps": steps, "delay": best_delay,
                                  "cut_size": len(cut)}
    if interrupted is not None:
        details["interrupted"] = interrupted
    return best, details
