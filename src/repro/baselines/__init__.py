"""Reference solvers and comparison heuristics.

Two **exact references** validate the paper's algorithm:

* :mod:`~repro.baselines.brute_force` enumerates every feasible partition of
  the CRU tree (exponential, only for small instances),
* :mod:`~repro.baselines.pareto_dp` computes, bottom-up on the tree, the
  bound-pruned Pareto frontier of (host time, per-satellite load vector) and
  is exact for realistic instance sizes.

One **objective baseline** reproduces the comparison the paper motivates:

* :mod:`~repro.baselines.bokhari_sb` optimises Bokhari's bottleneck objective
  ``max(host time, max satellite load)`` on identical instances.

And the **heuristics the paper's §6 lists as future work** (useful as
comparison points and for the DAG extension):

* :mod:`~repro.baselines.greedy`, :mod:`~repro.baselines.random_search`,
  :mod:`~repro.baselines.genetic`, :mod:`~repro.baselines.branch_and_bound`.

All entry points share one signature style: they take an
:class:`~repro.model.problem.AssignmentProblem` and return
``(assignment, details_dict)``.
"""

from repro.baselines.brute_force import (
    brute_force_assignment,
    enumerate_assignments,
    count_feasible_assignments,
)
from repro.baselines.pareto_dp import (
    FrontierExplosion,
    pareto_dp_pruned_assignment,
)
from repro.baselines.bokhari_sb import bokhari_sb_assignment
from repro.baselines.greedy import greedy_assignment
from repro.baselines.random_search import random_search_assignment, random_assignment
from repro.baselines.genetic import genetic_assignment
from repro.baselines.branch_and_bound import branch_and_bound_assignment

__all__ = [
    "brute_force_assignment",
    "enumerate_assignments",
    "count_feasible_assignments",
    "FrontierExplosion",
    "pareto_dp_pruned_assignment",
    "bokhari_sb_assignment",
    "greedy_assignment",
    "random_search_assignment",
    "random_assignment",
    "genetic_assignment",
    "branch_and_bound_assignment",
]
