"""A declarative MILP model of the assignment problem, solved by HiGHS.

The exactness oracle of the test suite above brute-force sizes.  It shares
nothing with the solvers under test beyond the problem model: no colouring,
no assignment graph, no labels, no DP.  Every processing CRU ``u`` gets a
binary ``h_u`` (1 = runs on the host); a CRU whose subtree spans several
satellites has no correspondent satellite and is pinned to the host, and so
is the root.  Sensors always run on their own satellite (``h = 0``).

* precedence, one row per tree edge: ``h_child <= h_parent`` (a satellite
  CRU needs its whole subtree local);
* every satellite's load is linear in ``h``: the satellite time of the
  off-host CRUs of its colour plus ``comm_cost * (h_parent - h_child)`` on
  each edge whose child has that colour (the uplink is paid exactly when
  the edge is cut);
* one epigraph variable ``z >= load_s`` for the bottleneck.

The objective is ``λ_S·host + λ_B·z``.  HiGHS stops at a 1e-4 relative gap
by default, so the model is solved with ``mip_rel_gap = 0``.  The returned
:class:`~repro.core.assignment.Assignment` is rebuilt from the cut, so
callers compare the objective recomputed from it, like every other engine's.

HiGHS still works to absolute feasibility tolerances, so the model measures
every time in units of the instance's largest one.  Two cuts whose
objectives differ by less than :func:`resolution` are then ties to it.  The
seeded instances of the test suite have no such near-ties and the oracle
agrees bit for bit there; times spread over 1e-9…1e9 inside one instance,
or microsecond jitter on whole-second times, can produce them.

scipy is a test-only dependency: callers skip when it is missing.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.core.assignment import Assignment

#: objective gap below which HiGHS may confuse two cuts, in units of the
#: instance's largest time (ten times its 1e-7 primal feasibility tolerance)
RESOLUTION = 1e-6


def _unit(problem):
    """The instance's largest time (1 when every time is zero)."""
    tree = problem.tree
    crus = tree.processing_ids()
    return max([problem.host_time(u) for u in crus]
               + [problem.satellite_time(u) for u in crus]
               + [problem.comm_cost(c, p) for p, c in tree.edges()]) or 1.0


def resolution(problem):
    """Absolute objective gap the oracle is guaranteed to resolve."""
    return RESOLUTION * _unit(problem)


def milp_assignment(problem, weighting=None):
    """The optimal assignment of ``problem`` under ``weighting`` (an object
    with ``lambda_s`` / ``lambda_b``; the default is the end-to-end delay)."""
    lam_s = 1.0 if weighting is None else weighting.lambda_s
    lam_b = 1.0 if weighting is None else weighting.lambda_b
    tree = problem.tree
    crus = tree.processing_ids()
    col = {u: i for i, u in enumerate(crus)}
    z = len(crus)
    sats = problem.system.satellite_ids()
    row = {s: i for i, s in enumerate(sats)}

    lower = np.zeros(z + 1)
    for u in crus:
        if u == tree.root_id or problem.correspondent_satellite(u) is None:
            lower[col[u]] = 1.0
    upper = np.ones(z + 1)
    upper[z] = np.inf

    # HiGHS's absolute tolerances are tuned for O(1) data: measure every
    # time in units of the largest one (the optimal cut is scale-free)
    unit = _unit(problem)

    cost = np.zeros(z + 1)
    for u in crus:
        cost[col[u]] = lam_s * problem.host_time(u) / unit
    cost[z] = lam_b

    # load_s = base[s] + loads[s] @ h, so z >= load_s reads
    # loads[s] @ h - z <= -base[s]
    loads = np.zeros((len(sats), z + 1))
    loads[:, z] = -1.0
    base = np.zeros(len(sats))
    for u in crus:
        sat = problem.correspondent_satellite(u)
        if sat is not None:
            base[row[sat]] += problem.satellite_time(u) / unit
            loads[row[sat], col[u]] -= problem.satellite_time(u) / unit
    precedence = []
    for parent, child in tree.edges():
        sat = problem.correspondent_satellite(child)
        if sat is None:
            continue                      # child pinned to the host: no uplink
        cost_c = problem.comm_cost(child, parent) / unit
        loads[row[sat], col[parent]] += cost_c
        if child in col:
            loads[row[sat], col[child]] -= cost_c
            edge = np.zeros(z + 1)
            edge[col[child]], edge[col[parent]] = 1.0, -1.0
            precedence.append(edge)

    constraints = [LinearConstraint(loads, -np.inf, -base)]
    if precedence:
        constraints.append(LinearConstraint(np.array(precedence), -np.inf, 0.0))
    integrality = np.ones(z + 1)
    integrality[z] = 0
    result = milp(cost, constraints=constraints, integrality=integrality,
                  bounds=Bounds(lower, upper), options={"mip_rel_gap": 0})
    if not result.success:
        raise RuntimeError(f"MILP oracle failed: {result.message}")
    on_host = {u for u in crus if result.x[col[u]] > 0.5}
    cut = [u for u in crus if u not in on_host and tree.parent_id(u) in on_host]
    return Assignment.from_cut(problem, cut)


def objective(assignment, weighting=None):
    """``λ_S·host + λ_B·max load`` recomputed from the assignment itself."""
    if weighting is None:
        return assignment.end_to_end_delay()
    return weighting.combine(assignment.host_load(),
                             assignment.max_satellite_load())
