"""Cross-solver differential harness — the repo's standing exactness check.

Three independent exact engines answer every instance:

* ``colored-ssb`` / ``colored-ssb-labels`` — the paper's construction
  (colouring, assignment graph, label-dominance sweep on the DAG, swept
  from both ends and joined at a meet layer);
* ``pareto-dp-pruned`` — the bound-pruned streamed Pareto DP straight on
  the CRU tree (no colouring, no assignment graph, its own per-colour
  completion-DAG bounds);
* ``brute-force`` — enumeration, where the instance is small enough.

They share no search code beyond the problem model, so agreement across a
seeded sweep of topologies (chain / star / balanced / scattered), colourings
and profile drift is strong evidence all of them are correct — and a latent
bug in the hot path (the label engine is the production solver) cannot hide
in the regime where brute force can't reach: ``pareto-dp-pruned`` covers
scattered instances through n=30 and wide stars through n=40.  A fourth
reference that shares no code with any engine, the MILP model of
``tests/milp_oracle.py``, checks them on the same topologies in
``tests/test_milp_oracle.py``.

Objectives are compared *exactly* (no tolerance): every solver reports the
end-to-end delay of the concrete assignment it returns, computed by the same
``Assignment.end_to_end_delay()`` code path, and the optimum is unique on
these random instances.  A sub-ulp disagreement is a real bug, not noise.
"""

import random

import pytest

from repro.core.solver import solve
from repro.workloads import random_problem

#: topology -> random_problem kwargs; colourings vary via n_satellites below
TOPOLOGIES = {
    "chain": dict(max_children=1, sensor_scatter=0.5),
    "star": dict(max_children=64, sensor_scatter=0.5),
    "balanced": dict(max_children=2, sensor_scatter=0.3),
    "scattered": dict(max_children=3, sensor_scatter=1.0),
}

#: brute force stays feasible up to here (exponential in offloadable subtrees)
BRUTE_FORCE_MAX_N = 10


def make_instance(topology, n, n_satellites, seed, drift=0.0):
    problem = random_problem(n_processing=n, n_satellites=n_satellites,
                             seed=seed, **TOPOLOGIES[topology])
    if drift:
        rng = random.Random(seed * 7919 + n * 31 + 1)
        for cru_id, seconds in list(problem.profile.host_times().items()):
            problem.profile.set_host_time(
                cru_id, seconds * rng.uniform(1 - drift, 1 + drift))
        for cru_id, seconds in list(problem.profile.satellite_times().items()):
            problem.profile.set_satellite_time(
                cru_id, seconds * rng.uniform(1 - drift, 1 + drift))
        problem.invalidate_caches()
    return problem


def objectives(problem, methods):
    return {method: solve(problem, method=method).objective
            for method in methods}


def assert_identical(problem, methods):
    values = objectives(problem, methods)
    reference = next(iter(values.values()))
    mismatched = {m: v for m, v in values.items() if v != reference}
    assert not mismatched, (
        f"exact solvers disagree on {problem.name}: {values}")
    return reference


# --------------------------------------------------------------- fast lane
class TestTripleAgreement:
    """Labels, pruned DP and brute force return bit-identical optima."""

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("n", [6, 8, 10])
    @pytest.mark.parametrize("n_satellites", [2, 4])
    def test_small_instances(self, topology, n, n_satellites):
        problem = make_instance(topology, n, n_satellites, seed=n + n_satellites)
        assert_identical(problem, ["brute-force", "colored-ssb",
                                   "colored-ssb-labels", "pareto-dp-pruned"])

    @pytest.mark.parametrize("seed", range(4))
    def test_seed_sweep_scattered(self, seed):
        problem = make_instance("scattered", 9, 3, seed=seed)
        assert_identical(problem, ["brute-force", "colored-ssb-labels",
                                   "pareto-dp-pruned"])

    @pytest.mark.parametrize("topology", ["balanced", "scattered"])
    def test_profile_drift(self, topology):
        for round_ in range(3):
            problem = make_instance(topology, 8, 3, seed=round_,
                                    drift=0.05 * (round_ + 1))
            assert_identical(problem, ["brute-force", "colored-ssb-labels",
                                       "pareto-dp-pruned"])

    def test_incremental_agrees_under_drift(self):
        from repro.distributed.incremental import IncrementalSolver, WarmStartIndex

        solver = IncrementalSolver(index=WarmStartIndex())
        for round_ in range(4):
            problem = make_instance("scattered", 10, 3, seed=17,
                                    drift=0.04 * round_)
            assignment, details = solver.solve(problem)
            reference = assert_identical(
                problem, ["brute-force", "colored-ssb-labels",
                          "pareto-dp-pruned"])
            assert assignment.end_to_end_delay() == reference
            if round_:
                assert details["warm_started"] and details["skeleton_reused"]

    @pytest.mark.parametrize("n", [12, 14, 16])
    def test_labels_vs_pruned_dp_where_brute_force_thins_out(self, n):
        problem = make_instance("scattered", n, 4, seed=n)
        assert_identical(problem, ["colored-ssb-labels", "pareto-dp-pruned"])

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_portfolio_matches_the_exact_grid(self, topology, n):
        """The racing portfolio is itself an exact method on the reduced
        differential grid (its label stage completes unhindered)."""
        for n_satellites in (2, 4):
            problem = make_instance(topology, n, n_satellites,
                                    seed=n + n_satellites)
            assert_identical(problem, ["brute-force", "colored-ssb-labels",
                                       "portfolio"])

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_no_deadline_context_is_bit_identical(self, topology):
        """deadline=None equals no-context: threading an inert SolveContext
        through the whole pipeline must not move a single bit of the optimum
        (the anytime checks only ever *stop* a sweep, never reroute it)."""
        from repro.core.context import SolveContext

        for n in (8, 12):
            problem = make_instance(topology, n, 3, seed=n)
            for method in ("colored-ssb", "colored-ssb-labels",
                           "pareto-dp-pruned"):
                bare = solve(problem, method=method)
                inert = solve(problem, method=method,
                              context=SolveContext())
                assert inert.objective == bare.objective, (
                    f"{method} moved under an inert context on "
                    f"{problem.name}")
                assert inert.assignment.placement == bare.assignment.placement
                assert inert.status == "optimal"


# --------------------------------------------------------------- slow lane
@pytest.mark.slow
class TestFullSweep:
    """Nightly: the full differential sweep, beyond brute force's reach."""

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("n", list(range(6, 17)))
    def test_triple_agreement_full_grid(self, topology, n):
        for n_satellites in (2, 3, 4):
            for seed in range(3):
                methods = ["colored-ssb", "colored-ssb-labels",
                           "pareto-dp-pruned"]
                if n <= BRUTE_FORCE_MAX_N:
                    methods.append("brute-force")
                problem = make_instance(topology, n, n_satellites, seed=seed)
                assert_identical(problem, methods)

    @pytest.mark.parametrize("n", [18, 22, 26])
    def test_labels_vs_pruned_dp_to_n26(self, n):
        for topology in ("balanced", "scattered"):
            for seed in range(3):
                problem = make_instance(topology, n, 4, seed=seed)
                assert_identical(problem,
                                 ["colored-ssb-labels", "pareto-dp-pruned"])

    def test_scattered_n30_pruned_dp_is_the_second_oracle(self):
        """The acceptance regime: pareto-dp-pruned must solve scattered n=30
        exactly (no FrontierExplosion), matching the label engine — the only
        other exact method standing there."""
        for seed in range(2):
            problem = make_instance("scattered", 30, 4, seed=seed)
            assert_identical(problem,
                             ["colored-ssb-labels", "pareto-dp-pruned"])

    def test_wide_star_n40_triple_agreement(self):
        """The streamed-DP acceptance regime: the label sweep and the DP
        finish the wide star at n=40 (the old DP kernel ground or exploded
        here) and return the same bit pattern."""
        problem = random_problem(n_processing=40, n_satellites=4, seed=7,
                                 sensor_scatter=0.5, max_children=64)
        assert_identical(problem, ["colored-ssb-labels", "pareto-dp-pruned"])

    def test_scattered_n70_bidir_trajectories_agree(self):
        """Scattered n=70: only the label sweep finishes (the DP explodes),
        so the differential is across engine configurations — beam width and dominance window change the
        pruning trajectory and the meet-layer join order, and every
        trajectory must land on the same bit pattern with a proof."""
        problem = random_problem(n_processing=70, n_satellites=6, seed=10,
                                 sensor_scatter=1.0)
        results = [solve(problem, method="colored-ssb-labels", **config)
                   for config in ({}, {"beam_width": 32},
                                  {"dominance_window": 256})]
        assert all(r.status == "optimal" for r in results)
        assert len({r.objective for r in results}) == 1
