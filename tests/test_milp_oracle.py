"""The exact engines against a MILP model that shares none of their code.

``tests/milp_oracle.py`` states the problem declaratively (one binary per
CRU, one precedence row per tree edge, one epigraph variable for the
bottleneck) and hands it to HiGHS, so agreement here is a proof of
optimality independent of colouring, assignment graphs, labels and the tree
DP.  Objectives are recomputed from each returned assignment and compared
bit for bit, as in ``tests/test_differential.py``.
"""

import random

import pytest
from test_differential import TOPOLOGIES, make_instance

from repro.core.dwg import SSBWeighting
from repro.core.solver import solve
from repro.model.cru import CRU, CRUTree
from repro.model.platform import Host, HostSatelliteSystem, Satellite
from repro.model.problem import AssignmentProblem
from repro.model.profiles import ExecutionProfile
from repro.runtime import default_registry
from repro.workloads import random_problem

pytest.importorskip("scipy.optimize")
from milp_oracle import milp_assignment, objective, resolution  # noqa: E402

WEIGHTINGS = {
    "default": None,
    "convex(0.3)": SSBWeighting.convex(0.3),
    "convex(0.8)": SSBWeighting.convex(0.8),
}

#: the engines the oracle checks on the grid
ENGINES = ("colored-ssb-labels", "pareto-dp-pruned", "portfolio")

#: every exact spec; branch-and-bound ignores weightings, so the
#: degenerate cases use the default one
EXACT_SPECS = sorted(spec.name for spec in default_registry() if spec.exact)


def assert_matches_oracle(problem, methods, weighting=None):
    want = objective(milp_assignment(problem, weighting), weighting)
    got = {m: objective(solve(problem, method=m, weighting=weighting)
                        .assignment, weighting)
           for m in methods}
    mismatched = {m: v for m, v in got.items() if v != want}
    assert not mismatched, (
        f"engines disagree with the MILP oracle ({want!r}) on "
        f"{problem.name} under {weighting}: {mismatched}")


def rescaled(problem, factor):
    """``problem`` with every time and cost multiplied by ``factor()``."""
    for cru_id, seconds in list(problem.profile.host_times().items()):
        problem.profile.set_host_time(cru_id, seconds * factor())
    for cru_id, seconds in list(problem.profile.satellite_times().items()):
        problem.profile.set_satellite_time(cru_id, seconds * factor())
    for (child, parent), seconds in list(problem.costs.costs().items()):
        problem.costs.set_cost(child, parent, seconds * factor())
    problem.invalidate_caches()
    return problem


def test_oracle_shares_no_engine_code():
    import ast

    import milp_oracle

    with open(milp_oracle.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names}
    assert {m for m in imported if m.startswith("repro")} == \
        {"repro.core.assignment"}


# --------------------------------------------------------------- fast lane
class TestOracleSmoke:
    """Eight grid instances at n=20: every topology, two colourings."""

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("n_satellites", [2, 4])
    def test_engines_match_the_oracle(self, topology, n_satellites):
        problem = make_instance(topology, 20, n_satellites, seed=0)
        for weighting in WEIGHTINGS.values():
            assert_matches_oracle(problem, ENGINES, weighting)


class TestDegenerateCases:
    """Brute force, every exact spec and the oracle on corner cases."""

    def check(self, problem):
        assert_matches_oracle(problem, EXACT_SPECS)

    def test_all_costs_zero(self):
        problem = rescaled(random_problem(n_processing=8, n_satellites=3,
                                          seed=1, sensor_scatter=0.5),
                           lambda: 0.0)
        assert objective(milp_assignment(problem)) == 0.0
        self.check(problem)

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_ties(self, seed):
        # whole-second times make many cuts tie exactly; the engines may
        # return different cuts, so only the objectives are compared
        problem = random_problem(n_processing=8, n_satellites=3, seed=seed,
                                 sensor_scatter=0.5)
        rng = random.Random(seed)
        for cru_id in problem.tree.processing_ids():
            problem.profile.set_times(cru_id, rng.randint(0, 2),
                                      rng.randint(0, 3))
        for parent, child in problem.tree.edges():
            problem.costs.set_cost(child, parent, rng.randint(0, 2))
        problem.invalidate_caches()
        self.check(problem)

    @pytest.mark.parametrize("seed", range(8))
    def test_near_ties_need_a_zero_gap(self, seed):
        # whole-second times plus sub-millisecond jitter: the best cuts lie
        # within HiGHS's default 1e-4 relative gap of each other, so the
        # oracle is exact here only with mip_rel_gap=0
        rng = random.Random(seed)
        problem = random_problem(n_processing=20, n_satellites=3, seed=seed,
                                 sensor_scatter=0.5)
        for cru_id in problem.tree.processing_ids():
            problem.profile.set_times(
                cru_id, round(problem.host_time(cru_id)) + rng.uniform(0, 1e-3),
                round(problem.satellite_time(cru_id)) + rng.uniform(0, 1e-3))
        for (child, parent), seconds in list(problem.costs.costs().items()):
            problem.costs.set_cost(child, parent,
                                   round(seconds) + rng.uniform(0, 1e-3))
        problem.invalidate_caches()
        assert_matches_oracle(problem, ENGINES)

    def test_mirrored_subtrees_tie(self):
        # two identical branches on two satellites: offloading either one
        # gives the same delay
        tree = CRUTree(CRU("P0"))
        system = HostSatelliteSystem(Host(speed_factor=2.0))
        attachment = {}
        for i in (1, 2):
            system.add_satellite(Satellite(f"sat{i}"))
            tree.add_processing("P0", f"P{i}")
            tree.add_sensor(f"P{i}", f"s{i}")
            attachment[f"s{i}"] = f"sat{i}"
        problem = AssignmentProblem(tree=tree, system=system,
                                    sensor_attachment=attachment,
                                    profile=ExecutionProfile(),
                                    name="mirrored")
        problem.profile.set_times("P0", 1.0, 2.0)
        for i in (1, 2):
            problem.profile.set_times(f"P{i}", 2.0, 3.0)
            problem.profile.set_times(f"s{i}", 0.0, 0.0)
            problem.costs.set_cost(f"s{i}", f"P{i}", 1.0)
            problem.costs.set_cost(f"P{i}", "P0", 0.5)
        self.check(problem)

    def test_single_sensor(self):
        tree = CRUTree(CRU("P0"))
        for i in range(1, 5):
            tree.add_processing(f"P{i - 1}", f"P{i}")
        tree.add_sensor("P4", "s0")
        system = HostSatelliteSystem(Host(speed_factor=2.0))
        for sid in ("sat0", "sat1"):
            system.add_satellite(Satellite(sid))
        problem = AssignmentProblem(tree=tree, system=system,
                                    sensor_attachment={"s0": "sat0"},
                                    profile=ExecutionProfile(),
                                    name="single-sensor")
        for i in range(5):
            problem.profile.set_times(f"P{i}", 1.0 + i, 2.5 * (5 - i))
        for i in range(1, 5):
            problem.costs.set_cost(f"P{i}", f"P{i - 1}", 0.7 * i)
        problem.profile.set_times("s0", 0.0, 0.0)
        problem.costs.set_cost("s0", "P4", 3.0)
        self.check(problem)

    @pytest.mark.parametrize("seed", range(3))
    def test_single_satellite(self, seed):
        self.check(random_problem(n_processing=9, n_satellites=1, seed=seed))

    @pytest.mark.parametrize("exponent", range(-9, 10, 3))
    def test_instances_scaled_from_1e_minus9_to_1e9(self, exponent):
        problem = random_problem(n_processing=8, n_satellites=3,
                                 seed=exponent + 9, sensor_scatter=0.5)
        self.check(rescaled(problem, lambda: 10.0 ** exponent))

    @pytest.mark.parametrize("seed", range(4))
    def test_times_spread_from_1e_minus9_to_1e9_inside_one_instance(self,
                                                                    seed):
        # near-ties below the oracle's resolution are possible here, so the
        # exact specs must match brute force bit for bit and the oracle only
        # to its resolution
        rng = random.Random(seed)
        problem = rescaled(random_problem(n_processing=8, n_satellites=3,
                                          seed=seed, sensor_scatter=0.5),
                           lambda: 10.0 ** rng.uniform(-9, 9))
        got = {m: objective(solve(problem, method=m).assignment)
               for m in EXACT_SPECS}
        want = got["brute-force"]
        assert all(v == want for v in got.values()), got
        assert objective(milp_assignment(problem)) == pytest.approx(
            want, abs=resolution(problem))


# --------------------------------------------------------------- slow lane
@pytest.mark.slow
class TestOracleGrid:
    """120 instances at n=20-40 (4 topologies x k {2, 4} x 5 seeds) under
    three weightings: the engines match the oracle bit for bit."""

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("n", [20, 30, 40])
    @pytest.mark.parametrize("n_satellites", [2, 4])
    def test_engines_match_the_oracle(self, topology, n, n_satellites):
        for seed in range(5):
            problem = make_instance(topology, n, n_satellites, seed=seed)
            for weighting in WEIGHTINGS.values():
                assert_matches_oracle(problem, ENGINES, weighting)
