"""Property-based tests (hypothesis) on the core invariants.

These tests generate random instances structurally (not from the seeded
generators) so shrinking produces minimal counter-examples if an invariant is
ever violated.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force import brute_force_assignment, count_feasible_assignments, enumerate_cuts
from repro.core.assignment import Assignment
from repro.core.assignment_graph import build_assignment_graph
from repro.core.colored_ssb import ColoredSSBSearch
from repro.core.dwg import DoublyWeightedGraph, PathMeasures, SSBWeighting, SIGMA_ATTR
from repro.core.labeling import host_weight_labels
from repro.core.sb import SBSearch
from repro.core.ssb import SSBSearch
from repro.core.solver import solve
from repro.graphs.kshortest import iter_paths_by_weight
from repro.model.costs import CommunicationCostModel
from repro.model.cru import CRU, CRUTree
from repro.model.platform import Host, HostSatelliteSystem, Satellite
from repro.model.problem import AssignmentProblem
from repro.model.profiles import ExecutionProfile
from repro.simulation import ExecutionPolicy, simulate_assignment

# --------------------------------------------------------------------- strategies

weights = st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False)


@st.composite
def dwg_instances(draw):
    """Small layered DWGs with random σ/β weights."""
    n_nodes = draw(st.integers(min_value=2, max_value=7))
    dwg = DoublyWeightedGraph(source=0, target=n_nodes - 1)
    # backbone for connectivity
    for i in range(n_nodes - 1):
        dwg.add_edge(i, i + 1, sigma=draw(weights), beta=draw(weights))
    extra = draw(st.integers(min_value=0, max_value=8))
    for _ in range(extra):
        tail = draw(st.integers(min_value=0, max_value=n_nodes - 2))
        head = draw(st.integers(min_value=tail + 1, max_value=n_nodes - 1))
        dwg.add_edge(tail, head, sigma=draw(weights), beta=draw(weights))
    return dwg


@st.composite
def problem_instances(draw):
    """Random CRU trees (≤ 8 processing CRUs) over 1-3 satellites."""
    n_processing = draw(st.integers(min_value=1, max_value=8))
    n_satellites = draw(st.integers(min_value=1, max_value=3))

    tree = CRUTree(CRU("P0"))
    for i in range(1, n_processing):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        tree.add_processing(f"P{parent}", f"P{i}")

    system = HostSatelliteSystem(Host(speed_factor=2.0))
    satellite_ids = [f"sat{i}" for i in range(n_satellites)]
    for sid in satellite_ids:
        system.add_satellite(Satellite(sid))

    profile = ExecutionProfile()
    costs = CommunicationCostModel()
    attachment = {}
    sensor_counter = 0
    for i in range(n_processing):
        cru_id = f"P{i}"
        profile.set_host_time(cru_id, draw(weights))
        profile.set_satellite_time(cru_id, draw(weights))
        n_sensors = 0
        if not tree.children_ids(cru_id):
            n_sensors = draw(st.integers(min_value=1, max_value=2))
        elif draw(st.booleans()):
            n_sensors = 1
        for _ in range(n_sensors):
            sensor_id = f"s{sensor_counter}"
            sensor_counter += 1
            tree.add_sensor(cru_id, sensor_id)
            attachment[sensor_id] = draw(st.sampled_from(satellite_ids))
            profile.set_times(sensor_id, 0.0, 0.0)
            costs.set_cost(sensor_id, cru_id, draw(weights))
    for parent, child in tree.edges():
        if tree.cru(child).is_processing:
            costs.set_cost(child, parent, draw(weights))

    return AssignmentProblem(tree=tree, system=system, sensor_attachment=attachment,
                             profile=profile, costs=costs, name="hypothesis-instance")


common_settings = settings(max_examples=40, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


# ------------------------------------------------------------------ DWG invariants

class TestDWGSearchProperties:
    @common_settings
    @given(dwg_instances())
    def test_ssb_search_matches_exhaustive_enumeration(self, dwg):
        result = SSBSearch().search(dwg)
        measures = PathMeasures()
        best = min(measures.ssb_plain(p) for p in
                   iter_paths_by_weight(dwg.graph, dwg.source, dwg.target, weight=SIGMA_ATTR))
        assert result.ssb_weight == pytest.approx(best)

    @common_settings
    @given(dwg_instances())
    def test_sb_search_matches_exhaustive_enumeration(self, dwg):
        result = SBSearch().search(dwg)
        best = min(PathMeasures.sb(p) for p in
                   iter_paths_by_weight(dwg.graph, dwg.source, dwg.target, weight=SIGMA_ATTR))
        assert result.sb_weight == pytest.approx(best)

    @common_settings
    @given(dwg_instances())
    def test_ssb_weight_bounds(self, dwg):
        result = SSBSearch().search(dwg)
        assert result.ssb_weight >= result.s_weight - 1e-9
        assert result.ssb_weight >= result.b_weight - 1e-9
        assert result.ssb_weight == pytest.approx(result.s_weight + result.b_weight)

    @common_settings
    @given(dwg_instances())
    def test_sb_never_exceeds_ssb(self, dwg):
        ssb = SSBSearch().search(dwg)
        sb = SBSearch().search(dwg)
        # the optimal bottleneck is at most the optimal delay
        assert sb.sb_weight <= ssb.ssb_weight + 1e-9


# -------------------------------------------------------------- problem invariants

class TestAssignmentProblemProperties:
    @common_settings
    @given(problem_instances())
    def test_solvers_agree(self, problem):
        pytest.importorskip("scipy.optimize")
        from milp_oracle import milp_assignment, resolution

        ssb = solve(problem, validate=False).objective
        brute, _ = brute_force_assignment(problem)
        oracle = milp_assignment(problem)
        assert ssb == pytest.approx(brute.end_to_end_delay())
        assert ssb == pytest.approx(oracle.end_to_end_delay(),
                                    abs=resolution(problem))

    @common_settings
    @given(problem_instances())
    def test_path_cut_bijection_count(self, problem):
        graph = build_assignment_graph(problem)
        paths = list(iter_paths_by_weight(graph.dwg.graph, graph.dwg.source,
                                          graph.dwg.target, weight=SIGMA_ATTR))
        assert len(paths) == count_feasible_assignments(problem)

    @common_settings
    @given(problem_instances())
    def test_sigma_labels_sum_to_host_load_for_every_cut(self, problem):
        sigma = host_weight_labels(problem.tree, problem.profile)
        for cut in enumerate_cuts(problem):
            offloaded = [c for c in cut if problem.tree.cru(c).is_processing]
            assignment = Assignment.from_cut(problem, offloaded)
            cut_edges = [(problem.tree.parent_id(c), c) for c in cut]
            assert sum(sigma[e] for e in cut_edges) == pytest.approx(
                assignment.host_load())

    @common_settings
    @given(problem_instances())
    def test_every_path_cost_equals_its_assignment_delay(self, problem):
        graph = build_assignment_graph(problem)
        measures = PathMeasures()
        for path in iter_paths_by_weight(graph.dwg.graph, graph.dwg.source,
                                         graph.dwg.target, weight=SIGMA_ATTR):
            assignment = graph.path_to_assignment(path)
            assert measures.ssb_colored(path) == pytest.approx(
                assignment.end_to_end_delay())

    @common_settings
    @given(problem_instances())
    def test_simulation_matches_analytic_delay(self, problem):
        result = ColoredSSBSearch().search(build_assignment_graph(problem).dwg)
        graph = build_assignment_graph(problem)
        assignment = graph.path_to_assignment(result.path)
        run = simulate_assignment(problem, assignment, ExecutionPolicy.paper_model())
        assert run.end_to_end_delay == pytest.approx(assignment.end_to_end_delay())
        eager = simulate_assignment(problem, assignment, ExecutionPolicy.eager())
        assert eager.end_to_end_delay <= assignment.end_to_end_delay() + 1e-9

    @common_settings
    @given(problem_instances())
    def test_forced_host_crus_stay_on_host(self, problem):
        from repro.core.coloring import color_tree

        colored = color_tree(problem)
        assignment = solve(problem, validate=False).assignment
        for cru_id in colored.forced_host_crus():
            assert assignment.is_on_host(cru_id)

    @common_settings
    @given(problem_instances(), st.floats(min_value=0.0, max_value=1.0))
    def test_weighted_objective_agreement(self, problem, lam):
        pytest.importorskip("scipy.optimize")
        from milp_oracle import milp_assignment, objective, resolution

        weighting = SSBWeighting.convex(lam)
        brute, _ = brute_force_assignment(problem, weighting=weighting)
        want = objective(brute, weighting)
        oracle = milp_assignment(problem, weighting)
        assert objective(oracle, weighting) == pytest.approx(
            want, abs=resolution(problem)), "milp"
        for method in ("colored-ssb", "colored-ssb-labels", "pareto-dp-pruned"):
            got = solve(problem, method=method, weighting=weighting,
                        validate=False).assignment
            assert objective(got, weighting) == pytest.approx(want), method
