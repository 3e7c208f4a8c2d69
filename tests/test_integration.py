"""End-to-end integration tests across model, core, baselines and simulation."""

import pytest

from repro import (
    SSBWeighting,
    build_assignment_graph,
    color_tree,
    healthcare_scenario,
    paper_example_problem,
    random_problem,
    snmp_scenario,
    solve,
)
from repro.baselines import brute_force_assignment
from repro.model.serialization import problem_from_json, problem_to_json
from repro.simulation import ExecutionPolicy, simulate_assignment


class TestFullPipelineOnScenarios:
    @pytest.mark.parametrize("factory", [paper_example_problem, healthcare_scenario,
                                         snmp_scenario])
    def test_solve_simulate_roundtrip(self, factory):
        problem = factory()
        problem.validate()
        result = solve(problem)
        run = simulate_assignment(problem, result.assignment, ExecutionPolicy.paper_model())
        assert run.end_to_end_delay == pytest.approx(result.objective)

    @pytest.mark.parametrize("factory", [paper_example_problem, healthcare_scenario,
                                         snmp_scenario])
    def test_optimum_beats_every_single_cut_alternative(self, factory):
        """The optimum is no worse than the natural hand-made strategies."""
        from repro.core.assignment import Assignment
        from repro.baselines.greedy import maximal_offload_cut

        problem = factory()
        optimum = solve(problem).objective
        host_only = Assignment.host_only(problem).end_to_end_delay()
        max_offload = Assignment.from_cut(
            problem,
            [c for c in maximal_offload_cut(problem)
             if problem.tree.cru(c).is_processing]).end_to_end_delay()
        assert optimum <= host_only + 1e-9
        assert optimum <= max_offload + 1e-9

    def test_serialisation_solving_and_simulation_compose(self, tmp_path):
        problem = healthcare_scenario(accelerometer_boxes=3)
        path = tmp_path / "problem.json"
        path.write_text(problem_to_json(problem))
        reloaded = problem_from_json(path.read_text())
        result = solve(reloaded)
        run = simulate_assignment(reloaded, result.assignment)
        assert run.end_to_end_delay == pytest.approx(result.objective)


class TestCrossSolverAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_three_exact_solvers_agree_on_larger_instances(self, seed):
        problem = random_problem(n_processing=14, n_satellites=4, seed=seed,
                                 sensor_scatter=0.3)
        pytest.importorskip("scipy.optimize")
        from milp_oracle import milp_assignment

        ssb = solve(problem).objective
        oracle = milp_assignment(problem)
        bnb = solve(problem, method="branch-and-bound").objective
        assert ssb == pytest.approx(oracle.end_to_end_delay())
        assert ssb == pytest.approx(bnb)

    def test_weighted_objective_agreement(self):
        problem = random_problem(n_processing=10, n_satellites=3, seed=9,
                                 sensor_scatter=0.4)
        for lam in (0.3, 0.5, 0.8):
            weighting = SSBWeighting.convex(lam)
            ssb = solve(problem, weighting=weighting)
            brute, _ = brute_force_assignment(problem, weighting=weighting)
            got = weighting.combine(ssb.assignment.host_load(),
                                    ssb.assignment.max_satellite_load())
            want = weighting.combine(brute.host_load(), brute.max_satellite_load())
            assert got == pytest.approx(want)


class TestConstructionConsistency:
    def test_colouring_and_graph_share_the_problem_view(self):
        problem = healthcare_scenario()
        colored = color_tree(problem)
        graph = build_assignment_graph(problem, colored_tree=colored)
        assert graph.colored_tree is colored
        # conflicted edges are exactly the tree edges without an assignment edge
        crossed = {graph.tree_edge_of(e) for e in graph.dwg.edges()}
        missing = set(problem.tree.edges()) - crossed
        assert missing == set(colored.conflicted_edges())

    def test_forced_host_crus_are_on_host_in_every_solution(self):
        problem = paper_example_problem()
        colored = color_tree(problem)
        for method in ("colored-ssb", "brute-force", "greedy", "genetic"):
            assignment = solve(problem, method=method, seed=2).assignment
            for cru_id in colored.forced_host_crus():
                assert assignment.is_on_host(cru_id), (method, cru_id)
