"""Unit tests for the solver facade."""

import pytest

from repro.core.dwg import SSBWeighting
from repro.core.solver import available_methods, solve
from repro.model import ModelValidationError
from repro.workloads import paper_example_problem, random_problem


class TestFacade:
    def test_default_method_is_the_papers_algorithm(self, paper_problem):
        result = solve(paper_problem)
        assert result.method == "colored-ssb"
        assert result.assignment.is_feasible()
        assert result.objective == pytest.approx(result.assignment.end_to_end_delay())

    def test_details_of_the_papers_algorithm(self, paper_problem):
        result = solve(paper_problem)
        details = result.details
        assert details["ssb_weight"] == pytest.approx(result.objective)
        assert details["iterations"] >= 1
        assert "assignment_graph_edges" in details

    def test_all_methods_run_and_return_feasible_assignments(self, paper_problem):
        for method in available_methods():
            result = solve(paper_problem, method=method, seed=1)
            assert result.assignment.is_feasible(), method
            assert result.objective > 0

    def test_exact_methods_agree(self, paper_problem):
        values = {m: solve(paper_problem, method=m).objective
                  for m in ("colored-ssb", "brute-force", "pareto-dp-pruned",
                            "branch-and-bound")}
        baseline = values["colored-ssb"]
        for method, value in values.items():
            assert value == pytest.approx(baseline), method

    def test_heuristics_never_beat_the_optimum(self, paper_problem):
        optimum = solve(paper_problem).objective
        for method in ("greedy", "random-search", "genetic", "sb-bottleneck"):
            value = solve(paper_problem, method=method, seed=0).objective
            assert value >= optimum - 1e-9, method

    def test_unknown_method_raises(self, paper_problem):
        with pytest.raises(ValueError, match="unknown method"):
            solve(paper_problem, method="magic")

    def test_validation_runs_by_default(self, paper_problem):
        # corrupt the instance in a way validation catches before solving
        paper_problem.sensor_attachment["sR1"] = "ghost"
        with pytest.raises(ModelValidationError):
            solve(paper_problem)

    def test_weighting_is_forwarded(self, paper_problem):
        # with λ_B = 0 the best plan is maximal offloading (minimal host load)
        host_only_like = solve(paper_problem, weighting=SSBWeighting(1.0, 0.0))
        plain = solve(paper_problem)
        assert host_only_like.assignment.host_load() <= plain.assignment.host_load() + 1e-9

    def test_summary_mentions_method_and_delay(self, paper_problem):
        result = solve(paper_problem)
        text = result.summary()
        assert "colored-ssb" in text and "delay=" in text

    def test_result_convenience_properties(self, paper_problem):
        result = solve(paper_problem)
        assert result.end_to_end_delay == pytest.approx(result.objective)
        assert result.bottleneck_time <= result.objective

    @pytest.mark.parametrize("seed", range(3))
    def test_random_instances_all_methods_feasible(self, seed):
        problem = random_problem(n_processing=9, n_satellites=3, seed=seed,
                                 sensor_scatter=0.4)
        for method in ("colored-ssb", "pareto-dp-pruned", "greedy", "genetic"):
            result = solve(problem, method=method, seed=seed)
            assert result.assignment.is_feasible()
