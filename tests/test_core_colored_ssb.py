"""Unit tests for the adapted SSB search on coloured DWGs (paper §5.4)."""

import pytest

from repro.baselines import brute_force_assignment
from repro.core.assignment_graph import build_assignment_graph
from repro.core.colored_ssb import ColoredSSBSearch, find_optimal_colored_ssb_path
from repro.core.dwg import DoublyWeightedGraph, PathMeasures, SSBWeighting, SIGMA_ATTR
from repro.graphs.kshortest import iter_paths_by_weight
from repro.workloads import paper_example_problem, random_problem


def exhaustive_colored_optimum(dwg, weighting=None):
    weighting = weighting or SSBWeighting()
    measures = PathMeasures(weighting)
    best = float("inf")
    for path in iter_paths_by_weight(dwg.graph, dwg.source, dwg.target, weight=SIGMA_ATTR):
        best = min(best, measures.ssb_colored(path))
    return best


def expansion_graph():
    """A coloured DWG where the bottleneck colour is spread over two
    consecutive blue edges — the Figure-9 situation requiring expansion."""
    dwg = DoublyWeightedGraph(source="S", target="T")
    # top (min-S) route: two blue edges whose *sum* is the bottleneck
    dwg.add_edge("S", "C", sigma=1.0, beta=1.0, color="red")
    dwg.add_edge("C", "D", sigma=1.0, beta=6.0, color="blue")
    dwg.add_edge("D", "E", sigma=1.0, beta=6.0, color="blue")
    dwg.add_edge("E", "T", sigma=1.0, beta=1.0, color="green")
    # alternative route through the blue region with a smaller blue sum
    dwg.add_edge("C", "E", sigma=5.0, beta=4.0, color="blue")
    # expensive bypass that should never win
    dwg.add_edge("S", "T", sigma=40.0, beta=1.0, color="red")
    return dwg


class TestOnPlainColoredGraphs:
    def test_single_edge(self):
        dwg = DoublyWeightedGraph()
        dwg.add_edge("S", "T", sigma=2.0, beta=3.0, color="red")
        result = ColoredSSBSearch().search(dwg)
        assert result.ssb_weight == pytest.approx(5.0)

    def test_disconnected(self):
        dwg = DoublyWeightedGraph()
        dwg.add_edge("S", "M", sigma=1.0, beta=1.0, color="red")
        result = ColoredSSBSearch().search(dwg)
        assert not result.found

    def test_zero_bottleneck_short_circuit(self):
        dwg = DoublyWeightedGraph()
        dwg.add_edge("S", "T", sigma=1.0, beta=0.0, color="red")
        dwg.add_edge("S", "T", sigma=9.0, beta=0.0, color="red")
        result = ColoredSSBSearch().search(dwg)
        assert result.ssb_weight == pytest.approx(1.0)
        assert result.termination == "zero-bottleneck"

    def test_expansion_graph_needs_and_uses_expansion(self):
        dwg = expansion_graph()
        result = ColoredSSBSearch().search(dwg)
        assert result.expansions >= 1
        assert result.ssb_weight == pytest.approx(exhaustive_colored_optimum(dwg))
        # optimal route swaps the two blue edges (sum 12) for the single blue
        # edge of weight 4: S = 1+5+1 = 7, B = max(1 red, 4 blue, 1 green) = 4
        assert result.ssb_weight == pytest.approx(11.0)

    def test_expansion_can_be_disabled_and_still_exact(self):
        dwg = expansion_graph()
        result = ColoredSSBSearch(enable_expansion=False).search(dwg)
        assert result.expansions == 0
        assert result.ssb_weight == pytest.approx(exhaustive_colored_optimum(dwg))

    def test_search_does_not_mutate_input(self):
        dwg = expansion_graph()
        before = dwg.number_of_edges()
        ColoredSSBSearch().search(dwg)
        assert dwg.number_of_edges() == before

    def test_convenience_wrapper(self):
        dwg = expansion_graph()
        assert find_optimal_colored_ssb_path(dwg).ssb_weight == pytest.approx(11.0)

    def test_iteration_trace_records_actions(self):
        dwg = expansion_graph()
        result = ColoredSSBSearch().search(dwg)
        actions = {it.action for it in result.iterations}
        assert actions & {"eliminate", "expand", "enumerate", "terminate"}

    def test_max_iterations_cap_falls_back_to_the_finisher(self):
        dwg = expansion_graph()
        result = ColoredSSBSearch(max_iterations=1).search(dwg)
        assert result.termination == "iteration-cap-label-finish"
        assert result.finisher == "labels"
        assert result.ssb_weight == pytest.approx(exhaustive_colored_optimum(dwg))
        yen = ColoredSSBSearch(max_iterations=1, finisher="enumeration").search(dwg)
        assert yen.termination == "iteration-cap-enumeration"
        assert yen.ssb_weight == pytest.approx(result.ssb_weight)

    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    def test_convex_weightings_remain_exact(self, lam):
        dwg = expansion_graph()
        weighting = SSBWeighting.convex(lam)
        result = ColoredSSBSearch(weighting).search(dwg)
        assert result.ssb_weight == pytest.approx(
            exhaustive_colored_optimum(dwg, weighting))


class TestOnAssignmentGraphs:
    def test_paper_example_matches_brute_force(self, paper_problem):
        graph = build_assignment_graph(paper_problem)
        result = ColoredSSBSearch().search(graph.dwg)
        best, _ = brute_force_assignment(paper_problem)
        assert result.ssb_weight == pytest.approx(best.end_to_end_delay())

    def test_resulting_path_converts_to_an_optimal_assignment(self, paper_problem):
        graph = build_assignment_graph(paper_problem)
        result = ColoredSSBSearch().search(graph.dwg)
        assignment = graph.path_to_assignment(result.path)
        assert assignment.is_feasible()
        assert assignment.end_to_end_delay() == pytest.approx(result.ssb_weight)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("scatter", [0.0, 0.5, 1.0])
    def test_matches_exact_references_on_random_instances(self, seed, scatter):
        problem = random_problem(n_processing=8, n_satellites=3, seed=seed,
                                 sensor_scatter=scatter)
        graph = build_assignment_graph(problem)
        pytest.importorskip("scipy.optimize")
        from milp_oracle import milp_assignment

        result = ColoredSSBSearch().search(graph.dwg)
        brute, _ = brute_force_assignment(problem)
        oracle = milp_assignment(problem)
        assert result.ssb_weight == pytest.approx(brute.end_to_end_delay())
        assert result.ssb_weight == pytest.approx(oracle.end_to_end_delay())

    def test_clustered_instances_mostly_avoid_the_enumeration_fallback(self):
        # one satellite per top-level branch -> contiguous colour regions, so
        # the paper's elimination/expansion machinery should usually suffice
        terminations = []
        for seed in range(6):
            problem = random_problem(n_processing=10, n_satellites=3, seed=seed,
                                     sensor_scatter=0.0)
            graph = build_assignment_graph(problem)
            result = ColoredSSBSearch().search(graph.dwg)
            terminations.append(result.termination)
        assert not any(t.startswith("iteration-cap") for t in terminations)
        assert any(t in {"s-weight-bound", "zero-bottleneck", "disconnected"}
                   for t in terminations)
