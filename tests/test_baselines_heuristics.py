"""Unit tests for the heuristic baselines and the bottleneck objective."""

import pytest

from repro.baselines import (
    bokhari_sb_assignment,
    branch_and_bound_assignment,
    brute_force_assignment,
    genetic_assignment,
    greedy_assignment,
    random_assignment,
    random_search_assignment,
)
from repro.baselines.genetic import GAParameters, decode_chromosome, _offloadable_crus
from repro.baselines.greedy import maximal_offload_cut
from repro.workloads import paper_example_problem, random_problem


class TestGreedy:
    def test_maximal_offload_cut_covers_all_sensors(self, paper_problem):
        cut = maximal_offload_cut(paper_problem)
        covered = []
        for child in cut:
            covered.extend(paper_problem.tree.subtree_sensor_ids(child))
        assert sorted(covered) == sorted(paper_problem.tree.sensor_ids())

    def test_maximal_offload_cut_is_highest_possible(self, paper_problem):
        cut = set(maximal_offload_cut(paper_problem))
        # CRU2 / CRU3 span several satellites, so the highest cuts are their children
        assert cut == {"CRU4", "CRU5", "CRU11", "CRU6", "CRU7", "CRU8"}

    def test_greedy_result_is_feasible_and_reports_steps(self, paper_problem):
        assignment, details = greedy_assignment(paper_problem)
        assert assignment.is_feasible()
        assert details["steps"] >= 0
        assert details["delay"] == pytest.approx(assignment.end_to_end_delay())

    def test_greedy_never_beats_the_optimum(self):
        for seed in range(6):
            problem = random_problem(n_processing=9, n_satellites=3, seed=seed,
                                     sensor_scatter=0.4)
            greedy, _ = greedy_assignment(problem)
            best, _ = brute_force_assignment(problem)
            assert greedy.end_to_end_delay() >= best.end_to_end_delay() - 1e-9

    def test_greedy_improves_on_its_starting_point(self, paper_problem):
        from repro.core.assignment import Assignment

        start = Assignment.from_cut(
            paper_problem,
            [c for c in maximal_offload_cut(paper_problem)
             if paper_problem.tree.cru(c).is_processing])
        improved, _ = greedy_assignment(paper_problem)
        assert improved.end_to_end_delay() <= start.end_to_end_delay() + 1e-9

    def test_context_is_polled_per_candidate_move(self, monkeypatch):
        # at n=200 one improvement step scans every move of a wide cut; a
        # simulated clock charges each evaluated cut one millisecond, so the
        # deadline fires inside that scan, not after it
        from repro.core.assignment import Assignment
        from repro.core.context import SolveContext

        problem = random_problem(n_processing=200, n_satellites=4, seed=0,
                                 sensor_scatter=0.6)
        now = [0.0]
        evaluate = Assignment.end_to_end_delay

        def charged(self):
            now[0] += 0.001
            return evaluate(self)

        monkeypatch.setattr(Assignment, "end_to_end_delay", charged)
        context = SolveContext(deadline_s=0.005, clock=lambda: now[0])
        assignment, details = greedy_assignment(problem, context=context)
        assert details["interrupted"] == "deadline"
        assert assignment.is_feasible()
        # the seed and the four moves before the deadline, nothing after it
        assert now[0] < 0.0055


class TestRandomSearch:
    def test_random_assignment_is_feasible(self, paper_problem):
        assert random_assignment(paper_problem, seed=0).is_feasible()

    def test_random_search_is_deterministic_per_seed(self, paper_problem):
        a, _ = random_search_assignment(paper_problem, samples=50, seed=7)
        b, _ = random_search_assignment(paper_problem, samples=50, seed=7)
        assert a.placement == b.placement

    def test_more_samples_never_hurt(self, paper_problem):
        few, _ = random_search_assignment(paper_problem, samples=5, seed=3)
        many, _ = random_search_assignment(paper_problem, samples=200, seed=3)
        assert many.end_to_end_delay() <= few.end_to_end_delay() + 1e-9

    def test_invalid_sample_count_raises(self, paper_problem):
        with pytest.raises(ValueError):
            random_search_assignment(paper_problem, samples=0)

    def test_offload_probability_extremes(self, paper_problem):
        all_host, _ = random_search_assignment(paper_problem, samples=1, seed=0,
                                               offload_probability=0.0)
        assert set(all_host.host_crus()) == set(paper_problem.tree.processing_ids())


class TestGenetic:
    def test_parameters_validation(self):
        with pytest.raises(ValueError):
            GAParameters(population_size=1)
        with pytest.raises(ValueError):
            GAParameters(mutation_rate=2.0)
        with pytest.raises(ValueError):
            GAParameters(elite_count=99)

    def test_decode_always_feasible(self, paper_problem):
        offloadable = _offloadable_crus(paper_problem)
        for genes in ([0] * len(offloadable), [1] * len(offloadable)):
            assert decode_chromosome(paper_problem, genes, offloadable).is_feasible()

    def test_genetic_result_is_feasible_and_deterministic(self, paper_problem):
        a, details = genetic_assignment(paper_problem, seed=5, generations=10,
                                        population_size=16)
        b, _ = genetic_assignment(paper_problem, seed=5, generations=10,
                                  population_size=16)
        assert a.is_feasible()
        assert a.placement == b.placement
        assert details["evaluations"] > 0

    def test_genetic_close_to_optimum_on_small_instances(self, paper_problem):
        best, _ = brute_force_assignment(paper_problem)
        ga, _ = genetic_assignment(paper_problem, seed=1, generations=40,
                                   population_size=30)
        assert ga.end_to_end_delay() <= 1.2 * best.end_to_end_delay()


class TestBranchAndBound:
    def test_is_exact_on_the_paper_example(self, paper_problem):
        bnb, details = branch_and_bound_assignment(paper_problem)
        best, _ = brute_force_assignment(paper_problem)
        assert bnb.end_to_end_delay() == pytest.approx(best.end_to_end_delay())
        assert details["explored"] > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_is_exact_on_random_instances(self, seed):
        problem = random_problem(n_processing=9, n_satellites=3, seed=seed,
                                 sensor_scatter=0.5)
        bnb, _ = branch_and_bound_assignment(problem)
        best, _ = brute_force_assignment(problem)
        assert bnb.end_to_end_delay() == pytest.approx(best.end_to_end_delay())

    def test_prunes_part_of_the_tree(self, paper_problem):
        _, details = branch_and_bound_assignment(paper_problem)
        assert details["pruned"] > 0

    def test_works_without_greedy_incumbent(self, paper_problem):
        bnb, _ = branch_and_bound_assignment(paper_problem, use_greedy_incumbent=False)
        best, _ = brute_force_assignment(paper_problem)
        assert bnb.end_to_end_delay() == pytest.approx(best.end_to_end_delay())

    def test_node_limit_is_respected(self, paper_problem):
        _, details = branch_and_bound_assignment(paper_problem, node_limit=3)
        assert details["node_limit_hit"]


class TestBokhariSB:
    def test_optimises_the_bottleneck_objective(self, paper_problem):
        sb_assignment, details = bokhari_sb_assignment(paper_problem)
        # exact bottleneck optimum via enumeration
        from repro.baselines.brute_force import enumerate_assignments

        best_bottleneck = min(a.bottleneck_time()
                              for a in enumerate_assignments(paper_problem))
        assert sb_assignment.bottleneck_time() == pytest.approx(best_bottleneck)
        assert details["bottleneck_time"] == pytest.approx(best_bottleneck)

    def test_delay_of_sb_solution_is_at_least_the_ssb_optimum(self, paper_problem):
        from repro.core.solver import solve

        sb_assignment, _ = bokhari_sb_assignment(paper_problem)
        ssb_delay = solve(paper_problem).objective
        assert sb_assignment.end_to_end_delay() >= ssb_delay - 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_bottleneck_optimality_on_random_instances(self, seed):
        from repro.baselines.brute_force import enumerate_assignments

        problem = random_problem(n_processing=8, n_satellites=3, seed=seed,
                                 sensor_scatter=0.3)
        sb_assignment, _ = bokhari_sb_assignment(problem)
        best_bottleneck = min(a.bottleneck_time() for a in enumerate_assignments(problem))
        assert sb_assignment.bottleneck_time() == pytest.approx(best_bottleneck)
