"""Unit tests for AssignmentProblem derived quantities."""

import pytest

from repro.workloads import paper_example_problem, random_problem


class TestAccessors:
    def test_timing_accessors(self, paper_problem):
        assert paper_problem.host_time("CRU1") > 0
        assert paper_problem.satellite_time("CRU9") > 0
        assert paper_problem.comm_cost("CRU9", "CRU4") > 0
        assert paper_problem.host_time("sR1") == 0.0

    def test_satellite_of_sensor(self, paper_problem):
        assert paper_problem.satellite_of_sensor("sR1") == "R"
        assert paper_problem.satellite_of_sensor("sB3") == "B"

    def test_color_of_satellite(self, paper_problem):
        assert paper_problem.color_of_satellite("R") == "red"
        assert paper_problem.color_of_satellite("G") == "green"

    def test_summary_mentions_counts(self, paper_problem):
        text = paper_problem.summary()
        assert "13 processing" in text
        assert "8 sensors" in text


class TestCorrespondentSatellites:
    def test_single_satellite_subtrees(self, paper_problem):
        corr = paper_problem.correspondent_satellites()
        assert corr["CRU4"] == "R"
        assert corr["CRU9"] == "R"
        assert corr["CRU5"] == "B"
        assert corr["CRU13"] == "B"
        assert corr["CRU11"] == "Y"
        assert corr["CRU7"] == "G"

    def test_multi_satellite_subtrees_have_none(self, paper_problem):
        corr = paper_problem.correspondent_satellites()
        assert corr["CRU1"] is None
        assert corr["CRU2"] is None
        assert corr["CRU3"] is None

    def test_sensors_map_to_their_satellite(self, paper_problem):
        corr = paper_problem.correspondent_satellites()
        assert corr["sY1"] == "Y"
        assert corr["sG2"] == "G"

    def test_satellites_under(self, paper_problem):
        assert paper_problem.satellites_under("CRU2") == {"R", "B", "Y"}
        assert paper_problem.satellites_under("CRU3") == {"B", "G"}
        assert paper_problem.satellites_under("CRU13") == {"B"}

    def test_cache_invalidation(self, paper_problem):
        first = paper_problem.correspondent_satellites()
        paper_problem.invalidate_caches()
        second = paper_problem.correspondent_satellites()
        assert first == second


def reference_beta(problem, parent, child):
    """β as each engine once summed it: a generator over the child's subtree."""
    tree = problem.tree
    sat_time = sum(problem.satellite_time(i) for i in tree.subtree_ids(child)
                   if tree.cru(i).is_processing)
    return float(sat_time + problem.comm_cost(child, parent))


class TestOffloadCosts:
    @pytest.mark.parametrize("scatter", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_matches_the_subtree_sum_bit_for_bit(self, k, scatter):
        sensor_edges = 0
        for seed in range(8):
            problem = random_problem(n_processing=5 + 9 * seed, n_satellites=k,
                                     seed=seed, sensor_scatter=scatter)
            beta = problem.offload_costs()
            edges = problem.tree.edges()
            assert set(beta) == {child for _, child in edges}
            for parent, child in edges:
                assert beta[child].hex() == reference_beta(
                    problem, parent, child).hex()
                sensor_edges += problem.tree.cru(child).is_sensor
        assert sensor_edges > 0

    def test_reads_the_profile_as_edited(self):
        problem = random_problem(n_processing=6, n_satellites=2, seed=3)
        child = problem.tree.children_ids(problem.tree.root_id)[0]
        before = problem.offload_costs()[child]
        problem.profile.set_satellite_time(
            child, problem.satellite_time(child) + 1.0)
        assert problem.offload_costs()[child] == pytest.approx(before + 1.0)


class TestScenariosAreValid:
    def test_paper_problem_valid(self, paper_problem):
        paper_problem.validate()

    def test_healthcare_valid(self, healthcare_problem):
        healthcare_problem.validate()

    def test_snmp_valid(self, snmp_problem):
        snmp_problem.validate()

    def test_random_problems_valid(self, small_random_problem, clustered_random_problem):
        small_random_problem.validate()
        clustered_random_problem.validate()
