"""Unit tests for assignments and the end-to-end delay objective."""

import random

import pytest

from repro.core.assignment import Assignment, HOST_DEVICE
from repro.workloads import (
    paper_example_problem,
    paper_example_profile_values,
    random_problem,
)


class TestFactories:
    def test_host_only_places_all_processing_on_host(self, paper_problem):
        assignment = Assignment.host_only(paper_problem)
        assert set(assignment.host_crus()) == set(paper_problem.tree.processing_ids())
        assert assignment.is_feasible()

    def test_host_only_keeps_sensors_on_their_satellites(self, paper_problem):
        assignment = Assignment.host_only(paper_problem)
        for sensor_id in paper_problem.tree.sensor_ids():
            assert assignment.device_of(sensor_id) == paper_problem.satellite_of_sensor(sensor_id)

    def test_from_cut_offloads_the_subtrees(self, paper_problem):
        assignment = Assignment.from_cut(paper_problem, ["CRU4", "CRU6"])
        assert assignment.device_of("CRU4") == "R"
        assert assignment.device_of("CRU9") == "R"
        assert assignment.device_of("CRU10") == "R"
        assert assignment.device_of("CRU6") == "B"
        assert assignment.device_of("CRU13") == "B"
        assert assignment.device_of("CRU5") == HOST_DEVICE
        assert assignment.is_feasible()

    def test_from_cut_rejects_multi_satellite_subtrees(self, paper_problem):
        with pytest.raises(ValueError, match="spans several satellites"):
            Assignment.from_cut(paper_problem, ["CRU2"])

    def test_missing_crus_rejected(self, paper_problem):
        with pytest.raises(ValueError, match="misses CRUs"):
            Assignment(paper_problem, {"CRU1": HOST_DEVICE})

    def test_unknown_crus_rejected(self, paper_problem):
        placement = Assignment.host_only(paper_problem).placement
        placement["ghost"] = HOST_DEVICE
        with pytest.raises(ValueError, match="unknown CRUs"):
            Assignment(paper_problem, placement)


class TestFeasibility:
    def test_sensor_moved_off_its_satellite_is_infeasible(self, paper_problem):
        placement = Assignment.host_only(paper_problem).placement
        placement["sR1"] = HOST_DEVICE
        errors = Assignment(paper_problem, placement).feasibility_errors()
        assert any("must stay on satellite" in e for e in errors)

    def test_root_off_host_is_infeasible(self, paper_problem):
        placement = Assignment.from_cut(paper_problem, ["CRU4"]).placement
        placement["CRU1"] = "R"
        errors = Assignment(paper_problem, placement).feasibility_errors()
        assert any("must run on the host" in e for e in errors)

    def test_wrong_correspondent_satellite_is_infeasible(self, paper_problem):
        placement = Assignment.host_only(paper_problem).placement
        placement["CRU4"] = "B"   # CRU4's sensors are wired to R
        errors = Assignment(paper_problem, placement).feasibility_errors()
        assert any("correspondent satellite" in e for e in errors)

    def test_satellite_cru_with_host_child_is_infeasible(self, paper_problem):
        placement = Assignment.from_cut(paper_problem, ["CRU4"]).placement
        placement["CRU9"] = HOST_DEVICE   # child of the offloaded CRU4
        errors = Assignment(paper_problem, placement).feasibility_errors()
        assert errors  # broken subtree locality

    def test_unknown_device_is_infeasible(self, paper_problem):
        placement = Assignment.host_only(paper_problem).placement
        placement["CRU4"] = "mars"
        errors = Assignment(paper_problem, placement).feasibility_errors()
        assert any("unknown device" in e for e in errors)


class TestObjective:
    def test_host_only_delay(self, paper_problem):
        values = paper_example_profile_values()
        assignment = Assignment.host_only(paper_problem)
        expected_host = sum(values["host_times"].values())
        assert assignment.host_load() == pytest.approx(expected_host)
        # every satellite still ships its raw sensor frames
        raw_costs = values["comm_costs"]
        expected_r = raw_costs[("sR1", "CRU9")] + raw_costs[("sR2", "CRU10")]
        assert assignment.satellite_load("R") == pytest.approx(expected_r)
        assert assignment.end_to_end_delay() == pytest.approx(
            expected_host + assignment.max_satellite_load())

    def test_single_offload_delay_breakdown(self, paper_problem):
        values = paper_example_profile_values()
        s, c = values["satellite_times"], values["comm_costs"]
        assignment = Assignment.from_cut(paper_problem, ["CRU4"])
        expected_r = s["CRU4"] + s["CRU9"] + s["CRU10"] + c[("CRU4", "CRU2")]
        assert assignment.satellite_load("R") == pytest.approx(expected_r)
        assert "CRU4" not in assignment.host_crus()

    def test_cut_edges_cross_devices(self, paper_problem):
        assignment = Assignment.from_cut(paper_problem, ["CRU4"])
        cut = assignment.cut_edges()
        assert ("CRU2", "CRU4") in cut
        for parent, child in cut:
            assert assignment.device_of(parent) != assignment.device_of(child)

    def test_bottleneck_vs_delay(self, paper_problem):
        assignment = Assignment.from_cut(paper_problem, ["CRU4"])
        assert assignment.bottleneck_time() == pytest.approx(
            max(assignment.host_load(), assignment.max_satellite_load()))
        assert assignment.end_to_end_delay() == pytest.approx(
            assignment.host_load() + assignment.max_satellite_load())
        assert assignment.end_to_end_delay() >= assignment.bottleneck_time()

    def test_breakdown_and_describe(self, paper_problem):
        assignment = Assignment.from_cut(paper_problem, ["CRU4", "CRU6"])
        breakdown = assignment.breakdown()
        assert set(breakdown) == {HOST_DEVICE, "R", "Y", "B", "G"}
        text = assignment.describe()
        assert "end-to-end delay" in text and "satellite R" in text

    def test_bottleneck_satellite(self, paper_problem):
        assignment = Assignment.from_cut(paper_problem, ["CRU4"])
        loads = assignment.satellite_loads()
        assert loads[assignment.bottleneck_satellite()] == pytest.approx(
            assignment.max_satellite_load())

    def test_equality_and_hash(self, paper_problem):
        a = Assignment.from_cut(paper_problem, ["CRU4"])
        b = Assignment.from_cut(paper_problem, ["CRU4"])
        c = Assignment.from_cut(paper_problem, ["CRU6"])
        assert a == b and hash(a) == hash(b)
        assert a != c


def per_satellite_load(assignment, satellite_id):
    """Test-local copy of the per-satellite formula the one-pass loads
    replaced: processing CRUs in pre-order, then cut edges in edge order."""
    problem, placement = assignment.problem, assignment.placement
    tree = problem.tree
    load = sum(problem.satellite_time(i) for i in tree.cru_ids()
               if placement[i] == satellite_id and tree.cru(i).is_processing)
    for parent, child in tree.edges():
        if (placement[parent] != placement[child]
                and placement[child] == satellite_id
                and placement[parent] == HOST_DEVICE):
            load += problem.comm_cost(child, parent)
    return float(load)


def random_cut(problem, rng):
    """Offload each offloadable subtree met top-down with probability 1/2."""
    tree = problem.tree
    cut = []
    stack = list(tree.children_ids(tree.root_id))
    while stack:
        u = stack.pop()
        if not tree.cru(u).is_processing:
            continue
        if problem.correspondent_satellite(u) is not None and rng.random() < 0.5:
            cut.append(u)
        else:
            stack.extend(tree.children_ids(u))
    return cut


class TestSinglePassLoads:
    """``satellite_loads`` is bit-identical to the per-satellite formula."""

    @pytest.mark.parametrize("scatter", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_the_per_satellite_formula(self, scatter, k):
        rng = random.Random(f"{scatter}-{k}")
        sensors_only = 0
        for seed in range(6):
            problem = random_problem(n_processing=rng.randint(4, 16),
                                     n_satellites=k, seed=seed,
                                     sensor_scatter=scatter)
            candidates = [Assignment.host_only(problem)]
            candidates += [Assignment.from_cut(problem, random_cut(problem, rng))
                           for _ in range(4)]
            for assignment in candidates:
                sats = problem.system.satellite_ids()
                want = {sid: per_satellite_load(assignment, sid) for sid in sats}
                assert assignment.satellite_loads() == want
                for sid in sats:
                    assert assignment.satellite_load(sid) == want[sid]
                    if not assignment.satellite_crus(sid) and want[sid] > 0:
                        sensors_only += 1
                assert assignment.max_satellite_load() == max(want.values())
                assert assignment.end_to_end_delay() == \
                    max(want.values()) + assignment.host_load()
        assert sensors_only, "no satellite was left with only its sensors"

    def test_paper_example_cuts(self, paper_problem):
        for cut in ([], ["CRU4"], ["CRU4", "CRU6"], ["CRU4", "CRU6", "CRU7"]):
            assignment = Assignment.from_cut(paper_problem, cut)
            for sid in paper_problem.system.satellite_ids():
                assert assignment.satellite_load(sid) == \
                    per_satellite_load(assignment, sid)
