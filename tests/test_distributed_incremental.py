"""Structure fingerprints, the warm-start index, and warm portfolio re-solves."""

import pytest

from repro.core.portfolio import PortfolioSolver
from repro.core.solver import solve
from repro.distributed import WarmStartIndex, structure_fingerprint
from repro.workloads import paper_example_problem, random_problem


def perturbed(problem_factory, host_scale=1.1, sat_scale=0.95, cost_scale=1.05):
    """A structurally identical instance with drifted profiles/costs."""
    problem = problem_factory()
    for cru_id, seconds in list(problem.profile.host_times().items()):
        problem.profile.set_host_time(cru_id, seconds * host_scale)
    for cru_id, seconds in list(problem.profile.satellite_times().items()):
        problem.profile.set_satellite_time(cru_id, seconds * sat_scale)
    for (child, parent), seconds in list(problem.costs.costs().items()):
        problem.costs.set_cost(child, parent, seconds * cost_scale)
    problem.invalidate_caches()
    return problem


def scattered(seed=3, n=12):
    return random_problem(n_processing=n, n_satellites=4, seed=seed,
                          sensor_scatter=0.5)


class TestStructureFingerprint:
    def test_profile_and_cost_drift_preserves_the_fingerprint(self):
        base = scattered()
        drifted = perturbed(scattered)
        from repro.runtime import problem_fingerprint

        assert structure_fingerprint(base) == structure_fingerprint(drifted)
        # ...while the full instance fingerprint (cache key) must differ
        assert problem_fingerprint(base) != problem_fingerprint(drifted)

    def test_different_structures_fingerprint_differently(self):
        a = random_problem(n_processing=10, n_satellites=3, seed=1)
        b = random_problem(n_processing=10, n_satellites=3, seed=2)
        c = random_problem(n_processing=11, n_satellites=3, seed=1)
        assert len({structure_fingerprint(p) for p in (a, b, c)}) == 3

    def test_sensor_rewiring_changes_the_fingerprint(self):
        base = scattered()
        rewired = scattered()
        sensor, satellite = next(iter(rewired.sensor_attachment.items()))
        others = [s for s in rewired.system.satellite_ids() if s != satellite]
        rewired.sensor_attachment[sensor] = others[0]
        rewired.invalidate_caches()
        assert structure_fingerprint(base) != structure_fingerprint(rewired)


class TestWarmStartIndex:
    def test_memory_round_trip(self):
        index = WarmStartIndex()
        assert index.get("fp") is None
        index.put("fp", ["F3", "F5"], 12.5)
        assert index.get("fp") == {"cut": ["F3", "F5"], "objective": 12.5}
        assert len(index) == 1

    def test_disk_round_trip_shared_between_instances(self, tmp_path):
        a = WarmStartIndex(directory=str(tmp_path))
        a.put("fp", ["F1"], 3.0)
        b = WarmStartIndex(directory=str(tmp_path))   # fresh memory tier
        assert b.get("fp") == {"cut": ["F1"], "objective": 3.0}
        assert len(b) == 1

    def test_corrupt_disk_records_are_misses(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        (tmp_path / "shapeless.json").write_text('{"x": 1}', encoding="utf-8")
        index = WarmStartIndex(directory=str(tmp_path))
        assert index.get("bad") is None
        assert index.get("shapeless") is None


def warm_solver(index=None, **kwargs):
    # an empty index is falsy (it has a length): test for None
    return PortfolioSolver(
        index=WarmStartIndex() if index is None else index, **kwargs)


def labels_created(details):
    return {s["stage"]: s for s in details["stages"]}["labels"]["labels_created"]


class TestWarmPortfolio:
    def test_cold_solve_matches_the_reference(self):
        problem = scattered()
        assignment, details = warm_solver().solve(problem)
        reference = solve(problem, method="colored-ssb-labels")
        assert assignment.end_to_end_delay() == pytest.approx(reference.objective)
        assert not details["warm_started"]
        assert details["warm_incumbent"] is None
        assert not details["warm_cut_still_optimal"]

    def test_no_index_no_warm_details(self):
        _, details = PortfolioSolver().solve(scattered())
        assert "structure_fingerprint" not in details
        assert "warm_started" not in details

    def test_warm_resolve_is_exact_after_profile_drift(self):
        solver = warm_solver()
        for seed in range(4):
            base = scattered(seed=seed)
            solver.solve(base)
            drifted = perturbed(lambda: scattered(seed=seed))
            assignment, details = solver.solve(drifted)
            assert details["warm_started"]
            assert details["warm_incumbent"] >= assignment.end_to_end_delay()
            reference = solve(drifted, method="colored-ssb-labels")
            assert assignment.end_to_end_delay() == pytest.approx(
                reference.objective)

    def test_unchanged_resubmission_confirms_the_old_optimum(self):
        problem_a = scattered(seed=9)
        problem_b = scattered(seed=9)              # identical twin
        solver = warm_solver()
        first, _ = solver.solve(problem_a)
        second, details = solver.solve(problem_b)
        assert details["warm_started"]
        assert details["winner"] == "warm-start"
        assert second.end_to_end_delay() == first.end_to_end_delay()

    def test_repeated_solves_stay_exact(self):
        solver = warm_solver()
        for _ in range(3):
            assignment, _ = solver.solve(scattered(seed=21, n=14))
            reference = solve(scattered(seed=21, n=14),
                              method="colored-ssb-labels")
            assert assignment.end_to_end_delay() == reference.objective

    def test_negative_beam_width_rejected_at_construction(self):
        # warm solves pass width 0 to the sweep, so only construction can
        # catch a bad width for every solve
        with pytest.raises(ValueError, match="beam_width must be non-negative"):
            warm_solver(beam_width=-1)

    def test_warm_start_prunes_labels(self):
        """The warm incumbent must measurably shrink the label sweep.

        Warm solves run without the beam; the cold ones do too here, so the
        beam certificate cannot skip their exact pass."""
        solver = warm_solver(beam_width=0)
        cold_labels = warm_labels = 0
        for seed in range(3):
            _, cold = solver.solve(scattered(seed=seed, n=16))
            _, warm = solver.solve(perturbed(
                lambda: scattered(seed=seed, n=16), host_scale=1.03,
                sat_scale=0.98, cost_scale=1.0))
            cold_labels += labels_created(cold)
            warm_labels += labels_created(warm)
        assert warm_labels < cold_labels

    def test_registry_method_with_explicit_index(self):
        index = WarmStartIndex()
        problem = scattered(seed=11)
        first = solve(problem, method="colored-ssb-incremental", index=index)
        assert not first.details["warm_started"]
        drifted = perturbed(lambda: scattered(seed=11))
        second = solve(drifted, method="incremental", index=index)
        assert second.details["warm_started"]
        reference = solve(drifted, method="colored-ssb-labels")
        assert second.objective == pytest.approx(reference.objective)

    def test_registry_method_with_warm_dir(self, tmp_path):
        problem = scattered(seed=12)
        first = solve(problem, method="colored-ssb-incremental",
                      warm_dir=str(tmp_path))
        assert not first.details["warm_started"]
        # a different process would build a fresh solver: only the disk
        # directory carries the warm start across
        second = solve(perturbed(lambda: scattered(seed=12)),
                       method="colored-ssb-incremental",
                       warm_dir=str(tmp_path))
        assert second.details["warm_started"]

    def test_stale_cut_from_foreign_structure_falls_back_to_cold(self):
        index = WarmStartIndex()
        problem = scattered(seed=13)
        index.put(structure_fingerprint(problem), ["no-such-cru"], 1.0)
        assignment, details = warm_solver(index).solve(problem)
        assert not details["warm_started"]
        reference = solve(problem, method="colored-ssb-labels")
        assert assignment.end_to_end_delay() == pytest.approx(reference.objective)
        # the solve replaced the stale record with its own optimal cut
        assert index.get(structure_fingerprint(problem))["cut"] != ["no-such-cru"]

    def test_interrupted_solve_leaves_the_index_alone(self):
        from repro.core.context import SolveContext

        index = WarmStartIndex()
        context = SolveContext()
        context.cancel()
        _, details = warm_solver(index).solve(scattered(seed=14), context)
        assert details["interrupted"] == "cancelled"
        assert len(index) == 0

    def test_paper_example_round_trip(self, paper_problem):
        solver = warm_solver()
        first, _ = solver.solve(paper_problem)
        second, details = solver.solve(paper_example_problem())
        assert details["warm_started"]
        assert first.end_to_end_delay() == pytest.approx(
            second.end_to_end_delay())


@pytest.mark.parametrize("seed", range(20))
def test_identical_resolve_keeps_the_replayed_cut(seed):
    """Re-solving an unchanged scattered n=50 instance confirms the cut in
    hand: the label stage's path can only tie it, and a tie is judged by
    the assignment's own objective, not by the path's summation order."""
    index = WarmStartIndex()

    def fresh():
        return random_problem(n_processing=50, n_satellites=4, seed=seed,
                              sensor_scatter=1.0)

    first = solve(fresh(), method="colored-ssb-incremental", index=index)
    second = solve(fresh(), method="colored-ssb-incremental", index=index)
    assert second.details["warm_started"]
    assert second.details["warm_cut_still_optimal"] is True
    assert second.details["winner"] == "warm-start"
    assert second.details["objective"].hex() == \
        second.details["warm_incumbent"].hex()
    assert second.objective.hex() == first.objective.hex()
