"""PortfolioSolver: feature schedule, incumbent sharing, exactness, anytime."""

import pytest

from repro.baselines.greedy import maximal_offload_assignment
from repro.core.context import SolveContext
from repro.core.portfolio import PortfolioSolver, instance_features
from repro.core.solver import solve
from repro.workloads import random_problem


def make(n=10, scatter=1.0, seed=1, sats=3, **kwargs):
    return random_problem(n_processing=n, n_satellites=sats, seed=seed,
                          sensor_scatter=scatter, **kwargs)


class TestFeatures:
    def test_clustered_instances_have_low_scatter(self):
        clustered = instance_features(make(scatter=0.0, seed=2))
        scattered = instance_features(make(scatter=1.0, seed=2))
        assert 0.0 <= clustered["scatter_ratio"] <= scattered["scatter_ratio"] <= 1.0
        assert clustered["n_processing"] == scattered["n_processing"] == 10
        assert clustered["n_satellites"] == 3

    def test_fully_scattered_ratio_is_high(self):
        features = instance_features(make(n=20, scatter=1.0, seed=4))
        assert features["scatter_ratio"] > 0.5


class TestExactness:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scatter", [0.0, 0.5, 1.0])
    def test_matches_brute_force(self, seed, scatter):
        problem = make(n=8, scatter=scatter, seed=seed)
        reference = solve(problem, method="brute-force").objective
        result = solve(problem, method="portfolio")
        assert result.objective == reference
        assert result.status == "optimal"
        assert result.details["optimal_proven"]

    def test_matches_labels_where_brute_force_cannot_reach(self):
        problem = make(n=24, scatter=1.0, seed=9, sats=4)
        reference = solve(problem, method="colored-ssb-labels").objective
        result = solve(problem, method="portfolio")
        assert result.objective == reference

    def test_cross_check_runs_on_small_compact_instances(self):
        problem = make(n=8, scatter=0.0, seed=3)
        result = solve(problem, method="portfolio")
        stages = {s["stage"]: s for s in result.details["stages"]}
        assert not stages["dp-pruned"].get("skipped")
        assert result.details["cross_check_agreed"] is True

    def test_cross_check_skipped_on_large_scattered_instances(self):
        problem = make(n=30, scatter=1.0, seed=3, sats=4)
        result = solve(problem, method="portfolio")
        stages = {s["stage"]: s for s in result.details["stages"]}
        assert stages["dp-pruned"].get("skipped")
        assert "cross_check_agreed" not in result.details

    def test_cross_check_can_be_forced_and_disabled(self):
        problem = make(n=18, scatter=1.0, seed=5)
        forced = solve(problem, method="portfolio", cross_check="always")
        stages = {s["stage"]: s for s in forced.details["stages"]}
        assert not stages["dp-pruned"].get("skipped")
        off = solve(problem, method="portfolio", cross_check="never")
        stages = {s["stage"]: s for s in off.details["stages"]}
        assert stages["dp-pruned"]["skipped"] == "cross_check disabled"


class TestAttribution:
    def test_per_stage_records(self):
        result = solve(make(n=10, scatter=1.0, seed=7), method="portfolio")
        stages = result.details["stages"]
        assert [s["stage"] for s in stages][:2] == ["greedy", "labels"]
        greedy, labels = stages[0], stages[1]
        assert greedy["improved"] and greedy["objective"] >= labels["objective"]
        assert all(s["elapsed_s"] >= 0.0 for s in stages)
        assert result.details["winner"] in ("greedy", "labels", "dp-pruned")
        assert result.details["features"]["n_processing"] == 10

    def test_greedy_seed_enters_the_shared_context(self):
        context = SolveContext()
        solver = PortfolioSolver()
        solver.solve(make(n=10, scatter=1.0, seed=7), context=context)
        sources = [source for _, _, source in context.incumbent_history]
        assert any(source in ("greedy", "portfolio-greedy")
                   for source in sources)
        objectives = [obj for _, obj, _ in context.incumbent_history]
        assert objectives == sorted(objectives, reverse=True)


class TestLabelStage:
    """Every label stage runs the one meet-in-the-middle kernel, from the
    same maximal-offload seed on every run."""

    def test_worst_scattered_instance_stays_small(self):
        # perfbench's worst solve-scattered instance (scatter ratio 0.707):
        # the removed full-depth forward sweep created 11,052,038 labels here
        problem = random_problem(n_processing=50, n_satellites=4, seed=0,
                                 sensor_scatter=1.0)
        result = solve(problem, method="portfolio")
        assert result.status == "optimal"
        stages = {s["stage"]: s for s in result.details["stages"]}
        assert stages["labels"]["labels_created"] < 100_000

    @pytest.mark.parametrize("n, seed", [(10, 5), (30, 0)])
    def test_seed_is_the_maximal_offload_cut(self, n, seed):
        # no climb, so no step count or clock decides the seed: an expired
        # budget returns the seed stage's assignment itself
        problem = make(n=n, scatter=1.0, seed=seed, sats=4)
        seed_cut = maximal_offload_assignment(problem)
        expired = solve(problem, method="portfolio",
                        context=SolveContext(deadline_s=0.0))
        assert expired.assignment.placement == seed_cut.placement
        runs = [solve(problem, method="portfolio") for _ in range(2)]
        for result in runs:
            stages = {s["stage"]: s for s in result.details["stages"]}
            assert stages["greedy"]["objective"] == seed_cut.end_to_end_delay()
            assert "steps" not in stages["greedy"]
        created = [{s["stage"]: s for s in r.details["stages"]}["labels"]
                   ["labels_created"] for r in runs]
        assert created[0] == created[1]

    def test_negative_beam_width_rejected_at_construction(self):
        # not at the label stage, after the greedy stage already ran
        with pytest.raises(ValueError, match="beam_width must be non-negative"):
            PortfolioSolver(beam_width=-1)

    def test_labels_stage_records_the_beam_certificate(self):
        problem = make(n=10, scatter=0.0, seed=1)
        certified = solve(problem, method="portfolio")
        exact = solve(problem, method="portfolio", beam_width=0)
        stage = {s["stage"]: s for s in certified.details["stages"]}["labels"]
        assert stage["beam_certified"] is True
        assert stage["labels_created"] == 0
        stage = {s["stage"]: s for s in exact.details["stages"]}["labels"]
        assert stage["beam_certified"] is False
        assert certified.objective == exact.objective

    def test_portfolio_runs_bidir_and_stays_exact_on_large_scattered(self):
        problem = make(n=40, scatter=1.0, seed=5, sats=4, max_children=3)
        reference = solve(problem, method="pareto-dp-pruned").objective
        result = solve(problem, method="portfolio")
        stages = {s["stage"]: s for s in result.details["stages"]}
        assert stages["labels"]["direction"] == "bidirectional"
        assert result.objective == reference
        assert result.details["optimal_proven"]


class TestAnytime:
    def test_expired_budget_returns_greedy_seed(self):
        result = solve(make(n=20, scatter=1.0, seed=2, sats=4),
                       method="portfolio",
                       context=SolveContext(deadline_s=0.0))
        assert result.status == "feasible"
        assert result.interrupted == "deadline"
        assert result.assignment is not None
        assert result.assignment.is_feasible()
        stages = {s["stage"]: s for s in result.details["stages"]}
        assert stages["dp-pruned"].get("skipped")

    def test_interrupted_cross_check_does_not_downgrade_optimality(
            self, monkeypatch):
        # labels completes, proving the optimum; the deadline then passes
        # as the forced DP cross-check starts, so its first poll fires — the
        # result must not be relabelled feasible
        import repro.baselines.pareto_dp as pareto_dp

        problem = make(n=8, scatter=0.0, seed=3)
        reference = solve(problem, method="portfolio").objective

        class Clock:
            """Frozen at 0 until the DP stage starts, then far past it."""

            now = 0.0

            def __call__(self):
                return self.now

        clock = Clock()
        dp_stage = pareto_dp.pareto_dp_pruned_assignment

        def expiring_dp_stage(*args, **kwargs):
            clock.now = 10.0
            return dp_stage(*args, **kwargs)

        monkeypatch.setattr(pareto_dp, "pareto_dp_pruned_assignment",
                            expiring_dp_stage)
        context = SolveContext(deadline_s=5.0, clock=clock)
        result = solve(problem, method="portfolio", cross_check="always",
                       context=context)
        stages = {s["stage"]: s for s in result.details["stages"]}
        assert stages["labels"].get("interrupted") is None
        assert stages["dp-pruned"]["interrupted"] == "deadline"
        assert result.status == "optimal"
        assert result.objective == reference
        assert result.details["cross_check_agreed"] is False


class TestRefutation:
    """The cross-check refutes the label answer; it does not re-solve."""

    @pytest.mark.parametrize("seed, scatter", [(0, 0.0), (1, 0.3), (3, 0.0)])
    def test_suboptimal_label_answer_is_caught_and_replaced(
            self, monkeypatch, seed, scatter):
        # mutation: the sweep reports no improvement over the
        # maximal-offload seed, so a suboptimal seed stands as "proven"
        from repro.core.label_search import LabelDominanceSearch, _not_found

        problem = make(n=8, scatter=scatter, seed=seed)
        optimum = solve(problem, method="brute-force").objective
        seed_answer = maximal_offload_assignment(problem)
        assert seed_answer.end_to_end_delay() > optimum    # the premise

        search = LabelDominanceSearch.search

        def no_improvement(self, *args, **kwargs):
            return _not_found(search(self, *args, **kwargs).stats)

        monkeypatch.setattr(LabelDominanceSearch, "search", no_improvement)
        result = solve(problem, method="portfolio")
        assert result.details["cross_check_agreed"] is False
        assert result.details["winner"] == "dp-pruned"
        assert result.objective == optimum
        assert result.details["optimal_proven"] is False

    def test_agreeing_refutation_runs_one_exact_pass(self, monkeypatch):
        import repro.baselines.pareto_dp as pareto_dp

        beam_widths = []
        kernel = pareto_dp._dp_labels

        def recorded(*args, **kwargs):
            beam_widths.append(kwargs.get("beam_width"))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(pareto_dp, "_dp_labels", recorded)
        result = solve(make(n=8, scatter=0.0, seed=3), method="portfolio")
        assert result.details["cross_check_agreed"] is True
        assert beam_widths == [None]     # no beam pre-pass


def star_problem(n=12, sats=3):
    """A genuine wide star: the root fans out to every other processing CRU.

    The random generator's uniform parent attachment never produces this
    shape even with a huge ``max_children`` cap, so the star-gate regression
    builds it directly.
    """
    from repro.model.costs import CommunicationCostModel
    from repro.model.cru import CRU, CRUTree
    from repro.model.platform import Host, HostSatelliteSystem, Satellite
    from repro.model.problem import AssignmentProblem
    from repro.model.profiles import ExecutionProfile

    tree = CRUTree(CRU("P0"))
    for i in range(1, n):
        tree.add_processing("P0", f"P{i}")
    system = HostSatelliteSystem(Host(speed_factor=2.0))
    satellite_ids = [f"sat{i}" for i in range(sats)]
    for sid in satellite_ids:
        system.add_satellite(Satellite(sid))
    profile = ExecutionProfile()
    costs = CommunicationCostModel()
    attachment = {}
    for i in range(n):
        cru_id = f"P{i}"
        profile.set_host_time(cru_id, 0.4 + 0.05 * i)
        profile.set_satellite_time(cru_id, 0.9 + 0.1 * i)
        if not tree.children_ids(cru_id):
            sensor_id = f"s{i}"
            tree.add_sensor(cru_id, sensor_id)
            attachment[sensor_id] = satellite_ids[i % sats]
            profile.set_times(sensor_id, 0.0, 0.0)
            costs.set_cost(sensor_id, cru_id, 0.1)
    for parent, child in tree.edges():
        if tree.cru(child).is_processing:
            costs.set_cost(child, parent, 0.2)
    return AssignmentProblem(tree=tree, system=system,
                             sensor_attachment=attachment,
                             profile=profile, costs=costs, name=f"star-{n}")


class TestStarGate:
    """Wide stars route through the streamed pruned DP now: the star fold
    runs in bounded chunks under per-colour completion floors, so the auto
    policy enables the cross-check up to a star-specific size cap instead
    of skipping on shape alone."""

    def test_star_features_report_high_star_width(self):
        features = instance_features(star_problem(n=12))
        assert features["max_branching"] == 11
        assert features["star_width"] > 0.5
        balanced = instance_features(make(n=12, scatter=0.0, seed=3))
        assert balanced["star_width"] <= 0.5

    def test_cross_check_runs_on_wide_star(self):
        result = solve(star_problem(n=12), method="portfolio")
        stages = {s["stage"]: s for s in result.details["stages"]}
        assert not stages["dp-pruned"].get("skipped")
        assert result.details["cross_check_agreed"] is True

    def test_cross_check_still_runs_on_balanced_small_instances(self):
        result = solve(make(n=12, scatter=0.0, seed=3), method="portfolio")
        stages = {s["stage"]: s for s in result.details["stages"]}
        assert not stages["dp-pruned"].get("skipped")

    def test_wide_star_near_40_cross_checks(self):
        from repro.core.portfolio import PortfolioSolver

        features = instance_features(star_problem(n=40, sats=4))
        assert features["star_width"] > 0.9
        solver = PortfolioSolver()
        assert solver._wants_cross_check(features)

    def test_giant_star_past_the_cap_is_gated(self):
        from repro.core.portfolio import PortfolioSolver

        features = instance_features(star_problem(n=60, sats=4))
        solver = PortfolioSolver()
        assert not solver._wants_cross_check(features)
        assert "star n=60" in solver._skip_reason(features)

    def test_portfolio_stays_exact_on_stars(self):
        problem = star_problem(n=8)
        reference = solve(problem, method="brute-force").objective
        result = solve(problem, method="portfolio")
        assert result.objective == reference
        assert result.details["optimal_proven"]
