"""Unit tests for the exact Pareto dynamic program."""

import random

import numpy as np
import pytest

from repro.baselines.brute_force import brute_force_assignment, enumerate_assignments
from repro.baselines.pareto_dp import (
    FrontierExplosion,
    ParetoLabel,
    _completion_potentials,
    _subtree_minima,
    pareto_dp_assignment,
    pareto_frontier,
)
from repro.core.dwg import SSBWeighting
from repro.graphs.dag import min_weight_to_target
from repro.graphs.digraph import DiGraph
from repro.workloads import paper_example_problem, random_problem, snmp_scenario


class TestFrontierGuard:
    def test_tiny_cap_raises_frontier_explosion(self):
        problem = random_problem(n_processing=12, n_satellites=4, seed=2,
                                 sensor_scatter=0.5)
        with pytest.raises(FrontierExplosion) as excinfo:
            pareto_dp_assignment(problem, max_frontier=1)
        assert excinfo.value.limit == 1
        assert excinfo.value.size > 1
        assert "max_frontier" in str(excinfo.value)

    @pytest.mark.timeout(120)
    def test_blowup_regime_raises_fast_at_the_default_cap(self):
        """The guard must fail *fast*: the known scattered-n=30 blowup has to
        raise within seconds at the registry default, not grind for minutes
        completing quadratic prunes first."""
        import time

        from repro.runtime.registry import PARETO_DP_MAX_FRONTIER

        problem = random_problem(n_processing=30, n_satellites=4, seed=0,
                                 sensor_scatter=1.0)
        started = time.perf_counter()
        with pytest.raises(FrontierExplosion):
            pareto_dp_assignment(problem,
                                 max_frontier=PARETO_DP_MAX_FRONTIER)
        assert time.perf_counter() - started < 30.0

    def test_generous_cap_does_not_change_the_result(self, paper_problem):
        capped, _ = pareto_dp_assignment(paper_problem, max_frontier=10_000)
        free, _ = pareto_dp_assignment(paper_problem)
        assert capped == free

    def test_registry_applies_a_default_cap_and_marks_the_limit(self):
        from repro.core.solver import solve
        from repro.runtime import default_registry
        from repro.runtime.registry import PARETO_DP_MAX_FRONTIER

        spec = default_registry().resolve("pareto-dp")
        assert any("FrontierExplosion" in limit for limit in spec.limits)
        assert any("FrontierExplosion" in limit
                   for limit in spec.metadata()["limits"])
        problem = random_problem(n_processing=10, n_satellites=3, seed=4,
                                 sensor_scatter=0.5)
        with pytest.raises(FrontierExplosion):
            solve(problem, method="pareto-dp", max_frontier=2)
        # default sits well above healthy frontiers (n=20 scattered: ~1.5k)
        # but low enough that the blowup regime raises within seconds
        assert 2_000 <= PARETO_DP_MAX_FRONTIER <= 50_000
        assert solve(problem, method="pareto-dp").objective > 0.0


class TestParetoLabel:
    def test_dominance(self):
        a = ParetoLabel(host_time=1.0, loads=(1.0, 2.0), cut=())
        b = ParetoLabel(host_time=2.0, loads=(1.5, 2.0), cut=())
        assert a.dominates(b)
        assert not b.dominates(a)
        assert a.dominates(a)

    def test_incomparable_labels(self):
        a = ParetoLabel(host_time=1.0, loads=(5.0,), cut=())
        b = ParetoLabel(host_time=3.0, loads=(1.0,), cut=())
        assert not a.dominates(b) and not b.dominates(a)


class TestFrontier:
    def test_frontier_has_no_dominated_points(self, paper_problem):
        frontier = pareto_frontier(paper_problem)
        for i, label in enumerate(frontier):
            for j, other in enumerate(frontier):
                if i != j:
                    assert not (other.dominates(label) and other != label)

    def test_every_frontier_label_is_realisable(self, paper_problem):
        from repro.core.assignment import Assignment

        for label in pareto_frontier(paper_problem):
            offloaded = [c for c in label.cut
                         if paper_problem.tree.cru(c).is_processing]
            assignment = Assignment.from_cut(paper_problem, offloaded)
            assert assignment.host_load() == pytest.approx(label.host_time)
            assert assignment.max_satellite_load() == pytest.approx(
                max(label.loads) if label.loads else 0.0)

    @pytest.mark.parametrize("k, scatter, seed", [(2, 0.6, 0), (3, 0.6, 0),
                                                  (3, 1.0, 1)])
    def test_streamed_folds_return_no_dominated_label(self, k, scatter, seed):
        # n=20 frontiers are wide enough for the vectorised stream folds,
        # whose masks must not be windowed when the frontier is the answer
        problem = random_problem(n_processing=20, n_satellites=k, seed=seed,
                                 sensor_scatter=scatter)
        frontier = pareto_frontier(problem)
        hosts = np.array([label.host_time for label in frontier])
        loads = np.array([label.loads for label in frontier])
        assert len(frontier) > 512
        for i in range(len(frontier)):
            dominators = (hosts <= hosts[i]) & (loads <= loads[i]).all(axis=1)
            assert int(dominators.sum()) == 1, frontier[i]

    def test_frontier_dominates_every_feasible_assignment(self, paper_problem):
        frontier = pareto_frontier(paper_problem)
        sat_ids = paper_problem.system.satellite_ids()
        for assignment in enumerate_assignments(paper_problem):
            loads = tuple(assignment.satellite_load(s) for s in sat_ids)
            covered = any(
                label.host_time <= assignment.host_load() + 1e-9
                and all(a <= b + 1e-9 for a, b in zip(label.loads, loads))
                for label in frontier)
            assert covered


class TestOptimum:
    def test_matches_brute_force_on_the_paper_example(self, paper_problem):
        dp, details = pareto_dp_assignment(paper_problem)
        brute, _ = brute_force_assignment(paper_problem)
        assert dp.end_to_end_delay() == pytest.approx(brute.end_to_end_delay())
        assert details["objective"] == pytest.approx(dp.end_to_end_delay())

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("scatter", [0.0, 0.7])
    def test_matches_brute_force_on_random_instances(self, seed, scatter):
        problem = random_problem(n_processing=8, n_satellites=3, seed=seed,
                                 sensor_scatter=scatter)
        dp, _ = pareto_dp_assignment(problem)
        brute, _ = brute_force_assignment(problem)
        assert dp.end_to_end_delay() == pytest.approx(brute.end_to_end_delay())

    @pytest.mark.slow
    def test_scales_to_larger_instances(self):
        problem = snmp_scenario(subnets=4, devices_per_subnet=5)
        dp, details = pareto_dp_assignment(problem)
        assert dp.is_feasible()
        assert details["frontier_size"] >= 1

    def test_weighted_objective(self, paper_problem):
        weighting = SSBWeighting(1.0, 0.0)
        dp, _ = pareto_dp_assignment(paper_problem, weighting=weighting)
        brute, _ = brute_force_assignment(paper_problem, weighting=weighting)
        assert dp.host_load() == pytest.approx(brute.host_load())


class TestPrunedSolver:
    """The bound-pruned rewrite: optimum-exact without the full frontier."""

    def test_matches_brute_force_on_the_paper_example(self, paper_problem):
        from repro.baselines import pareto_dp_pruned_assignment

        pruned, details = pareto_dp_pruned_assignment(paper_problem)
        brute, _ = brute_force_assignment(paper_problem)
        assert pruned.end_to_end_delay() == pytest.approx(
            brute.end_to_end_delay())
        assert details["objective"] == pytest.approx(
            pruned.end_to_end_delay())
        assert details["beam_objective"] >= details["objective"]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("scatter", [0.0, 1.0])
    def test_matches_the_frontier_exact_dp(self, seed, scatter):
        from repro.baselines import pareto_dp_pruned_assignment

        problem = random_problem(n_processing=10, n_satellites=3, seed=seed,
                                 sensor_scatter=scatter)
        pruned, _ = pareto_dp_pruned_assignment(problem)
        full, _ = pareto_dp_assignment(problem)
        assert pruned.end_to_end_delay() == full.end_to_end_delay()

    def test_weighted_objective(self, paper_problem):
        from repro.baselines import pareto_dp_pruned_assignment

        weighting = SSBWeighting(1.0, 0.0)
        pruned, _ = pareto_dp_pruned_assignment(paper_problem,
                                                weighting=weighting)
        brute, _ = brute_force_assignment(paper_problem, weighting=weighting)
        assert pruned.host_load() == pytest.approx(brute.host_load())

    def test_solves_the_blowup_regime_the_exact_dp_cannot(self):
        """Acceptance: scattered n=30 solves exactly, no FrontierExplosion,
        with per-state frontiers orders of magnitude under the old blowup."""
        from repro.baselines import pareto_dp_pruned_assignment
        from repro.core.solver import solve
        from repro.runtime.registry import PARETO_DP_PRUNED_MAX_FRONTIER

        problem = random_problem(n_processing=30, n_satellites=4, seed=0,
                                 sensor_scatter=1.0)
        pruned, details = pareto_dp_pruned_assignment(
            problem, max_frontier=PARETO_DP_PRUNED_MAX_FRONTIER)
        reference = solve(problem, method="colored-ssb-labels")
        assert pruned.end_to_end_delay() == reference.objective
        assert details["peak_frontier"] < PARETO_DP_PRUNED_MAX_FRONTIER // 10
        assert details["labels_bound_pruned"] > 0

    def test_beam_width_validation_and_tiny_beam(self, paper_problem):
        from repro.baselines import pareto_dp_pruned_assignment

        with pytest.raises(ValueError, match="beam_width"):
            pareto_dp_pruned_assignment(paper_problem, beam_width=0)
        tiny, _ = pareto_dp_pruned_assignment(paper_problem, beam_width=1)
        full, _ = pareto_dp_assignment(paper_problem)
        assert tiny.end_to_end_delay() == full.end_to_end_delay()

    def test_safety_valve_still_fires(self):
        from repro.baselines import pareto_dp_pruned_assignment

        problem = random_problem(n_processing=12, n_satellites=4, seed=2,
                                 sensor_scatter=0.5)
        with pytest.raises(FrontierExplosion):
            pareto_dp_pruned_assignment(problem, max_frontier=1)


def dag_completion_potentials(problem, minhost, host_scale=1.0):
    """Test-local copy of the completion-DAG construction the single walk
    replaced: build the state DAG, then one ``min_weight_to_target`` pass."""
    inf = float("inf")
    tree = problem.tree
    graph = DiGraph()
    target = ("done",)
    graph.add_node(target)
    prefix_sums = {}
    for u in tree.processing_ids():
        children = tree.children_ids(u)
        running = 0.0
        for i, child in enumerate(children):
            graph.add_edge(("state", u, i), ("state", u, i + 1),
                           weight=minhost[child])
            prefix_sums[child] = running
            running += minhost[child]
        complete = ("state", u, len(children))
        if u == tree.root_id:
            graph.add_edge(complete, target,
                           weight=host_scale * problem.host_time(u))
        else:
            parent = tree.parent_id(u)
            idx = tree.children_ids(parent).index(u)
            graph.add_edge(complete, ("state", parent, idx + 1),
                           weight=host_scale * problem.host_time(u)
                           + prefix_sums[u])
    pot = min_weight_to_target(graph, target, weight="weight")
    pot_state = {}
    for node in graph.nodes():
        if node != target:
            _, u, i = node
            pot_state[(u, i)] = pot.get(node, inf)
    pot_opt = {}
    for u in tree.cru_ids():
        if u == tree.root_id:
            continue
        parent = tree.parent_id(u)
        idx = tree.children_ids(parent).index(u)
        pot_opt[u] = pot_state.get((parent, idx + 1), inf) + \
            prefix_sums.get(u, 0.0)
    return pot_state, pot_opt


def old_minima(problem, lam_s, lam_b):
    """Test-local copies of the three recursions and the offload-label sum
    the single subtree walk replaced, returned in its table layout."""
    inf = float("inf")
    tree = problem.tree
    sat_index = {sid: i for i, sid in
                 enumerate(problem.system.satellite_ids())}
    n = len(sat_index)

    def load_of(u, parent):
        load = sum(problem.satellite_time(i) for i in tree.subtree_ids(u)
                   if tree.cru(i).is_processing)
        load += problem.comm_cost(u, parent)
        return load

    offload = {}
    for u in tree.cru_ids():
        sat = problem.correspondent_satellite(u)
        if u != tree.root_id and sat is not None:
            offload[u] = (sat_index[sat], load_of(u, tree.parent_id(u)))

    minhost = {}

    def rec_host(u):
        off = 0.0 if problem.correspondent_satellite(u) is not None else inf
        host = inf
        if tree.cru(u).is_processing:
            host = problem.host_time(u)
            for child in tree.children_ids(u):
                host += rec_host(child)
        minhost[u] = off if off < host else host
        return minhost[u]

    joint = {}

    def rec_joint(u, parent):
        off = inf
        if problem.correspondent_satellite(u) is not None:
            off = lam_b * load_of(u, parent) * (1.0 / n)
        host = inf
        if tree.cru(u).is_processing:
            host = lam_s * problem.host_time(u)
            for c in tree.children_ids(u):
                host += rec_joint(c, u)
        joint[u] = off if off < host else host
        return joint[u]

    per_colour = [dict() for _ in range(n)]

    def rec_colour(u, parent):
        sat = problem.correspondent_satellite(u)
        beta = load_of(u, parent) if sat is not None else inf
        hostable = tree.cru(u).is_processing
        child_vals = [rec_colour(ch, u) for ch in tree.children_ids(u)] \
            if hostable else []
        h = lam_s * problem.host_time(u)
        out = []
        for c in range(n):
            off = inf
            if sat is not None:
                off = lam_b * beta if sat_index[sat] == c else 0.0
            host = h + sum(v[c] for v in child_vals) if hostable else inf
            per_colour[c][u] = off if off < host else host
            out.append(per_colour[c][u])
        return out

    for child in tree.children_ids(tree.root_id):
        rec_host(child)
        rec_joint(child, tree.root_id)
        rec_colour(child, tree.root_id)
    return offload, minhost, joint, per_colour


class TestSubtreeMinima:
    """The one subtree walk equals the recursions it replaced, bit for bit."""

    # k=3 makes 1/k inexact, so a reassociated joint term shows
    @pytest.mark.parametrize("lam_s, lam_b", [(1.0, 1.0), (0.3, 0.7)])
    @pytest.mark.parametrize("scatter", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_the_old_recursions(self, k, scatter, lam_s, lam_b):
        for n in range(3, 23):
            problem = random_problem(n_processing=n, n_satellites=k, seed=n,
                                     sensor_scatter=scatter)
            offload, minhost, joint, per_colour = _subtree_minima(
                problem, lam_s, lam_b)
            assert (offload, minhost, joint, per_colour) == \
                old_minima(problem, lam_s, lam_b)

    def test_infeasible_subtrees_are_infinite(self):
        problem = random_problem(n_processing=10, n_satellites=3, seed=1,
                                 sensor_scatter=0.5)
        sensor = problem.tree.sensor_ids()[0]
        del problem.sensor_attachment[sensor]
        problem.invalidate_caches()
        offload, minhost, joint, per_colour = _subtree_minima(problem, 1.0,
                                                              1.0)
        assert sensor not in offload
        assert minhost[sensor] == joint[sensor] == float("inf")
        assert all(table[sensor] == float("inf") for table in per_colour)
        assert (offload, minhost, joint, per_colour) == \
            old_minima(problem, 1.0, 1.0)


class TestCompletionPotentials:
    """The single parents-first walk equals the completion-DAG pass."""

    LAM_S, LAM_B = 0.3, 0.7

    def weight_tables(self, problem):
        _, minhost, joint, per_colour = _subtree_minima(problem, self.LAM_S,
                                                        self.LAM_B)
        return [(minhost, 1.0), (joint, self.LAM_S)] + \
            [(pc, self.LAM_S) for pc in per_colour]

    @pytest.mark.parametrize("scatter", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_the_dag_pass(self, scatter, k):
        for seed in range(5):
            problem = random_problem(n_processing=6 + 3 * seed, n_satellites=k,
                                     seed=seed, sensor_scatter=scatter)
            for table, host_scale in self.weight_tables(problem):
                got = _completion_potentials(problem, table,
                                             host_scale=host_scale)
                assert got == dag_completion_potentials(problem, table,
                                                        host_scale)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_with_infinite_subtree_minima(self, seed):
        # an unattached sensor makes its own minhost infinite, and every
        # ancestor without a correspondent satellite inherits the infinity;
        # random extra infinities cover the per-colour and joint tables
        problem = random_problem(n_processing=10, n_satellites=3, seed=seed,
                                 sensor_scatter=0.5)
        rng = random.Random(seed)
        del problem.sensor_attachment[rng.choice(problem.tree.sensor_ids())]
        problem.invalidate_caches()
        minhost = _subtree_minima(problem, self.LAM_S, self.LAM_B)[1]
        assert float("inf") in minhost.values()
        for table, host_scale in self.weight_tables(problem):
            table = dict(table)
            for u in rng.sample(sorted(table), len(table) // 3):
                table[u] = float("inf")
            got = _completion_potentials(problem, table, host_scale=host_scale)
            assert got == dag_completion_potentials(problem, table,
                                                    host_scale)
