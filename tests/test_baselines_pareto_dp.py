"""Unit tests for the bound-pruned Pareto dynamic program."""

import random

import pytest

from repro.baselines.brute_force import brute_force_assignment
from repro.baselines.pareto_dp import (
    FrontierExplosion,
    _completion_potentials,
    _subtree_minima,
    pareto_dp_pruned_assignment,
)
from repro.core.dwg import SSBWeighting
from repro.graphs.dag import min_weight_to_target
from repro.graphs.digraph import DiGraph
from repro.workloads import random_problem, snmp_scenario


class TestFrontierGuard:
    def test_tiny_cap_raises_frontier_explosion(self):
        problem = random_problem(n_processing=12, n_satellites=4, seed=2,
                                 sensor_scatter=0.5)
        with pytest.raises(FrontierExplosion) as excinfo:
            pareto_dp_pruned_assignment(problem, max_frontier=1)
        assert excinfo.value.limit == 1
        assert excinfo.value.size > 1
        assert "max_frontier" in str(excinfo.value)

    def test_generous_cap_does_not_change_the_result(self, paper_problem):
        capped, _ = pareto_dp_pruned_assignment(paper_problem,
                                                max_frontier=10_000)
        free, _ = pareto_dp_pruned_assignment(paper_problem)
        assert capped == free

    def test_registry_applies_a_default_cap_and_marks_the_limit(self):
        from repro.core.solver import solve
        from repro.runtime import default_registry

        spec = default_registry().resolve("pareto-dp-pruned")
        assert any("FrontierExplosion" in limit for limit in spec.limits)
        assert any("FrontierExplosion" in limit
                   for limit in spec.metadata()["limits"])
        problem = random_problem(n_processing=10, n_satellites=3, seed=4,
                                 sensor_scatter=0.5)
        with pytest.raises(FrontierExplosion):
            solve(problem, method="pareto-dp-pruned", max_frontier=2)
        assert solve(problem, method="pareto-dp-pruned").objective > 0.0

    def test_message_does_not_recommend_the_engine_that_raised_it(self):
        problem = random_problem(n_processing=10, n_satellites=3, seed=4,
                                 sensor_scatter=0.5)
        with pytest.raises(FrontierExplosion) as excinfo:
            pareto_dp_pruned_assignment(problem, max_frontier=2)
        message = str(excinfo.value)
        what, advice = message.split(";", 1)
        assert what.startswith("pareto-dp-pruned frontier reached")
        assert "pareto-dp" not in advice
        assert "colored-ssb-labels" in advice
        assert "max_frontier" in advice


class TestPrunedSolver:
    """The bound-pruned DP: optimum-exact without the full frontier."""

    def test_matches_brute_force_on_the_paper_example(self, paper_problem):
        pruned, details = pareto_dp_pruned_assignment(paper_problem)
        brute, _ = brute_force_assignment(paper_problem)
        assert pruned.end_to_end_delay() == pytest.approx(
            brute.end_to_end_delay())
        assert details["objective"] == pytest.approx(
            pruned.end_to_end_delay())
        assert details["beam_objective"] >= details["objective"]

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("scatter", [0.0, 0.7])
    def test_matches_brute_force_on_random_instances(self, seed, scatter):
        problem = random_problem(n_processing=8, n_satellites=3, seed=seed,
                                 sensor_scatter=scatter)
        pruned, _ = pareto_dp_pruned_assignment(problem)
        brute, _ = brute_force_assignment(problem)
        assert pruned.end_to_end_delay() == pytest.approx(
            brute.end_to_end_delay())

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("scatter", [0.0, 1.0])
    def test_matches_the_milp_oracle(self, seed, scatter):
        pytest.importorskip("scipy.optimize")
        from milp_oracle import milp_assignment

        problem = random_problem(n_processing=10, n_satellites=3, seed=seed,
                                 sensor_scatter=scatter)
        pruned, _ = pareto_dp_pruned_assignment(problem)
        oracle = milp_assignment(problem)
        assert pruned.end_to_end_delay() == oracle.end_to_end_delay()

    @pytest.mark.slow
    def test_scales_to_larger_instances(self):
        from repro.core.solver import solve

        problem = snmp_scenario(subnets=4, devices_per_subnet=5)
        pruned, _ = pareto_dp_pruned_assignment(problem)
        assert pruned.is_feasible()
        assert pruned.end_to_end_delay() == \
            solve(problem, method="colored-ssb-labels").objective

    def test_weighted_objective(self, paper_problem):
        weighting = SSBWeighting(1.0, 0.0)
        pruned, _ = pareto_dp_pruned_assignment(paper_problem,
                                                weighting=weighting)
        brute, _ = brute_force_assignment(paper_problem, weighting=weighting)
        assert pruned.host_load() == pytest.approx(brute.host_load())

    def test_solves_the_blowup_regime(self):
        """Acceptance: scattered n=30 solves exactly, no FrontierExplosion,
        with per-state frontiers orders of magnitude under the cap."""
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
        with pytest.raises(ValueError, match="beam_width"):
            pareto_dp_pruned_assignment(paper_problem, beam_width=0)
        tiny, _ = pareto_dp_pruned_assignment(paper_problem, beam_width=1)
        brute, _ = brute_force_assignment(paper_problem)
        assert tiny.end_to_end_delay() == brute.end_to_end_delay()


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
