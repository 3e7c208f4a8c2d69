"""Unit tests for the bound-pruned Pareto dynamic program."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force import brute_force_assignment
from repro.baselines.pareto_dp import (
    FrontierExplosion,
    _completion_potentials,
    _subtree_minima,
    pareto_dp_pruned_assignment,
)
from repro.core.assignment import HOST_DEVICE
from repro.core.context import SolveContext
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

    def test_profile_counts_the_beam_pre_pass(self, monkeypatch):
        """A cold run's profile adds the beam pre-pass's counters to the
        exact pass's; a refutation run has no beam pass and no beam keys."""
        import repro.baselines.pareto_dp as pareto_dp

        beam_stats = []
        kernel = pareto_dp._dp_labels

        def recorded(*args, **kwargs):
            labels, stats = kernel(*args, **kwargs)
            if kwargs.get("beam_width") is not None:
                beam_stats.append(dict(stats))
            return labels, stats

        monkeypatch.setattr(pareto_dp, "_dp_labels", recorded)
        problem = random_problem(n_processing=12, n_satellites=3, seed=1,
                                 sensor_scatter=0.5)
        _, cold = pareto_dp_pruned_assignment(problem)
        [beam] = beam_stats
        profile = cold["profile"]
        assert profile["beam_labels_created"] == beam["created"] > 0
        # the existing keys still count the exact pass alone
        assert profile["pruned_floor"] == cold["labels_bound_pruned"]
        assert profile["labels_dominated"] == cold["labels_dominated"]
        _, refuted = pareto_dp_pruned_assignment(
            problem, incumbent=cold["objective"])
        assert refuted["incumbent_reached"]
        assert len(beam_stats) == 1
        assert "beam_labels_created" not in refuted["profile"]

    def test_beam_width_validation_and_tiny_beam(self, paper_problem):
        with pytest.raises(ValueError, match="beam_width"):
            pareto_dp_pruned_assignment(paper_problem, beam_width=0)
        tiny, _ = pareto_dp_pruned_assignment(paper_problem, beam_width=1)
        brute, _ = brute_force_assignment(paper_problem)
        assert tiny.end_to_end_delay() == brute.end_to_end_delay()


def objective(assignment, weighting=None):
    """The objective recomputed from an assignment, as the portfolio does."""
    weighting = weighting or SSBWeighting()
    return weighting.combine(assignment.host_load(),
                             assignment.max_satellite_load())


#: incumbents handed to the refutation pass, as a function of the optimum:
#: the optimum itself, a value above it, and an unreachable value below it
INCUMBENTS = {
    "optimum": lambda best: best,
    "above": lambda best: best * 1.25 + 1.0,
    "below": lambda best: best / 2.0,
}


class TestIncumbentMode:
    """The refutation pass: bounded by a caller's objective, beam skipped."""

    def check(self, problem, which, weighting=None):
        brute, _ = brute_force_assignment(problem, weighting=weighting)
        best = objective(brute, weighting)
        got, details = pareto_dp_pruned_assignment(
            problem, weighting=weighting,
            incumbent=INCUMBENTS[which](best))
        assert objective(got, weighting) == best
        # a reachable incumbent needs no beam; an unreachable one is a
        # contradiction the DP answers by re-solving cold
        assert details["incumbent_reached"] is (which != "below")
        assert ("beam_objective" in details) is (which == "below")
        assert "interrupted" not in details

    @pytest.mark.parametrize("which", sorted(INCUMBENTS))
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("scatter", [0.0, 0.6])
    def test_returns_the_brute_force_optimum(self, which, seed, scatter):
        problem = random_problem(n_processing=8, n_satellites=3, seed=seed,
                                 sensor_scatter=scatter)
        self.check(problem, which)

    @pytest.mark.parametrize("which", sorted(INCUMBENTS))
    def test_weighted_objective(self, which, paper_problem):
        self.check(paper_problem, which, SSBWeighting(0.3, 0.7))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=1, max_value=9),
           k=st.integers(min_value=1, max_value=4),
           seed=st.integers(min_value=0, max_value=10_000),
           scatter=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
           which=st.sampled_from(sorted(INCUMBENTS)))
    def test_property_matches_brute_force(self, n, k, seed, scatter, which):
        problem = random_problem(n_processing=n, n_satellites=k, seed=seed,
                                 sensor_scatter=scatter)
        self.check(problem, which)

    def test_interrupted_refutation_falls_back_to_greedy(self):
        problem = random_problem(n_processing=8, n_satellites=3, seed=1,
                                 sensor_scatter=0.3)
        brute, _ = brute_force_assignment(problem)
        got, details = pareto_dp_pruned_assignment(
            problem, incumbent=objective(brute),
            context=SolveContext(deadline_s=0.0))
        assert details["interrupted"] == "deadline"
        assert details["fallback"] == "greedy"
        assert got.is_feasible()


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


def minima_columns(problem, lam_s, lam_b):
    """The row walk's subtree tables in :func:`old_minima`'s layout: the
    offload table and one dict per row column, keyed by CRU id."""
    order = problem.tree.cru_ids()
    _, _, offload, mins = _subtree_minima(problem, lam_s, lam_b)

    def column(c):
        return {u: mins[i][c] for i, u in enumerate(order) if i}

    return ({u: offload[i] for i, u in enumerate(order)
             if offload[i] is not None},
            column(0), column(1),
            [column(c) for c in range(2, len(mins[0]))])


def potential_columns(problem, kids, host, mins, lam_s):
    """The parents-first walk's rows in :func:`dag_completion_potentials`'
    layout: one ``(pot_state, pot_opt)`` pair per row column."""
    order = problem.tree.cru_ids()
    states, opts = _completion_potentials(kids, host, mins, lam_s)
    return [({(order[i], j): row[c]
              for i, rows in enumerate(states) if rows is not None
              for j, row in enumerate(rows)},
             {u: opts[i][c] for i, u in enumerate(order) if i})
            for c in range(len(mins[0]))]


def inject_infinities(columns, rng):
    """Set a random third of each column's entries to infinity, in place."""
    for table in columns:
        for u in rng.sample(sorted(table), len(table) // 3):
            table[u] = float("inf")


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
            offload, minhost, joint, per_colour = minima_columns(
                problem, lam_s, lam_b)
            assert (offload, minhost, joint, per_colour) == \
                old_minima(problem, lam_s, lam_b)

    def test_infeasible_subtrees_are_infinite(self):
        problem = random_problem(n_processing=10, n_satellites=3, seed=1,
                                 sensor_scatter=0.5)
        sensor = problem.tree.sensor_ids()[0]
        del problem.sensor_attachment[sensor]
        problem.invalidate_caches()
        offload, minhost, joint, per_colour = minima_columns(problem, 1.0,
                                                             1.0)
        assert sensor not in offload
        assert minhost[sensor] == joint[sensor] == float("inf")
        assert all(table[sensor] == float("inf") for table in per_colour)
        assert (offload, minhost, joint, per_colour) == \
            old_minima(problem, 1.0, 1.0)


class TestCompletionPotentials:
    """The single parents-first walk equals the completion-DAG pass."""

    LAM_S, LAM_B = 0.3, 0.7

    def check(self, problem, kids, host, mins):
        """Every column of the walk against the DAG pass over that column
        (host weight ``h`` in the σ column, ``λ_S·h`` in the others)."""
        order = problem.tree.cru_ids()
        got = potential_columns(problem, kids, host, mins, self.LAM_S)
        for c, potentials in enumerate(got):
            table = {u: mins[i][c] for i, u in enumerate(order) if i}
            host_scale = 1.0 if c == 0 else self.LAM_S
            assert potentials == dag_completion_potentials(problem, table,
                                                           host_scale)

    @pytest.mark.parametrize("scatter", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_the_dag_pass(self, scatter, k):
        for seed in range(5):
            problem = random_problem(n_processing=6 + 3 * seed, n_satellites=k,
                                     seed=seed, sensor_scatter=scatter)
            kids, host, _, mins = _subtree_minima(problem, self.LAM_S,
                                                  self.LAM_B)
            self.check(problem, kids, host, mins)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_with_infinite_subtree_minima(self, seed):
        # an unattached sensor makes its own minhost infinite, and every
        # ancestor without a correspondent satellite inherits the infinity;
        # random extra infinities cover the per-colour and joint columns
        problem = random_problem(n_processing=10, n_satellites=3, seed=seed,
                                 sensor_scatter=0.5)
        rng = random.Random(seed)
        del problem.sensor_attachment[rng.choice(problem.tree.sensor_ids())]
        problem.invalidate_caches()
        kids, host, _, mins = _subtree_minima(problem, self.LAM_S, self.LAM_B)
        assert any(row[0] == float("inf") for row in mins)
        mins = [list(row) for row in mins]
        order = problem.tree.cru_ids()
        for c in range(len(mins[0])):
            table = {u: mins[i][c] for i, u in enumerate(order) if i}
            inject_infinities([table], rng)
            for i, u in enumerate(order[1:], 1):
                mins[i][c] = table[u]
        self.check(problem, kids, host, mins)


class TestOneTableWalk:
    """The two row walks the DP runs equal the per-table pipeline they
    replaced, column by column: :func:`old_minima`'s recursions for the
    subtree rows, then one completion-DAG pass per table."""

    def check(self, problem, lam_s, lam_b, rng=None):
        """Compare the walks with the reference pipeline; with ``rng``, the
        same random cells of both sides' subtree tables are infinite."""
        order = problem.tree.cru_ids()
        kids, host, _, mins = _subtree_minima(problem, lam_s, lam_b)
        reference = old_minima(problem, lam_s, lam_b)
        assert minima_columns(problem, lam_s, lam_b) == reference
        _, minhost, joint, per_colour = reference
        columns = [minhost, joint] + per_colour
        if rng is not None:
            inject_infinities(columns, rng)
            mins = [mins[0]] + [[table[u] for table in columns]
                                for u in order[1:]]
        got = potential_columns(problem, kids, host, mins, lam_s)
        for c, table in enumerate(columns):
            assert got[c] == dag_completion_potentials(
                problem, table, 1.0 if c == 0 else lam_s)

    @pytest.mark.parametrize("lam_s, lam_b", [(1.0, 1.0), (0.3, 0.7)])
    @pytest.mark.parametrize("scatter", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_minima_grid(self, k, scatter, lam_s, lam_b):
        for n in range(3, 23):
            self.check(random_problem(n_processing=n, n_satellites=k, seed=n,
                                      sensor_scatter=scatter), lam_s, lam_b)

    @pytest.mark.parametrize("scatter", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_potentials_grid(self, scatter, k):
        for seed in range(5):
            self.check(random_problem(n_processing=6 + 3 * seed,
                                      n_satellites=k, seed=seed,
                                      sensor_scatter=scatter), 0.3, 0.7)

    @pytest.mark.parametrize("seed", range(6))
    def test_infinite_subtree_minima(self, seed):
        problem = random_problem(n_processing=10, n_satellites=3, seed=seed,
                                 sensor_scatter=0.5)
        rng = random.Random(seed)
        del problem.sensor_attachment[rng.choice(problem.tree.sensor_ids())]
        problem.invalidate_caches()
        self.check(problem, 0.3, 0.7)
        self.check(problem, 0.3, 0.7, rng)


@pytest.mark.parametrize("lam_s, lam_b", [(1.0, 1.0), (0.3, 0.7), (0.7, 0.3)])
@pytest.mark.parametrize("scatter", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_colour_floor_implies_sigma_bound(k, scatter, lam_s, lam_b):
    """Every colour potential is at least ``λ_S`` times the σ potential, at
    every DP state and every finished option, up to rounding.  The kernel
    drops the σ check wherever colour floors exist on the strength of this:
    the floor of the max-load colour then reaches the σ bound.

    The two sides sum their terms in different orders, and ``λ_S·(a + b)``
    need not round to ``λ_S·a + λ_S·b``: on this grid the colour side falls
    short on 1,601 of 91,146 entries, by at most 3 ulps and never at
    ``λ_S = 1``.  A label that close to the bound merely survives one more
    step; it never changes the answer."""
    for n in range(3, 23):
        problem = random_problem(n_processing=n, n_satellites=k, seed=n,
                                 sensor_scatter=scatter)
        kids, host, _, mins = _subtree_minima(problem, lam_s, lam_b)
        states, opts = _completion_potentials(kids, host, mins, lam_s)
        rows = [row for pots in states if pots is not None for row in pots]
        rows += [row for row in opts if row is not None]
        assert len(rows) > n
        for row in rows:
            assert len(row) == k + 2
            for cpot in row[2:]:
                assert cpot >= lam_s * row[0] * (1.0 - 2.0 ** -50)


def whole_second(problem, seed):
    """Redraw every time from {1, 2, 3} s, so many cuts tie exactly."""
    rng = random.Random(seed)
    for cru_id in problem.tree.processing_ids():
        problem.profile.set_times(cru_id, float(rng.randint(1, 3)),
                                  float(rng.randint(1, 3)))
    for parent, child in problem.tree.edges():
        problem.costs.set_cost(child, parent, float(rng.randint(1, 3)))
    problem.invalidate_caches()
    return problem


#: ``(n, k, seed, max_children, scatter, whole-second times, convex(0.3)
#: weighting, mode)`` -> ``(objective.hex(), offloaded processing CRUs,
#: labels_created, labels_dominated, pruned_floor, frontier_peak)`` of the
#: exact pass.  ``mode`` is a cold solve, or refutation at the optimum or
#: at ``1.25·optimum + 1``.  The last two rows without ties run the
#: streamed fold and the vectorised node tail.
PINNED = [
    ((8, 1, 0, 3, 0.0, False, False, 'cold'),
     ('0x1.b72cb10e02f1cp+2', '',
      10, 0, 10, 0)),
    ((12, 1, 1, 3, 0.5, True, False, 'above'),
     ('0x1.9000000000000p+4', 'P10 P11 P2 P4 P5 P6 P7 P8 P9',
      88, 14, 2, 6)),
    ((10, 1, 3, 3, 0.5, False, False, 'optimum'),
     ('0x1.ec09f132d4a4ep+2', '',
      36, 0, 9, 1)),
    ((12, 2, 1, 3, 0.5, False, False, 'above'),
     ('0x1.61e7fbace019cp+3', '',
      371, 30, 68, 66)),
    ((12, 3, 2, 3, 1.0, False, True, 'cold'),
     ('0x1.87e6abf6caa72p+1', '',
      46, 0, 8, 2)),
    ((14, 4, 3, 3, 0.6, False, False, 'cold'),
     ('0x1.3545624c28864p+3', 'P10 P2 P6',
      18, 0, 18, 0)),
    ((14, 4, 3, 3, 0.6, False, False, 'optimum'),
     ('0x1.3545624c28864p+3', 'P10 P2 P6',
      48, 0, 9, 1)),
    ((12, 3, 1, 64, 0.5, False, False, 'above'),
     ('0x1.47432f479ff87p+3', 'P10 P2 P9',
      677, 52, 25, 117)),
    ((22, 4, 1, 64, 1.0, False, False, 'cold'),
     ('0x1.a5e641e80e0b0p+3', 'P12 P13 P15 P16 P17 P19 P2 P20 P21 P4 P5 P9',
      5345, 190, 2032, 518)),
    ((30, 3, 1, 64, 0.5, False, False, 'cold'),
     ('0x1.35c794f24b29cp+4', 'P10 P16 P19 P22 P23 P24 P25 P29',
      41418, 2569, 17623, 4477)),
    ((10, 2, 0, 3, 0.5, True, False, 'optimum'),
     ('0x1.c000000000000p+3', 'P1 P2 P3 P4 P5 P6 P7 P8 P9',
      21, 0, 10, 2)),
    ((10, 3, 1, 3, 0.5, True, False, 'above'),
     ('0x1.1000000000000p+4', 'P1 P2 P3 P5 P6 P8 P9',
      188, 30, 18, 24)),
    ((12, 4, 1, 3, 0.5, True, True, 'above'),
     ('0x1.d99999999999ap+2', 'P10 P11 P3 P9',
      162, 21, 9, 29)),
]


class TestPinnedWork:
    """The DP's answers and work counters on a small committed grid.

    Ties make which of two equal labels survives a filter visible in the
    returned cut, and the counters move with any change to what the bounds
    or the dominance filter drop."""

    @pytest.mark.parametrize("case, pinned", PINNED)
    def test_answers_and_counters(self, case, pinned):
        n, k, seed, max_children, scatter, ties, convex, mode = case
        problem = random_problem(n_processing=n, n_satellites=k, seed=seed,
                                 max_children=max_children,
                                 sensor_scatter=scatter)
        if ties:
            whole_second(problem, seed)
        weighting = SSBWeighting.convex(0.3) if convex else None
        got, details = pareto_dp_pruned_assignment(problem,
                                                   weighting=weighting)
        if mode != "cold":
            best = details["objective"]
            incumbent = best if mode == "optimum" else best * 1.25 + 1.0
            got, details = pareto_dp_pruned_assignment(
                problem, weighting=weighting, incumbent=incumbent)
            assert details["incumbent_reached"]
        offloaded = sorted(
            cru_id for cru_id, device in got.placement.items()
            if device != HOST_DEVICE and problem.tree.cru(cru_id).is_processing)
        profile = details["profile"]
        assert (details["objective"].hex(), " ".join(offloaded),
                profile["labels_created"], profile["labels_dominated"],
                profile["pruned_floor"], profile["frontier_peak"]) == pinned
