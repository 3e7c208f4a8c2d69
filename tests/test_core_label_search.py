"""Property and unit tests for the label-dominance search engine.

The randomized suites assert the engine's defining property: its optimum is
*bit-identical* (same float, not approximately equal) to brute force and to
the Yen-enumeration finisher on every instance both can finish — including
the scattered-sensor regime the engine was built for.
"""

import dataclasses
import math
from operator import add

import pytest

from repro.baselines import brute_force_assignment
from repro.baselines.pareto_dp import pareto_dp_pruned_assignment
from repro.core.assignment_graph import build_assignment_graph
from repro.core.colored_ssb import ColoredSSBSearch
from repro.core import label_search
from repro.core.dwg import (
    SIGMA_ATTR,
    DoublyWeightedGraph,
    PathMeasures,
    SSBWeighting,
)
from repro.core.label_search import (
    LabelDominanceSearch,
    completion_potentials,
    find_optimal_colored_ssb_path_labels,
)
from repro.graphs.dag import DagIndex, NotADagError, min_weight_to_target
from repro.workloads.generators import random_problem


def all_paths(dwg, start, stop):
    """Every ``start`` → ``stop`` path of a small DAG, as edge lists."""
    if start == stop:
        return [[]]
    return [[edge] + rest for edge in dwg.graph.out_edges(start)
            for rest in all_paths(dwg, edge.head, stop)]


def spy(monkeypatch, name):
    """Record the return values of one ``LabelDominanceSearch`` method."""
    calls = []
    original = getattr(LabelDominanceSearch, name)

    def recorded(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        calls.append(out)
        return out

    monkeypatch.setattr(LabelDominanceSearch, name, recorded)
    return calls


def path_minima_calls(monkeypatch):
    """Record ``(start, result)`` of every ``_path_minima`` walk."""
    calls = []
    original = label_search._path_minima

    def recorded(nodes, start, *args):
        out = original(nodes, start, *args)
        calls.append((start, out))
        return out

    monkeypatch.setattr(label_search, "_path_minima", recorded)
    return calls


def source_minima(monkeypatch, dwg, weighting):
    """The source-side path minima one exact search walks."""
    calls = path_minima_calls(monkeypatch)
    LabelDominanceSearch(weighting=weighting, beam_width=0).search(dwg)
    (forward,) = [out for start, out in calls if start == dwg.source]
    return forward


def old_completion_potentials(dwg, weighting):
    """Test-local copy of the 2+k-pass target-side construction the single
    walk replaced: one ``min_weight_to_target`` pass per bound."""
    lam_s, lam_b = weighting.lambda_s, weighting.lambda_b
    graph, target = dwg.graph, dwg.target
    sigma, beta = DoublyWeightedGraph.sigma, DoublyWeightedGraph.beta
    pot = min_weight_to_target(graph, target, SIGMA_ATTR)
    colors = tuple(dwg.all_colors())
    maps = [min_weight_to_target(
        graph, target, lambda e, c=c: lam_s * sigma(e) +
        lam_b * DoublyWeightedGraph.beta_map(e).get(c, 0.0))
        for c in colors]
    potjc = {node: tuple(m[node] for m in maps) for node in pot}
    if colors:
        inv = 1.0 / len(colors)
        potj = min_weight_to_target(
            graph, target,
            lambda e: lam_s * sigma(e) + lam_b * beta(e) * inv)
    else:
        potj = {node: 0.0 for node in pot}
    return colors, pot, potj, potjc


def old_source_potentials(dwg, weighting):
    """Test-local copy of the push-style source-side pass the single walk
    replaced, over the live out-edges the sweep packs."""
    lam_s, lam_b = weighting.lambda_s, weighting.lambda_b
    colors, pot, _, _ = old_completion_potentials(dwg, weighting)
    color_index = {c: i for i, c in enumerate(colors)}
    n_colors = len(colors)
    inv_colors = 1.0 / n_colors
    inf = float("inf")
    spot = {dwg.source: 0.0}
    spotj = {dwg.source: 0.0}
    spotjc = {dwg.source: (0.0,) * n_colors}
    for node in DagIndex(dwg.graph).order():
        if node not in spot:
            continue
        for edge in dwg.graph.out_edges(node):
            head = edge.head
            if head not in pot:
                continue
            sigma = DoublyWeightedGraph.sigma(edge)
            betas = [(color_index[c], float(v)) for c, v in
                     DoublyWeightedGraph.beta_map(edge).items() if v != 0.0]
            btotal = sum(v for _, v in betas)
            spot[head] = min(spot.get(head, inf), spot[node] + sigma)
            spotj[head] = min(spotj.get(head, inf), spotj[node] +
                              lam_s * sigma + lam_b * btotal * inv_colors)
            step = lam_s * sigma
            inc = [step] * n_colors
            for ci, bv in betas:
                inc[ci] = step + lam_b * bv
            cand = tuple(map(add, spotjc[node], inc))
            cur = spotjc.get(head)
            spotjc[head] = cand if cur is None else tuple(map(min, cur, cand))
    return spot, spotj, spotjc


def two_color_graph():
    dwg = DoublyWeightedGraph(source="S", target="T")
    dwg.add_edge("S", "A", sigma=1.0, beta=2.0, color="red")
    dwg.add_edge("A", "T", sigma=1.0, beta=3.0, color="blue")
    dwg.add_edge("S", "T", sigma=5.0, beta=1.0, color="red")
    return dwg


class TestOnSmallGraphs:
    def test_picks_the_min_ssb_path(self):
        result = LabelDominanceSearch().search(two_color_graph())
        # top route: S=2, loads red 2 / blue 3 -> SSB 5; bypass: 5 + 1 = 6
        assert result.found
        assert result.ssb_weight == pytest.approx(5.0)
        assert result.s_weight == pytest.approx(2.0)
        assert result.b_weight == pytest.approx(3.0)

    def test_disconnected_graph(self):
        dwg = DoublyWeightedGraph()
        dwg.add_edge("S", "M", sigma=1.0, beta=1.0, color="red")
        result = LabelDominanceSearch().search(dwg)
        assert not result.found
        assert result.ssb_weight == float("inf")

    def test_cyclic_graph_raises(self):
        dwg = DoublyWeightedGraph(source="a", target="c")
        dwg.add_edge("a", "b", sigma=1.0, beta=1.0)
        dwg.add_edge("b", "a", sigma=1.0, beta=1.0)
        dwg.add_edge("b", "c", sigma=1.0, beta=1.0)
        with pytest.raises(NotADagError):
            LabelDominanceSearch().search(dwg)

    def test_incumbent_already_optimal_returns_not_found(self):
        dwg = two_color_graph()
        optimum = LabelDominanceSearch().search(dwg).ssb_weight
        result = LabelDominanceSearch().search(dwg, incumbent=optimum)
        assert not result.found  # nothing strictly better than the incumbent

    def test_loose_incumbent_still_finds_the_optimum(self):
        dwg = two_color_graph()
        result = LabelDominanceSearch().search(dwg, incumbent=100.0)
        assert result.ssb_weight == pytest.approx(5.0)

    def test_beam_disabled_remains_exact(self):
        result = LabelDominanceSearch(beam_width=0).search(two_color_graph())
        assert result.ssb_weight == pytest.approx(5.0)
        assert result.stats.beam_ssb == float("inf")

    def test_negative_beam_width_rejected(self):
        with pytest.raises(ValueError, match="beam_width"):
            LabelDominanceSearch(beam_width=-1)

    def test_convenience_wrapper(self):
        assert find_optimal_colored_ssb_path_labels(
            two_color_graph()).ssb_weight == pytest.approx(5.0)

    def test_path_weights_are_consistent(self):
        result = LabelDominanceSearch().search(two_color_graph())
        measures = PathMeasures()
        assert result.s_weight == pytest.approx(measures.s_weight(result.path))
        assert result.b_weight == pytest.approx(measures.b_weight_colored(result.path))


class TestPropertyAgainstBruteForce:
    """Randomized (seeded) scattered-sensor instances vs. the exact references."""

    @pytest.mark.parametrize("seed", range(12))
    def test_scattered_instances_match_the_exact_references(self, seed):
        from repro.core.dwg import SIGMA_ATTR
        from repro.graphs.kshortest import iter_paths_by_weight

        problem = random_problem(n_processing=9, n_satellites=3, seed=seed,
                                 sensor_scatter=1.0)
        graph = build_assignment_graph(problem)
        result = LabelDominanceSearch().search(graph.dwg)
        # bit-identical against full path enumeration: both sum the same
        # float path weights in the same (path) order
        measures = PathMeasures()
        exhaustive = min(
            measures.ssb_colored(path)
            for path in iter_paths_by_weight(graph.dwg.graph, graph.dwg.source,
                                             graph.dwg.target, weight=SIGMA_ATTR))
        assert result.ssb_weight == exhaustive
        # brute force optimises in assignment space (different summation
        # order), so the agreement there is up to float associativity
        brute, _ = brute_force_assignment(problem)
        assert result.ssb_weight == pytest.approx(brute.end_to_end_delay(),
                                                  rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("scatter", [0.0, 0.5, 1.0])
    def test_engine_equals_enumeration_finisher(self, seed, scatter):
        problem = random_problem(n_processing=8, n_satellites=3, seed=seed,
                                 sensor_scatter=scatter)
        graph = build_assignment_graph(problem)
        labels = ColoredSSBSearch(keep_trace=False, finisher="labels").search(graph.dwg)
        enum = ColoredSSBSearch(keep_trace=False, finisher="enumeration").search(graph.dwg)
        assert labels.ssb_weight == enum.ssb_weight

    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    def test_convex_weightings_remain_exact(self, lam):
        weighting = SSBWeighting.convex(lam)
        problem = random_problem(n_processing=8, n_satellites=3, seed=5,
                                 sensor_scatter=1.0)
        graph = build_assignment_graph(problem)
        labels = LabelDominanceSearch(weighting=weighting).search(graph.dwg)
        enum = ColoredSSBSearch(weighting=weighting, keep_trace=False,
                                finisher="enumeration").search(graph.dwg)
        assert labels.ssb_weight == pytest.approx(enum.ssb_weight)

    def test_beam_width_never_changes_the_optimum(self):
        problem = random_problem(n_processing=10, n_satellites=4, seed=2,
                                 sensor_scatter=1.0)
        graph = build_assignment_graph(problem)
        reference = LabelDominanceSearch(beam_width=0).search(graph.dwg).ssb_weight
        for width in (1, 8, 128):
            result = LabelDominanceSearch(beam_width=width).search(graph.dwg)
            assert result.ssb_weight == reference

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(3))
    def test_previously_infeasible_scattered_regime_solves_exactly(self, seed):
        # n_processing = 20 scattered was the enumeration wall; the engine
        # must agree with the MILP oracle there
        pytest.importorskip("scipy.optimize")
        from milp_oracle import milp_assignment

        problem = random_problem(n_processing=20, n_satellites=4, seed=seed,
                                 sensor_scatter=1.0)
        graph = build_assignment_graph(problem)
        result = ColoredSSBSearch(keep_trace=False).search(graph.dwg)
        oracle = milp_assignment(problem)
        assert result.ssb_weight == pytest.approx(oracle.end_to_end_delay(),
                                                  abs=1e-9)


class TestColoredSSBFinisherWiring:
    def test_invalid_finisher_rejected(self):
        with pytest.raises(ValueError, match="finisher"):
            ColoredSSBSearch(finisher="magic")

    def test_cyclic_graph_falls_back_to_enumeration_automatically(self):
        # labels finisher requested, but the DWG has a cycle: the search must
        # silently finish with Yen instead and stay exact
        dwg = DoublyWeightedGraph(source="S", target="T")
        dwg.add_edge("S", "A", sigma=1.0, beta=2.0, color="red")
        dwg.add_edge("A", "B", sigma=1.0, beta=2.0, color="blue")
        dwg.add_edge("B", "A", sigma=1.0, beta=2.0, color="blue")  # cycle
        dwg.add_edge("A", "T", sigma=1.0, beta=3.0, color="red")
        dwg.add_edge("S", "T", sigma=9.0, beta=0.5, color="blue")
        result = ColoredSSBSearch(finisher="labels").search(dwg)
        assert result.finisher == "enumeration"
        assert result.termination == "enumeration"
        # optimum: S->A->T with S=2, loads red 5 -> SSB 7 (bypass: 9.5)
        assert result.ssb_weight == pytest.approx(7.0)
        assert result.label_stats is None

    def test_label_finisher_records_stats(self):
        problem = random_problem(n_processing=10, n_satellites=3, seed=1,
                                 sensor_scatter=1.0)
        graph = build_assignment_graph(problem)
        result = ColoredSSBSearch(keep_trace=False).search(graph.dwg)
        if result.finisher == "labels":
            assert result.label_stats is not None
            assert result.label_stats.nodes_swept > 0
            assert result.enumerated_paths == 0

    def test_enumeration_finisher_still_counts_paths(self):
        problem = random_problem(n_processing=10, n_satellites=3, seed=1,
                                 sensor_scatter=1.0)
        graph = build_assignment_graph(problem)
        result = ColoredSSBSearch(keep_trace=False,
                                  finisher="enumeration").search(graph.dwg)
        if result.finisher == "enumeration":
            assert result.enumerated_paths > 0
            assert result.label_stats is None


class TestDominanceWindow:
    """The half-sweeps' windowed Pareto filter: a knob on speed only."""

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="dominance_window"):
            LabelDominanceSearch(dominance_window=-1)

    def test_dominance_window_zero_disables_filtering_only(self):
        problem = random_problem(n_processing=14, n_satellites=4, seed=9,
                                 sensor_scatter=1.0)
        graph = build_assignment_graph(problem)
        filtered = LabelDominanceSearch().search(graph.dwg)
        unfiltered = LabelDominanceSearch(dominance_window=0).search(graph.dwg)
        assert filtered.ssb_weight == unfiltered.ssb_weight
        assert unfiltered.stats.labels_dominated == 0

    @pytest.mark.parametrize("n, seed", [(12, 6), (18, 3)])
    @pytest.mark.parametrize("window", [1, 8, 64])
    def test_window_never_changes_the_optimum(self, window, n, seed):
        # a deeper graph moves the meet layer and gives both half-sweeps
        # buckets wider than the window
        problem = random_problem(n_processing=n, n_satellites=4, seed=seed,
                                 sensor_scatter=1.0)
        graph = build_assignment_graph(problem)
        reference = LabelDominanceSearch(dominance_window=0).search(graph.dwg)
        capped = LabelDominanceSearch(
            dominance_window=window).search(graph.dwg)
        assert capped.ssb_weight == reference.ssb_weight


class TestExactPass:
    """The meet-in-the-middle sweep against an engine sharing no search code."""

    @pytest.mark.parametrize("scatter", [0.0, 0.5, 1.0])
    def test_optimum_matches_the_pruned_dp(self, scatter):
        problem = random_problem(n_processing=14, n_satellites=4, seed=9,
                                 sensor_scatter=scatter)
        graph = build_assignment_graph(problem)
        result = LabelDominanceSearch().search(graph.dwg)
        assert result.found
        labels = graph.path_to_assignment(result.path)
        dp, _ = pareto_dp_pruned_assignment(problem)
        weighting = SSBWeighting()
        assert weighting.combine(labels.host_load(),
                                 labels.max_satellite_load()) == \
            weighting.combine(dp.host_load(), dp.max_satellite_load())
        measures = PathMeasures()
        assert result.ssb_weight == pytest.approx(
            measures.ssb_colored(result.path), rel=1e-12)

    def test_colored_ssb_default_finisher_is_the_label_engine(self):
        problem = random_problem(n_processing=12, n_satellites=3, seed=5,
                                 sensor_scatter=1.0)
        graph = build_assignment_graph(problem)
        result = ColoredSSBSearch(keep_trace=False).search(graph.dwg)
        assert result.finisher == "labels"
        assert result.ssb_weight == \
            LabelDominanceSearch().search(graph.dwg).ssb_weight

    def test_single_edge_graph_meets_on_its_only_edge(self):
        # both halves are empty: the meet rank clamps to the target's and
        # the one edge is the crossing edge the join reads
        dwg = DoublyWeightedGraph(source="S", target="T")
        dwg.add_edge("S", "T", sigma=2.0, beta=3.0, color="red")
        result = LabelDominanceSearch(beam_width=0).search(dwg)
        assert result.found
        assert [e.head for e in result.path.edges] == ["T"]
        assert result.ssb_weight == 5.0
        assert result.stats.meet_edges == 1

    def test_meet_partition_splits_every_path_once(self, monkeypatch):
        # the exactness argument of the join: every S → T path crosses
        # exactly one crossing edge, and its other edges sit in the half
        # that extends them
        partitions = spy(monkeypatch, "_meet_partition")
        problem = random_problem(n_processing=7, n_satellites=3, seed=2,
                                 sensor_scatter=1.0)
        dwg = build_assignment_graph(problem).dwg
        LabelDominanceSearch(beam_width=0).search(dwg)
        (K, fwd_exts, cross_edges, in_edge_data), = partitions
        rank = {node: i for i, node in enumerate(DagIndex(dwg.graph).order())}
        assert rank[dwg.source] < K <= rank[dwg.target]
        crossing = {c[0].key for c in cross_edges}
        forward = {ext[0].key for exts in fwd_exts.values() for ext in exts}
        backward = {ext[0].key for exts in in_edge_data.values()
                    for ext in exts}
        paths = all_paths(dwg, dwg.source, dwg.target)
        assert len(paths) > 1
        for path in paths:
            assert sum(e.key in crossing for e in path) == 1
            for edge in path:
                if edge.key in crossing:
                    continue
                half = forward if rank[edge.head] < K else backward
                assert edge.key in half


class TestPathMinima:
    """One path-minima walk serves both sides of the meet."""

    WEIGHTINGS = [SSBWeighting(), SSBWeighting.convex(0.3)]

    @pytest.mark.parametrize("weighting", WEIGHTINGS,
                             ids=["default", "convex"])
    @pytest.mark.parametrize("scatter", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_target_side_equals_the_multi_pass_construction(
            self, k, scatter, weighting):
        for n in (6, 10, 14, 18):
            problem = random_problem(n_processing=n, n_satellites=k, seed=n,
                                     sensor_scatter=scatter)
            dwg = build_assignment_graph(problem).dwg
            got = completion_potentials(dwg, weighting)
            assert (got.colors, got.pot, got.potj, got.potjc) == \
                old_completion_potentials(dwg, weighting)
            assert (got.lambda_s, got.lambda_b) == \
                (weighting.lambda_s, weighting.lambda_b)

    @pytest.mark.parametrize("weighting", WEIGHTINGS,
                             ids=["default", "convex"])
    @pytest.mark.parametrize("scatter", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("k", [2, 4])
    def test_source_side_equals_the_push_pass(self, monkeypatch, k, scatter,
                                              weighting):
        for n in (6, 12, 18):
            problem = random_problem(n_processing=n, n_satellites=k, seed=n,
                                     sensor_scatter=scatter)
            dwg = build_assignment_graph(problem).dwg
            got = source_minima(monkeypatch, dwg, weighting)
            spot, spotj, spotjc = old_source_potentials(dwg, weighting)
            assert got.pot == spot
            assert got.potjc == spotjc
            # the walk adds the joint edge step before the potential, the
            # push pass added it term by term: equal up to rounding
            assert got.potj.keys() == spotj.keys()
            for node, value in spotj.items():
                assert got.potj[node] == pytest.approx(value, rel=1e-12,
                                                       abs=1e-12)

    def test_source_potentials_are_exact_minima(self, monkeypatch):
        # the source-side duals of the completion bounds: per node, the
        # minimum over every S → v path of σ, of the joint average and of
        # each colour's weighted load
        problem = random_problem(n_processing=7, n_satellites=3, seed=4,
                                 sensor_scatter=1.0)
        dwg = build_assignment_graph(problem).dwg
        weighting = SSBWeighting.convex(0.3)
        spots = source_minima(monkeypatch, dwg, weighting)
        spot, spotj, spotjc = spots.pot, spots.potj, spots.potjc
        colors = tuple(dwg.all_colors())
        lam_s, lam_b = weighting.lambda_s, weighting.lambda_b
        assert spot[dwg.source] == 0.0
        for node, s_min in spot.items():
            paths = all_paths(dwg, dwg.source, node)
            assert paths
            sums = []
            for path in paths:
                loads = {}
                for edge in path:
                    for color, beta in \
                            DoublyWeightedGraph.beta_map(edge).items():
                        loads[color] = loads.get(color, 0.0) + beta
                sums.append((sum(DoublyWeightedGraph.sigma(e) for e in path),
                             loads))
            assert s_min == pytest.approx(min(s for s, _ in sums), abs=1e-12)
            assert spotj[node] == pytest.approx(
                min(lam_s * s + lam_b * sum(loads.values()) / len(colors)
                    for s, loads in sums), abs=1e-12)
            for ci, color in enumerate(colors):
                assert spotjc[node][ci] == pytest.approx(
                    min(lam_s * s + lam_b * loads.get(color, 0.0)
                        for s, loads in sums), abs=1e-12)


class TestJoinDeadline:
    """The meet join polls its context once per chunk, not once per edge."""

    class ArmedContext:
        """Stub context: inert until armed, then fires on every poll."""

        span = None

        def __init__(self):
            self.armed = False
            self.polls_after_arming = 0
            self.meet_reports = []

        def interrupted(self):
            if not self.armed:
                return None
            self.polls_after_arming += 1
            return "deadline"

        def report_incumbent(self, objective, payload=None, source=None):
            if source == "labels-meet":
                self.meet_reports.append(objective)
            return True

    def run(self, monkeypatch, arm):
        # one forward row per chunk, so the join runs one chunk per
        # surviving row; the join's only searchsorted call is the per-chunk
        # B-side cut, which arms the stub during the first chunk
        import numpy as np

        from repro.core import label_search

        chunks = []
        context = self.ArmedContext()

        class ChunkCountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def searchsorted(self, *args, **kwargs):
                chunks.append(1)
                context.armed = arm
                return np.searchsorted(*args, **kwargs)

        monkeypatch.setattr(label_search, "_MEET_CHUNK_ELEMS", 1)
        monkeypatch.setattr(label_search, "np", ChunkCountingNumpy())
        problem = random_problem(n_processing=12, n_satellites=3, seed=2,
                                 sensor_scatter=1.0)
        dwg = build_assignment_graph(problem).dwg
        result = LabelDominanceSearch(beam_width=0).search(dwg, context=context)
        return dwg, result, context, len(chunks)

    def test_interrupt_stops_a_multi_chunk_join(self, monkeypatch):
        _, clean, _, clean_chunks = self.run(monkeypatch, arm=False)
        assert clean.interrupted is None
        assert clean.stats.meet_edges == 1
        assert clean_chunks > 1, "the join no longer spans several chunks"

        dwg, result, context, chunks = self.run(monkeypatch, arm=True)
        assert chunks == 1
        assert context.polls_after_arming == 1
        assert result.interrupted == "deadline"
        assert result.found
        # the best pair of the first chunk, re-accumulated along the path
        assert context.meet_reports
        assert result.ssb_weight == pytest.approx(context.meet_reports[-1])
        assert result.ssb_weight >= clean.ssb_weight
        edges = result.path.edges
        assert edges[0].tail == dwg.source and edges[-1].head == dwg.target
        for left, right in zip(edges, edges[1:]):
            assert left.head == right.tail


#: The half-sweep grid: every (weighting, n, k, scatter) at seed 0.
HALF_SWEEP_GRID = [(weighting, n, k, scatter)
                   for weighting in ("default", "convex")
                   for n in (8, 12, 16)
                   for k in (2, 3, 4)
                   for scatter in (0.0, 0.5, 1.0)]

#: Per grid entry under the default beam: the beam pre-pass's SSB weight
#: and the edge keys of the returned path, recorded from the two mirrored
#: half-sweep loops the single half kernel replaced.  The beam certifies
#: every entry, so the exact pass is skipped there.
HALF_SWEEP_PINS = {
    ("default", 8, 2, 0.0): (6.893814925198646, (4, 7, 9)),
    ("default", 8, 2, 0.5): (6.893814925198646, (4, 7, 9)),
    ("default", 8, 2, 1.0): (7.035695274264403, (4, 7, 9)),
    ("default", 8, 3, 0.0): (6.814296481348501, (4, 7, 9)),
    ("default", 8, 3, 0.5): (6.7428562814900666, (4, 6, 8)),
    ("default", 8, 3, 1.0): (4.972694506749683, (4, 5, 7)),
    ("default", 8, 4, 0.0): (7.035695274264403, (4, 7, 9)),
    ("default", 8, 4, 0.5): (5.387600212263769, (4, 7, 9)),
    ("default", 8, 4, 1.0): (5.3298772771735585, (4, 6, 8)),
    ("default", 12, 2, 0.0): (9.33835884929282, (5, 7, 10, 14)),
    ("default", 12, 2, 0.5): (8.203300700623414, (2, 4, 6, 10, 11)),
    ("default", 12, 2, 1.0): (9.015402304089855, (2, 4, 6, 10)),
    ("default", 12, 3, 0.0): (8.854329947752216, (5, 7, 10, 14)),
    ("default", 12, 3, 0.5): (8.882420453505503, (2, 3, 7, 11)),
    ("default", 12, 3, 1.0): (8.791438990349311, (2, 4, 6, 10)),
    ("default", 12, 4, 0.0): (9.199083496522467, (5, 7, 10, 14)),
    ("default", 12, 4, 0.5): (9.199083496522467, (5, 7, 10, 14)),
    ("default", 12, 4, 1.0): (7.372544190855724, (2, 3, 5, 9)),
    ("default", 16, 2, 0.0): (11.151124156888313, (5, 7, 8, 11, 13, 18, 20, 22)),
    ("default", 16, 2, 0.5): (11.647881931188282, (1, 2, 5, 7, 10, 14, 16, 18)),
    ("default", 16, 2, 1.0): (11.477376328962439, (1, 3, 5, 7, 9, 11, 13, 14, 16)),
    ("default", 16, 3, 0.0): (11.655565557863945, (5, 7, 9, 11, 14, 18, 19, 22)),
    ("default", 16, 3, 0.5): (11.08712881280539, (0, 2, 5, 7, 10, 13, 16, 18)),
    ("default", 16, 3, 1.0): (11.495567513926709, (1, 2, 5, 7, 8, 11, 14, 15, 16)),
    ("default", 16, 4, 0.0): (11.762696715679741, (5, 7, 9, 10, 14, 18, 20, 22)),
    ("default", 16, 4, 0.5): (10.973807788317178, (3, 4, 7, 9, 11, 12, 14, 16)),
    ("default", 16, 4, 1.0): (10.005964192014652, (1, 2, 4, 6, 8, 12, 15, 16)),
    ("convex", 8, 2, 0.0): (2.455193012626797, (4, 7, 9)),
    ("convex", 8, 2, 0.5): (2.455193012626797, (4, 7, 9)),
    ("convex", 8, 2, 1.0): (2.5537301672986485, (4, 7, 9)),
    ("convex", 8, 3, 0.0): (2.3900935269584855, (4, 7, 9)),
    ("convex", 8, 3, 0.5): (2.3487428723566133, (4, 6, 8)),
    ("convex", 8, 3, 1.0): (1.6341633445189034, (4, 6, 8)),
    ("convex", 8, 4, 0.0): (2.5537301672986485, (4, 7, 9)),
    ("convex", 8, 4, 0.5): (1.8244187252907853, (4, 7, 9)),
    ("convex", 8, 4, 1.0): (1.7840126707276378, (4, 6, 8)),
    ("convex", 12, 2, 0.0): (3.120556532640545, (5, 7, 10, 14)),
    ("convex", 12, 2, 0.5): (2.786276824050967, (2, 4, 6, 10, 11)),
    ("convex", 12, 2, 1.0): (3.0232344811247076, (2, 4, 6, 10)),
    ("convex", 12, 3, 0.0): (2.787129337651088, (5, 7, 10, 14)),
    ("convex", 12, 3, 0.5): (3.0180955808491348, (2, 3, 7, 11)),
    ("convex", 12, 3, 1.0): (2.8664601615063265, (2, 4, 6, 10)),
    ("convex", 12, 4, 0.0): (3.139525974938221, (5, 7, 10, 14)),
    ("convex", 12, 4, 0.5): (3.139525974938221, (5, 7, 10, 14)),
    ("convex", 12, 4, 1.0): (2.663859788451405, (2, 4, 6, 9)),
    ("convex", 16, 2, 0.0): (4.094422409998382, (5, 7, 8, 11, 13, 18, 20, 22)),
    ("convex", 16, 2, 0.5): (4.151511234254674, (1, 2, 5, 7, 10, 14, 16, 18)),
    ("convex", 16, 2, 1.0): (3.852717971824327, (1, 3, 5, 7, 9, 11, 13, 14, 16)),
    ("convex", 16, 3, 0.0): (4.143243465063907, (5, 7, 9, 11, 14, 18, 20, 22)),
    ("convex", 16, 3, 0.5): (3.9342395144522984, (1, 3, 4, 7, 10, 14, 16, 18)),
    ("convex", 16, 3, 1.0): (4.159068119821986, (1, 3, 5, 7, 8, 12, 14, 15, 17)),
    ("convex", 16, 4, 0.0): (4.0935898982097445, (5, 7, 9, 10, 14, 18, 20, 22)),
    ("convex", 16, 4, 0.5): (3.931114360845366, (3, 5, 7, 9, 11, 13, 15, 17)),
    ("convex", 16, 4, 1.0): (3.762381949222272, (1, 3, 5, 7, 9, 13, 15, 17)),
}

INF = float("inf")

#: Per grid entry with the beam disabled (``beam_width=0``): the
#: ``LabelSearchStats`` fields in declaration order up to
#: ``settle_batches`` and the edge keys of the returned path, recorded
#: before the beam certificate existed — the half kernel's work, pinned.
EXACT_PASS_PINS = {
    ("default", 8, 2, 0.0): (
        (7, 0, 26, 4, 2, INF, 0, 0, 0, 0, 26, 5, 5, 4),
        (4, 7, 9)),
    ("default", 8, 2, 0.5): (
        (7, 0, 26, 4, 2, INF, 0, 0, 0, 0, 26, 5, 5, 4),
        (4, 7, 9)),
    ("default", 8, 2, 1.0): (
        (7, 0, 22, 4, 2, INF, 0, 0, 0, 0, 22, 5, 5, 4),
        (4, 7, 9)),
    ("default", 8, 3, 0.0): (
        (7, 0, 25, 4, 2, INF, 0, 0, 0, 0, 25, 5, 5, 4),
        (4, 7, 9)),
    ("default", 8, 3, 0.5): (
        (6, 0, 20, 4, 2, INF, 0, 0, 0, 0, 20, 5, 4, 4),
        (4, 6, 8)),
    ("default", 8, 3, 1.0): (
        (6, 0, 20, 4, 3, INF, 0, 0, 0, 0, 20, 5, 4, 4),
        (4, 5, 7)),
    ("default", 8, 4, 0.0): (
        (7, 0, 22, 4, 2, INF, 0, 0, 0, 0, 22, 5, 5, 4),
        (4, 7, 9)),
    ("default", 8, 4, 0.5): (
        (7, 0, 24, 4, 1, INF, 0, 0, 0, 0, 24, 5, 5, 4),
        (4, 7, 9)),
    ("default", 8, 4, 1.0): (
        (6, 0, 20, 4, 2, INF, 0, 0, 0, 0, 20, 5, 4, 4),
        (4, 6, 8)),
    ("default", 12, 2, 0.0): (
        (16, 0, 42, 5, 2, INF, 0, 0, 0, 0, 42, 5, 9, 5),
        (5, 7, 10, 14)),
    ("default", 12, 2, 0.5): (
        (14, 0, 10, 6, 2, INF, 0, 0, 0, 0, 10, 2, 6, 6),
        (2, 4, 6, 10, 11)),
    ("default", 12, 2, 1.0): (
        (13, 0, 11, 5, 2, INF, 0, 0, 0, 0, 11, 2, 6, 5),
        (2, 4, 6, 10)),
    ("default", 12, 3, 0.0): (
        (16, 0, 42, 5, 2, INF, 0, 0, 0, 0, 42, 5, 9, 5),
        (5, 7, 10, 14)),
    ("default", 12, 3, 0.5): (
        (13, 0, 15, 5, 3, INF, 0, 0, 0, 0, 15, 3, 6, 5),
        (2, 3, 7, 11)),
    ("default", 12, 3, 1.0): (
        (13, 0, 5, 5, 3, INF, 0, 0, 0, 0, 5, 2, 6, 5),
        (2, 4, 6, 10)),
    ("default", 12, 4, 0.0): (
        (16, 0, 41, 5, 2, INF, 0, 0, 0, 0, 41, 5, 9, 5),
        (5, 7, 10, 14)),
    ("default", 12, 4, 0.5): (
        (16, 0, 41, 5, 2, INF, 0, 0, 0, 0, 41, 5, 9, 5),
        (5, 7, 10, 14)),
    ("default", 12, 4, 1.0): (
        (12, 0, 5, 5, 3, INF, 0, 1, 0, 0, 4, 2, 6, 5),
        (2, 3, 5, 9)),
    ("default", 16, 2, 0.0): (
        (61, 7, 67, 9, 2, INF, 0, 0, 0, 0, 67, 4, 25, 9),
        (5, 7, 8, 11, 13, 18, 20, 22)),
    ("default", 16, 2, 0.5): (
        (48, 0, 45, 9, 2, INF, 0, 0, 0, 0, 45, 3, 16, 9),
        (1, 2, 5, 7, 10, 14, 16, 18)),
    ("default", 16, 2, 1.0): (
        (46, 0, 23, 10, 2, INF, 0, 0, 0, 0, 23, 2, 16, 10),
        (1, 3, 5, 7, 9, 11, 13, 14, 16)),
    ("default", 16, 3, 0.0): (
        (59, 9, 64, 9, 2, INF, 0, 0, 0, 0, 64, 4, 23, 9),
        (5, 7, 9, 11, 14, 18, 19, 22)),
    ("default", 16, 3, 0.5): (
        (48, 2, 21, 9, 3, INF, 0, 0, 0, 0, 21, 3, 16, 9),
        (0, 2, 5, 7, 10, 13, 16, 18)),
    ("default", 16, 3, 1.0): (
        (48, 0, 25, 10, 3, INF, 0, 0, 0, 0, 25, 2, 16, 10),
        (1, 2, 5, 7, 8, 11, 14, 15, 16)),
    ("default", 16, 4, 0.0): (
        (57, 4, 70, 9, 2, INF, 0, 0, 0, 0, 70, 4, 21, 9),
        (5, 7, 9, 10, 14, 18, 20, 22)),
    ("default", 16, 4, 0.5): (
        (47, 0, 26, 9, 3, INF, 0, 1, 0, 0, 25, 2, 16, 9),
        (3, 4, 7, 9, 11, 12, 14, 16)),
    ("default", 16, 4, 1.0): (
        (48, 0, 13, 9, 3, INF, 0, 0, 0, 0, 13, 2, 16, 9),
        (1, 2, 4, 6, 8, 12, 15, 16)),
    ("convex", 8, 2, 0.0): (
        (7, 0, 25, 4, 2, INF, 0, 0, 0, 0, 25, 5, 5, 4),
        (4, 7, 9)),
    ("convex", 8, 2, 0.5): (
        (7, 0, 25, 4, 2, INF, 0, 0, 0, 0, 25, 5, 5, 4),
        (4, 7, 9)),
    ("convex", 8, 2, 1.0): (
        (7, 0, 24, 4, 2, INF, 0, 0, 0, 0, 24, 5, 5, 4),
        (4, 7, 9)),
    ("convex", 8, 3, 0.0): (
        (7, 0, 24, 4, 2, INF, 0, 0, 0, 0, 24, 5, 5, 4),
        (4, 7, 9)),
    ("convex", 8, 3, 0.5): (
        (6, 0, 20, 4, 2, INF, 0, 0, 0, 0, 20, 5, 4, 4),
        (4, 6, 8)),
    ("convex", 8, 3, 1.0): (
        (6, 0, 20, 4, 3, INF, 0, 0, 0, 0, 20, 5, 4, 4),
        (4, 6, 8)),
    ("convex", 8, 4, 0.0): (
        (7, 0, 24, 4, 2, INF, 0, 0, 0, 0, 24, 5, 5, 4),
        (4, 7, 9)),
    ("convex", 8, 4, 0.5): (
        (7, 0, 24, 4, 1, INF, 0, 0, 0, 0, 24, 5, 5, 4),
        (4, 7, 9)),
    ("convex", 8, 4, 1.0): (
        (6, 0, 20, 4, 2, INF, 0, 0, 0, 0, 20, 5, 4, 4),
        (4, 6, 8)),
    ("convex", 12, 2, 0.0): (
        (16, 0, 42, 5, 2, INF, 0, 0, 0, 0, 42, 5, 9, 5),
        (5, 7, 10, 14)),
    ("convex", 12, 2, 0.5): (
        (14, 0, 10, 6, 2, INF, 0, 0, 0, 0, 10, 2, 6, 6),
        (2, 4, 6, 10, 11)),
    ("convex", 12, 2, 1.0): (
        (13, 0, 10, 5, 2, INF, 0, 0, 0, 0, 10, 2, 6, 5),
        (2, 4, 6, 10)),
    ("convex", 12, 3, 0.0): (
        (16, 0, 42, 5, 2, INF, 0, 0, 0, 0, 42, 5, 9, 5),
        (5, 7, 10, 14)),
    ("convex", 12, 3, 0.5): (
        (13, 0, 17, 5, 3, INF, 0, 0, 0, 0, 17, 3, 6, 5),
        (2, 3, 7, 11)),
    ("convex", 12, 3, 1.0): (
        (13, 0, 10, 5, 3, INF, 0, 0, 0, 0, 10, 2, 6, 5),
        (2, 4, 6, 10)),
    ("convex", 12, 4, 0.0): (
        (16, 0, 43, 5, 2, INF, 0, 0, 0, 0, 43, 5, 9, 5),
        (5, 7, 10, 14)),
    ("convex", 12, 4, 0.5): (
        (16, 0, 43, 5, 2, INF, 0, 0, 0, 0, 43, 5, 9, 5),
        (5, 7, 10, 14)),
    ("convex", 12, 4, 1.0): (
        (12, 0, 6, 5, 3, INF, 0, 1, 0, 0, 5, 2, 6, 5),
        (2, 4, 6, 9)),
    ("convex", 16, 2, 0.0): (
        (61, 7, 67, 9, 2, INF, 0, 0, 0, 0, 67, 4, 25, 9),
        (5, 7, 8, 11, 13, 18, 20, 22)),
    ("convex", 16, 2, 0.5): (
        (48, 0, 45, 9, 2, INF, 0, 0, 0, 0, 45, 3, 16, 9),
        (1, 2, 5, 7, 10, 14, 16, 18)),
    ("convex", 16, 2, 1.0): (
        (46, 0, 24, 10, 2, INF, 0, 0, 0, 0, 24, 2, 16, 10),
        (1, 3, 5, 7, 9, 11, 13, 14, 16)),
    ("convex", 16, 3, 0.0): (
        (59, 9, 64, 9, 2, INF, 0, 0, 0, 0, 64, 4, 23, 9),
        (5, 7, 9, 11, 14, 18, 20, 22)),
    ("convex", 16, 3, 0.5): (
        (48, 2, 43, 9, 3, INF, 0, 0, 0, 0, 43, 3, 16, 9),
        (1, 3, 4, 7, 10, 14, 16, 18)),
    ("convex", 16, 3, 1.0): (
        (48, 0, 25, 10, 3, INF, 0, 0, 0, 0, 25, 2, 16, 10),
        (1, 3, 5, 7, 8, 12, 14, 15, 17)),
    ("convex", 16, 4, 0.0): (
        (57, 4, 68, 9, 2, INF, 0, 0, 0, 0, 68, 4, 21, 9),
        (5, 7, 9, 10, 14, 18, 20, 22)),
    ("convex", 16, 4, 0.5): (
        (47, 0, 11, 9, 3, INF, 0, 1, 0, 0, 10, 2, 16, 9),
        (3, 5, 7, 9, 11, 13, 15, 17)),
    ("convex", 16, 4, 1.0): (
        (48, 0, 27, 9, 3, INF, 0, 0, 0, 0, 27, 2, 16, 9),
        (1, 3, 5, 7, 9, 13, 15, 17)),
}


class TestHalfSweepPins:
    """One half kernel, run in both directions, does the same work and
    returns the same path as the two mirrored loops it replaced; under the
    default beam the certificate skips it and keeps the same path."""

    WEIGHTINGS = {"default": SSBWeighting(),
                  "convex": SSBWeighting.convex(0.3)}

    def _search(self, entry, **kwargs):
        weighting, n, k, scatter = entry
        problem = random_problem(n_processing=n, n_satellites=k, seed=0,
                                 sensor_scatter=scatter)
        dwg = build_assignment_graph(problem).dwg
        return LabelDominanceSearch(
            weighting=self.WEIGHTINGS[weighting], **kwargs).search(dwg)

    def test_pins_cover_the_grid(self):
        assert sorted(HALF_SWEEP_PINS) == sorted(HALF_SWEEP_GRID)
        assert sorted(EXACT_PASS_PINS) == sorted(HALF_SWEEP_GRID)

    @pytest.mark.parametrize("entry", HALF_SWEEP_GRID, ids=str)
    def test_stats_and_path_are_pinned(self, entry):
        result = self._search(entry, beam_width=0)
        stats, path = EXACT_PASS_PINS[entry]
        assert dataclasses.astuple(result.stats) == stats + (False,)
        assert tuple(edge.key for edge in result.path.edges) == path

    @pytest.mark.parametrize("entry", HALF_SWEEP_GRID, ids=str)
    def test_beam_certifies_the_pinned_path(self, entry):
        result = self._search(entry)
        beam_ssb, path = HALF_SWEEP_PINS[entry]
        assert result.stats.beam_certified
        assert result.stats.beam_ssb == beam_ssb
        assert result.stats.labels_created == 0
        assert tuple(edge.key for edge in result.path.edges) == path


#: The certificate grid: n × k × scatter × seed instances, each searched
#: under every weighting with each beam width.
CERTIFICATE_GRID = [(n, k, scatter, seed)
                    for n in (6, 10, 14, 18, 22)
                    for k in (1, 2, 3, 4)
                    for scatter in (0.0, 0.5, 1.0)
                    for seed in (0, 1, 2)]
CERTIFICATE_WEIGHTINGS = (SSBWeighting(), SSBWeighting.convex(0.3),
                          SSBWeighting.convex(0.7))
CERTIFICATE_BEAMS = (1, 2, 4, 16, 128)


def cuts_clear_calls(monkeypatch, full_scan=False):
    """Record ``(number of cuts, result)`` of every ``_cuts_clear`` check;
    ``full_scan`` disables its early exit (a ``-inf`` node floor never
    clears the bound, so every dropped label is scanned)."""
    calls = []
    original = label_search._cuts_clear

    def recorded(cuts, *args):
        if full_scan:
            cuts = [cut[:-1] + (-math.inf,) for cut in cuts]
        out = original(cuts, *args)
        calls.append((len(cuts), out))
        return out

    monkeypatch.setattr(label_search, "_cuts_clear", recorded)
    return calls


class TestBeamCertificate:
    """When no truncated beam label can beat the incumbent, the exact pass
    is skipped — and the answer stays that of the exact pass."""

    def test_certified_answers_equal_the_exact_pass(self, monkeypatch):
        calls = cuts_clear_calls(monkeypatch)
        outcomes = {True: 0, False: 0}
        guarded = 0
        for n, k, scatter, seed in CERTIFICATE_GRID:
            dwg = build_assignment_graph(random_problem(
                n_processing=n, n_satellites=k, seed=seed,
                sensor_scatter=scatter)).dwg
            for weighting in CERTIFICATE_WEIGHTINGS:
                optimum = LabelDominanceSearch(
                    weighting=weighting, beam_width=0).search(dwg).ssb_weight
                for width in CERTIFICATE_BEAMS:
                    del calls[:]
                    result = LabelDominanceSearch(
                        weighting=weighting, beam_width=width).search(dwg)
                    assert result.ssb_weight == optimum, (
                        n, k, scatter, seed, weighting, width)
                    certified = result.stats.beam_certified
                    outcomes[certified] += 1
                    if certified:
                        assert result.stats.labels_created == 0
                    # the beam truncated and missed the optimum: only the
                    # dropped labels can hold it, so no certificate
                    elif calls[0][0] and result.stats.beam_ssb > optimum:
                        guarded += 1
        assert outcomes[True] and outcomes[False]
        assert guarded

    @pytest.mark.parametrize("n, k, scatter", [(10, 2, 0.0), (14, 3, 0.5),
                                               (18, 4, 1.0)])
    def test_caller_incumbents(self, n, k, scatter):
        dwg = build_assignment_graph(random_problem(
            n_processing=n, n_satellites=k, seed=1,
            sensor_scatter=scatter)).dwg
        optimum = LabelDominanceSearch(beam_width=0).search(dwg).ssb_weight
        search = LabelDominanceSearch()
        # nothing beats an optimal incumbent strictly
        result = search.search(dwg, incumbent=optimum)
        assert not result.found and result.stats.beam_certified
        # an incumbent one ulp above the optimum leaves only optimal paths
        result = search.search(
            dwg, incumbent=math.nextafter(optimum, math.inf))
        assert result.found and result.stats.beam_certified
        assert result.ssb_weight == optimum

    def test_interrupted_beam_certifies_nothing(self):
        # the beam stops at its first node, before any truncation: it has
        # no cuts, yet proves nothing about the labels it never built
        class FiringContext:
            span = None

            def __init__(self, polls):
                self.polls = polls

            def interrupted(self):
                self.polls -= 1
                return "cancelled" if self.polls < 0 else None

            def report_incumbent(self, *args, **kwargs):
                return True

        dwg = build_assignment_graph(random_problem(
            n_processing=14, n_satellites=2, seed=0,
            sensor_scatter=0.5)).dwg
        search = LabelDominanceSearch(beam_width=2)
        assert search.search(dwg).stats.beam_certified
        result = search.search(dwg, context=FiringContext(1))
        assert result.interrupted == "cancelled" and result.found
        assert not result.stats.beam_certified

    def test_colourless_graph(self, monkeypatch):
        # σ only (dim 0): three routes into M, two out of it
        dwg = DoublyWeightedGraph(source="S", target="T")
        for mid, sigma in (("A", 3.0), ("B", 1.0), ("C", 2.0)):
            dwg.add_edge("S", mid, sigma=sigma, beta={})
            dwg.add_edge(mid, "M", sigma=1.0, beta={})
        dwg.add_edge("M", "T", sigma=4.0, beta={})
        dwg.add_edge("M", "D", sigma=1.0, beta={})
        dwg.add_edge("D", "T", sigma=2.0, beta={})
        # the min-σ seed path is optimal, so the beam bound-prunes every
        # label and truncates none: certified without a cut
        calls = cuts_clear_calls(monkeypatch)
        result = LabelDominanceSearch(beam_width=1).search(dwg)
        assert calls == [(0, True)]
        assert result.stats.colors == 0 and result.stats.beam_certified
        assert result.ssb_weight == 5.0 == LabelDominanceSearch(
            beam_width=0).search(dwg).ssb_weight
        assert [e.head for e in result.path.edges] == ["B", "M", "D", "T"]
        # M's bucket truncated to its best label S-B-M (σ 2): S-C-M (σ 3)
        # completes via D for σ 6, and S-A-M (key 4 + pot[M] 3 = 7) ends
        # the scan below bound 7, so a worse label is never drawn
        pots = completion_potentials(dwg)
        extensions = [(e, DoublyWeightedGraph.sigma(e), (), 0.0, e.head,
                       pots.pot[e.head], (), pots.potj[e.head])
                      for e in dwg.graph.out_edges("M")]
        for bound, clear, drawn in ((6.0, True, [3.0, 4.0]),
                                    (6.5, False, [3.0])):
            scanned = []
            sigmas = (s for s in (3.0, 4.0, 5.0) if not scanned.append(s))
            cut = (sigmas, [0.0] * 3, [], extensions, pots.pot["M"])
            assert label_search._cuts_clear(
                [cut], bound, 1.0, 1.0, 0.0) is clear
            assert scanned == drawn

    def test_early_exit_matches_a_full_scan(self, monkeypatch):
        early, full = [], []
        for n, k, scatter, seed in CERTIFICATE_GRID[::7]:
            dwg = build_assignment_graph(random_problem(
                n_processing=n, n_satellites=k, seed=seed,
                sensor_scatter=scatter)).dwg
            for weighting in CERTIFICATE_WEIGHTINGS:
                for calls, full_scan in ((early, False), (full, True)):
                    with monkeypatch.context() as patch:
                        checks = cuts_clear_calls(patch, full_scan)
                        LabelDominanceSearch(
                            weighting=weighting, beam_width=4).search(dwg)
                    calls.extend(checks)
        assert early == full
        assert {clear for cuts, clear in early if cuts} == {True, False}
