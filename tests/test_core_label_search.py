"""Property and unit tests for the label-dominance search engine.

The randomized suites assert the engine's defining property: its optimum is
*bit-identical* (same float, not approximately equal) to brute force and to
the Yen-enumeration finisher on every instance both can finish — including
the scattered-sensor regime the engine was built for.
"""

import dataclasses
import math
import sys
import tracemalloc
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.graphs.paths import Path
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
    walk replaced: one ``min_weight_to_target`` pass per bound.  Its third
    table is the joint average-load potential ``min_p (λ_S·σ(p) +
    λ_B·β_total(p)/n_colours)``, which the engine no longer computes: the
    reference the Lagrangian root is checked against."""
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
    inf = float("inf")
    spot = {dwg.source: 0.0}
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
            spot[head] = min(spot.get(head, inf), spot[node] + sigma)
            step = lam_s * sigma
            inc = [step] * n_colors
            for ci, bv in betas:
                inc[ci] = step + lam_b * bv
            cand = tuple(map(add, spotjc[node], inc))
            cur = spotjc.get(head)
            spotjc[head] = cand if cur is None else tuple(map(min, cur, cand))
    return spot, spotjc


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
            stats = result.label_stats
            assert stats is not None
            # nodes are swept by exact passes only (none when certified)
            assert (stats.nodes_swept > 0) == (stats.exact_passes > 0)
            assert result.enumerated_paths == 0

    def test_certified_search_sweeps_no_node(self):
        problem = random_problem(n_processing=12, n_satellites=3, seed=5,
                                 sensor_scatter=1.0)
        graph = build_assignment_graph(problem)
        certified = LabelDominanceSearch().search(graph.dwg).stats
        assert certified.beam_certified and certified.exact_passes == 0
        assert certified.nodes_swept == 0
        exact = LabelDominanceSearch(beam_width=0).search(graph.dwg).stats
        assert exact.nodes_swept == \
            graph.dwg.number_of_nodes() * exact.exact_passes > 0

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
    """The half-sweeps' windowed Pareto filter: a knob on speed only, run
    only on buckets where a new dominator can be.  A lone in-edge chunk no
    wider than the window is one edge's shift of a bucket already filtered
    at its tail, and a meet-only bucket wider than ``_MEET_REDUCE_MIN``
    goes to the join's coarser join-space filter; neither is settled."""

    @staticmethod
    def settle_calls(monkeypatch, dwg, **kwargs):
        """One exact search, and per settle-mask call the width of the
        bucket it filters, that bucket's in-edge chunk count and whether
        its node extends in its half."""
        calls = []
        original = label_search.pareto_block_mask

        def recorded(sig, lds, window=None, poll=None):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "settle_mask":
                half = caller.f_back.f_locals
                calls.append((len(half["sig"]), len(half["node_chunks"]),
                              bool(half["extensions"])))
            return original(sig, lds, window=window, poll=poll)

        monkeypatch.setattr(label_search, "pareto_block_mask", recorded)
        result = LabelDominanceSearch(beam_width=0, **kwargs).search(dwg)
        return result, calls

    def test_settle_runs_only_where_a_dominator_can_be(self, monkeypatch):
        dwg = build_assignment_graph(random_problem(
            n_processing=30, n_satellites=4, seed=0,
            sensor_scatter=1.0)).dwg
        result, calls = self.settle_calls(monkeypatch, dwg)
        window = LabelDominanceSearch().dominance_window
        assert calls, "the filter no longer runs anywhere"
        for width, chunks, extends in calls:
            assert chunks > 1 or width > window
            assert extends or width <= label_search._MEET_REDUCE_MIN
        unfiltered, none = self.settle_calls(monkeypatch, dwg,
                                             dominance_window=0)
        assert none == []
        assert unfiltered.ssb_weight == result.ssb_weight

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
            colors, pot, _, potjc = old_completion_potentials(dwg, weighting)
            assert (got.colors, got.pot, got.potjc) == (colors, pot, potjc)

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
            spot, spotjc = old_source_potentials(dwg, weighting)
            assert got.pot == spot
            assert got.potjc == spotjc

    def test_source_potentials_are_exact_minima(self, monkeypatch):
        # the source-side duals of the completion bounds: per node, the
        # minimum over every S → v path of σ and of each colour's weighted
        # load
        problem = random_problem(n_processing=7, n_satellites=3, seed=4,
                                 sensor_scatter=1.0)
        dwg = build_assignment_graph(problem).dwg
        weighting = SSBWeighting.convex(0.3)
        spots = source_minima(monkeypatch, dwg, weighting)
        spot, spotjc = spots.pot, spots.potjc
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
        # seed 45: one crossing edge, whose join the midpoint probe still
        # spreads over several chunks
        problem = random_problem(n_processing=12, n_satellites=3, seed=45,
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


class TestJoinMemory:
    """The meet join's working set scales with its chunk budget: the
    ``val`` block plus one same-shape scratch buffer, half the budget
    each."""

    def join_peak(self, monkeypatch, dwg, chunk_elems):
        """``(peak bytes above the join's start, chunks, SSB)`` of one
        search; the join's only ``searchsorted`` call is its per-chunk
        B-side cut, so the first call marks the start of its chunk loop."""
        marks = []

        class JoinStartNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def searchsorted(self, *args, **kwargs):
                if not marks:
                    tracemalloc.reset_peak()
                    marks.append(tracemalloc.get_traced_memory()[0])
                else:
                    marks.append(None)
                return np.searchsorted(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(label_search, "_MEET_CHUNK_ELEMS", chunk_elems)
            patch.setattr(label_search, "np", JoinStartNumpy())
            tracemalloc.start()
            try:
                result = LabelDominanceSearch().search(dwg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return peak - marks[0], len(marks), result.ssb_weight

    def test_peak_is_bounded_by_the_chunk(self, monkeypatch):
        # scattered n=70 k=6: its join still spans several default chunks
        dwg = build_assignment_graph(random_problem(
            n_processing=70, n_satellites=6, seed=0, sensor_scatter=1.0)).dwg
        default = label_search._MEET_CHUNK_ELEMS
        peak, chunks, ssb = self.join_peak(monkeypatch, dwg, default)
        assert chunks > 1, "the join no longer spans several chunks"
        tiny_peak, _, tiny_ssb = self.join_peak(monkeypatch, dwg,
                                                default >> 6)
        assert tiny_ssb == ssb
        chunk_bytes = default * np.dtype(np.float64).itemsize
        assert peak - tiny_peak <= 1.5 * chunk_bytes


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
#: ``settle_batches``, then ``exact_passes``, and the edge keys of the
#: returned path — the half kernel's work, pinned.  The paths were
#: recorded before the beam certificate existed; the counters were
#: re-recorded when the Lagrangian w-bounds were added (the
#: ``pruned_lagrange`` slot, and ``pruned_meet`` in four entries whose
#: join order the w-floors changed) and again when the exact pass began
#: probing at the duality midpoint (the counters sum over the probe and,
#: when it misses, the rerun), and again (22 entries) when Polyak rounds
#: aimed at the incumbent followed the multiplicative-weights ascent.  The
#: ``pruned_floor`` and ``pruned_joint`` slots left the stats with the
#: joint average-load bound; every other counter held.
EXACT_PASS_PINS = {
    ('default', 8, 2, 0.0): (
        (5, 0, 20, 4, 2, INF, 1, 1, 18, 5, 3, 4, 1),
        (4, 7, 9)),
    ('default', 8, 2, 0.5): (
        (5, 0, 20, 4, 2, INF, 1, 1, 18, 5, 3, 4, 1),
        (4, 7, 9)),
    ('default', 8, 2, 1.0): (
        (7, 0, 23, 4, 2, INF, 0, 0, 23, 5, 5, 4, 1),
        (4, 7, 9)),
    ('default', 8, 3, 0.0): (
        (7, 0, 27, 4, 2, INF, 0, 0, 27, 5, 5, 4, 1),
        (4, 7, 9)),
    ('default', 8, 3, 0.5): (
        (6, 0, 20, 4, 2, INF, 0, 0, 20, 5, 4, 4, 1),
        (4, 6, 8)),
    ('default', 8, 3, 1.0): (
        (6, 0, 20, 4, 3, INF, 0, 0, 20, 5, 4, 4, 1),
        (4, 5, 7)),
    ('default', 8, 4, 0.0): (
        (7, 0, 23, 4, 2, INF, 0, 0, 23, 5, 5, 4, 1),
        (4, 7, 9)),
    ('default', 8, 4, 0.5): (
        (7, 0, 24, 4, 1, INF, 0, 0, 24, 5, 5, 4, 1),
        (4, 7, 9)),
    ('default', 8, 4, 1.0): (
        (6, 0, 20, 4, 2, INF, 0, 0, 20, 5, 4, 4, 1),
        (4, 6, 8)),
    ('default', 12, 2, 0.0): (
        (16, 0, 43, 5, 2, INF, 0, 0, 43, 5, 9, 5, 1),
        (5, 7, 10, 14)),
    ('default', 12, 2, 0.5): (
        (11, 0, 9, 6, 2, INF, 1, 0, 8, 2, 4, 6, 1),
        (2, 4, 6, 10, 11)),
    ('default', 12, 2, 1.0): (
        (12, 0, 11, 5, 2, INF, 1, 0, 10, 2, 6, 5, 1),
        (2, 4, 6, 10)),
    ('default', 12, 3, 0.0): (
        (15, 0, 42, 5, 2, INF, 1, 0, 41, 5, 8, 5, 1),
        (5, 7, 10, 14)),
    ('default', 12, 3, 0.5): (
        (12, 0, 14, 5, 3, INF, 1, 0, 13, 3, 6, 5, 1),
        (2, 3, 7, 11)),
    ('default', 12, 3, 1.0): (
        (12, 0, 5, 5, 3, INF, 1, 0, 4, 2, 6, 5, 1),
        (2, 4, 6, 10)),
    ('default', 12, 4, 0.0): (
        (14, 0, 34, 5, 2, INF, 2, 0, 32, 5, 7, 5, 1),
        (5, 7, 10, 14)),
    ('default', 12, 4, 0.5): (
        (14, 0, 34, 5, 2, INF, 2, 0, 32, 5, 7, 5, 1),
        (5, 7, 10, 14)),
    ('default', 12, 4, 1.0): (
        (12, 0, 6, 5, 3, INF, 1, 0, 5, 2, 6, 5, 1),
        (2, 3, 5, 9)),
    ('default', 16, 2, 0.0): (
        (61, 7, 67, 9, 2, INF, 0, 0, 67, 4, 25, 9, 1),
        (5, 7, 8, 11, 13, 18, 20, 22)),
    ('default', 16, 2, 0.5): (
        (47, 0, 45, 9, 2, INF, 1, 0, 44, 3, 16, 9, 1),
        (1, 2, 5, 7, 10, 14, 16, 18)),
    ('default', 16, 2, 1.0): (
        (45, 0, 26, 10, 2, INF, 1, 0, 25, 2, 15, 10, 1),
        (1, 3, 5, 7, 9, 11, 13, 14, 16)),
    ('default', 16, 3, 0.0): (
        (59, 9, 64, 9, 2, INF, 0, 0, 64, 4, 23, 9, 1),
        (5, 7, 9, 11, 14, 18, 19, 22)),
    ('default', 16, 3, 0.5): (
        (47, 2, 42, 9, 3, INF, 1, 0, 41, 3, 16, 9, 1),
        (0, 2, 5, 7, 10, 13, 16, 18)),
    ('default', 16, 3, 1.0): (
        (45, 0, 25, 10, 3, INF, 3, 0, 22, 2, 14, 10, 1),
        (1, 2, 5, 7, 8, 11, 14, 15, 16)),
    ('default', 16, 4, 0.0): (
        (56, 4, 71, 9, 2, INF, 1, 0, 70, 4, 20, 9, 1),
        (5, 7, 9, 10, 14, 18, 20, 22)),
    ('default', 16, 4, 0.5): (
        (46, 0, 28, 9, 3, INF, 2, 0, 26, 2, 16, 9, 1),
        (3, 4, 7, 9, 11, 12, 14, 16)),
    ('default', 16, 4, 1.0): (
        (46, 0, 16, 9, 3, INF, 2, 0, 14, 2, 16, 9, 1),
        (1, 2, 4, 6, 8, 12, 15, 16)),
    ('convex', 8, 2, 0.0): (
        (5, 0, 18, 4, 2, INF, 2, 0, 16, 5, 3, 4, 1),
        (4, 7, 9)),
    ('convex', 8, 2, 0.5): (
        (5, 0, 18, 4, 2, INF, 2, 0, 16, 5, 3, 4, 1),
        (4, 7, 9)),
    ('convex', 8, 2, 1.0): (
        (6, 0, 21, 4, 2, INF, 1, 0, 20, 5, 4, 4, 1),
        (4, 7, 9)),
    ('convex', 8, 3, 0.0): (
        (6, 0, 22, 4, 2, INF, 1, 0, 21, 5, 4, 4, 1),
        (4, 7, 9)),
    ('convex', 8, 3, 0.5): (
        (6, 0, 20, 4, 2, INF, 0, 0, 20, 5, 4, 4, 1),
        (4, 6, 8)),
    ('convex', 8, 3, 1.0): (
        (6, 0, 20, 4, 3, INF, 0, 0, 20, 5, 4, 4, 1),
        (4, 6, 8)),
    ('convex', 8, 4, 0.0): (
        (6, 0, 21, 4, 2, INF, 1, 0, 20, 5, 4, 4, 1),
        (4, 7, 9)),
    ('convex', 8, 4, 0.5): (
        (7, 0, 24, 4, 1, INF, 0, 0, 24, 5, 5, 4, 1),
        (4, 7, 9)),
    ('convex', 8, 4, 1.0): (
        (6, 0, 20, 4, 2, INF, 0, 0, 20, 5, 4, 4, 1),
        (4, 6, 8)),
    ('convex', 12, 2, 0.0): (
        (15, 0, 40, 5, 2, INF, 1, 0, 39, 5, 8, 5, 1),
        (5, 7, 10, 14)),
    ('convex', 12, 2, 0.5): (
        (11, 0, 9, 6, 2, INF, 1, 0, 8, 2, 4, 6, 1),
        (2, 4, 6, 10, 11)),
    ('convex', 12, 2, 1.0): (
        (12, 0, 11, 5, 2, INF, 1, 0, 10, 2, 6, 5, 1),
        (2, 4, 6, 10)),
    ('convex', 12, 3, 0.0): (
        (11, 0, 29, 5, 2, INF, 3, 0, 26, 5, 5, 5, 1),
        (5, 7, 10, 14)),
    ('convex', 12, 3, 0.5): (
        (12, 0, 17, 5, 3, INF, 1, 0, 16, 3, 6, 5, 1),
        (2, 3, 7, 11)),
    ('convex', 12, 3, 1.0): (
        (11, 0, 10, 5, 3, INF, 2, 0, 8, 2, 6, 5, 1),
        (2, 4, 6, 10)),
    ('convex', 12, 4, 0.0): (
        (11, 0, 29, 5, 2, INF, 3, 0, 26, 5, 5, 5, 1),
        (5, 7, 10, 14)),
    ('convex', 12, 4, 0.5): (
        (11, 0, 29, 5, 2, INF, 3, 0, 26, 5, 5, 5, 1),
        (5, 7, 10, 14)),
    ('convex', 12, 4, 1.0): (
        (12, 0, 7, 5, 3, INF, 1, 0, 6, 2, 6, 5, 1),
        (2, 4, 6, 9)),
    ('convex', 16, 2, 0.0): (
        (56, 6, 65, 9, 2, INF, 2, 1, 62, 4, 22, 9, 1),
        (5, 7, 8, 11, 13, 18, 20, 22)),
    ('convex', 16, 2, 0.5): (
        (45, 0, 45, 9, 2, INF, 3, 0, 42, 3, 16, 9, 1),
        (1, 2, 5, 7, 10, 14, 16, 18)),
    ('convex', 16, 2, 1.0): (
        (44, 0, 27, 10, 2, INF, 2, 0, 25, 2, 14, 10, 1),
        (1, 3, 5, 7, 9, 11, 13, 14, 16)),
    ('convex', 16, 3, 0.0): (
        (56, 9, 62, 9, 2, INF, 3, 0, 59, 4, 21, 9, 1),
        (5, 7, 9, 11, 14, 18, 20, 22)),
    ('convex', 16, 3, 0.5): (
        (45, 1, 44, 9, 3, INF, 3, 0, 41, 3, 16, 9, 1),
        (1, 3, 4, 7, 10, 14, 16, 18)),
    ('convex', 16, 3, 1.0): (
        (45, 0, 25, 10, 3, INF, 3, 0, 22, 2, 14, 10, 1),
        (1, 3, 5, 7, 8, 12, 14, 15, 17)),
    ('convex', 16, 4, 0.0): (
        (52, 4, 63, 9, 2, INF, 3, 0, 60, 4, 18, 9, 1),
        (5, 7, 9, 10, 14, 18, 20, 22)),
    ('convex', 16, 4, 0.5): (
        (43, 0, 26, 9, 3, INF, 3, 0, 23, 2, 16, 9, 1),
        (3, 5, 7, 9, 11, 13, 15, 17)),
    ('convex', 16, 4, 1.0): (
        (45, 0, 27, 9, 3, INF, 3, 0, 24, 2, 16, 9, 1),
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
        *counters, root, certified, passes = dataclasses.astuple(
            result.stats)
        assert (*counters, passes) == stats and certified is False
        assert tuple(edge.key for edge in result.path.edges) == path
        # an uncertified pass over two or more colours picks a weighting,
        # and its root bound is admissible
        if result.stats.colors > 1:
            assert -INF < root <= result.ssb_weight
        else:
            assert root == -INF

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


def cuts_clear_calls(monkeypatch):
    """Record ``(number of cuts, result)`` of every ``_cuts_clear`` check."""
    calls = []
    original = label_search._cuts_clear

    def recorded(cuts, *args):
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
            n_processing=14, n_satellites=2, seed=6,
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
        # M's bucket truncated to its best label S-B-M (σ 2): of the
        # dropped rows, S-C-M (σ 3) completes via D for σ 6, S-A-M (σ 4)
        # and a σ-5 row for more
        pots = completion_potentials(dwg)
        packs = [label_search._pack(e, e.head, {}, pots.pot,
                                    label_search._rows(pots.potjc))
                 for e in dwg.graph.out_edges("M")]
        cut = (np.array([3.0, 4.0, 5.0]), np.zeros((3, 0)), packs)
        for bound, clear in ((6.0, True), (6.5, False)):
            assert label_search._cuts_clear(
                [cut], bound, 1.0, 1.0) is clear

    def test_colourless_truncation_matches_the_exact_pass(self, monkeypatch):
        # σ only (dim 0), with sums that round: every prefix into M plus
        # its potential (0.1 + 0.6 at A, 0.2 + 0.5 at B and at M) is 0.7,
        # one ulp below the min-σ seed path's left-to-right sum, so both
        # routes into M pass the bound and width 1 cuts one of them —
        # 0-width load rows through the extension step and the certificate
        dwg = DoublyWeightedGraph(source="S", target="T")
        for mid, into, out in (("A", 0.1, 0.1), ("B", 0.2, 0.0)):
            dwg.add_edge("S", mid, sigma=into, beta={})
            dwg.add_edge(mid, "M", sigma=out, beta={})
        dwg.add_edge("M", "D", sigma=0.1, beta={})
        dwg.add_edge("D", "T", sigma=0.4, beta={})
        calls = cuts_clear_calls(monkeypatch)
        result = LabelDominanceSearch(beam_width=1).search(dwg)
        assert calls == [(1, True)] and result.stats.beam_certified
        exact = LabelDominanceSearch(beam_width=0).search(dwg)
        assert not exact.stats.beam_certified
        assert result.ssb_weight == exact.ssb_weight == 0.1 + 0.1 + 0.1 + 0.4
        assert [e.key for e in result.path.edges] == \
            [e.key for e in exact.path.edges]


def out_packs(dwg, weighting):
    """``node → [pack]`` over the live out-edges, as the search packs them
    before a Lagrangian weighting is picked."""
    pots = completion_potentials(dwg, weighting)
    color_index = {c: i for i, c in enumerate(pots.colors)}
    rows = label_search._rows(pots.potjc)
    order = DagIndex(dwg.graph).order()
    packs = {node: [label_search._pack(e, e.head, color_index, pots.pot,
                                       rows)
                    for e in dwg.graph.out_edges(node) if e.head in pots.pot]
             for node in order}
    return order, {node: p for node, p in packs.items() if p}, pots


def seed_bound(dwg, weighting):
    """The SSB of the min-σ seed path: the bound a beam-off search aims
    its Lagrangian ascent at."""
    seed = DagIndex(dwg.graph).shortest_path(dwg.source, dwg.target,
                                             weight=SIGMA_ATTR)
    return PathMeasures(weighting).ssb_colored(seed)


def accumulate(edges, color_index, dim):
    """``(σ, loads)`` summed edge by edge in the given order."""
    s, loads = 0.0, np.zeros(dim)
    for edge in edges:
        s = s + DoublyWeightedGraph.sigma(edge)
        for color, beta in DoublyWeightedGraph.beta_map(edge).items():
            if beta != 0.0:
                loads[color_index[color]] += float(beta)
    return s, loads


class TestLagrangeBounds:
    """The Lagrangian w-bounds: admissible for every weighting on the
    simplex, picked lazily, and rechecked by the certificate."""

    WEIGHTINGS = (SSBWeighting(), SSBWeighting.convex(0.3),
                  SSBWeighting.convex(0.7))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=3, max_value=8),
           k=st.integers(min_value=2, max_value=4),
           scatter=st.sampled_from([0.0, 0.5, 1.0]),
           seed=st.integers(min_value=0, max_value=10_000),
           weighting=st.sampled_from(range(3)),
           raw=st.lists(st.floats(min_value=1e-6, max_value=1e6),
                        min_size=4, max_size=4))
    def test_w_bounds_never_exceed_a_true_completion(self, n, k, scatter,
                                                     seed, weighting, raw):
        dwg = build_assignment_graph(random_problem(
            n_processing=n, n_satellites=k, seed=seed,
            sensor_scatter=scatter)).dwg
        weighting = self.WEIGHTINGS[weighting]
        lam_s, lam_b = weighting.lambda_s, weighting.lambda_b
        order, packs, pots = out_packs(dwg, weighting)
        dim = len(pots.colors)
        if dim < 2:
            return                  # no weighting is ever picked
        color_index = {c: i for i, c in enumerate(pots.colors)}
        sig, beta, _, out_arcs, in_arcs = label_search._packed_arcs(
            order, packs, dim)
        w = label_search._admissible_weights(np.asarray(raw[:dim]))
        weights = label_search._arc_weights(sig, beta, w, lam_s, lam_b)
        potw, _ = label_search._weighted_minima(
            order[::-1], dwg.target, out_arcs, weights)
        spotw, _ = label_search._weighted_minima(
            order, dwg.source, in_arcs, weights)
        tables = [(w, potw, spotw)]
        (w, potw, spotw, root), interrupted = label_search._lagrange_bounds(
            order, packs, dwg.source, dwg.target, dim, lam_s, lam_b,
            seed_bound(dwg, weighting))
        assert interrupted is None and root == potw[dwg.source]
        tables.append((w, potw, spotw))
        measures = PathMeasures(weighting)
        for w, potw, spotw in tables:
            assert (w >= 0).all() and float(w.sum()) < 1.0
            for node in potw:
                prefixes = all_paths(dwg, dwg.source, node)
                suffixes = all_paths(dwg, node, dwg.target)
                if not prefixes or not suffixes:
                    continue
                for prefix in prefixes:
                    s, loads = accumulate(prefix, color_index, dim)
                    best = min(measures.ssb_colored(
                        Path.from_edges(prefix + suffix))
                        for suffix in suffixes)
                    assert lam_s * s + lam_b * (loads @ w) + potw[node] \
                        <= best
                # the mirrored table bounds the backward half's suffixes
                for suffix in suffixes:
                    s, loads = accumulate(suffix[::-1], color_index, dim)
                    best = min(measures.ssb_colored(
                        Path.from_edges(prefix + suffix))
                        for prefix in prefixes)
                    assert lam_s * s + lam_b * (loads @ w) + spotw[node] \
                        <= best

    @pytest.mark.parametrize("seed", range(4))
    def test_root_is_never_weaker_than_the_average_bound(self, seed):
        dwg = build_assignment_graph(random_problem(
            n_processing=30, n_satellites=4, seed=seed,
            sensor_scatter=1.0)).dwg
        weighting = SSBWeighting()
        order, packs, pots = out_packs(dwg, weighting)
        (w, potw, _, root), _ = label_search._lagrange_bounds(
            order, packs, dwg.source, dwg.target, len(pots.colors), 1.0, 1.0,
            seed_bound(dwg, weighting))
        # uniform w is the first round; it is the joint average-load bound
        # up to the admissibility margin
        _, _, potj, _ = old_completion_potentials(dwg, weighting)
        assert root >= potj[dwg.source] * (1 - 1e-9)
        result = LabelDominanceSearch(beam_width=0).search(dwg)
        assert result.stats.lagrange_root == root <= result.ssb_weight

    def test_the_certificate_is_rechecked_with_the_w_bound(self, monkeypatch):
        # the beam (width 1) misses no better path, but only the w-bound
        # proves it for its truncated labels
        calls = cuts_clear_calls(monkeypatch)
        dwg = build_assignment_graph(random_problem(
            n_processing=6, n_satellites=2, seed=2,
            sensor_scatter=0.0)).dwg
        result = LabelDominanceSearch(beam_width=1).search(dwg)
        (cuts, plain), (cuts_again, rechecked) = calls
        assert cuts == cuts_again and cuts > 0
        assert not plain and rechecked
        assert result.stats.beam_certified
        assert result.stats.labels_created == 0
        assert result.stats.lagrange_root > -INF
        exact = LabelDominanceSearch(beam_width=0).search(dwg)
        assert result.ssb_weight == exact.ssb_weight
        assert [e.key for e in result.path.edges] == \
            [e.key for e in exact.path.edges]

    def test_certified_solves_never_pick_a_weighting(self, monkeypatch):
        ascents = []
        original = label_search._lagrange_bounds
        monkeypatch.setattr(label_search, "_lagrange_bounds",
                            lambda *a, **k: ascents.append(1) or
                            original(*a, **k))
        dwg = build_assignment_graph(random_problem(
            n_processing=12, n_satellites=3, seed=0,
            sensor_scatter=0.5)).dwg
        result = LabelDominanceSearch().search(dwg)
        assert result.stats.beam_certified and not ascents
        assert result.stats.lagrange_root == -INF

    def test_an_interrupted_ascent_skips_the_exact_pass(self, monkeypatch):
        class ArmedContext:
            span = None
            armed = False

            def interrupted(self):
                return "deadline" if self.armed else None

            def report_incumbent(self, *args, **kwargs):
                return True

        context = ArmedContext()
        original = label_search._weighted_minima

        def arming(*args):
            context.armed = True    # the next round's poll fires
            return original(*args)

        monkeypatch.setattr(label_search, "_weighted_minima", arming)
        dwg = build_assignment_graph(random_problem(
            n_processing=30, n_satellites=4, seed=0,
            sensor_scatter=1.0)).dwg
        result = LabelDominanceSearch().search(dwg, context=context)
        assert result.interrupted == "deadline" and result.found
        assert result.stats.labels_created == 0
        assert not result.stats.beam_certified
        assert result.ssb_weight == result.stats.beam_ssb

    def test_polyak_rounds_never_lower_the_root(self, monkeypatch):
        # the Polyak rounds keep the best weighting, so the root is never
        # below that of the multiplicative-weights rounds alone
        instances = [(n, k, scatter, seed, weighting)
                     for n, k, scatter, seed in PROBE_GRID
                     for weighting in self.WEIGHTINGS]
        instances += [(30, 4, 1.0, seed, SSBWeighting())
                      for seed in range(4)]
        lifted = 0
        for n, k, scatter, seed, weighting in instances:
            dwg = build_assignment_graph(random_problem(
                n_processing=n, n_satellites=k, seed=seed,
                sensor_scatter=scatter)).dwg
            order, packs, pots = out_packs(dwg, weighting)
            args = (order, packs, dwg.source, dwg.target, len(pots.colors),
                    weighting.lambda_s, weighting.lambda_b,
                    seed_bound(dwg, weighting))
            (_, _, _, root), _ = label_search._lagrange_bounds(*args)
            with monkeypatch.context() as patch:
                patch.setattr(label_search, "_POLYAK_ROUNDS", 0)
                (_, _, _, climbed), _ = label_search._lagrange_bounds(*args)
            assert root >= climbed
            lifted += root > climbed
        # aimed at the far seed bound, they still lift some roots
        assert lifted > 0

    def test_an_interrupted_polyak_round_skips_the_exact_pass(
            self, monkeypatch):
        class ArmedContext:
            span = None
            walks = 0

            def interrupted(self):
                # fires at the second Polyak round's poll
                if self.walks > label_search._LAGRANGE_ROUNDS:
                    return "deadline"
                return None

            def report_incumbent(self, *args, **kwargs):
                return True

        context = ArmedContext()
        original = label_search._weighted_minima

        def counting(*args):
            context.walks += 1
            return original(*args)

        monkeypatch.setattr(label_search, "_weighted_minima", counting)
        dwg = build_assignment_graph(random_problem(
            n_processing=30, n_satellites=4, seed=0,
            sensor_scatter=1.0)).dwg
        result = LabelDominanceSearch().search(dwg, context=context)
        # one Polyak round walked, and no mirror walk followed
        assert context.walks == label_search._LAGRANGE_ROUNDS + 1
        assert result.interrupted == "deadline" and result.found
        assert result.stats.labels_created == 0
        assert result.stats.exact_passes == 0
        assert not result.stats.beam_certified
        assert result.ssb_weight == result.stats.beam_ssb


#: The one-bound-family grid: n × k × scatter, each at three seeds under
#: every certificate weighting.
ONE_BOUND_GRID = [(n, k, scatter)
                  for n in (4, 6, 8, 10)
                  for k in (1, 2, 3, 4)
                  for scatter in (0.0, 0.5, 1.0)]
ONE_BOUND_SEEDS = (0, 1, 2)


class TestOneBoundFamily:
    """The sweep prunes with the per-colour bound and, once a weighting is
    picked, the Lagrangian w-bound — nothing else.  Checked by enumerating
    every S → T path: no prefix of a path that beats the bound is ever
    pruned.  (That the answer is brute force's, bit for bit, with the beam
    on and off, is ``TestBoundProbe.test_any_share_equals_brute_force``.)"""

    @staticmethod
    def instances(n, k, scatter, weighting):
        """``(dwg, [(SSB, edges)] over every S → T path)`` per seed."""
        measures = PathMeasures(weighting)
        for seed in ONE_BOUND_SEEDS:
            dwg = build_assignment_graph(random_problem(
                n_processing=n, n_satellites=k, seed=seed,
                sensor_scatter=scatter)).dwg
            yield dwg, [(measures.ssb_colored(Path.from_edges(edges)), edges)
                        for edges in all_paths(dwg, dwg.source, dwg.target)]

    @pytest.mark.parametrize("weighting", CERTIFICATE_WEIGHTINGS,
                             ids=["default", "convex3", "convex7"])
    @pytest.mark.parametrize("n, k, scatter", ONE_BOUND_GRID)
    def test_every_prefix_of_a_better_path_passes(self, n, k, scatter,
                                                  weighting):
        lam_s, lam_b = weighting.lambda_s, weighting.lambda_b
        for dwg, paths in self.instances(n, k, scatter, weighting):
            order, packs, pots = out_packs(dwg, weighting)
            dim = len(pots.colors)
            color_index = {c: i for i, c in enumerate(pots.colors)}
            # every prefix row of every path, keyed by the edge it extends
            # along: (σ, loads) summed in path order, as the sweep sums them
            rows = {}
            for ssb, edges in paths:
                s, loads = 0.0, np.zeros(dim)
                for edge in edges:
                    entry = rows.setdefault(edge.key, ([], [], []))
                    entry[0].append(s)
                    entry[1].append(loads.copy())
                    entry[2].append(ssb)
                    step_s, step_loads = accumulate([edge], color_index, dim)
                    s, loads = s + step_s, loads + step_loads
            rows = {key: (np.array(sig), np.array(lds).reshape(-1, dim),
                          np.array(ssbs))
                    for key, (sig, lds, ssbs) in rows.items()}
            # bounds halfway between neighbouring path SSBs: a prefix bound
            # sums σ and the loads in another order than the path's own
            # SSB and can sit an ulp above it, so a bound within rounding
            # of some path's SSB would test the summation order instead
            values = sorted({ssb for ssb, _ in paths})
            gaps = [(lo + hi) / 2 for lo, hi in zip(values, values[1:])
                    if hi - lo > 1e-9 * hi]
            # the three tightest, the loosest and none
            bounds = gaps[:3] + gaps[-1:] + [INF]
            tables = [(None, packs)]
            if dim > 1:
                (w, potw, _, _), _ = label_search._lagrange_bounds(
                    order, packs, dwg.source, dwg.target, dim, lam_s, lam_b,
                    seed_bound(dwg, weighting))
                tables.append((w, {node: [p[:6] + (potw[p[3]],) for p in ps]
                                   for node, ps in packs.items()}))
            for w, table in tables:
                checked = set()
                for node_packs in table.values():
                    for pack in node_packs:
                        if pack[0].key not in rows:
                            continue
                        checked.add(pack[0].key)
                        sig, lds, ssbs = rows[pack[0].key]
                        for bound in bounds:
                            keep = label_search._extend(
                                sig, lds, pack, bound, lam_s, lam_b, w)[4]
                            better = ssbs < bound
                            assert keep[better].all(), (pack[0].key, bound)
                            if pack[3] == dwg.target:
                                # the bound into the target is the path's
                                # SSB itself: exactly the better paths pass
                                assert (keep == better).all()
                assert checked == set(rows)


#: The probe grid: instances whose exact pass (beam off) picks a weighting.
PROBE_GRID = [(n, k, scatter, seed)
              for n in (8, 12, 16)
              for k in (2, 3, 4)
              for scatter in (0.5, 1.0)
              for seed in (0, 1)]


class TestBoundProbe:
    """The exact pass probes first at the midpoint between the Lagrangian
    root bound and the search's own incumbent: a path it finds is the
    optimum, an empty probe reruns the pass at the incumbent — the answer
    never moves.  A caller's incumbent is not probed below."""

    WEIGHTINGS = (SSBWeighting(), SSBWeighting.convex(0.3),
                  SSBWeighting.convex(0.7))

    @staticmethod
    def keys(result):
        return [edge.key for edge in result.path.edges]

    def test_share_one_runs_a_single_pass(self, monkeypatch):
        passes = set()
        for n, k, scatter, seed in PROBE_GRID:
            dwg = build_assignment_graph(random_problem(
                n_processing=n, n_satellites=k, seed=seed,
                sensor_scatter=scatter)).dwg
            for weighting in self.WEIGHTINGS:
                search = LabelDominanceSearch(weighting=weighting,
                                              beam_width=0)
                probed = search.search(dwg)
                with monkeypatch.context() as patch:
                    patch.setattr(label_search, "_PROBE_SHARE", 1.0)
                    single = search.search(dwg)
                assert single.stats.exact_passes == 1
                assert single.ssb_weight == probed.ssb_weight
                assert self.keys(single) == self.keys(probed)
                passes.add(probed.stats.exact_passes)
        # the grid holds probes that hit and probes that miss
        assert passes == {1, 2}

    def test_a_probe_at_the_optimum_misses(self, monkeypatch):
        dwg = build_assignment_graph(random_problem(
            n_processing=12, n_satellites=3, seed=0,
            sensor_scatter=1.0)).dwg
        search = LabelDominanceSearch(beam_width=0)
        with monkeypatch.context() as patch:
            patch.setattr(label_search, "_PROBE_SHARE", 1.0)
            single = search.search(dwg)
        optimum = single.ssb_weight
        probes = []

        def at_the_optimum(root, bound):
            probes.append((root, bound))
            return optimum

        monkeypatch.setattr(label_search, "_probe_bound", at_the_optimum)
        passes = spy(monkeypatch, "_bidir_blocks")
        result = search.search(dwg)
        ((root, bound),) = probes
        assert root <= optimum < bound
        # the pass keeps only labels strictly below its bound, so a probe
        # at the optimum finds nothing and the pass reruns at the incumbent
        assert result.stats.exact_passes == 2
        assert result.ssb_weight == optimum
        assert self.keys(result) == self.keys(single)
        # the stats cover both passes: counters add, the peak is the larger
        (probe_path, probe, _), (_, rerun, _) = passes
        assert probe_path is None and probe[0] > 0
        stats = result.stats
        assert (stats.labels_created, stats.labels_dominated,
                stats.settle_batches, stats.meet_edges) == tuple(
            a + b for a, b in zip((probe[0], probe[1], probe[5], probe[7]),
                                  (rerun[0], rerun[1], rerun[5], rerun[7])))
        assert stats.frontier_peak == max(probe[4], rerun[4])
        assert stats.labels_created > single.stats.labels_created

    def test_a_missed_probe_profiles_the_rerun(self, monkeypatch):
        dwg = build_assignment_graph(random_problem(
            n_processing=12, n_satellites=3, seed=0,
            sensor_scatter=1.0)).dwg
        search = LabelDominanceSearch(beam_width=0)
        optimum = search.search(dwg).ssb_weight
        monkeypatch.setattr(label_search, "_probe_bound",
                            lambda root, bound: optimum)
        passes = spy(monkeypatch, "_bidir_blocks")
        profile = search.search(dwg).stats.profile()
        (_, probe, _), (_, rerun, _) = passes
        # the profile says two passes ran, and its totals sum both
        assert profile["exact_passes"] == 2
        assert profile["labels_created"] == probe[0] + rerun[0]

    def test_a_callers_incumbent_is_not_probed_below(self, monkeypatch):
        # a warm start hands in the optimum: a probe below it would always
        # miss, so the pass runs once, at the caller's bound
        probes = []
        probe_bound = label_search._probe_bound

        def recorded(root, bound):
            probes.append(bound)
            return probe_bound(root, bound)

        monkeypatch.setattr(label_search, "_probe_bound", recorded)
        missed = 0
        for n, k, scatter, seed in PROBE_GRID:
            dwg = build_assignment_graph(random_problem(
                n_processing=n, n_satellites=k, seed=seed,
                sensor_scatter=scatter)).dwg
            for weighting in self.WEIGHTINGS:
                search = LabelDominanceSearch(weighting=weighting,
                                              beam_width=0)
                cold = search.search(dwg)
                missed += cold.stats.exact_passes == 2
                del probes[:]
                warm = search.search(dwg, incumbent=cold.ssb_weight)
                assert probes == []
                assert warm.stats.exact_passes == 1
                # the join's prefix + suffix sums can land an ulp below the
                # optimum, so the pass may re-find it — never beat it
                assert not warm.found or warm.ssb_weight == cold.ssb_weight
                # a weaker caller bound still gets the same optimum
                weak = search.search(
                    dwg, incumbent=cold.ssb_weight * (1.0 + 1e-9))
                assert weak.ssb_weight == cold.ssb_weight
                assert self.keys(weak) == self.keys(cold)
        # the cold grid's seed bounds were probed, and some probes missed
        assert missed > 0

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(min_value=3, max_value=9),
           k=st.integers(min_value=2, max_value=4),
           scatter=st.sampled_from([0.0, 0.5, 1.0]),
           seed=st.integers(min_value=0, max_value=10_000),
           weighting=st.sampled_from(range(3)),
           share=st.floats(min_value=0.0, max_value=1.0),
           width=st.sampled_from([0, 128]))
    def test_any_share_equals_brute_force(self, n, k, scatter, seed,
                                          weighting, share, width):
        dwg = build_assignment_graph(random_problem(
            n_processing=n, n_satellites=k, seed=seed,
            sensor_scatter=scatter)).dwg
        weighting = self.WEIGHTINGS[weighting]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(label_search, "_PROBE_SHARE", share)
            result = LabelDominanceSearch(weighting=weighting,
                                          beam_width=width).search(dwg)
        measures = PathMeasures(weighting)
        exhaustive = min(measures.ssb_colored(Path.from_edges(edges))
                         for edges in all_paths(dwg, dwg.source, dwg.target))
        assert result.ssb_weight == exhaustive
        assert measures.ssb_colored(result.path) == exhaustive
        # a certified beam runs no exact pass
        assert result.stats.exact_passes in ((1, 2) if width == 0
                                             else (0, 1, 2))


class TestMaskDeadline:
    """The dominance mask polls the deadline once per block: a clock that
    expires inside it stops the sweep there, with a feasible answer."""

    def test_deadline_inside_the_mask(self, monkeypatch):
        from repro.core.context import SolveContext

        now = [0.0]
        context = SolveContext(deadline_s=1.0, clock=lambda: now[0])
        calls = []
        original = label_search.pareto_block_mask

        def expiring(sig, lds, window=None, poll=None):
            assert not calls, "the sweep ran on after the deadline"
            full = original(sig, lds, window=window)
            if len(sig) > 512 and not full.all():
                polls = []

                def ticking():
                    polls.append(1)
                    if len(polls) == 2:
                        now[0] = 2.0    # expires after the first block
                    return poll()

                keep = original(sig, lds, window=window, poll=ticking)
                calls.append((keep, full, len(polls)))
                return keep
            return full

        monkeypatch.setattr(label_search, "pareto_block_mask", expiring)
        dwg = build_assignment_graph(random_problem(
            n_processing=50, n_satellites=4, seed=0,
            sensor_scatter=1.0)).dwg
        result = LabelDominanceSearch().search(dwg, context=context)
        ((keep, full, polls),) = calls
        # the second block's poll fired: the mask stopped after one block
        # and kept every row it had not checked — a superset of the
        # uninterrupted mask
        assert polls == 2
        assert (keep | full == keep).all() and keep.sum() > full.sum()
        assert result.interrupted == "deadline" and result.found
        edges = result.path.edges
        assert edges[0].tail == dwg.source and edges[-1].head == dwg.target
        for left, right in zip(edges, edges[1:]):
            assert left.head == right.tail
        assert result.ssb_weight == PathMeasures(
            SSBWeighting()).ssb_colored(result.path)


#: Scattered n=70 k=6: per seed, the optimum the exact label engine
#: returned before the Lagrangian w-bounds (via ``repro.solve``) and the
#: labels the search created with them, the completion-ranked beam, the
#: midpoint probe (both passes counted where the probe missed) and the
#: Polyak rounds of the ascent — the bounds that keep these seeds well
#: under a second.  Seed 0's count rose by one label when the joint
#: average-load bound was dropped; the others held.
TAIL_SEEDS = {
    0: (33.392875065103325, 7566),
    1: (33.77607380636956, 6672),
    2: (31.94680358739864, 4661),
    3: (35.2526632636891, 2958),
    4: (34.66706815064406, 13379),
    5: (33.08542749345493, 23000),
}


@pytest.mark.slow
class TestScatteredTail:
    """The n=70 tail stays fast: same optima, no more labels."""

    @pytest.mark.parametrize("seed", sorted(TAIL_SEEDS))
    def test_optimum_and_label_cap(self, seed):
        import repro

        objective, created_cap = TAIL_SEEDS[seed]
        problem = random_problem(n_processing=70, n_satellites=6, seed=seed,
                                 sensor_scatter=1.0)
        result = repro.solve(problem, method="colored-ssb-labels")
        assert result.status == "optimal"
        assert result.objective == objective
        assert result.details["profile"]["labels_created"] <= created_cap
