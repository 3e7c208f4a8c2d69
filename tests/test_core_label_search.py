"""Property and unit tests for the label-dominance search engine.

The randomized suites assert the engine's defining property: its optimum is
*bit-identical* (same float, not approximately equal) to brute force and to
the Yen-enumeration finisher on every instance both can finish — including
the scattered-sensor regime the engine was built for.
"""

import pytest

from repro.baselines import brute_force_assignment
from repro.baselines.pareto_dp import pareto_dp_pruned_assignment
from repro.core.assignment_graph import build_assignment_graph
from repro.core.colored_ssb import ColoredSSBSearch
from repro.core.dwg import DoublyWeightedGraph, PathMeasures, SSBWeighting
from repro.core.label_search import (
    LabelDominanceSearch,
    find_optimal_colored_ssb_path_labels,
)
from repro.graphs.dag import DagIndex
from repro.graphs.dag import NotADagError
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
        # must agree with the Pareto-DP exact reference there
        from repro.baselines import pareto_dp_assignment

        problem = random_problem(n_processing=20, n_satellites=4, seed=seed,
                                 sensor_scatter=1.0)
        graph = build_assignment_graph(problem)
        result = ColoredSSBSearch(keep_trace=False).search(graph.dwg)
        dp, _ = pareto_dp_assignment(problem)
        assert result.ssb_weight == pytest.approx(dp.end_to_end_delay(), abs=1e-9)


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

    def test_source_potentials_are_exact_minima(self, monkeypatch):
        # the source-side duals of the completion bounds: per node, the
        # minimum over every S → v path of σ, of the joint average and of
        # each colour's weighted load
        potentials = spy(monkeypatch, "_source_potentials")
        problem = random_problem(n_processing=7, n_satellites=3, seed=4,
                                 sensor_scatter=1.0)
        dwg = build_assignment_graph(problem).dwg
        weighting = SSBWeighting.convex(0.3)
        LabelDominanceSearch(weighting=weighting, beam_width=0).search(dwg)
        (spot, spotj, spotjc), = potentials
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
