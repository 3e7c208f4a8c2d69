"""Unit tests for the DAG primitives (single-pass paths, potentials, DagIndex)."""

import pytest

from repro.graphs.dag import (
    DagIndex,
    NotADagError,
    dag_shortest_path,
    min_weight_to_target,
)
from repro.graphs.digraph import DiGraph
from repro.graphs.dijkstra import shortest_path, shortest_path_length
from repro.workloads.generators import random_dwg
from repro.core.dwg import SIGMA_ATTR


def diamond():
    g = DiGraph()
    g.add_edge("S", "A", weight=1.0)
    g.add_edge("S", "B", weight=4.0)
    g.add_edge("A", "T", weight=5.0)
    g.add_edge("B", "T", weight=1.0)
    return g


class TestDagShortestPath:
    def test_matches_dijkstra_on_random_dags(self):
        for seed in range(10):
            dwg = random_dwg(n_nodes=9, extra_edges=12, seed=seed)
            reference = shortest_path(dwg.graph, dwg.source, dwg.target, weight=SIGMA_ATTR)
            result = dag_shortest_path(dwg.graph, dwg.source, dwg.target, weight=SIGMA_ATTR)
            assert result is not None
            assert result.total(lambda e: e[SIGMA_ATTR]) == pytest.approx(
                reference.total(lambda e: e[SIGMA_ATTR]))

    def test_diamond(self):
        path = dag_shortest_path(diamond(), "S", "T")
        assert [e.head for e in path.edges] == ["B", "T"]

    def test_unreachable_returns_none(self):
        g = DiGraph()
        g.add_edge("S", "A", weight=1.0)
        g.add_node("T")
        assert dag_shortest_path(g, "S", "T") is None

    def test_missing_nodes_return_none(self):
        assert dag_shortest_path(diamond(), "S", "missing") is None

    def test_source_equals_target(self):
        g = diamond()
        path = dag_shortest_path(g, "S", "S")
        assert path.edges == ()

    def test_cycle_raises(self):
        g = DiGraph()
        g.add_edge("a", "b", weight=1.0)
        g.add_edge("b", "a", weight=1.0)
        with pytest.raises(NotADagError):
            dag_shortest_path(g, "a", "b")


class TestMinWeightToTarget:
    def test_matches_forward_dijkstra(self):
        for seed in range(6):
            dwg = random_dwg(n_nodes=8, extra_edges=10, seed=seed)
            pot = min_weight_to_target(dwg.graph, dwg.target, weight=SIGMA_ATTR)
            for node in dwg.graph.nodes():
                expected = shortest_path_length(dwg.graph, node, dwg.target,
                                                weight=SIGMA_ATTR)
                if expected is None:
                    assert node not in pot
                else:
                    assert pot[node] == pytest.approx(expected)

    def test_unreachable_nodes_absent(self):
        g = DiGraph()
        g.add_edge("S", "T", weight=1.0)
        g.add_edge("T", "X", weight=1.0)  # X is beyond the target
        pot = min_weight_to_target(g, "T")
        assert "X" not in pot
        assert pot["T"] == 0.0


class TestDagIndex:
    def test_is_dag_and_order(self):
        index = DagIndex(diamond())
        assert index.is_dag()
        order = index.order()
        assert order.index("S") < order.index("A") < order.index("T")

    def test_cycle_detected(self):
        g = DiGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        index = DagIndex(g)
        assert not index.is_dag()
        with pytest.raises(NotADagError):
            index.order()

    def test_reachability_queries(self):
        g = diamond()
        index = DagIndex(g)
        assert index.reachable_from("A") == {"A", "T"}
        assert index.reachable_to("A") == {"A", "S"}

    def test_caches_are_reused_until_mutation(self):
        g = diamond()
        index = DagIndex(g)
        first = index.reachable_from("S")
        assert index.reachable_from("S") is first  # same object: cache hit
        order_before = index.order()
        assert index.order() is order_before

    def test_mutation_invalidates_caches(self):
        g = diamond()
        index = DagIndex(g)
        assert index.reachable_from("A") == {"A", "T"}
        edge = [e for e in g.edges() if e.tail == "A"][0]
        g.remove_edge(edge.key)
        assert index.reachable_from("A") == {"A"}
        g.add_edge("A", "B", weight=1.0)
        assert index.reachable_from("A") == {"A", "B", "T"}

    def test_shortest_path_uses_cached_order(self):
        index = DagIndex(diamond())
        path = index.shortest_path("S", "T")
        assert path.total(lambda e: e["weight"]) == pytest.approx(5.0)


class TestDiGraphVersion:
    def test_version_counts_structural_mutations(self):
        g = DiGraph()
        v0 = g.version
        g.add_node("a")
        assert g.version == v0 + 1
        g.add_node("a")  # already present: no change
        assert g.version == v0 + 1
        edge = g.add_edge("a", "b")
        assert g.version > v0 + 1
        before = g.version
        g.remove_edge(edge.key)
        assert g.version == before + 1
