"""Unit tests for the coloured assignment graph construction (paper §5.2)."""

import pytest

from repro.core.assignment import Assignment
from repro.core.assignment_graph import AssignmentGraphError, build_assignment_graph
from repro.core.dwg import DoublyWeightedGraph, PathMeasures, SIGMA_ATTR
from repro.graphs.connectivity import is_dag
from repro.graphs.dijkstra import shortest_path
from repro.graphs.kshortest import iter_paths_by_weight
from repro.model import CRU, CRUTree, ExecutionProfile, Host, HostSatelliteSystem, Satellite
from repro.model.problem import AssignmentProblem
from repro.workloads import paper_example_problem, random_problem
from repro.baselines.brute_force import count_feasible_assignments


class TestStructure:
    def test_faces_count_is_leaves_plus_one(self, paper_problem):
        graph = build_assignment_graph(paper_problem)
        assert graph.num_faces == len(paper_problem.tree.sensor_ids()) + 1

    def test_one_edge_per_non_conflicted_tree_edge(self, paper_problem):
        graph = build_assignment_graph(paper_problem)
        conflicted = len(graph.colored_tree.conflicted_edges())
        assert graph.number_of_edges() == len(paper_problem.tree.edges()) - conflicted

    def test_graph_is_a_dag(self, paper_problem):
        graph = build_assignment_graph(paper_problem)
        assert is_dag(graph.dwg.graph)

    def test_edges_advance_the_face_index(self, paper_problem):
        graph = build_assignment_graph(paper_problem)
        for edge in graph.dwg.edges():
            assert edge.tail < edge.head

    def test_edges_inherit_the_tree_edge_colour(self, paper_problem):
        graph = build_assignment_graph(paper_problem)
        for edge in graph.dwg.edges():
            parent, child = graph.tree_edge_of(edge)
            expected = graph.colored_tree.edge_color(parent, child)
            assert DoublyWeightedGraph.colors(edge) == (expected,)

    def test_edge_lookup_by_tree_edge(self, paper_problem):
        graph = build_assignment_graph(paper_problem)
        edge = graph.edge_for_tree_edge("CRU2", "CRU4")
        assert graph.satellite_of(edge) == "R"
        with pytest.raises(KeyError):
            graph.edge_for_tree_edge("CRU1", "CRU2")   # conflicted, not in graph

    def test_labels_match_the_labeling_module(self, paper_problem):
        from repro.core.labeling import label_assignment_graph

        sigma_labels, beta_labels = label_assignment_graph(paper_problem)
        graph = build_assignment_graph(paper_problem)
        for edge in graph.dwg.edges():
            tree_edge = graph.tree_edge_of(edge)
            assert DoublyWeightedGraph.sigma(edge) == pytest.approx(sigma_labels[tree_edge])
            assert DoublyWeightedGraph.beta(edge) == pytest.approx(beta_labels[tree_edge])

    def test_rejects_processing_leaves(self):
        tree = CRUTree(CRU("root"))
        tree.add_processing("root", "dangling")
        tree.add_sensor("root", "s1")
        system = HostSatelliteSystem(Host())
        system.add_satellite(Satellite("sat"))
        problem = AssignmentProblem(tree=tree, system=system,
                                    sensor_attachment={"s1": "sat"},
                                    profile=ExecutionProfile())
        with pytest.raises(AssignmentGraphError, match="must be a sensor"):
            build_assignment_graph(problem)


class TestPathCutBijection:
    def test_path_count_equals_feasible_assignment_count(self, paper_problem):
        graph = build_assignment_graph(paper_problem)
        paths = list(iter_paths_by_weight(graph.dwg.graph, graph.dwg.source,
                                          graph.dwg.target, weight=SIGMA_ATTR))
        assert len(paths) == count_feasible_assignments(paper_problem)

    @pytest.mark.parametrize("seed", range(4))
    def test_path_count_on_random_instances(self, seed):
        problem = random_problem(n_processing=7, n_satellites=3, seed=seed,
                                 sensor_scatter=0.4)
        graph = build_assignment_graph(problem)
        paths = list(iter_paths_by_weight(graph.dwg.graph, graph.dwg.source,
                                          graph.dwg.target, weight=SIGMA_ATTR))
        assert len(paths) == count_feasible_assignments(problem)

    def test_every_path_maps_to_a_feasible_assignment(self, paper_problem):
        graph = build_assignment_graph(paper_problem)
        for path in iter_paths_by_weight(graph.dwg.graph, graph.dwg.source,
                                         graph.dwg.target, weight=SIGMA_ATTR):
            assignment = graph.path_to_assignment(path)
            assert assignment.is_feasible()

    def test_path_weights_equal_assignment_costs(self, paper_problem):
        graph = build_assignment_graph(paper_problem)
        for path in iter_paths_by_weight(graph.dwg.graph, graph.dwg.source,
                                         graph.dwg.target, weight=SIGMA_ATTR):
            assignment = graph.path_to_assignment(path)
            assert PathMeasures.s_weight(path) == pytest.approx(assignment.host_load())
            assert PathMeasures.b_weight_colored(path) == pytest.approx(
                assignment.max_satellite_load())

    def test_assignment_to_path_round_trip(self, paper_problem):
        graph = build_assignment_graph(paper_problem)
        path = shortest_path(graph.dwg.graph, graph.dwg.source, graph.dwg.target,
                             weight=SIGMA_ATTR)
        assignment = graph.path_to_assignment(path)
        back = graph.assignment_to_path(assignment)
        assert {graph.tree_edge_of(e) for e in back.edges} == \
            {graph.tree_edge_of(e) for e in path.edges}

    def test_per_colour_loads_equal_per_satellite_loads(self, paper_problem):
        graph = build_assignment_graph(paper_problem)
        path = shortest_path(graph.dwg.graph, graph.dwg.source, graph.dwg.target,
                             weight=SIGMA_ATTR)
        assignment = graph.path_to_assignment(path)
        loads = PathMeasures.color_loads(path)
        for satellite_id, load in assignment.satellite_loads().items():
            color = paper_problem.color_of_satellite(satellite_id)
            assert loads.get(color, 0.0) == pytest.approx(load)


# --------------------------------------------------------------------------
# The one-pass build against a reference assembled from the public pieces
# --------------------------------------------------------------------------
def _reference_edges(problem):
    """``(key, tail, head, data)`` per edge, from the per-edge public maps."""
    from repro.core.coloring import color_tree
    from repro.core.labeling import label_assignment_graph

    colored = color_tree(problem)
    sigma_labels, beta_labels = label_assignment_graph(problem)
    intervals = problem.tree.tree.leaf_intervals()
    rows = []
    for parent, child in problem.tree.edges():
        coloring = colored.edge_coloring(parent, child)
        if coloring.is_conflicted:
            continue
        lo, hi = intervals[child]
        data = {"sigma": float(sigma_labels[(parent, child)]),
                "beta": {coloring.color: float(beta_labels[(parent, child)])},
                "colors": (coloring.color,),
                "tree_edge": (parent, child),
                "satellite": coloring.satellite_id,
                "leaf_interval": (lo, hi)}
        rows.append((len(rows), lo - 1, hi, data))
    return rows


def _reference_features(problem):
    """The schedule features from a plain ``tree.preorder()`` walk."""
    tree = problem.tree
    sensor_colors, max_branching, n_processing = [], 0, 0
    for cru_id in tree.preorder():
        if tree.cru(cru_id).is_sensor:
            satellite = problem.correspondent_satellite(cru_id)
            if satellite is not None:
                sensor_colors.append(satellite)
        else:
            n_processing += 1
        max_branching = max(max_branching, len(tree.children_ids(cru_id)))
    runs, counts, previous = {}, {}, None
    for color in sensor_colors:
        counts[color] = counts.get(color, 0) + 1
        if color != previous:
            runs[color] = runs.get(color, 0) + 1
        previous = color
    ratios = [(runs[c] - 1) / (counts[c] - 1) for c in counts if counts[c] > 1]
    return {
        "n_processing": n_processing,
        "n_satellites": len(problem.system.satellite_ids()),
        "n_sensors": len(sensor_colors),
        "scatter_ratio": sum(ratios) / len(ratios) if ratios else 0.0,
        "max_branching": max_branching,
        "star_width": max_branching / max(1, n_processing),
    }


def _sensors_under_root_problem():
    """Sensors wired straight to the root, between processing branches."""
    tree = CRUTree(CRU("root"))
    tree.add_sensor("root", "s0")
    tree.add_processing("root", "a")
    tree.add_sensor("a", "s1")
    tree.add_sensor("a", "s2")
    tree.add_sensor("root", "s3")
    tree.add_processing("root", "b")
    tree.add_processing("b", "c")
    tree.add_sensor("c", "s4")
    tree.add_sensor("root", "s5")
    system = HostSatelliteSystem(Host())
    for sid in ("x", "y"):
        system.add_satellite(Satellite(sid))
    attachment = {"s0": "x", "s1": "x", "s2": "y", "s3": "y", "s4": "y", "s5": "x"}
    profile = ExecutionProfile()
    for i, cru_id in enumerate(("root", "a", "b", "c")):
        profile.set_times(cru_id, 0.5 + i, 1.5 + 2 * i)
    return AssignmentProblem(tree=tree, system=system,
                             sensor_attachment=attachment, profile=profile)


def _one_pass_cases():
    cases = [("paper", paper_example_problem()),
             ("sensors-under-root", _sensors_under_root_problem()),
             ("wide-star", random_problem(n_processing=30, n_satellites=4, seed=7,
                                          max_children=64, sensor_scatter=0.5))]
    for n in (4, 10, 17, 25, 40):
        for k in (1, 2, 3, 6):
            for scatter in (0.0, 0.5, 1.0):
                cases.append((f"n{n}-k{k}-s{scatter}",
                              random_problem(n_processing=n, n_satellites=k,
                                             seed=n * 31 + k, sensor_scatter=scatter)))
    return cases


_ONE_PASS_CASES = _one_pass_cases()


class TestOnePassBuild:
    """The pre-order build equals the per-edge construction it replaced."""

    @pytest.mark.parametrize("name, problem", _ONE_PASS_CASES,
                             ids=[name for name, _ in _ONE_PASS_CASES])
    def test_edges_match_the_reference(self, name, problem):
        graph = build_assignment_graph(problem)
        built = [(e.key, e.tail, e.head, e.data) for e in graph.dwg.edges()]
        assert built == _reference_edges(problem)
        for _, _, _, data in built:
            assert list(data) == ["sigma", "beta", "colors", "tree_edge",
                                  "satellite", "leaf_interval"]
        leaves = problem.tree.tree.leaves()
        assert graph.leaf_positions == {leaf: i + 1 for i, leaf in enumerate(leaves)}
        assert graph.num_faces == len(leaves) + 1
        assert graph.dwg.graph.nodes() == [0, len(leaves)] + list(range(1, len(leaves)))

    def test_the_grid_has_conflicted_edges(self):
        from repro.core.coloring import color_tree

        conflicted = sum(len(color_tree(p).conflicted_edges())
                         for _, p in _ONE_PASS_CASES)
        assert conflicted > 0

    @pytest.mark.parametrize("name, problem", _ONE_PASS_CASES[:6],
                             ids=[name for name, _ in _ONE_PASS_CASES[:6]])
    def test_lazy_colouring_equals_color_tree(self, name, problem):
        from repro.core.coloring import color_tree

        graph = build_assignment_graph(problem)
        assert graph._colored_tree is None       # not built until asked for
        lazy, eager = graph.colored_tree, color_tree(problem)
        assert graph.colored_tree is lazy
        assert lazy.colorings() == eager.colorings()
        assert lazy.forced_host_crus() == eager.forced_host_crus()

    def test_a_passed_colouring_is_kept(self, paper_problem):
        from repro.core.coloring import color_tree

        colored = color_tree(paper_problem)
        assert build_assignment_graph(paper_problem, colored).colored_tree is colored

    def test_unvalidated_negative_costs_raise(self):
        from repro.core.solver import solve

        problem = random_problem(n_processing=8, n_satellites=2, seed=3,
                                 sensor_scatter=0.0)
        graph = build_assignment_graph(problem)
        edge = next(e for e in graph.dwg.edges()
                    if problem.tree.cru(graph.tree_edge_of(e)[1]).is_processing)
        problem.profile._sat[graph.tree_edge_of(edge)[1]] = -100.0
        with pytest.raises(ValueError, match="beta weight must be non-negative"):
            solve(problem, method="colored-ssb-labels", validate=False)

        problem = random_problem(n_processing=8, n_satellites=2, seed=3,
                                 sensor_scatter=0.0)
        graph = build_assignment_graph(problem)
        edge = next(e for e in graph.dwg.edges() if DoublyWeightedGraph.sigma(e) > 0)
        problem.profile._host[graph.tree_edge_of(edge)[0]] = -100.0
        with pytest.raises(ValueError, match="sigma weight must be non-negative"):
            solve(problem, method="colored-ssb-labels", validate=False)

    @pytest.mark.parametrize("name, problem", _ONE_PASS_CASES,
                             ids=[name for name, _ in _ONE_PASS_CASES])
    def test_instance_features_match_a_preorder_walk(self, name, problem):
        from repro.core.portfolio import instance_features

        assert instance_features(problem) == _reference_features(problem)
