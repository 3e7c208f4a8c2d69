"""Unit tests for rooted ordered trees."""

import random

import pytest

from repro.graphs import RootedTree
from repro.model.cru import CRU, SENSOR_KIND, CRUTree


def sample_tree():
    """
        r
        |- a
        |   |- a1
        |   `- a2
        `- b
            `- b1
    """
    t = RootedTree("r")
    t.add_child("r", "a")
    t.add_child("r", "b")
    t.add_child("a", "a1")
    t.add_child("a", "a2")
    t.add_child("b", "b1")
    return t


class TestStructure:
    def test_parent_and_children(self):
        t = sample_tree()
        assert t.parent("a1") == "a"
        assert t.parent("r") is None
        assert t.children("r") == ["a", "b"]

    def test_add_child_with_index(self):
        t = sample_tree()
        t.add_child("r", "c", index=0)
        assert t.children("r") == ["c", "a", "b"]

    def test_duplicate_node_raises(self):
        t = sample_tree()
        with pytest.raises(ValueError):
            t.add_child("r", "a")

    def test_unknown_parent_raises(self):
        t = sample_tree()
        with pytest.raises(KeyError):
            t.add_child("zzz", "new")

    def test_leaves_in_dfs_order(self):
        assert sample_tree().leaves() == ["a1", "a2", "b1"]

    def test_is_leaf(self):
        t = sample_tree()
        assert t.is_leaf("a1") and not t.is_leaf("a")

    def test_edges(self):
        t = sample_tree()
        assert ("r", "a") in t.edges() and ("a", "a2") in t.edges()
        assert len(t.edges()) == 5

    def test_depth_and_height(self):
        t = sample_tree()
        assert t.depth("r") == 0
        assert t.depth("a1") == 2
        assert t.height() == 2

    def test_len_and_contains(self):
        t = sample_tree()
        assert len(t) == 6
        assert "b1" in t and "zzz" not in t


class TestTraversals:
    def test_preorder(self):
        assert list(sample_tree().preorder()) == ["r", "a", "a1", "a2", "b", "b1"]

    def test_postorder(self):
        assert list(sample_tree().postorder()) == ["a1", "a2", "a", "b1", "b", "r"]

    def test_subtree_nodes(self):
        assert sample_tree().subtree_nodes("a") == ["a", "a1", "a2"]

    def test_ancestors(self):
        t = sample_tree()
        assert t.ancestors("a1") == ["a", "r"]
        assert t.ancestors("a1", include_self=True) == ["a1", "a", "r"]

    def test_lca(self):
        t = sample_tree()
        assert t.lca("a1", "a2") == "a"
        assert t.lca("a1", "b1") == "r"
        assert t.lca("a", "a1") == "a"


class TestLeafIntervals:
    def test_leaf_order(self):
        assert sample_tree().leaf_order() == {"a1": 1, "a2": 2, "b1": 3}

    def test_leaf_intervals(self):
        intervals = sample_tree().leaf_intervals()
        assert intervals["a1"] == (1, 1)
        assert intervals["a"] == (1, 2)
        assert intervals["b"] == (3, 3)
        assert intervals["r"] == (1, 3)

    def test_sibling_intervals_are_disjoint_and_contiguous(self):
        t = sample_tree()
        intervals = t.leaf_intervals()
        for node in t.nodes():
            children = t.children(node)
            if len(children) < 2:
                continue
            for left, right in zip(children, children[1:]):
                assert intervals[left][1] + 1 == intervals[right][0]


class TestMisc:
    def test_leftmost_child(self):
        t = sample_tree()
        assert t.leftmost_child("r") == "a"
        assert t.leftmost_child("a1") is None

    def test_is_leftmost_child(self):
        t = sample_tree()
        assert t.is_leftmost_child("a")
        assert not t.is_leftmost_child("b")
        assert not t.is_leftmost_child("r")

    def test_validate_passes(self):
        sample_tree().validate()

    def test_ascii_contains_all_nodes(self):
        art = sample_tree().to_ascii()
        for node in sample_tree().nodes():
            assert str(node) in art


def generator_preorder(tree, start=None):
    """Test-local copy of the stack walk the topology index replaced."""
    stack = [tree.root if start is None else start]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(tree.children(node)))


def random_tree(rng, n):
    tree = RootedTree(0)
    for node in range(1, n):
        parent = rng.randrange(node)
        siblings = len(tree.children(parent))
        tree.add_child(parent, node, index=rng.randint(0, siblings))
    return tree


def assert_matches_walk(tree):
    walk = list(generator_preorder(tree))
    assert list(tree.preorder()) == walk
    assert tree.nodes() == walk
    assert tree.edges() == [(tree.parent(n), n) for n in walk if n != tree.root]
    assert tree.leaves() == [n for n in walk if tree.is_leaf(n)]
    for node in walk:
        sub = list(generator_preorder(tree, node))
        assert list(tree.preorder(node)) == sub
        assert tree.subtree_nodes(node) == sub


class TestTopologyIndex:
    """The cached index answers exactly what the generator walk did."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_generator_walk(self, seed):
        rng = random.Random(seed)
        assert_matches_walk(random_tree(rng, rng.randint(1, 40)))

    @pytest.mark.parametrize("seed", range(8))
    def test_add_child_after_a_walk_is_seen(self, seed):
        rng = random.Random(100 + seed)
        tree = random_tree(rng, rng.randint(2, 25))
        assert_matches_walk(tree)
        nodes = tree.nodes()
        for new in range(1000, 1006):
            parent = rng.choice(nodes)
            if new % 2:
                tree.add_child(parent, new)
            else:
                tree.add_child(parent, new, index=0)
            nodes.append(new)
            assert_matches_walk(tree)

    def test_returned_lists_are_copies(self):
        t = sample_tree()
        t.nodes().append("x")
        t.subtree_nodes("r").clear()
        t.edges().clear()
        assert list(t.preorder()) == ["r", "a", "a1", "a2", "b", "b1"]
        assert t.subtree_nodes("a") == ["a", "a1", "a2"]

    def test_cru_tree_add_cru_is_seen(self):
        tree = CRUTree(CRU("root"))
        tree.add_processing("root", "p1")
        tree.add_sensor("p1", "s1")
        assert tree.cru_ids() == ["root", "p1", "s1"]
        assert tree.processing_ids() == ["root", "p1"]
        tree.add_cru("root", CRU("p0"), index=0)
        tree.add_cru("p0", CRU("s0", SENSOR_KIND))
        tree.add_sensor("p1", "s2")
        walk = list(generator_preorder(tree.tree))
        assert walk == ["root", "p0", "s0", "p1", "s1", "s2"]
        assert tree.cru_ids() == walk
        assert tree.processing_ids() == ["root", "p0", "p1"]
        assert tree.sensor_ids() == ["s0", "s1", "s2"]
        assert tree.subtree_ids("p1") == ["p1", "s1", "s2"]
        assert tree.edges() == [("root", "p0"), ("p0", "s0"), ("root", "p1"),
                                ("p1", "s1"), ("p1", "s2")]
