"""Rooted ordered trees.

The CRU tree is a rooted tree whose children have a left-to-right order (the
paper's constructions — the pre-order σ labelling of Figure 8 and the
planar-dual assignment graph of Figure 6 — depend on that order).  This module
provides the ordered-tree machinery the core package builds on:

* parent/children bookkeeping with explicit child order,
* pre-order / post-order traversals, the pre-order served from a cached
  topology index (order, positions, subtree sizes) built on first use and
  dropped by the only mutator, :meth:`RootedTree.add_child`,
* lowest common ancestors,
* the DFS leaf order and the *leaf interval* covered by every node, which is
  how the assignment (dual) graph is constructed without a geometric planar
  embedding: a tree edge whose subtree covers leaves ``i..j`` separates face
  ``i-1`` from face ``j``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

Node = Hashable


class RootedTree:
    """A rooted tree with ordered children.

    Nodes are arbitrary hashable identifiers.  The tree is built by adding the
    root first and then adding children under existing parents; the insertion
    order of children defines the left-to-right order.
    """

    def __init__(self, root: Node) -> None:
        self._root = root
        self._children: Dict[Node, List[Node]] = {root: []}
        self._parent: Dict[Node, Optional[Node]] = {root: None}
        # (pre-order list, node -> position, subtree size per position)
        self._topology: Optional[Tuple[List[Node], Dict[Node, int], List[int]]] = None

    # ---------------------------------------------------------------- build
    @property
    def root(self) -> Node:
        return self._root

    def add_child(self, parent: Node, child: Node, index: Optional[int] = None) -> Node:
        """Attach ``child`` under ``parent``.

        ``index`` optionally positions the child among its siblings; by
        default the child becomes the new rightmost sibling.
        """
        if parent not in self._children:
            raise KeyError(f"parent {parent!r} not in tree")
        if child in self._children:
            raise ValueError(f"node {child!r} already in tree")
        self._children[child] = []
        self._parent[child] = parent
        if index is None:
            self._children[parent].append(child)
        else:
            self._children[parent].insert(index, child)
        self._topology = None
        return child

    # --------------------------------------------------------------- queries
    def nodes(self) -> List[Node]:
        return list(self.preorder())

    def has_node(self, node: Node) -> bool:
        return node in self._children

    def parent(self, node: Node) -> Optional[Node]:
        return self._parent[node]

    def children(self, node: Node) -> List[Node]:
        return list(self._children[node])

    def is_leaf(self, node: Node) -> bool:
        return not self._children[node]

    def leaves(self) -> List[Node]:
        """Leaves in DFS (left-to-right) order."""
        children = self._children
        return [n for n in self.preorder_index()[0] if not children[n]]

    def number_of_nodes(self) -> int:
        return len(self._children)

    def edges(self) -> List[Tuple[Node, Node]]:
        """All (parent, child) pairs in pre-order of the child."""
        parent = self._parent
        return [(parent[n], n) for n in self.preorder_index()[0][1:]]

    def depth(self, node: Node) -> int:
        d = 0
        cur = node
        while self._parent[cur] is not None:
            cur = self._parent[cur]
            d += 1
        return d

    def height(self) -> int:
        """Longest root-to-leaf edge count."""
        return max((self.depth(leaf) for leaf in self.leaves()), default=0)

    # ------------------------------------------------------------ traversals
    def preorder_index(self) -> Tuple[List[Node], Dict[Node, int], List[int]]:
        """The topology index: pre-order list, positions and subtree sizes.

        Built by one walk on first use after a mutation.  A subtree is the
        contiguous pre-order slice ``order[pos : pos + size]``.
        """
        index = self._topology
        if index is None:
            children = self._children
            order: List[Node] = []
            stack = [self._root]
            while stack:
                node = stack.pop()
                order.append(node)
                stack.extend(reversed(children[node]))
            pos = {node: i for i, node in enumerate(order)}
            size = [1] * len(order)
            parent = self._parent
            for i in range(len(order) - 1, 0, -1):
                size[pos[parent[order[i]]]] += size[i]
            index = self._topology = (order, pos, size)
        return index

    def preorder(self, start: Optional[Node] = None) -> Iterator[Node]:
        """Pre-order traversal (node before its children, children in order)."""
        order, pos, size = self.preorder_index()
        if start is None:
            return iter(order)
        i = pos[start]
        return iter(order[i:i + size[i]])

    def postorder(self, start: Optional[Node] = None) -> Iterator[Node]:
        """Post-order traversal (children before node)."""
        start = self._root if start is None else start
        out: List[Node] = []
        stack = [start]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(self._children[node])
        return iter(reversed(out))

    def subtree_nodes(self, node: Node) -> List[Node]:
        """All nodes of the subtree rooted at ``node`` (including ``node``)."""
        order, pos, size = self.preorder_index()
        i = pos[node]
        return order[i:i + size[i]]

    def ancestors(self, node: Node, include_self: bool = False) -> List[Node]:
        """Ancestors from parent up to the root (optionally prefixed by node)."""
        out: List[Node] = [node] if include_self else []
        cur = self._parent[node]
        while cur is not None:
            out.append(cur)
            cur = self._parent[cur]
        return out

    def path_to_root(self, node: Node) -> List[Node]:
        return self.ancestors(node, include_self=True)

    def lca(self, a: Node, b: Node) -> Node:
        """Lowest common ancestor of ``a`` and ``b``."""
        anc_a = self.path_to_root(a)
        set_a = set(anc_a)
        cur = b
        while cur not in set_a:
            parent = self._parent[cur]
            if parent is None:
                break
            cur = parent
        if cur not in set_a:
            raise ValueError("nodes do not share an ancestor (corrupt tree)")
        return cur

    # --------------------------------------------------------- leaf intervals
    def leaf_order(self) -> Dict[Node, int]:
        """Map leaf -> position (1-based) in DFS left-to-right order."""
        return {leaf: i + 1 for i, leaf in enumerate(self.leaves())}

    def leaf_intervals(self) -> Dict[Node, Tuple[int, int]]:
        """Map every node to the 1-based inclusive interval of leaf positions
        covered by its subtree.

        A leaf maps to ``(pos, pos)``.  Intervals of siblings are disjoint and
        contiguous in left-to-right order, which is what makes the interval
        dual construction of the assignment graph exact.
        """
        order = self.leaf_order()
        interval: Dict[Node, Tuple[int, int]] = {}
        for node in self.postorder():
            if self.is_leaf(node):
                interval[node] = (order[node], order[node])
            else:
                children = self._children[node]
                lo = min(interval[c][0] for c in children)
                hi = max(interval[c][1] for c in children)
                interval[node] = (lo, hi)
        return interval

    # ----------------------------------------------------------------- misc
    def leftmost_child(self, node: Node) -> Optional[Node]:
        children = self._children[node]
        return children[0] if children else None

    def is_leftmost_child(self, node: Node) -> bool:
        parent = self._parent[node]
        if parent is None:
            return False
        return self._children[parent][0] == node

    def validate(self) -> None:
        """Raise ``ValueError`` if the structure is inconsistent."""
        seen = set()
        for node in self.preorder():
            if node in seen:
                raise ValueError(f"node {node!r} reachable twice; not a tree")
            seen.add(node)
        if seen != set(self._children):
            missing = set(self._children) - seen
            raise ValueError(f"nodes not reachable from the root: {missing!r}")
        for child, parent in self._parent.items():
            if parent is not None and child not in self._children[parent]:
                raise ValueError(f"parent pointer of {child!r} inconsistent with child list")

    def to_ascii(self) -> str:
        """Small ASCII rendering used by the CLI and examples."""
        lines: List[str] = []

        def rec(node: Node, prefix: str, is_last: bool) -> None:
            connector = "`-- " if is_last else "|-- "
            if node == self._root:
                lines.append(str(node))
            else:
                lines.append(prefix + connector + str(node))
            children = self._children[node]
            for i, child in enumerate(children):
                if node == self._root:
                    new_prefix = ""
                else:
                    new_prefix = prefix + ("    " if is_last else "|   ")
                rec(child, new_prefix, i == len(children) - 1)

        rec(self._root, "", True)
        return "\n".join(lines)

    def __contains__(self, node: Node) -> bool:
        return node in self._children

    def __len__(self) -> int:
        return len(self._children)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RootedTree(root={self._root!r}, n={len(self._children)})"
