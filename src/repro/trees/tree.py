"""The overlay tree abstraction Bullet and RanSub run on top of.

Bullet "layers a mesh on top of an original overlay tree" and only needs the
tree for (i) baseline parent->child streaming and (ii) RanSub's collect /
distribute paths.  The tree here is a parent map over overlay participants
(which are physical client hosts of the topology), with the traversal and
subtree queries RanSub and the disjoint-send logic require: children,
descendants, descendant counts, non-descendants and depth.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple


class OverlayTree:
    """A rooted overlay tree over a fixed set of member nodes."""

    def __init__(self, root: int, parents: Dict[int, int]) -> None:
        self.root = root
        self._parents: Dict[int, int] = dict(parents)
        if root in self._parents:
            raise ValueError("the root must not have a parent")
        self._children: Dict[int, List[int]] = {root: []}
        for node in self._parents:
            self._children.setdefault(node, [])
        for node, parent in self._parents.items():
            if parent not in self._children:
                raise ValueError(f"parent {parent} of node {node} is not a tree member")
            self._children[parent].append(node)
        for children in self._children.values():
            children.sort()
        self._validate_acyclic()

    def _validate_acyclic(self) -> None:
        members = self.members()
        reachable: Set[int] = set()
        queue = deque([self.root])
        while queue:
            node = queue.popleft()
            if node in reachable:
                raise ValueError("cycle detected in overlay tree")
            reachable.add(node)
            queue.extend(self._children.get(node, []))
        if reachable != set(members):
            unreachable = set(members) - reachable
            raise ValueError(f"nodes unreachable from root: {sorted(unreachable)}")

    # ---------------------------------------------------------------- queries
    def members(self) -> List[int]:
        """All overlay participants, root included."""
        return sorted(self._children.keys())

    def __len__(self) -> int:
        return len(self._children)

    def __contains__(self, node: int) -> bool:
        return node in self._children

    def parent(self, node: int) -> Optional[int]:
        """The node's parent, or ``None`` for the root."""
        return self._parents.get(node)

    def children(self, node: int) -> List[int]:
        """The node's direct children (sorted, possibly empty)."""
        return list(self._children.get(node, []))

    def leaves(self) -> List[int]:
        """All leaf nodes."""
        return [node for node in self._children if not self._children[node]]

    def depth(self, node: int) -> int:
        """Number of tree edges from the root to ``node``."""
        depth = 0
        current = node
        while current != self.root:
            parent = self._parents.get(current)
            if parent is None:
                raise KeyError(f"node {current} is not in the tree")
            current = parent
            depth += 1
        return depth

    def height(self) -> int:
        """Maximum depth over all nodes."""
        return max(self.depth(node) for node in self._children)

    def descendants(self, node: int) -> List[int]:
        """All nodes strictly below ``node``."""
        result: List[int] = []
        queue = deque(self._children.get(node, []))
        while queue:
            current = queue.popleft()
            result.append(current)
            queue.extend(self._children.get(current, []))
        return result

    def descendant_count(self, node: int) -> int:
        """Number of strict descendants (what RanSub's collect phase counts)."""
        return len(self.descendants(node))

    def subtree(self, node: int) -> List[int]:
        """``node`` plus all of its descendants."""
        return [node] + self.descendants(node)

    def non_descendants(self, node: int) -> List[int]:
        """Members outside the subtree rooted at ``node`` (excluding the node).

        This is the population RanSub-nondescendants draws distribute sets
        from for ``node``.
        """
        below = set(self.subtree(node))
        return [member for member in self._children if member not in below]

    def ancestors(self, node: int) -> List[int]:
        """Path of ancestors from the node's parent up to the root."""
        result: List[int] = []
        current = node
        while current != self.root:
            parent = self._parents.get(current)
            if parent is None:
                raise KeyError(f"node {current} is not in the tree")
            result.append(parent)
            current = parent
        return result

    def edges(self) -> List[Tuple[int, int]]:
        """All (parent, child) tree edges."""
        return [(parent, child) for child, parent in self._parents.items()]

    def max_fanout(self) -> int:
        """Largest number of children at any node."""
        return max((len(children) for children in self._children.values()), default=0)

    def best_join_parent(self, exclude: Iterable[int] = ()) -> int:
        """The member a mid-run joiner should attach under.

        One policy shared by every tree-based system so identical workloads
        grow identical trees: the non-excluded member with the fewest
        children (preferring members under the tree's current fanout
        ceiling), shallowest first, lowest id on ties — flash crowds grow a
        balanced tree instead of a chain.
        """
        excluded = set(exclude)
        candidates = [member for member in self._children if member not in excluded]
        if not candidates:
            raise ValueError("no live member available as a join parent")
        limit = max(2, self.max_fanout())
        under_limit = [
            member for member in candidates if len(self._children[member]) < limit
        ]
        pool = under_limit or candidates
        return min(
            pool, key=lambda m: (len(self._children[m]), self.depth(m), m)
        )

    # ------------------------------------------------------------- mutations
    def add_leaf(self, node: int, parent: int) -> None:
        """Attach a new member as a leaf under ``parent`` (a mid-run join).

        The systems' ``add_node`` implementations use this to grow the
        overlay while the stream is live; the new member starts with no
        children.
        """
        if node in self._children:
            raise ValueError(f"node {node} is already a tree member")
        if parent not in self._children:
            raise ValueError(f"parent {parent} is not a tree member")
        self._parents[node] = parent
        self._children[node] = []
        children = self._children[parent]
        children.append(node)
        children.sort()

    def copy(self) -> "OverlayTree":
        """An independent copy of the tree."""
        return OverlayTree(self.root, dict(self._parents))

    def as_parent_map(self) -> Dict[int, int]:
        """The underlying parent map (copy)."""
        return dict(self._parents)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OverlayTree(root={self.root}, members={len(self)}, height={self.height()})"
