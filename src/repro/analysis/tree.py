"""A rooted tree over integer node ids.

Shared by three structures central to the paper: the dominator tree, the
postdominator tree, and the lexical successor tree.  The two queries the
slicing algorithms live on are:

* :meth:`Tree.is_ancestor` — "S' postdominates S iff S' is an ancestor of
  S in the postdominator tree" (paper §3), and likewise for lexical
  succession;
* :meth:`Tree.nearest_ancestor_in` — the *nearest postdominator in the
  slice* / *nearest lexical successor in the slice* tests of the Fig. 7
  and Fig. 12 algorithms.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple


class Tree:
    """An immutable rooted tree given as a child → parent map.

    The root has no entry in ``parent``.  Every other node must reach the
    root through the parent chain; a cycle raises ``ValueError`` at
    construction time.
    """

    def __init__(self, parent: Dict[int, int], root: int) -> None:
        if root in parent:
            raise ValueError(f"root {root} must not have a parent")
        self.root = root
        self._parent = dict(parent)
        children: Dict[int, List[int]] = {root: []}
        for child in parent:
            children.setdefault(child, [])
        for child, par in parent.items():
            if par not in children:
                raise ValueError(
                    f"parent {par} of {child} is not a tree node"
                )
            children[par].append(child)
        #: node -> its children, sorted, sealed into tuples (untracked
        #: by the cycle collector; see ControlFlowGraph.seal).
        self._children: Dict[int, Tuple[int, ...]] = {
            node: tuple(sorted(kids)) for node, kids in children.items()
        }
        self._depth = self._compute_depths()
        #: node -> its full proper-ancestor chain, filled on demand.
        #: Safe to memoize because the tree is immutable; Fig. 7 walks
        #: the same chains on every traversal round.
        self._chain: Dict[int, Tuple[int, ...]] = {}

    def _compute_depths(self) -> Dict[int, int]:
        depth: Dict[int, int] = {self.root: 0}
        stack = [self.root]
        while stack:
            node = stack.pop()
            for child in self._children[node]:
                depth[child] = depth[node] + 1
                stack.append(child)
        if len(depth) != len(self._children):
            orphans = sorted(set(self._children) - set(depth))
            raise ValueError(
                f"parent map contains a cycle or orphan nodes: {orphans[:5]}"
            )
        return depth

    # ------------------------------------------------------------------

    @property
    def nodes(self) -> Set[int]:
        return set(self._children)

    def __contains__(self, node: int) -> bool:
        return node in self._children

    def __len__(self) -> int:
        return len(self._children)

    def parent_of(self, node: int) -> Optional[int]:
        """The parent of *node*; None for the root."""
        return self._parent.get(node)

    def children_of(self, node: int) -> List[int]:
        """Children of *node*, sorted by id (deterministic traversals)."""
        return list(self._children[node])

    def depth_of(self, node: int) -> int:
        return self._depth[node]

    def ancestor_chain(self, node: int) -> Tuple[int, ...]:
        """Proper ancestors of *node*, nearest first, as a cached tuple.

        Chains are filled bottom-up without recursion (LST chains on
        large flat programs exceed the interpreter's recursion limit),
        reusing every already-cached suffix.  Unknown nodes get the
        empty chain, matching the old generator's behaviour.
        """
        chain = self._chain.get(node)
        if chain is not None:
            return chain
        path: List[int] = []
        current = node
        while current not in self._chain:
            parent = self._parent.get(current)
            if parent is None:
                self._chain[current] = ()
                break
            path.append(current)
            current = parent
        for member in reversed(path):
            parent = self._parent[member]
            self._chain[member] = (parent,) + self._chain[parent]
        return self._chain[node]

    def ancestors(self, node: int) -> Iterator[int]:
        """Proper ancestors of *node*, nearest first, ending at the root."""
        return iter(self.ancestor_chain(node))

    def is_ancestor(self, ancestor: int, node: int, strict: bool = False) -> bool:
        """True when *ancestor* is an ancestor of *node*.

        With ``strict=False`` (the default) a node counts as its own
        ancestor, matching "S' postdominates S" with reflexivity the way
        the paper's nearest-in-slice queries need it.
        """
        if ancestor not in self._children or node not in self._children:
            return False
        if ancestor == node:
            return not strict
        if self._depth[ancestor] >= self._depth[node]:
            return False
        current: Optional[int] = node
        while current is not None and self._depth[current] > self._depth[ancestor]:
            current = self._parent.get(current)
        return current == ancestor

    def nearest_ancestor_in(
        self, node: int, members: Iterable[int]
    ) -> Optional[int]:
        """The nearest *proper* ancestor of *node* contained in *members*.

        This is the paper's "nearest postdominator in Slice" / "nearest
        lexical successor in Slice" primitive.  Returns None when no
        ancestor qualifies (never happens when the root — EXIT — is a
        member, which is how the slicers call it).
        """
        member_set = members if isinstance(members, (set, frozenset)) else set(members)
        for ancestor in self.ancestors(node):
            if ancestor in member_set:
                return ancestor
        return None

    def preorder(self) -> Iterator[int]:
        """Pre-order traversal: every node before any of its children,
        children visited in ascending id order (deterministic, matching
        the paper's Fig. 7 requirement that a node is visited before its
        children)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            # Reverse so the smallest-id child pops first.
            stack.extend(reversed(self._children[node]))

    def edges(self) -> Iterator[tuple]:
        """(parent, child) pairs."""
        for child, parent in self._parent.items():
            yield parent, child

    def as_parent_map(self) -> Dict[int, int]:
        return dict(self._parent)
