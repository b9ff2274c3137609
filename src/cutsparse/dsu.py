"""Union-find for the forest packings.

`ForestDsu` is the disjoint-set forest (union by rank, path compression).  It
creates singletons lazily so that a family of M structures does not pay an
upfront Theta(n*M) initialization, and it raises on find/union of elements
that were never created.
"""

from __future__ import annotations


class ForestDsu:
    """Disjoint-set forest; set ids are root element ids."""

    __slots__ = ("_parent", "_rank")

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}
        self._rank: dict[int, int] = {}

    def __contains__(self, x: int) -> bool:
        return x in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def make_set(self, x: int) -> None:
        if x in self._parent:
            raise ValueError(f"make_set on already-created element {x!r}")
        self._parent[x] = x
        self._rank[x] = 0

    def find(self, x: int) -> int:
        parent = self._parent
        if x not in parent:
            raise KeyError(f"find on uncreated element {x!r}")
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx = self.find(x)
        ry = self.find(y)
        if rx == ry:
            return
        rank = self._rank
        if rank[rx] < rank[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        if rank[rx] == rank[ry]:
            rank[rx] += 1
