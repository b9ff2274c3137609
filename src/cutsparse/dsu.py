"""Union-find for the forest packings.

`ForestDsu(n)` is a disjoint-set forest over the elements 0..n-1, held as a
plain list of parents with path halving.  The packing kernel builds one per
forest it allocates and runs `find` inline on its `parent` list.  The
bottleneck weights keep a forest of their own: path halving would destroy
the order of unions that their climb reads.
"""

from __future__ import annotations


class ForestDsu:
    """Disjoint-set forest over 0..n-1; set ids are root element ids."""

    __slots__ = ("parent",)

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, x: int, y: int) -> None:
        rx = self.find(x)
        ry = self.find(y)
        if rx != ry:
            self.parent[rx] = ry
