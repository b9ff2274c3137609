"""The packing kernel's forest allocation: `ForestDsu(n).parent` is a list
of n singleton parents, on which the kernel runs union-find inline.  The
class remains only as the hook through which the benchmark's tracer counts
forests (`dsu.forests`); once a benchmark change counts the kernel's
allocation directly, this module can go.
"""

from __future__ import annotations


class ForestDsu:
    """Parent list of n singleton sets; set ids are root element ids."""

    __slots__ = ("parent",)

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
