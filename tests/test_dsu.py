import random
import time

import pytest

from cutsparse.dsu import ForestDsu

BACKENDS = [ForestDsu]


def naive_partition(n: int, unions: list[tuple[int, int]]) -> list[int]:
    """Label propagation until fixpoint; the independent partition oracle."""
    labels = list(range(n))
    changed = True
    while changed:
        changed = False
        for a, b in unions:
            la, lb = labels[a], labels[b]
            if la != lb:
                lo = min(la, lb)
                for i, l in enumerate(labels):
                    if l == la or l == lb:
                        labels[i] = lo
                changed = True
    return labels


def partition_of(dsu, elements) -> dict[int, set[int]]:
    groups: dict[int, set[int]] = {}
    for x in elements:
        groups.setdefault(dsu.find(x), set()).add(x)
    return groups


@pytest.mark.parametrize("backend", BACKENDS)
class TestBasics:
    def test_fresh_singletons_are_distinct(self, backend):
        dsu = backend(3)
        assert dsu.find(1) != dsu.find(2)

    def test_union_connects(self, backend):
        dsu = backend(3)
        dsu.union(1, 2)
        assert dsu.find(1) == dsu.find(2)
        assert dsu.find(0) != dsu.find(1)

    def test_equivalence_laws(self, backend):
        rng = random.Random(11)
        elements = list(range(40))
        dsu = backend(len(elements))
        for _ in range(60):
            dsu.union(rng.choice(elements), rng.choice(elements))
        for x in elements:
            assert dsu.find(x) == dsu.find(x)  # reflexive / stable
        for _ in range(100):
            a, b = rng.choice(elements), rng.choice(elements)
            assert (dsu.find(a) == dsu.find(b)) == (dsu.find(b) == dsu.find(a))
        # transitivity via the partition itself
        groups = partition_of(dsu, elements)
        assert sum(len(g) for g in groups.values()) == len(elements)


@pytest.mark.parametrize("backend", BACKENDS)
def test_random_script_matches_label_propagation(backend):
    rng = random.Random(123)
    n = 200
    unions = [(rng.randrange(n), rng.randrange(n)) for _ in range(150)]
    dsu = backend(n)
    for a, b in unions:
        dsu.union(a, b)
    oracle = naive_partition(n, unions)
    for a in range(n):
        for b in range(a + 1, a + 5):
            if b < n:
                assert (dsu.find(a) == dsu.find(b)) == (oracle[a] == oracle[b])


@pytest.mark.parametrize("backend", BACKENDS)
def test_mixed_operation_smoke_budget(backend):
    # regression guard, not an asymptotic claim: 10^6 mixed ops in bounded time
    n = 100_000
    t0 = time.perf_counter()
    dsu = backend(n)
    rng = random.Random(5)
    for _ in range(450_000):
        dsu.union(rng.randrange(n), rng.randrange(n))
    for _ in range(450_000):
        dsu.find(rng.randrange(n))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"10^6 mixed operations took {elapsed:.1f}s"
