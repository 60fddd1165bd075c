import random
from itertools import combinations

import pytest

from quadparts.families import spider
from quadparts.graphs import SimpleGraph, graph_power, induced_is_connected
from quadparts.treepart import partition_tree

from .support import path_graph, random_tree


def check_output(g, sizes, parts):
    union = set()
    for p in parts:
        assert not (p.members & union)
        union |= p.members
    assert union == set(range(g.n))
    assert sorted(len(p.members) for p in parts) == sorted(sizes)
    for p in parts:
        assert p.members <= p.witness
        assert len(p.witness) <= 2 * len(p.members) - 1
        assert induced_is_connected(g, p.witness)


def test_single_part_path():
    parts = partition_tree(path_graph(4), [4])
    assert parts[0].members == frozenset({0, 1, 2, 3})
    assert len(parts[0].witness) <= 7


def test_empty_graph_has_the_empty_partition():
    assert partition_tree(SimpleGraph(0, frozenset()), []) == []


def test_p6_into_triples():
    parts = partition_tree(path_graph(6), [3, 3])
    assert parts[0].members == frozenset({3, 4, 5})
    assert parts[1].members == frozenset({0, 1, 2})
    check_output(path_graph(6), [3, 3], parts)


def test_spider4_quadruples():
    g = spider(4)
    parts = partition_tree(g, [4, 4, 4, 4])
    check_output(g, [4, 4, 4, 4], parts)
    # every part is a clique in the 6th power because witnesses have order <= 7
    power6 = graph_power(g, 6).edges
    for p in parts:
        assert all((a, b) in power6 for a, b in combinations(sorted(p.members), 2))


def test_random_trees_random_compositions():
    rng = random.Random(42)
    for trial in range(120):
        n = rng.randint(1, 30)
        g = random_tree(n, trial) if n > 1 else SimpleGraph(1, frozenset())
        sizes = []
        left = n
        while left:
            s = rng.randint(1, min(left, 7))
            sizes.append(s)
            left -= s
        parts = partition_tree(g, sizes)
        check_output(g, sizes, parts)


def test_works_on_non_tree_connected_graphs():
    g = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
    parts = partition_tree(g, [2, 2, 2])
    check_output(g, [2, 2, 2], parts)


def test_power_factor_corollary():
    # parts of size r sit inside subtrees of order <= 2r-1, hence pairwise
    # distance <= 2r-2: each part is a clique in the (2r-2)nd power
    r = 3
    for seed in range(20):
        g = random_tree(9, 777 + seed)
        parts = partition_tree(g, [r, r, r])
        power = graph_power(g, 2 * r - 2).edges
        for p in parts:
            assert all((a, b) in power for a, b in combinations(sorted(p.members), 2))


def test_errors():
    with pytest.raises(ValueError):
        partition_tree(path_graph(4), [3])
    with pytest.raises(ValueError):
        partition_tree(SimpleGraph(4, frozenset()), [4])
    with pytest.raises(ValueError):
        partition_tree(path_graph(4), [0, 4])
