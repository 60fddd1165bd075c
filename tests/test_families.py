import pytest

from quadparts.families import (
    canonical_form,
    enumerate_2connected,
    random_2connected,
    random_corpus,
    spider,
    subdivided_k4,
    theta,
)
from quadparts.graphs import is_biconnected

from .support import connected_components, degree


def test_vertex_count_formulas():
    for r in range(2, 9):
        assert spider(r).n == r * r
        assert subdivided_k4(r).n == 6 * r
        assert theta(r).n == r * r + r


def test_spider_degree_spectrum():
    for r in (2, 3, 4, 5):
        g = spider(r)
        degs = sorted(degree(g, v) for v in range(g.n))
        assert degs.count(1) == r + 1          # leaves
        assert degs[-1] == r + 1               # the center
        assert degs.count(2) == g.n - r - 2    # subdivision vertices
        assert len(connected_components(g)) == 1


def test_spider_r2_is_a_star():
    g = spider(2)
    assert g.n == 4 and degree(g, 0) == 3


def test_subdivided_k4_structure():
    for r in (2, 3, 4, 6):
        g = subdivided_k4(r)
        assert is_biconnected(g)
        assert sum(1 for v in range(g.n) if degree(g, v) == 3) == 4


def test_theta_structure():
    for r in (2, 3, 4, 6):
        g = theta(r)
        assert is_biconnected(g)
        assert degree(g, 0) == r + 2 and degree(g, 1) == r + 2


def test_random_always_biconnected():
    for seed in range(40):
        assert is_biconnected(random_2connected(8, seed))


def test_random_corpus_distinct():
    corpus = random_corpus(8, 50)
    assert len({g.edges for g in corpus}) == 50


def test_enumerate_k3():
    assert len(list(enumerate_2connected(3))) == 1


def test_enumerate_order4_classes():
    classes = list(enumerate_2connected(4))
    assert len(classes) == 3
    assert sorted(g.m for g in classes) == [4, 5, 6]  # cycle, diamond, complete


def test_enumerate_labeled_counts():
    labeled = list(enumerate_2connected(4, dedup=False))
    # 3 labeled 4-cycles, 6 diamonds (one per missing edge), 1 complete graph
    assert len(labeled) == 3 + 6 + 1


def test_canonical_form_invariance():
    g1 = next(iter(enumerate_2connected(4)))
    import itertools
    from quadparts.graphs import SimpleGraph

    for perm in itertools.permutations(range(4)):
        relabeled = SimpleGraph.from_edges(4, [(perm[u], perm[v]) for u, v in g1.edges])
        assert canonical_form(relabeled) == canonical_form(g1)


def test_parameter_validation():
    for fn in (spider, subdivided_k4, theta):
        with pytest.raises(ValueError):
            fn(1)
    with pytest.raises(ValueError):
        random_2connected(2, 0)
    with pytest.raises(ValueError):
        list(enumerate_2connected(8))
