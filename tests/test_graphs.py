import random
import sys
from collections import Counter
from itertools import combinations

import pytest

from quadparts import graphs
from quadparts.graphs import (
    Multigraph,
    SimpleGraph,
    bfs_parents,
    graph_power,
    has_three_paths,
    induced_is_connected,
    is_biconnected,
    leaf_side,
)
from quadparts.engine.model import Fragment
from quadparts.oracle import is_nearly_connected

from .support import (complete_graph, connected_components, cycle_graph, dense_block, diameter, leaf_side_holds,
                      logged, path_graph, relabelled)


def brute_biconnected(g: SimpleGraph) -> bool:
    """Independent oracle: connected, and still connected after deleting any
    one vertex."""
    if g.n < 2:
        return False
    if len(connected_components(g)) != 1:
        return False
    return all(len(connected_components(g, removed={v})) <= 1 for v in range(g.n))


def as_multigraph(g: SimpleGraph) -> Multigraph:
    """g as the multigraph whose edge ids are the positions of its sorted
    edge list."""
    return Multigraph(range(g.n), g.sorted_edges())


def random_graph(n: int, p: float, seed: int) -> SimpleGraph:
    rng = random.Random(seed)
    return SimpleGraph.from_edges(
        n, [e for e in combinations(range(n), 2) if rng.random() < p]
    )


def random_cycle_multigraph(n: int, seed: int) -> Multigraph:
    """A Hamiltonian cycle in random order plus up to 2n random extra pairs,
    parallel edges included."""
    rng = random.Random(seed)
    order = rng.sample(range(n), n)
    pairs = [(order[i], order[(i + 1) % n]) for i in range(n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
    return Multigraph(range(n), pairs)


def brute_components(alive: set[int], pairs) -> list[frozenset[int]]:
    """Components of the graph on `alive` by growing each to a fixpoint over
    the edge list (independent of the library's traversal code)."""
    comps = []
    left = set(alive)
    while left:
        comp = {min(left)}
        grown = True
        while grown:
            grown = False
            for a, b in pairs:
                if a in alive and b in alive and (a in comp) != (b in comp):
                    comp |= {a, b}
                    grown = True
        comps.append(frozenset(comp))
        left -= comp
    return comps


def brute_sides(vertices, pairs) -> dict[tuple[int, int], list[frozenset[int]]]:
    """Each 2-cut (u, v), u < v, of the graph on `vertices` with the edge
    list `pairs`, with the components it leaves, by brute force."""
    sides = {}
    for u, v in combinations(sorted(vertices), 2):
        comps = brute_components(set(vertices) - {u, v}, pairs)
        if len(comps) > 1:
            sides[u, v] = comps
    return sides


def brute_leaf_side_holds(mg: Multigraph, side) -> bool:
    """The leaf-side contract checked by brute force on the block mg: None
    exactly when mg has no 2-cut; otherwise C is a component of mg - {u, v},
    H = mg[C ∪ {u, v}] + uv has no 2-cut, and no side of a 2-cut of mg is
    a proper subset of C."""
    pairs = [(u, v) for _, u, v in mg.edge_tuples()]
    sides = brute_sides(mg.vertices, pairs)
    if side is None:
        return not sides
    (u, v), comp = side
    inside = comp | {u, v}
    h = brute_sides(inside, [(a, b) for a, b in pairs if a in inside and b in inside] + [(u, v)])
    return (comp in sides.get((u, v), ()) and not h
            and not any(c < comp for comps in sides.values() for c in comps))


def ladder(k: int, chords=(), closed: bool = False) -> SimpleGraph:
    """networkx's ladder_graph(k) (rails 0..k-1 and k..2k-1, rungs i, i + k),
    closed into its prism circular_ladder_graph(k) if asked, plus `chords`."""
    rails = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    ends = [(0, k - 1), (k, 2 * k - 1)] if closed else []
    return SimpleGraph.from_edges(2 * k, rails + ends + [(i, i + k) for i in range(k)] + list(chords))


def index_blocks() -> list[Multigraph]:
    """Blocks with and without 2-cuts: relabelled 3-regular blocks, relabelled
    prisms and ladders with up to two chords, and dense blocks; each also as
    a multigraph with reversed, spread-out ids and doubled edges; and the
    triangle with and without parallel edges."""
    nx = pytest.importorskip("networkx")
    simple = []
    for seed in range(16):
        cubic = nx.random_regular_graph(3, 6 + 2 * (seed % 6), seed)
        simple.append(relabelled(SimpleGraph.from_edges(cubic.number_of_nodes(), cubic.edges), seed))
    for k in range(3, 8):
        rng = random.Random(k)
        for closed in (False, True):
            chords = [tuple(rng.sample(range(2 * k), 2)) for _ in range(2)]
            for count in range(3):
                simple.append(relabelled(ladder(k, chords[:count], closed), 10 * k + count))
    simple += [dense_block(n, seed) for n in range(4, 13) for seed in (1, 2)]
    blocks = []
    for g in simple:
        if not is_biconnected(g):
            continue
        pairs = g.sorted_edges()
        name = {v: 3 * (g.n - 1 - v) + 2 for v in range(g.n)}
        moved = [(name[a], name[b]) for a, b in pairs]
        blocks += [Multigraph(range(g.n), pairs), Multigraph(name.values(), moved + moved[::3])]
    triangle = [(0, 1), (1, 2), (0, 2)]
    blocks += [Multigraph(range(3), triangle), Multigraph(range(3), triangle + triangle[:1]),
               Multigraph(range(3), triangle + triangle)]
    return blocks


@pytest.fixture
def block_tests(monkeypatch) -> list:
    """The graph of each `graphs.is_biconnected` call since the test started
    (or since the list was last cleared)."""
    calls: list = []
    real = graphs.is_biconnected

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(graphs, "is_biconnected", counted)
    return calls


class TestBiconnected:
    def test_cycle(self):
        assert is_biconnected(cycle_graph(4))

    def test_path_has_cutvertex(self):
        assert not is_biconnected(path_graph(3))

    def test_k4_minus_edge(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert brute_biconnected(g)
        assert is_biconnected(g)

    def test_single_edge_counts(self):
        assert is_biconnected(SimpleGraph.from_edges(2, [(0, 1)]))
        assert not is_biconnected(SimpleGraph(2, frozenset()))
        assert not is_biconnected(SimpleGraph(1, frozenset()))

    def test_two_vertex_multigraph(self):
        mg = Multigraph([0, 1])
        assert not is_biconnected(mg)
        mg.add_edge(0, 1)
        assert is_biconnected(mg)

    def test_parallel_edges_do_not_hide_cutvertices(self):
        # doubling an edge never removes a vertex cut
        mg = Multigraph(range(4), [(0, 1), (1, 2), (0, 2), (2, 3), (2, 3)])
        assert not is_biconnected(mg)
        mg2 = Multigraph(range(3), [(0, 1), (0, 1), (1, 2), (1, 2)])
        assert not is_biconnected(mg2)

    def test_cut_vertices_far_down_the_search(self):
        """The block test runs on its own stack and finds a cut vertex at any
        depth, on graphs far deeper than the recursion limit, both as
        SimpleGraphs and as multigraphs.  An 8000-cycle with a pendant path
        of 4000 vertices off vertex 7999 has n edges, so only the search
        rejects it, at the path's end.  Two identity-labelled 6000-cycles
        that share vertex 3000 are cut there, after the search has walked
        the first cycle to its end.  The 20,000-cycle with every edge
        doubled is a block."""
        k = 8000
        pendant = SimpleGraph.from_edges(k + 4000, [(i, (i + 1) % k) for i in range(k)]
                                         + [(i, i + 1) for i in range(k - 1, k + 3999)])
        c = 3000
        shared = SimpleGraph.from_edges(11999, [(i, (i + 1) % 6000) for i in range(6000)]
                                        + [(c, 6000), (11998, c)] + [(i, i + 1) for i in range(6000, 11998)])
        for g in (pendant, shared):
            assert sys.getrecursionlimit() < g.n <= g.m
            assert not is_biconnected(g)
            assert not is_biconnected(as_multigraph(g))
        n = 20000
        assert sys.getrecursionlimit() < n
        cycle = [(i, (i + 1) % n) for i in range(n)]
        assert is_biconnected(Multigraph(range(n), cycle + cycle))

    def test_agrees_with_brute_force_exhaustively_tiny(self):
        for n in (2, 3, 4, 5):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = SimpleGraph(n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1))
                assert is_biconnected(g) == brute_biconnected(g), (n, mask)

    def test_agrees_with_brute_force_random(self):
        for n in (6, 7):
            for seed in range(120):
                g = random_graph(n, 0.5, 1000 * n + seed)
                assert is_biconnected(g) == brute_biconnected(g), (n, seed)


class TestSmallest2Cut:
    """The leaf side by brute force: a side of a 2-cut that is least by
    inclusion and whose split component has no 2-cut."""

    def test_c4(self):
        """Vertex 0 has two neighbours, so the first test gives the pair
        {1, 3}; of its sides {0} and {2}, the lower is kept, and its split
        component is a triangle."""
        pair, comp = leaf_side(as_multigraph(cycle_graph(4)))
        assert pair == (1, 3)
        assert comp == frozenset({0})

    def test_k4_is_3connected(self):
        assert leaf_side(as_multigraph(complete_graph(4))) is None

    def test_theta_of_short_paths(self):
        # three internally disjoint length-2 paths between 0 and 1
        g = SimpleGraph.from_edges(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
        pair, comp = leaf_side(as_multigraph(g))
        assert pair == (0, 1)
        assert len(comp) == 1

    def test_minimality_exhaustive(self):
        for n in (5, 6, 7, 8):
            for seed in range(25):
                g = random_graph(n, 0.45, 77 * n + seed)
                if not is_biconnected(g):
                    continue
                pairs = g.sorted_edges()
                mg = Multigraph(range(n), pairs)
                assert brute_leaf_side_holds(mg, leaf_side(mg)), (n, seed)
                # the same block as a multigraph: reversed, spread-out ids and doubled edges
                name = {v: 3 * (n - 1 - v) + 2 for v in range(n)}
                moved = [(name[a], name[b]) for a, b in pairs]
                mg = Multigraph(name.values(), moved + moved[::3])
                assert brute_leaf_side_holds(mg, leaf_side(mg)), (n, seed)

    def test_blocks_with_and_without_2cuts(self):
        for i, mg in enumerate(index_blocks()):
            if mg.n <= 12:
                assert brute_leaf_side_holds(mg, leaf_side(mg)), i


class TestSeparationIndexAgainstNetworkx:
    def test_blocks_with_and_without_2cuts(self, pair_tests, block_tests):
        """The leaf side against networkx on the index blocks and the
        separation-pair corpus, and its descent: the separation-pair tests
        run on graphs of strictly falling order, every one but the last
        finds a pair, and no block test runs.  A triangle has no 2-cut
        and costs no test.  Blocks of minimum degree 3 with 2-cuts descend
        through two or more tests."""
        nx = pytest.importorskip("networkx")
        outcomes: Counter[tuple[bool, int]] = Counter()  # (has a 2-cut, pair tests up to 3)
        blocks = index_blocks() + [Multigraph(range(g.n), g.sorted_edges()) for g in separation_pair_corpus(nx)]
        block_tests.clear()
        for i, mg in enumerate(blocks):
            pair_tests.clear()
            side = leaf_side(mg)
            assert leaf_side_holds(nx, [(u, v) for _, u, v in mg.edge_tuples()], side), i
            orders = [order for order, _ in pair_tests]
            assert orders == sorted(set(orders), reverse=True), i
            assert all(found for _, found in pair_tests[:-1]), i
            if mg.n == 3:
                assert side is None and pair_tests == [], i
            outcomes[side is not None, min(len(pair_tests), 3)] += 1
        assert block_tests == []
        assert outcomes[False, 1] > 300 and outcomes[True, 1] > 50, outcomes
        assert outcomes[True, 2] > 200 and outcomes[True, 3] > 10, outcomes

    def test_random_cycle_multigraphs(self):
        nx = pytest.importorskip("networkx")
        for n in range(3, 10):
            for seed in range(40):
                mg = random_cycle_multigraph(n, 100 * n + seed)
                edges = mg.edge_tuples()
                side = leaf_side(mg)
                assert leaf_side_holds(nx, [(u, v) for _, u, v in edges], side), (n, seed)
                assert is_biconnected(mg) and nx.is_biconnected(nx.MultiGraph([(u, v) for _, u, v in edges]))
                for eid, _, _ in edges:
                    rest = [(u, v) for e, u, v in edges if e != eid]
                    block = nx.is_biconnected(nx.MultiGraph(rest))
                    assert is_biconnected(Multigraph(range(n), rest)) == block, (n, seed, eid)
                blocks = []
                for v in range(n):
                    alive = set(range(n)) - {v}
                    rest = [(a, b) for _, a, b in edges if v not in (a, b)]
                    blocks.append(nx.is_biconnected(nx.MultiGraph(rest)))
                    assert is_biconnected(Multigraph(alive, rest)) == blocks[-1], (n, seed, v)
                if n >= 4:
                    assert (side is None) == all(blocks), (n, seed)


def searched_2cut(mg: Multigraph) -> bool:
    """Whether the block mg has a 2-cut, by a block check of mg - u for
    every vertex u: {u, v} is a 2-cut iff v cuts mg - u."""
    edges = mg.edge_tuples()
    return not all(is_biconnected(Multigraph(mg.vertices - {u}, [(a, b) for _, a, b in edges if u not in (a, b)]))
                   for u in mg.vertices)


def from_networkx(nx, g, seed: int) -> SimpleGraph:
    """The networkx graph g with its nodes renamed 0..n-1, then permuted with `seed`."""
    g = nx.convert_node_labels_to_integers(g)
    return relabelled(SimpleGraph.from_edges(len(g), g.edges), seed)


def separation_pair_corpus(nx) -> list[SimpleGraph]:
    """Blocks of order 4 to 36, relabelled: random 3-, 4- and 5-regular
    graphs, G(n, p) graphs, hypercubes and tori; prisms and ladders with up
    to two chords; a random 3-regular and a random 4-regular graph glued at
    two vertices, with or without an edge between their other vertices; and
    random 3-regular graphs with one to three edges each replaced by a
    K4 - e whose ends of degree 2 take the edge's ends."""
    out = []
    for seed in range(150):
        rng = random.Random(seed)
        degree, n = 3 + seed % 3, rng.randrange(6, 26)
        out.append(from_networkx(nx, nx.random_regular_graph(degree, n + n * degree % 2, seed), seed))
        out.append(from_networkx(nx, nx.gnp_random_graph(rng.randrange(5, 16), rng.uniform(0.25, 0.6), seed), seed))
        pieces = [nx.random_regular_graph(3, rng.choice([4, 6, 8]), seed),
                  nx.relabel_nodes(nx.random_regular_graph(4, rng.randrange(5, 10), seed), lambda x: x + 100)]
        glued = nx.union(*pieces)
        (a, b), (c, d) = (rng.sample(sorted(piece), 2) for piece in pieces)
        glued = nx.contracted_nodes(nx.contracted_nodes(glued, a, c, self_loops=False), b, d, self_loops=False)
        if seed % 3 == 0:
            glued.add_edge(*(rng.choice(sorted(set(piece) - {a, b, c, d})) for piece in pieces))
        out.append(from_networkx(nx, nx.Graph(glued), seed))
        cubic = nx.random_regular_graph(3, rng.choice([6, 8, 10, 12]), seed)
        gadgets = nx.Graph(cubic)
        for u, v in rng.sample(sorted(cubic.edges), 1 + seed % 3):
            x, y = (u, v, 0), (u, v, 1)
            gadgets.remove_edge(u, v)
            gadgets.add_edges_from([(u, x), (u, y), (x, y), (x, v), (y, v)])
        out.append(from_networkx(nx, gadgets, seed))
    for k in range(3, 11):
        rng = random.Random(k)
        for closed in (False, True):
            chords = [tuple(rng.sample(range(2 * k), 2)) for _ in range(2)]
            out += [relabelled(ladder(k, chords[:count], closed), 10 * k + count) for count in range(3)]
    out += [from_networkx(nx, nx.hypercube_graph(d), d) for d in (2, 3, 4, 5)]
    out += [from_networkx(nx, nx.grid_2d_graph(a, b, periodic=True), a * b) for a in range(3, 7) for b in range(a, 7)]
    return [g for g in out if g.n >= 4 and is_biconnected(g)]


@pytest.fixture
def pair_tests(monkeypatch) -> list[tuple[int, tuple[int, int, int] | None]]:
    """The order of the graph each separation-pair test ran on and what it
    returned, since the test started (or since the list was last cleared)."""
    found: list[tuple[int, tuple[int, int, int] | None]] = []
    real = graphs._separation_pair

    def recorded(nbrs):
        found.append((len(nbrs), real(nbrs)))
        return found[-1][1]

    monkeypatch.setattr(graphs, "_separation_pair", recorded)
    return found


class TestSeparationPair:
    def test_agrees_with_networkx_and_the_searches(self):
        """The separation-pair test, run directly, against networkx's node
        connectivity and against a search of g - u at every vertex u, on
        every block of the corpus and on a copy with reversed, spread-out ids
        and doubled edges; every pair it reports separates the block.  Each
        way out is taken often: a pair from the first depth-first search
        (kind 1), a pair from the path search and its triple stack (kind 2),
        and no pair."""
        nx = pytest.importorskip("networkx")
        kinds: Counter[int] = Counter()  # 0 for no pair
        for i, g in enumerate(separation_pair_corpus(nx)):
            pairs = g.sorted_edges()
            expected = nx.node_connectivity(nx.Graph(pairs)) < 3
            name = {v: 3 * (g.n - 1 - v) + 2 for v in range(g.n)}
            moved = [(name[a], name[b]) for a, b in pairs]
            for mg in (Multigraph(range(g.n), pairs), Multigraph(name.values(), moved + moved[::2])):
                found = graphs._separation_pair({x: set(ends.values()) for x, ends in mg._inc.items()})
                assert (found is not None) == expected == searched_2cut(mg), i
                kinds[found[0] if found else 0] += 1
                if found:
                    rest = nx.Graph([(u, v) for _, u, v in mg.edge_tuples()])
                    rest.remove_nodes_from(found[1:])
                    assert not nx.is_connected(rest), (i, found)
        assert min(kinds[0], kinds[1], kinds[2]) >= 100, kinds


class TestSeparationIndexCost:
    def test_cubic_block_runs_no_search(self, block_tests, pair_tests):
        """A block with no 2-cut costs one separation-pair test of the whole
        graph and no block test."""
        nx = pytest.importorskip("networkx")
        g = relabelled(SimpleGraph.from_edges(800, nx.random_regular_graph(3, 800, 1).edges), 1)
        assert leaf_side(as_multigraph(g)) is None
        assert block_tests == [] and pair_tests == [(800, None)]

    def test_deep_moebius_ladder_runs_no_search(self, block_tests, pair_tests):
        """The separation-pair test recurses nowhere: on the identity-labelled
        Möbius ladder on 6000 vertices, far deeper than the recursion limit,
        it finds no 2-cut, and no block test runs."""
        n = 6000
        assert sys.getrecursionlimit() < n
        g = SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(n // 2)])
        assert leaf_side(as_multigraph(g)) is None
        assert block_tests == [] and pair_tests == [(n, None)]


@pytest.fixture
def augmentations(monkeypatch) -> list[bool]:
    """What each residual augmentation of has_three_paths returned since the
    test started (or since the list was last cleared)."""
    found: list[bool] = []
    real = graphs._augment

    def recorded(*args):
        found.append(real(*args))
        return found[-1]

    monkeypatch.setattr(graphs, "_augment", recorded)
    return found


class TestThreePaths:
    def test_agrees_with_networkx_on_non_adjacent_pairs(self, augmentations):
        """Every route of has_three_paths against networkx: three common
        neighbours settle a pair at once, one or two leave a search in g
        minus them, and with none the search runs in g.  The search grows
        the flow by plain paths first and augments in the residual graph
        only when one fails, which then finds the rest or shows there is
        none.  Random 3-regular graphs give pairs where no common neighbour
        helps."""
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.connectivity import build_auxiliary_node_connectivity, local_node_connectivity
        from networkx.algorithms.flow import build_residual_network

        inputs = []
        for seed in range(250):
            rng = random.Random(seed)
            inputs.append(random_graph(rng.randint(4, 10), rng.uniform(0.3, 0.9), seed))
        for seed in range(24):
            cubic = nx.random_regular_graph(3, 8 + 2 * (seed % 12), seed)
            inputs.append(SimpleGraph.from_edges(cubic.number_of_nodes(), cubic.edges))
        routes: Counter[tuple[int, bool]] = Counter()  # (common neighbours up to 3, verdict)
        residual: Counter[bool] = Counter()  # verdict of the checks that augmented in the residual graph
        for i, g in enumerate(inputs):
            n, adj, edges = g.n, g.adj(), g.sorted_edges()
            simple = nx.Graph(edges)
            simple.add_nodes_from(range(n))
            plain = as_multigraph(g)
            mg = Multigraph(range(n), edges + edges[::2])  # parallel edges add no disjoint path
            aux = build_auxiliary_node_connectivity(simple)
            flows = {"auxiliary": aux, "residual": build_residual_network(aux, "capacity"), "cutoff": 3}
            for a, b in combinations(range(n), 2):
                if (a, b) in g.edges:
                    continue
                expected = local_node_connectivity(simple, a, b, **flows) >= 3
                augmentations.clear()
                assert has_three_paths(plain, a, b) == expected, (i, a, b)
                if augmentations:
                    assert all(augmentations[:-1]) and augmentations[-1] == expected, (i, a, b)
                    residual[expected] += 1
                assert has_three_paths(mg, b, a) == expected, (i, a, b)
                routes[min(len(set(adj[a]) & set(adj[b])), 3), expected] += 1
        for route, least in {(3, True): 300, (2, True): 150, (2, False): 100, (1, True): 500,
                             (1, False): 300, (0, True): 1300, (0, False): 300}.items():
            assert routes[route] > least, (route, routes[route])
        assert residual[True] > 50, residual
        assert residual[False] == sum(count for (_, verdict), count in routes.items() if not verdict)

    def test_greedy_shortest_paths_block_each_other(self, augmentations):
        """a = 0 and b = 1 have no common neighbour and three disjoint paths
        2-8-5, 3-9-6 and 4-10-11-7, but the shortest a-b path 0-2-6-1 takes
        the one exit of 3-9 towards b.  The plain searches find it and
        0-4-10-11-7-1, then stop; the residual augmentation 0-3-9-6-2-8-5-1
        gives back the edge 2-6 and finds the third path."""
        g = SimpleGraph.from_edges(12, [(0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7), (2, 8), (8, 5),
                                        (3, 9), (9, 6), (4, 10), (10, 11), (11, 7), (2, 6)])
        mg = as_multigraph(g)
        assert has_three_paths(mg, 0, 1) and has_three_paths(mg, 1, 0)
        assert augmentations == [True, True]
        g = SimpleGraph.from_edges(12, g.edges - {(5, 8)})
        augmentations.clear()
        assert not has_three_paths(as_multigraph(g), 0, 1)
        assert augmentations == [False]


class TestTraversalAgainstNetworkx:
    """The shared breadth-first search and nearly-connected search against
    networkx, on every vertex subset of up to 5 vertices of random graphs."""

    def test_every_small_subset(self):
        nx = pytest.importorskip("networkx")
        witnessed = {"itself": 0, "one more": 0, "none": 0}
        isolated_singletons = 0
        for n in range(2, 11):
            for p in (0.2, 0.4, 0.7):
                g = random_graph(n, p, 10 * n + int(10 * p))
                simple = nx.Graph(list(g.edges))
                simple.add_nodes_from(range(n))
                (child,) = logged(sorted(g.edges))
                adj, fragment = g.adj(), Fragment(child.log, child.start, child.end)
                for size in range(1, 6):
                    for part in map(frozenset, combinations(range(n), size)):
                        induced = simple.subgraph(part)
                        assert induced_is_connected(g, part) == nx.is_connected(induced)
                        root = min(part)
                        parent = bfs_parents(adj, root, within=part)
                        assert parent.keys() == nx.node_connected_component(induced, root)
                        depth = nx.single_source_shortest_path_length(induced, root)
                        assert list(parent) == sorted(parent, key=depth.__getitem__)
                        assert all(x == root or ((parent[x], x) in induced.edges
                                                 and depth[parent[x]] + 1 == depth[x]) for x in parent)
                        expected = next((s for s in [part, *(part | {x} for x in range(n) if x not in part)]
                                         if nx.is_connected(simple.subgraph(s))), None)
                        assert is_nearly_connected(g, part) == expected, (n, p, sorted(part))
                        # the fragment knows only the ends of its edges, and a vertex
                        # outside it has no witness; that differs from g only on a
                        # singleton at an isolated vertex
                        isolated = {x for x in part if not fragment[x]}
                        assert not isolated or expected is None or len(part) == 1
                        assert fragment.witness_for(part) == (None if isolated else expected), (n, p, sorted(part))
                        isolated_singletons += bool(isolated) and len(part) == 1
                        witnessed["none" if expected is None else "itself" if expected == part
                                  else "one more"] += 1
        assert min(witnessed.values()) > 300 and isolated_singletons > 5


class TestGraphPower:
    def test_identity_at_one(self):
        g = random_graph(7, 0.4, 3)
        assert graph_power(g, 1).edges == g.edges

    def test_c5_squared_is_complete(self):
        assert graph_power(cycle_graph(5), 2).edges == complete_graph(5).edges

    def test_p4_squared(self):
        got = graph_power(path_graph(4), 2)
        assert got.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)})

    def test_monotone_in_k(self):
        g = random_graph(8, 0.3, 9)
        if len(connected_components(g)) != 1:
            g = cycle_graph(8)
        prev = graph_power(g, 1).edges
        for k in range(2, 6):
            cur = graph_power(g, k).edges
            assert prev <= cur
            prev = cur

    def test_complete_at_diameter(self):
        for seed in range(10):
            g = random_graph(7, 0.4, 500 + seed)
            if len(connected_components(g)) != 1:
                continue
            d = diameter(g)
            assert graph_power(g, d).edges == complete_graph(7).edges

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            graph_power(cycle_graph(4), 0)

    def test_agrees_with_networkx(self):
        """networkx's `power` on a seeded corpus of G(n, p) graphs, trees,
        cycles and grids, connected or not, for k = 1 to 5."""
        nx = pytest.importorskip("networkx")
        corpus = [random_graph(rng.randrange(1, 18), rng.uniform(0.05, 0.5), seed)
                  for seed, rng in ((seed, random.Random(seed)) for seed in range(40))]
        corpus += [from_networkx(nx, nx.random_labeled_tree(n, seed=n), n) for n in (2, 9, 25)]
        corpus += [cycle_graph(n) for n in (3, 7, 30)]
        corpus += [from_networkx(nx, nx.grid_2d_graph(4, 6), 1), path_graph(12)]
        for g in corpus:
            reference = nx.Graph(list(g.edges))
            reference.add_nodes_from(range(g.n))
            for k in range(1, 6):
                expected = {(min(a, b), max(a, b)) for a, b in nx.power(reference, k).edges}
                assert graph_power(g, k).edges == expected, (g.n, sorted(g.edges), k)


class TestMultigraph:
    def test_stable_edge_ids(self):
        mg = Multigraph(range(3), [(0, 1), (1, 2)])
        e = mg.add_edge(0, 2)
        mg.remove_edge(0)
        assert mg.other_end(e, 0) == 2 and mg.other_end(e, 2) == 0
        e2 = mg.add_edge(0, 1)
        assert e2 > e

    def test_remove_vertex_requires_isolation(self):
        mg = Multigraph(range(2), [(0, 1)])
        with pytest.raises(ValueError):
            mg.remove_vertex(0)

    def test_no_loops(self):
        mg = Multigraph(range(2))
        with pytest.raises(ValueError):
            mg.add_edge(1, 1)

    def test_incidence_map_matches_edge_list(self):
        """Random add/remove sequences with parallel edges: every query
        agrees with a scan of the edge list, and the connectivity primitives
        agree with a freshly built copy."""
        indexed = 0
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(3, 7)
            mg = Multigraph(range(n))
            alive, edges = set(range(n)), {}
            for _ in range(60):
                roll = rng.random()
                if roll < 0.6 and len(alive) >= 2:
                    u, v = rng.sample(sorted(alive), 2)
                    edges[mg.add_edge(u, v)] = (u, v)
                elif roll < 0.85 and edges:
                    eid = rng.choice(sorted(edges))
                    mg.remove_edge(eid)
                    del edges[eid]
                elif len(alive) > 2:
                    x = rng.choice(sorted(alive))
                    if any(x in ends for ends in edges.values()):
                        with pytest.raises(ValueError):
                            mg.remove_vertex(x)
                    else:
                        mg.remove_vertex(x)
                        alive.remove(x)
                tuples = mg.edge_tuples()
                assert tuples == [(eid, u, v) for eid, (u, v) in sorted(edges.items())]
                assert mg.vertices == alive and mg.n == len(alive) and mg.m == len(edges)
                for x in alive:
                    at_x = [eid for eid, u, v in tuples if x in (u, v)]
                    assert mg.incident(x) == at_x
                for eid, u, v in tuples:
                    assert mg.other_end(eid, u) == v and mg.other_end(eid, v) == u
                    for x in alive - {u, v}:
                        with pytest.raises(ValueError):
                            mg.other_end(eid, x)
                fresh = Multigraph(sorted(alive), [(u, v) for _, u, v in tuples])
                assert is_biconnected(mg) == is_biconnected(fresh)
                if len(alive) >= 3 and is_biconnected(mg):
                    assert leaf_side(mg) == leaf_side(fresh)
                    indexed += 1
        assert indexed > 100
