import random
from collections import Counter
from itertools import combinations

import pytest

from quadparts.graphs import (
    Multigraph,
    SimpleGraph,
    bfs_parents,
    graph_power,
    has_three_paths,
    induced_is_connected,
    is_biconnected,
    separation_index,
)
from quadparts.oracle import is_nearly_connected

from .support import complete_graph, connected_components, cycle_graph, diameter, logged, path_graph


def brute_biconnected(g: SimpleGraph) -> bool:
    """Independent oracle: connected, and still connected after deleting any
    one vertex."""
    if g.n < 2:
        return False
    if len(connected_components(g)) != 1:
        return False
    return all(len(connected_components(g, removed={v})) <= 1 for v in range(g.n))


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


def brute_smallest_cut(vertices, pairs):
    """Lexicographic scan of all vertex pairs: a pair replaces the incumbent
    only when its smallest side (lowest vertex on equal orders) is strictly
    smaller."""
    best = None
    for u, v in combinations(sorted(vertices), 2):
        comps = brute_components(set(vertices) - {u, v}, pairs)
        if len(comps) >= 2:
            side = min(comps, key=lambda c: (len(c), min(c)))
            if best is None or len(side) < len(best[1]):
                best = ((u, v), side)
    return best


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
    def test_c4(self):
        pair, comp = separation_index(cycle_graph(4)).smallest
        assert pair == (0, 2)
        assert comp == frozenset({1})

    def test_k4_is_3connected(self):
        assert separation_index(complete_graph(4)).smallest is None

    def test_theta_of_short_paths(self):
        # three internally disjoint length-2 paths between 0 and 1
        g = SimpleGraph.from_edges(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
        pair, comp = separation_index(g).smallest
        assert pair == (0, 1)
        assert len(comp) == 1

    def test_minimality_exhaustive(self):
        for n in (5, 6, 7, 8):
            for seed in range(25):
                g = random_graph(n, 0.45, 77 * n + seed)
                if not is_biconnected(g):
                    continue
                pairs = g.sorted_edges()
                assert separation_index(g).smallest == brute_smallest_cut(range(n), pairs), (n, seed)
                # the same block as a multigraph: reversed, spread-out ids and doubled edges
                name = {v: 3 * (n - 1 - v) + 2 for v in range(n)}
                moved = [(name[a], name[b]) for a, b in pairs]
                mg = Multigraph(name.values(), moved + moved[::3])
                assert separation_index(mg).smallest == brute_smallest_cut(name.values(), moved), (n, seed)


class TestSeparationIndexAgainstNetworkx:
    def test_random_cycle_multigraphs(self):
        nx = pytest.importorskip("networkx")
        for n in range(3, 10):
            for seed in range(40):
                mg = random_cycle_multigraph(n, 100 * n + seed)
                edges = mg.edge_tuples()
                index = separation_index(mg)
                simple = nx.Graph([(u, v) for _, u, v in edges])
                sides = {}  # each 2-cut, in lexicographic order, with its least (order, min) component
                for u, v in combinations(range(n), 2):
                    comps = list(nx.connected_components(simple.subgraph(set(range(n)) - {u, v})))
                    if len(comps) > 1:
                        sides[u, v] = frozenset(min(comps, key=lambda c: (len(c), min(c))))
                assert index.in_cut == {x for pair in sides for x in pair}, (n, seed)
                least = min((len(side) for side in sides.values()), default=None)
                smallest = next(((pair, side) for pair, side in sides.items() if len(side) == least), None)
                assert index.smallest == smallest, (n, seed)
                assert is_biconnected(mg) and nx.is_biconnected(nx.MultiGraph(simple))
                for eid, _, _ in edges:
                    rest = [(u, v) for e, u, v in edges if e != eid]
                    block = nx.is_biconnected(nx.MultiGraph(rest))
                    assert is_biconnected(Multigraph(range(n), rest)) == block, (n, seed, eid)
                    assert (eid in index.fixed_edges) == (not block), (n, seed, eid)
                for v in range(n):
                    alive = set(range(n)) - {v}
                    rest = [(a, b) for _, a, b in edges if v not in (a, b)]
                    block = nx.is_biconnected(nx.MultiGraph(rest))
                    assert is_biconnected(Multigraph(alive, rest)) == block, (n, seed, v)
                    if n >= 4:
                        assert (v in index.in_cut) == (not block), (n, seed, v)


class TestThreePaths:
    def test_agrees_with_networkx_on_non_adjacent_pairs(self):
        """Both routes of has_three_paths against networkx: three common
        neighbours settle a pair at once, one or two leave a search in g
        minus them, and with none the search runs in g.  Random 3-regular
        graphs give pairs where no common neighbour helps."""
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.connectivity import build_auxiliary_node_connectivity, local_node_connectivity
        from networkx.algorithms.flow import build_residual_network

        graphs = []
        for seed in range(250):
            rng = random.Random(seed)
            graphs.append(random_graph(rng.randint(4, 10), rng.uniform(0.3, 0.9), seed))
        for seed in range(24):
            cubic = nx.random_regular_graph(3, 8 + 2 * (seed % 12), seed)
            graphs.append(SimpleGraph.from_edges(cubic.number_of_nodes(), cubic.edges))
        routes: Counter[tuple[int, bool]] = Counter()  # (common neighbours up to 3, verdict)
        for i, g in enumerate(graphs):
            n, adj, edges = g.n, g.adj(), g.sorted_edges()
            simple = nx.Graph(edges)
            simple.add_nodes_from(range(n))
            mg = Multigraph(range(n), edges + edges[::2])  # parallel edges add no disjoint path
            aux = build_auxiliary_node_connectivity(simple)
            flows = {"auxiliary": aux, "residual": build_residual_network(aux, "capacity"), "cutoff": 3}
            for a, b in combinations(range(n), 2):
                if (a, b) in g.edges:
                    continue
                expected = local_node_connectivity(simple, a, b, **flows) >= 3
                assert has_three_paths(g, a, b) == expected, (i, a, b)
                assert has_three_paths(mg, b, a) == expected, (i, a, b)
                routes[min(len(set(adj[a]) & set(adj[b])), 3), expected] += 1
        for route, least in {(3, True): 300, (2, True): 150, (2, False): 100, (1, True): 500,
                             (1, False): 300, (0, True): 1300, (0, False): 300}.items():
            assert routes[route] > least, (route, routes[route])


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
                adj, fragment = g.adj(), logged(sorted(g.edges))[0]
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
                    index, again = separation_index(mg), separation_index(fresh)
                    assert (index.in_cut, index.smallest) == (again.in_cut, again.smallest)
                    assert index.fixed_edges == {tuples[i][0] for i in again.fixed_edges}
                    indexed += 1
        assert indexed > 100
