import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadparts
from quadparts.families import random_2connected, spider, subdivided_k4
from quadparts.graphs import SimpleGraph, graph_power, induced_is_connected
from quadparts.oracle import (
    InstanceTooLarge,
    brute_force_partition,
    has_kr_factor,
    is_nearly_connected,
    verify_partition,
)

from .support import complete_graph, cycle_graph, path_graph, seeded_clique_cover


class TestNearlyConnected:
    def test_star_leaves_need_the_center(self):
        g = SimpleGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        assert is_nearly_connected(g, {1, 2, 3, 4}) == frozenset(range(5))

    def test_split_path_has_no_witness(self):
        assert is_nearly_connected(path_graph(6), {0, 1, 4, 5}) is None

    def test_connected_set_is_its_own_witness(self):
        g = cycle_graph(3)
        assert is_nearly_connected(g, {0, 1, 2}) == frozenset({0, 1, 2})

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            is_nearly_connected(cycle_graph(4), set())
        with pytest.raises(ValueError):
            is_nearly_connected(cycle_graph(4), {9})

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(5, 10), st.integers(2, 4))
    def test_witnessed_sets_are_cliques_in_the_matching_power(self, seed, n, size):
        g = random_2connected(n, seed)
        rng = random.Random(seed + 1)
        a = frozenset(rng.sample(range(n), size))
        if is_nearly_connected(g, a) is None:
            return
        power = graph_power(g, len(a)).edges
        assert all((x, y) in power for x, y in combinations(sorted(a), 2))

    def test_same_witness_as_trying_every_vertex(self):
        """Trying only neighbours of the set as the extra vertex finds the
        witness that trying every vertex in ascending order finds."""
        def every_vertex(g, part):
            if induced_is_connected(g, part):
                return part
            for x in range(g.n):
                if x not in part and induced_is_connected(g, part | {x}):
                    return part | {x}
            return None

        found = 0
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(2, 9)
            p = rng.random()
            g = SimpleGraph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            for size in range(1, n + 1):
                part = frozenset(rng.sample(range(n), size))
                expected = every_vertex(g, part)
                assert is_nearly_connected(g, part) == expected, (seed, sorted(part))
                found += expected is not None and expected != part
        assert found > 100


class TestVerifyPartition:
    def test_c4_single_part(self):
        assert verify_partition(cycle_graph(4), [[0, 1, 2, 3]]).ok

    def test_c8_arcs(self):
        assert verify_partition(cycle_graph(8), [[0, 1, 2, 3], [4, 5, 6, 7]]).ok

    def test_c8_alternating_fails(self):
        res = verify_partition(cycle_graph(8), [[0, 2, 4, 6], [1, 3, 5, 7]])
        assert not res.ok
        assert any("not nearly connected" in p for p in res.problems)

    def test_overlap_and_coverage_reported(self):
        res = verify_partition(cycle_graph(8), [[0, 1, 2, 3], [3, 4, 5, 6]])
        assert not res.ok
        assert any("overlap" in p for p in res.problems)
        assert any("not covered" in p for p in res.problems)

    def test_size_mismatch(self):
        res = verify_partition(cycle_graph(8), [[0, 1, 2], [3, 4, 5, 6, 7]])
        assert not res.ok
        res2 = verify_partition(cycle_graph(8), [[0, 1, 2], [3, 4, 5, 6, 7]], [3, 5])
        assert res2.ok

    def test_expected_size_mismatch_is_reported(self):
        res = verify_partition(cycle_graph(8), [[0, 1, 2, 3], [4, 5, 6, 7]], [3, 5])
        assert not res.ok
        assert res.problems == ("part sizes [4, 4] do not match expected [3, 5]",)

    def test_empty_part_is_reported(self):
        res = verify_partition(cycle_graph(8), [[0, 1, 2, 3], [], [4, 5, 6, 7]])
        assert not res.ok
        assert res.problems == ("part 1 is empty",)
        assert len(res.witnesses) == 2

    @pytest.mark.parametrize("stray", [8, -1])
    def test_unknown_vertex_is_reported_not_raised(self, stray):
        res = verify_partition(cycle_graph(8), [[0, 1, 2, 3], [4, 5, 6, stray]])
        assert not res.ok
        assert res.problems == ("vertices not covered: [7]", f"unknown vertices in parts: [{stray}]")
        assert len(res.witnesses) == 1


class TestKrFactor:
    def test_k4(self):
        assert has_kr_factor(complete_graph(4), 4) == [frozenset({0, 1, 2, 3})]

    def test_indivisible_order(self):
        assert has_kr_factor(complete_graph(5), 4) is None

    def test_cube_of_subdivided_k4_has_none(self):
        g = subdivided_k4(4)
        assert has_kr_factor(graph_power(g, 3), 4) is None

    def test_sixth_power_of_spider_has_one(self):
        g = spider(4)
        factor = has_kr_factor(graph_power(g, 6), 4)
        assert factor is not None
        assert sorted(len(c) for c in factor) == [4, 4, 4, 4]

    def test_candidates_are_cliques(self):
        """The r = 2 factor of C6 is three disjoint edges of the cycle."""
        c6 = cycle_graph(6)
        factor = has_kr_factor(c6, 2)
        assert len(factor) == 3 and frozenset().union(*factor) == frozenset(range(6))
        assert all(tuple(sorted(c)) in c6.edges for c in factor)

    def test_agrees_with_exact_cover_on_powers(self):
        """The first powers of the sparser corpus hold inputs with no factor."""
        absent = set()
        for n, r, k in [(8, 4, 2), (8, 4, 3), (9, 3, 2), (12, 4, 2), (12, 3, 1),
                        (9, 3, 1), (12, 4, 1), (16, 4, 1)]:
            for seed in range(6):
                host = graph_power(random_2connected(n, 9000 + 13 * seed + n), k)
                via_cover = has_kr_factor(host, r)
                via_search = seeded_clique_cover(host, r)
                assert (via_cover is None) == (via_search is None), (n, r, k, seed)
                absent.add(via_cover is None)
                if via_cover is not None:
                    assert sorted(v for c in via_cover for v in c) == list(range(n))
                    assert all(pair in host.edges for c in via_cover
                               for pair in combinations(sorted(c), 2))
        assert absent == {False, True}

    def test_many_disjoint_cliques_need_no_recursion(self):
        """500 disjoint K4s give 500 cliques under a recursion limit below
        500, listed from their edges rather than from all C(2000, 4) sets of
        four vertices.  It runs in a child process, which the time limit can
        stop."""
        probe = ("import sys; from itertools import combinations; "
                 "from quadparts.graphs import SimpleGraph; from quadparts.oracle import has_kr_factor; "
                 "g = SimpleGraph.from_edges(2000, [(4 * i + a, 4 * i + b) for i in range(500) "
                 "for a, b in combinations(range(4), 2)]); "
                 "sys.setrecursionlimit(120); "
                 "print(has_kr_factor(g, 4) == [frozenset(range(4 * i, 4 * i + 4)) for i in range(500)])")
        env = dict(os.environ, PYTHONPATH=str(Path(quadparts.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=10)
        assert (out.returncode, out.stdout, out.stderr) == (0, "True\n", "")


class TestBruteForce:
    def test_disconnected_four_set(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        assert brute_force_partition(g, [4]) is None

    def test_path_single_part(self):
        assert brute_force_partition(path_graph(4), [4]) == [frozenset({0, 1, 2, 3})]

    def test_spider3_triples_do_not_exist(self):
        # four leaves pairwise at distance 4 cannot share 4-vertex subtrees,
        # so no nearly connected triple partition exists; this matches the
        # absence of a triangle factor in the cube
        g = spider(3)
        assert brute_force_partition(g, [3, 3, 3]) is None
        assert has_kr_factor(graph_power(g, 3), 3) is None

    def test_spider3_triples_with_relaxed_witnesses(self):
        # the connected-graph construction still succeeds because its
        # subtree bound is 2*3-1 = 5 rather than 4
        from quadparts.treepart import partition_tree

        g = spider(3)
        parts = partition_tree(g, [3, 3, 3])
        assert sorted(len(p.members) for p in parts) == [3, 3, 3]
        assert all(len(p.witness) <= 5 for p in parts)

    def test_size_limit(self):
        g = cycle_graph(20)
        with pytest.raises(InstanceTooLarge):
            brute_force_partition(g, [4] * 5)
        assert brute_force_partition(g, [4] * 5, force=True) is not None

    def test_spider_power_thresholds(self):
        for r in (3, 4):
            g = spider(r)
            assert has_kr_factor(graph_power(g, 2 * r - 3), r) is None
            assert has_kr_factor(graph_power(g, 2 * r - 2), r) is not None
