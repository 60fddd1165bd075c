import ast
import gc
import inspect
import json
import random
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from quadparts import graphs
from quadparts.engine import driver, local, model
from quadparts.engine import (
    EngineBug,
    LabeledMultigraph,
    find_reduction,
    init_labeled,
    leaf_gadget,
    partition_2connected,
    partition_with_trace,
)
from quadparts.engine.driver import apply_reduction
from quadparts.engine.local import Local, group
from quadparts.engine.model import (BoundTree, EdgeView, Gadget, Realization, Split, ask, from_parents, fuse, graft,
                                   single)
from quadparts.families import enumerate_2connected, random_2connected, random_corpus, subdivided_k4, theta
from quadparts.graphs import SimpleGraph, is_biconnected, leaf_side, norm_edge
from quadparts.labels import CATALOG, S0, TreeSet
from quadparts.oracle import verify_partition

from . import sweeps
from .support import (AdjacencyFragment, StubGadget, TreeShape, all_ops, cascade_counts, circulant, complete_graph,
                      cubic_block, cycle_graph, dense_block, equal_theta, fragment_edges, grid, leaf_side_holds, logged,
                      path_graph, primitive_visits, prism, relabelled, scanned_degree2_vertex, scanned_l31_away,
                      scanned_parallel_pair, scanned_zero_counts, spanned, sparse_block, stub_edge, summed_weight,
                      tree_of)
from .support import fits as shape_fits

DATA = Path(__file__).parent / "data"


class TestInit:
    def test_rejects_wrong_order(self):
        with pytest.raises(ValueError, match="divisible by 4"):
            init_labeled(cycle_graph(6))

    def test_rejects_non_2connected(self):
        with pytest.raises(ValueError, match="2-connected"):
            init_labeled(path_graph(4))

    def test_all_edges_start_empty_weight(self):
        lg = init_labeled(cycle_graph(4))
        assert all(le.label.name == "L0" for le in lg.edges.values())
        assert lg.invariant_ok()

    def test_a_leaf_names_itself_only_when_it_traps(self):
        """A leaf stores no provenance string; a trap reads `leaf(u,v)` off
        its kind and ends."""
        leaf = leaf_gadget(3, 5)
        assert leaf.kind == "leaf" and leaf.tag is None
        with pytest.raises(EngineBug, match="does not allow") as trap:
            model.drive(ask(EdgeView(leaf, 5, 0), model.Subdivide(1)), [])
        assert trap.value.provenance == "leaf(3,5)"


def _local(edges, tag: str = "caller") -> Local:
    """A Local over one child whose span holds `edges`."""
    return Local(tag, *logged(edges))


def _fragment(edges):
    """The Fragment a Local builds over one child whose span holds `edges`."""
    return _local(edges).fragment


class TestLocalGrouping:
    """The closing protocol of the lifts: :class:`Local` and the search under it."""

    PATH8 = [(i, i + 1) for i in range(7)]
    SPLIT = [(0, 1), (2, 3)]  # two components: {0,1,2,3} has no witness

    def test_group_finds_the_canonical_grouping(self):
        canonical = (frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7}))
        assert group(_fragment(self.PATH8), range(8)) == canonical
        assert group(_fragment(self.PATH8), []) == ()
        loc = _local(self.PATH8)
        assert loc.group(range(8)) and loc.group([])
        assert tuple(loc.parts) == canonical

    def test_group_uses_one_extra_vertex(self):
        # 0 and 2 are joined through 1, which is outside the pool
        assert group(_fragment(self.PATH8), {0, 2, 3, 4}) == (frozenset({0, 2, 3, 4}),)
        loc = _local(self.PATH8)
        assert loc.group({0, 2, 3, 4}) and loc.parts == [frozenset({0, 2, 3, 4})]

    def test_group_returns_none_on_bad_size(self):
        for pool in ({0, 1, 2}, range(6)):
            assert group(_fragment(self.PATH8), pool) is None
            loc = _local(self.PATH8)
            assert not loc.group(pool) and loc.parts == []

    def test_group_returns_none_without_grouping(self):
        for edges, pool in ((self.SPLIT, {0, 1, 2, 3}), (self.PATH8, {0, 1, 6, 7})):
            assert group(_fragment(edges), pool) is None
            loc = _local(edges)
            assert not loc.group(pool) and loc.parts == []

    def test_finalize_traps_with_provenance(self):
        with pytest.raises(EngineBug, match="not a multiple of 4") as info:
            _local(self.PATH8, "caller[size]").finalize({0, 1, 2})
        assert info.value.provenance == "caller[size]"
        with pytest.raises(EngineBug, match="no nearly connected grouping") as info:
            _local(self.SPLIT, "caller[group]").finalize({0, 1, 2, 3})
        assert info.value.provenance == "caller[group]"

    def test_finalize_agrees_with_group(self):
        loc = _local(self.PATH8)
        loc.finalize(range(8))
        assert tuple(loc.parts) == group(_fragment(self.PATH8), range(8))

    def test_finalize_closes_one_4set_or_traps(self):
        """A 4-set has one candidate grouping, itself: finalize closes it as
        one part when it is nearly connected in the fragment, else traps."""
        loc = _local(self.PATH8 + self.SPLIT, "caller[4set]")
        for members in ({0, 1, 6, 7}, {0, 1, 2, 9}):
            with pytest.raises(EngineBug, match="no nearly connected grouping") as info:
                loc.finalize(members)
            assert info.value.provenance == "caller[4set]"
        loc.finalize({0, 2, 3, 4})
        assert loc.parts == [frozenset({0, 2, 3, 4})]

    def test_parts_are_the_lifts_own_in_call_order(self):
        """The fragment is the span of the children's fragments, in any
        order, and nothing else: a tree edge missing from its child's
        fragment stays out, and so do the edges logged just before and after
        them; drive, not the Local, gives the lift's realization its own.  The
        parts are whatever the lift finalized, in call order; the children's
        parts are drive's to record and stay out too."""
        before, left_edges, right_edges, after = logged([(2, 9)], [(0, 1), (1, 2), (2, 3)],
                                                         [(4, 5), (5, 6), (6, 7), (3, 4)], [(9, 4)])
        left = spanned(left_edges, parts=(frozenset({20, 21, 22, 23}),),
                       p_tree=tree_of(0, ((0, 1), (1, 2), (2, 9))), q_tree=single(9))
        right = spanned(right_edges, parts=(frozenset({30, 31, 32, 33}), frozenset({24, 25, 26, 27})),
                        subdiv=(5, 6))
        loc = Local("caller", right, left)
        assert (loc.fragment.start, loc.fragment.end) == (left_edges.start, right_edges.end)
        assert loc.fragment[9] == [] and loc.fragment[3] == [2, 4] and loc.fragment[4] == [3, 5]
        loc.finalize({4, 5, 6, 7})
        loc.finalize({0, 1, 2, 3})
        real = loc.done(subdiv=(8,))
        assert real.parts == (frozenset({4, 5, 6, 7}), frozenset({0, 1, 2, 3}))
        assert real.log is None and real.edges == () and real.subdiv == (8,)
        assert real.p_tree is None and real.q_tree is None

    def test_span_is_a_breadth_first_tree_of_the_fragment(self):
        loc = _local([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)], "caller[span]")
        tree = loc.span(0, {0, 1, 2, 3}, {2})
        assert tree.edges == ((0, 1), (0, 2), (1, 3)) and tree.dummies == {2}
        assert loc.done(tree, single(4)).p_tree == tree
        for root, vertices in ((0, {0, 4}), (9, {9, 0})):
            with pytest.raises(EngineBug, match="cannot span") as info:
                loc.span(root, vertices)
            assert info.value.provenance == "caller[span]"

    def test_far_tree_spans_a_subdivided_child(self):
        """A subdivided child v -> 9 hands v, its path and the extra vertices
        to a tree spanned from the head; nothing is finalized.  With
        `dummy_v` the tree holds v as a dummy."""
        child = spanned(logged([(0, 5), (5, 9), (0, 3)])[0], subdiv=(5,))
        for extra, edges in (((), ((9, 5), (5, 0))), ((3,), ((9, 5), (5, 0), (0, 3)))):
            for dummy_v, dummies in ((False, set()), (True, {0})):
                loc = Local("caller", child)
                tree = loc.far_tree(child, 0, 9, *extra, dummy_v=dummy_v)
                assert tree.root == 9 and tree.edges == edges and loc.parts == []
                assert tree.dummies == dummies

    def test_far_tree_closes_a_split_child(self):
        """A split child v -> 9 closes its tail tree with v and the extra
        vertices into 4-sets, and its head tree serves the far side.  With
        `dummy_v` the tail tree closes with the extra vertices but not v."""
        head = tree_of(9, ((9, 8),))
        fragment = [(0, 1), (1, 2), (2, 3), (3, 4), (8, 9)]
        for tail, extra, dummy_v, part in ((tree_of(0, ((0, 1), (1, 2), (2, 3))), (), False, {0, 1, 2, 3}),
                                           (tree_of(0, ((0, 1), (1, 2))), (3,), False, {0, 1, 2, 3}),
                                           (tree_of(0, ((0, 1), (1, 2), (2, 3), (3, 4))), (), True, {1, 2, 3, 4}),
                                           (tree_of(0, ((0, 1), (1, 2), (2, 3))), (4,), True, {1, 2, 3, 4})):
            child = spanned(logged(fragment)[0], p_tree=tail, q_tree=head)
            loc = Local("caller", child)
            assert loc.far_tree(child, 0, 9, *extra, dummy_v=dummy_v) is head
            assert loc.parts == [frozenset(part)]

    def test_keep_picks_the_first_subset_that_closes(self):
        fan = _local([(0, x) for x in range(1, 6)])
        assert fan.keep(0, 1, range(1, 6)) == {1} and fan.parts == [frozenset({2, 3, 4, 5})]
        # {0} would leave a grouping but is not connected to 4; {5} is
        loc = _local(self.PATH8)
        assert loc.keep(4, 1, {0, 1, 2, 3, 5}) == {5} and loc.parts == [frozenset({0, 1, 2, 3})]
        assert _local(self.PATH8).keep(0, 2, range(1, 7)) == {1, 2}

    def test_keep_traps_with_provenance(self):
        loc = _local(self.PATH8, "caller[keep]")
        with pytest.raises(EngineBug, match="no way to keep a 1-vertex subtree at 0") as info:
            loc.keep(0, 1, {2, 3, 4, 5, 6})
        assert info.value.provenance == "caller[keep]" and loc.parts == []


    def test_children_must_make_one_span(self):
        """Children realized one after the other abut in the log, in any
        order; a gap, an overlap, a repeated child or another log traps."""
        a, b, c = logged([(0, 1)], [(1, 2)], [(2, 3)])
        (elsewhere,) = logged([(1, 2)])
        empty = logged([(0, 1)], [])[1]
        assert Local("ok", c, a, b).fragment[2] == [1, 3]
        for children in ((a, c), (a, a), (a, elsewhere), (Realization(),), ()):
            with pytest.raises(EngineBug, match="do not make one span") as info:
                Local("caller[abut]", *children)
            assert info.value.provenance == "caller[abut]"
        assert Local("ok", empty).fragment[0] == []


class TestFragmentOracle:
    def test_abutting_spans_answer_like_one_adjacency(self):
        """Random edge sets cut into abutting child spans, with sibling
        edges logged just before and after them, answer `witness_for` and
        `Local.span` exactly as one whole adjacency of the children's edges
        does."""
        rng = random.Random(20)
        answers = Counter()
        for trial in range(300):
            n = rng.randint(2, 10)
            pairs = [p if rng.random() < 0.5 else p[::-1] for p in combinations(range(n), 2)]
            rng.shuffle(pairs)
            cut = rng.randint(0, len(pairs))
            edges, siblings = pairs[:cut], pairs[cut:]
            bounds = sorted(rng.choices(range(len(edges) + 1), k=rng.randint(0, 4)))
            chunks = [edges[i:j] for i, j in zip([0, *bounds], [*bounds, len(edges)])]
            before = rng.randint(0, len(siblings))
            children = logged(siblings[:before], *chunks, siblings[before:])[1:-1]
            rng.shuffle(children)
            loc, oracle = Local("oracle", *children), AdjacencyFragment(edges)
            for _ in range(20):
                vs = frozenset(rng.sample(range(n + 1), rng.randint(1, min(5, n + 1))))
                root = rng.choice(sorted(vs))
                witness = oracle.witness_for(vs)
                assert loc.fragment.witness_for(vs) == witness, (trial, vs)
                parent = oracle.span_parents(root, vs)
                if parent.keys() == vs:
                    assert loc.span(root, vs) == from_parents(root, parent, frozenset()), (trial, vs)
                else:
                    with pytest.raises(EngineBug, match="cannot span"):
                        loc.span(root, vs)
                answers["spanned" if parent.keys() == vs else "unspanned"] += 1
                answers["witnessed" if witness is not None else "unwitnessed"] += 1
        assert min(answers.values()) > 500, answers


class TestClosingProtocol:
    def test_case_modules_close_only_through_local(self):
        """The case lifts construct no Realization or Fragment themselves,
        read no fragment and take their vocabulary from engine/local.py
        alone: how a lift closes is decided there.  They request no child
        realization by a call either: every request is yielded to the
        explicit-stack driver."""
        engine = Path(inspect.getfile(Local)).parent
        for name in ("series.py", "parallel.py", "reducible.py"):
            tree = ast.parse((engine / name).read_text(encoding="utf-8"))
            nodes = list(ast.walk(tree))
            called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                      for node in nodes if isinstance(node, ast.Call)}
            read = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            imported = {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
            imported |= {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
            assert "Local" in called, name
            assert not called & {"Realization", "Fragment", "request", "realize", "drive", "ask"}, name
            assert "fragment" not in read, name
            assert not any("caselib" in (module or "") for module in imported), name


def _random_tree(rng: random.Random, ids, root: int, budget: int, depth: int = 0) -> tuple[BoundTree, list[str]]:
    """A random tree rooted at `root` whose other vertices are fresh ids from
    `ids`, and the constructors that built it (outermost first).  Raw and
    spanned trees have at most `budget` vertices; composite constructors
    recurse on random inputs with smaller budgets."""
    kinds = ["single", "raw", "span"] + (["fuse", "graft", "dummies"] if depth < 3 else [])
    kind = rng.choice(kinds) if budget > 1 else "single"
    if kind == "single":
        return single(root), [kind]
    if kind in ("raw", "span"):
        vs = [root] + [next(ids) for _ in range(rng.randrange(budget))]
        edges = [(vs[rng.randrange(i)], vs[i]) for i in range(1, len(vs))]
        edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
        rng.shuffle(edges)
        dummies = frozenset(rng.sample(vs[1:], min(len(vs) - 1, rng.choice((0, 0, 1, 2)))))
        if kind == "raw":
            return tree_of(root, edges, dummies), [kind]
        extra = [tuple(rng.sample(vs, 2)) for _ in range(rng.randrange(len(vs)))] if len(vs) > 1 else []
        outside = [(rng.choice(vs), next(ids)) for _ in range(rng.randrange(3))]
        loc = _local(edges + extra + outside, "shape")
        return loc.span(root, set(vs), dummies), [kind]
    if kind == "fuse":
        parts = [_random_tree(rng, ids, root, rng.randint(1, budget - 1), depth + 1)
                 for _ in range(rng.randint(1, 3))]
        return fuse(*(t for t, _ in parts)), [kind, *(k for _, ks in parts for k in ks)]
    if kind == "graft":
        sub, ks = _random_tree(rng, ids, next(ids), budget - 1, depth + 1)
        x = rng.choice(sorted(sub.vertices))
        return graft(root, rng.choice([(root, x), (x, root)]), sub), [kind, *ks]
    tree, ks = _random_tree(rng, ids, root, budget, depth + 1)
    extra = rng.sample(sorted(tree.vertices - {root}), min(tree.order - 1, rng.choice((0, 1, 1, 2))))
    return tree.with_dummies(set(extra)), [kind, *ks]


class TestBoundTreeShape:
    def test_carried_shape_matches_a_recomputation(self):
        """Seeded random trees from every constructor: the carried vertex
        set, actives, order, child subtree sizes and root children equal a
        networkx recomputation from the edges, and `fits` agrees with the
        slot-level membership test for every tree set."""
        nx = pytest.importorskip("networkx")
        rng = random.Random(12)
        built = Counter()
        fitted = Counter()
        for _ in range(600):
            ids = iter(rng.sample(range(100_000), 500))
            tree, kinds = _random_tree(rng, ids, next(ids), rng.randint(1, 7))
            built.update(kinds)
            g = nx.Graph(tree.edges)
            g.add_node(tree.root)
            assert nx.is_tree(g) and g.number_of_edges() == len(tree.edges)
            vertices = frozenset(g)
            children = sorted(g[tree.root])
            sizes = sorted(len(c) for c in nx.connected_components(g.subgraph(vertices - {tree.root})))
            assert tree.vertices == vertices and tree.order == len(vertices), kinds
            assert tree.actives == vertices - tree.dummies, kinds
            assert list(tree.child_subtree_sizes) == sizes and tree.root_children() == children, kinds
            slots = [tree.root] + sorted(vertices - {tree.root})
            slot = {v: i for i, v in enumerate(slots)}
            parent = dict(nx.bfs_predecessors(g, tree.root))
            shape = TreeShape(tuple(slot[parent[v]] if v != tree.root else None for v in slots),
                              frozenset(slot[d] for d in tree.dummies))
            for ts in TreeSet:
                assert tree.fits(ts) == shape_fits(shape, ts), (kinds, ts)
                fitted[ts] += tree.fits(ts)
        assert min(built[k] for k in ("single", "raw", "span", "fuse", "graft", "dummies")) >= 50, built
        assert all(fitted[ts] for ts in TreeSet), fitted


class TestBoundTreeTraps:
    """Each trap of the tree constructors fires where a composition would
    break a tree: no tree is built from raw edges."""

    PATH = tree_of(0, ((0, 1), (1, 2)))

    @pytest.mark.parametrize("message, build", [
        ("root cannot be a dummy", lambda: TestBoundTreeTraps.PATH.with_dummies({0})),
        ("dummy markers outside", lambda: TestBoundTreeTraps.PATH.with_dummies({5})),
    ], ids=["dummy_root", "dummy_outside"])
    def test_tree_traps(self, message, build):
        with pytest.raises(EngineBug, match=message):
            build()

    def test_graft_traps_a_bridge_that_does_not_join_the_subtree(self):
        """The bridge must join the new root, outside the subtree, to a
        vertex of the subtree; every other bridge traps."""
        for new_root, bridge in ((5, (0, 1)), (5, (5, 7)), (5, (7, 5)), (5, (5, 5)), (0, (0, 1)), (2, (1, 2))):
            with pytest.raises(EngineBug, match=rf"graft needs a bridge from {new_root}, outside the subtree"):
                graft(new_root, bridge, self.PATH)
        tree = graft(5, (2, 5), self.PATH)
        assert tree == tree_of(5, ((2, 5), (0, 1), (1, 2)))
        assert tree.vertices == {0, 1, 2, 5} and tree.root_children() == [2] and tree.child_subtree_sizes == (3,)

    def test_fuse_traps(self):
        with pytest.raises(EngineBug, match="common root"):
            fuse(single(0), single(1))
        with pytest.raises(EngineBug, match=r"meet only at the root, they share \[1\]"):
            fuse(tree_of(0, ((0, 1),)), self.PATH)
        with pytest.raises(EngineBug, match=r"they share \[1, 2\]"):
            fuse(self.PATH, self.PATH)


class TestFindReduction:
    def test_c4_starts_with_a_contraction(self):
        lg = init_labeled(cycle_graph(4))
        assert find_reduction(lg) == ("series", (0,))

    def test_k4_starts_at_a_removable_vertex(self):
        """Every edge of K4 carries weight 0, so the lowest removable vertex
        is stripped of its lowest edge."""
        lg = init_labeled(complete_graph(4))
        assert find_reduction(lg) == ("strip", (0, 0))

    def test_parallel_has_priority(self):
        # two contractions of a 4-cycle leave a doubled edge
        lg = init_labeled(cycle_graph(4))
        apply_reduction(lg, ("series", (0,)))
        apply_reduction(lg, find_reduction(lg))
        kind, (e1, e2) = find_reduction(lg)
        assert kind == "parallel" and {lg.edges[e1].u, lg.edges[e1].v} == {lg.edges[e2].u, lg.edges[e2].v}

    def test_single_edge_traps(self):
        """One edge left is the base case, which the caller realizes; there
        is no reduction to choose."""
        lg = LabeledMultigraph(SimpleGraph.from_edges(2, [(0, 1)]))
        lg.install(leaf_gadget(0, 1))
        with pytest.raises(EngineBug, match="single edge is the base case"):
            find_reduction(lg)

    @pytest.mark.parametrize("away, step", [(1, ("strip", (0, 2))), (2, ("strip", (3, 2)))])
    def test_a_vertex_with_two_l31_edges_away_is_not_removable(self, away, step):
        """On K5 with L1 edges, 0 reads L31 on its edge to 1 (stored L31
        from 0), and with `away` 2 also on its edge to 2 (stored L32 from
        2); 0-3 and 3-4 carry weight 0.  With one L31 away, 0 is stripped of
        edge 2 (0-3); with two, 0 is skipped and 3 is stripped of it."""
        g = complete_graph(5)
        lg = LabeledMultigraph(g)
        labels = {(0, 1): "L31", (0, 3): "L0", (3, 4): "L0"}
        for u, v in g.sorted_edges():
            if (u, v) == (0, 2) and away == 2:
                lg.install(stub_edge(CATALOG["L32"], 2, 0))
            else:
                lg.install(stub_edge(CATALOG[labels.get((u, v), "L1")], u, v))
        assert lg.l31_away[0] == away and find_reduction(lg) == step

    def test_strip_picks_read_no_view(self, monkeypatch):
        """A strip is picked from the graph's counts: no call of
        find_reduction that returns one reads an edge through a view."""
        views, strips = [], []
        real_view, real_find = LabeledMultigraph.view, driver.find_reduction

        def view(lg, eid, tail):
            views.append(eid)
            return real_view(lg, eid, tail)

        def find(lg):
            views.clear()
            step = real_find(lg)
            if step[0] == "strip":
                strips.append(list(views))
            return step

        monkeypatch.setattr(LabeledMultigraph, "view", view)
        monkeypatch.setattr(driver, "find_reduction", find)
        partition_with_trace(dense_block(16, 1))
        assert len(strips) == 42 and not any(strips)

    def test_unknown_kind_traps(self):
        lg = init_labeled(cycle_graph(4))
        with pytest.raises(EngineBug, match=r"cannot apply reduction step \('contract', \(0,\)\)"):
            apply_reduction(lg, ("contract", (0,)))


class TestCarriedSeparationIndex:
    def test_matches_a_fresh_index_under_random_rewrites(self):
        """Random edge deletions and additions, vertex removals, series
        contractions and parallel merges on 3-connected blocks: the index
        equals a fresh `leaf_side` and meets the networkx oracle, also when
        it was carried across vertex removals.  Odd seeds consult it where
        find_reduction would (a simple block of minimum degree 3), even
        seeds at every simple block."""
        nx = pytest.importorskip("networkx")
        carried = rebuilt_after_deletions = carried_after_vertex_removal = 0
        for seed in range(100):
            rng = random.Random(seed)
            g = dense_block(rng.randint(6, 11), seed)
            lg = LabeledMultigraph(g)
            for u, v in g.sorted_edges():
                lg.install(leaf_gadget(u, v))
            if leaf_side(lg) is not None:
                continue
            vertex_gone = False  # since the last index with no 2-cut
            for _ in range(40):
                roll = rng.random()
                v, pair = lg.degree2_vertex(), lg.parallel_pair()
                ends = [lg.other_end(eid, v) for eid in lg.incident(v)] if v is not None else []
                if roll < 0.5 and len(set(ends)) == 2 and lg.n > 4:
                    (ea, eb), (a, b) = lg.incident(v), ends
                    lg.remove_labeled(ea)
                    lg.remove_labeled(eb)
                    lg.remove_vertex(v)
                    lg.install(leaf_gadget(a, b))
                    vertex_gone = True
                elif roll < 0.55 and pair is not None:
                    gadget = lg.edges[pair[0]]
                    lg.remove_labeled(pair[0])
                    lg.remove_labeled(pair[1])
                    lg.install(leaf_gadget(gadget.u, gadget.v))
                elif roll < 0.75 and lg.edges:
                    lg.remove_labeled(rng.choice(lg.edge_ids()))
                elif roll < 0.97:
                    lg.install(leaf_gadget(*rng.sample(sorted(lg.vertices), 2)))
                elif lg.n > 4:
                    x = rng.choice(sorted(lg.vertices))
                    for eid in lg.incident(x):
                        lg.remove_labeled(eid)
                    lg.remove_vertex(x)
                    vertex_gone = True
                pairs = [(min(u, v), max(u, v)) for _, u, v in lg.edge_tuples()]
                if lg.n < 4 or len(set(pairs)) < len(pairs) or not is_biconnected(lg):
                    continue
                if seed % 2 and lg.degree2_vertex() is not None:
                    continue
                touched = lg._touched
                index, fresh = lg.separation_index(), leaf_side(lg)
                assert index == fresh, seed
                assert leaf_side_holds(nx, pairs, index), seed
                if touched:
                    carried += fresh is None
                    rebuilt_after_deletions += fresh is not None
                    carried_after_vertex_removal += vertex_gone and fresh is None
                if fresh is None:
                    vertex_gone = False
        assert carried > 200 and rebuilt_after_deletions > 50 and carried_after_vertex_removal > 40

    @pytest.mark.parametrize("seed", [11, 17])
    def test_rebuilds_only_where_a_2_cut_is_or_was(self, monkeypatch, seed):
        """On a sparse block of 128 vertices, every full rebuild after the
        first either finds a 2-cut or follows a consultation that found one:
        no rebuild is spent on an index that could be carried.  Seed 17
        meets 2-cuts on the way, seed 11 none."""
        consultations: list[tuple[bool, bool]] = []  # (rebuilt, has a 2-cut)
        builds = []
        real_build, real_consult = model.leaf_side, LabeledMultigraph.separation_index

        def build(g):
            builds.append(g)
            return real_build(g)

        def consult(lg):
            before = len(builds)
            side = real_consult(lg)
            consultations.append((len(builds) > before, side is not None))
            return side

        monkeypatch.setattr(model, "leaf_side", build)
        monkeypatch.setattr(LabeledMultigraph, "separation_index", consult)
        g = sparse_block(128, seed)
        partition, _ = partition_with_trace(g)
        assert verify_partition(g, partition.member_sets()).ok
        assert consultations[0][0]
        for (_, cut_before), (rebuilt, cut) in zip(consultations, consultations[1:]):
            assert not rebuilt or cut or cut_before
        assert len(consultations) > 20 and len(builds) < len(consultations) // 2

    @pytest.mark.parametrize("inputs", ["golden_partitions.jsonl", "golden_deep.jsonl", "golden_regular.jsonl",
                                        "golden_dense.jsonl", "seeded"])
    def test_every_consultation_meets_the_oracle(self, monkeypatch, inputs):
        """Every consultation while partitioning the graphs of a fixture, or
        seeded relabelled prisms, Möbius ladders, grids, cylinders and cubic
        blocks, meets the networkx oracle: None exactly when the graph has
        no 2-cut, else a side whose split component has none.  Of the dense
        fixture only the blocks of order 24 run: each consultation there
        costs a flow computation per vertex, and the larger ones would take
        40 s.  The seeded shapes reach many sides."""
        nx = pytest.importorskip("networkx")
        real = LabeledMultigraph.separation_index
        outcomes: Counter[bool] = Counter()  # has a 2-cut

        def consult(lg):
            side = real(lg)
            assert leaf_side_holds(nx, [(u, v) for _, u, v in lg.edge_tuples()], side), lg.edge_tuples()
            outcomes[side is not None] += 1
            return side

        monkeypatch.setattr(LabeledMultigraph, "separation_index", consult)
        if inputs == "seeded":
            blocks = ([relabelled(prism(k), k) for k in range(6, 31, 2)]
                      + [relabelled(circulant(n, (1, n // 2)), n) for n in range(12, 61, 4)]
                      + [relabelled(grid(a, 4, wrap), a) for a in range(3, 8) for wrap in (False, True)]
                      + [cubic_block(24 + 4 * seed, seed) for seed in range(2)])
        else:
            records = [json.loads(line) for line in (DATA / inputs).read_text(encoding="utf-8").splitlines()]
            blocks = [SimpleGraph.from_edges(rec["n"], rec["edges"]) for rec in records
                      if inputs != "golden_dense.jsonl" or rec["n"] == 24]
        for g in blocks:
            partition_with_trace(g)
        assert outcomes[False] > 0 and (outcomes[True] > 100 or inputs != "seeded"), outcomes

    def test_prism_index_visits_at_most_200_per_vertex(self):
        """Over one partition of a relabelled prism on 400 vertices, the
        separation-pair tests and the depth-first searches visit at most 200
        vertices per vertex of the input: each consultation with a 2-cut
        descends through split components that shrink, rather than searching
        the whole graph once per vertex."""
        g = relabelled(prism(200), 1)
        with primitive_visits() as visits:
            partition_with_trace(g)
        assert sum(visits.values()) <= 200 * g.n, visits


class TestCascadeCost:
    @pytest.mark.parametrize("g", [cycle_graph(400), relabelled(sparse_block(128, 3), 3)],
                             ids=["cycle400", "sparse128"])
    def test_each_realization_reads_its_label_once_and_each_lift_builds_one_fragment(self, g):
        """Starting and checking a split realization reads its label once:
        start finds the witness pair and check is given it.  A realization
        carries its span of the edge log as two integers, so the only
        fragments built are those of the lifts' closing states, one each."""
        with cascade_counts() as counts:
            partition, _ = partition_with_trace(g)
        assert verify_partition(g, partition.member_sets()).ok
        assert counts["split realizations"] > 100 and counts["Locals"] > 100, counts
        assert counts["label reads"] <= counts["split realizations"], counts
        assert counts["Fragments"] <= counts["Locals"], counts


def _random_rewrites(seeds):
    """Random edge deletions and additions, parallel edges and vertex
    removals on blocks with random labels: yields ``(seed, lg, removed,
    lost)`` after every mutation, with the vertices it removed and the
    pairs it left unjoined."""
    names = sorted(CATALOG)
    for seed in seeds:
        rng = random.Random(seed)
        g = dense_block(rng.randint(5, 10), seed)
        lg = LabeledMultigraph(g)
        for u, v in g.sorted_edges():
            lg.install(stub_edge(CATALOG[rng.choice(names)], u, v))
        lg.take_changes()
        for _ in range(60):
            before = {norm_edge(gd.u, gd.v) for gd in lg.edges.values()}
            removed = []
            roll = rng.random()
            if roll < 0.4 and lg.edges:
                lg.remove_labeled(rng.choice(sorted(lg.edges)))
            elif roll < 0.7 and lg.edges:
                ends = rng.choice(sorted(before))
                lg.install(stub_edge(CATALOG[rng.choice(names)], *ends))
            elif roll < 0.85 or lg.n <= 3:
                lg.install(stub_edge(CATALOG[rng.choice(names)], *rng.sample(sorted(lg.vertices), 2)))
            else:
                x = rng.choice(sorted(lg.vertices))
                for eid in lg.incident(x):
                    lg.remove_labeled(eid)
                lg.remove_vertex(x)
                removed.append(x)
            yield seed, lg, removed, before - {norm_edge(gd.u, gd.v) for gd in lg.edges.values()}


_honest_count = LabeledMultigraph._count


def _zero_forgets_the_head(lg, gadget, sign):
    """Planted fault: removing a weight-0 edge leaves its head's count."""
    _honest_count(lg, gadget, sign)
    if gadget.label.weight == 0 and sign < 0:
        lg.zero_at[gadget.v] += 1


def _l32_read_as_stored(lg, gadget, sign):
    """Planted fault: a stored L32 is counted at its u, as if it read L31
    from there."""
    _honest_count(lg, gadget, sign)
    if gadget.label.name == "L32":
        lg.l31_away[gadget.v] -= sign
        lg.l31_away[gadget.u] += sign


class TestWorklists:
    def test_picks_match_the_scans_under_random_rewrites(self):
        """After every mutation of `_random_rewrites` the parallel pair, the
        degree-2 vertex, the weight, the weight-0 and L31-away counts, the
        adjacencies and the changes reported since the last mutation equal
        whole-graph scans."""
        pairs_seen = degree2_seen = vertices_removed = zero_seen = l31_seen = 0
        for seed, lg, removed, lost in _random_rewrites(range(60)):
            assert lg.take_changes() == (removed, lost), seed
            assert lg.parallel_pair() == scanned_parallel_pair(lg), seed
            assert lg.degree2_vertex() == scanned_degree2_vertex(lg), seed
            assert lg.weight() == summed_weight(lg), seed
            assert lg.invariant_ok() == ((summed_weight(lg) + lg.n) % 4 == 0)
            assert lg.zero_at == scanned_zero_counts(lg), seed
            assert lg.l31_away == scanned_l31_away(lg), seed
            alive = sorted(lg.vertices)
            joined = {norm_edge(gd.u, gd.v) for gd in lg.edges.values()}
            for a in alive:
                for b in alive:
                    if a < b:
                        assert lg.adjacent(a, b) == ((a, b) in joined), seed
            pairs_seen += lg.parallel_pair() is not None
            degree2_seen += lg.degree2_vertex() is not None
            vertices_removed += bool(removed)
            zero_seen += max(lg.zero_at.values(), default=0) > 1
            l31_seen += max(lg.l31_away.values(), default=0) > 1
        assert pairs_seen > 2000 and degree2_seen > 1000 and vertices_removed > 200
        assert zero_seen > 1000 and l31_seen > 500

    @pytest.mark.parametrize("fault, counts, scan", [(_zero_forgets_the_head, "zero_at", scanned_zero_counts),
                                                     (_l32_read_as_stored, "l31_away", scanned_l31_away)],
                             ids=["zero_at", "l31_away"])
    def test_planted_count_faults_are_caught(self, monkeypatch, fault, counts, scan):
        """A count that goes wrong in the mutation hooks differs from its
        scan within a few random rewrites."""
        monkeypatch.setattr(LabeledMultigraph, "_count", fault)
        assert any(getattr(lg, counts) != scan(lg) for _, lg, _, _ in _random_rewrites(range(5)))


def _plant_after(monkeypatch, prefix: str, rewrite):
    """Make the first step whose detail starts with `prefix` run `rewrite(lg,
    step)` after the real rewrite; returns the list that receives that
    step's detail."""
    planted: list[str] = []
    real = driver.apply_reduction

    def apply(lg, step):
        kind, detail = real(lg, step)
        if not planted and detail.startswith(prefix):
            planted.append(detail)
            rewrite(lg, step)
        return kind, detail

    monkeypatch.setattr(driver, "apply_reduction", apply)
    return planted


def _hang_off_one_neighbour(lg, step):
    """Re-attach every edge of the lowest vertex w with two neighbours, other
    than the step's own vertex (the first of a strip's args, the last of
    the others', none for a parallel merge), to one neighbour x of w,
    keeping the labels: weight and order are unchanged but x becomes a cut
    vertex."""
    kind, args = step
    skip = {"parallel": None, "strip": args[0]}.get(kind, args[-1])
    _hang_off(lg, next(w for w in sorted(lg.vertices) if w != skip and len(_neighbours(lg, w)) >= 2))


def _hang_the_pivot_off_one_neighbour(lg, step):
    """As `_hang_off_one_neighbour`, but for the step's own vertex v, which
    stays: every adjacency lost is at v, and v is left with one neighbour."""
    _hang_off(lg, step[1][0])


def _neighbours(lg, w) -> set[int]:
    return {lg.other_end(eid, w) for eid in lg.incident(w)}


def _hang_off(lg, w):
    x = min(_neighbours(lg, w))
    for eid in lg.incident(w):
        lg.install(Gadget("planted", lg.edges[eid].label, w, x, (lg.view(eid, w),)))


def _golden_graph(fixture: str, name: str) -> SimpleGraph:
    rec = next(r for r in map(json.loads, (DATA / fixture).read_text(encoding="utf-8").splitlines())
               if r["name"] == name)
    return SimpleGraph.from_edges(rec["n"], rec["edges"])


def _absorb_block() -> LabeledMultigraph:
    """K4 labeled so that the first step is an absorb at 0: (0, 1) reads
    L32 from 0 and (0, 2) L30, no edge has weight 0, and weight 12 plus
    order 4 is divisible by 4."""
    lg = LabeledMultigraph(complete_graph(4))
    for (u, v), name in zip(complete_graph(4).sorted_edges(), ("L32", "L30", "L2", "L2", "L1", "L1")):
        lg.install(Gadget("planted", CATALOG[name], u, v))
    return lg


class TestBlockCertificates:
    @pytest.mark.parametrize("graph, prefix, rewrite", [
        (dense_block(8, 1), "drop[", _hang_off_one_neighbour),
        (dense_block(8, 1), "parallel[", _hang_off_one_neighbour),
        (dense_block(8, 1), "series[", _hang_off_one_neighbour),
        (dense_block(8, 1), "strip[", _hang_off_one_neighbour),
        (subdivided_k4(2), "vertex3[", _hang_off_one_neighbour),
        (dense_block(8, 1), "strip[", _hang_the_pivot_off_one_neighbour),
        (_golden_graph("golden_regular.jsonl", "vertex4-pair-regular5-20-78"), "vertex4-pair[",
         _hang_the_pivot_off_one_neighbour),
        (_golden_graph("golden_regular.jsonl", "vertex4-flat-gnp-40-4"), "vertex4-flat[",
         _hang_the_pivot_off_one_neighbour),
        (_golden_graph("golden_regular.jsonl", "vertex4-heavy-regular5-32-45"), "vertex4-heavy[",
         _hang_the_pivot_off_one_neighbour),
    ])
    def test_planted_blockness_breaking_rewrites_trap(self, monkeypatch, graph, prefix, rewrite):
        planted = _plant_after(monkeypatch, prefix, rewrite)
        with pytest.raises(EngineBug) as trap:
            partition_with_trace(graph)
        assert planted and f"block certificate failed after {planted[0]}" in str(trap.value)

    def test_planted_absorb_fault_traps(self, monkeypatch):
        """No real graph is known to reach an absorb, so a hand-built labeled
        block does.  The real absorb passes its certificate; one that also
        deletes the two weight-2 edges, (0, 3) and (1, 2), keeps weight plus
        order divisible by 4 but leaves the path 0 2 3 1, and traps."""
        lg = _absorb_block()
        step = find_reduction(lg)
        assert step == ("absorb", (0, 1, 0))
        kind, detail = apply_reduction(lg, step)
        assert driver._still_a_block(lg, kind, step[1]) and is_biconnected(lg)

        def delete_weight2_leaves(lg, step):
            for eid in [eid for eid, e in lg.edges.items() if e.kind == "planted" and e.label.weight == 2]:
                lg.remove_labeled(eid)

        planted = _plant_after(monkeypatch, "absorb[", delete_weight2_leaves)
        monkeypatch.setattr(driver, "init_labeled", lambda g: _absorb_block())
        with pytest.raises(EngineBug) as trap:
            partition_with_trace(complete_graph(4))
        assert planted == [detail] and f"block certificate failed after {detail}" in str(trap.value)

    def test_absorb_needs_a_block_without_the_edge(self):
        """Two K4s, {0, 1, 2, 3} and {0, 4, 5, 6}, share 0 and are joined by
        (1, 4), which reads L32 from 1; (1, 2) reads L30 and every other edge
        L1, so weight 17 plus order 7 is divisible by 4.  (1, 4) with its
        sibling (1, 2) is the one absorb candidate, but 0 cuts G - (1, 4), so
        the pick passes it over for the vertex step at 2, the lowest vertex
        of {2, 3}, the leaf side of the 2-cut {0, 1}."""
        g = SimpleGraph.from_edges(7, [*combinations(range(4), 2), *combinations((0, 4, 5, 6), 2), (1, 4)])
        lg = LabeledMultigraph(g)
        names = {(1, 4): "L32", (1, 2): "L30"}
        for u, v in g.sorted_edges():
            lg.install(Gadget("planted", CATALOG[names.get((u, v), "L1")], u, v))
        (e14,) = [eid for eid, e in lg.edges.items() if (e.u, e.v) == (1, 4)]
        assert lg.invariant_ok() and lg.view(e14, 1).label.name == "L32"
        assert not is_biconnected(SimpleGraph.from_edges(7, g.edges - {(1, 4)}))
        assert find_reduction(lg) == ("vertex", (2,))

    @pytest.mark.parametrize("fixture", ["golden_regular.jsonl", "golden_dense.jsonl"])
    def test_certificates_agree_with_a_full_block_check_on_every_step(self, fixture):
        """Every graph of the fixture, replayed step by step: after each step
        the step's certificate says what a block check from scratch says.
        The replay meets every vertex step at degree 3 and above."""
        reached = set()
        for rec in map(json.loads, (DATA / fixture).read_text(encoding="utf-8").splitlines()):
            lg = init_labeled(SimpleGraph.from_edges(rec["n"], rec["edges"]))
            while len(lg.edges) > 1:
                step = find_reduction(lg)
                kind, detail = apply_reduction(lg, step)
                assert driver._still_a_block(lg, kind, step[1]) == is_biconnected(lg), (rec["name"], detail)
                reached.add(detail.split("[")[0])
        if fixture == "golden_regular.jsonl":
            assert {"vertex3", "vertex3-flat", "vertex4-pair", "vertex4-flat", "vertex4-light",
                    "vertex4-heavy"} <= reached

    def test_planted_weight_change_traps(self, monkeypatch):
        """A rewrite that relabels one weight-0 edge with a weight-1 label
        leaves a block but breaks weight plus order mod 4, which traps."""
        def relabel(lg, step):
            eid = next(e for e in lg.edge_ids() if lg.edges[e].label.weight == 0)
            edge = lg.edges[eid]
            lg.install(Gadget("planted", CATALOG["L1"], edge.u, edge.v, (lg.view(eid, edge.u),)))

        planted = _plant_after(monkeypatch, "series[", relabel)
        with pytest.raises(EngineBug) as trap:
            partition_with_trace(cycle_graph(8))
        assert planted and f"weight/order invariant broken after {planted[0]}" in str(trap.value)

    def test_series_certificate_needs_the_new_adjacency(self, monkeypatch):
        """A series rewrite that removes v with its two edges but joins its
        first neighbour a to a's other neighbour instead of to b traps:
        weight and order agree and only the pairs at v went, but b is left
        with one neighbour."""
        real = driver.apply_reduction

        def misplaced_series(lg, step):
            kind, args = step
            if kind != "series":
                return real(lg, step)
            (v,) = args
            ea, eb = lg.incident(v)
            a = lg.other_end(ea, v)
            c = next(x for x in (lg.other_end(eid, a) for eid in lg.incident(a)) if x != v)
            lg.remove_labeled(ea)
            lg.remove_labeled(eb)
            lg.remove_vertex(v)
            lg.install(Gadget("planted", CATALOG["L1"], a, c))
            return "series", f"misplaced@{v}"

        monkeypatch.setattr(driver, "apply_reduction", misplaced_series)
        with pytest.raises(EngineBug, match="block certificate failed after misplaced@0"):
            partition_with_trace(cycle_graph(8))


class TestConstantStepWork:
    @pytest.mark.parametrize("graph", [cycle_graph(2400), theta(44), subdivided_k4(334)],
                             ids=["cycle2400", "theta1980", "k4_2004"])
    def test_long_chains_need_no_per_step_block_check(self, monkeypatch, graph):
        """Only init_labeled runs the whole-graph block check: every step,
        the vertex steps of the subdivided K4 included, is certified from
        what it removed.  Vertex ids are randomly relabelled: in label
        order, realization recurses once per contracted vertex and
        overflows the interpreter stack at these sizes."""
        calls = []
        real = graphs.is_biconnected

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(graphs, "is_biconnected", counted)
        monkeypatch.setattr(driver, "is_biconnected", counted)
        g = relabelled(graph, 1)
        partition, trace = partition_with_trace(g)
        assert verify_partition(g, partition.member_sets()).ok
        assert len(calls) == 1
        assert len(trace) > 1900


    def test_identity_cycle_reads_linear_rows(self, monkeypatch):
        """An identity-labelled 2400-cycle contracts in label order, so its
        realization cascade is about 2400 gadgets deep.  Each lift reads
        only its own vertices and its children's: the neighbour rows read
        from the edge log, and the rows of any whole adjacency built on the
        way, number O(n) and hold O(n) entries in all.  The input graph's
        own adjacency, which the final verification reads, is built before
        counting starts."""
        assert not hasattr(model, "adjacency") and not hasattr(local, "adjacency")
        g = cycle_graph(2400)
        g.adj()
        counts = Counter()
        real_neighbours, real_adj = model.EdgeLog.neighbours, SimpleGraph.adj

        def neighbours(log, x, start, end):
            row = real_neighbours(log, x, start, end)
            counts["rows"] += 1
            counts["entries"] += len(row)
            return row

        def adj(h):
            built = "_adj" not in h.__dict__
            rows = real_adj(h)
            if built:
                counts["rows"] += len(rows)
                counts["entries"] += sum(map(len, rows))
            return rows

        monkeypatch.setattr(model.EdgeLog, "neighbours", neighbours)
        monkeypatch.setattr(SimpleGraph, "adj", adj)
        partition, trace = partition_with_trace(g)
        assert verify_partition(g, partition.member_sets()).ok and len(trace) > 2300
        assert 0 < counts["rows"] <= 5 * g.n and counts["entries"] <= 8 * g.n, counts

    def test_identity_cycle_tracks_few_objects(self, monkeypatch):
        """A gadget is a slotted record whose lifts are module-level
        functions, so the cascade of the identity-labelled 2400-cycle holds
        no closures, cells or bound lifts: just before `solve_base` runs,
        the cyclic collector tracks at most 15 objects per vertex more than
        before the run (43 when each gadget held its lifts as closures)."""
        g = cycle_graph(2400)
        g.adj()
        gc.collect()
        before = len(gc.get_objects())
        tracked = []
        real = driver.solve_base

        def solve_base(lg):
            gc.collect()
            tracked.append(len(gc.get_objects()) - before)
            return real(lg)

        monkeypatch.setattr(driver, "solve_base", solve_base)
        partition_with_trace(g)
        assert tracked and tracked[0] <= 15 * g.n, tracked[0] / g.n

    @pytest.mark.parametrize("graph", [cycle_graph(400), sparse_block(128, 1), dense_block(24, 1), cubic_block(64, 1)],
                             ids=["cycle400", "sparse128", "dense24", "cubic64"])
    def test_a_partition_leaves_no_cyclic_garbage(self, graph):
        """Nothing a partition allocates is kept alive by a reference cycle,
        so the collector has nothing to free after it.  The collector is off
        during the run, so that none of its passes hides a cycle."""
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            partition_with_trace(graph)
        finally:
            if enabled:
                gc.enable()
        assert gc.collect() == 0


class TestReplacementLabels:
    def test_parallel_merge_rows(self):
        from quadparts.engine.parallel import merged_parallel_label
        from quadparts.labels import CATALOG, S0, TreeSet

        rows = [("L30", "L30", "L21"), ("L1", "L1", "L2"), ("L1", "L30", "L00"),
                ("L2", "L20", "L00"), ("L1", "L2", "L30"), ("L21", "L32", "L10")]
        for a, b, out in rows:
            assert merged_parallel_label(CATALOG[a], CATALOG[b]).name == out

    def test_series_contraction_rows(self):
        from quadparts.engine.series import merged_series_label
        from quadparts.labels import CATALOG, S0, TreeSet

        rows = [("L0", "L0", "L1"), ("L0", "L1", "L2"), ("L0", "L21", "L31"),
                ("L00", "L21", "L31"), ("L21", "L31", "L21"), ("L32", "L32", "L32"),
                ("L31", "L31", "L31"), ("L0", "L2", "L30"), ("L1", "L10", "L30"),
                ("L2", "L30", "L20")]
        for a, b, out in rows:
            assert merged_series_label(CATALOG[a], CATALOG[b]).name == out


class TestSmallGraphs:
    def test_c4_exact(self):
        assert partition_2connected(cycle_graph(4)).as_lists() == [[0, 1, 2, 3]]

    def test_k4_exact(self):
        assert partition_2connected(complete_graph(4)).as_lists() == [[0, 1, 2, 3]]

    def test_all_order4_classes(self):
        for g in enumerate_2connected(4):
            p = partition_2connected(g)
            assert verify_partition(g, p.member_sets()).ok

    def test_cube(self):
        q3 = SimpleGraph.from_edges(8, [(0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (4, 6),
                                        (5, 7), (6, 7), (0, 4), (1, 5), (2, 6), (3, 7)])
        p = partition_2connected(q3)
        assert len(p.parts) == 2
        assert verify_partition(q3, p.member_sets()).ok

    def test_every_part_carries_a_witness(self):
        for p in partition_2connected(cycle_graph(8)).parts:
            assert p.witness is not None
            assert p.members <= p.witness
            assert len(p.witness) <= 5


def _frame_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


class TestDeepCascades:
    """Identity-labelled chains contract their long paths in label order, so
    their realization cascades are about as deep as the paths are long."""

    @pytest.mark.parametrize("build", [lambda: cycle_graph(2000), lambda: equal_theta(2000, 3),
                                       lambda: subdivided_k4(334)],
                             ids=["cycle-2000", "theta3-2000", "subdivided_k4-2004"])
    def test_long_chain_partitions_and_verifies(self, build):
        g = build()
        assert verify_partition(g, partition_2connected(g).member_sets()).ok

    def test_stack_depth_does_not_grow_with_the_chain(self):
        """One fixed allowance of frames above this test's own serves a
        400-cycle and a 1600-cycle alike."""
        graphs = [cycle_graph(400), cycle_graph(1600)]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_frame_depth() + 150)
        try:
            partitions = [partition_2connected(g) for g in graphs]
        finally:
            sys.setrecursionlimit(limit)
        assert all(verify_partition(g, p.member_sets()).ok for g, p in zip(graphs, partitions))


class TestOneRealizationPath:
    @pytest.mark.parametrize("g, non_leaf", [(dense_block(8, 1), 0), (random_2connected(16, 0), 2),
                                             (sparse_block(32, 0), 1)], ids=["dense8", "random16", "sparse32"])
    def test_every_driver_request_runs_through_drive(self, monkeypatch, g, non_leaf):
        """The driver realizes at each drop and strip of an `L00` edge and
        each eager elimination, and once at the base, and each time through
        one `drive` into one sink, which ends up holding exactly the parts
        of the partition.  random16 drops `L00` edges and sparse32 strips
        one; a leaf's drop or strip realizes nothing."""
        sinks = []
        real = driver.drive

        def counted(lift, sink):
            sinks.append(sink)
            return real(lift, sink)

        monkeypatch.setattr(driver, "drive", counted)
        partition, trace = partition_with_trace(g)
        kinds = Counter(t.detail.split("[")[0] for t in trace)
        deleted_l00 = sum(t.detail.startswith(("drop[L00]", "strip[L00]")) for t in trace)
        requesting = deleted_l00 + sum(c for k, c in kinds.items() if k.endswith(("-flat", "-pair")))
        assert kinds["drop"] and kinds["strip"] and deleted_l00 == non_leaf
        assert len(sinks) == requesting + 1 and all(sink is sinks[0] for sink in sinks)
        assert sorted(map(sorted, sinks[0])) == partition.as_lists()

    def test_a_leaf_split_binds_bare_roots_and_nothing_else(self):
        """Why a leaf is deleted without `drive`: its one split (S0, S0),
        read from either end, binds the two ends as single roots, finalizes
        no part, materializes no edge and exposes no vertex."""
        leaf = leaf_gadget(3, 7)
        op = Split(S0, S0)
        for tail, head in ((3, 7), (7, 3)):
            sink = []
            real = model.drive(ask(EdgeView(leaf, tail, 0), op), sink)
            assert real == Realization(p_tree=single(tail), q_tree=single(head))
            assert not sink and not real.parts and not real.edges and not fragment_edges(real)
            if tail == leaf.u:
                admitted, _ = leaf.start(op)
                assert admitted == (S0, S0) and leaf.check(real, admitted, [], 0) == set()

    def test_no_leaf_deletion_enters_drive(self, monkeypatch):
        """On dense_block(16), 45 leaves are dropped or stripped and none
        of them is realized: every `drive` call is the one `L00` drop, a
        vertex elimination or the base, and no elimination requests a
        leaf."""
        drives, eliminated = [], []
        real_drive, real_lift = driver.drive, driver.eliminate_with_fixed_splits

        def counted(lift, sink):
            drives.append(lift)
            return real_drive(lift, sink)

        def lift(ops, v, include_v, tag):
            eliminated.append([e.edge.kind for e, _ in ops])
            return real_lift(ops, v, include_v, tag)

        monkeypatch.setattr(driver, "drive", counted)
        monkeypatch.setattr(driver, "eliminate_with_fixed_splits", lift)
        _, trace = partition_with_trace(dense_block(16, 1))
        assert sum(t.detail.startswith(("drop[L0]", "strip[L0]")) for t in trace) == 45
        assert len(drives) == len(eliminated) + 1 and not any("leaf" in kinds for kinds in eliminated)

    def test_drive_appends_each_part_once_and_a_lift_keeps_its_own(self, monkeypatch):
        """For every swept gadget on stub children and every operation, the
        sink receives each child's parts in request order and then the
        lift's own, each once, and the realization that `drive` returns
        carries only the lift's own."""
        children = []
        real_start = StubGadget.start

        def start(stub, op):
            admitted, real = real_start(stub, op)
            children.append(real)
            return admitted, real

        monkeypatch.setattr(StubGadget, "start", start)
        own = 0
        for sweep in sweeps.GADGET_SWEEPS.values():
            for _, gadget in sweep():
                for op in all_ops(gadget.label):
                    children.clear()
                    sink = []
                    real = model.drive(ask(EdgeView(gadget, gadget.u, -1), op), sink)
                    assert sink == [p for child in children for p in child.parts] + list(real.parts)
                    assert len(set(sink)) == len(sink)
                    own += bool(real.parts)
        assert own > 500, own

    @pytest.mark.parametrize("g", [dense_block(16, 3), relabelled(cycle_graph(64), 2), subdivided_k4(6)],
                             ids=["dense16", "cycle64", "subdivided_k4-24"])
    def test_realizations_of_real_graphs_carry_their_own_parts_and_tree_edges(self, monkeypatch, g):
        """On real graphs, every tree edge of a checked realization lies in
        its fragment, and no part of the partition is carried by two
        realizations: none copies the parts of another."""
        carried = Counter()
        real_check = Gadget.check

        def check(gadget, real, admitted, children, below):
            for tree in (real.p_tree, real.q_tree):
                if tree is not None:
                    assert {norm_edge(a, b) for a, b in tree.edges} <= fragment_edges(real), gadget.provenance
            carried.update(real.parts)
            return real_check(gadget, real, admitted, children, below)

        monkeypatch.setattr(Gadget, "check", check)
        partition, _ = partition_with_trace(g)
        assert carried and max(carried.values()) == 1 and set(carried) <= set(partition.member_sets())


class TestCorpus:
    def test_random_corpus_partitions_and_verifies(self):
        for n, count, base in ((8, 120, 0), (12, 80, 5000), (16, 30, 6000)):
            for g in random_corpus(n, count, base_seed=base):
                partition = partition_2connected(g)
                assert verify_partition(g, partition.member_sets()).ok

    def test_sparse_subdivided_corpus(self):
        rng = random.Random(20_24)
        for trial in range(150):
            core = random_2connected(rng.choice([4, 5, 6]), trial)
            target = rng.choice([12, 16, 20])
            n, edges = core.n, set(core.edges)
            while n < target:
                e = rng.choice(sorted(edges))
                edges.remove(e)
                edges.add(norm_edge(e[0], n))
                edges.add(norm_edge(n, e[1]))
                n += 1
            g = SimpleGraph(n, frozenset(edges))
            partition = partition_2connected(g)
            assert verify_partition(g, partition.member_sets()).ok

    def test_determinism(self):
        for g in random_corpus(12, 15, base_seed=7000):
            first = partition_2connected(g).as_lists()
            second = partition_2connected(g).as_lists()
            assert first == second

    def test_trace_invariants_and_progress(self):
        for g in random_corpus(12, 25, base_seed=8000):
            _, trace = partition_with_trace(g)
            edge_counts = [t.edges_after for t in trace]
            assert all(a > b for a, b in zip(edge_counts, edge_counts[1:]))
