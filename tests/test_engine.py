import ast
import inspect
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from quadparts import graphs
from quadparts.engine import driver, local, model
from quadparts.engine import (
    EngineBug,
    Parallel,
    ReducibleVertex,
    Series,
    LabeledMultigraph,
    find_reduction,
    init_labeled,
    leaf_gadget,
    partition_2connected,
    partition_with_trace,
)
from quadparts.engine.driver import apply_reduction
from quadparts.engine.local import Fragment, Local, group
from quadparts.engine.model import BoundTree, Gadget, Realization, fuse, graft, single
from quadparts.families import enumerate_2connected, random_2connected, random_corpus, subdivided_k4, theta
from quadparts.graphs import SimpleGraph, is_biconnected, norm_edge, separation_index
from quadparts.labels import CATALOG, TreeSet
from quadparts.oracle import verify_partition

from .support import (TreeShape, complete_graph, cycle_graph, dense_block, equal_theta, path_graph, relabelled,
                      scanned_degree2_vertex, scanned_parallel_pair, sparse_block, stub_edge, summed_weight)
from .support import fits as shape_fits


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


def _local(edges, tag: str = "caller") -> Local:
    """A Local over one child whose fragment is `edges`."""
    return Local(tag, Realization(fragment=frozenset(edges)))


class TestLocalGrouping:
    """The closing protocol of the lifts: :class:`Local` and the search under it."""

    PATH8 = [(i, i + 1) for i in range(7)]
    SPLIT = [(0, 1), (2, 3)]  # two components: {0,1,2,3} has no witness

    def test_group_finds_the_canonical_grouping(self):
        canonical = (frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7}))
        assert group(Fragment(self.PATH8), range(8)) == canonical
        assert group(Fragment(self.PATH8), []) == ()
        loc = _local(self.PATH8)
        assert loc.group(range(8)) and loc.group([])
        assert tuple(loc.parts) == canonical

    def test_group_uses_one_extra_vertex(self):
        # 0 and 2 are joined through 1, which is outside the pool
        assert group(Fragment(self.PATH8), {0, 2, 3, 4}) == (frozenset({0, 2, 3, 4}),)
        loc = _local(self.PATH8)
        assert loc.group({0, 2, 3, 4}) and loc.parts == [frozenset({0, 2, 3, 4})]

    def test_group_returns_none_on_bad_size(self):
        for pool in ({0, 1, 2}, range(6)):
            assert group(Fragment(self.PATH8), pool) is None
            loc = _local(self.PATH8)
            assert not loc.group(pool) and loc.parts == []

    def test_group_returns_none_without_grouping(self):
        for edges, pool in ((self.SPLIT, {0, 1, 2, 3}), (self.PATH8, {0, 1, 6, 7})):
            assert group(Fragment(edges), pool) is None
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
        assert tuple(loc.parts) == group(Fragment(self.PATH8), range(8))

    def test_part_traps_with_provenance(self):
        loc = _local(self.PATH8 + self.SPLIT, "caller[part]")
        for members, message in (({0, 1, 2}, "does not have 4 vertices"),
                                 (range(8), "does not have 4 vertices"),
                                 ({0, 1, 6, 7}, "not nearly connected locally"),
                                 ({0, 1, 2, 9}, "not nearly connected locally")):
            with pytest.raises(EngineBug, match=message) as info:
                loc.part(members)
            assert info.value.provenance == "caller[part]"
        loc.part({0, 2, 3, 4})
        assert loc.parts == [frozenset({0, 2, 3, 4})]

    def test_parts_follow_the_cascaded_parts_in_call_order(self):
        """The fragment is the union of the children's fragments and tree
        edges; the parts are the children's parts in request order, then
        whatever the lift finalized, in call order."""
        left = Realization(parts=(frozenset({20, 21, 22, 23}),),
                           p_tree=BoundTree(0, ((0, 1), (1, 2))), q_tree=single(9),
                           fragment=frozenset({(2, 3), (3, 4)}))
        right = Realization(parts=(frozenset({30, 31, 32, 33}), frozenset({24, 25, 26, 27})),
                            subdiv=(5, 6), fragment=frozenset({(4, 5), (5, 6), (6, 7), (3, 4)}))
        loc = Local("caller", left, right)
        assert loc.edges == {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)}
        loc.part({4, 5, 6, 7})
        loc.finalize({0, 1, 2, 3})
        real = loc.done(subdiv=(8,))
        assert real.parts == (frozenset({20, 21, 22, 23}), frozenset({30, 31, 32, 33}),
                              frozenset({24, 25, 26, 27}), frozenset({4, 5, 6, 7}),
                              frozenset({0, 1, 2, 3}))
        assert real.fragment == loc.edges and real.subdiv == (8,)
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
        to a tree spanned from the head; nothing is finalized."""
        child = Realization(subdiv=(5,), fragment=frozenset({(0, 5), (5, 9), (0, 3)}))
        for extra, edges in (((), ((9, 5), (5, 0))), ((3,), ((9, 5), (5, 0), (0, 3)))):
            loc = Local("caller", child)
            tree = loc.far_tree(child, 0, 9, *extra)
            assert tree.root == 9 and tree.edges == edges and loc.parts == []

    def test_far_tree_closes_a_split_child(self):
        """A split child v -> 9 closes its tail tree with v and the extra
        vertices into 4-sets, and its head tree serves the far side."""
        head = BoundTree(9, ((9, 8),))
        for tail, extra in ((BoundTree(0, ((0, 1), (1, 2), (2, 3))), ()),
                            (BoundTree(0, ((0, 1), (1, 2))), (3,))):
            child = Realization(p_tree=tail, q_tree=head, fragment=frozenset({(2, 3)}))
            loc = Local("caller", child)
            assert loc.far_tree(child, 0, 9, *extra) is head
            assert loc.parts == [frozenset({0, 1, 2, 3})]

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
            return BoundTree(root, tuple(edges), dummies), [kind]
        extra = [tuple(rng.sample(vs, 2)) for _ in range(rng.randrange(len(vs)))] if len(vs) > 1 else []
        outside = [(rng.choice(vs), next(ids)) for _ in range(rng.randrange(3))]
        loc = Local("shape", Realization(fragment=frozenset(norm_edge(a, b) for a, b in edges + extra + outside)))
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
    """Each trap of the tree constructors fires both for raw edges and
    through the constructors that compose checked trees."""

    PATH = BoundTree(0, ((0, 1), (1, 2)))

    @pytest.mark.parametrize("message, raw, composed", [
        ("root 5 missing", lambda: BoundTree(5, ((0, 1),)),
         lambda: graft(5, (0, 1), TestBoundTreeTraps.PATH)),
        ("edge count", lambda: BoundTree(0, ((0, 1), (1, 2), (2, 0))),
         lambda: graft(5, (5, 7), TestBoundTreeTraps.PATH)),
        ("not connected", lambda: BoundTree(0, ((0, 1), (2, 3), (3, 2))),
         lambda: graft(5, (5, 5), TestBoundTreeTraps.PATH)),
        ("root cannot be a dummy", lambda: BoundTree(0, ((0, 1),), frozenset({0})),
         lambda: TestBoundTreeTraps.PATH.with_dummies({0})),
        ("dummy markers outside", lambda: BoundTree(0, ((0, 1),), frozenset({5})),
         lambda: TestBoundTreeTraps.PATH.with_dummies({5})),
    ], ids=["root", "edge_count", "connected", "dummy_root", "dummy_outside"])
    def test_tree_traps(self, message, raw, composed):
        for build in (raw, composed):
            with pytest.raises(EngineBug, match=message):
                build()

    def test_fuse_traps(self):
        with pytest.raises(EngineBug, match="common root"):
            fuse(single(0), single(1))
        with pytest.raises(EngineBug, match=r"meet only at the root, they share \[1\]"):
            fuse(BoundTree(0, ((0, 1),)), self.PATH)
        with pytest.raises(EngineBug, match=r"they share \[1, 2\]"):
            fuse(self.PATH, self.PATH)


class TestFindReduction:
    def test_c4_starts_with_a_contraction(self):
        lg = init_labeled(cycle_graph(4))
        assert find_reduction(lg) == Series(0)

    def test_k4_starts_at_a_removable_vertex(self):
        lg = init_labeled(complete_graph(4))
        assert find_reduction(lg) == ReducibleVertex(0)

    def test_parallel_has_priority(self):
        # two contractions of a 4-cycle leave a doubled edge
        lg = init_labeled(cycle_graph(4))
        apply_reduction(lg, Series(0))
        apply_reduction(lg, find_reduction(lg))
        assert isinstance(find_reduction(lg), Parallel)


class TestCarriedSeparationIndex:
    def test_matches_a_fresh_index_under_random_rewrites(self):
        """Random edge deletions and additions, vertex removals, series
        contractions and parallel merges on 3-connected blocks: the index
        equals a freshly built one, also when it was carried across vertex
        removals.  Odd seeds consult it where find_reduction would (a simple
        block of minimum degree 3), even seeds at every simple block."""
        carried = rebuilt_after_deletions = carried_after_vertex_removal = 0
        for seed in range(100):
            rng = random.Random(seed)
            g = dense_block(rng.randint(6, 11), seed)
            lg = LabeledMultigraph(g)
            for u, v in g.sorted_edges():
                lg.add(leaf_gadget(CATALOG["L0"], u, v))
            if separation_index(lg).cuts:
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
                    lg.add(leaf_gadget(CATALOG["L0"], a, b))
                    vertex_gone = True
                elif roll < 0.55 and pair is not None:
                    gadget = lg.edges[pair[0]]
                    lg.remove_labeled(pair[0])
                    lg.remove_labeled(pair[1])
                    lg.add(leaf_gadget(CATALOG["L0"], gadget.u, gadget.v))
                elif roll < 0.75 and lg.edges:
                    lg.remove_labeled(rng.choice(lg.edge_ids()))
                elif roll < 0.97:
                    lg.add(leaf_gadget(CATALOG["L0"], *rng.sample(sorted(lg.vertices), 2)))
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
                index, fresh = lg.separation_index(), separation_index(lg)
                assert index == fresh, seed
                if touched:
                    carried += not fresh.cuts
                    rebuilt_after_deletions += bool(fresh.cuts)
                    carried_after_vertex_removal += vertex_gone and not fresh.cuts
                if not fresh.cuts:
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
        real_build, real_consult = model.separation_index, LabeledMultigraph.separation_index

        def build(g):
            builds.append(g)
            return real_build(g)

        def consult(lg):
            before = len(builds)
            index = real_consult(lg)
            consultations.append((len(builds) > before, bool(index.cuts)))
            return index

        monkeypatch.setattr(model, "separation_index", build)
        monkeypatch.setattr(LabeledMultigraph, "separation_index", consult)
        g = sparse_block(128, seed)
        partition, _ = partition_with_trace(g)
        assert verify_partition(g, partition.member_sets()).ok
        assert consultations[0][0]
        for (_, cut_before), (rebuilt, cut) in zip(consultations, consultations[1:]):
            assert not rebuilt or cut or cut_before
        assert len(consultations) > 20 and len(builds) < len(consultations) // 2


class TestWorklists:
    def test_picks_match_the_scans_under_random_rewrites(self):
        """Random edge deletions and additions, parallel edges and vertex
        removals on labeled blocks: after every mutation the parallel pair,
        the degree-2 vertex, the weight, the adjacencies and the changes
        reported since the last mutation equal whole-graph scans."""
        pairs_seen = degree2_seen = vertices_removed = 0
        for seed in range(60):
            rng = random.Random(seed)
            g = dense_block(rng.randint(5, 10), seed)
            lg = LabeledMultigraph(g)
            names = sorted(CATALOG)
            for u, v in g.sorted_edges():
                lg.add(stub_edge(CATALOG[rng.choice(names)], u, v))
            lg.take_changes()
            for _ in range(60):
                before = {norm_edge(gd.u, gd.v) for gd in lg.edges.values()}
                removed = []
                roll = rng.random()
                if roll < 0.4 and lg.edges:
                    lg.remove_labeled(rng.choice(sorted(lg.edges)))
                elif roll < 0.7 and lg.edges:
                    ends = rng.choice(sorted(before))
                    lg.add(stub_edge(CATALOG[rng.choice(names)], *ends))
                elif roll < 0.85 or lg.n <= 3:
                    lg.add(stub_edge(CATALOG[rng.choice(names)], *rng.sample(sorted(lg.vertices), 2)))
                else:
                    x = rng.choice(sorted(lg.vertices))
                    for eid in lg.incident(x):
                        lg.remove_labeled(eid)
                    lg.remove_vertex(x)
                    removed.append(x)
                after = {norm_edge(gd.u, gd.v) for gd in lg.edges.values()}
                assert lg.take_changes() == (removed, before - after), seed
                assert lg.parallel_pair() == scanned_parallel_pair(lg), seed
                assert lg.degree2_vertex() == scanned_degree2_vertex(lg), seed
                assert lg.weight() == summed_weight(lg), seed
                assert lg.invariant_ok() == ((summed_weight(lg) + lg.n) % 4 == 0)
                alive = sorted(lg.vertices)
                for a in alive:
                    for b in alive:
                        if a < b:
                            assert lg.adjacent(a, b) == ((a, b) in after), seed
                pairs_seen += lg.parallel_pair() is not None
                degree2_seen += lg.degree2_vertex() is not None
                vertices_removed += bool(removed)
        assert pairs_seen > 2000 and degree2_seen > 1000 and vertices_removed > 200


def _plant_after(monkeypatch, prefix: str, rewrite):
    """Make the first step whose detail starts with `prefix` run `rewrite(lg,
    choice)` after the real rewrite; returns the list that receives that
    step's detail."""
    planted: list[str] = []
    real = driver.apply_reduction

    def apply(lg, choice):
        kind, detail = real(lg, choice)
        if not planted and detail.startswith(prefix):
            planted.append(detail)
            rewrite(lg, choice)
        return kind, detail

    monkeypatch.setattr(driver, "apply_reduction", apply)
    return planted


def _hang_off_one_neighbour(lg, choice):
    """Re-attach every edge of the lowest vertex w with two neighbours, other
    than the step's own vertex, to one neighbour x of w, keeping the labels:
    weight and order are unchanged but x becomes a cut vertex."""
    skip = getattr(choice, "v", None)
    for w in sorted(lg.vertices):
        ends = {lg.other_end(eid, w) for eid in lg.incident(w)}
        if w != skip and len(ends) >= 2:
            break
    x = min(ends)
    for eid in lg.incident(w):
        gadget = lg.edges[eid]
        lg.remove_labeled(eid)
        lg.add(Gadget(gadget.label, w, x, gadget.scope, lambda pair: None))


class TestBlockCertificates:
    @pytest.mark.parametrize("graph, prefix, message", [
        (dense_block(8, 1), "drop[", "block certificate failed after"),
        (dense_block(8, 1), "parallel[", "block certificate failed after"),
        (dense_block(8, 1), "series[", "block certificate failed after"),
        (dense_block(8, 1), "strip[", "block certificate failed after"),
        (subdivided_k4(2), "vertex3[", "graph stopped being a block after"),
    ])
    def test_planted_blockness_breaking_rewrites_trap(self, monkeypatch, graph, prefix, message):
        planted = _plant_after(monkeypatch, prefix, _hang_off_one_neighbour)
        with pytest.raises(EngineBug) as trap:
            partition_with_trace(graph)
        assert planted and f"{message} {planted[0]}" in str(trap.value)

    def test_series_certificate_needs_the_new_adjacency(self, monkeypatch):
        """A series rewrite that removes v with its two edges but joins its
        first neighbour a to a's other neighbour instead of to b traps:
        weight and order agree and only the pairs at v went, but b is left
        with one neighbour."""
        real = driver.apply_reduction

        def misplaced_series(lg, choice):
            if not isinstance(choice, Series):
                return real(lg, choice)
            ea, eb = lg.incident(choice.v)
            a = lg.other_end(ea, choice.v)
            c = next(x for x in (lg.other_end(eid, a) for eid in lg.incident(a)) if x != choice.v)
            lg.remove_labeled(ea)
            lg.remove_labeled(eb)
            lg.remove_vertex(choice.v)
            lg.add(Gadget(CATALOG["L1"], a, c, frozenset(), lambda pair: None))
            return "series", f"misplaced@{choice.v}"

        monkeypatch.setattr(driver, "apply_reduction", misplaced_series)
        with pytest.raises(EngineBug, match="block certificate failed after misplaced@0"):
            partition_with_trace(cycle_graph(8))


class TestConstantStepWork:
    @pytest.mark.parametrize("graph", [cycle_graph(2400), theta(44), subdivided_k4(334)],
                             ids=["cycle2400", "theta1980", "k4_2004"])
    def test_long_chains_need_no_per_step_block_check(self, monkeypatch, graph):
        """Only init_labeled and the absorb and vertex steps run the
        whole-graph block check.  Vertex ids are randomly relabelled: in
        label order, realization recurses once per contracted vertex and
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
        full = sum(1 for t in trace if t.kind in ("absorb", "vertex"))
        assert len(calls) == 1 + full <= 4
        assert len(trace) > 1900


    def test_tree_shapes_build_no_adjacency(self, monkeypatch):
        """Bound trees carry their shape, so `fits`, `order` and
        `root_children` build no adjacency, and `Local.span` builds its tree
        from the search it already ran: a partition builds no tree from raw
        edges, and every `graphs.adjacency` call is a Local's fragment.  The
        input graph's own adjacency, which the final verification reads, is
        built before counting starts."""
        g = relabelled(cycle_graph(400), 1)
        g.adj()
        counts = Counter()
        real_adjacency, real_post_init, real_fragment = graphs.adjacency, BoundTree.__post_init__, Fragment.__init__

        def adjacency(*args):
            counts["adjacency"] += 1
            return real_adjacency(*args)

        def post_init(tree):
            counts["raw tree"] += 1
            real_post_init(tree)

        def fragment(frag, edges):
            counts["fragment"] += 1
            real_fragment(frag, edges)

        for module in (graphs, model, local):
            monkeypatch.setattr(module, "adjacency", adjacency)
        monkeypatch.setattr(BoundTree, "__post_init__", post_init)
        monkeypatch.setattr(Fragment, "__init__", fragment)
        partition, trace = partition_with_trace(g)
        assert counts["raw tree"] == 0 and 0 < counts["adjacency"] <= counts["fragment"], counts
        assert len(trace) > 300 and verify_partition(g, partition.member_sets()).ok


class TestReplacementLabels:
    def test_parallel_merge_rows(self):
        from quadparts.engine.parallel import merged_parallel_label
        from quadparts.labels import CATALOG, TreeSet

        rows = [("L30", "L30", "L21"), ("L1", "L1", "L2"), ("L1", "L30", "L00"),
                ("L2", "L20", "L00"), ("L1", "L2", "L30"), ("L21", "L32", "L10")]
        for a, b, out in rows:
            assert merged_parallel_label(CATALOG[a], CATALOG[b]).name == out

    def test_series_contraction_rows(self):
        from quadparts.engine.series import merged_series_label
        from quadparts.labels import CATALOG, TreeSet

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
    @pytest.mark.parametrize("g", [dense_block(8, 1), random_2connected(16, 0)], ids=["dense8", "random16"])
    def test_every_driver_request_runs_through_drive(self, monkeypatch, g):
        """The driver realizes at each drop, strip and eager elimination,
        and once at the base, and each time through one `drive`."""
        calls = []
        real = driver.drive

        def counted(lift):
            calls.append(lift)
            return real(lift)

        monkeypatch.setattr(driver, "drive", counted)
        _, trace = partition_with_trace(g)
        kinds = Counter(t.detail.split("[")[0] for t in trace)
        requesting = kinds["drop"] + kinds["strip"] + sum(c for k, c in kinds.items() if k.endswith(("-flat", "-pair")))
        assert kinds["drop"] and kinds["strip"]
        assert len(calls) == requesting + 1


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
            assert all(t.mod4_ok and t.block_ok for t in trace)
            edge_counts = [t.edges_after for t in trace]
            assert all(a > b for a, b in zip(edge_counts, edge_counts[1:]))
