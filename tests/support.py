"""Test-only helpers: concrete rooted-tree shapes, synthetic gadgets and
plain graph traversals.

`TreeShape` and its companions enumerate and test small rooted trees over
abstract slots; the engine itself only needs `labels.shape_matches`, which
reads the same structure off bound trees.  `active_count` reads the number
of active vertices of a tree set off its canonical member.

A StubGadget realizes any admitted operation with canonical tree shapes, at
once and without children (its `start` returns the Realization), so
a lift table can be exercised for every label combination without
constructing a graph that actually reaches it.  Its `check` passes
everything: a stub's ledger is balanced by construction, and a withholding
stub must leave the trap to the ledger of the gadget built on it.  Like a
subdivided leaf, a stub hands its tree or path edges to `drive`, which logs
them.  `realize` drives one operation on a gadget read in its stored
orientation, as the reduction driver does, and gathers every part finalized
at or below it from the sink.  Each stub owns `label.weight + 8` fresh
vertices (its scope; `size` counts them) and every realization covers that
scope exactly once: the active tree slots (or the subdivision path) take
the first scope vertices and the rest are emitted as 4-sets.  The
active counts of every catalog pair are congruent to the weight mod 4 and at
most weight + 4, so at least one 4-set is always emitted, and a dummy slot
takes one of its vertices.  The gadgets built on top of stubs therefore run
with the conservation ledger on, exactly as on real graphs.

`tree_of` builds a bound tree from raw edges, which the engine never does:
it computes the shape the engine's constructors compose.

`AdjacencyFragment` is the differential oracle for fragments: the
ascending neighbour lists of a set of edges, as `SimpleGraph.adj` sorts
them, built at once and searched by the same graph-layer primitives.
`logged` lays edge lists out as consecutive spans of one log, carried by
realizations as children realized one after the other would carry them,
`spanned` puts such a span on a realization with trees or a path, and
`fragment_edges` reads a realization's span back as a set of edges.

`path_graph`, `cycle_graph`, `complete_graph` and `random_tree` build the
standard small graphs, `equal_theta` thetas whose paths differ in length
by at most one, `dense_block` the dense random blocks of the
second golden fixture, `sparse_block` cycle-plus-chord blocks like the
benchmark's sparse inputs, `prism`, `circulant` and `grid` the regular
shapes of `tests/scale_index.py`, and `relabelled` applies a seeded random
permutation to the vertex ids.  `seeded_clique_cover` is the reference
K_r-factor decider that `oracle.has_kr_factor` is checked against: it
tries r-subsets that hold the lowest uncovered vertex and shares no code
with the oracle.  `connected_components`, `diameter` and `degree` read a
SimpleGraph's edge list directly, so tests can use them as oracles
independent of the library's own traversals.

`scanned_parallel_pair`, `scanned_degree2_vertex` and `summed_weight` scan
every edge of a labeled multigraph: they are the oracle for the worklists
and the running weight total that the multigraph keeps.
`scanned_zero_counts` and `scanned_l31_away` are the per-vertex scans the
driver's strip and vertex picks once ran, kept as the oracle for the
weight-0 and L31-away counts.

`primitive_visits` counts the vertices that the separation-pair tests are
given and that the shared depth-first search reaches, a deterministic cost
of the 2-cut steering, and `leaf_side_holds` is the networkx oracle for
`graphs.leaf_side`.  `cascade_counts` counts the fixed work of each
realization: the label reads of starting and checking it, and the closing
states and fragments its lift builds.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from quadparts import graphs
from quadparts.engine.model import (
    BoundTree,
    EdgeLog,
    EdgeView,
    EngineBug,
    Realization,
    Split,
    Subdivide,
    ask,
    drive,
)
from quadparts.graphs import SimpleGraph, bfs_parents, nearly_connected_witness, norm_edge
from quadparts.labels import Label, TreeSet, admits, down_set, shape_matches

S0, S1, S2, S3 = TreeSet.S0, TreeSet.S1, TreeSet.S2, TreeSet.S3
S1P, S2P, S3P = TreeSet.S1P, TreeSet.S2P, TreeSet.S3P
S2M, S3M, S5M = TreeSet.S2M, TreeSet.S3M, TreeSet.S5M


# ---------------------------------------------------------------------------
# Concrete rooted-tree shapes


@dataclass(frozen=True)
class TreeShape:
    """A small rooted tree over slots 0..order-1 with optional dummy slots."""

    parent: tuple[int | None, ...]  # parent[i] is None exactly for the root
    dummies: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        roots = [i for i, p in enumerate(self.parent) if p is None]
        if len(roots) != 1:
            raise ValueError("shape must have exactly one root")
        for i, p in enumerate(self.parent):
            if p is not None and not 0 <= p < len(self.parent):
                raise ValueError(f"slot {i} has parent {p} out of range")
        if self.root in self.dummies:
            raise ValueError("the root slot cannot be a dummy")
        # reject cycles: walking to the root must terminate
        for i in range(len(self.parent)):
            seen = set()
            j: int | None = i
            while j is not None:
                if j in seen:
                    raise ValueError("parent pointers contain a cycle")
                seen.add(j)
                j = self.parent[j]

    @property
    def root(self) -> int:
        return next(i for i, p in enumerate(self.parent) if p is None)

    @property
    def order(self) -> int:
        return len(self.parent)

    def children(self, i: int) -> list[int]:
        return [j for j, p in enumerate(self.parent) if p == i]

    def root_degree(self) -> int:
        return len(self.children(self.root))

    def subtree_size(self, i: int) -> int:
        return 1 + sum(self.subtree_size(c) for c in self.children(i))

    def child_subtree_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(self.subtree_size(c) for c in self.children(self.root)))


def member_of(shape: TreeShape, ts: TreeSet) -> bool:
    return shape_matches(shape.order, shape.root_degree(), len(shape.dummies),
                         shape.child_subtree_sizes(), ts)


def fits(shape: TreeShape, ts: TreeSet) -> bool:
    """True when the shape belongs to ts or to any set below it in the order."""
    return any(member_of(shape, s) for s in down_set(ts))


def canonical_member(ts: TreeSet, shape_hint: str | None = None) -> TreeShape:
    """A fixed concrete member of each tree set.

    Plain sets use the path rooted at an end; plus sets add a dummy leaf
    hanging from the root's neighbor.  ``shape_hint='star'`` selects the
    claw-shaped member of S3-.
    """
    if ts in (S0, S1, S2, S3):
        k = ts.order
        return TreeShape(tuple([None] + list(range(k - 1))))
    if ts in (S1P, S2P, S3P):
        k = ts.order
        # path on order-1 slots rooted at 0, dummy leaf attached to slot 1
        parent = [None] + list(range(k - 2)) + [1]
        return TreeShape(tuple(parent), frozenset({k - 1}))
    if ts == S2M:
        return TreeShape((None, 0, 0))
    if ts == S3M:
        if shape_hint == "star":
            return TreeShape((None, 0, 0, 0))
        return TreeShape((None, 0, 0, 2))  # path c-root-a-b rooted internally
    if ts == S5M:
        # path of 3 below the root fused with a path of 2 below the root
        return TreeShape((None, 0, 1, 2, 0, 4))
    raise ValueError(f"unknown tree set {ts}")


def active_count(ts: TreeSet) -> int:
    """The number of active vertices, neither root nor dummy, in any member of `ts`."""
    shape = canonical_member(ts)
    return shape.order - 1 - len(shape.dummies)


def enumerate_rooted_trees(order: int) -> list[TreeShape]:
    """All rooted trees on `order` slots, one representative per isomorphism class."""
    if order == 1:
        return [TreeShape((None,))]
    result: list[TreeShape] = []
    seen: set[tuple[tuple[int, ...], ...]] = set()
    for smaller in enumerate_rooted_trees(order - 1):
        for attach in range(smaller.order):
            parent = smaller.parent + (attach,)
            shape = TreeShape(parent)
            key = _rooted_canon(shape)
            if key not in seen:
                seen.add(key)
                result.append(shape)
    return result


def _rooted_canon(shape: TreeShape, node: int | None = None):
    if node is None:
        node = shape.root
    return tuple(sorted(_rooted_canon(shape, c) for c in shape.children(node)))


def members_extensional(ts: TreeSet) -> list[TreeShape]:
    """Enumerate all members of a dummy-free tree set up to isomorphism."""
    if ts in (S1P, S2P, S3P):
        raise ValueError("plus sets are not enumerated extensionally (dummy placement varies)")
    return [t for t in enumerate_rooted_trees(ts.order) if member_of(t, ts)]


def tree_of(root: int, edges, dummies: Iterable[int] = ()) -> BoundTree:
    """The bound tree on `edges`, kept in the given order, rooted at `root`,
    with its shape read off a breadth-first search; raises ValueError
    unless the edges form a tree containing the root, the root is not a
    dummy and every dummy is a vertex."""
    edges, dummies = tuple(edges), frozenset(dummies)
    neighbours: dict[int, list[int]] = {root: []}
    for a, b in edges:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    top = {root: root}  # vertex -> the root child above it
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y in neighbours[x]:
            if y not in top:
                top[y] = y if x == root else top[x]
                queue.append(y)
    if len(top) != len(neighbours) or len(edges) != len(top) - 1:
        raise ValueError(f"edges {edges} do not form a tree containing {root}")
    if root in dummies or not dummies <= top.keys():
        raise ValueError(f"dummies {sorted(dummies)} are not non-root vertices")
    del top[root]
    sizes = Counter(top.values())
    return BoundTree(root, edges, dummies, frozenset(neighbours), tuple(sorted(sizes)), tuple(sorted(sizes.values())))


# ---------------------------------------------------------------------------
# Fragments


class AdjacencyFragment:
    """A fragment as one whole adjacency of its edges: the oracle for
    :class:`quadparts.engine.model.Fragment`."""

    def __init__(self, edges: Iterable[tuple[int, int]]):
        self.adj: dict[int, list[int]] = {}
        for a, b in edges:
            self.adj.setdefault(a, []).append(b)
            self.adj.setdefault(b, []).append(a)
        for row in self.adj.values():
            row.sort()

    def witness_for(self, part: frozenset[int]) -> frozenset[int] | None:
        if part - self.adj.keys():
            return None
        return nearly_connected_witness(self.adj, part)

    def span_parents(self, root: int, vertices) -> dict[int, int | None]:
        """What `Local.span` searched: the breadth-first parents from `root` within `vertices`."""
        return bfs_parents(self.adj, root, vertices) if root in self.adj else {root: None}


def logged(*edge_lists) -> list[Realization]:
    """One realization per edge list, holding no tree, whose spans are
    consecutive spans of one fresh log: what children realized one after
    the other would hand a Local."""
    log, out = EdgeLog(), []
    for edges in edge_lists:
        start = len(log.edges)
        log.extend(edges)
        out.append(Realization(log=log, start=start, end=len(log.edges)))
    return out


def spanned(child: Realization, **fields) -> Realization:
    """`child`'s span carried by a realization with the given fields."""
    return Realization(**fields, log=child.log, start=child.start, end=child.end)


def fragment_edges(real: Realization) -> set[tuple[int, int]]:
    """The edges of a realization's span, with ends ascending; asserts that
    the span holds each edge once."""
    edges = [norm_edge(a, b) for a, b in real.log.edges[real.start:real.end]]
    assert len(set(edges)) == len(edges), f"span {real.start}..{real.end} repeats an edge"
    return set(edges)


# ---------------------------------------------------------------------------
# Synthetic gadgets

_counter = itertools.count(10_000)


def fresh() -> int:
    return next(_counter)


def reset_fresh() -> None:
    """Restart the fresh ids at 10000, so a sweep numbers its stubs the same
    way whatever ran before it."""
    global _counter
    _counter = itertools.count(10_000)


def bind_shape(ts: TreeSet, root: int, actives, dummy: int) -> BoundTree:
    """Canonical member of `ts` below `root`: active slots take ids from the
    `actives` iterator, a dummy slot takes `dummy`."""
    shape = canonical_member(ts)
    ids = {shape.root: root}
    for slot in range(shape.order):
        if slot != shape.root:
            ids[slot] = dummy if slot in shape.dummies else next(actives)
    edges = tuple(
        (ids[a], ids[parent]) for a, parent in enumerate(shape.parent) if parent is not None
    )
    return tree_of(root, edges, (ids[d] for d in shape.dummies))


def _quads(vertices: list[int]) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(vertices[i:i + 4]) for i in range(0, len(vertices), 4))


class StubGadget:
    """Duck-typed gadget whose canonical realizations balance its ledger.

    With `withhold=True` every realization drops its last emitted 4-set, so
    the ledger of any gadget built on top of the stub must trap.  Like a
    leaf, a stub replaces nothing when a graph installs it.
    """

    children = ()
    eliminated = None

    def __init__(self, label: Label, u: int, v: int, withhold: bool = False):
        self.label = label
        self.u = u
        self.v = v
        self.owned = [fresh() for _ in range(label.weight + 8)]
        self.size = len(self.owned)
        self.withhold = withhold
        self.provenance = f"stub({label.name})"

    def _emit(self, used: int) -> tuple[frozenset[int], ...]:
        parts = _quads(self.owned[used:])
        return parts[:-1] if self.withhold else parts

    def start(self, op):
        """A stub needs no child, so starting an operation finishes it: it
        returns what the label admitted and the realization."""
        if isinstance(op, Subdivide):
            if not self.label.subdividable or op.k != self.label.weight:
                raise EngineBug(f"stub {self.label} cannot {op}")
            ids = self.owned[:op.k]
            path = [self.u, *ids, self.v]
            edges = tuple(norm_edge(a, b) for a, b in zip(path, path[1:]))
            return op, Realization(parts=self._emit(op.k), subdiv=tuple(ids), edges=edges)
        witness = admits(self.label, op.p, op.q)
        if witness is None:
            raise EngineBug(f"stub {self.label} does not admit {op}")
        used = active_count(witness[0]) + active_count(witness[1])
        actives = iter(self.owned[:used])
        p = bind_shape(witness[0], self.u, actives, dummy=self.owned[used])
        q = bind_shape(witness[1], self.v, actives, dummy=self.owned[used + 1])
        edges = tuple(norm_edge(a, b) for t in (p, q) for a, b in t.edges)
        return witness, Realization(parts=self._emit(used), p_tree=p, q_tree=q, edges=edges)

    def check(self, real, admitted, children, below) -> set[int]:
        """Stub results are not checked (see the module docstring); like a
        checked realization, one exposes its active tree vertices other than
        its ends, or its subdivision path."""
        if real.subdiv is not None:
            return set(real.subdiv)
        return set((real.p_tree.actives | real.q_tree.actives) - {self.u, self.v})


def stub_edge(label: Label, u: int, v: int, withhold: bool = False) -> StubGadget:
    return StubGadget(label, u, v, withhold)


def realize(gadget, op) -> Realization:
    """The checked realization of `op` on `gadget`, stored orientation,
    carrying every part finalized at or below it, in the order the sink
    received them.  Asserts that every tree edge lies in the fragment."""
    sink: list[frozenset[int]] = []
    real = drive(ask(EdgeView(gadget, gadget.u, -1), op), sink)
    for tree in (real.p_tree, real.q_tree):
        if tree is not None:
            stray = {norm_edge(a, b) for a, b in tree.edges} - fragment_edges(real)
            assert not stray, f"tree edges {sorted(stray)} of {gadget.provenance} are not in the fragment"
    return replace(real, parts=tuple(sink))


def all_ops(label: Label):
    """Every operation the label allows: each catalog pair plus subdivision."""
    ops = [Split(p, q) for p, q in label.pairs]
    if label.subdividable:
        ops.append(Subdivide(label.weight))
    return ops


# ---------------------------------------------------------------------------
# Standard graphs and plain traversals over a SimpleGraph's edge list


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, itertools.combinations(range(n), 2))


def seeded_clique_cover(g: SimpleGraph, r: int) -> list[frozenset[int]] | None:
    """Disjoint r-cliques of g covering its vertices, or None.  Each part is
    seeded with the lowest uncovered vertex and completed by the first
    (r - 1)-subset of the other uncovered vertices that makes a clique and
    leaves a coverable rest, so a None answer is exhaustive."""
    def cover(uncovered: list[int]) -> list[frozenset[int]] | None:
        if not uncovered:
            return []
        seed, rest = uncovered[0], uncovered[1:]
        for combo in itertools.combinations(rest, r - 1):
            part = (seed, *combo)
            if all(pair in g.edges for pair in itertools.combinations(part, 2)):
                found = cover([v for v in rest if v not in combo])
                if found is not None:
                    return [frozenset(part), *found]
        return None

    return cover(list(range(g.n))) if g.n % r == 0 else None


def equal_theta(n: int, paths: int) -> SimpleGraph:
    """Poles 0 and 1 joined by `paths` internally disjoint paths on n vertices
    in all, whose inner vertex counts differ by at most one (longer paths
    first), numbered path by path from 2 in order along each path."""
    inner = [(n - 2) // paths + (i < (n - 2) % paths) for i in range(paths)]
    edges, nxt = [], 2
    for count in inner:
        path = [0, *range(nxt, nxt + count), 1]
        edges += zip(path, path[1:])
        nxt += count
    return SimpleGraph.from_edges(n, edges)


def random_tree(n: int, seed: int) -> SimpleGraph:
    """Seeded random recursive tree: vertex i hangs below a random earlier vertex."""
    rng = random.Random(seed)
    return SimpleGraph.from_edges(n, [(rng.randrange(i), i) for i in range(1, n)])


def dense_block(n: int, seed: int) -> SimpleGraph:
    """A Hamiltonian cycle in seeded random order plus half of the other pairs."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    cycle = {norm_edge(order[i - 1], order[i]) for i in range(n)}
    rest = [p for p in itertools.combinations(range(n), 2) if p not in cycle]
    return SimpleGraph(n, frozenset(cycle | set(rng.sample(rest, len(rest) // 2))))


def sparse_block(n: int, seed: int) -> SimpleGraph:
    """A Hamiltonian cycle in seeded random order plus n/4 chords with distinct
    ends, each spanning at least n/8 steps of the cycle."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = {norm_edge(order[i - 1], order[i]) for i in range(n)}
    free = list(range(n))  # positions on the cycle
    rng.shuffle(free)
    for _ in range(n // 4):
        a = free.pop()
        b = rng.choice([b for b in free if min((a - b) % n, (b - a) % n) >= n // 8])
        free.remove(b)
        edges.add(norm_edge(order[a], order[b]))
    return SimpleGraph(n, frozenset(edges))


def cubic_block(n: int, seed: int) -> SimpleGraph:
    """A Hamiltonian cycle in seeded random order plus a seeded random perfect
    matching that repeats none of its edges: a 3-regular block on an even
    n >= 6."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    cycle = {norm_edge(order[i - 1], order[i]) for i in range(n)}
    while True:
        rng.shuffle(order)
        chords = {norm_edge(order[i], order[i + 1]) for i in range(0, n, 2)}
        if not chords & cycle:
            return SimpleGraph(n, frozenset(cycle | chords))


def _distances(neighbours: dict[int, list[int]], source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in neighbours[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def _neighbours(g: SimpleGraph, alive: set[int]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {v: [] for v in alive}
    for a, b in g.edges:
        if a in alive and b in alive:
            out[a].append(b)
            out[b].append(a)
    return out


def connected_components(g: SimpleGraph, removed: Iterable[int] = ()) -> list[frozenset[int]]:
    """Components of g minus `removed`, by breadth-first search."""
    alive = set(range(g.n)) - set(removed)
    neighbours = _neighbours(g, alive)
    comps: list[frozenset[int]] = []
    while alive:
        comp = frozenset(_distances(neighbours, min(alive)))
        comps.append(comp)
        alive -= comp
    return comps


def diameter(g: SimpleGraph) -> int:
    """Largest distance in g; raises on disconnected input."""
    neighbours = _neighbours(g, set(range(g.n)))
    best = 0
    for s in range(g.n):
        dist = _distances(neighbours, s)
        if len(dist) != g.n:
            raise ValueError("graph is disconnected")
        best = max(best, max(dist.values()))
    return best


def degree(g: SimpleGraph, v: int) -> int:
    return sum(1 for e in g.edges if v in e)


def circulant(n: int, steps: tuple[int, ...]) -> SimpleGraph:
    """Vertex i joined to i + s and i - s (mod n) for each s in `steps`."""
    return SimpleGraph.from_edges(n, {norm_edge(i, (i + s) % n) for i in range(n) for s in steps})


def grid(rows: int, cols: int, wrap: bool = False) -> SimpleGraph:
    """The rows x cols grid, with each row closed into a cycle if `wrap`:
    the cylinder rows x cols, a path of `rows` rings of `cols` vertices."""
    n = rows * cols
    edges = [(v, v + 1) for v in range(n) if (v + 1) % cols] + [(v, v + cols) for v in range(n - cols)]
    if wrap:
        edges += [(v, v + cols - 1) for v in range(0, n, cols)]
    return SimpleGraph.from_edges(n, edges)


def prism(k: int) -> SimpleGraph:
    """Two k-cycles joined by a perfect matching: the circular ladder."""
    return SimpleGraph.from_edges(2 * k, [(i, (i + 1) % k) for i in range(k)]
                                  + [(k + i, k + (i + 1) % k) for i in range(k)] + [(i, k + i) for i in range(k)])


def relabelled(g: SimpleGraph, seed: int) -> SimpleGraph:
    """g with its vertex ids permuted by a seeded random permutation."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return SimpleGraph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


# ---------------------------------------------------------------------------
# Whole-graph scans of a labeled multigraph


def scanned_parallel_pair(lg) -> tuple[int, int] | None:
    """Scanning edge ids in ascending order, the first id whose ends an
    earlier edge already joins, after that earlier edge's id."""
    seen: dict[tuple[int, int], int] = {}
    for eid in sorted(lg.edges):
        gadget = lg.edges[eid]
        key = (min(gadget.u, gadget.v), max(gadget.u, gadget.v))
        if key in seen:
            return seen[key], eid
        seen[key] = eid
    return None


def scanned_degree2_vertex(lg) -> int | None:
    """The lowest vertex with exactly two incident edges."""
    for v in sorted(lg.vertices):
        if sum(1 for g in lg.edges.values() if v in (g.u, g.v)) == 2:
            return v
    return None


def summed_weight(lg) -> int:
    return sum(g.label.weight for g in lg.edges.values())


def scanned_zero_counts(lg) -> dict[int, int]:
    """Each live vertex -> the number of weight-0 edges at it."""
    return {v: sum(1 for eid in lg.incident(v) if lg.edges[eid].label.weight == 0) for v in lg.vertices}


def scanned_l31_away(lg) -> dict[int, int]:
    """Each live vertex -> the number of edges that read L31 from it, read
    through a view of each edge at v."""
    return {v: sum(1 for eid in lg.incident(v) if lg.view(eid, v).label.name == "L31") for v in lg.vertices}


# ---------------------------------------------------------------------------
# The 2-cut primitives: vertex visits and the leaf-side oracle


@contextmanager
def primitive_visits() -> Iterator[Counter]:
    """Count, while the block runs, the vertices that the connectivity
    primitives of `quadparts.graphs` visit: under "pair tests" the order of
    the graph each separation-pair test is given, and under "DFS" the
    vertices each run of the shared depth-first search reaches, whether
    the block test or a pair test ran it and whether or not it was stopped
    early.  Yields the Counter."""
    visits: Counter = Counter()
    real_pair, real_finishing = graphs._separation_pair, graphs._LowPoints.finishing

    def pair(nbrs):
        visits["pair tests"] += len(nbrs)
        return real_pair(nbrs)

    def finishing(tree):
        try:
            yield from real_finishing(tree)
        finally:  # also when the caller stops early and drops the search
            visits["DFS"] += len(tree.num)

    graphs._separation_pair, graphs._LowPoints.finishing = pair, finishing
    try:
        yield visits
    finally:
        graphs._separation_pair, graphs._LowPoints.finishing = real_pair, real_finishing


@contextmanager
def cascade_counts() -> Iterator[Counter]:
    """Count, while the block runs, the fixed work of the realization
    cascade: under "split realizations" and "subdivisions" the operations
    `Gadget.start` began, under "label reads" the `labels.admits` calls that
    `Gadget.start` and `Gadget.check` made themselves (the lifts' own reads
    of their children's labels are not counted), under "Locals" the lifts'
    closing states built and under "Fragments" the fragments built.
    Yields the Counter."""
    from quadparts.engine import local, model

    counts: Counter = Counter()
    inside = [0]  # depth of start and check calls running
    real_admits, real_start, real_check = model.admits, model.Gadget.start, model.Gadget.check
    real_local, real_fragment = local.Local.__init__, model.Fragment.__init__

    def admits(label, p, q):
        counts["label reads"] += bool(inside[0])
        return real_admits(label, p, q)

    def start(gadget, op):
        counts["split realizations" if isinstance(op, Split) else "subdivisions"] += 1
        inside[0] += 1
        try:
            return real_start(gadget, op)
        finally:
            inside[0] -= 1

    def check(gadget, *args):
        inside[0] += 1
        try:
            return real_check(gadget, *args)
        finally:
            inside[0] -= 1

    def local_init(loc, *args):
        counts["Locals"] += 1
        real_local(loc, *args)

    def fragment_init(fragment, *args):
        counts["Fragments"] += 1
        real_fragment(fragment, *args)

    patched = ((model, "admits", admits), (model.Gadget, "start", start), (model.Gadget, "check", check),
               (local.Local, "__init__", local_init), (model.Fragment, "__init__", fragment_init))
    for owner, name, wrapper in patched:
        setattr(owner, name, wrapper)
    try:
        yield counts
    finally:
        for (owner, name, _), real in zip(patched, (real_admits, real_start, real_check, real_local, real_fragment)):
            setattr(owner, name, real)


def _no_2cut(nx, g) -> bool:
    """Whether the networkx block g has no 2-cut."""
    return len(g) <= 3 or nx.node_connectivity(g) >= 3


def leaf_side_holds(nx, edges, side) -> bool:
    """networkx oracle for `graphs.leaf_side` of the block with the edge list
    `edges` (parallel edges allowed): `side` is None exactly when the block
    has no 2-cut; otherwise (u, v) separates it, C is a component of
    G - {u, v}, and H = G[C ∪ {u, v}] + uv has no 2-cut."""
    g = nx.Graph(list(edges))
    if side is None:
        return _no_2cut(nx, g)
    (u, v), comp = side
    comps = list(nx.connected_components(g.subgraph(set(g) - {u, v})))
    h = nx.Graph(g.subgraph(comp | {u, v}))
    h.add_edge(u, v)
    return u < v and len(comps) > 1 and set(comp) in comps and _no_2cut(nx, h)
