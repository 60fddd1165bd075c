"""Test-only helpers: concrete rooted-tree shapes, synthetic gadgets and
plain graph traversals.

`TreeShape` and its companions enumerate and test small rooted trees over
abstract slots; the engine itself only needs `labels.shape_matches`, which
reads the same structure off bound trees.

A StubGadget realizes any admitted operation with canonical tree shapes, at
once and without children (its `start` returns the Realization), so
a lift table can be exercised for every label combination without
constructing a graph that actually reaches it.  Its `check` passes
everything: a stub's ledger is balanced by construction, and a withholding
stub must leave the trap to the ledger of the gadget built on it.
`realize` drives one operation on a gadget read in its stored orientation,
as the reduction driver does.  Each stub owns
`label.weight + 8` fresh vertices (its scope) and every realization covers
that scope exactly once: the active tree slots (or the subdivision path)
take the first scope vertices and the rest are emitted as 4-sets.  The
active counts of every catalog pair are congruent to the weight mod 4 and at
most weight + 4, so at least one 4-set is always emitted, and a dummy slot
takes one of its vertices.  The gadgets built on top of stubs therefore run
with the conservation ledger on, exactly as on real graphs.

`path_graph`, `cycle_graph`, `complete_graph` and `random_tree` build the
standard small graphs, `equal_theta` thetas whose paths differ in length
by at most one, `dense_block` the dense random blocks of the
second golden fixture, `sparse_block` cycle-plus-chord blocks like the
benchmark's sparse inputs, and `relabelled` applies a seeded random permutation
to the vertex ids.  `connected_components`, `diameter` and `degree` read a
SimpleGraph's edge list directly, so tests can use them as oracles
independent of the library's own traversals.

`scanned_parallel_pair`, `scanned_degree2_vertex` and `summed_weight` scan
every edge of a labeled multigraph: they are the oracle for the worklists
and the running weight total that the multigraph keeps.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from quadparts.engine.model import (
    BoundTree,
    EdgeView,
    EngineBug,
    Realization,
    Split,
    Subdivide,
    ask,
    drive,
)
from quadparts.graphs import SimpleGraph, norm_edge
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
    return BoundTree(root, edges, frozenset(ids[d] for d in shape.dummies))


def _quads(vertices: list[int]) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(vertices[i:i + 4]) for i in range(0, len(vertices), 4))


class StubGadget:
    """Duck-typed gadget whose canonical realizations balance its ledger.

    With `withhold=True` every realization drops its last emitted 4-set, so
    the ledger of any gadget built on top of the stub must trap.
    """

    def __init__(self, label: Label, u: int, v: int, withhold: bool = False):
        self.label = label
        self.u = u
        self.v = v
        self.owned = [fresh() for _ in range(label.weight + 8)]
        self.scope = frozenset(self.owned)
        self.withhold = withhold
        self.provenance = f"stub({label.name})"

    def _emit(self, used: int) -> tuple[frozenset[int], ...]:
        parts = _quads(self.owned[used:])
        return parts[:-1] if self.withhold else parts

    def start(self, op):
        """A stub needs no child, so starting an operation finishes it."""
        if isinstance(op, Subdivide):
            if not self.label.subdividable or op.k != self.label.weight:
                raise EngineBug(f"stub {self.label} cannot {op}")
            ids = self.owned[:op.k]
            path = [self.u, *ids, self.v]
            frag = frozenset(norm_edge(a, b) for a, b in zip(path, path[1:]))
            return Realization(parts=self._emit(op.k), subdiv=tuple(ids), fragment=frag)
        witness = admits(self.label, op.p, op.q)
        if witness is None:
            raise EngineBug(f"stub {self.label} does not admit {op}")
        used = witness[0].actives + witness[1].actives
        actives = iter(self.owned[:used])
        p = bind_shape(witness[0], self.u, actives, dummy=self.owned[used])
        q = bind_shape(witness[1], self.v, actives, dummy=self.owned[used + 1])
        frag = frozenset(norm_edge(a, b) for t in (p, q) for a, b in t.edges)
        return Realization(parts=self._emit(used), p_tree=p, q_tree=q, fragment=frag)

    def check(self, real, op) -> None:
        """Stub results are not checked (see the module docstring)."""


def stub_edge(label: Label, u: int, v: int, withhold: bool = False) -> StubGadget:
    return StubGadget(label, u, v, withhold)


def realize(gadget, op) -> Realization:
    """The checked realization of `op` on `gadget`, stored orientation."""
    return drive(ask(EdgeView(gadget, gadget.u, -1), op))


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
