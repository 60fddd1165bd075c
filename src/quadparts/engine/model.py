"""Data model of the reduction engine.

A labeled edge stands for a connected chunk of the original graph, and its
:class:`Gadget` is the one record of it: the label, the stored orientation
u -> v and the lift that *realizes* any operation the label admits.  The
result binds concrete original-graph vertices into trees attached at the
edge's two ends (or into a subdivision path) and emits any nearly connected
4-sets that the rewrite finalized along the way.  A gadget's lift does not
call its children: it yields each child request and :func:`drive` realizes
the whole cascade on one explicit stack, so deep cascades need no deep
Python stack.  The reduction driver's own requests (a dropped or stripped
edge, the final edge) run through the same loop as the one-request lift
:func:`ask`.  The :class:`LabeledMultigraph` is a
:class:`~quadparts.graphs.Multigraph` whose edge ids map to these gadgets;
an :class:`EdgeView` reads one of them from either end.

Conservation invariant: every gadget owns a fixed set of interior vertices
(its *scope*); each realization must cover that scope exactly once between
active tree slots, subdivision vertices, and finalized-part members.  Dummy
tree slots are structural only (they re-use vertices covered elsewhere) and
never count toward coverage.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import combinations, islice
from typing import Callable, Generator, TypeVar

from ..graphs import (Multigraph, SeparationIndex, SimpleGraph, adjacency, bfs_parents, has_three_paths,
                      norm_edge, separation_index)
from ..labels import Label, Pair, TreeSet, admits, down_set, involution, shape_matches


class EngineBug(RuntimeError):
    """A guard trap fired: the engine reached a state the case analysis rules out.

    Carries the provenance of the gadget or reduction step that trapped so a
    transcription error can be localized.
    """

    def __init__(self, message: str, provenance: str = ""):
        super().__init__(f"{message} [{provenance}]" if provenance else message)
        self.provenance = provenance


# ---------------------------------------------------------------------------
# Operations


@dataclass(frozen=True)
class Subdivide:
    k: int

    def __repr__(self) -> str:
        return f"subdiv({self.k})"


@dataclass(frozen=True)
class Split:
    p: TreeSet
    q: TreeSet

    def __repr__(self) -> str:
        return f"split({self.p.display},{self.q.display})"


Operation = Subdivide | Split


def flip_op(op: Operation) -> Operation:
    if isinstance(op, Split):
        return Split(op.q, op.p)
    return op


# ---------------------------------------------------------------------------
# Bound trees: rooted trees over original vertex ids with real graph edges
#
# Every split realization is checked against the tree sets its witness pair
# promises, and that check reads each tree's order, dummy count and child
# subtree sizes.  A tree therefore carries its shape (vertex set, active set,
# order, ascending root children and their subtree sizes) from the moment it
# is built: a tree given by raw edges runs the tree checks and one
# breadth-first search once, at construction, `from_parents` reads the shape
# off a breadth-first search already run, and `single`, `fuse`, `graft` and
# `with_dummies` compose the shapes of their inputs and check only what the
# composition could break.  Membership in a tree set depends only on the
# shape, so `fits` answers from a table filled on first use.


@dataclass(frozen=True)
class BoundTree:
    """A rooted tree whose vertices are original-graph ids and whose edges are
    real edges of the graph being partitioned.

    `root`, `edges` and `dummies` define the tree and are all that equality,
    hashing and repr see.  The rest is its shape, computed once when it is
    built: the vertex set (the ends of the edges, or just the root), the
    non-dummy `actives`, the `order`, and `child_subtree_sizes`, the orders of
    the subtrees below the root's children in ascending order.  Building from
    raw edges traps unless the edges form a tree on those vertices that
    contains the root, the root is not a dummy and every dummy is a vertex;
    the composing constructors keep each of these facts with a check on
    their inputs alone.
    """

    root: int
    edges: tuple[tuple[int, int], ...]
    dummies: frozenset[int] = frozenset()
    vertices: frozenset[int] = field(init=False, repr=False, compare=False)
    actives: frozenset[int] = field(init=False, repr=False, compare=False)
    order: int = field(init=False, repr=False, compare=False)
    child_subtree_sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _children: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        root, edges = self.root, self.edges
        verts = frozenset(x for e in edges for x in e) if edges else frozenset((root,))
        if root not in verts:
            raise EngineBug(f"root {root} missing from tree vertices")
        if len(edges) != len(verts) - 1:
            raise EngineBug(f"edge count {len(edges)} does not make a tree on {len(verts)} vertices")
        adj = adjacency(edges, (root,))
        parent = bfs_parents(adj, root)
        if len(parent) != len(verts):
            raise EngineBug("tree edges are not connected")
        _check_dummies(root, verts, self.dummies)
        _shape(self, verts, *_subtrees(root, parent))

    def root_children(self) -> list[int]:
        """The root's neighbours in ascending order."""
        return list(self._children)

    def fits(self, ts: TreeSet) -> bool:
        """True when the tree belongs to `ts` or to a set below it in the order."""
        key = (self.order, len(self.dummies), self.child_subtree_sizes, ts)
        hit = _FITS.get(key)
        if hit is None:
            order, n_dummies, sizes, _ = key  # one size per root child
            hit = _FITS[key] = any(shape_matches(order, len(sizes), n_dummies, sizes, s) for s in down_set(ts))
        return hit

    def with_dummies(self, extra: frozenset[int] | set[int]) -> "BoundTree":
        dummies = self.dummies | frozenset(extra)
        _check_dummies(self.root, self.vertices, dummies)
        return _composed(self.root, self.edges, dummies, self.vertices, self._children, self.child_subtree_sizes)


# (order, dummy count, child subtree sizes, tree set) -> BoundTree.fits; it
# stays small, since a realized tree on more than 6 vertices fits no set and
# traps its gadget.
_FITS: dict[tuple[int, int, tuple[int, ...], TreeSet], bool] = {}


def _check_dummies(root: int, vertices: frozenset[int], dummies: frozenset[int]) -> None:
    if root in dummies:
        raise EngineBug("root cannot be a dummy")
    if dummies - vertices:
        raise EngineBug("dummy markers outside the tree")


def _subtrees(root: int, parent: dict[int, int | None]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The root's children and the orders of their subtrees, each ascending,
    from a breadth-first parent map of the tree."""
    top: dict[int, int] = {}  # vertex -> the root child above it
    size: dict[int, int] = {}
    for x, p in parent.items():
        if p is not None:
            t = top[x] = x if p == root else top[p]
            size[t] = size.get(t, 0) + 1
    return tuple(sorted(size)), tuple(sorted(size.values()))


def _shape(tree: BoundTree, vertices: frozenset[int], children: tuple[int, ...], sizes: tuple[int, ...]) -> None:
    """Set the carried shape fields of `tree`."""
    setf = object.__setattr__
    setf(tree, "vertices", vertices)
    setf(tree, "actives", vertices - tree.dummies)
    setf(tree, "order", len(vertices))
    setf(tree, "child_subtree_sizes", sizes)
    setf(tree, "_children", children)


def _composed(root: int, edges: tuple[tuple[int, int], ...], dummies: frozenset[int], vertices: frozenset[int],
              children: tuple[int, ...], sizes: tuple[int, ...]) -> BoundTree:
    """A tree whose shape the caller composed from checked trees: no search."""
    tree = object.__new__(BoundTree)
    setf = object.__setattr__
    setf(tree, "root", root)
    setf(tree, "edges", edges)
    setf(tree, "dummies", dummies)
    _shape(tree, vertices, children, sizes)
    return tree


def from_parents(root: int, parent: dict[int, int | None], dummies: frozenset[int]) -> BoundTree:
    """The tree of a :func:`graphs.bfs_parents` map from `root`, with edges
    in discovery order; such a map is a tree, so only the dummies are checked."""
    vertices = frozenset(parent)
    _check_dummies(root, vertices, dummies)
    edges = tuple((p, x) for x, p in parent.items() if p is not None)
    return _composed(root, edges, dummies, vertices, *_subtrees(root, parent))


def single(root: int) -> BoundTree:
    return _composed(root, (), frozenset(), frozenset((root,)), (), ())


def fuse(*trees: BoundTree) -> BoundTree:
    """Union of trees sharing the same root (vertex sets otherwise disjoint)."""
    roots = {t.root for t in trees}
    if len(roots) != 1:
        raise EngineBug(f"fuse needs a common root, got {sorted(roots)}")
    edges: list[tuple[int, int]] = []
    dummies: set[int] = set()
    vertices: set[int] = set()
    children: list[int] = []
    sizes: list[int] = []
    for t in trees:
        edges.extend(t.edges)
        dummies |= t.dummies
        vertices |= t.vertices
        children.extend(t._children)
        sizes.extend(t.child_subtree_sizes)
    if len(vertices) != 1 + sum(sizes):
        seen = Counter(x for t in trees for x in t.vertices)
        shared = sorted(x for x, count in seen.items() if count > 1 and x != trees[0].root)
        raise EngineBug(f"fuse needs trees that meet only at the root, they share {shared}")
    children.sort()
    sizes.sort()
    return _composed(trees[0].root, tuple(edges), frozenset(dummies), frozenset(vertices),
                     tuple(children), tuple(sizes))


def graft(new_root: int, bridge: tuple[int, int], subtree: BoundTree) -> BoundTree:
    """Re-root: hang `subtree` below `new_root` via the real edge `bridge`,
    which joins `new_root`, outside the subtree, to a vertex of it.  Any other
    bridge gets the raw-edge checks and their trap."""
    a, b = bridge
    end = b if a == new_root else a if b == new_root else None
    edges = (bridge, *subtree.edges)
    if end is None or end not in subtree.vertices or new_root in subtree.vertices:
        return BoundTree(new_root, edges, subtree.dummies)
    return _composed(new_root, edges, subtree.dummies, subtree.vertices | {new_root}, (end,), (subtree.order,))


# ---------------------------------------------------------------------------
# Realizations


@dataclass(frozen=True)
class Realization:
    """Concrete outcome of one operation on one labeled edge.

    For splits, `p_tree`/`q_tree` are bound at the tail/head.  For
    subdivisions, `subdiv` lists the new internal vertices from tail to head.
    `fragment` collects every real edge this realization materialized, which
    the parent lift's :class:`~quadparts.engine.local.Local` searches for
    witnesses and spans its trees in, and `parts` carries all nearly
    connected 4-sets finalized at or below this edge.  A lift receives it as
    the value of the ``yield`` that requested it, read from the tail of the
    view it yielded, and only after the child's gadget has checked it.
    """

    parts: tuple[frozenset[int], ...] = ()
    p_tree: BoundTree | None = None
    q_tree: BoundTree | None = None
    subdiv: tuple[int, ...] | None = None
    fragment: frozenset[tuple[int, int]] = frozenset()

    def flipped(self) -> "Realization":
        return Realization(
            parts=self.parts,
            p_tree=self.q_tree,
            q_tree=self.p_tree,
            subdiv=None if self.subdiv is None else tuple(reversed(self.subdiv)),
            fragment=self.fragment,
        )


# ---------------------------------------------------------------------------
# Gadgets


# A running lift: it yields ``(view, op)`` for each child operation it needs,
# in order, receives each child's realization read from the view's tail, and
# returns its own result.
Lift = Generator[tuple["EdgeView", Operation], Realization, Realization]
_R = TypeVar("_R")


class Gadget:
    """One labeled edge: its label for the stored orientation u -> v, the
    scope it owns, and the lifts that realize its operations.

    `split_lift` receives the witness pair actually admitted (always a literal
    pair of the label), `subdiv_lift` the subdivision count.  A lift that
    needs no child, like a leaf edge's, returns its Realization at once.
    Every other lift is a generator, a :data:`Lift`: instead of calling its
    children it yields ``(view, op)`` for each child operation, in order,
    and receives that child's realization as the value of the ``yield``.
    :func:`drive` runs the whole cascade below a request on one explicit
    stack, so Python's stack depth does not grow with the depth of the
    cascade; a request from outside any lift is ``drive(ask(view, op))``.
    :func:`drive` checks every realization against the conservation
    invariant (its ledger must cover `scope` exactly once) and the witness
    pair when it is finished, before its parent receives it.
    """

    def __init__(
        self,
        label: Label,
        u: int,
        v: int,
        scope: frozenset[int],
        split_lift: Callable[[Pair], Realization | Lift],
        subdiv_lift: Callable[[int], Realization | Lift] | None = None,
        provenance: str = "",
    ):
        self.label = label
        self.u = u
        self.v = v
        self.scope = scope
        self._split_lift = split_lift
        self._subdiv_lift = subdiv_lift
        self.provenance = provenance

    def start(self, op: Operation) -> Realization | Lift:
        """Begin realizing `op` (stored orientation): the realization when
        the lift needs no child, else the running lift.  Either way the
        result is unchecked until :func:`drive` passes it to :meth:`check`."""
        if isinstance(op, Subdivide):
            if not self.label.subdividable or op.k != self.label.weight:
                raise EngineBug(f"label {self.label} does not allow {op}", self.provenance)
            if self._subdiv_lift is None:
                raise EngineBug(f"no subdivision lift on {self.label}", self.provenance)
            return self._subdiv_lift(op.k)
        witness = admits(self.label, op.p, op.q)
        if witness is None:
            raise EngineBug(f"label {self.label} does not admit {op}", self.provenance)
        return self._split_lift(witness)

    def check(self, real: Realization, op: Operation) -> None:
        """Trap unless `real` realizes `op` (stored orientation): the
        operation's shape, the witness pair and the ledger."""
        if isinstance(op, Subdivide):
            self._check_subdiv(real, op.k)
        else:
            self._check_split(real, admits(self.label, op.p, op.q))

    # -- validation -------------------------------------------------------

    def _covered(self, real: Realization, bound_active: set[int]) -> None:
        part_members: set[int] = set()
        for part in real.parts:
            if len(part) != 4:
                raise EngineBug(f"finalized part {sorted(part)} does not have 4 vertices", self.provenance)
            if part & part_members:
                raise EngineBug(f"finalized parts overlap on {sorted(part & part_members)}", self.provenance)
            part_members |= part
        sub = set(real.subdiv or ())
        pools = [bound_active, sub, part_members]
        for i in range(len(pools)):
            for j in range(i + 1, len(pools)):
                overlap = pools[i] & pools[j]
                if overlap:
                    raise EngineBug(f"vertices {sorted(overlap)} covered twice", self.provenance)
        covered = bound_active | sub | part_members
        if covered != self.scope:
            raise EngineBug(
                f"scope mismatch: covered {sorted(covered)} vs scope {sorted(self.scope)}",
                self.provenance,
            )

    def _check_split(self, real: Realization, witness: Pair) -> None:
        p, q = real.p_tree, real.q_tree
        if p is None or q is None or real.subdiv is not None:
            raise EngineBug("split realization must carry two trees and no subdivision", self.provenance)
        if p.root != self.u or q.root != self.v:
            raise EngineBug(f"trees rooted at {p.root},{q.root}, expected {self.u},{self.v}", self.provenance)
        if not p.fits(witness[0]) or not q.fits(witness[1]):
            raise EngineBug(
                f"realized trees (orders {p.order},{q.order}) do not fit witness "
                f"({witness[0].display},{witness[1].display})",
                self.provenance,
            )
        shared = (p.vertices & q.vertices) - (p.dummies | q.dummies)
        if shared:
            raise EngineBug(f"trees share non-dummy vertices {sorted(shared)}", self.provenance)
        bound_active = (p.actives | q.actives) - {self.u, self.v}
        out = (p.vertices | q.vertices) - self.scope - {self.u, self.v}
        if out:
            raise EngineBug(f"tree vertices {sorted(out)} outside scope", self.provenance)
        self._covered(real, set(bound_active))

    def _check_subdiv(self, real: Realization, k: int) -> None:
        if real.subdiv is None or real.p_tree is not None or real.q_tree is not None:
            raise EngineBug("subdivision realization must carry a path and no trees", self.provenance)
        if len(real.subdiv) != k:
            raise EngineBug(f"subdivision produced {len(real.subdiv)} vertices, expected {k}", self.provenance)
        self._covered(real, set())


def leaf_gadget(label: Label, u: int, v: int) -> Gadget:
    """Gadget for an original graph edge: deletion or retention only."""
    if label.name != "L0":
        raise EngineBug("leaf edges carry the empty-weight label")

    def split_lift(witness: Pair) -> Realization:
        # the only pair is (S0, S0): delete the edge
        return Realization(p_tree=single(u), q_tree=single(v))

    def subdiv_lift(k: int) -> Realization:
        return Realization(subdiv=(), fragment=frozenset({norm_edge(u, v)}))

    return Gadget(label, u, v, frozenset(), split_lift, subdiv_lift, provenance=f"leaf({u},{v})")


def drive(lift: Generator[tuple["EdgeView", Operation], Realization, _R]) -> _R:
    """Run `lift` to completion and return its value, realizing every child
    operation it yields, and theirs in turn, on one explicit stack.  This is
    the one place where a gadget operation starts, and where its result is
    checked and mirrored: the reduction driver's own requests come here too,
    each as the one-request lift :func:`ask`.

    Each frame holds a running lift, its gadget, the operation it realizes
    in the gadget's stored orientation and whether its parent reads it
    mirrored.  A yielded ``(view, op)`` is mapped to the stored orientation
    and goes to :meth:`Gadget.start`: a running lift is pushed, and a
    realization that comes back at once (a leaf's) is finished on the spot.
    A finished realization, at once or when its pushed lift returns, is
    checked by its gadget, mirrored if need be and sent to the frame below.
    Children are realized in the order they are yielded, and an exception
    leaves the loop unchanged, since no lift catches one.
    """
    stack: list[tuple[Generator, Gadget | None, Operation | None, bool]] = [(lift, None, None, False)]
    sent = None
    while True:
        top = stack[-1]
        try:
            view, op = top[0].send(sent)
        except StopIteration as stop:
            stack.pop()
            if not stack:
                return stop.value
            _, gadget, op, flip = top
            out = stop.value
        else:
            gadget, flip = view.edge, view.flipped_store
            if flip:
                op = flip_op(op)
            out = gadget.start(op)
            if not isinstance(out, Realization):
                stack.append((out, gadget, op, flip))
                sent = None
                continue
        gadget.check(out, op)
        sent = out.flipped() if flip else out


def ask(view: "EdgeView", op: Operation) -> Lift:
    """The lift that requests `op` on `view` and returns the realization."""
    return (yield view, op)


# ---------------------------------------------------------------------------
# The labeled multigraph and directed reads of its edges


@dataclass(frozen=True)
class EdgeView:
    """The labeled edge `eid`, whose gadget is `edge`, read from `tail`.

    Reading against the gadget's stored orientation (u -> v) swaps the label
    by the involution and mirrors realizations, so case code can be written
    for one orientation.  Whether the read is flipped, and the label it sees,
    are worked out once when the view is made.
    """

    edge: Gadget
    tail: int
    eid: int
    flipped_store: bool = field(init=False, repr=False, compare=False)
    label: Label = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        edge = self.edge
        if self.tail not in (edge.u, edge.v):
            raise EngineBug(f"vertex {self.tail} is not an endpoint of edge {self.eid}")
        flipped = self.tail != edge.u
        object.__setattr__(self, "flipped_store", flipped)
        object.__setattr__(self, "label", involution(edge.label) if flipped else edge.label)

    @property
    def head(self) -> int:
        return self.edge.v if not self.flipped_store else self.edge.u

    @property
    def scope(self) -> frozenset[int]:
        return self.edge.scope

    def weight(self) -> int:
        return self.edge.label.weight

    def reversed(self) -> "EdgeView":
        return EdgeView(self.edge, self.head, self.eid)

    def admits(self, p: TreeSet, q: TreeSet) -> Pair | None:
        return admits(self.label, p, q)


class LabeledMultigraph(Multigraph):
    """The engine state: a block multigraph whose every edge carries a gadget,
    plus the stream of parts already finalized by eager reductions.

    `edges` maps each edge id to its gadget, which holds the edge's label
    and its stored orientation u -> v; the graph structure itself is the
    inherited incidence map.  The mutation hooks keep up to date, in
    O(log m) per edge added or removed:

    - the total weight of the labels, so :meth:`weight` and
      :meth:`invariant_ok` cost O(1);
    - the pair map, (min end, max end) -> the ids of the edges joining that
      pair in ascending order, with a heap of (second-lowest id, pair)
      candidates read by :meth:`parallel_pair`;
    - a heap of the vertices whose degree became 2, read by
      :meth:`degree2_vertex`;
    - the vertices removed and the pairs whose last edge went since the last
      :meth:`take_changes`, which the driver's block certificates read.

    Both heaps are cleaned lazily: an entry that no longer holds is popped
    when it reaches the top.  A vertex is pushed whenever its degree becomes
    2, and a pair whenever its second-lowest id changes, so every vertex of
    degree 2 and every pair joined twice has an entry that holds.
    """

    def __init__(self, original: SimpleGraph):
        super().__init__(range(original.n))
        self.edges: dict[int, Gadget] = {}
        self.emitted: list[frozenset[int]] = []
        self._touched: set[int] | None = None
        self._weight = 0
        self._pairs: dict[tuple[int, int], dict[int, None]] = {}
        self._pair_heap: list[tuple[int, tuple[int, int]]] = []
        self._degree2_heap: list[int] = []
        self._removed: list[int] = []
        self._emptied: list[tuple[int, int]] = []

    # -- construction / mutation ------------------------------------------

    def add_edge(self, u: int, v: int) -> int:
        eid = super().add_edge(u, v)
        pair = norm_edge(u, v)
        ids = self._pairs.setdefault(pair, {})
        ids[eid] = None
        if len(ids) == 2:
            heappush(self._pair_heap, (eid, pair))
        self._note_degrees(u, v)
        return eid

    def remove_edge(self, eid: int) -> None:
        u, v = self._edges[eid]
        if self._touched is not None:
            self._touched.update((u, v))
        super().remove_edge(eid)
        pair = norm_edge(u, v)
        ids = self._pairs[pair]
        del ids[eid]
        if not ids:
            del self._pairs[pair]
            self._emptied.append(pair)
        elif len(ids) >= 2:
            heappush(self._pair_heap, (next(islice(ids, 1, None)), pair))
        self._note_degrees(u, v)

    def _note_degrees(self, *ends: int) -> None:
        for x in ends:
            if len(self._inc[x]) == 2:
                heappush(self._degree2_heap, x)

    def remove_vertex(self, v: int) -> None:
        super().remove_vertex(v)
        if self._touched is not None:
            self._touched.discard(v)
        self._removed.append(v)

    def add(self, gadget: Gadget) -> int:
        """Install `gadget` as a new edge from gadget.u to gadget.v."""
        eid = self.add_edge(gadget.u, gadget.v)
        self.edges[eid] = gadget
        self._weight += gadget.label.weight
        return eid

    def remove_labeled(self, eid: int) -> None:
        self.remove_edge(eid)
        self._weight -= self.edges.pop(eid).label.weight

    # -- inspection --------------------------------------------------------

    def edge_ids(self) -> list[int]:
        return list(self.edges)

    def parallel_pair(self) -> tuple[int, int] | None:
        """Among the pairs joined by two or more edges, the one whose
        second-lowest edge id is least: its lowest and second-lowest ids."""
        heap = self._pair_heap
        while heap:
            second, pair = heap[0]
            ids = self._pairs.get(pair, ())
            if len(ids) >= 2:
                first, current = islice(ids, 2)
                if current == second:
                    return first, second
            heappop(heap)
        return None

    def degree2_vertex(self) -> int | None:
        """The lowest vertex of degree 2, counting parallel edges."""
        heap = self._degree2_heap
        while heap:
            if len(self._inc.get(heap[0], ())) == 2:
                return heap[0]
            heappop(heap)
        return None

    def adjacent(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self._pairs

    def take_changes(self) -> tuple[list[int], set[tuple[int, int]]]:
        """The vertices removed since the last call, and the pairs (min, max)
        whose last edge was removed since then and that no edge joins now."""
        removed, lost = self._removed, {p for p in self._emptied if p not in self._pairs}
        self._removed, self._emptied = [], []
        return removed, lost

    def view(self, eid: int, tail: int) -> EdgeView:
        return EdgeView(self.edges[eid], tail, eid)

    def weight(self) -> int:
        return self._weight

    def invariant_ok(self) -> bool:
        return (self.weight() + self.n) % 4 == 0

    def separation_index(self) -> SeparationIndex:
        """The separation index of this graph, which must be a simple block.

        `_touched` holds the live vertices that are an end of an edge removed
        since the last index with no 2-cut, or is None.  Lemma: let R have no
        2-cut and let K come from R by deleting edges and vertices (each
        vertex after its edges) and adding edges.  K has no 2-cut iff every
        two non-adjacent touched vertices are joined in K by three internally
        disjoint paths.  Suppose a 2-set S separates K.  R - S is connected,
        so a path of R - S joins two components of K - S.  Cut that path at
        its deleted edges and vertices: the last vertex of its first piece and
        the first vertex of its last piece are touched, lie in different
        components of K - S and so are non-adjacent, and S separates them.
        Conversely Menger gives two non-adjacent vertices without three such
        paths a separator of at most two vertices.  Adding an edge cannot
        create a 2-cut, so it leaves the set as it is.  With no 2-cut each
        K - u is 2-connected: no edge is fixed either.
        """
        touched = self._touched
        if touched is not None and all(has_three_paths(self, a, b) for a, b in combinations(sorted(touched), 2)
                                       if not self.adjacent(a, b)):
            self._touched = set()
            return SeparationIndex((), None, frozenset())
        index = separation_index(self)
        self._touched = None if index.cuts else set()
        return index

    def is_block(self) -> bool:
        from ..graphs import is_biconnected

        return is_biconnected(self)

    def emit(self, parts) -> None:
        self.emitted.extend(parts)
