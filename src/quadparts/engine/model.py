"""Data model of the reduction engine.

A labeled edge stands for a connected chunk of the original graph, and its
:class:`Gadget` is the one record of it: the label, the stored orientation
u -> v, the edges and the vertex it replaces, and the kind of step whose
module-level lifts (:data:`LIFTS`) *realize* any operation the label
admits.  The result binds concrete original-graph vertices into trees
attached at the edge's two ends (or into a subdivision path) and emits any
nearly connected 4-sets that the rewrite finalized along the way.  A lift
does not call its children: it yields each child request and :func:`drive`
realizes the whole cascade on one explicit stack, so deep cascades need no
deep Python stack.  The :class:`LabeledMultigraph` is a
:class:`~quadparts.graphs.Multigraph` whose edge ids map to these gadgets;
an :class:`EdgeView` reads one of them from either end, and a realization,
whose trees are read by root (:meth:`Realization.at`), reads the same from
both.  A gadget is the one declaration of its reduction step: the graph
installs it by removing exactly what it replaces, and its lift and its
ledger read the same declaration.
Gadgets, views and bound trees are slotted records that hold no closure, so
a long cascade leaves the cyclic garbage collector little to walk.

Each record of a realization comes in by one path: :func:`drive` appends
each finalized part once to its sink and each materialized real edge once
to its :class:`EdgeLog`, a bound tree is only composed from other bound
trees or a breadth-first search, and a realization's span of the log, the
two positions between which its cascade wrote, holds every tree edge.  Only
a lift's closing state reads spans, as one :class:`Fragment` over its
children's; drive records a span as plain integers and builds none.

Conservation invariant: every realization covers its gadget's *scope* (the
scopes of its children and the vertex that leaves with them, so a leaf owns
none) exactly once between active tree slots, subdivision vertices and
finalized-part members; dummy tree slots re-use vertices covered elsewhere.
:meth:`Gadget.check` checks it against what the children handed up (see
:class:`Gadget`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from heapq import heappop, heappush
from itertools import combinations, islice
from operator import attrgetter, itemgetter
from typing import Callable, Generator, Iterable, TypeVar

from ..graphs import (Multigraph, Side, SimpleGraph, has_three_paths, leaf_side, nearly_connected_witness,
                      norm_edge)
from ..labels import CATALOG, Label, Pair, TreeSet, admits, down_set, involution, shape_matches


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


# Operations are values that compare and hash by their fields.  They are
# slotted records, not guarded against assignment, because a guard costs at
# every construction, several per realization; no code assigns to one.


class Subdivide:
    __slots__ = ("k",)

    def __init__(self, k: int):
        self.k = k

    def __eq__(self, other):
        if other.__class__ is not Subdivide:
            return NotImplemented
        return self.k == other.k

    def __hash__(self) -> int:
        return hash((self.k,))

    def __repr__(self) -> str:
        return f"subdiv({self.k})"


class Split:
    __slots__ = ("p", "q")

    def __init__(self, p: TreeSet, q: TreeSet):
        self.p = p
        self.q = q

    def __eq__(self, other):
        if other.__class__ is not Split:
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self) -> int:
        return hash((self.p, self.q))

    def __repr__(self) -> str:
        return f"split({self.p.display},{self.q.display})"


Operation = Subdivide | Split


# ---------------------------------------------------------------------------
# Bound trees: rooted trees over original vertex ids with real graph edges
#
# Every split realization is checked against the tree sets its witness pair
# promises, and that check reads each tree's order, dummy count and child
# subtree sizes.  A tree therefore carries its shape (vertex set, ascending
# root children and their subtree sizes) from the moment it is built, and
# it is only ever composed: `single` starts one, `from_parents` reads one
# off a breadth-first search already run, and `fuse`, `graft` and
# `with_dummies` compose the shapes of their inputs and check only what the
# composition could break.  No tree is built from raw edges or runs a
# search.  Membership in a tree set depends only on the shape, so `fits`
# answers from a table filled on first use.


class BoundTree:
    """A rooted tree whose vertices are original-graph ids and whose edges are
    real edges of the graph being partitioned.

    `root`, `edges` and `dummies` define the tree and are all that equality,
    hashing and repr see.  The rest is its shape, which only the
    constructors below compose: the vertex set (the ends of the edges, or
    just the root), the root's children and `child_subtree_sizes`, the
    orders of the subtrees below them, each ascending.  Each constructor
    keeps a tree that contains its root, with a non-dummy root and dummies
    among its vertices, by a check on its inputs alone.  No code assigns to
    a tree; it is a slotted record without a guard against assignment,
    because a guard costs at every construction.
    """

    __slots__ = ("root", "edges", "dummies", "vertices", "_children", "child_subtree_sizes")

    def __init__(self, root: int, edges: tuple[tuple[int, int], ...], dummies: frozenset[int],
                 vertices: frozenset[int], _children: tuple[int, ...], child_subtree_sizes: tuple[int, ...]):
        self.root = root
        self.edges = edges
        self.dummies = dummies
        self.vertices = vertices
        self._children = _children
        self.child_subtree_sizes = child_subtree_sizes

    def __eq__(self, other):
        if other.__class__ is not BoundTree:
            return NotImplemented
        return self.root == other.root and self.edges == other.edges and self.dummies == other.dummies

    def __hash__(self) -> int:
        return hash((self.root, self.edges, self.dummies))

    def __repr__(self) -> str:
        return f"BoundTree(root={self.root!r}, edges={self.edges!r}, dummies={self.dummies!r})"

    @property
    def order(self) -> int:
        return len(self.vertices)

    @property
    def actives(self) -> frozenset[int]:
        """The vertices that are not dummies (`vertices` itself when there is none)."""
        return self.vertices - self.dummies if self.dummies else self.vertices

    def root_children(self) -> list[int]:
        """The root's neighbours in ascending order."""
        return list(self._children)

    def fits(self, ts: TreeSet) -> bool:
        """True when the tree belongs to `ts` or to a set below it in the order."""
        key = (len(self.vertices), len(self.dummies), self.child_subtree_sizes, ts)
        hit = _FITS.get(key)
        if hit is None:
            order, n_dummies, sizes, _ = key  # one size per root child
            hit = _FITS[key] = any(shape_matches(order, len(sizes), n_dummies, sizes, s) for s in down_set(ts))
        return hit

    def with_dummies(self, extra: frozenset[int] | set[int]) -> "BoundTree":
        dummies = self.dummies | frozenset(extra)
        _check_dummies(self.root, self.vertices, dummies)
        return BoundTree(self.root, self.edges, dummies, self.vertices, self._children, self.child_subtree_sizes)


# (order, dummy count, child subtree sizes, tree set) -> BoundTree.fits; it
# stays small, since a realized tree on more than 6 vertices fits no set and
# traps its gadget.
_FITS: dict[tuple[int, int, tuple[int, ...], TreeSet], bool] = {}


def _check_dummies(root: int, vertices: frozenset[int], dummies: frozenset[int]) -> None:
    if root in dummies:
        raise EngineBug("root cannot be a dummy")
    if dummies - vertices:
        raise EngineBug("dummy markers outside the tree")


def from_parents(root: int, parent: dict[int, int | None], dummies: frozenset[int]) -> BoundTree:
    """The tree of a :func:`graphs.bfs_parents` map from `root`, with edges
    in discovery order; such a map is a tree, so only the dummies are checked."""
    vertices = frozenset(parent)
    if dummies:
        _check_dummies(root, vertices, dummies)
    edges: list[tuple[int, int]] = []
    top: dict[int, int] = {}  # vertex -> the root child above it
    size: dict[int, int] = {}
    for x, p in parent.items():
        if p is not None:
            edges.append((p, x))
            t = top[x] = x if p == root else top[p]
            size[t] = size.get(t, 0) + 1
    return BoundTree(root, tuple(edges), dummies, vertices, tuple(sorted(size)), tuple(sorted(size.values())))


def single(root: int) -> BoundTree:
    return BoundTree(root, (), frozenset(), frozenset((root,)), (), ())


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
    return BoundTree(trees[0].root, tuple(edges), frozenset(dummies), frozenset(vertices),
                     tuple(children), tuple(sizes))


def graft(new_root: int, bridge: tuple[int, int], subtree: BoundTree) -> BoundTree:
    """Re-root: hang `subtree` below `new_root` via the real edge `bridge`,
    which must join `new_root`, outside the subtree, to a vertex of it."""
    a, b = bridge
    end = b if a == new_root else a if b == new_root else None
    if end is None or end not in subtree.vertices or new_root in subtree.vertices:
        raise EngineBug(f"graft needs a bridge from {new_root}, outside the subtree, to a vertex of it, "
                        f"got {bridge}")
    return BoundTree(new_root, (bridge, *subtree.edges), subtree.dummies, subtree.vertices | {new_root},
                     (end,), (subtree.order,))


# ---------------------------------------------------------------------------
# Fragments: spans of one log of real edges
#
# A cascade realizes depth first, so the real edges materialized below one
# realization are exactly those logged while its frame ran: one span of the
# log, which drive records on the realization as two integers.  A lift's
# children ran one after the other, so their spans abut and together make
# one span, the one Fragment its Local builds, and a query reads only the
# vertices it asks about.  Rows are filtered to the span, so edges that a
# sibling or an ancestor logged before or after it never change an answer.


class EdgeLog:
    """The real edges one :func:`drive` call materializes, in the order it
    receives them, and an incidence index: vertex -> (positions, neighbours),
    two parallel lists in position order, so a span read bisects plain
    integers."""

    def __init__(self) -> None:
        self.edges: list[tuple[int, int]] = []
        self._inc: dict[int, tuple[list[int], list[int]]] = {}

    def extend(self, edges: Iterable[tuple[int, int]]) -> None:
        inc, logged = self._inc, self.edges
        for a, b in edges:
            pos = len(logged)
            logged.append((a, b))
            row = inc.get(a) or inc.setdefault(a, ([], []))
            row[0].append(pos)
            row[1].append(b)
            row = inc.get(b) or inc.setdefault(b, ([], []))
            row[0].append(pos)
            row[1].append(a)

    def neighbours(self, x: int, start: int, end: int) -> list[int]:
        """The neighbours of `x` over the log positions [start, end), ascending."""
        row = self._inc.get(x)
        if row is None:
            return []
        positions, nbrs = row
        i = bisect_left(positions, start)
        out = nbrs[i:bisect_left(positions, end, i)]
        out.sort()
        return out


class Fragment(dict):
    """The real edges at positions [start, end) of one :class:`EdgeLog`,
    built by a :class:`~quadparts.engine.local.Local` over its children's
    abutting spans; no realization carries one.

    It is an adjacency for the graph layer's searches, filled on demand:
    indexing it by a vertex gives that vertex's neighbours within the span
    in ascending order, as :meth:`graphs.SimpleGraph.adj` sorts them, read
    from the log's index the first time and kept.  As a dict it holds only
    the rows read so far.  A vertex with no neighbour lies outside the fragment
    and is connected to nothing, so each query reads only the vertices it
    names and, for a witness, their neighbours.
    """

    __slots__ = ("log", "start", "end")

    def __init__(self, log: EdgeLog, start: int, end: int):  # dict.__new__ made it empty
        self.log = log
        self.start = start
        self.end = end

    def __missing__(self, x: int) -> list[int]:
        row = self[x] = self.log.neighbours(x, self.start, self.end)
        return row

    def witness_for(self, part: frozenset[int]) -> frozenset[int] | None:
        """Connected superset of `part` within the fragment, at most one extra vertex."""
        for x in part:
            if not self[x]:
                return None
        return nearly_connected_witness(self, part)


# ---------------------------------------------------------------------------
# Realizations


class Realization:
    """Concrete outcome of one operation on one labeled edge.

    For splits, `trees` holds the two bound trees, one rooted at each end,
    in no promised order; other modules read one by its root with
    :meth:`at`.  For subdivisions, `subdiv` holds the k subdivision vertices
    in no promised order.  `edges` holds only the real edges this
    realization's own lift materialized (a subdivided leaf's edge), and
    `parts` only the nearly connected 4-sets it finalized: :func:`drive`
    appends them to its log and its sink, and no realization copies
    another's.  `log`, `start` and `end`, set by :func:`drive` alone when it
    finishes the realization, are the span [start, end) of the log its frame
    wrote: every real edge materialized at or below it, tree edges included,
    since a leaf's split trees have none and a lift spans its trees in its
    children's spans, grafts only by a subdivided leaf's edge and fuses or
    passes on its children's trees.  The span is two integers; only a lift's
    :class:`~quadparts.engine.local.Local` reads it, as a :class:`Fragment`.
    A lift receives the very realization its child's gadget checked as the
    value of the ``yield`` that requested it, and only reads it.  Equality
    reads `parts`, `trees`, `subdiv` and `edges`, not the span, and a
    realization is not hashable, since drive assigns its span.
    """

    __slots__ = ("parts", "trees", "subdiv", "edges", "log", "start", "end")

    def __init__(self, parts: tuple[frozenset[int], ...] = (), trees: tuple[BoundTree, BoundTree] | None = None,
                 subdiv: tuple[int, ...] | None = None, edges: tuple[tuple[int, int], ...] = (),
                 log: EdgeLog | None = None, start: int = 0, end: int = 0):
        self.parts = parts
        self.trees = trees
        self.subdiv = subdiv
        self.edges = edges
        self.log = log
        self.start = start
        self.end = end

    def __eq__(self, other):
        if other.__class__ is not Realization:
            return NotImplemented
        return (self.parts, self.trees, self.subdiv, self.edges) == (other.parts, other.trees, other.subdiv,
                                                                      other.edges)

    __hash__ = None

    def at(self, x: int) -> BoundTree:
        """The tree rooted at `x`; traps when neither tree is."""
        for t in self.trees or ():
            if t.root == x:
                return t
        raise EngineBug(f"no tree of the realization is rooted at {x}")


# ---------------------------------------------------------------------------
# Gadgets


_GADGET = itemgetter(0)  # of a (gadget, realization, exposed) child record
_EDGE = attrgetter("edge")  # of a view

# A running lift: it yields ``(view, op)`` for each child operation it needs,
# in order, receives each child's realization, and returns its own result.
Lift = Generator[tuple["EdgeView", Operation], Realization, Realization]
_R = TypeVar("_R")


class Gadget:
    """One labeled edge, as a slotted record: its label for the stored
    orientation u -> v, the views of the edges it replaces (`children`), the
    vertex that leaves the graph with them (`eliminated`, or None), the
    `kind` of step that built it and, for a series table, its `table`.
    :meth:`LabeledMultigraph.install` removes exactly the children's edges
    and `eliminated` when it adds the gadget.  `size` is the size of its
    scope, its children's sizes plus one for `eliminated`; the scope itself
    is stored nowhere.  `tag` is the step's provenance; a leaf, built
    without one, derives it from its kind and ends when a trap reads it.

    :data:`LIFTS` maps `kind` to the module-level lifts that realize the
    operations, called with the gadget and the witness pair actually
    admitted (a literal pair of the label) or the subdivision count, so no
    gadget holds a closure or a bound lift.  A lift that needs no child,
    like a leaf's, returns its Realization at once; every other lift is a
    :data:`Lift` run by :func:`drive`, which checks every realization, a
    leaf's included, with :meth:`check` before its parent receives it,
    against the witness pair or subdivision that :meth:`start` admitted, so
    the label is consulted once per realization.  The check first traps a
    lift that did not realize each of its children exactly once.

    The ledger is checked against the children.  A checked child realization
    hands up its *exposed* vertices: the active vertices of its trees other
    than the child's two ends, and its subdivision path.  The check of a
    realization R reads only R and what its children handed up: R's own
    parts, its bound actives (the active tree vertices other than u and v)
    and its subdivision path are disjoint, and their union is the disjoint
    union of the children's exposed vertices and `eliminated`.  That implies
    the whole-scope check: the parts finalized at or below the gadget and
    R's exposed vertices are disjoint and together make up the scope.  By
    induction over the cascade, which checks each child before its parent: a
    leaf's scope is empty and it exposes nothing.  Live edges have disjoint
    scopes and the vertex that leaves with them lies in none, since each
    vertex leaves the graph once, with the one gadget that names it, and
    each edge is replaced once; so the scope is the disjoint union of the
    children's scopes and `eliminated`.  Each child was already checked
    exactly, and exactly once: its parts at or below and its exposed
    vertices partition its scope.  The parts below different children lie
    in disjoint scopes; R's own parts and exposed vertices lie in the
    children's exposed vertices and `eliminated`, which miss every part
    below a child; and the union of it all is the children's scopes and
    `eliminated`.  The check also counts the parts at or below, four
    vertices each, plus R's exposed vertices against `size`; the induction
    makes that redundant for checked children, and it still catches a child
    whose own check let a fault through, such as a stand-in gadget that
    checks nothing.

    Tree vertices other than u and v must lie in the scope.  The ledger
    places the active ones; a dummy re-uses a vertex covered elsewhere,
    perhaps below a child.  So a tree vertex that no child exposed and that
    is not `eliminated` must be a vertex of some child's trees other than
    that child's ends, which lies in the child's scope by the child's own
    check.  Every lift here composes its trees from its children's trees and
    from spans over vertices they hand up, so this check rejects nothing the
    whole scope would admit.

    Each check costs O(children + tree and own-part vertices), whatever the
    scope below.
    """

    __slots__ = ("kind", "label", "u", "v", "children", "eliminated", "size", "tag", "table")

    def __init__(self, kind: str, label: Label, u: int, v: int, children: tuple["EdgeView", ...] = (),
                 eliminated: int | None = None, tag: str | None = None, table: dict | None = None):
        self.kind = kind
        self.label = label
        self.u = u
        self.v = v
        self.children = children
        self.eliminated = eliminated
        self.size = int(eliminated is not None)
        for e in children:
            self.size += e.edge.size
        self.tag = tag
        self.table = table

    @property
    def provenance(self) -> str:
        return self.tag if self.tag is not None else f"{self.kind}({self.u},{self.v})"

    def start(self, op: Operation) -> tuple[Pair | Subdivide, Realization | Lift]:
        """Begin realizing `op` (stored orientation) with the lift of this
        gadget's kind.  Returns what the label admitted, the witness pair
        of a split or the subdivision itself, and the realization when the
        lift needs no child, else the running lift.  Either way the result
        is unchecked until :func:`drive` passes it to :meth:`check` with
        that admitted operation."""
        split, subdiv = LIFTS[self.kind]
        if isinstance(op, Subdivide):
            if not self.label.subdividable or op.k != self.label.weight:
                raise EngineBug(f"label {self.label} does not allow {op}", self.provenance)
            if subdiv is None:
                raise EngineBug(f"no subdivision lift on {self.label}", self.provenance)
            return op, subdiv(self, op.k)
        witness = admits(self.label, op.p, op.q)
        if witness is None:
            raise EngineBug(f"label {self.label} does not admit {op}", self.provenance)
        return witness, split(self, witness)

    def check(self, real: Realization, admitted: Pair | Subdivide,
              children: list[tuple["Gadget", Realization, frozenset[int]]], below: int) -> frozenset[int]:
        """Trap unless `real` realizes `admitted`, what :meth:`start`
        admitted (stored orientation): the subdivision, or a split whose
        trees fit the witness pair, with the tree vertices and the ledger;
        return the vertices it exposes.  `children` holds each child
        realized for it, in order, with its checked realization and the
        vertices it exposes, and `below` counts the parts finalized at or
        below this gadget, its own included."""
        kids = self.children
        if (children or kids) and (len(children) != len(kids)
                                   or set(map(_GADGET, children)) != set(map(_EDGE, kids))):
            raise EngineBug(f"lift realized {[c.provenance for c, _, _ in children]}, not each child once",
                            self.provenance)
        handed: set[int] = set()  # the children's exposed vertices and `eliminated`
        for _, _, exposed in children:
            if not handed.isdisjoint(exposed):
                raise EngineBug(f"children hand up {sorted(handed & exposed)} twice", self.provenance)
            handed |= exposed
        if self.eliminated is not None:
            if self.eliminated in handed:
                raise EngineBug(f"a child hands up the eliminated vertex {self.eliminated}", self.provenance)
            handed.add(self.eliminated)
        if isinstance(admitted, Subdivide):
            exposed = self._check_subdiv(real, admitted.k)
        else:
            exposed = self._check_split(real, admitted, children, handed)
        self._covered(real, below, exposed, handed)
        return exposed

    # -- validation -------------------------------------------------------

    def _covered(self, real: Realization, below: int, exposed: frozenset[int], handed: set[int]) -> None:
        covered = set(exposed)
        for part in real.parts:
            if len(part) != 4:
                raise EngineBug(f"finalized part {sorted(part)} does not have 4 vertices", self.provenance)
            if not covered.isdisjoint(part):
                raise EngineBug(f"vertices {sorted(covered & part)} covered twice", self.provenance)
            covered |= part
        if covered != handed:
            raise EngineBug(
                f"scope mismatch: covered {sorted(covered)} vs handed up {sorted(handed)}",
                self.provenance,
            )
        count = 4 * below + len(exposed)
        if count != self.size:
            raise EngineBug(f"scope mismatch: {count} vertices covered at or below, scope has {self.size}",
                            self.provenance)

    def _check_split(self, real: Realization, witness: Pair,
                     children: list[tuple["Gadget", Realization, frozenset[int]]], handed: set[int]) -> frozenset[int]:
        if real.trees is None or len(real.trees) != 2 or real.subdiv is not None:
            raise EngineBug("split realization must carry two trees and no subdivision", self.provenance)
        a, b = real.trees
        p, q = (a, b) if a.root == self.u else (b, a)
        if p.root != self.u or q.root != self.v:
            raise EngineBug(f"trees rooted at {a.root},{b.root}, expected {self.u},{self.v}", self.provenance)
        if not p.fits(witness[0]) or not q.fits(witness[1]):
            raise EngineBug(
                f"realized trees (orders {p.order},{q.order}) do not fit witness "
                f"({witness[0].display},{witness[1].display})",
                self.provenance,
            )
        if not p.vertices.isdisjoint(q.vertices):
            shared = (p.vertices & q.vertices) - (p.dummies | q.dummies)
            if shared:
                raise EngineBug(f"trees share non-dummy vertices {sorted(shared)}", self.provenance)
        ends = (self.u, self.v)
        out = (p.vertices | q.vertices).difference(handed, ends)
        if out:
            # a dummy may re-use a vertex of a child's trees other than its ends
            for child, r, _ in children:
                for t in r.trees or ():
                    out -= t.vertices - {child.u, child.v}
            if out:
                raise EngineBug(f"tree vertices {sorted(out)} outside scope", self.provenance)
        return (p.actives | q.actives).difference(ends)

    def _check_subdiv(self, real: Realization, k: int) -> frozenset[int]:
        if real.subdiv is None or real.trees is not None:
            raise EngineBug("subdivision realization must carry a path and no trees", self.provenance)
        if len(real.subdiv) != k:
            raise EngineBug(f"subdivision produced {len(real.subdiv)} vertices, expected {k}", self.provenance)
        return frozenset(real.subdiv)


def _leaf_split(g: Gadget, witness: Pair) -> Realization:
    # the only pair is (S0, S0): delete the edge
    return Realization(trees=(single(g.u), single(g.v)))


def _leaf_subdiv(g: Gadget, k: int) -> Realization:
    return Realization(subdiv=(), edges=(norm_edge(g.u, g.v),))


# kind -> (split lift, subdivision lift or None); each builder module adds
# the kinds it builds.
LIFTS: dict[str, tuple[Callable[[Gadget, Pair], Realization | Lift],
                       Callable[[Gadget, int], Realization | Lift] | None]] = {"leaf": (_leaf_split, _leaf_subdiv)}


def leaf_gadget(u: int, v: int) -> Gadget:
    """Gadget for an original graph edge, under the empty-weight label L0:
    deletion or retention only."""
    return Gadget("leaf", CATALOG["L0"], u, v)


def drive(lift: Generator[tuple["EdgeView", Operation], Realization, _R], sink: list[frozenset[int]]) -> _R:
    """Run `lift` to completion and return its value, realizing every child
    operation it yields, and theirs in turn, on one explicit stack, and
    append the parts each realization finalized to `sink` and the real
    edges it materialized to one :class:`EdgeLog`.  This is the one place
    where a gadget operation starts, where its result is checked and placed
    and where its parts and edges are recorded: the reduction driver's own
    requests come here too, each as the one-request lift :func:`ask`.

    Each frame holds a running lift, its gadget, what the gadget's
    :meth:`Gadget.start` admitted (the witness pair of a split, or the
    subdivision), the lengths of `sink` and of the log when it started and
    each child it received, with that child's realization and exposed
    vertices.  A yielded ``(view, op)`` is mapped to the stored
    orientation, as a split with its two sets swapped when the view's tail
    is the gadget's v, and goes to :meth:`Gadget.start`: a running lift is
    pushed, and a realization that comes back at once (a leaf's) is finished on the spot.  A finished
    realization, at once or when its pushed lift returns, appends its own
    parts to `sink` and its own edges to the log, and drive sets its span,
    the fields no lift sets: the log and the two positions it ran between
    since its frame started (the cascade runs depth first, so these are the
    edges materialized at or below it).  No fragment is built here.  Its
    gadget checks it against what start admitted, the children its frame
    received and the count of parts appended since the frame started; the
    frame below records it with the vertices it exposes, and its lift
    receives that same object.  Children are realized in the order they
    are yielded, and an exception leaves the loop unchanged, since no lift
    catches one.
    """
    log = EdgeLog()
    logged = log.edges
    stack: list[tuple] = [(lift, None, None, 0, 0, [])]
    sent = None
    while True:
        top = stack[-1]
        try:
            view, op = top[0].send(sent)
        except StopIteration as stop:
            stack.pop()
            if not stack:
                return stop.value
            _, gadget, admitted, parts_start, edges_start, children = top
            out = stop.value
        else:
            gadget = view.edge
            if view.tail != gadget.u and isinstance(op, Split):
                op = Split(op.q, op.p)
            parts_start, edges_start, children = len(sink), len(logged), []
            admitted, out = gadget.start(op)
            if not isinstance(out, Realization):
                stack.append((out, gadget, admitted, parts_start, edges_start, children))
                sent = None
                continue
        sink.extend(out.parts)
        if out.edges:
            log.extend(out.edges)
        out.log, out.start, out.end = log, edges_start, len(logged)
        exposed = gadget.check(out, admitted, children, len(sink) - parts_start)
        stack[-1][-1].append((gadget, out, exposed))  # the requesting frame's children
        sent = out


def ask(view: "EdgeView", op: Operation) -> Lift:
    """The lift that requests `op` on `view` and returns the realization."""
    return (yield view, op)


# ---------------------------------------------------------------------------
# The labeled multigraph and directed reads of its edges


class EdgeView:
    """The labeled edge `eid`, whose gadget is `edge`, read from `tail`.

    Reading against the gadget's stored orientation (u -> v) swaps the label
    by the involution, and :func:`drive` swaps the two sets of a split
    requested through the view; the realization that comes back is read by
    root, so it needs no mirroring and case code can be written for one
    orientation.  The label a view sees is worked out once when the view is
    made.  Equality and hashing read `edge`, `tail` and `eid`; the label
    follows from them.  Like a tree, a view is a slotted record without a
    guard against assignment.
    """

    __slots__ = ("edge", "tail", "eid", "label")

    def __init__(self, edge: Gadget, tail: int, eid: int):
        if tail != edge.u and tail != edge.v:
            raise EngineBug(f"vertex {tail} is not an endpoint of edge {eid}")
        self.edge = edge
        self.tail = tail
        self.eid = eid
        self.label = involution(edge.label) if tail != edge.u else edge.label

    def __eq__(self, other):
        if other.__class__ is not EdgeView:
            return NotImplemented
        return self.edge == other.edge and self.tail == other.tail and self.eid == other.eid

    def __hash__(self) -> int:
        return hash((self.edge, self.tail, self.eid))

    @property
    def head(self) -> int:
        return self.edge.u if self.tail != self.edge.u else self.edge.v

    def reversed(self) -> "EdgeView":
        return EdgeView(self.edge, self.head, self.eid)

    def admits(self, p: TreeSet, q: TreeSet) -> Pair | None:
        return admits(self.label, p, q)


class LabeledMultigraph(Multigraph):
    """The engine state: a block multigraph whose every edge carries a gadget,
    plus `emitted`, the one list of finalized parts: :func:`drive` appends
    each realization's own parts to it, and the driver's `_eliminate` the
    parts an elimination finalizes itself and `solve_base` the base parts.

    `edges` maps each edge id to its gadget, which holds the edge's label
    and its stored orientation u -> v; the graph structure itself is the
    inherited incidence map.  A reduction step that adds an edge declares
    what it replaces in its gadget and :meth:`install` reads the removal off
    that declaration; an eager elimination, which adds no edge, removes its
    edges and vertex through the same :meth:`retire`.  The mutation hooks
    keep up to date, in O(log m) per edge added or removed:

    - the total weight of the labels, so :meth:`weight` and
      :meth:`invariant_ok` cost O(1);
    - the pair map, (min end, max end) -> the ids of the edges joining that
      pair in ascending order, with a heap of (second-lowest id, pair)
      candidates read by :meth:`parallel_pair`;
    - a heap of the vertices whose degree became 2, read by
      :meth:`degree2_vertex`;
    - `zero_at`, each live vertex -> the number of weight-0 edges at it, and
      `l31_away`, each live vertex -> the number of edges that read L31 from
      it (a stored L31 counts at its u, a stored L32 at its v), which the
      driver's strip and vertex picks read in O(1) per candidate;
    - the vertices removed and the pairs whose last edge went since the last
      :meth:`take_changes`, from which the driver certifies after every
      step that the graph is still a block; no step runs a whole-graph
      block check.

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
        self.zero_at = dict.fromkeys(range(original.n), 0)
        self.l31_away = dict.fromkeys(range(original.n), 0)
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
        del self.zero_at[v], self.l31_away[v]

    def install(self, gadget: Gadget) -> int:
        """Replace what `gadget` declares it replaces, its children's edges
        and its eliminated vertex, by a new edge from gadget.u to gadget.v
        that carries it.  A leaf replaces nothing."""
        self.retire(gadget.children, gadget.eliminated)
        eid = self.add_edge(gadget.u, gadget.v)
        self.edges[eid] = gadget
        self._count(gadget, 1)
        return eid

    def remove_labeled(self, eid: int) -> None:
        self.remove_edge(eid)
        self._count(self.edges.pop(eid), -1)

    def _count(self, gadget: Gadget, sign: int) -> None:
        """Add (`sign` 1) or take away (-1) `gadget`'s label in the weight
        total, `zero_at` and `l31_away`."""
        label = gadget.label
        self._weight += sign * label.weight
        if label.weight == 0:
            self.zero_at[gadget.u] += sign
            self.zero_at[gadget.v] += sign
        elif label.name == "L31":
            self.l31_away[gadget.u] += sign
        elif label.name == "L32":
            self.l31_away[gadget.v] += sign

    def retire(self, views: Iterable[EdgeView], vertex: int | None) -> None:
        """Remove the edges of `views`, then `vertex` unless it is None."""
        for e in views:
            self.remove_labeled(e.eid)
        if vertex is not None:
            self.remove_vertex(vertex)

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

    def separation_index(self) -> Side | None:
        """The `leaf_side` of this graph, which must be a simple block: a
        2-cut with a side whose split component has no 2-cut, or None when
        the graph has no 2-cut.

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
        create a 2-cut, so it leaves the set as it is.
        """
        touched = self._touched
        if touched is not None and all(has_three_paths(self, a, b) for a, b in combinations(sorted(touched), 2)
                                       if not self.adjacent(a, b)):
            self._touched = set()
            return None
        side = leaf_side(self)
        self._touched = None if side else set()
        return side
