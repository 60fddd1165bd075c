"""Data model of the reduction engine.

A labeled edge stands for a connected chunk of the original graph, and its
:class:`Gadget` is the one record of it: the label, the stored orientation
u -> v and the lift that *realizes* any operation the label admits.  The
result binds concrete original-graph vertices into trees attached at the
edge's two ends (or into a subdivision path) and emits any nearly connected
4-sets that the rewrite finalized along the way.  The
:class:`LabeledMultigraph` is a :class:`~quadparts.graphs.Multigraph` whose
edge ids map to these gadgets; an :class:`EdgeView` reads one of them from
either end.

Conservation invariant: every gadget owns a fixed set of interior vertices
(its *scope*); each realization must cover that scope exactly once between
active tree slots, subdivision vertices, and finalized-part members.  Dummy
tree slots are structural only (they re-use vertices covered elsewhere) and
never count toward coverage.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from ..graphs import Multigraph, SimpleGraph, norm_edge
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


@dataclass(frozen=True)
class BoundTree:
    """A rooted tree whose vertices are original-graph ids and whose edges are
    real edges of the graph being partitioned."""

    root: int
    edges: tuple[tuple[int, int], ...]
    dummies: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        verts = self.vertices
        if self.root not in verts:
            raise EngineBug(f"root {self.root} missing from tree vertices")
        if len(self.edges) != len(verts) - 1:
            raise EngineBug(f"edge count {len(self.edges)} does not make a tree on {len(verts)} vertices")
        if verts - self._reach():
            raise EngineBug("tree edges are not connected")
        if self.root in self.dummies:
            raise EngineBug("root cannot be a dummy")
        if self.dummies - verts:
            raise EngineBug("dummy markers outside the tree")

    @property
    def vertices(self) -> frozenset[int]:
        vs = {self.root}
        for a, b in self.edges:
            vs.add(a)
            vs.add(b)
        return frozenset(vs)

    def _reach(self) -> set[int]:
        adj: dict[int, list[int]] = {}
        for a, b in self.edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        seen = {self.root}
        dq = deque([self.root])
        while dq:
            x = dq.popleft()
            for y in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    dq.append(y)
        return seen

    @property
    def actives(self) -> frozenset[int]:
        return self.vertices - self.dummies

    @property
    def order(self) -> int:
        return len(self.vertices)

    def neighbors(self, v: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)

    def root_children(self) -> list[int]:
        return self.neighbors(self.root)

    def child_subtree_sizes(self) -> tuple[int, ...]:
        sizes = []
        for c in self.root_children():
            seen = {self.root, c}
            dq = deque([c])
            count = 1
            while dq:
                x = dq.popleft()
                for y in self.neighbors(x):
                    if y not in seen:
                        seen.add(y)
                        count += 1
                        dq.append(y)
            sizes.append(count)
        return tuple(sorted(sizes))

    def member_of(self, ts: TreeSet) -> bool:
        return shape_matches(self.order, len(self.root_children()), len(self.dummies),
                             self.child_subtree_sizes(), ts)

    def fits(self, ts: TreeSet) -> bool:
        return any(self.member_of(s) for s in down_set(ts))

    def with_dummies(self, extra: frozenset[int] | set[int]) -> "BoundTree":
        return BoundTree(self.root, self.edges, self.dummies | frozenset(extra))


def single(root: int) -> BoundTree:
    return BoundTree(root, ())


def fuse(*trees: BoundTree) -> BoundTree:
    """Union of trees sharing the same root (vertex sets otherwise disjoint)."""
    roots = {t.root for t in trees}
    if len(roots) != 1:
        raise EngineBug(f"fuse needs a common root, got {sorted(roots)}")
    edges: list[tuple[int, int]] = []
    dummies: set[int] = set()
    for t in trees:
        edges.extend(t.edges)
        dummies |= t.dummies
    return BoundTree(trees[0].root, tuple(edges), frozenset(dummies))


def graft(new_root: int, bridge: tuple[int, int], subtree: BoundTree) -> BoundTree:
    """Re-root: hang `subtree` below `new_root` via the real edge `bridge`."""
    return BoundTree(new_root, (bridge, *subtree.edges), subtree.dummies)


def span_tree(root: int, vertices: set[int] | frozenset[int],
              edge_pool, dummies: frozenset[int] | set[int] = frozenset()) -> BoundTree:
    """BFS spanning tree of `vertices` inside the given edge pool, rooted at `root`.

    Deterministic: neighbors are visited in ascending order.  Used to build
    composite trees out of child fragments whose exact shape varies.
    """
    adj: dict[int, list[int]] = {}
    for a, b in edge_pool:
        if a in vertices and b in vertices:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    for lst in adj.values():
        lst.sort()
    seen = {root}
    edges: list[tuple[int, int]] = []
    dq = deque([root])
    while dq:
        x = dq.popleft()
        for y in adj.get(x, ()):
            if y not in seen:
                seen.add(y)
                edges.append((x, y))
                dq.append(y)
    if seen != set(vertices):
        raise EngineBug(f"cannot span {sorted(vertices)} from {root} with the available edges")
    return BoundTree(root, tuple(edges), frozenset(dummies))


# ---------------------------------------------------------------------------
# Realizations


@dataclass(frozen=True)
class Realization:
    """Concrete outcome of one operation on one labeled edge.

    For splits, `p_tree`/`q_tree` are bound at the tail/head.  For
    subdivisions, `subdiv` lists the new internal vertices from tail to head.
    `fragment` collects every real edge this realization materialized (used by
    parents for local witness search), and `parts` carries all nearly
    connected 4-sets finalized at or below this edge.
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


class Gadget:
    """One labeled edge: its label for the stored orientation u -> v, the
    scope it owns, and the lifts that realize its operations.

    `split_lift` receives the witness pair actually admitted (always a literal
    pair of the label) and returns a Realization; `subdiv_lift` receives the
    subdivision count.  Every realization is checked against the
    conservation invariant (its ledger must cover `scope` exactly once) and
    the witness pair before being returned.
    """

    def __init__(
        self,
        label: Label,
        u: int,
        v: int,
        scope: frozenset[int],
        split_lift: Callable[[Pair], Realization],
        subdiv_lift: Callable[[int], Realization] | None = None,
        provenance: str = "",
    ):
        self.label = label
        self.u = u
        self.v = v
        self.scope = scope
        self._split_lift = split_lift
        self._subdiv_lift = subdiv_lift
        self.provenance = provenance

    def realize(self, op: Operation) -> Realization:
        if isinstance(op, Subdivide):
            if not self.label.subdividable or op.k != self.label.weight:
                raise EngineBug(f"label {self.label} does not allow {op}", self.provenance)
            if self._subdiv_lift is None:
                raise EngineBug(f"no subdivision lift on {self.label}", self.provenance)
            real = self._subdiv_lift(op.k)
            self._check_subdiv(real, op.k)
            return real
        witness = admits(self.label, op.p, op.q)
        if witness is None:
            raise EngineBug(f"label {self.label} does not admit {op}", self.provenance)
        real = self._split_lift(witness)
        self._check_split(real, witness)
        return real

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


# ---------------------------------------------------------------------------
# The labeled multigraph and directed reads of its edges


@dataclass(frozen=True)
class EdgeView:
    """The labeled edge `eid`, whose gadget is `edge`, read from `tail`.

    Reading against the gadget's stored orientation (u -> v) swaps the label
    by the involution and mirrors realizations, so case code can be written
    for one orientation.
    """

    edge: Gadget
    tail: int
    eid: int

    def __post_init__(self) -> None:
        if self.tail not in (self.edge.u, self.edge.v):
            raise EngineBug(f"vertex {self.tail} is not an endpoint of edge {self.eid}")

    @property
    def flipped_store(self) -> bool:
        return self.tail != self.edge.u

    @property
    def head(self) -> int:
        return self.edge.v if not self.flipped_store else self.edge.u

    @property
    def label(self) -> Label:
        return involution(self.edge.label) if self.flipped_store else self.edge.label

    @property
    def scope(self) -> frozenset[int]:
        return self.edge.scope

    def weight(self) -> int:
        return self.edge.label.weight

    def reversed(self) -> "EdgeView":
        return EdgeView(self.edge, self.head, self.eid)

    def request(self, op: Operation) -> Realization:
        if not self.flipped_store:
            return self.edge.realize(op)
        return self.edge.realize(flip_op(op)).flipped()

    def admits(self, p: TreeSet, q: TreeSet) -> Pair | None:
        return admits(self.label, p, q)


class LabeledMultigraph(Multigraph):
    """The engine state: a block multigraph whose every edge carries a gadget,
    plus the stream of parts already finalized by eager reductions.

    `edges` maps each edge id to its gadget, which holds the edge's label
    and its stored orientation u -> v; the graph structure itself is the
    inherited incidence map.
    """

    def __init__(self, original: SimpleGraph):
        super().__init__(range(original.n))
        self.edges: dict[int, Gadget] = {}
        self.emitted: list[frozenset[int]] = []

    # -- construction / mutation ------------------------------------------

    def add(self, gadget: Gadget) -> int:
        """Install `gadget` as a new edge from gadget.u to gadget.v."""
        eid = self.add_edge(gadget.u, gadget.v)
        self.edges[eid] = gadget
        return eid

    def remove_labeled(self, eid: int) -> None:
        self.remove_edge(eid)
        del self.edges[eid]

    # -- inspection --------------------------------------------------------

    def edge_ids(self) -> list[int]:
        return sorted(self.edges)

    def view(self, eid: int, tail: int) -> EdgeView:
        return EdgeView(self.edges[eid], tail, eid)

    def weight(self) -> int:
        return sum(g.label.weight for g in self.edges.values())

    def invariant_ok(self) -> bool:
        return (self.weight() + self.n) % 4 == 0

    def is_block(self) -> bool:
        from ..graphs import is_biconnected

        return is_biconnected(self)

    def emit(self, parts) -> None:
        self.emitted.extend(parts)
