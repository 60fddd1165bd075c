"""How a lift closes: gathering its children and finalizing what they free.

Every lift requests operations on its child edges and then closes the same
way, through one :class:`Local` built from the child realizations.  The
Local holds the union of the children's fragments and bound-tree edges (the
real graph edges they materialized) and starts its part list with their
cascaded parts, in request order.  The lift then finalizes the vertices
gathered around the eliminated vertex and builds the new bound trees over
that fragment, and :meth:`Local.done` returns the :class:`Realization`.

The exact grouping into nearly connected 4-sets depends on the shapes the
child realizations happened to produce, so rather than hard-coding one
grouping per case, the lifts hand the pool to a tiny exact search.
:func:`group` answers whether a grouping exists (None when it does not), for
lifts that try several vertex allocations; :meth:`Local.finalize` is the
same search for lifts whose case table promises a grouping, and traps with
the lift's provenance when there is none, since that means the table was
transcribed wrongly.  A :class:`Fragment` is an adjacency from
:func:`graphs.adjacency`; its connectivity test and witness search are the
graph layer's :func:`bfs_parents` and :func:`nearly_connected_witness`,
which the oracle uses too.  A vertex outside the fragment is neither
connected to nor connectable with anything.
"""

from __future__ import annotations

from itertools import combinations
from typing import Collection, Iterable

from ..graphs import adjacency, bfs_parents, nearly_connected_witness, norm_edge
from .model import BoundTree, EngineBug, Realization


class Fragment:
    """A small scratch graph of real edges materialized by child realizations."""

    def __init__(self, edges: Iterable[tuple[int, int]]):
        self.adj = adjacency(edges)

    def connected(self, vs: Collection[int]) -> bool:
        if not vs or min(vs) not in self.adj:
            return False
        return len(bfs_parents(self.adj, min(vs), vs)) == len(vs)

    def witness_for(self, part: frozenset[int]) -> frozenset[int] | None:
        """Connected superset of `part` within the fragment, at most one extra vertex."""
        if part - self.adj.keys():
            return None
        return nearly_connected_witness(self.adj, part)


def group(fragment: Fragment, pool: Iterable[int]) -> tuple[frozenset[int], ...] | None:
    """Partition `pool` into nearly connected 4-sets within the fragment, or None.

    Canonical backtracking (each part is seeded with the lowest unplaced
    vertex, candidate triples in lexicographic order) makes the outcome
    deterministic.  None when the pool size is not a multiple of 4 or no
    grouping exists.
    """
    todo = sorted(set(pool))
    if len(todo) % 4 != 0:
        return None
    chosen: list[frozenset[int]] = []

    def solve(remaining: list[int]) -> bool:
        if not remaining:
            return True
        seed, rest = remaining[0], remaining[1:]
        for combo in combinations(rest, 3):
            part = frozenset((seed, *combo))
            if fragment.witness_for(part) is None:
                continue
            chosen.append(part)
            if solve([v for v in rest if v not in part]):
                return True
            chosen.pop()
        return False

    return tuple(chosen) if solve(todo) else None


class Local:
    """The closing state of one lift over its child realizations.

    `edges` is the union of the children's fragments and bound-tree edges,
    `parts` their cascaded parts followed by the parts this lift finalizes,
    in call order.  The fragment adjacency is built on first use only.
    """

    def __init__(self, tag: str, *children: Realization):
        self.tag = tag
        edges: set[tuple[int, int]] = set()
        self.parts: list[frozenset[int]] = []
        for r in children:
            edges |= r.fragment
            for t in (r.p_tree, r.q_tree):
                if t is not None:
                    edges.update(norm_edge(a, b) for a, b in t.edges)
            self.parts.extend(r.parts)
        self.edges = frozenset(edges)
        self._fragment: Fragment | None = None

    @property
    def fragment(self) -> Fragment:
        if self._fragment is None:
            self._fragment = Fragment(self.edges)
        return self._fragment

    def group(self, pool: Iterable[int]) -> bool:
        """Finalize `pool` if it groups into nearly connected 4-sets; report whether it did."""
        found = group(self.fragment, pool)
        if found is not None:
            self.parts.extend(found)
        return found is not None

    def finalize(self, pool: Iterable[int]) -> None:
        """:meth:`group`, trapping when the pool cannot be grouped."""
        todo = sorted(set(pool))
        if len(todo) % 4 != 0:
            raise EngineBug(f"finalize set {todo} has size {len(todo)}, not a multiple of 4", self.tag)
        if not self.group(todo):
            raise EngineBug(f"no nearly connected grouping of {todo} in the local fragment", self.tag)

    def part(self, members: Iterable[int]) -> None:
        """Finalize one explicitly constructed 4-set, checked against the fragment."""
        p = frozenset(members)
        if len(p) != 4:
            raise EngineBug(f"constructed part {sorted(p)} does not have 4 vertices", self.tag)
        if self.fragment.witness_for(p) is None:
            raise EngineBug(f"constructed part {sorted(p)} is not nearly connected locally", self.tag)
        self.parts.append(p)

    def span(self, root: int, vertices: set[int] | frozenset[int],
             dummies: frozenset[int] | set[int] = frozenset()) -> BoundTree:
        """BFS spanning tree of `vertices` inside the fragment, rooted at `root`.

        The tree's edges are the (parent, child) pairs of :func:`graphs.bfs_parents`
        confined to `vertices`, in discovery order, with neighbours visited in
        ascending order.  Used to build composite trees out of child fragments
        whose exact shape varies.
        """
        adj = self.fragment.adj
        parent = bfs_parents(adj, root, vertices) if root in adj else {root: None}
        if parent.keys() != set(vertices):
            raise EngineBug(f"cannot span {sorted(vertices)} from {root} with the available edges", self.tag)
        edges = tuple((p, x) for x, p in parent.items() if p is not None)
        return BoundTree(root, edges, frozenset(dummies))

    def done(self, p_tree: BoundTree | None = None, q_tree: BoundTree | None = None,
             subdiv: tuple[int, ...] | None = None) -> Realization:
        """The lift's realization: the given trees or subdivision path, all
        parts so far, and the gathered fragment."""
        return Realization(parts=tuple(self.parts), p_tree=p_tree, q_tree=q_tree,
                           subdiv=subdiv, fragment=self.edges)
