"""How a lift closes: gathering its children and finalizing what they free.

Every lift is a generator (:data:`~quadparts.engine.model.Lift`).  It
requests an operation on a child edge by yielding ``(view, op)`` and
receives the child's realization as the value of that ``yield``, so that
:func:`~quadparts.engine.model.drive` realizes the whole cascade on one
explicit stack; a lift never calls a child itself.  It then closes through
one :class:`Local` built from the child realizations, over the one span of
drive's edge log that their spans make up together: drive records each
realization's span as two integers, and the Local builds the lift's one
:class:`~quadparts.engine.model.Fragment` from them.  The children's
parts are not gathered: drive has already appended them to its sink, and a
Local holds only the parts its lift finalizes.  Its methods are the closing
moves, and :func:`group`, a tiny exact search, finds the groupings they
need, since those depend on the shapes the children happened to produce.
:meth:`Local.far_tree` is the one closing move for a child edge that is
either split or subdivided: the lifts request each such child one way or
the other and close each side with it, naming only the extra vertices the
side takes and whether the eliminated vertex belongs to it.

The lifts' pair vocabulary lives here too: :data:`PLAIN` and :data:`PLUS`
name tree sets by size, :func:`pair_shape` classifies a pair and
:func:`mirrored` serves one by running a module-level lift on the reversed
configuration.

A :class:`~quadparts.engine.model.Fragment` is a span of drive's edge log,
not a union of edge sets: its neighbour rows are read from the log's
incidence index only for the vertices a query names, and the graph layer's
:func:`bfs_parents` and :func:`nearly_connected_witness`, which the oracle
uses too, search it as they search an adjacency; a vertex outside it is
connected to nothing.  So closing a lift costs what its queries touch, not
the size of what lies below it.
"""

from __future__ import annotations

from itertools import combinations
from operator import attrgetter
from typing import Callable, Collection, Iterable

from ..graphs import bfs_parents
from ..labels import Pair, TreeSet
from .model import BoundTree, EngineBug, Fragment, Lift, Realization, from_parents

_SPAN = attrgetter("start", "end")

PLAIN = {0: TreeSet.S0, 1: TreeSet.S1, 2: TreeSet.S2, 3: TreeSet.S3}
PLUS = {1: TreeSet.S1P, 2: TreeSet.S2P, 3: TreeSet.S3P}

_KIND = {
    TreeSet.S0: ("plain", 0), TreeSet.S1: ("plain", 1),
    TreeSet.S2: ("plain", 2), TreeSet.S3: ("plain", 3),
    TreeSet.S1P: ("plus", 1), TreeSet.S2P: ("plus", 2), TreeSet.S3P: ("plus", 3),
    TreeSet.S2M: ("minus", 2), TreeSet.S3M: ("minus", 3), TreeSet.S5M: ("minus", 5),
}


def pair_shape(pair: Pair) -> tuple[str, int, int]:
    """Classify a plain/plus pair: ('plain'|'plus_right'|'plus_left', x, y)."""
    (ka, x), (kb, y) = _KIND[pair[0]], _KIND[pair[1]]
    if ka == "plain" and kb == "plain":
        return "plain", x, y
    if ka == "plain" and kb == "plus":
        return "plus_right", x, y
    if ka == "plus" and kb == "plain":
        return "plus_left", x, y
    raise EngineBug(f"pair {pair} is not a plain/plus combination")


def mirrored(lift: Callable[..., Lift], pair: Pair, *config) -> Lift:
    """Realize `pair` through `lift` on the reversed configuration `config`
    (its views read from the other end, and its tag): the lift receives the
    swapped pair and its realization is flipped back."""
    return (yield from lift((pair[1], pair[0]), *config)).flipped()


def group(fragment: Fragment, pool: Iterable[int]) -> tuple[frozenset[int], ...] | None:
    """Partition `pool` into nearly connected 4-sets within the fragment, or None.

    Canonical backtracking (each part is seeded with the lowest unplaced
    vertex, candidate triples in lexicographic order) makes the outcome
    deterministic.  None when the pool size is not a multiple of 4 or no
    grouping exists.
    """
    remaining = sorted(set(pool))
    if len(remaining) == 4:  # the pool is its own one candidate grouping
        part = frozenset(remaining)
        return None if fragment.witness_for(part) is None else (part,)
    chosen: list[frozenset[int]] = []
    return tuple(chosen) if _extend(fragment, remaining, chosen) else None


def _extend(fragment: Fragment, remaining: list[int], chosen: list[frozenset[int]]) -> bool:
    """Append to `chosen` the first grouping of `remaining` in canonical
    order and report whether one exists; `chosen` is as before when not."""
    if not remaining:
        return True
    seed, rest = remaining[0], remaining[1:]
    for combo in combinations(rest, 3):
        part = frozenset((seed, *combo))
        if fragment.witness_for(part) is None:
            continue
        chosen.append(part)
        if _extend(fragment, [v for v in rest if v not in part], chosen):
            return True
        chosen.pop()
    return False


class Local:
    """The closing state of one lift over its child realizations.

    `fragment`, the one Fragment a lift reads, runs from the first child's
    span start to the last one's end, so it holds the children's edges and
    nothing else: every tree edge of a child lies in that child's span.
    The children were realized one after the other in one cascade, so
    their spans abut, in some order, in one log; a Local traps unless they
    do.  It is the only place a Fragment is built, once per lift.  `parts`
    holds the parts this lift finalizes, in call order, and only those.
    """

    def __init__(self, tag: str, *children: Realization):
        self.tag = tag
        spans = sorted(children, key=_SPAN)
        log = spans[0].log if spans else None
        gap = log is None
        for a, b in zip(spans, spans[1:]):
            gap = gap or b.log is not log or b.start != a.end
        if gap:
            raise EngineBug(f"child spans {[_SPAN(r) for r in spans]} do not make one span", tag)
        self.fragment = Fragment(log, spans[0].start, spans[-1].end)
        self.parts: list[frozenset[int]] = []

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

    def keep(self, v: int, size: int, pool: Collection[int]) -> frozenset[int]:
        """The first `size`-subset of `pool`, in lexicographic order, that is
        connected to `v` in the fragment and whose complement groups into
        nearly connected 4-sets; that complement is finalized.  Traps when no
        subset works."""
        for combo in combinations(sorted(pool), size):
            kept = frozenset(combo)
            if len(bfs_parents(self.fragment, v, kept | {v})) == len(kept) + 1 and self.group(set(pool) - kept):
                return kept
        raise EngineBug(f"no way to keep a {size}-vertex subtree at {v} from pool {sorted(pool)}", self.tag)

    def far_tree(self, r: Realization, v: int, head: int, *extra: int, dummy_v: bool = False) -> BoundTree:
        """The tree at `head` of a child realization `r` read v -> head.

        A subdivided child hands v, its path and `extra` to the far side,
        spanned from `head`; a split child's tail tree closes with v and
        `extra` into finalized 4-sets, and its head tree serves the far side.
        With `dummy_v`, v belongs to another side: the spanned tree holds it
        as a dummy, and a split child's tail tree closes without it.
        """
        if r.subdiv is not None:
            return self.span(head, {head, v, *extra, *r.subdiv}, {v} if dummy_v else set())
        self.finalize((r.p_tree.actives - {v} if dummy_v else r.p_tree.actives | {v}) | set(extra))
        return r.q_tree

    def span(self, root: int, vertices: set[int] | frozenset[int],
             dummies: frozenset[int] | set[int] = frozenset()) -> BoundTree:
        """BFS spanning tree of `vertices` inside the fragment, rooted at `root`.

        The tree's edges are the (parent, child) pairs of :func:`graphs.bfs_parents`
        confined to `vertices`, in discovery order, with neighbours visited in
        ascending order.  Used to build composite trees out of child fragments
        whose exact shape varies.  The search enters only `vertices`, so
        once the root is among them it spans them when it reaches as many.
        """
        parent = bfs_parents(self.fragment, root, vertices)
        if root not in vertices or len(parent) != len(vertices):
            raise EngineBug(f"cannot span {sorted(vertices)} from {root} with the available edges", self.tag)
        return from_parents(root, parent, frozenset(dummies))

    def done(self, p_tree: BoundTree | None = None, q_tree: BoundTree | None = None,
             subdiv: tuple[int, ...] | None = None) -> Realization:
        """The lift's realization: the given trees or subdivision path and
        the parts this lift finalized; it materializes no edge of its own,
        and drive gives it its span."""
        return Realization(parts=tuple(self.parts), p_tree=p_tree, q_tree=q_tree, subdiv=subdiv)
