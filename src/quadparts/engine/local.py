"""Local partition search used while composing gadget realizations.

When a rewrite finalizes the vertices gathered around an eliminated vertex,
the exact grouping into nearly connected 4-sets depends on the shapes the
child realizations happened to produce.  Rather than hard-coding one grouping
per case, the lifts hand the materialized local fragment (real graph edges)
to a tiny exact search.  :func:`group` answers whether a grouping exists
(None when it does not), for lifts that try several vertex allocations;
:func:`finalize` is the same search for lifts whose case table promises a
grouping, and traps with the caller's provenance when there is none, since
that means the table was transcribed wrongly.  A :class:`Fragment` is an
adjacency from :func:`graphs.adjacency`; its connectivity test and witness
search are the graph layer's :func:`bfs_parents` and
:func:`nearly_connected_witness`, which the oracle uses too.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from ..graphs import adjacency, bfs_parents, nearly_connected_witness
from .model import EngineBug


class Fragment:
    """A small scratch graph of real edges materialized by child realizations."""

    def __init__(self, edges: Iterable[tuple[int, int]], extra_vertices: Iterable[int] = ()):
        self.adj = adjacency(edges, extra_vertices)

    def connected(self, vs: frozenset[int]) -> bool:
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


def finalize(fragment: Fragment, finalize_set: Iterable[int], provenance: str) -> tuple[frozenset[int], ...]:
    """:func:`group`, trapping when the set cannot be grouped."""
    todo = sorted(set(finalize_set))
    if len(todo) % 4 != 0:
        raise EngineBug(f"finalize set {todo} has size {len(todo)}, not a multiple of 4", provenance)
    parts = group(fragment, todo)
    if parts is None:
        raise EngineBug(f"no nearly connected grouping of {todo} in the local fragment", provenance)
    return parts


def assert_part(fragment: Fragment, part: Iterable[int], provenance: str) -> frozenset[int]:
    """Validate one explicitly constructed 4-set against the fragment."""
    p = frozenset(part)
    if len(p) != 4:
        raise EngineBug(f"constructed part {sorted(p)} does not have 4 vertices", provenance)
    if fragment.witness_for(p) is None:
        raise EngineBug(f"constructed part {sorted(p)} is not nearly connected locally", provenance)
    return p


