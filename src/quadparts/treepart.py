"""Partition a connected graph into parts of prescribed sizes, each inside a
small subtree.

Every part A_i of size n_i comes with a witness: a subtree of the input graph
with at most 2*n_i - 1 vertices containing A_i.  The construction peels the
deepest sufficiently large subtree of a spanning tree, taking either the
whole subtree or the deepest n_i vertices of a minimal bundle of its child
components, which keeps the remainder connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import SimpleGraph, bfs_parents, induced_is_connected
from .oracle import Part


@dataclass(frozen=True)
class RootedTreeView:
    """A BFS spanning tree rooted at vertex 0 with parent and depth arrays."""

    parent: tuple[int, ...]  # parent[root] == -1
    depth: tuple[int, ...]

    @staticmethod
    def build(g: SimpleGraph) -> "RootedTreeView":
        reached = bfs_parents(g.adj(), 0)
        if len(reached) != g.n:
            raise ValueError("graph is disconnected")
        parent = [-1] * g.n
        depth = [0] * g.n
        for x, p in reached.items():
            if p is not None:
                parent[x] = p
                depth[x] = depth[p] + 1
        return RootedTreeView(tuple(parent), tuple(depth))


def _subtree_sizes(view: RootedTreeView, alive: set[int]) -> dict[int, int]:
    size = {v: 1 for v in alive}
    for v in sorted(alive, key=lambda x: -view.depth[x]):
        p = view.parent[v]
        if p >= 0 and p in alive:
            size[p] += size[v]
    return size


def _descendants(view: RootedTreeView, alive: set[int], w: int) -> set[int]:
    children: dict[int, list[int]] = {v: [] for v in alive}
    for v in alive:
        p = view.parent[v]
        if p >= 0 and p in alive:
            children[p].append(v)
    return set(bfs_parents(children, w))


def partition_tree(g: SimpleGraph, sizes: Sequence[int]) -> list[Part]:
    """Partition V(g) into parts of the given sizes with subtree witnesses.

    Each returned part carries a witness of at most 2*size - 1 vertices that
    induces a connected subgraph containing the part.  Deterministic: ties on
    "deepest subtree" break to the lowest vertex id, and the vertices kept
    from an oversized bundle are those deepest below the bundle point
    (ties again by id).
    """
    if any(s < 1 for s in sizes):
        raise ValueError("all part sizes must be positive")
    if sum(sizes) != g.n:
        raise ValueError(f"sizes sum to {sum(sizes)}, expected n={g.n}")
    if g.n == 0:
        return []
    view = RootedTreeView.build(g)
    alive = set(range(g.n))
    parts: list[Part] = []
    for target in sizes:
        size = _subtree_sizes(view, alive)
        candidates = [v for v in alive if size[v] >= target]
        w = max(candidates, key=lambda v: (view.depth[v], -v))
        sub_w = _descendants(view, alive, w)
        if size[w] == target:
            members = frozenset(sub_w)
            witness = frozenset(sub_w)
        else:
            # Every child component of w has fewer than `target` vertices, so
            # a minimal bundle of them has at most 2*target - 2 in total.
            comps = _child_components(view, alive, w, sub_w)
            bundle = _minimal_bundle(comps, target)
            pool = sorted(set().union(*bundle), key=lambda v: (-view.depth[v], v))
            members = frozenset(pool[:target])
            witness = frozenset(set().union(*bundle) | {w})
        if len(witness) > 2 * target - 1:
            raise AssertionError("witness bound exceeded; peeling logic is broken")
        parts.append(Part(members, witness))
        alive -= members
        if alive and not induced_is_connected(g, alive):
            # The removed set is descendant-closed, so this cannot happen.
            raise AssertionError("remainder lost connectivity during peeling")
    return parts


def _child_components(view: RootedTreeView, alive: set[int], w: int, sub_w: set[int]) -> list[frozenset[int]]:
    comps = []
    for c in sorted(v for v in sub_w if view.parent[v] == w):
        comps.append(frozenset(_descendants(view, alive, c)))
    return comps


def _minimal_bundle(comps: list[frozenset[int]], target: int) -> list[frozenset[int]]:
    """Inclusion-minimal set of components whose total size reaches `target`.

    Greedy by decreasing size up to the first prefix that reaches `target`,
    which is minimal: dropping any chosen component, at least as large as
    the last one, falls below `target`.
    """
    order = sorted(comps, key=lambda c: (-len(c), min(c)))
    chosen: list[frozenset[int]] = []
    total = 0
    for c in order:
        chosen.append(c)
        total += len(c)
        if total >= target:
            break
    if total < target:
        raise AssertionError("bundle cannot reach the requested size")
    return chosen
