"""Core graph types and connectivity primitives.

Vertices are dense integer indices ``0..n-1``.  :class:`SimpleGraph` is the
immutable world of inputs and outputs; :class:`Multigraph` allows parallel
edges with stable edge ids and is the mutable state of the reduction engine.
A multigraph keeps one incidence map, vertex -> {edge id: other end}, in
which each vertex's edges iterate in edge-id order, so degrees and incident
edges cost O(degree).

Blocks, 2-cuts and removable edges all come from one primitive, Tarjan's
low-point DFS (``_low_points``) over that incidence map, run on g or on g
minus one vertex: it reports the vertices reached, the cut vertices and the
bridges.  A SimpleGraph argument is first turned into the multigraph whose
edge ids are the positions of its sorted edge list.  :func:`is_biconnected`
is one run on g; :func:`separation_index` is one run on g - u for every
vertex u, which lists every 2-cut of a block and the edges whose deletion
leaves no block in O(n(n + m)).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable


def norm_edge(u: int, v: int) -> tuple[int, int]:
    """Return the canonically ordered endpoint pair of an undirected edge."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph: no loops, no parallel edges."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                raise ValueError(f"edge {(u, v)} is not canonically ordered")
            if not 0 <= u < self.n or not v < self.n:
                raise ValueError(f"edge {(u, v)} has an endpoint outside 0..{self.n - 1}")

    @staticmethod
    def from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> "SimpleGraph":
        return SimpleGraph(n, frozenset(norm_edge(u, v) for u, v in pairs))

    @property
    def m(self) -> int:
        return len(self.edges)

    def adj(self) -> list[list[int]]:
        """Adjacency lists, each sorted ascending."""
        out: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            out[u].append(v)
            out[v].append(u)
        for row in out:
            row.sort()
        return out

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return SimpleGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, combinations(range(n), 2))


class Multigraph:
    """Mutable multigraph over an explicit vertex set.

    Parallel edges are allowed; self-loops are not.  Edge ids are unique and
    stable across mutations, which the reduction engine relies on for
    deterministic scanning and provenance.  Ids are handed out in increasing
    order, so insertion order is id order in every map below.
    """

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()):
        self._inc: dict[int, dict[int, int]] = {v: {} for v in vertices}
        self._edges: dict[int, tuple[int, int]] = {}
        self._next_eid = 0
        for u, v in edges:
            self.add_edge(u, v)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(self._inc)

    @property
    def n(self) -> int:
        return len(self._inc)

    @property
    def m(self) -> int:
        return len(self._edges)

    def add_edge(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if u not in self._inc or v not in self._inc:
            raise ValueError(f"edge {(u, v)} references a missing vertex")
        eid = self._next_eid
        self._next_eid += 1
        self._edges[eid] = (u, v)
        self._inc[u][eid] = v
        self._inc[v][eid] = u
        return eid

    def remove_edge(self, eid: int) -> None:
        u, v = self._edges.pop(eid)
        del self._inc[u][eid]
        del self._inc[v][eid]

    def remove_vertex(self, v: int) -> None:
        if self._inc[v]:
            raise ValueError(f"vertex {v} still has incident edges")
        del self._inc[v]

    def edge_tuples(self) -> list[tuple[int, int, int]]:
        """All edges as (eid, u, v), sorted by edge id."""
        return [(eid, u, v) for eid, (u, v) in self._edges.items()]

    def incident(self, v: int) -> list[int]:
        """Ids of the edges at v, ascending."""
        return list(self._inc[v])

    def degree(self, v: int) -> int:
        return len(self._inc[v])

    def other_end(self, eid: int, v: int) -> int:
        w = self._inc.get(v, {}).get(eid)
        if w is None:
            raise ValueError(f"vertex {v} is not an endpoint of edge {eid}")
        return w


def _as_multigraph(g: SimpleGraph | Multigraph) -> Multigraph:
    """g itself, or for a SimpleGraph the multigraph whose edge ids are the
    positions of its sorted edge list."""
    return Multigraph(range(g.n), sorted(g.edges)) if isinstance(g, SimpleGraph) else g


def _low_points(adj: dict[int, dict[int, int]], root: int,
                skip: int | None = None) -> tuple[dict[int, int], set[int], set[int]]:
    """Tarjan's low-point DFS from `root` of the graph minus the vertex `skip`.

    `adj` is an incidence map, vertex -> {edge id: other end}.

    Returns the discovery index of every vertex reached, the cut vertices of
    the component reached and the edge ids of its bridges.  Only the tree
    edge itself, identified by edge id, is ignored when scanning back to the
    DFS parent, so a parallel edge to the parent acts as a back edge.
    """
    disc = {root: 0}
    low = {root: 0}
    entry = {root: -1}
    iters = {root: iter(adj[root].items())}
    stack = [root]
    cuts: set[int] = set()
    bridges: set[int] = set()
    root_children = 0
    while stack:
        v = stack[-1]
        for eid, w in iters[v]:
            if w == skip or eid == entry[v]:
                continue
            if w not in disc:
                disc[w] = low[w] = len(disc)
                entry[w] = eid
                iters[w] = iter(adj[w].items())
                stack.append(w)
                break
            low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if stack:
                p = stack[-1]
                low[p] = min(low[p], low[v])
                if low[v] > disc[p]:
                    bridges.add(entry[v])
                if p == root:
                    root_children += 1
                elif low[v] >= disc[p]:
                    cuts.add(p)
    if root_children > 1:
        cuts.add(root)
    return disc, cuts, bridges


def is_biconnected(g: SimpleGraph | Multigraph) -> bool:
    """True iff g is connected, has at least 2 vertices and no cutvertex.

    A two-vertex graph with at least one edge counts as biconnected.  For
    multigraphs, a parallel edge to the DFS parent acts as a back edge.
    """
    adj = _as_multigraph(g)._inc
    if len(adj) < 2:
        return False
    reached, cuts, _ = _low_points(adj, min(adj))
    return len(reached) == len(adj) and not cuts


def _components_of(adj: dict[int, dict[int, int]], alive: set[int]) -> list[frozenset[int]]:
    """Connected components of the subgraph induced by `alive`, sorted by (size, min vertex)."""
    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    for s in sorted(alive):
        if s in seen:
            continue
        comp = {s}
        dq = deque([s])
        seen.add(s)
        while dq:
            x = dq.popleft()
            for y in adj[x].values():
                if y in alive and y not in seen:
                    seen.add(y)
                    comp.add(y)
                    dq.append(y)
        comps.append(frozenset(comp))
    comps.sort(key=lambda c: (len(c), min(c)))
    return comps


@dataclass(frozen=True)
class SeparationIndex:
    """The 2-cuts of a block and the edges it cannot lose.

    `cuts` lists every 2-cut {u, v} as (u, v) with u < v, in lexicographic
    order.  `smallest` pairs the cut minimizing the order of the smallest
    component of g - {u, v} with that component: among equal orders the
    first listed cut wins, and within a cut the component with the lowest
    vertex; it is None when g has no 2-cut.  `fixed_edges` holds the ids of
    the edges e for which g - e is not a block.
    """

    cuts: tuple[tuple[int, int], ...]
    smallest: tuple[tuple[int, int], frozenset[int]] | None
    fixed_edges: frozenset[int]


def separation_index(g: SimpleGraph | Multigraph) -> SeparationIndex:
    """Separation index of a block g on at least 3 vertices, in O(n(n + m)).

    One low-point DFS of g - u for every vertex u: {u, v} is a 2-cut iff v
    is a cut vertex of g - u, and g - e is not a block iff e is a bridge of
    some g - u.  Components are taken only for the listed cuts.  The caller
    guarantees that g is a block; on other inputs the index is incomplete.
    """
    adj = _as_multigraph(g)._inc
    verts = sorted(adj)
    cuts: set[tuple[int, int]] = set()
    fixed: set[int] = set()
    for u in verts:
        root = verts[1] if u == verts[0] else verts[0]
        _, cut_vertices, bridges = _low_points(adj, root, skip=u)
        cuts.update(norm_edge(u, v) for v in cut_vertices)
        fixed |= bridges
    ordered = tuple(sorted(cuts))
    smallest: tuple[tuple[int, int], frozenset[int]] | None = None
    for u, v in ordered:
        comp = _components_of(adj, set(verts) - {u, v})[0]
        if smallest is None or len(comp) < len(smallest[1]):
            smallest = ((u, v), comp)
    return SeparationIndex(ordered, smallest, frozenset(fixed))


def induced_is_connected(g: SimpleGraph, vertices: Iterable[int]) -> bool:
    vs = set(vertices)
    if not vs:
        return False
    adj = g.adj()
    start = min(vs)
    seen = {start}
    dq = deque([start])
    while dq:
        x = dq.popleft()
        for y in adj[x]:
            if y in vs and y not in seen:
                seen.add(y)
                dq.append(y)
    return seen == vs


def smallest_2cut_component(
    g: SimpleGraph | Multigraph,
) -> tuple[tuple[int, int], frozenset[int]] | None:
    """A 2-cut {u,v} minimizing the order of the smallest component of g - {u,v}.

    Returns None when g is 3-connected (or too small to have a 2-cut).
    Raises ValueError when g is not 2-connected.  Deterministic: cuts are
    taken in lexicographic order and only strictly smaller components
    replace the incumbent (see :class:`SeparationIndex`).
    """
    g = _as_multigraph(g)
    if not is_biconnected(g):
        raise ValueError("graph is not 2-connected")
    return separation_index(g).smallest


def bfs_distances(g: SimpleGraph, source: int, limit: int | None = None) -> dict[int, int]:
    adj = g.adj()
    dist = {source: 0}
    dq = deque([source])
    while dq:
        x = dq.popleft()
        if limit is not None and dist[x] >= limit:
            continue
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                dq.append(y)
    return dist


def graph_power(g: SimpleGraph, k: int) -> SimpleGraph:
    """Graph on the same vertices joining pairs at distance between 1 and k."""
    if k < 1:
        raise ValueError("power must be at least 1")
    edges: set[tuple[int, int]] = set()
    for s in range(g.n):
        for t in bfs_distances(g, s, limit=k):
            if t > s:
                edges.add((s, t))
    return SimpleGraph(g.n, frozenset(edges))
