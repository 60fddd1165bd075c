"""Core graph types and connectivity primitives.

Vertices are dense integer indices ``0..n-1``.  :class:`SimpleGraph` is the
immutable world of inputs and outputs; :class:`Multigraph` allows parallel
edges with stable edge ids and is the mutable state of the reduction engine.
A multigraph keeps one incidence map, vertex -> {edge id: other end}, in
which each vertex's edges iterate in edge-id order, so degrees and incident
edges cost O(degree).

Blocks and 2-cuts come from one iterative depth-first search
(``_LowPoints``), which numbers the vertices and computes Hopcroft and
Tarjan's low points lowpt1 and lowpt2 and the descendant counts, yielding
each vertex as its subtree finishes.  :func:`is_biconnected` reads cut
vertices off it, after an O(1) edge count that rejects a graph with fewer
edges than vertices, and the Hopcroft-Tarjan separation-pair test
(``_separation_pair``, O(n + m)) takes it as its first pass, stopping at
the first type-1 pair.  :func:`leaf_side` finds a 2-cut of a Multigraph
with a side whose split component has no 2-cut, or None when the block has
none, by separation-pair tests on split components of falling order.
:func:`has_three_paths` decides whether no 2-set of a Multigraph separates
two non-adjacent vertices a and b: three common neighbours settle it in
O(deg a + deg b), else it finds the paths in g minus the common
neighbours, first by plain searches from both ends and then, only if one
of those fails, by breadth-first augmentations of O(m) each.

Every other traversal in the package calls three primitives:
:meth:`SimpleGraph.adj` builds the ascending neighbour lists,
:func:`bfs_parents` is the one breadth-first search, and
:func:`nearly_connected_witness` the one search for a connected superset
of a set with at most one extra vertex.  The exception is
:func:`graph_power`, whose searches stop k levels from their root.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Iterable, Iterator, Mapping, Sequence

Adjacency = Mapping[int, Iterable[int]] | Sequence[Iterable[int]]


def norm_edge(u: int, v: int) -> tuple[int, int]:
    """Return the canonically ordered endpoint pair of an undirected edge."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class SimpleGraph:
    """Undirected simple graph: no loops, no parallel edges.

    A value: equality and hashing read `n` and `edges`, and neither can be
    assigned after construction."""

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                raise ValueError(f"edge {(u, v)} is not canonically ordered")
            if not 0 <= u < n or not v < n:
                raise ValueError(f"edge {(u, v)} has an endpoint outside 0..{n - 1}")
        self.__dict__.update(n=n, edges=edges)

    def __setattr__(self, attr: str, value) -> None:
        raise AttributeError(f"cannot assign to field {attr!r} of a SimpleGraph")

    def __eq__(self, other):
        if other.__class__ is not SimpleGraph:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n!r}, edges={self.edges!r})"

    @staticmethod
    def from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> "SimpleGraph":
        return SimpleGraph(n, frozenset(norm_edge(u, v) for u, v in pairs))

    @property
    def m(self) -> int:
        return len(self.edges)

    def adj(self) -> list[list[int]]:
        """Adjacency lists, each sorted ascending.  Built on the first call and
        returned as the same object afterwards, so callers must not mutate it."""
        if "_adj" not in self.__dict__:
            adj: list[list[int]] = [[] for _ in range(self.n)]
            for a, b in self.edges:
                adj[a].append(b)
                adj[b].append(a)
            for row in adj:
                row.sort()
            self.__dict__["_adj"] = adj
        return self.__dict__["_adj"]

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


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

    def other_end(self, eid: int, v: int) -> int:
        w = self._inc.get(v, {}).get(eid)
        if w is None:
            raise ValueError(f"vertex {v} is not an endpoint of edge {eid}")
        return w


def bfs_parents(adj: Adjacency, root: int, within: Collection[int] | None = None) -> dict[int, int | None]:
    """Breadth-first search from `root`: the parent of every vertex reached
    (None for the root), in discovery order.  Neighbours are scanned in the
    order `adj` lists them, and with `within` only its vertices are entered
    after the root."""
    parent: dict[int, int | None] = {root: None}
    dq = deque([root])
    while dq:
        x = dq.popleft()
        for y in adj[x]:
            if y not in parent and (within is None or y in within):
                parent[y] = x
                dq.append(y)
    return parent


def _spans(adj: Adjacency, vs: Collection[int]) -> bool:
    """True iff the nonempty set `vs` induces a connected subgraph."""
    return len(bfs_parents(adj, min(vs), vs)) == len(vs)


def nearly_connected_witness(adj: Adjacency, part: frozenset[int]) -> frozenset[int] | None:
    """Witness set S with part ⊆ S, |S| <= |part| + 1 and S inducing a
    connected subgraph, or None; `part` is nonempty.

    Tries the set itself, then each neighbour of it as the one extra vertex
    in ascending order: a vertex that is not adjacent to a disconnected set
    cannot connect it.
    """
    if _spans(adj, part):
        return part
    for x in sorted({y for v in part for y in adj[v]} - part):
        cand = part | {x}
        if _spans(adj, cand):
            return cand
    return None


class _LowPoints:
    """The one depth-first search behind the block test and pass 1 of the
    separation-pair test.  It searches `nbrs`, which gives each vertex's
    neighbours, from `root` and numbers the vertices it reaches 1, 2, ...
    in the order it enters them (`num`, and `vert` back).  For each number
    v it fills the parent (0 for the root), the lowest and second-lowest
    points lowpt1 and lowpt2 reached from the subtree of v by at most one
    frond (`low1`, `low2`; v itself when there is none), and the descendant
    count nd, v included.  A frond is an edge to an ancestor other than the
    parent, so neither the edge to the parent nor a parallel copy of any
    edge changes a value.

    `finishing` runs the search once, on its own stack, and yields each
    vertex as its subtree finishes, when the vertex's values are final and
    folded into its parent's, so a caller may stop at the first vertex
    that settles its question.
    """

    __slots__ = ("nbrs", "num", "vert", "parent", "low1", "low2", "nd")

    def __init__(self, nbrs: Adjacency, root: int):
        self.nbrs = nbrs
        self.num, self.vert = {root: 1}, [root, root]
        self.parent, self.low1, self.low2, self.nd = [0, 0], [0, 1], [0, 1], [0, 1]

    def finishing(self) -> Iterator[int]:
        nbrs, num, vert = self.nbrs, self.num, self.vert
        parent, low1, low2, nd = self.parent, self.low1, self.low2, self.nd
        path, scans = [1], [iter(nbrs[vert[1]])]
        while path:
            v = path[-1]
            for x in scans[-1]:
                w = num.get(x)
                if w is None:
                    num[x] = w = len(vert)
                    vert.append(x)
                    parent.append(v)
                    low1.append(w)
                    low2.append(w)
                    nd.append(1)
                    path.append(w)
                    scans.append(iter(nbrs[x]))
                    break
                if w < parent[v]:  # a frond
                    if w < low1[v]:
                        low1[v], low2[v] = w, low1[v]
                    elif low1[v] < w < low2[v]:
                        low2[v] = w
            else:
                path.pop()
                scans.pop()
                if path:
                    p = path[-1]
                    nd[p] += nd[v]
                    if low1[v] < low1[p]:
                        low1[p], low2[p] = low1[v], min(low1[p], low2[v])
                    elif low1[v] == low1[p]:
                        low2[p] = min(low2[p], low2[v])
                    else:
                        low2[p] = min(low2[p], low1[v])
                yield v


def _separation_pair(nbrs: dict[int, set[int]]) -> tuple[int, int, int] | None:
    """A 2-cut {a, b} of the block `nbrs`, a map from each of at least 4
    vertices to the set of its neighbours, as (kind, a, b), or None when it
    has none; O(n + m).

    This is the separation-pair test of Hopcroft and Tarjan ("Dividing a
    graph into triconnected components", 1973) as corrected by Gutwenger and
    Mutzel ("A linear time implementation of SPQR-trees", 2001), stopped at
    the first pair it finds, so it never splits the graph.  A vertex with
    two neighbours has them as a 2-cut (kind 1).  Passes:

    1. The depth-first search of `_LowPoints` numbers the vertices 1..n
       and computes lowpt1, lowpt2 and nd.  The subtree of r, for a tree
       arc b -> r with lowpt1(r) < b <= lowpt2(r), meets the rest of the
       graph only at lowpt1(r) and b, which then form a 2-cut if a third
       vertex lies outside it: a type-1 pair (kind 1).  The test stops at
       the first such r to finish.
    2. Each vertex's arcs are sorted by φ: 3 lowpt1(w) for a tree arc v -> w
       with lowpt2(w) < v, 3 w + 1 for a frond v -> w, 3 lowpt1(w) + 2 for
       any other tree arc.
    3. The path finder walks the arcs in that order and renumbers each
       vertex v to m - nd(v) + 1, m counting down at each return from a
       tree arc, so the subtree of v is the range v..v + nd(v) - 1; high(v)
       is the tail of the first frond into v that it walks.
    4. The path search walks the arcs again and keeps the stack of triples
       (h, a, b), each a candidate pair {a, b} whose inside reaches up to
       h, with None closing the triples of a path.  An arc starts a new
       path exactly when it is the root's first arc or not the first arc
       of its tail, since every subtree walk ends with a frond.  Back at a
       non-root v from a tree arc, a top triple with a = v whose b is not
       v's child is a type-2 pair (kind 2).  Gutwenger and Mutzel's other
       type-2 case, a child of degree 2, cannot occur once every vertex
       has three neighbours.

    Every pass keeps its own stack, so no depth of search meets the
    recursion limit.
    """
    for ws in nbrs.values():
        if len(ws) < 3:
            return (1, *sorted(ws))
    n = len(nbrs)
    tree = _LowPoints(nbrs, next(iter(nbrs)))
    num, vert, parent, low1, low2, nd = tree.num, tree.vert, tree.parent, tree.low1, tree.low2, tree.nd
    for v in tree.finishing():
        p = parent[v]
        if low1[v] < p <= low2[v] and nd[v] < n - 2:
            return (1, vert[low1[v]], vert[p])
    arcs: list[list[int]] = [[]]
    for v in range(1, n + 1):
        keyed = []
        for x in nbrs[vert[v]]:
            w = num[x]
            if parent[w] == v:
                keyed.append((3 * low1[w] + (2 if low2[w] >= v else 0), w))
            elif w < parent[v]:
                keyed.append((3 * w + 1, w))
        keyed.sort()
        arcs.append([w for _, w in keyed])
    new, high = [0] * (n + 1), [0] * (n + 1)  # high by the new numbers
    m, new[1] = n, 1
    path, scans = [1], [iter(arcs[1])]
    while path:
        v = path[-1]
        for w in scans[-1]:
            if w > v:
                new[w] = m - nd[w] + 1
                path.append(w)
                scans.append(iter(arcs[w]))
                break
            if not high[new[w]]:
                high[new[w]] = new[v]
        else:
            path.pop()
            scans.pop()
            m -= 1
    out: list[list[int]] = [[]] * (n + 1)
    low, size, up, name = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for v in range(1, n + 1):
        u = new[v]
        out[u] = [new[w] for w in arcs[v]]
        low[u], size[u], up[u], name[u] = new[low1[v]], nd[v], new[parent[v]], vert[v]
    triples: list[tuple[int, int, int] | None] = []
    path, done = [1], [0] * (n + 1)  # done[v]: arcs of v walked so far
    while path:
        v = path[-1]
        i = done[v]
        if i < len(out[v]):
            w = out[v][i]
            done[v] = i + 1
            if i or v == 1:  # the arc starts a path
                h, a = (w + size[w] - 1, low[w]) if w > v else (v, w)
                b = v
                while triples and triples[-1] and triples[-1][1] > a:
                    y, _, b = triples.pop()
                    h = max(h, y)
                triples.append((h, a, b))
                if w > v:
                    triples.append(None)
            if w > v:
                path.append(w)
            continue
        path.pop()
        if not path:
            break
        v = path[-1]
        while v > 1 and triples and triples[-1] and triples[-1][1] == v:
            b = triples.pop()[2]
            if up[b] != v:
                return (2, name[v], name[b])
        if done[v] > 1 or v == 1:  # the arc to the child just left started a path
            while triples.pop() is not None:
                pass
        while triples and triples[-1]:
            h, a, b = triples[-1]
            if v in (a, b) or high[v] <= h:
                break
            triples.pop()
    return None


def is_biconnected(g: SimpleGraph | Multigraph) -> bool:
    """True iff g is connected, has at least 2 vertices and no cutvertex.

    A two-vertex graph with at least one edge counts as biconnected.  A
    block on n >= 3 vertices has minimum degree 2 and so at least n edges;
    a graph with fewer is rejected before any neighbour map is built, so
    the cost of a rejected input does not grow with its vertex count.

    Otherwise the search of `_LowPoints` reads the cut vertices off its
    low points, stopping at the first: a non-root v is one when a child w
    has lowpt1(w) >= v, as no frond from the subtree of w passes over v.
    The root is one when it has two children, and then a child finishes
    with fewer than n - 1 descendants, as it does when g is disconnected
    and the root has a child; g is connected when the root's nd is n.
    Parallel edges change no low point, and a cut vertex of a multigraph
    is one of its simple graph.
    """
    n = g.n
    if n < 2 or n >= 3 and g.m < n:
        return False
    if isinstance(g, SimpleGraph):
        tree = _LowPoints(g.adj(), 0)
    else:
        tree = _LowPoints({x: ends.values() for x, ends in g._inc.items()}, next(iter(g._inc)))
    parent, low1, nd = tree.parent, tree.low1, tree.nd
    for v in tree.finishing():
        p = parent[v]
        if p == 1 and nd[v] < n - 1 or p > 1 and low1[v] >= p:
            return False
    return nd[1] == n


Side = tuple[tuple[int, int], frozenset[int]]


def leaf_side(g: Multigraph) -> Side | None:
    """A 2-cut (u, v), u < v, of the block g with a component C of
    g - {u, v} whose split component H = g[C ∪ {u, v}] + uv has no 2-cut,
    or None when g has no 2-cut; g has at least 3 vertices.

    The search descends by separation-pair tests (`_separation_pair`): on
    a pair {a, b} of the current graph (g at first) it takes the least
    component C of the current graph - {a, b} by (order, lowest vertex)
    among those that hold no pole of the previous round, and goes on in
    H = current[C ∪ {a, b}] + ab until the test finds no pair or H has 3
    vertices.  The previous poles are adjacent in the current graph, so at
    most one component holds a pole and some component holds none.  Such
    a C meets the rest of g only at a and b, so it is a component of
    g - {a, b} too, and H is a block.  Each round costs O(|H| + its edges).

    Lemma: on a simple block of minimum degree 3, as the driver consults
    it, no vertex of the final C lies in a 2-cut of g.  Take a 2-cut {x, y}
    of g with x in C.  If y lies in C ∪ {u, v}, the rest of g meets both u
    and v, so it acts as the edge uv and {x, y} cuts H too.  Otherwise u
    and v fall in different components of g - {x, y}, or one vertex would
    cut off a component; so C - x splits into a part that meets only x
    and u and a part that meets only x and v, and {x, u} or {x, v} cuts H,
    unless C = {x}, which would give x degree at most 2.  So C is also a
    least side by inclusion: a side D of a 2-cut {x, y} inside C misses x
    and y and is closed in the connected C, so D = C.
    """
    nbrs = {x: set(ends.values()) for x, ends in g._inc.items()}
    side: Side | None = None
    poles: tuple[int, ...] = ()
    while len(nbrs) > 3:
        found = _separation_pair(nbrs)
        if found is None:
            break
        _, a, b = found
        rest = nbrs.keys() - {a, b}
        comps = []
        for s in nbrs:
            if s in rest:
                comps.append(frozenset(bfs_parents(nbrs, s, rest)))
                rest -= comps[-1]
        side = (norm_edge(a, b), min((c for c in comps if not c.intersection(poles)),
                                     key=lambda c: (len(c), min(c))))
        inside, poles = side[1] | {a, b}, (a, b)
        nbrs = {x: ws & inside for x, ws in nbrs.items() if x in inside}
        nbrs[a].add(b)
        nbrs[b].add(a)
    return side


def has_three_paths(g: Multigraph, a: int, b: int) -> bool:
    """True iff g has three internally vertex-disjoint a-b paths; a and b
    must be distinct and non-adjacent.

    Let C be the common neighbours of a and b.  For each c in C some maximum
    family of such paths contains a-c-b: c lies on a path of every maximum
    family, else a-c-b would join it, and swapping that path for a-c-b keeps
    the family disjoint and keeps the paths a-c'-b of the other common
    neighbours.  So three paths exist iff |C| >= 3, settled in O(deg a +
    deg b), or g - C has 3 - |C| of them.

    The paths in g - C are first grown by plain breadth-first searches from
    both ends (`_plain_path`), each avoiding the vertices of the paths found
    before.  Disjoint paths are a flow of as many units, and a flow that is
    not maximum has an augmenting path in its residual graph, so when a
    plain search fails the residual augmentations (`_augment`) go on from
    that flow and the answer stays exact.  Each search costs O(m) at worst,
    but a plain one reaches only about the vertices within half the a-b
    distance of either end, and one that meets settles a path without a
    residual graph; an augmentation runs only after a plain search fails.
    """
    adj = g._inc
    common = set(adj[a].values()).intersection(adj[b].values())
    if len(common) >= 3:
        return True
    closed = common | {a}  # never entered
    into: dict[int, int] = {}  # x -> the tail of the flow arc entering x_in
    need = 3 - len(common)
    while need and _plain_path(adj, a, b, closed, into):
        need -= 1
    return all(_augment(adj, a, b, closed, into) for _ in range(need))


def _plain_path(adj: dict[int, dict[int, int]], a: int, b: int, closed: set[int], into: dict[int, int]) -> bool:
    """Add to the flow `into` one a-b path that enters neither `closed` nor
    a vertex with flow, found by breadth-first search from both ends a level
    at a time, each time from the end with the smaller frontier; False if
    there is none."""
    sides = ({a: a}, {b: b})  # vertex -> the vertex it was reached from, one map per end
    fronts = [[a], [b]]
    while fronts[0] and fronts[1]:
        s = len(fronts[0]) > len(fronts[1])
        mine, theirs = sides[s], sides[not s]
        nxt = []
        for x in fronts[s]:
            for y in adj[x].values():
                if y in theirs:
                    p, q = (y, x) if s else (x, y)  # the edge p-q joins a's side to b's
                    into[q] = p
                    while p != a:
                        into[p] = sides[0][p]
                        p = into[p]
                    while q != b:
                        into[sides[1][q]] = q
                        q = sides[1][q]
                    return True
                if y not in mine and y not in closed and y not in into:
                    mine[y] = x
                    nxt.append(y)
        fronts[s] = nxt
    return False


def _augment(adj: dict[int, dict[int, int]], a: int, b: int, closed: set[int], into: dict[int, int]) -> bool:
    """Grow the flow `into` by one unit with a breadth-first augmentation in
    the residual graph that never enters `closed`; False if it is maximum.

    Every vertex x other than a and b splits into x_in -> x_out of unit
    capacity, and each neighbour y of x gives the arc x_out -> y_in; parallel
    edges give one arc, as between non-adjacent vertices they add no
    disjoint path.  `into` maps each vertex with flow to the vertex its flow
    comes from, and is the whole flow: the arc from x to the next vertex y
    of its flow needs no mark, because x_out is then reached only back from
    y_in (or x is a, and y_in leads only back to a).  An entry y_in has one
    way on, to y_out when no flow passes y, else back to into[y]_out, so the
    search queues exits only.
    """
    in_from: dict[int, int] = {}  # y -> x: y_in reached from x_out (x == y: back from y_out)
    out_from: dict[int, int] = {a: a}  # x -> y: x_out reached from y_in (y == x: through x)
    queue = deque([a])
    while queue and b not in in_from:
        x = queue.popleft()
        if x in into and x not in in_from:  # back from x_out into x_in, then along its flow arc
            in_from[x] = x
            t = into[x]
            if t not in out_from:
                out_from[t] = x
                queue.append(t)
        for y in adj[x].values():
            if y in in_from or y in closed:
                continue
            in_from[y] = x
            if y == b:
                break
            t = into.get(y, y)
            if t not in out_from:
                out_from[t] = y
                queue.append(t)
    if b not in in_from:
        return False
    y = b
    while True:  # sink first: an entry loses its old flow arc before it gains the new one
        x = in_from[y]
        if x != y:
            into[y] = x  # into[b] is never read
        if x == a:
            break
        y = out_from[x]
        if y != x:
            del into[y]
    return True


def induced_is_connected(g: SimpleGraph, vertices: Iterable[int]) -> bool:
    """True iff `vertices` is nonempty and induces a connected subgraph of g."""
    vs = set(vertices)
    return bool(vs) and _spans(g.adj(), vs)


def graph_power(g: SimpleGraph, k: int) -> SimpleGraph:
    """Graph on the same vertices joining pairs at distance between 1 and k.

    Each vertex runs a breadth-first search that stops after k levels, so
    the cost is the number of edges each vertex reaches within distance k,
    summed over the vertices: O(n(n + m)) at worst, but O(n·d^k) on a graph
    of maximum degree d, such as linear on a cycle.
    """
    if k < 1:
        raise ValueError("power must be at least 1")
    adj = g.adj()
    edges: set[tuple[int, int]] = set()
    for s in range(g.n):
        seen, level = {s}, [s]
        for _ in range(k):
            reached = []
            for x in level:
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        reached.append(y)
            level = reached
        edges.update((s, t) for t in seen if t > s)
    return SimpleGraph(g.n, frozenset(edges))
