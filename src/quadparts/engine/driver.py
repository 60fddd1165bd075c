"""Reduction driver: repeatedly rewrite the labeled block until one edge
remains, then realize the accumulated gadget cascade into a verified
partition of the original vertices into nearly connected 4-sets.

Reduction priority is fixed (parallel pair, then degree-2 contraction, then
a zero-weight strip at a removable vertex, then an absorbable edge, then a
removable vertex), scanning lowest ids first, so runs are reproducible.
Each step is decided once: :func:`find_reduction` returns it as a pair
``(kind, args)``, whose kind is the one the trace prints, and
:func:`apply_reduction` passes the args to that kind's reduce function.
Past the first two checks, the separation index (carried while three-path
checks between the ends of removed edges show it still has no 2-cut:
:meth:`~quadparts.engine.model.LabeledMultigraph.separation_index`)
supplies a 2-cut with a leaf side (:func:`~quadparts.graphs.leaf_side`),
whose vertices lie in no 2-cut and so are the candidates for a strip or
vertex step, or says that there is no 2-cut, when every vertex is one.
After every step the driver asserts the two structural invariants: total
weight plus order stays divisible by 4, read off a running total, and the
graph remains a block.  Every step kind proves the second with an
O(degree) certificate read from what the step removed
(:func:`_still_a_block`); the only whole-graph block checks are of the
input and of G - e1 for an absorb candidate e1.  The parallel pair and
the degree-2 vertex come from worklists the graph keeps up to date
(:meth:`~quadparts.engine.model.LabeledMultigraph.parallel_pair` and
:meth:`~quadparts.engine.model.LabeledMultigraph.degree2_vertex`), so those
steps cost O(degree) plus heap upkeep.  Two more per-vertex counts, of
weight-0 edges and of edges that read L31 away from the vertex, decide in
O(1) whether a vertex outside every 2-cut takes a strip or a vertex step.

A drop or a strip deletes one weight-0 edge (:func:`_delete`).  A leaf, an
original edge, is retired with nothing to realize; an ``L00`` edge is
eliminated like the flat and pair eliminations at a vertex.  Every part
finalized along the way goes to one list, ``lg.emitted``: each request of
the driver passes it to :func:`~quadparts.engine.model.drive` as the sink
for each realization's own parts, :func:`_eliminate` adds the parts an
eager elimination finalizes itself, and :func:`solve_base` the two base
parts of the final edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ..graphs import Multigraph, SimpleGraph, is_biconnected, norm_edge
from ..labels import S0, S1, S2, S3, S3P, Pair
from ..oracle import Part, Partition, is_nearly_connected
from .model import EdgeView, EngineBug, LabeledMultigraph, Split, Subdivide, ask, drive, leaf_gadget
from .parallel import build_parallel_gadget
from .reducible import (build_deg3_general, build_deg3_pair_config, build_deg3_sum9_a, build_deg3_sum9_b,
                        build_deg3_sum9_c, build_deg4plus_heavy, build_deg4plus_light, build_edge_absorb,
                        eliminate_with_fixed_splits)
from .series import build_series_gadget


# ---------------------------------------------------------------------------
# Reduction steps

# A step is a pair (kind, args): the kind names the reduce function, which
# reads the edge ids and vertex in args (see find_reduction).
Step = tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class TraceStep:
    """One applied step; a step after which an invariant failed traps
    instead, so `format` prints both as holding."""

    index: int
    kind: str
    detail: str
    edges_after: int
    vertices_after: int

    def format(self) -> str:
        return (f"step={self.index} kind={self.kind} detail={self.detail} mod4=1 block=1 "
                f"edges={self.edges_after} vertices={self.vertices_after}")


# ---------------------------------------------------------------------------
# Setup


def init_labeled(g: SimpleGraph) -> LabeledMultigraph:
    """Label every edge of a 2-connected order-4k graph with the empty label."""
    if g.n % 4 != 0:
        raise ValueError(f"graph order {g.n} is not divisible by 4")
    if not is_biconnected(g):
        raise ValueError("graph is not 2-connected")
    lg = LabeledMultigraph(g)
    for u, v in g.sorted_edges():
        lg.install(leaf_gadget(u, v))
    if not lg.invariant_ok():
        raise EngineBug("weight/order invariant broken at initialization")
    return lg


# ---------------------------------------------------------------------------
# Reduction search


def find_reduction(lg: LabeledMultigraph) -> Step:
    """Next reduction step under the fixed priority order, as ``(kind,
    args)``: ``("parallel", (e1, e2))``, ``("series", (v,))``, ``("strip",
    (v, e))``, ``("absorb", (e1, e2, v))`` or ``("vertex", (v,))``.  A strip
    is picked at a removable vertex with a weight-0 edge, e the lowest one,
    and a vertex step at one without.  A vertex v is removable when G - v is
    a block (v lies in no 2-cut) and at most one edge reads L31 away from v.
    The candidates are the leaf side of the separation index, none of whose
    vertices lies in a 2-cut (the lemma of `leaf_side`), or every vertex
    when there is no 2-cut; the graph's counts `l31_away` and `zero_at`
    decide each candidate in O(1).  An absorb takes an edge e1 that reads
    L32 from its host y and a sibling at y that reads L32 or L30, when G -
    e1 is a block; only such a candidate pays for that O(n + m) check.
    Traps if none exists and on a single edge, which the caller realizes
    instead."""
    if len(lg.edges) < 2:
        raise EngineBug(f"find_reduction called with {len(lg.edges)} edges; a single edge is the base case")
    pair = lg.parallel_pair()
    if pair is not None:
        return "parallel", pair
    v = lg.degree2_vertex()
    if v is not None:
        return "series", (v,)
    # The block is now simple with minimum degree 3, so n >= 4: G - v is a
    # block iff v lies in no 2-cut.
    side = lg.separation_index()
    if side is None:
        vertex_pool = sorted(lg.vertices)
        host_pool = vertex_pool
    else:
        (cu, cv), comp = side
        vertex_pool = sorted(comp)
        host_pool = sorted(comp | {cu, cv})
    zero_at, l31_away = lg.zero_at, lg.l31_away
    first_reducible = None
    for v in vertex_pool:
        if l31_away[v] > 1:
            continue
        if zero_at[v]:
            return "strip", (v, next(eid for eid in lg.incident(v) if lg.edges[eid].label.weight == 0))
        if first_reducible is None:
            first_reducible = v
    for y in host_pool:
        for eid in lg.incident(y):
            if lg.view(eid, y).label.name != "L32":
                continue
            for eid2 in lg.incident(y):
                if eid2 != eid and lg.view(eid2, y).label.name in ("L32", "L30"):
                    rest = Multigraph(lg.vertices, [(a, b) for x, a, b in lg.edge_tuples() if x != eid])
                    if is_biconnected(rest):
                        return "absorb", (eid, eid2, y)
                    break
    if first_reducible is not None:
        return "vertex", (first_reducible,)
    raise EngineBug("no reduction applies; the block analysis promises one")


# ---------------------------------------------------------------------------
# Reduction application


def reduce_parallel(lg: LabeledMultigraph, eid1: int, eid2: int) -> str:
    a = lg.edges[eid1]
    u = min(a.u, a.v)
    v = max(a.u, a.v)
    e1, e2 = sorted((lg.view(eid1, u), lg.view(eid2, u)), key=lambda e: (e.label.weight, e.eid))
    if e1.label.weight == 0:
        tag = f"drop[{e1.label.name}] eid={e1.eid}"
        _delete(lg, e1, tag)
        return tag
    if e1.label.name == "L30" and e2.label.name != "L30":
        e1, e2 = e2, e1
    tag = f"parallel[{e1.label.name}+{e2.label.name}]@({u},{v})"
    lg.install(build_parallel_gadget(e1, e2, tag))
    return tag


def reduce_series(lg: LabeledMultigraph, v: int) -> str:
    ea, eb = lg.incident(v)
    if (lg.edges[ea].label.weight, ea) > (lg.edges[eb].label.weight, eb):
        ea, eb = eb, ea
    e1, e2 = lg.view(ea, lg.other_end(ea, v)), lg.view(eb, v)
    tag = f"series[{e1.label.name}+{e2.label.name}]@{v}"
    lg.install(build_series_gadget(e1, e2, tag))
    return tag


def reduce_edge(lg: LabeledMultigraph, eid1: int, eid2: int, v: int) -> str:
    e1, e2 = lg.view(eid1, v), lg.view(eid2, v)
    tag = f"absorb[{e1.label.name}->{e2.label.name}]@{v}"
    lg.install(build_edge_absorb(e1, e2, tag))
    return tag


def _strip_weight0(lg: LabeledMultigraph, v: int, eid: int) -> str:
    view = lg.view(eid, v)
    tag = f"strip[{view.label.name}] eid={eid}@{v}"
    _delete(lg, view, tag)
    return tag


def reduce_vertex(lg: LabeledMultigraph, v: int) -> str:
    views = [lg.view(eid, v) for eid in lg.incident(v)]
    if any(e.label.weight == 0 for e in views):
        raise EngineBug(f"vertex {v} still carries a weight-0 edge", "reduce_vertex")
    d = len(views)
    if d == 3:
        return _reduce_vertex_deg3(lg, v, views)
    return _reduce_vertex_deg4plus(lg, v, views)


def _delete(lg: LabeledMultigraph, view: EdgeView, tag: str) -> None:
    """Delete the weight-0 edge `view` at its tail, by its one split (S0, S0).

    A leaf, an original edge, is retired as it is: its split binds its two
    ends as bare roots, and its scope is empty, so the split finalizes,
    materializes and exposes nothing and there is nothing to realize or
    check.  Any other weight-0 edge is eliminated through :func:`drive`."""
    if view.edge.kind == "leaf":
        lg.retire((view,), None)
    else:
        _eliminate(lg, [(view, (S0, S0))], view.tail, False, tag)


def _eliminate(lg: LabeledMultigraph, ops: list[tuple[EdgeView, Pair]], v: int, with_v: bool, tag: str) -> None:
    """An eager elimination at v: realize the fixed splits `ops`, add the
    parts they free to `lg.emitted` and retire their edges, and v too when
    `with_v`.  Flat and pair eliminations at a vertex and the deletion of an
    `L00` edge (:func:`_delete`) come here; a leaf is retired without one."""
    loc, _ = drive(eliminate_with_fixed_splits(ops, v, with_v, tag), lg.emitted)
    lg.emitted.extend(loc.parts)
    lg.retire([e for e, _ in ops], v if with_v else None)


def _reduce_vertex_deg3(lg: LabeledMultigraph, v: int, views: list[EdgeView]) -> str:
    a, b, c = sorted(views, key=lambda e: (-e.label.weight, e.eid))
    i, j, k = a.label.weight, b.label.weight, c.label.weight
    s = i + j + k + 1
    names = f"{a.label.name}/{b.label.name}/{c.label.name}"
    if s in (4, 8):
        if s == 4:
            ops = [(a, (S1, S0)), (b, (S1, S0)), (c, (S1, S0))]
        elif j == 2:
            ops = [(a, (S3, S0)), (b, (S2, S0)), (c, (S2, S0))]
        else:
            ops = [(a, (S3, S0)), (b, (S3, S0)), (c, (S1, S0))]
        _eliminate(lg, ops, v, True, f"vertex3[{names}]@{v}")
        return f"vertex3-flat[{names}]@{v}"
    tag = f"vertex3[{names}]@{v}"
    if 5 <= s <= 7:
        if k == 1 and b.label.name == "L21" and a.label.name in ("L21", "L32"):
            gadget = build_deg3_pair_config(a, b, c, tag)
        else:
            gadget = build_deg3_general(a, b, c, tag)
    elif s == 9:
        if b.label.name == "L31":
            a, b = b, a
        if a.label.name == "L31" and b.label.name == "L30" and c.label.name in ("L2", "L20"):
            gadget = build_deg3_sum9_a(a, b, c, tag)
        elif a.label.name == "L31" and b.label.name == "L32" and c.label.name in ("L2", "L20"):
            gadget = build_deg3_sum9_b(a, b, c, tag)
        else:
            gadget = build_deg3_sum9_c(a, b, c, tag)
    elif s == 10:
        heavies = sorted(views, key=lambda e: (e.label.name != "L31", e.eid))
        a, b, c = heavies[0], heavies[1], heavies[2]
        if b.label.name != "L30" or c.label.name != "L30":
            raise EngineBug(f"unabsorbed asymmetric weight-3 edge at {v} ({names})", tag)
        gadget = build_deg4plus_heavy(b, c, tag, fixed=a)
    else:
        raise EngineBug(f"impossible combined weight {s} at vertex {v}", tag)
    lg.install(gadget)
    return tag


def _reduce_vertex_deg4plus(lg: LabeledMultigraph, v: int, views: list[EdgeView]) -> str:
    d = len(views)
    names = "/".join(e.label.name for e in views)
    plain = {1: S1, 2: S2, 3: S3}
    for ei, ej in combinations(sorted(views, key=lambda e: e.eid), 2):
        if ei.label.weight + ej.label.weight == 4:
            ops = [(ei, (plain[ei.label.weight], S0)), (ej, (plain[ej.label.weight], S0))]
            _eliminate(lg, ops, v, False, f"vertex4+pair[{names}]@{v}")
            return f"vertex4-pair[{ei.label.name}+{ej.label.name}]@{v}"
    weights = sorted(e.label.weight for e in views)
    if weights[-1] < 3:
        ordered = sorted(views, key=lambda e: (-e.label.weight, e.eid))
        if d >= 6 or (d == 5 and ordered[0].label.weight == 2):
            if d >= 6:
                ops = [(e, (S1, S0)) for e in ordered[-4:]]
            else:
                ops = [(ordered[0], (S2, S0)), (ordered[-2], (S1, S0)), (ordered[-1], (S1, S0))]
            _eliminate(lg, ops, v, False, f"vertex4+flat[{names}]@{v}")
            return f"vertex4-flat[{names}]@{v}"
        tag = f"vertex4-light[{names}]@{v}"
        lg.install(build_deg4plus_light(ordered[0], ordered[1], ordered[2:], tag))
        return tag
    if 1 in weights:
        raise EngineBug(f"mixed unit and weight-3 edges survived pair elimination at {v}", names)
    plain_heavy = sorted((e for e in views if e.label.name == "L30"), key=lambda e: e.eid)
    if len(plain_heavy) < 2:
        raise EngineBug(f"expected two plain weight-3 edges at {v}, got {names}", names)
    e3, e4 = plain_heavy[0], plain_heavy[1]
    tag = f"vertex4-heavy[{e3.label.name}+{e4.label.name}]@{v}"
    lg.install(build_deg4plus_heavy(e3, e4, tag))
    return tag


_REDUCE = {
    "parallel": reduce_parallel,
    "series": reduce_series,
    "strip": _strip_weight0,
    "absorb": reduce_edge,
    "vertex": reduce_vertex,
}


def apply_reduction(lg: LabeledMultigraph, step: Step) -> tuple[str, str]:
    """Rewrite `lg` by the step ``(kind, args)`` of :func:`find_reduction`:
    the reduce function of `kind` reads `args`.  Returns the kind and the
    step's trace detail; an unknown kind traps."""
    kind, args = step
    reduce = _REDUCE.get(kind)
    if reduce is None:
        raise EngineBug(f"cannot apply reduction step {step}")
    return kind, reduce(lg, *args)


# ---------------------------------------------------------------------------
# Base case and the full pipeline


def solve_base(lg: LabeledMultigraph) -> tuple[frozenset[int], ...]:
    """Realize the final single edge, whose weight is forced to 2, adding
    the parts it finalizes to `lg.emitted`; returns every emitted part."""
    eids = lg.edge_ids()
    if len(eids) != 1:
        raise EngineBug(f"base case reached with {len(eids)} edges")
    edge = lg.edges[eids[0]]
    view = lg.view(eids[0], edge.u)
    if edge.label.weight != 2:
        raise EngineBug(f"final edge has weight {edge.label.weight}, the invariant forces 2")
    if edge.label.name == "L2":
        real = drive(ask(view, Subdivide(2)), lg.emitted)
        lg.emitted.append(frozenset({edge.u, *real.subdiv, edge.v}))
    elif edge.label.name in ("L20", "L21"):
        real = drive(ask(view, Split(S3, S3P)), lg.emitted)
        lg.emitted += (real.p_tree.actives, real.q_tree.actives)
    else:
        raise EngineBug(f"final edge carries unexpected label {edge.label}")
    return tuple(lg.emitted)


def _still_a_block(lg: LabeledMultigraph, kind: str, args: tuple[int, ...]) -> bool:
    """Whether the graph, a block before the step ``(kind, args)``, is
    still one: an O(degree) certificate per step kind, read from what the
    step removed (`take_changes`).

    Adding an edge between two vertices of a block leaves a block, so each
    certificate reads only what went.  Strip, absorb and vertex steps are
    picked on a simple block of minimum degree 3 (parallel pairs and
    degree-2 vertices go first), so n >= 4 and each pick's reason holds in
    the simple graph G before the step.

    - parallel (merge or drop): no vertex and no adjacency went, so the
      underlying simple graph is unchanged.
    - series at v: v went with exactly its two adjacencies, to distinct a
      and b (distinct because no parallel pair was left when series was
      chosen), and a, b are adjacent now.  That is v contracted into ab,
      and contracting keeps a block a block: G' - x for x not in {a, b} is
      G - x with the path a v b shortened to an edge, and G' - a is
      G - a less the leaf v.
    - strip or vertex step at v: v lies in no 2-cut (it was picked from a
      leaf side, which holds none by the lemma of `graphs.leaf_side`, or
      from a graph with no 2-cut), so G - v is a block.  No vertex but v
      went and every lost adjacency is at v, so G' contains G - v.  If v
      went, that is all of G'; if v stays with two distinct neighbours, G'
      is G - v plus an ear through v.  A strip that lost at most one of the
      three or more adjacencies v had leaves v two, so it needs no
      neighbour scan; the vertex steps that keep v (heavy at degree >= 4,
      pair and flat) read v's neighbours.
    - absorb of e1 at y: G - e1 is a block (find_reduction checked that
      before it picked e1).  No vertex went and at most e1's adjacency was
      lost, so G' contains G - e1.  e1's ends are read off the absorb
      gadget, the newest edge, which holds e1 as a child.
    """
    removed, lost = lg.take_changes()
    if kind == "parallel":
        return not removed and not lost
    if kind == "series":
        (v,) = args
        ends = {x for pair in lost for x in pair} - {v}
        return removed == [v] and len(lost) == 2 and all(v in pair for pair in lost) and lg.adjacent(*ends)
    if kind == "absorb":
        newest = next(reversed(lg.edges.values()))
        absorbed = {norm_edge(e.tail, e.head) for e in newest.children if e.eid == args[0]}
        return not removed and len(absorbed) == 1 and lost <= absorbed
    v = args[0]
    if removed not in ([], [v]) or any(v not in pair for pair in lost):
        return False
    if removed:
        return True
    if kind == "strip":
        return len(lost) <= 1
    return len({lg.other_end(eid, v) for eid in lg.incident(v)}) >= 2


def run_reduction(g: SimpleGraph) -> tuple[tuple[frozenset[int], ...], list[TraceStep]]:
    """Reduce to a single edge and realize; returns raw parts and the trace."""
    lg = init_labeled(g)
    trace: list[TraceStep] = []
    step = 0
    budget = g.m + g.n + 8
    while len(lg.edges) > 1:
        if step > budget:
            raise EngineBug("reduction failed to terminate within the edge budget")
        picked = find_reduction(lg)
        kind, detail = apply_reduction(lg, picked)
        if not lg.invariant_ok():
            raise EngineBug(f"weight/order invariant broken after {detail}")
        if not _still_a_block(lg, kind, picked[1]):
            raise EngineBug(f"block certificate failed after {detail}")
        trace.append(TraceStep(step, kind, detail, len(lg.edges), lg.n))
        step += 1
    return solve_base(lg), trace


def partition_with_trace(g: SimpleGraph) -> tuple[Partition, list[TraceStep]]:
    """Partition V(g) into nearly connected 4-sets (g 2-connected, 4 | n),
    with the reduction trace.

    Deterministic, and self-checking: coverage, disjointness and
    near-connectedness of every part are verified against g before returning.
    """
    parts, trace = run_reduction(g)
    return _verified(g, parts), trace


def partition_2connected(g: SimpleGraph) -> Partition:
    """The partition of :func:`partition_with_trace` without the trace."""
    return partition_with_trace(g)[0]


def _verified(g: SimpleGraph, parts: tuple[frozenset[int], ...]) -> Partition:
    seen: set[int] = set()
    for p in parts:
        if len(p) != 4:
            raise EngineBug(f"emitted part {sorted(p)} does not have 4 vertices")
        if p & seen:
            raise EngineBug(f"emitted parts overlap on {sorted(p & seen)}")
        seen |= p
    if seen != set(range(g.n)):
        raise EngineBug(f"parts cover {len(seen)} of {g.n} vertices")
    out = []
    for p in sorted(parts, key=lambda s: min(s)):
        witness = is_nearly_connected(g, p)
        if witness is None:
            raise EngineBug(f"emitted part {sorted(p)} is not nearly connected in the input")
        out.append(Part(p, witness))
    return Partition(tuple(out))
