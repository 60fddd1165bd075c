"""Reduction driver: repeatedly rewrite the labeled block until one edge
remains, then realize the accumulated gadget cascade into a verified
partition of the original vertices into nearly connected 4-sets.

Reduction priority is fixed (parallel pair, then degree-2 contraction, then
a zero-weight strip at a removable vertex, then an absorbable edge, then a
removable vertex), scanning lowest ids first, so runs are reproducible.
Past the first two checks, the separation index (carried while three-path
checks between the ends of removed edges show it still has no 2-cut:
:meth:`~quadparts.engine.model.LabeledMultigraph.separation_index`)
supplies the 2-cut with the smallest side, which confines the search; the
vertices in no 2-cut, which are the removable ones; and the edges whose
deletion would leave no block.
After every step the driver asserts the two structural invariants: total
weight plus order stays divisible by 4, read off a running total, and the
graph remains a block.  Parallel, drop, series and strip steps prove the
second with an O(degree) certificate (:func:`_still_a_block`); absorb and
vertex steps run the full block check.  The parallel pair and the degree-2
vertex come from worklists the graph keeps up to date
(:meth:`~quadparts.engine.model.LabeledMultigraph.parallel_pair` and
:meth:`~quadparts.engine.model.LabeledMultigraph.degree2_vertex`), so those
steps cost O(degree) plus heap upkeep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ..graphs import SimpleGraph, is_biconnected
from ..labels import CATALOG, Pair, TreeSet
from ..oracle import Part, Partition, is_nearly_connected
from .model import (
    EdgeView,
    EngineBug,
    LabeledMultigraph,
    Split,
    Subdivide,
    ask,
    drive,
    leaf_gadget,
)
from .parallel import build_parallel_gadget
from .reducible import (
    build_deg3_general,
    build_deg3_pair_config,
    build_deg3_sum9_a,
    build_deg3_sum9_b,
    build_deg3_sum9_c,
    build_deg4plus_heavy,
    build_deg4plus_light,
    build_edge_absorb,
    eliminate_with_fixed_splits,
)
from .series import build_series_gadget

S0, S1, S2, S3 = TreeSet.S0, TreeSet.S1, TreeSet.S2, TreeSet.S3
S3P = TreeSet.S3P


# ---------------------------------------------------------------------------
# Reduction choices


@dataclass(frozen=True)
class Base:
    pass


@dataclass(frozen=True)
class Parallel:
    e1: int
    e2: int


@dataclass(frozen=True)
class Series:
    v: int


@dataclass(frozen=True)
class ReducibleEdge:
    e1: int
    e2: int
    v: int


@dataclass(frozen=True)
class ReducibleVertex:
    v: int


ReductionChoice = Base | Parallel | Series | ReducibleEdge | ReducibleVertex


@dataclass(frozen=True)
class TraceStep:
    index: int
    kind: str
    detail: str
    mod4_ok: bool
    block_ok: bool
    edges_after: int
    vertices_after: int

    def format(self) -> str:
        return (f"step={self.index} kind={self.kind} detail={self.detail} "
                f"mod4={int(self.mod4_ok)} block={int(self.block_ok)} "
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
    l0 = CATALOG["L0"]
    for u, v in g.sorted_edges():
        lg.add(leaf_gadget(l0, u, v))
    if not lg.invariant_ok():
        raise EngineBug("weight/order invariant broken at initialization")
    return lg


# ---------------------------------------------------------------------------
# Reduction search


def _is_reducible_vertex(lg: LabeledMultigraph, v: int, in_cut: set[int]) -> bool:
    """G - v is a block (v lies in no 2-cut) and at most one L31 edge points away from v."""
    return v not in in_cut and sum(1 for e in lg.incident(v) if lg.view(e, v).label.name == "L31") <= 1


def find_reduction(lg: LabeledMultigraph) -> ReductionChoice:
    """Next reduction under the fixed priority order; traps if none exists."""
    if len(lg.edges) == 1:
        return Base()
    pair = lg.parallel_pair()
    if pair is not None:
        return Parallel(*pair)
    v = lg.degree2_vertex()
    if v is not None:
        return Series(v)
    # The block is now simple with minimum degree 3, so n >= 4: G - v is a
    # block iff v lies in no 2-cut, and G - e iff e is not a fixed edge.
    index = lg.separation_index()
    if index.smallest is None:
        vertex_pool = sorted(lg.vertices)
        host_pool = vertex_pool
    else:
        (cu, cv), comp = index.smallest
        vertex_pool = sorted(comp)
        host_pool = sorted(comp | {cu, cv})
    in_cut = {x for pair in index.cuts for x in pair}
    first_reducible = None
    for v in vertex_pool:
        zero = any(lg.edges[eid].label.weight == 0 for eid in lg.incident(v))
        if (zero or first_reducible is None) and _is_reducible_vertex(lg, v, in_cut):
            if zero:
                return ReducibleVertex(v)
            first_reducible = v
    for y in host_pool:
        for eid in lg.incident(y):
            if lg.view(eid, y).label.name != "L32":
                continue
            if eid in index.fixed_edges:
                continue
            for eid2 in lg.incident(y):
                if eid2 != eid and lg.view(eid2, y).label.name in ("L32", "L30"):
                    return ReducibleEdge(eid, eid2, y)
    if first_reducible is not None:
        return ReducibleVertex(first_reducible)
    raise EngineBug("no reduction applies; the block analysis promises one")


# ---------------------------------------------------------------------------
# Reduction application


def reduce_parallel(lg: LabeledMultigraph, eid1: int, eid2: int) -> str:
    a = lg.edges[eid1]
    u = min(a.u, a.v)
    v = max(a.u, a.v)
    e1, e2 = sorted((lg.view(eid1, u), lg.view(eid2, u)), key=lambda e: (e.weight(), e.eid))
    if e1.weight() == 0:
        real = drive(ask(e1, Split(S0, S0)))
        lg.emit(real.parts)
        lg.remove_labeled(e1.eid)
        return f"drop[{e1.label.name}] eid={e1.eid}"
    if e1.label.name == "L30" and e2.label.name != "L30":
        e1, e2 = e2, e1
    tag = f"parallel[{e1.label.name}+{e2.label.name}]@({u},{v})"
    gadget = build_parallel_gadget(e1, e2, u, v, tag)
    lg.remove_labeled(eid1)
    lg.remove_labeled(eid2)
    lg.add(gadget)
    return tag


def reduce_series(lg: LabeledMultigraph, v: int) -> str:
    ea, eb = lg.incident(v)
    na, nb = lg.other_end(ea, v), lg.other_end(eb, v)
    if (lg.edges[ea].label.weight, ea) <= (lg.edges[eb].label.weight, eb):
        e1, e2, v1, v2 = lg.view(ea, na), lg.view(eb, v), na, nb
    else:
        e1, e2, v1, v2 = lg.view(eb, nb), lg.view(ea, v), nb, na
    tag = f"series[{e1.label.name}+{e2.label.name}]@{v}"
    gadget = build_series_gadget(e1, e2, v, v1, v2, tag)
    lg.remove_labeled(ea)
    lg.remove_labeled(eb)
    lg.remove_vertex(v)
    lg.add(gadget)
    return tag


def reduce_edge(lg: LabeledMultigraph, eid1: int, eid2: int, v: int) -> str:
    e1, e2 = lg.view(eid1, v), lg.view(eid2, v)
    v2 = e2.head
    tag = f"absorb[{e1.label.name}->{e2.label.name}]@{v}"
    gadget = build_edge_absorb(e1, e2, v, v2, tag)
    lg.remove_labeled(eid1)
    lg.remove_labeled(eid2)
    lg.add(gadget)
    return tag


def _strip_weight0(lg: LabeledMultigraph, v: int) -> str:
    eid = min(e for e in lg.incident(v) if lg.edges[e].label.weight == 0)
    view = lg.view(eid, v)
    real = drive(ask(view, Split(S0, S0)))
    lg.emit(real.parts)
    lg.remove_labeled(eid)
    return f"strip[{view.label.name}] eid={eid}@{v}"


def reduce_vertex(lg: LabeledMultigraph, v: int) -> str:
    views = [lg.view(eid, v) for eid in lg.incident(v)]
    if any(e.weight() == 0 for e in views):
        raise EngineBug(f"vertex {v} still carries a weight-0 edge", "reduce_vertex")
    d = len(views)
    if d == 3:
        return _reduce_vertex_deg3(lg, v, views)
    return _reduce_vertex_deg4plus(lg, v, views)


def _remove_star(lg: LabeledMultigraph, v: int, views: list[EdgeView]) -> None:
    for e in views:
        lg.remove_labeled(e.eid)
    lg.remove_vertex(v)


def _eliminate(lg: LabeledMultigraph, ops: list[tuple[EdgeView, Pair]], v: int, with_v: bool, tag: str) -> None:
    """An eager elimination at v: realize the fixed splits `ops`, emit the
    parts they free and remove their edges, and v too when `with_v`."""
    lg.emit(drive(eliminate_with_fixed_splits(ops, v, with_v, tag)))
    for e, _ in ops:
        lg.remove_labeled(e.eid)
    if with_v:
        lg.remove_vertex(v)


def _reduce_vertex_deg3(lg: LabeledMultigraph, v: int, views: list[EdgeView]) -> str:
    a, b, c = sorted(views, key=lambda e: (-e.weight(), e.eid))
    i, j, k = a.weight(), b.weight(), c.weight()
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
            gadget = build_deg3_pair_config(a, b, c, v, tag)
        else:
            gadget = build_deg3_general(a, b, c, v, tag)
    elif s == 9:
        if b.label.name == "L31":
            a, b = b, a
        if a.label.name == "L31" and b.label.name == "L30" and c.label.name in ("L2", "L20"):
            gadget = build_deg3_sum9_a(a, b, c, v, tag)
        elif a.label.name == "L31" and b.label.name == "L32" and c.label.name in ("L2", "L20"):
            gadget = build_deg3_sum9_b(a, b, c, v, tag)
        else:
            gadget = build_deg3_sum9_c(a, b, c, v, tag)
    elif s == 10:
        heavies = sorted(views, key=lambda e: (e.label.name != "L31", e.eid))
        a, b, c = heavies[0], heavies[1], heavies[2]
        if b.label.name != "L30" or c.label.name != "L30":
            raise EngineBug(f"unabsorbed asymmetric weight-3 edge at {v} ({names})", tag)
        gadget = build_deg4plus_heavy(b, c, v, tag, fixed=a)
    else:
        raise EngineBug(f"impossible combined weight {s} at vertex {v}", tag)
    _remove_star(lg, v, views)
    lg.add(gadget)
    return tag


def _reduce_vertex_deg4plus(lg: LabeledMultigraph, v: int, views: list[EdgeView]) -> str:
    d = len(views)
    names = "/".join(e.label.name for e in views)
    plain = {1: S1, 2: S2, 3: S3}
    for ei, ej in combinations(sorted(views, key=lambda e: e.eid), 2):
        if ei.weight() + ej.weight() == 4:
            ops = [(ei, (plain[ei.weight()], S0)), (ej, (plain[ej.weight()], S0))]
            _eliminate(lg, ops, v, False, f"vertex4+pair[{names}]@{v}")
            return f"vertex4-pair[{ei.label.name}+{ej.label.name}]@{v}"
    weights = sorted(e.weight() for e in views)
    if weights[-1] < 3:
        ordered = sorted(views, key=lambda e: (-e.weight(), e.eid))
        if d >= 6 or (d == 5 and ordered[0].weight() == 2):
            if d >= 6:
                ops = [(e, (S1, S0)) for e in ordered[-4:]]
            else:
                ops = [(ordered[0], (S2, S0)), (ordered[-2], (S1, S0)), (ordered[-1], (S1, S0))]
            _eliminate(lg, ops, v, False, f"vertex4+flat[{names}]@{v}")
            return f"vertex4-flat[{names}]@{v}"
        e1, e2 = ordered[0], ordered[1]
        singles = ordered[2:]
        tag = f"vertex4-light[{names}]@{v}"
        gadget = build_deg4plus_light(e1, e2, singles, v, tag)
        _remove_star(lg, v, views)
        lg.add(gadget)
        return tag
    if 1 in weights:
        raise EngineBug(f"mixed unit and weight-3 edges survived pair elimination at {v}", names)
    plain_heavy = sorted((e for e in views if e.label.name == "L30"), key=lambda e: e.eid)
    if len(plain_heavy) < 2:
        raise EngineBug(f"expected two plain weight-3 edges at {v}, got {names}", names)
    e3, e4 = plain_heavy[0], plain_heavy[1]
    tag = f"vertex4-heavy[{e3.label.name}+{e4.label.name}]@{v}"
    gadget = build_deg4plus_heavy(e3, e4, v, tag)
    lg.remove_labeled(e3.eid)
    lg.remove_labeled(e4.eid)
    lg.add(gadget)
    return tag


def apply_reduction(lg: LabeledMultigraph, choice: ReductionChoice) -> tuple[str, str]:
    if isinstance(choice, Parallel):
        return "parallel", reduce_parallel(lg, choice.e1, choice.e2)
    if isinstance(choice, Series):
        return "series", reduce_series(lg, choice.v)
    if isinstance(choice, ReducibleEdge):
        return "absorb", reduce_edge(lg, choice.e1, choice.e2, choice.v)
    if isinstance(choice, ReducibleVertex):
        if any(lg.edges[eid].label.weight == 0 for eid in lg.incident(choice.v)):
            return "strip", _strip_weight0(lg, choice.v)
        return "vertex", reduce_vertex(lg, choice.v)
    raise EngineBug(f"cannot apply reduction choice {choice}")


# ---------------------------------------------------------------------------
# Base case and the full pipeline


def solve_base(lg: LabeledMultigraph) -> tuple[frozenset[int], ...]:
    """Realize the final single edge; its weight is forced to 2."""
    eids = lg.edge_ids()
    if len(eids) != 1:
        raise EngineBug(f"base case reached with {len(eids)} edges")
    edge = lg.edges[eids[0]]
    view = lg.view(eids[0], edge.u)
    if edge.label.weight != 2:
        raise EngineBug(f"final edge has weight {edge.label.weight}, the invariant forces 2")
    if edge.label.name == "L2":
        real = drive(ask(view, Subdivide(2)))
        path_part = frozenset({edge.u, *real.subdiv, edge.v})
        return real.parts + (path_part,)
    if edge.label.name in ("L20", "L21"):
        real = drive(ask(view, Split(S3, S3P)))
        return real.parts + (frozenset(real.p_tree.actives), frozenset(real.q_tree.actives))
    raise EngineBug(f"final edge carries unexpected label {edge.label}")


def _still_a_block(lg: LabeledMultigraph, kind: str, choice: ReductionChoice) -> bool:
    """Whether the graph, a block before the step `choice` of `kind`, is
    still one: an O(degree) certificate for the step kinds below, the full
    O(n + m) check for absorb and vertex steps.

    Adding an edge between two vertices of a block leaves a block, so each
    certificate reads only what the step removed (`take_changes`).

    - parallel (merge or drop): no vertex and no adjacency went, so the
      underlying simple graph is unchanged.
    - series at v: v went with exactly its two adjacencies, to distinct a
      and b (distinct because no parallel pair was left when series was
      chosen), and a, b are adjacent now.  That is v contracted into ab,
      and contracting keeps a block a block: G' - x for x not in {a, b} is
      G - x with the path a v b shortened to an edge, and G' - a is
      G - a less the leaf v.
    - strip at v: no vertex went and at most one adjacency, at v, while v
      keeps two neighbours.  v lies in no 2-cut (that is why it was
      chosen), so G - v is a block, and G - e is G - v plus an ear through
      v.
    """
    removed, lost = lg.take_changes()
    if kind == "parallel":
        return not removed and not lost
    if kind == "series":
        v = choice.v
        ends = {x for pair in lost for x in pair} - {v}
        return removed == [v] and len(lost) == 2 and all(v in pair for pair in lost) and lg.adjacent(*ends)
    if kind == "strip":
        v = choice.v
        return (not removed and len(lost) <= 1 and all(v in pair for pair in lost)
                and len({lg.other_end(eid, v) for eid in lg.incident(v)}) >= 2)
    return lg.is_block()


def run_reduction(g: SimpleGraph) -> tuple[tuple[frozenset[int], ...], list[TraceStep]]:
    """Reduce to a single edge and realize; returns raw parts and the trace."""
    lg = init_labeled(g)
    trace: list[TraceStep] = []
    step = 0
    budget = g.m + g.n + 8
    while len(lg.edges) > 1:
        if step > budget:
            raise EngineBug("reduction failed to terminate within the edge budget")
        choice = find_reduction(lg)
        kind, detail = apply_reduction(lg, choice)
        mod4 = lg.invariant_ok()
        block = _still_a_block(lg, kind, choice)
        trace.append(TraceStep(step, kind, detail, mod4, block, len(lg.edges), lg.n))
        if not mod4:
            raise EngineBug(f"weight/order invariant broken after {detail}")
        if not block:
            raise EngineBug(f"graph stopped being a block after {detail}"
                            if kind in ("absorb", "vertex") else f"block certificate failed after {detail}")
        step += 1
    parts = solve_base(lg) + tuple(lg.emitted)
    return parts, trace


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
