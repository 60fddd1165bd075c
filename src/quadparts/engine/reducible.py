"""Reductions at irreducible spots: absorbing an edge into a sibling, and
eliminating a vertex of minimum degree at least 3.

All incident edges are viewed oriented away from the eliminated vertex v.
Some eliminations are *eager*: every incident edge receives a fixed split,
the freed vertices are finalized on the spot, and no replacement edge is
created.  The remaining eliminations, and an absorb, install a replacement
edge whose gadget's kind names the module-level lift that replays its
operations onto the removed edges it reads off the gadget.
"""

from __future__ import annotations

from typing import Generator

from ..labels import CATALOG, S0, S1, S1P, S2, S2M, S2P, S3, S3M, S3P, S5M, Pair
from .local import PLAIN, PLUS, Local, mirrored, pair_shape
from .model import LIFTS, EdgeView, EngineBug, Gadget, Lift, Operation, Realization, Split, Subdivide, single


# ---------------------------------------------------------------------------
# Eager eliminations: fixed splits, no replacement edge


def eliminate_with_fixed_splits(
        ops: list[tuple[EdgeView, Pair]], v: int, include_v: bool, tag: str,
) -> Generator[tuple[EdgeView, Operation], Realization, tuple[Local, list[Realization]]]:
    """Request a fixed split on each listed edge and finalize everything
    freed; :func:`~quadparts.engine.model.drive` runs it like a lift and
    returns the Local, which holds the parts this elimination finalizes
    itself, and the realizations in request order.  The parts its children
    finalize reach drive's sink inside drive, not this value.

    Used when the weight arithmetic closes on its own: the tail trees at v
    (plus v itself when `include_v`, as it leaves the graph) group into
    nearly connected 4-sets with no residue.
    """
    reals = []
    for e, op in ops:
        reals.append((yield e, Split(*op)))
    loc = Local(tag, *reals)
    pool = set().union(*(r.p_tree.actives for r in reals)) - {v}
    loc.finalize(pool | {v} if include_v else pool)
    return loc, reals


def _close(tag: str, v: int, r1: Realization, r2: Realization, others, pool) -> Realization:
    """Close at v: the tail trees of the split children r1 and r2 finalize
    with v and `pool`, their head trees serve the replacement edge, and
    `others` are the lift's remaining children."""
    loc = Local(tag, r1, r2, *others)
    loc.finalize(r1.p_tree.actives | r2.p_tree.actives | {v, *pool})
    return loc.done(r1.q_tree, r2.q_tree)


# ---------------------------------------------------------------------------
# Absorbing a removable asymmetric weight-3 edge into a sibling


def build_edge_absorb(e1: EdgeView, e2: EdgeView, tag: str) -> Gadget:
    """e1 (v -> v1, the forward asymmetric weight-3 label) is deleted and its
    sibling e2 (v -> v2, weight 3) is relabeled to the paired weight-2 label.

    Every lift lands the fixed (S3-, S0) split on e1, leaving three bound
    vertices at v that the replayed operation folds into finalized parts or
    into the tail tree of the replacement edge.
    """
    if e1.label.name != "L32":
        raise EngineBug("absorbed edge must carry the forward asymmetric weight-3 label", tag)
    if e2.label.name not in ("L32", "L30"):
        raise EngineBug("sibling edge must carry a weight-3 label other than the reverse form", tag)
    return Gadget("absorb", CATALOG["L20"], e1.tail, e2.head, (e1, e2), None, tag)


def _absorb_split(g: Gadget, pair: Pair) -> Lift:
    e1, e2 = g.children
    v, tag = g.u, g.tag
    r1 = yield e1, Split(S3M, S0)
    m = r1.p_tree.actives - {v}
    if pair == (S0, S2):
        r2 = yield e2, Split(S5M, S2) if e2.label.name == "L32" else Split(S1, S2)
        loc = Local(tag, r1, r2)
        loc.finalize(m | (r2.p_tree.actives - {v}))
        return loc.done(single(v), r2.q_tree)
    if pair in ((S1, S1), (S2, S0)):
        size = 1 if pair == (S1, S1) else 2
        r2 = yield e2, Split(S2, S1) if size == 1 else Split(S3, S0)
        loc = Local(tag, r1, r2)
        kept = loc.keep(v, size, m | (r2.p_tree.actives - {v}))
        return loc.done(loc.span(v, kept | {v}), r2.q_tree)
    if pair in ((S3, S3P), (S3P, S3)):
        r2 = yield e2, Split(S0, S3)
        return Local(tag, r1, r2).done(r1.p_tree, r2.q_tree)
    raise EngineBug(f"pair {pair} is not part of the absorbed-edge table", tag)


# ---------------------------------------------------------------------------
# Degree-3 elimination with a paired weight-2 tail and a unit third edge


def build_deg3_pair_config(e1: EdgeView, e2: EdgeView, e3: EdgeView, tag: str) -> Gadget:
    """Configuration: e1 carries the weight-2 or weight-3 minus-pair-bearing
    label, e2 the weight-2 minus-pair label, w(e3) = 1.  The replacement edge
    runs from e1's far end to e3's far end; e2 always receives (S2-, S0)."""
    return Gadget("deg3-pair", CATALOG[f"L{e1.label.weight}0"], e1.head, e3.head, (e1, e2, e3), e1.tail, tag)


def _deg3_pair_split(g: Gadget, pair: Pair) -> Lift:
    e1, e2, e3 = g.children
    i, tag = e1.label.weight, g.tag
    v, v3 = g.eliminated, g.v
    r2 = yield e2, Split(S2M, S0)
    cs = sorted(r2.p_tree.actives - {v})
    kind, x, y = pair_shape(pair)
    if kind == "plain" and x + y == i:
        if y <= 1:
            r3 = yield e3, Split(PLAIN[1 - y], PLAIN[y])
            want = PLUS[i - x] if i - x >= 1 else S0
            r1 = yield e1, Split(want, PLAIN[x])
            return _close(tag, v, r1, r3, [r2], cs)
        if y == 2:
            r1 = yield e1, Split(S2M, PLAIN[x])
            r3 = yield e3, Subdivide(1) if e3.label.subdividable else Split(S3P, S2)
            loc = Local(tag, r1, r2, r3)
            loc.finalize((r1.p_tree.actives - {v}) | set(cs))
            return loc.done(r1.q_tree, loc.far_tree(r3, v, v3))
        if y == 3:
            # only the weight-3 tail reaches here
            r1 = yield e1, Split(S3M, S0)
            r3 = yield e3, Subdivide(1) if e3.label.subdividable else Split(S2P, S3)
            loc = Local(tag, r1, r2, r3)
            loc.finalize((r1.p_tree.actives - {v}) | {cs[0]})
            return loc.done(r1.q_tree, loc.far_tree(r3, v, v3, cs[1]))
        raise EngineBug(f"plain pair {pair} out of range for tail weight {i}", tag)
    if kind in ("plus_right", "plus_left") and {x, y} == {3} and i == 2:
        # large-pair request on the weight-2 replacement edge
        r1 = yield e1, Split(S3, S3P)
        r3 = yield e3, Subdivide(1) if e3.label.subdividable else Split(S2P, S3)
        if not e3.label.subdividable:
            return _close(tag, v, r1, r3, [r2], cs)
        loc = Local(tag, r1, r2, r3)
        for cq in cs:
            if loc.group((r1.p_tree.actives - {v}) | (set(cs) - {cq})):
                return loc.done(r1.q_tree, loc.span(v3, {v3, v, cq, *r3.subdiv}))
        raise EngineBug("no single-vertex graft keeps the pool partitionable", tag)
    raise EngineBug(f"pair {pair} is not liftable in the paired-tail configuration", tag)


# ---------------------------------------------------------------------------
# General degree-3 elimination (combined weight 4 through 6).  Each step
# below reads v -> v1 and v -> v2 off e1 and e2, which a mirror swaps.


def build_deg3_general(e1: EdgeView, e2: EdgeView, e3: EdgeView, tag: str) -> Gadget:
    """Edges ordered by weight i >= j >= k; the replacement edge joins the two
    heaviest far ends and e3 always receives (S_k, S0)."""
    w = e1.label.weight + e2.label.weight + e3.label.weight - 3
    return Gadget("deg3-general", CATALOG[f"L{w}0"], e1.head, e2.head, (e1, e2, e3), e1.tail, tag)


def _deg3_general_split(g: Gadget, pair: Pair) -> Lift:
    e1, e2, e3 = g.children
    return _deg3_general(pair, e1, e2, e3, g.tag)


def _deg3_general(pair: Pair, e1: EdgeView, e2: EdgeView, e3: EdgeView, tag: str) -> Lift:
    i, j, k = e1.label.weight, e2.label.weight, e3.label.weight
    v = e1.tail
    kind, x, y = pair_shape(pair)
    if kind == "plus_left" and (x, y) == (3, 3) and i != 3:
        # read from e2's side before any request, so e3 is realized once
        return (yield from mirrored(_deg3_general, pair, e2, e1, e3, tag + "~"))
    r3 = yield e3, Split(PLAIN[k], S0)
    a3 = sorted(r3.p_tree.actives - {v})
    if kind == "plain":
        if x + y != i + j + k - 3:
            raise EngineBug(f"plain pair {pair} inconsistent with weight {i + j + k - 3}", tag)
        if x <= i and y <= j:
            if e1.admits(PLAIN[i - x], PLAIN[x]) is not None:
                r1 = yield e1, Split(PLAIN[i - x], PLAIN[x])
                want = PLUS[j - y] if j - y >= 1 else S0
                r2 = yield e2, Split(want, PLAIN[y])
            elif e2.admits(PLAIN[j - y], PLAIN[y]) is not None:
                r2 = yield e2, Split(PLAIN[j - y], PLAIN[y])
                want = PLUS[i - x] if i - x >= 1 else S0
                r1 = yield e1, Split(want, PLAIN[x])
            else:
                raise EngineBug(
                    f"neither heavy edge admits the plain route for {pair}; the "
                    "paired-tail configuration should have matched first", tag)
            return _close(tag, v, r1, r2, [r3], a3)
        if y > j:
            return (yield from _plain_overweight_head(y, e1, e2, tag, r3, a3))
        return (yield from _plain_overweight_tail(e1, e2, tag, r3, a3))
    # plus pairs: combined weight exceeds the label by 4, k must be 1
    if k != 1 or x + y != i + j + k + 1:
        raise EngineBug(f"plus pair {pair} needs a unit third edge and full weight", tag)
    if (x, y) == (2, 3):
        # every tree it builds is plain, so it fits
        return (yield from _plus_23(e2, tag, (yield e1, Split(S0, S2)), r3, a3))
    if (x, y) == (3, 2):
        return (yield from (_plus_32_left if kind == "plus_left" else _plus_32)(e1, e2, tag, r3, a3))
    if (x, y) == (3, 3):
        return (yield from _plus_33(e1, e2, tag, r3, a3))  # plus_left has i == 3: plain on both sides
    raise EngineBug(f"plus pair {pair} is out of range", tag)


def _plain_overweight_head(y: int, e1: EdgeView, e2: EdgeView, tag: str, r3, a3) -> Lift:
    # y exceeds w(e2): the head side is served by e2 whole (subdivided or
    # with its large complement), the tail pools with the third edge
    v = e1.tail
    r1 = yield e1, Split(PLAIN[e1.label.weight], S0)
    r2 = yield e2, Subdivide(e2.label.weight) if e2.label.subdividable else Split(S3P, PLAIN[y])
    loc = Local(tag, r1, r2, r3)
    loc.finalize((r1.p_tree.actives - {v}) | set(a3))
    return loc.done(r1.q_tree, loc.far_tree(r2, v, e2.head))


def _plain_overweight_tail(e1: EdgeView, e2: EdgeView, tag: str, r3, a3) -> Lift:
    # x = 3 with all weights 2: both light edges close a part, the heavy
    # tail absorbs the triple request
    v = e1.tail
    r2 = yield e2, Split(S2, S0)
    r1 = yield e1, Subdivide(2) if e1.label.subdividable else Split(S3P, S3)
    loc = Local(tag, r1, r2, r3)
    loc.finalize((r2.p_tree.actives - {v}) | set(a3))
    return loc.done(loc.far_tree(r1, v, e1.head), r2.q_tree)


def _plus_23(e2: EdgeView, tag: str, r1, r3, a3) -> Lift:
    # e1 already split with an empty tail tree: e2 serves the head side
    r2 = yield e2, Subdivide(1) if e2.label.subdividable else Split(S2P, S3)
    loc = Local(tag, r1, r2, r3)
    return loc.done(r1.q_tree, loc.far_tree(r2, e2.tail, e2.head, a3[0]))


def _plus_32(e1: EdgeView, e2: EdgeView, tag: str, r3, a3) -> Lift:
    # both sides close on their own, even when both children split
    v = e1.tail
    r1 = yield e1, Split(S3P, S3) if e1.admits(S3P, S3) is not None else Subdivide(2)
    r2 = yield e2, Subdivide(1) if e2.label.subdividable else Split(S3, S2P)
    loc = Local(tag, r1, r2, r3)
    return loc.done(loc.far_tree(r1, v, e1.head), loc.far_tree(r2, v, e2.head, a3[0], dummy_v=True))


def _plus_32_left(e1: EdgeView, e2: EdgeView, tag: str, r3, a3) -> Lift:
    # large tail, plain head: the head side must stay dummy-free
    v = e1.tail
    r1 = None if e1.admits(S3, S3P) is None else (yield e1, Split(S3, S3P))
    r2 = None if e2.label.subdividable else (yield e2, Split(S3P, S2))
    if r1 and r2:
        return _close(tag, v, r1, r2, [r3], a3)
    r1 = r1 or (yield e1, Subdivide(2))
    r2 = r2 or (yield e2, Subdivide(1))
    loc = Local(tag, r1, r2, r3)
    return loc.done(loc.far_tree(r1, v, e1.head, a3[0], dummy_v=True), loc.far_tree(r2, v, e2.head))


def _plus_33(e1: EdgeView, e2: EdgeView, tag: str, r3, a3) -> Lift:
    if e1.label.weight == 3:
        return (yield from _plus_23(e2, tag, (yield e1, Split(S0, S3)), r3, a3))
    # i == j == 2
    v = e1.tail
    r1 = yield e1, Split(S3P, S3) if e1.admits(S3P, S3) is not None else Subdivide(2)
    r2 = yield e2, Split(S3, S3P) if e2.admits(S3, S3P) is not None else Subdivide(2)
    if r1.subdiv is None and r2.subdiv is None:
        return _close(tag, v, r1, r2, [r3], a3)
    loc = Local(tag, r1, r2, r3)
    return loc.done(loc.far_tree(r1, v, e1.head), loc.far_tree(r2, v, e2.head, a3[0], dummy_v=True))


# ---------------------------------------------------------------------------
# Degree-3 elimination at combined weight 9 (two weight-3 edges, one weight-2)


def build_deg3_sum9_a(e1: EdgeView, e2: EdgeView, e3: EdgeView, tag: str) -> Gadget:
    """e1 reverse-asymmetric weight 3, e2 plain weight 3, e3 subdividable
    weight 2.  Replacement edge joins e2's and e3's far ends; e1 is fixed."""
    return Gadget("deg3-sum9-a", CATALOG["L10"], e2.head, e3.head, (e1, e2, e3), e1.tail, tag)


def _sum9_a_split(g: Gadget, pair: Pair) -> Lift:
    e1, e2, e3 = g.children
    v, v3, tag = g.eliminated, g.v, g.tag
    r1 = yield e1, Split(S3, S0)
    m = r1.p_tree.actives - {v}
    if pair == (S1, S0):
        r2 = yield e2, Split(S2, S1)
        r3 = yield e3, Split(S2, S0)
        loc = Local(tag, r1, r2, r3)
        loc.finalize((r2.p_tree.actives | r3.p_tree.actives) - {v})
        loc.finalize(m | {v})
        return loc.done(r2.q_tree, r3.q_tree)
    if pair == (S0, S1):
        r2 = yield e2, Split(S3, S0)
        r3 = yield e3, Split(S1, S1)
        return _close(tag, v, r2, r3, [r1], m)
    if pair in ((S2, S3P), (S2P, S3)):
        r2 = yield e2, Split(S1, S2)
        r3 = yield e3, Subdivide(2) if e3.label.subdividable else Split(S3P, S3)
        loc = Local(tag, r1, r2, r3)
        loc.finalize(m | (r2.p_tree.actives - {v}))
        return loc.done(r2.q_tree, loc.far_tree(r3, v, v3))
    if pair in ((S3, S2P), (S3P, S2)):
        r2 = yield e2, Split(S0, S3)
        r3 = yield e3, Split(S0, S2)
        return _close(tag, v, r2, r3, [r1], m)
    raise EngineBug(f"pair {pair} not liftable at combined weight 9 (variant A)", tag)


def build_deg3_sum9_b(e1: EdgeView, e2: EdgeView, e3: EdgeView, tag: str) -> Gadget:
    """e1 reverse-asymmetric weight 3, e2 forward-asymmetric weight 3, e3
    subdividable weight 2.  Replacement edge joins e1's and e3's far ends;
    e2 is fixed with (S3-, S0)."""
    return Gadget("deg3-sum9-b", CATALOG["L10"], e1.head, e3.head, (e1, e2, e3), e1.tail, tag)


def _sum9_b_split(g: Gadget, pair: Pair) -> Lift:
    e1, e2, e3 = g.children
    v, v3, tag = g.eliminated, g.v, g.tag
    r2 = yield e2, Split(S3M, S0)
    m = r2.p_tree.actives - {v}
    if pair in ((S1, S0), (S0, S1)):
        r1 = yield e1, Split(S2P, S1) if pair == (S1, S0) else Split(S3, S0)
        r3 = yield e3, Split(S2, S0) if pair == (S1, S0) else Split(S1, S1)
        return _close(tag, v, r1, r3, [r2], m)
    if pair in ((S2, S3P), (S2P, S3)):
        r1 = yield e1, Split(S1, S2M)
        r3 = yield e3, Subdivide(2) if e3.label.subdividable else Split(S3P, S3)
        loc = Local(tag, r1, r2, r3)
        loc.finalize(m | (r1.p_tree.actives - {v}))
        return loc.done(r1.q_tree, loc.far_tree(r3, v, v3))
    if pair in ((S3, S2P), (S3P, S2)):
        r1 = yield e1, Split(S0, S3M)
        r3 = yield e3, Split(S0, S2)
        return _close(tag, v, r1, r3, [r2], m)
    raise EngineBug(f"pair {pair} not liftable at combined weight 9 (variant B)", tag)


def build_deg3_sum9_c(e1: EdgeView, e2: EdgeView, e3: EdgeView, tag: str) -> Gadget:
    """Remaining combined-weight-9 configurations: the replacement edge joins
    the far ends of the two weight-3 edges and e3 is fixed with (S2, S0)."""
    return Gadget("deg3-sum9-c", CATALOG["L10"], e1.head, e2.head, (e1, e2, e3), e1.tail, tag)


def _sum9_c_split(g: Gadget, pair: Pair) -> Lift:
    e1, e2, e3 = g.children
    v, tag = g.eliminated, g.tag
    r3 = yield e3, Split(S2, S0)
    cs = sorted(r3.p_tree.actives - {v})
    if pair == (S1, S0):
        if e1.admits(S2, S1) is not None:
            r1 = yield e1, Split(S2, S1)
            r2 = yield e2, Split(S3, S0)
            loc = Local(tag, r1, r2, r3)
            loc.finalize((r1.p_tree.actives - {v}) | set(cs))
            loc.finalize(r2.p_tree.actives | {v})
            return loc.done(r1.q_tree, r2.q_tree)
        # the first heavy edge reads as the reverse asymmetric label
        r1 = yield e1, Split(S2P, S1)
        r2 = yield e2, Split(S3, S0)
        loc = Local(tag, r1, r2, r3)
        loc.finalize((r2.p_tree.actives - {v}) | {cs[0]})
        loc.finalize(r1.p_tree.actives | {v, cs[1]})
        return loc.done(r1.q_tree, r2.q_tree)
    if pair == (S0, S1):
        r1 = yield e1, Split(S3, S0)
        r2 = yield e2, Split(S2, S1)
        loc = Local(tag, r1, r2, r3)
        loc.finalize((r2.p_tree.actives - {v}) | set(cs))
        loc.finalize(r1.p_tree.actives | {v})
        return loc.done(r1.q_tree, r2.q_tree)
    if pair in ((S2, S3P), (S2P, S3), (S3, S2P), (S3P, S2)):
        tail_plain = pair in ((S2, S3P), (S2P, S3))
        r1 = yield e1, Split(S1P, S2) if tail_plain else Split(S0, S3)
        r2 = yield e2, Split(S0, S3) if tail_plain else Split(S1P, S2)
        return _close(tag, v, r1, r2, [r3], cs)
    raise EngineBug(f"pair {pair} not liftable at combined weight 9 (variant C)", tag)


# ---------------------------------------------------------------------------
# Two plain weight-3 edges merged into one weight-2 edge (degree-3 all-heavy,
# and degree >= 4 with two plain weight-3 edges)

_W3_PAIR_ROWS: dict[Pair, tuple[Pair, Pair]] = {
    (S0, S2): ((S3, S0), (S1, S2)),
    (S1, S1): ((S2, S1), (S2, S1)),
    (S2, S0): ((S1, S2), (S3, S0)),
    (S3, S3P): ((S0, S3), (S0, S3)),
    (S3P, S3): ((S0, S3), (S0, S3)),
}


def build_deg4plus_heavy(e3: EdgeView, e4: EdgeView, tag: str, fixed: EdgeView | None = None) -> Gadget:
    """Two plain weight-3 edges are replaced by one weight-2 edge between
    their far ends.

    At degree >= 4 with no weight-1 edges, v stays put.  At degree 3 with
    combined weight 10, `fixed` is the third weight-3 edge and the first
    child: it receives (S3, S0) before the pair is split, and v leaves with
    the finalized parts.
    """
    children, eliminated = ((e3, e4), None) if fixed is None else ((fixed, e3, e4), e3.tail)
    return Gadget("deg4-heavy", CATALOG["L20"], e3.head, e4.head, children, eliminated, tag)


def _heavy_split(g: Gadget, pair: Pair) -> Lift:
    row = _W3_PAIR_ROWS.get(pair)
    if row is None:
        raise EngineBug(f"pair {pair} missing from the weight-3 pair table", g.tag)
    *fixed, e3, e4 = g.children
    ops = [(e, (S3, S0)) for e in fixed] + [(e3, row[0]), (e4, row[1])]
    loc, reals = yield from eliminate_with_fixed_splits(ops, e3.tail, g.eliminated is not None, g.tag)
    return loc.done(reals[-2].q_tree, reals[-1].q_tree)


# ---------------------------------------------------------------------------
# Degree 4 or 5 with no weight-3 edges: replacement edge over e1, e2 plus
# unit pre-splits on the remaining edges.  Each step below reads v -> v1 and
# v -> v2 off e1 and e2, which a mirror swaps.


def build_deg4plus_light(e1: EdgeView, e2: EdgeView, singles: list[EdgeView], tag: str) -> Gadget:
    """Light elimination: every edge in `singles` is fixed with (S1, S0).

    With w(e1)=2 (degree 4) or five unit edges (degree 5) the replacement
    edge carries the augmented weight-2 label; with four unit edges it
    carries the augmented weight-1 label.
    """
    label = CATALOG["L20"] if e1.label.weight == 2 or len(singles) == 3 else CATALOG["L10"]
    return Gadget("deg4-light", label, e1.head, e2.head, (e1, e2, *singles), e1.tail, tag)


def _light_split(g: Gadget, pair: Pair) -> Lift:
    e1, e2, *singles = g.children
    if g.label.name == "L20":
        if len(singles) == 3 and pair == (S3P, S3):
            return mirrored(_light_w2, pair, e2, e1, singles, g.tag + "~")
        return _light_w2(pair, e1, e2, singles, g.tag)
    if pair in ((S1, S0), (S2P, S3), (S3P, S2)):
        return mirrored(_light_w1, pair, e2, e1, singles, g.tag + "~")
    return _light_w1(pair, e1, e2, singles, g.tag)


def _fixed_singles(singles: list[EdgeView], v: int):
    rs = []
    for s in singles:
        rs.append((yield s, Split(S1, S0)))
    avs = sorted(set().union(*(r.p_tree.actives for r in rs)) - {v})
    return rs, avs


# -- replacement weight 2 (degree 5 all-unit, or degree 4 with one weight-2)


def _light_w2(pair: Pair, e1: EdgeView, e2: EdgeView, singles: list[EdgeView], tag: str) -> Lift:
    v, v1, v2 = e1.tail, e1.head, e2.head
    d5 = len(singles) == 3
    rs, avs = yield from _fixed_singles(singles, v)
    if pair == (S2, S0):
        if not d5:
            r1 = yield e1, Split(S0, S2)
            r2 = yield e2, Split(S1, S0)
            return _close(tag, v, r1, r2, rs, avs)
        r2 = yield e2, Split(S1, S0)
        r1 = yield e1, Subdivide(1) if e1.label.subdividable else Split(S3P, S2)
        loc = Local(tag, r1, r2, *rs)
        loc.finalize((r2.p_tree.actives - {v}) | set(avs))
        return loc.done(loc.far_tree(r1, v, v1), r2.q_tree)
    if pair == (S0, S2):
        r1 = yield e1, Split(PLAIN[e1.label.weight], S0)
        r2 = yield e2, Subdivide(1) if e2.label.subdividable else Split(S3P, S2)
        loc = Local(tag, r1, r2, *rs)
        loc.finalize((r1.p_tree.actives - {v}) | set(avs))
        return loc.done(r1.q_tree, loc.far_tree(r2, v, v2))
    if pair == (S1, S1):
        r1 = yield e1, Split(S0, S1) if d5 else Split(S1P, S1)
        r2 = yield e2, Split(S0, S1)
        return _close(tag, v, r1, r2, rs, avs)
    if pair in ((S3, S3P), (S3P, S3)):
        return (yield from _w2_large(pair == (S3P, S3), e1, e2, tag, rs, avs, d5))
    raise EngineBug(f"pair {pair} not liftable in the light elimination", tag)


def _w2_large(head_plain: bool, e1: EdgeView, e2: EdgeView, tag: str, rs, avs, d5: bool) -> Lift:
    # (S3, S3+) with head_plain=False; (S3+, S3) with head_plain=True, which
    # arises only at degree 4 with w(e1) = 2.  v is a dummy on the plus side;
    # e2's side takes g of the freed vertices, the first g when e2 is
    # subdivided and the last g when it is split, and e1's side the rest.
    v = e1.tail
    if head_plain:
        split1, split2 = Split(S3, S3P), Split(S2P, S3)
    else:
        split1, split2 = Split(S2P, S3) if d5 else Split(S3P, S3), Split(S2, S3P)
    r1 = None if e1.label.subdividable else (yield e1, split1)
    r2 = None if e2.label.subdividable else (yield e2, split2)
    if r1 and r2:
        return _close(tag, v, r1, r2, rs, avs)
    r1 = r1 or (yield e1, Subdivide(1 if d5 else 2))
    r2 = r2 or (yield e2, Subdivide(1))
    loc = Local(tag, r1, r2, *rs)
    g = 1 if head_plain else 2
    x2 = avs[:g] if r2.subdiv is not None else avs[-g:]
    x1 = [a for a in avs if a not in x2]
    return loc.done(loc.far_tree(r1, v, e1.head, *x1, dummy_v=head_plain),
                    loc.far_tree(r2, v, e2.head, *x2, dummy_v=not head_plain))


# -- replacement weight 1 (degree 4, all edges unit weight)


def _light_w1(pair: Pair, e1: EdgeView, e2: EdgeView, singles: list[EdgeView], tag: str) -> Lift:
    v = e1.tail
    rs, avs = yield from _fixed_singles(singles, v)
    if pair == (S0, S1):
        r1 = yield e1, Split(S1, S0)
        r2 = yield e2, Split(S0, S1)
        return _close(tag, v, r1, r2, rs, avs)
    if pair not in ((S2, S3P), (S3, S2P)):
        raise EngineBug(f"pair {pair} not liftable in the unit-weight elimination", tag)
    # e1's side takes n of the freed vertices and e2's side the rest, with v
    # as a dummy
    n, split1, split2 = ((0, Split(S3P, S2), Split(S2, S3P)) if pair == (S2, S3P)
                         else (1, Split(S2P, S3), Split(S3P, S2)))
    r1 = None if e1.label.subdividable else (yield e1, split1)
    r2 = None if e2.label.subdividable else (yield e2, split2)
    if r1 and r2:
        return _close(tag, v, r1, r2, rs, avs)
    r1 = r1 or (yield e1, Subdivide(1))
    r2 = r2 or (yield e2, Subdivide(1))
    loc = Local(tag, r1, r2, *rs)
    if n and r2.subdiv is None:
        # (S3, S2+) with only e2 split: e1's path keeps the one freed vertex
        # that lets the rest close
        kept = loc.keep(v, 1, (r2.p_tree.actives - {v}) | set(avs))
        return loc.done(loc.far_tree(r1, v, e1.head, *kept), r2.q_tree)
    return loc.done(loc.far_tree(r1, v, e1.head, *avs[:n]), loc.far_tree(r2, v, e2.head, *avs[n:], dummy_v=True))


LIFTS.update({
    "absorb": (_absorb_split, None),
    "deg3-pair": (_deg3_pair_split, None),
    "deg3-general": (_deg3_general_split, None),
    "deg3-sum9-a": (_sum9_a_split, None),
    "deg3-sum9-b": (_sum9_b_split, None),
    "deg3-sum9-c": (_sum9_c_split, None),
    "deg4-heavy": (_heavy_split, None),
    "deg4-light": (_light_split, None),
})
