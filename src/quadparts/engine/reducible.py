"""Reductions at irreducible spots: absorbing an edge into a sibling, and
eliminating a vertex of minimum degree at least 3.

All incident edges are viewed oriented away from the eliminated vertex v.
Some eliminations are *eager*: every incident edge receives a fixed split,
the freed vertices are finalized on the spot, and no replacement edge is
created.  The remaining eliminations install a replacement edge between two
former neighbours whose gadget replays its operations onto the removed edges.
"""

from __future__ import annotations

from typing import Generator

from ..labels import CATALOG, S0, S1, S1P, S2, S2M, S2P, S3, S3M, S3P, S5M, Pair
from .local import PLAIN, PLUS, Local, mirrored, pair_shape
from .model import EdgeView, EngineBug, Gadget, Lift, Operation, Realization, Split, Subdivide, single


# ---------------------------------------------------------------------------
# Eager eliminations: fixed splits, no replacement edge


def eliminate_with_fixed_splits(
        ops: list[tuple[EdgeView, Pair]], v: int, include_v: bool, tag: str,
) -> Generator[tuple[EdgeView, Operation], Realization, tuple[frozenset[int], ...]]:
    """Request a fixed split on each listed edge and finalize everything
    freed; :func:`~quadparts.engine.model.drive` runs it like a lift and
    returns the parts this elimination finalizes itself.  The parts its
    children finalize reach drive's sink inside drive, not this value.

    Used when the weight arithmetic closes on its own: the tail trees at v
    (plus v itself when it leaves the graph) group into nearly connected
    4-sets with no residue.
    """
    reals = []
    for e, op in ops:
        reals.append((yield e, Split(*op)))
    loc = Local(tag, *reals)
    pool = set().union(*(r.p_tree.actives for r in reals)) - {v}
    loc.finalize(pool | {v} if include_v else pool)
    return tuple(loc.parts)


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
    v = e1.tail
    sibling_asym = e2.label.name == "L32"

    def lift(pair: Pair) -> Lift:
        r1 = yield e1, Split(S3M, S0)
        m = r1.p_tree.actives - {v}
        if pair == (S0, S2):
            r2 = yield e2, Split(S5M, S2) if sibling_asym else Split(S1, S2)
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

    return Gadget(CATALOG["L20"], v, e2.head, (e1, e2), None, lift, provenance=tag)


# ---------------------------------------------------------------------------
# Degree-3 elimination with a paired weight-2 tail and a unit third edge


def build_deg3_pair_config(e1: EdgeView, e2: EdgeView, e3: EdgeView, tag: str) -> Gadget:
    """Configuration: e1 carries the weight-2 or weight-3 minus-pair-bearing
    label, e2 the weight-2 minus-pair label, w(e3) = 1.  The replacement edge
    runs from e1's far end to e3's far end; e2 always receives (S2-, S0)."""
    i = e1.label.weight
    v, v1, v3 = e1.tail, e1.head, e3.head

    def lift(pair: Pair) -> Lift:
        r2 = yield e2, Split(S2M, S0)
        cs = sorted(r2.p_tree.actives - {v})
        kind, x, y = pair_shape(pair)
        if kind == "plain" and x + y == i:
            if y <= 1:
                r3 = yield e3, Split(PLAIN[1 - y], PLAIN[y])
                want = PLUS[i - x] if i - x >= 1 else S0
                r1 = yield e1, Split(want, PLAIN[x])
                loc = Local(tag, r1, r2, r3)
                loc.finalize(r1.p_tree.actives | r3.p_tree.actives | {v, *cs})
                return loc.done(r1.q_tree, r3.q_tree)
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
                loc.part((r1.p_tree.actives - {v}) | {cs[0]})
                return loc.done(r1.q_tree, loc.far_tree(r3, v, v3, cs[1]))
            raise EngineBug(f"plain pair {pair} out of range for tail weight {i}", tag)
        if kind in ("plus_right", "plus_left") and {x, y} == {3} and i == 2:
            # large-pair request on the weight-2 replacement edge
            r1 = yield e1, Split(S3, S3P)
            r3 = yield e3, Subdivide(1) if e3.label.subdividable else Split(S2P, S3)
            loc = Local(tag, r1, r2, r3)
            if not e3.label.subdividable:
                loc.finalize(r1.p_tree.actives | r3.p_tree.actives | {v, *cs})
                return loc.done(r1.q_tree, r3.q_tree)
            for cq in cs:
                if loc.group((r1.p_tree.actives - {v}) | (set(cs) - {cq})):
                    return loc.done(r1.q_tree, loc.span(v3, {v3, v, cq, *r3.subdiv}))
            raise EngineBug("no single-vertex graft keeps the pool partitionable", tag)
        raise EngineBug(f"pair {pair} is not liftable in the paired-tail configuration", tag)

    return Gadget(CATALOG[f"L{i}0"], v1, v3, (e1, e2, e3), v, lift, provenance=tag)


# ---------------------------------------------------------------------------
# General degree-3 elimination (combined weight 4 through 6)


def build_deg3_general(e1: EdgeView, e2: EdgeView, e3: EdgeView, tag: str) -> Gadget:
    """Edges ordered by weight i >= j >= k; the replacement edge joins the two
    heaviest far ends and e3 always receives (S_k, S0)."""
    i, j, k = e1.label.weight, e2.label.weight, e3.label.weight
    v, v1, v2 = e1.tail, e1.head, e2.head
    w = i + j + k - 3

    def lift(pair: Pair) -> Lift:
        kind, x, y = pair_shape(pair)
        if kind == "plus_left" and (x, y) == (3, 3) and i != 3:
            # read from e2's side before any request, so e3 is realized once
            return (yield from mirrored(build_deg3_general(e2, e1, e3, tag + "~")._split_lift, pair))
        r3 = yield e3, Split(PLAIN[k], S0)
        a3 = sorted(r3.p_tree.actives - {v})
        if kind == "plain":
            if x + y != w:
                raise EngineBug(f"plain pair {pair} inconsistent with weight {w}", tag)
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
                loc = Local(tag, r1, r2, r3)
                loc.finalize(r1.p_tree.actives | r2.p_tree.actives | {v, *a3})
                return loc.done(r1.q_tree, r2.q_tree)
            if y > j:
                return (yield from _plain_overweight_head(pair, x, y, r3, a3))
            return (yield from _plain_overweight_tail(pair, x, y, r3, a3))
        # plus pairs: combined weight exceeds the label by 4, k must be 1
        if k != 1 or x + y != i + j + k + 1:
            raise EngineBug(f"plus pair {pair} needs a unit third edge and full weight", tag)
        if kind == "plus_left":
            if (x, y) == (2, 3):
                # every tree it builds is plain, so it fits
                return (yield from _plus_23((yield e1, Split(S0, S2)), r3, a3))
            if (x, y) == (3, 2):
                return (yield from _plus_32_left(r3, a3))
            if (x, y) == (3, 3):
                return (yield from _plus_33(r3, a3))  # i == 3: the heavy-tail lift is plain on both sides
            raise EngineBug(f"plus pair {pair} is out of range", tag)
        if (x, y) == (2, 3):
            return (yield from _plus_23((yield e1, Split(S0, S2)), r3, a3))
        if (x, y) == (3, 2):
            return (yield from _plus_32(r3, a3))
        if (x, y) == (3, 3):
            return (yield from _plus_33(r3, a3))
        raise EngineBug(f"plus pair {pair} is out of range", tag)

    def _plain_overweight_head(pair: Pair, x: int, y: int, r3, a3) -> Lift:
        # y exceeds w(e2): the head side is served by e2 whole (subdivided or
        # with its large complement), the tail pools with the third edge
        r1 = yield e1, Split(PLAIN[i], S0)
        r2 = yield e2, Subdivide(j) if e2.label.subdividable else Split(S3P, PLAIN[y])
        loc = Local(tag, r1, r2, r3)
        loc.finalize((r1.p_tree.actives - {v}) | set(a3))
        return loc.done(r1.q_tree, loc.far_tree(r2, v, v2))

    def _plain_overweight_tail(pair: Pair, x: int, y: int, r3, a3) -> Lift:
        # x = 3 with all weights 2: both light edges close a part, the heavy
        # tail absorbs the triple request
        r2 = yield e2, Split(S2, S0)
        r1 = yield e1, Subdivide(2) if e1.label.subdividable else Split(S3P, S3)
        loc = Local(tag, r1, r2, r3)
        loc.finalize((r2.p_tree.actives - {v}) | set(a3))
        return loc.done(loc.far_tree(r1, v, v1), r2.q_tree)

    def _plus_23(r1, r3, a3) -> Lift:
        # e1 already split with an empty tail tree: e2 serves the head side
        r2 = yield e2, Subdivide(1) if e2.label.subdividable else Split(S2P, S3)
        loc = Local(tag, r1, r2, r3)
        return loc.done(r1.q_tree, loc.far_tree(r2, v, v2, a3[0]))

    def _plus_32(r3, a3) -> Lift:
        if e1.admits(S3P, S3) is not None:
            r1 = yield e1, Split(S3P, S3)
            if e2.label.subdividable:
                r2 = yield e2, Subdivide(1)
                loc = Local(tag, r1, r2, r3)
                loc.part(r1.p_tree.actives | {v})
                return loc.done(r1.q_tree, loc.span(v2, {v2, v, a3[0], *r2.subdiv}, {v}))
            r2 = yield e2, Split(S3, S2P)
            loc = Local(tag, r1, r2, r3)
            loc.part((r2.p_tree.actives - {v}) | {a3[0]})
            loc.part(r1.p_tree.actives | {v})
            return loc.done(r1.q_tree, r2.q_tree)
        r1 = yield e1, Subdivide(2)
        if e2.label.subdividable:
            r2 = yield e2, Subdivide(1)
            loc = Local(tag, r1, r2, r3)
            p = loc.span(v1, {v1, v, *r1.subdiv})
            return loc.done(p, loc.span(v2, {v2, v, a3[0], *r2.subdiv}, {v}))
        r2 = yield e2, Split(S3, S2P)
        loc = Local(tag, r1, r2, r3)
        loc.part((r2.p_tree.actives - {v}) | {a3[0]})
        return loc.done(loc.span(v1, {v1, v, *r1.subdiv}), r2.q_tree)

    def _plus_32_left(r3, a3) -> Lift:
        # large tail, plain head: the head side must stay dummy-free
        e1_spl = None if not e1.admits(S3, S3P) else (yield e1, Split(S3, S3P))
        e2_spl = None if e2.label.subdividable else (yield e2, Split(S3P, S2))
        if e1_spl is not None and e2_spl is not None:
            loc = Local(tag, e1_spl, e2_spl, r3)
            loc.finalize(e1_spl.p_tree.actives | e2_spl.p_tree.actives | {v, a3[0]})
            return loc.done(e1_spl.q_tree, e2_spl.q_tree)
        if e1_spl is not None and e2_spl is None:
            s2 = yield e2, Subdivide(1)
            loc = Local(tag, e1_spl, s2, r3)
            loc.finalize((e1_spl.p_tree.actives - {v}) | {a3[0]})
            return loc.done(e1_spl.q_tree, loc.span(e2.head, {e2.head, v, *s2.subdiv}))
        if e1_spl is None and e2_spl is not None:
            s1 = yield e1, Subdivide(2)
            loc = Local(tag, s1, e2_spl, r3)
            loc.finalize(e2_spl.p_tree.actives | {v})
            return loc.done(loc.span(v1, {v1, v, *s1.subdiv, a3[0]}, {v}), e2_spl.q_tree)
        s1 = yield e1, Subdivide(2)
        s2 = yield e2, Subdivide(1)
        loc = Local(tag, s1, s2, r3)
        p = loc.span(v1, {v1, v, *s1.subdiv, a3[0]}, {v})
        return loc.done(p, loc.span(e2.head, {e2.head, v, *s2.subdiv}))

    def _plus_33(r3, a3) -> Lift:
        if i == 3:
            return (yield from _plus_23((yield e1, Split(S0, S3)), r3, a3))
        # i == j == 2
        e1_split = e1.admits(S3P, S3) is not None
        e2_split = e2.admits(S3, S3P) is not None
        r1 = yield e1, Split(S3P, S3) if e1_split else Subdivide(2)
        r2 = yield e2, Split(S3, S3P) if e2_split else Subdivide(2)
        loc = Local(tag, r1, r2, r3)
        if e1_split and e2_split:
            loc.finalize(r1.p_tree.actives | r2.p_tree.actives | {v, a3[0]})
            return loc.done(r1.q_tree, r2.q_tree)
        if e2_split:
            loc.part((r2.p_tree.actives - {v}) | {a3[0]})
            return loc.done(loc.span(v1, {v1, v, *r1.subdiv}), r2.q_tree)
        if e1_split:
            loc.part(r1.p_tree.actives | {v})
            return loc.done(r1.q_tree, loc.span(v2, {v2, v, a3[0], *r2.subdiv}, {v}))
        p = loc.span(v1, {v1, v, *r1.subdiv})
        return loc.done(p, loc.span(v2, {v2, v, a3[0], *r2.subdiv}, {v}))

    return Gadget(CATALOG[f"L{w}0"], v1, v2, (e1, e2, e3), v, lift, provenance=tag)


# ---------------------------------------------------------------------------
# Degree-3 elimination at combined weight 9 (two weight-3 edges, one weight-2)


def build_deg3_sum9_a(e1: EdgeView, e2: EdgeView, e3: EdgeView, tag: str) -> Gadget:
    """e1 reverse-asymmetric weight 3, e2 plain weight 3, e3 subdividable
    weight 2.  Replacement edge joins e2's and e3's far ends; e1 is fixed."""
    v, v3 = e1.tail, e3.head

    def lift(pair: Pair) -> Lift:
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
            loc = Local(tag, r1, r2, r3)
            loc.finalize(m | r2.p_tree.actives | r3.p_tree.actives | {v})
            return loc.done(r2.q_tree, r3.q_tree)
        if pair in ((S2, S3P), (S2P, S3)):
            r2 = yield e2, Split(S1, S2)
            r3 = yield e3, Subdivide(2) if e3.label.subdividable else Split(S3P, S3)
            loc = Local(tag, r1, r2, r3)
            loc.finalize(m | (r2.p_tree.actives - {v}))
            return loc.done(r2.q_tree, loc.far_tree(r3, v, v3))
        if pair in ((S3, S2P), (S3P, S2)):
            r2 = yield e2, Split(S0, S3)
            r3 = yield e3, Split(S0, S2)
            loc = Local(tag, r1, r2, r3)
            loc.finalize(m | {v})
            return loc.done(r2.q_tree, r3.q_tree)
        raise EngineBug(f"pair {pair} not liftable at combined weight 9 (variant A)", tag)

    return Gadget(CATALOG["L10"], e2.head, v3, (e1, e2, e3), v, lift, provenance=tag)


def build_deg3_sum9_b(e1: EdgeView, e2: EdgeView, e3: EdgeView, tag: str) -> Gadget:
    """e1 reverse-asymmetric weight 3, e2 forward-asymmetric weight 3, e3
    subdividable weight 2.  Replacement edge joins e1's and e3's far ends;
    e2 is fixed with (S3-, S0)."""
    v, v3 = e1.tail, e3.head

    def lift(pair: Pair) -> Lift:
        r2 = yield e2, Split(S3M, S0)
        m = r2.p_tree.actives - {v}
        if pair in ((S1, S0), (S0, S1)):
            r1 = yield e1, Split(S2P, S1) if pair == (S1, S0) else Split(S3, S0)
            r3 = yield e3, Split(S2, S0) if pair == (S1, S0) else Split(S1, S1)
            loc = Local(tag, r1, r2, r3)
            loc.finalize(m | r1.p_tree.actives | r3.p_tree.actives | {v})
            return loc.done(r1.q_tree, r3.q_tree)
        if pair in ((S2, S3P), (S2P, S3)):
            r1 = yield e1, Split(S1, S2M)
            r3 = yield e3, Subdivide(2) if e3.label.subdividable else Split(S3P, S3)
            loc = Local(tag, r1, r2, r3)
            loc.finalize(m | (r1.p_tree.actives - {v}))
            return loc.done(r1.q_tree, loc.far_tree(r3, v, v3))
        if pair in ((S3, S2P), (S3P, S2)):
            r1 = yield e1, Split(S0, S3M)
            r3 = yield e3, Split(S0, S2)
            loc = Local(tag, r1, r2, r3)
            loc.finalize(m | {v})
            return loc.done(r1.q_tree, r3.q_tree)
        raise EngineBug(f"pair {pair} not liftable at combined weight 9 (variant B)", tag)

    return Gadget(CATALOG["L10"], e1.head, v3, (e1, e2, e3), v, lift, provenance=tag)


def build_deg3_sum9_c(e1: EdgeView, e2: EdgeView, e3: EdgeView, tag: str) -> Gadget:
    """Remaining combined-weight-9 configurations: the replacement edge joins
    the far ends of the two weight-3 edges and e3 is fixed with (S2, S0)."""
    v = e1.tail

    def lift(pair: Pair) -> Lift:
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
            loc.part((r2.p_tree.actives - {v}) | {cs[0]})
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
            loc = Local(tag, r1, r2, r3)
            loc.finalize(r1.p_tree.actives | r2.p_tree.actives | {v, *cs})
            return loc.done(r1.q_tree, r2.q_tree)
        raise EngineBug(f"pair {pair} not liftable at combined weight 9 (variant C)", tag)

    return Gadget(CATALOG["L10"], e1.head, e2.head, (e1, e2, e3), v, lift, provenance=tag)


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
    combined weight 10, `fixed` is the third weight-3 edge: it receives
    (S3, S0) before the pair is split, and v leaves with the finalized parts.
    """
    v = e3.tail
    children, eliminated = ((e3, e4), None) if fixed is None else ((fixed, e3, e4), v)

    def lift(pair: Pair) -> Lift:
        row = _W3_PAIR_ROWS.get(pair)
        if row is None:
            raise EngineBug(f"pair {pair} missing from the weight-3 pair table", tag)
        reals = []
        if fixed is not None:
            reals.append((yield fixed, Split(S3, S0)))
        ra = yield e3, Split(*row[0])
        rb = yield e4, Split(*row[1])
        reals += [ra, rb]
        loc = Local(tag, *reals)
        pool = set().union(*(r.p_tree.actives for r in reals)) - {v}
        loc.finalize(pool if eliminated is None else pool | {v})
        return loc.done(ra.q_tree, rb.q_tree)

    return Gadget(CATALOG["L20"], e3.head, e4.head, children, eliminated, lift, provenance=tag)


# ---------------------------------------------------------------------------
# Degree 4 or 5 with no weight-3 edges: replacement edge over e1, e2 plus
# unit pre-splits on the remaining edges


def build_deg4plus_light(e1: EdgeView, e2: EdgeView, singles: list[EdgeView], tag: str) -> Gadget:
    """Light elimination: every edge in `singles` is fixed with (S1, S0).

    With w(e1)=2 (degree 4) or five unit edges (degree 5) the replacement
    edge carries the augmented weight-2 label; with four unit edges it
    carries the augmented weight-1 label.
    """
    v, v1, v2 = e1.tail, e1.head, e2.head
    d = 2 + len(singles)
    w1 = e1.label.weight
    label = CATALOG["L20"] if w1 == 2 or d == 5 else CATALOG["L10"]

    def fixed_singles():
        rs = []
        for s in singles:
            rs.append((yield s, Split(S1, S0)))
        avs = sorted(set().union(*(r.p_tree.actives for r in rs)) - {v})
        return rs, avs

    def swapped():
        return build_deg4plus_light(e2, e1, singles, tag + "~")._split_lift

    def lift(pair: Pair) -> Lift:
        if label.name == "L20":
            return (yield from _lift_w2(pair))
        return (yield from _lift_w1(pair))

    def _close(r1: Realization, r2: Realization, rs, avs) -> Realization:
        # both edges split: every tail tree at v closes with v and the singles
        loc = Local(tag, r1, r2, *rs)
        loc.finalize(r1.p_tree.actives | r2.p_tree.actives | {v, *avs})
        return loc.done(r1.q_tree, r2.q_tree)

    # -- replacement weight 2 (degree 5 all-unit, or degree 4 with one weight-2)

    def _lift_w2(pair: Pair) -> Lift:
        d5 = len(singles) == 3
        if d5 and pair == (S3P, S3):
            return (yield from mirrored(swapped(), pair))
        rs, avs = yield from fixed_singles()
        if pair == (S2, S0):
            if not d5:
                r1 = yield e1, Split(S0, S2)
                r2 = yield e2, Split(S1, S0)
                return _close(r1, r2, rs, avs)
            r2 = yield e2, Split(S1, S0)
            r1 = yield e1, Subdivide(1) if e1.label.subdividable else Split(S3P, S2)
            loc = Local(tag, r1, r2, *rs)
            loc.finalize((r2.p_tree.actives - {v}) | set(avs))
            return loc.done(loc.far_tree(r1, v, v1), r2.q_tree)
        if pair == (S0, S2):
            r1 = yield e1, Split(PLAIN[w1], S0)
            r2 = yield e2, Subdivide(1) if e2.label.subdividable else Split(S3P, S2)
            loc = Local(tag, r1, r2, *rs)
            loc.finalize((r1.p_tree.actives - {v}) | set(avs))
            return loc.done(r1.q_tree, loc.far_tree(r2, v, v2))
        if pair == (S1, S1):
            r1 = yield e1, Split(S0, S1) if d5 else Split(S1P, S1)
            r2 = yield e2, Split(S0, S1)
            return _close(r1, r2, rs, avs)
        if pair == (S3, S3P):
            return (yield from _w2_large(False, rs, avs, d5))
        if pair == (S3P, S3):
            return (yield from _w2_large(True, rs, avs, d5))
        raise EngineBug(f"pair {pair} not liftable in the light elimination", tag)

    def _w2_large(head_plain: bool, rs, avs, d5: bool) -> Lift:
        # (S3, S3+) with head_plain=False; (S3+, S3) with head_plain=True
        e1_sub = e1.label.subdividable
        e2_sub = e2.label.subdividable
        k1 = 1 if d5 else 2
        if not head_plain:
            r1 = None if e1_sub else (yield e1, Split(S2P, S3) if d5 else Split(S3P, S3))
            r2 = None if e2_sub else (yield e2, Split(S2, S3P))
            if r1 is not None and r2 is not None:
                return _close(r1, r2, rs, avs)
            if r1 is None and r2 is not None:
                s1 = yield e1, Subdivide(k1)
                loc = Local(tag, s1, r2, *rs)
                grabs = [avs[0]] if d5 else []
                p = loc.span(v1, {v1, v, *s1.subdiv} | set(grabs))
                loc.finalize((r2.p_tree.actives - {v}) | (set(avs) - set(grabs)))
                return loc.done(p, r2.q_tree)
            if r1 is not None and r2 is None:
                s2 = yield e2, Subdivide(1)
                loc = Local(tag, r1, s2, *rs)
                grabs = avs[:2]
                q = loc.span(v2, {v2, v, *s2.subdiv} | set(grabs), {v})
                loc.finalize(r1.p_tree.actives | (set(avs) - set(grabs)) | {v})
                return loc.done(r1.q_tree, q)
            s1 = yield e1, Subdivide(k1)
            s2 = yield e2, Subdivide(1)
            loc = Local(tag, s1, s2, *rs)
            grabs = avs[:2]
            rest = [a for a in avs if a not in grabs]
            p = loc.span(v1, {v1, v, *s1.subdiv} | set(rest))
            return loc.done(p, loc.span(v2, {v2, v, *s2.subdiv} | set(grabs), {v}))
        # (S3+, S3) at degree 4 with w(e1) = 2
        r1 = None if e1_sub else (yield e1, Split(S3, S3P))
        r2 = None if e2_sub else (yield e2, Split(S2P, S3))
        if r1 is not None and r2 is not None:
            return _close(r1, r2, rs, avs)
        if r1 is not None and r2 is None:
            s2 = yield e2, Subdivide(1)
            loc = Local(tag, r1, s2, *rs)
            q = loc.span(v2, {v2, v, *s2.subdiv, avs[0]})
            loc.finalize((r1.p_tree.actives - {v}) | set(avs[1:]))
            return loc.done(r1.q_tree, q)
        if r1 is None and r2 is not None:
            s1 = yield e1, Subdivide(2)
            loc = Local(tag, s1, r2, *rs)
            p = loc.span(v1, {v1, v, *s1.subdiv, avs[0]}, {v})
            loc.finalize(r2.p_tree.actives | set(avs[1:]) | {v})
            return loc.done(p, r2.q_tree)
        s1 = yield e1, Subdivide(2)
        s2 = yield e2, Subdivide(1)
        loc = Local(tag, s1, s2, *rs)
        q = loc.span(v2, {v2, v, *s2.subdiv, avs[0]})
        return loc.done(loc.span(v1, {v1, v, *s1.subdiv, avs[1]}, {v}), q)

    # -- replacement weight 1 (degree 4, all edges unit weight)

    def _lift_w1(pair: Pair) -> Lift:
        if pair in ((S1, S0), (S2P, S3), (S3P, S2)):
            return (yield from mirrored(swapped(), pair))
        rs, avs = yield from fixed_singles()
        if pair == (S0, S1):
            r1 = yield e1, Split(S1, S0)
            r2 = yield e2, Split(S0, S1)
            return _close(r1, r2, rs, avs)
        if pair == (S2, S3P):
            e1_spl = None if e1.label.subdividable else (yield e1, Split(S3P, S2))
            e2_spl = None if e2.label.subdividable else (yield e2, Split(S2, S3P))
            if e1_spl is not None and e2_spl is not None:
                return _close(e1_spl, e2_spl, rs, avs)
            if e1_spl is not None and e2_spl is None:
                s2 = yield e2, Subdivide(1)
                loc = Local(tag, e1_spl, s2, *rs)
                q = loc.span(v2, {v2, v, *s2.subdiv} | set(avs), {v})
                loc.finalize(e1_spl.p_tree.actives | {v})
                return loc.done(e1_spl.q_tree, q)
            if e1_spl is None and e2_spl is not None:
                s1 = yield e1, Subdivide(1)
                loc = Local(tag, s1, e2_spl, *rs)
                p = loc.span(v1, {v1, v, *s1.subdiv})
                loc.finalize((e2_spl.p_tree.actives - {v}) | set(avs))
                return loc.done(p, e2_spl.q_tree)
            s1 = yield e1, Subdivide(1)
            s2 = yield e2, Subdivide(1)
            loc = Local(tag, s1, s2, *rs)
            p = loc.span(v1, {v1, v, *s1.subdiv})
            return loc.done(p, loc.span(v2, {v2, v, *s2.subdiv} | set(avs), {v}))
        if pair == (S3, S2P):
            e1_spl = None if e1.label.subdividable else (yield e1, Split(S2P, S3))
            e2_spl = None if e2.label.subdividable else (yield e2, Split(S3P, S2))
            if e1_spl is not None and e2_spl is not None:
                return _close(e1_spl, e2_spl, rs, avs)
            if e1_spl is not None and e2_spl is None:
                s2 = yield e2, Subdivide(1)
                loc = Local(tag, e1_spl, s2, *rs)
                q = loc.span(v2, {v2, v, *s2.subdiv, avs[1]}, {v})
                loc.finalize(e1_spl.p_tree.actives | {avs[0], v})
                return loc.done(e1_spl.q_tree, q)
            if e1_spl is None and e2_spl is not None:
                s1 = yield e1, Subdivide(1)
                loc = Local(tag, s1, e2_spl, *rs)
                kept = loc.keep(v, 1, (e2_spl.p_tree.actives - {v}) | set(avs))
                return loc.done(loc.span(v1, {v1, v, *s1.subdiv, *kept}), e2_spl.q_tree)
            s1 = yield e1, Subdivide(1)
            s2 = yield e2, Subdivide(1)
            loc = Local(tag, s1, s2, *rs)
            p = loc.span(v1, {v1, v, *s1.subdiv, avs[0]})
            return loc.done(p, loc.span(v2, {v2, v, *s2.subdiv, avs[1]}, {v}))
        raise EngineBug(f"pair {pair} not liftable in the unit-weight elimination", tag)

    return Gadget(label, v1, v2, (e1, e2, *singles), v, lift, provenance=tag)
