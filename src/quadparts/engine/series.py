"""Contracting a degree-2 vertex: two incident labeled edges become one.

The eliminated vertex v is viewed with e1 entering (v1 -> v) and e2 leaving
(v -> v2), weights w(e1) <= w(e2).  The replacement edge runs v1 -> v2 and
carries weight w(e1)+w(e2)+1 mod 4.  Its gadget replays every operation as a
pair of operations on e1 and e2; whenever both children are split, the trees
gathered around v together with v itself are finalized into nearly connected
4-sets.
"""

from __future__ import annotations

from ..labels import CATALOG, Label, Pair, TreeSet
from .caselib import PLAIN, PLUS, collect, pair_shape
from .local import Fragment, finalize
from .model import (
    EdgeView,
    EngineBug,
    Gadget,
    Realization,
    Split,
    Subdivide,
    graft,
    single,
    span_tree,
)

S0, S1, S2, S3 = TreeSet.S0, TreeSet.S1, TreeSet.S2, TreeSet.S3
S1P, S2P, S3P = TreeSet.S1P, TreeSet.S2P, TreeSet.S3P
S2M, S3M, S5M = TreeSet.S2M, TreeSet.S3M, TreeSet.S5M

KEEP = "keep"

# Special two-child tables, keyed by the replacement label's pairs.
# Row values: (KEEP, e2 op) keeps e1 and grafts e2's tail tree below v1;
# (e1 op, e2 op) splits both children and finalizes v with the trees at v.

_TABLE_ZERO_PLUS_MINUSPAIR = {  # e1 carries L0, e2 the weight-2 minus-pair label
    (S0, S3M): ((S0, S0), (S3M, S3M)),
    (S1, S2M): (KEEP, (S0, S2M)),
    (S2, S1P): (KEEP, (S1, S1P)),
    (S2, S5M): (KEEP, (S1, S5M)),
    (S2P, S1): (KEEP, (S1P, S1)),
    (S3, S0): (KEEP, (S2M, S0)),
}

_TABLE_ZEROPAIR_PLUS_MINUSPAIR = {  # e1 carries L00, e2 the weight-2 minus-pair label
    (S0, S3M): ((S0, S0), (S3M, S3M)),
    (S1, S2M): ((S1, S3P), (S0, S2M)),
    (S2, S1P): ((S2, S2P), (S1, S1P)),
    (S2, S5M): ((S2, S2P), (S1, S5M)),
    (S2P, S1): ((S2P, S2), (S1P, S1)),
    (S3, S0): ((S3, S1P), (S2M, S0)),
}

_TABLE_MINUSPAIR_PLUS_W3ASYM = {  # e1 carries L21, e2 carries L31
    (S0, S2M): ((S0, S2M), (S1, S2M)),
    (S1, S1P): ((S1, S1P), (S2, S1P)),
    (S1, S5M): ((S1, S1P), (S2, S5M)),
    (S1P, S1): ((S1P, S1), (S2P, S1)),
    # The row below is absent from the source tables; it follows the same
    # v-accounting as its mirror row (S1, S5M).
    (S5M, S1): ((S5M, S1), (S2P, S1)),
    (S2M, S0): ((S2M, S0), (S3, S0)),
    (S3M, S3M): ((S3M, S3M), (S0, S3M)),
}

_TABLE_BOTH_W3ASYM = {  # both children carry L32 in this direction
    (S0, S3): ((S0, S3), (S0, S3)),
    (S1, S2P): ((S1, S2P), (S1, S2P)),
    (S1P, S2): ((S1P, S2), (S1P, S2)),
    (S5M, S2): ((S5M, S2), (S1P, S2)),
    (S2M, S1): ((S2M, S1), (S2M, S1)),
    (S3M, S0): ((S3M, S0), (S3M, S0)),
}


def merged_series_label(l1: Label, l2: Label) -> Label:
    """Label of the replacement edge for a degree-2 contraction (view labels,
    w(l1) <= w(l2))."""
    if l1.name == "L0" and l2.name in ("L0", "L1"):
        return CATALOG[f"L{l2.weight + 1}"]
    if l1.name == "L0" and l2.name == "L21":
        return CATALOG["L31"]
    if l1.name == "L00" and l2.name == "L21":
        return CATALOG["L31"]
    if l1.name == "L21" and l2.name == "L31":
        return CATALOG["L21"]
    if l1.name == "L32" and l2.name == "L32":
        return CATALOG["L32"]
    if l1.name == "L31" and l2.name == "L31":
        return CATALOG["L31"]
    w = (l1.weight + l2.weight + 1) % 4
    return CATALOG[f"L{w}0"]


def build_series_gadget(e1: EdgeView, e2: EdgeView, v: int, v1: int, v2: int,
                        tag: str) -> Gadget:
    """Replacement gadget (v1 -> v2) for contracting degree-2 vertex v.

    e1 is viewed v1 -> v and e2 is viewed v -> v2 with w(e1) <= w(e2).
    """
    l1, l2 = e1.label, e2.label
    if l1.weight > l2.weight:
        raise EngineBug("series children must be ordered by weight", tag)
    scope = frozenset({v}) | e1.scope | e2.scope
    label = merged_series_label(l1, l2)

    if l1.name == "L0" and l2.name in ("L0", "L1"):
        split, subdiv = _chain_lifts(e1, e2, v, v1, v2, tag)
        return Gadget(label, v1, v2, scope, split, subdiv, provenance=tag)
    table = None
    if l1.name == "L0" and l2.name == "L21":
        table = _TABLE_ZERO_PLUS_MINUSPAIR
    elif l1.name == "L00" and l2.name == "L21":
        table = _TABLE_ZEROPAIR_PLUS_MINUSPAIR
    elif l1.name == "L21" and l2.name == "L31":
        table = _TABLE_MINUSPAIR_PLUS_W3ASYM
    elif l1.name == "L32" and l2.name == "L32":
        table = _TABLE_BOTH_W3ASYM
    if table is not None:
        lift = _table_lift(e1, e2, v, v1, v2, table, tag)
        return Gadget(label, v1, v2, scope, lift, provenance=tag)
    if l1.name == "L31" and l2.name == "L31":
        # reading the chain from the other side turns both labels into L32
        inner = _table_lift(e2.reversed(), e1.reversed(), v, v2, v1, _TABLE_BOTH_W3ASYM, tag + "~")
        lift = _mirror_wrap(inner)
        return Gadget(label, v1, v2, scope, lift, provenance=tag)
    lift = _general_series_lift(e1, e2, v, v1, v2, tag)
    return Gadget(label, v1, v2, scope, lift, provenance=tag)


# ---------------------------------------------------------------------------
# Pure chain: e1 unlabeled-weight (L0) and e2 subdividable of weight 0 or 1


def _chain_lifts(e1: EdgeView, e2: EdgeView, v: int, v1: int, v2: int, tag: str):
    j = e2.label.weight

    def split_lift(pair: Pair) -> Realization:
        kind, x, y = pair_shape(pair)
        if kind != "plain" or x + y != j + 1:
            raise EngineBug(f"pair {pair} invalid for a chained weight-{j + 1} edge", tag)
        if x == 0:
            r1 = e1.request(Split(S0, S0))
            r2 = e2.request(Subdivide(j))
            frag, cascaded = collect(r1, r2)
            q = span_tree(v2, {v2, v, *r2.subdiv}, frag)
            return Realization(parts=cascaded, p_tree=single(v1), q_tree=q, fragment=frag)
        r1 = e1.request(Subdivide(0))
        r2 = e2.request(Split(PLAIN[x - 1], PLAIN[j + 1 - x]))
        frag, cascaded = collect(r1, r2)
        p = graft(v1, (v1, v), r2.p_tree)
        return Realization(parts=cascaded, p_tree=p, q_tree=r2.q_tree, fragment=frag)

    def subdiv_lift(k: int) -> Realization:
        r1 = e1.request(Subdivide(0))
        r2 = e2.request(Subdivide(j))
        frag, cascaded = collect(r1, r2)
        return Realization(parts=cascaded, subdiv=(v, *r2.subdiv), fragment=frag)

    return split_lift, subdiv_lift


# ---------------------------------------------------------------------------
# Fixed two-op tables


def _table_lift(e1: EdgeView, e2: EdgeView, v: int, v1: int, v2: int, table: dict, tag: str):
    def lift(pair: Pair) -> Realization:
        row = table.get(pair)
        if row is None:
            raise EngineBug(f"pair {pair} missing from the series table", tag)
        op1, op2 = row
        r2 = e2.request(Split(*op2))
        if op1 == KEEP:
            r1 = e1.request(Subdivide(0))
            frag, cascaded = collect(r1, r2)
            p = graft(v1, (v1, v), r2.p_tree)
            return Realization(parts=cascaded, p_tree=p, q_tree=r2.q_tree, fragment=frag)
        r1 = e1.request(Split(*op1))
        frag, cascaded = collect(r1, r2)
        at_v = (r1.q_tree.actives | r2.p_tree.actives) - {v}
        local = finalize(Fragment(frag), at_v | {v}, tag)
        return Realization(parts=cascaded + local, p_tree=r1.p_tree, q_tree=r2.q_tree, fragment=frag)

    return lift


def _mirror_wrap(inner_lift):
    def lift(pair: Pair) -> Realization:
        return inner_lift((pair[1], pair[0])).flipped()

    return lift


# ---------------------------------------------------------------------------
# General contraction: replacement label is the paired label of weight
# w(e1)+w(e2)+1 mod 4


def _general_series_lift(e1: EdgeView, e2: EdgeView, v: int, v1: int, v2: int, tag: str):
    i, j = e1.label.weight, e2.label.weight
    low = i + j + 1 <= 3

    def lift(pair: Pair) -> Realization:
        kind, x, y = pair_shape(pair)
        if kind == "plain":
            return _plain_low(pair, x, y) if low else _plain_high(pair, x, y)
        if kind == "plus_right":
            return _plus_low(pair, x, y) if low else _plus_high(pair, x, y)
        # plus_left: replay from the far side
        inner = _general_series_lift(e2.reversed(), e1.reversed(), v, v2, v1, tag + "~")
        return inner((pair[1], pair[0])).flipped()

    # -- combined weight at most 2 -----------------------------------------

    def _plain_low(pair: Pair, x: int, y: int) -> Realization:
        if x + y != i + j + 1:
            raise EngineBug(f"pair {pair} inconsistent with weights {i},{j}", tag)
        if y <= j:
            if e2.admits(PLAIN[j - y], PLAIN[y]) is None:
                raise EngineBug(
                    f"head child {e2.label} lacks ({PLAIN[j - y]},{PLAIN[y]}); "
                    "this configuration belongs to a fixed table", tag)
            r2 = e2.request(Split(PLAIN[j - y], PLAIN[y]))
            if e1.label.subdividable:
                r1 = e1.request(Subdivide(i))
                frag, cascaded = collect(r1, r2)
                p = span_tree(v1, {v1, v, *r1.subdiv} | set(r2.p_tree.vertices), frag)
                return Realization(parts=cascaded, p_tree=p, q_tree=r2.q_tree, fragment=frag)
            r1 = e1.request(Split(PLAIN[x], PLUS[i + 4 - x]))
            frag, cascaded = collect(r1, r2)
            at_v = (r1.q_tree.actives | r2.p_tree.actives) - {v}
            local = finalize(Fragment(frag), at_v | {v}, tag)
            return Realization(parts=cascaded + local, p_tree=r1.p_tree, q_tree=r2.q_tree,
                               fragment=frag)
        # y > j, hence x <= i
        r1 = e1.request(Split(PLAIN[x], PLAIN[i - x]))
        if e2.label.subdividable:
            r2 = e2.request(Subdivide(j))
            frag, cascaded = collect(r1, r2)
            q = span_tree(v2, {v2, v, *r2.subdiv} | set(r1.q_tree.vertices), frag)
            return Realization(parts=cascaded, p_tree=r1.p_tree, q_tree=q, fragment=frag)
        r2 = e2.request(Split(PLUS[j + 4 - y], PLAIN[y]))
        frag, cascaded = collect(r1, r2)
        at_v = (r1.q_tree.actives | r2.p_tree.actives) - {v}
        local = finalize(Fragment(frag), at_v | {v}, tag)
        return Realization(parts=cascaded + local, p_tree=r1.p_tree, q_tree=r2.q_tree, fragment=frag)

    def _plus_low(pair: Pair, x: int, y: int) -> Realization:
        # combined weight at most 1, so x exceeds the tail weight by at least 2
        if x + y != i + j + 5 or i + j > 1:
            raise EngineBug(f"plus pair {pair} invalid at weights {i},{j}", tag)
        if not e1.label.subdividable:
            r1 = e1.request(Split(PLAIN[x], PLUS[i + 4 - x]))
            if e2.label.subdividable:
                r2 = e2.request(Subdivide(j))
                frag, cascaded = collect(r1, r2)
                q = span_tree(v2, {v2, v, *r2.subdiv} | set(r1.q_tree.vertices), frag,
                              dummies=r1.q_tree.dummies)
                return Realization(parts=cascaded, p_tree=r1.p_tree, q_tree=q, fragment=frag)
            r2 = e2.request(Split(PLAIN[j + 4 - y], PLUS[y]))
            frag, cascaded = collect(r1, r2)
            at_v = (r1.q_tree.actives | r2.p_tree.actives) - {v}
            local = finalize(Fragment(frag), at_v | {v}, tag)
            return Realization(parts=cascaded + local, p_tree=r1.p_tree, q_tree=r2.q_tree,
                               fragment=frag)
        if e2.label.subdividable:
            raise EngineBug("pure chain must be handled by the chain table", tag)
        r1 = e1.request(Subdivide(i))
        r2 = e2.request(Split(PLAIN[x - i - 1], PLUS[y]))
        frag, cascaded = collect(r1, r2)
        p = span_tree(v1, {v1, v, *r1.subdiv} | set(r2.p_tree.vertices), frag)
        return Realization(parts=cascaded, p_tree=p, q_tree=r2.q_tree, fragment=frag)

    # -- combined weight at least 3 ----------------------------------------

    def _plain_high(pair: Pair, x: int, y: int) -> Realization:
        if x + y != i + j - 3:
            raise EngineBug(f"pair {pair} inconsistent with weights {i},{j}", tag)
        if e1.admits(PLAIN[x], PLAIN[i - x]) is not None:
            r1 = e1.request(Split(PLAIN[x], PLAIN[i - x]))
            want_p = PLUS[j - y] if j - y >= 1 else S0
            r2 = e2.request(Split(want_p, PLAIN[y]))
        elif e2.admits(PLAIN[j - y], PLAIN[y]) is not None:
            r2 = e2.request(Split(PLAIN[j - y], PLAIN[y]))
            want_q = PLUS[i - x] if i - x >= 1 else S0
            r1 = e1.request(Split(PLAIN[x], want_q))
        else:
            raise EngineBug(
                f"neither child of ({e1.label},{e2.label}) admits the plain route for {pair}; "
                "this configuration belongs to a fixed table", tag)
        frag, cascaded = collect(r1, r2)
        at_v = (r1.q_tree.actives | r2.p_tree.actives) - {v}
        local = finalize(Fragment(frag), at_v | {v}, tag)
        return Realization(parts=cascaded + local, p_tree=r1.p_tree, q_tree=r2.q_tree, fragment=frag)

    def _plus_high(pair: Pair, x: int, y: int) -> Realization:
        if x + y != i + j + 1:
            raise EngineBug(f"plus pair {pair} inconsistent with weights {i},{j}", tag)
        if x <= i:
            want_q = PLUS[i - x] if i - x >= 1 else S0
            r1 = e1.request(Split(PLAIN[x], want_q))
            if e2.label.subdividable:
                r2 = e2.request(Subdivide(j))
                frag, cascaded = collect(r1, r2)
                q = span_tree(v2, {v2, v, *r2.subdiv} | set(r1.q_tree.vertices), frag,
                              dummies=r1.q_tree.dummies)
                return Realization(parts=cascaded, p_tree=r1.p_tree, q_tree=q, fragment=frag)
            r2 = e2.request(Split(PLAIN[j + 4 - y], PLUS[y]))
            frag, cascaded = collect(r1, r2)
            at_v = (r1.q_tree.actives | r2.p_tree.actives) - {v}
            local = finalize(Fragment(frag), at_v | {v}, tag)
            return Realization(parts=cascaded + local, p_tree=r1.p_tree, q_tree=r2.q_tree,
                               fragment=frag)
        if y <= j:
            r2 = e2.request(Split(PLAIN[j - y], PLUS[y]))
            if e1.label.subdividable:
                r1 = e1.request(Subdivide(i))
                frag, cascaded = collect(r1, r2)
                p = span_tree(v1, {v1, v, *r1.subdiv} | set(r2.p_tree.vertices), frag)
                return Realization(parts=cascaded, p_tree=p, q_tree=r2.q_tree, fragment=frag)
            r1 = e1.request(Split(PLAIN[x], PLUS[i + 4 - x]))
            frag, cascaded = collect(r1, r2)
            at_v = (r1.q_tree.actives | r2.p_tree.actives) - {v}
            local = finalize(Fragment(frag), at_v | {v}, tag)
            return Realization(parts=cascaded + local, p_tree=r1.p_tree, q_tree=r2.q_tree,
                               fragment=frag)
        raise EngineBug(f"plus pair {pair} has neither side within the child weights", tag)

    return lift
