"""Contracting a degree-2 vertex: two incident labeled edges become one.

The eliminated vertex v is viewed with e1 entering (v1 -> v) and e2 leaving
(v -> v2), weights w(e1) <= w(e2).  The replacement edge runs v1 -> v2 and
carries weight w(e1)+w(e2)+1 mod 4.  Its gadget's kind (a chain, a fixed
table or the general case) names the module-level lift that replays every
operation as a pair of operations on the children e1 and e2, read off the
gadget; whenever both are split, the trees gathered around v together with
v itself are finalized into nearly connected 4-sets.
"""

from __future__ import annotations

from ..labels import CATALOG, S0, S1, S1P, S2, S2M, S2P, S3, S3M, S3P, S5M, Label, Pair
from .local import PLAIN, PLUS, Local, pair_shape
from .model import LIFTS, EdgeView, EngineBug, Gadget, Lift, Realization, Split, Subdivide, graft, single

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
    w(l1) <= w(l2)): that of the pair's row below, else the paired label of
    weight w(l1)+w(l2)+1 mod 4."""
    return CATALOG[_KINDS.get((l1.name, l2.name), ("", f"L{(l1.weight + l2.weight + 1) % 4}0"))[1]]


def build_series_gadget(e1: EdgeView, e2: EdgeView, tag: str) -> Gadget:
    """Replacement gadget (v1 -> v2) for contracting degree-2 vertex v.

    e1 is viewed v1 -> v and e2 is viewed v -> v2 with w(e1) <= w(e2).
    """
    l1, l2 = e1.label, e2.label
    if l1.weight > l2.weight:
        raise EngineBug("series children must be ordered by weight", tag)
    kind, _, table = _KINDS.get((l1.name, l2.name), ("series-general", "", None))
    return Gadget(kind, merged_series_label(l1, l2), e1.tail, e2.head, (e1, e2), e2.tail, tag, table)


# (view label names) -> (kind, label, table) unless the general case serves them
_KINDS = {
    ("L0", "L0"): ("series-chain", "L1", None),
    ("L0", "L1"): ("series-chain", "L2", None),
    ("L0", "L21"): ("series-table", "L31", _TABLE_ZERO_PLUS_MINUSPAIR),
    ("L00", "L21"): ("series-table", "L31", _TABLE_ZEROPAIR_PLUS_MINUSPAIR),
    ("L21", "L31"): ("series-table", "L21", _TABLE_MINUSPAIR_PLUS_W3ASYM),
    ("L32", "L32"): ("series-table", "L32", _TABLE_BOTH_W3ASYM),
    # reading the chain from the other side turns both labels into L32
    ("L31", "L31"): ("series-reversed-table", "L31", _TABLE_BOTH_W3ASYM),
}


# ---------------------------------------------------------------------------
# Pure chain: e1 unlabeled-weight (L0) and e2 subdividable of weight 0 or 1


def _chain_split(g: Gadget, pair: Pair) -> Lift:
    e1, e2 = g.children
    v1, v, v2 = g.u, g.eliminated, g.v
    j = e2.label.weight
    kind, x, y = pair_shape(pair)
    if kind != "plain" or x + y != j + 1:
        raise EngineBug(f"pair {pair} invalid for a chained weight-{j + 1} edge", g.tag)
    if x == 0:
        r1 = yield e1, Split(S0, S0)
        r2 = yield e2, Subdivide(j)
        loc = Local(g.tag, r1, r2)
        return loc.done(single(v1), loc.span(v2, {v2, v, *r2.subdiv}))
    r1 = yield e1, Subdivide(0)
    r2 = yield e2, Split(PLAIN[x - 1], PLAIN[j + 1 - x])
    return Local(g.tag, r1, r2).done(graft(v1, (v1, v), r2.at(v)), r2.at(v2))


def _chain_subdiv(g: Gadget, k: int) -> Lift:
    e1, e2 = g.children
    r1 = yield e1, Subdivide(0)
    r2 = yield e2, Subdivide(e2.label.weight)
    return Local(g.tag, r1, r2).done(subdiv=(g.eliminated, *r2.subdiv))


# ---------------------------------------------------------------------------
# Fixed two-op tables


def _table_split(g: Gadget, pair: Pair) -> Lift:
    e1, e2 = g.children
    if g.kind == "series-reversed-table":
        return _table((pair[1], pair[0]), e2.reversed(), e1.reversed(), g.table, g.tag + "~")
    return _table(pair, e1, e2, g.table, g.tag)


def _table(pair: Pair, e1: EdgeView, e2: EdgeView, table: dict, tag: str) -> Lift:
    row = table.get(pair)
    if row is None:
        raise EngineBug(f"pair {pair} missing from the series table", tag)
    op1, op2 = row
    r2 = yield e2, Split(*op2)
    if op1 == KEEP:
        r1 = yield e1, Subdivide(0)
        v1, v = e1.tail, e2.tail
        return Local(tag, r1, r2).done(graft(v1, (v1, v), r2.at(v)), r2.at(e2.head))
    r1 = yield e1, Split(*op1)
    return _close_at_v(tag, e1, e2, r1, r2)


def _close_at_v(tag: str, e1: EdgeView, e2: EdgeView, r1: Realization, r2: Realization) -> Realization:
    """Both children split: finalize v with the trees gathered at v."""
    loc = Local(tag, r1, r2)
    v = e2.tail
    loc.finalize(r1.at(v).actives | r2.at(v).actives | {v})
    return loc.done(r1.at(e1.tail), r2.at(e2.head))


# ---------------------------------------------------------------------------
# General contraction: replacement label is the paired label of weight
# w(e1)+w(e2)+1 mod 4.  Each step below reads v1 -> v off e1 and v -> v2 off
# e2.  A plus_left pair is the plus_right pair of the same contraction read
# from v2: the plus lifts run on the children reversed and swapped, and
# their result, read by root, serves as it is.


def _general_split(g: Gadget, pair: Pair) -> Lift:
    e1, e2 = g.children
    kind, x, y = pair_shape(pair)
    low = e1.label.weight + e2.label.weight + 1 <= 3
    if kind == "plain":
        return (_plain_low if low else _plain_high)(pair, x, y, e1, e2, g.tag)
    if kind == "plus_left":  # replay from the far side
        return (_plus_low if low else _plus_high)((pair[1], pair[0]), y, x, e2.reversed(), e1.reversed(),
                                                  g.tag + "~")
    return (_plus_low if low else _plus_high)(pair, x, y, e1, e2, g.tag)


def _head_side(tag: str, e1: EdgeView, e2: EdgeView, r1: Realization, r2: Realization,
               dummies=frozenset()) -> Realization:
    # e2 subdivided: v and its path join e1's head tree
    loc = Local(tag, r1, r2)
    v, v2 = e2.tail, e2.head
    q = loc.span(v2, {v2, v, *r2.subdiv} | set(r1.at(v).vertices), dummies)
    return loc.done(r1.at(e1.tail), q)


def _tail_side(tag: str, e1: EdgeView, e2: EdgeView, r1: Realization, r2: Realization) -> Realization:
    # e1 subdivided: v and its path join e2's tail tree
    loc = Local(tag, r1, r2)
    v1, v = e1.tail, e1.head
    return loc.done(loc.span(v1, {v1, v, *r1.subdiv} | set(r2.at(v).vertices)), r2.at(e2.head))


# -- combined weight at most 2 ---------------------------------------------


def _plain_low(pair: Pair, x: int, y: int, e1: EdgeView, e2: EdgeView, tag: str) -> Lift:
    i, j = e1.label.weight, e2.label.weight
    if x + y != i + j + 1:
        raise EngineBug(f"pair {pair} inconsistent with weights {i},{j}", tag)
    if y <= j:
        if e2.admits(PLAIN[j - y], PLAIN[y]) is None:
            raise EngineBug(
                f"head child {e2.label} lacks ({PLAIN[j - y]},{PLAIN[y]}); "
                "this configuration belongs to a fixed table", tag)
        r2 = yield e2, Split(PLAIN[j - y], PLAIN[y])
        if e1.label.subdividable:
            return _tail_side(tag, e1, e2, (yield e1, Subdivide(i)), r2)
        r1 = yield e1, Split(PLAIN[x], PLUS[i + 4 - x])
        return _close_at_v(tag, e1, e2, r1, r2)
    # y > j, hence x <= i
    r1 = yield e1, Split(PLAIN[x], PLAIN[i - x])
    if e2.label.subdividable:
        return _head_side(tag, e1, e2, r1, (yield e2, Subdivide(j)))
    r2 = yield e2, Split(PLUS[j + 4 - y], PLAIN[y])
    return _close_at_v(tag, e1, e2, r1, r2)


def _plus_low(pair: Pair, x: int, y: int, e1: EdgeView, e2: EdgeView, tag: str) -> Lift:
    # combined weight at most 1, so x exceeds the tail weight by at least 2
    i, j = e1.label.weight, e2.label.weight
    if x + y != i + j + 5 or i + j > 1:
        raise EngineBug(f"plus pair {pair} invalid at weights {i},{j}", tag)
    if not e1.label.subdividable:
        r1 = yield e1, Split(PLAIN[x], PLUS[i + 4 - x])
        if e2.label.subdividable:
            return _head_side(tag, e1, e2, r1, (yield e2, Subdivide(j)), r1.at(e1.head).dummies)
        r2 = yield e2, Split(PLAIN[j + 4 - y], PLUS[y])
        return _close_at_v(tag, e1, e2, r1, r2)
    if e2.label.subdividable:
        raise EngineBug("pure chain must be handled by the chain table", tag)
    r1 = yield e1, Subdivide(i)
    r2 = yield e2, Split(PLAIN[x - i - 1], PLUS[y])
    return _tail_side(tag, e1, e2, r1, r2)


# -- combined weight at least 3 --------------------------------------------


def _plain_high(pair: Pair, x: int, y: int, e1: EdgeView, e2: EdgeView, tag: str) -> Lift:
    i, j = e1.label.weight, e2.label.weight
    if x + y != i + j - 3:
        raise EngineBug(f"pair {pair} inconsistent with weights {i},{j}", tag)
    if e1.admits(PLAIN[x], PLAIN[i - x]) is not None:
        r1 = yield e1, Split(PLAIN[x], PLAIN[i - x])
        want_p = PLUS[j - y] if j - y >= 1 else S0
        r2 = yield e2, Split(want_p, PLAIN[y])
    elif e2.admits(PLAIN[j - y], PLAIN[y]) is not None:
        r2 = yield e2, Split(PLAIN[j - y], PLAIN[y])
        want_q = PLUS[i - x] if i - x >= 1 else S0
        r1 = yield e1, Split(PLAIN[x], want_q)
    else:
        raise EngineBug(
            f"neither child of ({e1.label},{e2.label}) admits the plain route for {pair}; "
            "this configuration belongs to a fixed table", tag)
    return _close_at_v(tag, e1, e2, r1, r2)


def _plus_high(pair: Pair, x: int, y: int, e1: EdgeView, e2: EdgeView, tag: str) -> Lift:
    i, j = e1.label.weight, e2.label.weight
    if x + y != i + j + 1:
        raise EngineBug(f"plus pair {pair} inconsistent with weights {i},{j}", tag)
    if x <= i:
        want_q = PLUS[i - x] if i - x >= 1 else S0
        r1 = yield e1, Split(PLAIN[x], want_q)
        if e2.label.subdividable:
            return _head_side(tag, e1, e2, r1, (yield e2, Subdivide(j)), r1.at(e1.head).dummies)
        r2 = yield e2, Split(PLAIN[j + 4 - y], PLUS[y])
        return _close_at_v(tag, e1, e2, r1, r2)
    if y <= j:
        r2 = yield e2, Split(PLAIN[j - y], PLUS[y])
        if e1.label.subdividable:
            return _tail_side(tag, e1, e2, (yield e1, Subdivide(i)), r2)
        r1 = yield e1, Split(PLAIN[x], PLUS[i + 4 - x])
        return _close_at_v(tag, e1, e2, r1, r2)
    raise EngineBug(f"plus pair {pair} has neither side within the child weights", tag)


LIFTS.update({
    "series-chain": (_chain_split, _chain_subdiv),
    "series-table": (_table_split, None),
    "series-reversed-table": (_table_split, None),
    "series-general": (_general_split, None),
})
