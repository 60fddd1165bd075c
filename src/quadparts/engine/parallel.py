"""Merging a pair of parallel labeled edges into one labeled edge.

Both edges are viewed from u to v with w(e1) <= w(e2); when both have
positive weight they are replaced by a single edge whose gadget's kind
names the module-level lift that replays each of its operations as a pair
of operations on the originals, read off the gadget, finalizing the local
nearly connected parts the rewrite frees up.  (A weight-0 parallel edge is
simply deleted by the driver; no merge gadget is involved.)
"""

from __future__ import annotations

from ..labels import CATALOG, S0, S1, S1P, S2, S2M, S2P, S3, S3M, S3P, S5M, Label, Pair
from .local import PLAIN, PLUS, Local, pair_shape
from .model import LIFTS, EdgeView, EngineBug, Gadget, Lift, Split, Subdivide, fuse, single


# (label names) -> (kind, label) unless the general case serves them
_KINDS = {
    ("L30", "L30"): ("parallel-w3", "L21"),
    ("L1", "L1"): ("parallel-w1", "L2"),
}


def merged_parallel_label(l1: Label, l2: Label) -> Label:
    """Label of the replacement edge for two positive-weight parallel edges:
    that of the pair's row above, else the paired label of weight
    w(l1)+w(l2) mod 4."""
    return CATALOG[_KINDS.get((l1.name, l2.name), ("", f"L{(l1.weight + l2.weight) % 4}0"))[1]]


def build_parallel_gadget(e1: EdgeView, e2: EdgeView, tag: str) -> Gadget:
    """New gadget (u -> v) replacing parallel edges e1, e2 (both viewed u -> v).

    Caller guarantees w(e1) <= w(e2), both weights positive, and for the
    general case that e1 is not the plain weight-3 label.
    """
    l1, l2 = e1.label, e2.label
    kind, _ = _KINDS.get((l1.name, l2.name), ("parallel-general", ""))
    if kind == "parallel-general" and l1.name == "L30":
        raise EngineBug("caller must order the general parallel case so e1 is not L30", tag)
    return Gadget(kind, merged_parallel_label(l1, l2), e1.tail, e1.head, (e1, e2), None, tag)


# ---------------------------------------------------------------------------
# Both edges plain weight 3 -> the weight-2 minus-pair label


def _w3_split(g: Gadget, pair: Pair) -> Lift:
    e1, e2 = g.children
    if pair in ((S2M, S0), (S1P, S1), (S5M, S1)):
        return _w3((pair[1], pair[0]), e1.reversed(), e2.reversed(), g.tag + "~")
    return _w3(pair, e1, e2, g.tag)


def _w3(pair: Pair, e1: EdgeView, e2: EdgeView, tag: str) -> Lift:
    u, v = e1.tail, e1.head
    if pair == (S0, S2M):
        r1 = yield e1, Split(S2, S1)
        r2 = yield e2, Split(S2, S1)
        loc = Local(tag, r1, r2)
        loc.finalize((r1.at(u).actives | r2.at(u).actives) - {u})
        return loc.done(single(u), fuse(r1.at(v), r2.at(v)))
    if pair == (S1, S1P):
        r1 = yield e1, Split(S1, S2)
        r2 = yield e2, Split(S0, S3)
        loc = Local(tag, r1, r2)
        v_prime = min(r1.at(v).root_children())
        loc.finalize((r2.at(v).actives - {v}) | {v_prime})
        return loc.done(r1.at(u), r1.at(v).with_dummies({v_prime}))
    if pair == (S1, S5M):
        r1 = yield e1, Split(S1, S2)
        r2 = yield e2, Split(S0, S3)
        return Local(tag, r1, r2).done(r1.at(u), fuse(r1.at(v), r2.at(v)))
    if pair == (S3M, S3M):
        r1 = yield e1, Split(S2, S1)
        r2 = yield e2, Split(S1, S2)
        return Local(tag, r1, r2).done(fuse(r1.at(u), r2.at(u)), fuse(r1.at(v), r2.at(v)))
    raise EngineBug(f"unhandled pair {pair} for merged weight-3 parallels", tag)


# ---------------------------------------------------------------------------
# Both edges subdividable weight 1 -> the subdividable weight-2 label


def _w1_split(g: Gadget, pair: Pair) -> Lift:
    e1, e2 = g.children
    if pair == (S2, S0):
        return _w1((pair[1], pair[0]), e1.reversed(), e2.reversed(), g.tag + "~")
    return _w1(pair, e1, e2, g.tag)


def _w1(pair: Pair, e1: EdgeView, e2: EdgeView, tag: str) -> Lift:
    u, v = e1.tail, e1.head
    if pair == (S0, S2):
        r1 = yield e1, Split(S0, S1)
        r2 = yield e2, Split(S0, S1)
        return Local(tag, r1, r2).done(single(u), fuse(r1.at(v), r2.at(v)))
    if pair == (S1, S1):
        r1 = yield e1, Split(S1, S0)
        r2 = yield e2, Split(S0, S1)
        return Local(tag, r1, r2).done(r1.at(u), r2.at(v))
    raise EngineBug(f"unhandled pair {pair} for merged weight-1 parallels", tag)


def _w1_subdiv(g: Gadget, k: int) -> Lift:
    # two internal vertices realized on separate strands; any small part
    # using both strands stays connected through an endpoint
    e1, e2 = g.children
    r1 = yield e1, Subdivide(1)
    r2 = yield e2, Subdivide(1)
    return Local(g.tag, r1, r2).done(subdiv=(r1.subdiv[0], r2.subdiv[0]))


# ---------------------------------------------------------------------------
# General merge: replacement label carries weight (w1+w2) mod 4.  Each step
# below reads u -> v off both views, and a pair served from the other side
# runs on both views reversed.


def _general_split(g: Gadget, pair: Pair) -> Lift:
    e1, e2 = g.children
    return _general(pair, e1, e2, g.tag)


def _general(pair: Pair, e1: EdgeView, e2: EdgeView, tag: str) -> Lift:
    i, j = e1.label.weight, e2.label.weight
    kind, x, y = pair_shape(pair)
    if kind == "plain" and x + y == i + j:
        return _plain_low(pair, x, y, e1, e2, tag)
    if kind == "plain" and x + y == i + j - 4:
        return _plain_high(pair, x, y, e1, e2, tag)
    if kind == "plus_right":
        return _plus_right(pair, x, y, e1, e2, tag)
    if kind == "plus_left":
        return _general((pair[1], pair[0]), e1.reversed(), e2.reversed(), tag + "~")
    raise EngineBug(f"pair {pair} inconsistent with child weights {i},{j}", tag)


def _plain_low(pair: Pair, x: int, y: int, e1: EdgeView, e2: EdgeView, tag: str) -> Lift:
    # no finalization: total attached activity matches the request exactly
    u, v = e1.tail, e1.head
    i, j = e1.label.weight, e2.label.weight
    if x > j:
        return (yield from _general((pair[1], pair[0]), e1.reversed(), e2.reversed(), tag + "~"))
    if e2.admits(PLAIN[x], PLAIN[j - x]):
        r2 = yield e2, Split(PLAIN[x], PLAIN[j - x])
        r1 = yield e1, Split(S0, PLAIN[i])
        return Local(tag, r1, r2).done(r2.at(u), fuse(r2.at(v), r1.at(v)))
    if e2.label.name == "L21" and x == 1 and y == 2 and i == 1:
        r1 = yield e1, Split(S1, S0)
        r2 = yield e2, Split(S0, S2M)
        return Local(tag, r1, r2).done(r1.at(u), r2.at(v))
    raise EngineBug(f"no route for plain pair {pair} on labels {e1.label},{e2.label}", tag)


def _plain_high(pair: Pair, x: int, y: int, e1: EdgeView, e2: EdgeView, tag: str) -> Lift:
    # the weights exceed the request by 4: one local 4-set is finalized
    u, v = e1.tail, e1.head
    i, j = e1.label.weight, e2.label.weight
    if x == 0:
        if e1.admits(PLAIN[i - y], PLAIN[y]):
            r1 = yield e1, Split(PLAIN[i - y], PLAIN[y])
            r2 = yield e2, Split(PLAIN[j], S0)
            q = r1.at(v)
        elif e2.admits(PLAIN[j - y], PLAIN[y]):
            r2 = yield e2, Split(PLAIN[j - y], PLAIN[y])
            r1 = yield e1, Split(PLAIN[i], S0)
            q = r2.at(v)
        elif y == 1:
            # forced labels: e1 the weight-2 minus-pair label, e2 the
            # asymmetric weight-3 label read forward
            r1 = yield e1, Split(S0, S2M)
            r2 = yield e2, Split(S0, S3M)
            loc = Local(tag, r1, r2)
            a, b = sorted(r1.at(v).root_children())
            loc.finalize((r2.at(v).actives - {v}) | {a})
            return loc.done(single(u), loc.span(v, {v, b}))
        elif y == 2:
            r1 = yield e1, Split(S2M, S1)
            r2 = yield e2, Split(S2M, S1)
            q = fuse(r1.at(v), r2.at(v))
        else:
            raise EngineBug(f"no zero-left route for {pair} on {e1.label},{e2.label}", tag)
        loc = Local(tag, r1, r2)
        loc.finalize((r1.at(u).actives | r2.at(u).actives) - {u})
        return loc.done(single(u), q)
    if y == 0 or ((x, y) == (1, 1) and e1.label.name == "L32"):
        # e1 read backwards carries the reverse asymmetric label L31
        return (yield from _general((pair[1], pair[0]), e1.reversed(), e2.reversed(), tag + "~"))
    if x == 1 and y == 1:
        if e1.label.name == "L31":
            r1 = yield e1, Split(S1, S2M)
            r2 = yield e2, Split(S0, S3)
            loc = Local(tag, r1, r2)
            a, b = sorted(r1.at(v).root_children())
            loc.finalize((r2.at(v).actives - {v}) | {a})
            return loc.done(r1.at(u), loc.span(v, {v, b}))
        raise EngineBug(f"plain (1,1) reached with e1 labeled {e1.label}", tag)
    raise EngineBug(f"unhandled reduced plain pair {pair}", tag)


def _plus_right(pair: Pair, x: int, y: int, e1: EdgeView, e2: EdgeView, tag: str) -> Lift:
    u, v = e1.tail, e1.head
    i, j = e1.label.weight, e2.label.weight
    expected = i + j if i + j >= 4 else i + j + 4
    if x + y != expected:
        raise EngineBug(f"plus pair {pair} inconsistent with weights {i},{j}", tag)
    if i == 1 and j == 1:
        # only (S3, S3+) arises; the child that is not purely subdividable
        # absorbs the large side
        ea, eb = (e1, e2) if e1.label.name != "L1" else (e2, e1)
        ra = yield ea, Split(S3, S2P)
        rb = yield eb, Split(S0, S1)
        return Local(tag, ra, rb).done(ra.at(u), fuse(ra.at(v), rb.at(v)))
    if x <= j:
        want_q = PLUS[j - x] if j - x >= 1 else S0
        r2 = yield e2, Split(PLAIN[x], want_q)
        r1 = yield e1, Split(S0, PLAIN[i])
        return Local(tag, r1, r2).done(r2.at(u), fuse(r2.at(v), r1.at(v)))
    # x > j is reachable only at weights (2,2) with the pair (S3, S1+):
    # split the request three-and-one across the two children
    if not (i == 2 and j == 2 and x == 3 and y == 1):
        raise EngineBug(f"unexpected large-left plus pair {pair} at weights {i},{j}", tag)
    pairers = [e for e in (e1, e2) if e.admits(S1, S1) is not None]
    if pairers:
        eb = pairers[0]
        ea = e2 if eb is e1 else e1
        ra = yield ea, Split(S2, S0)
        rb = yield eb, Split(S1, S1)
        return Local(tag, ra, rb).done(fuse(ra.at(u), rb.at(u)), rb.at(v))
    # both children carry the minus-pair label: their realized shapes are
    # dummy-free, so a kept vertex plus a finalized 4-set always exists
    ra = yield e1, Split(S3, S3P)
    rb = yield e2, Split(S0, S2)
    loc = Local(tag, ra, rb)
    kept = loc.keep(v, 1, (ra.at(v).actives | rb.at(v).actives) - {v})
    return loc.done(ra.at(u), loc.span(v, kept | {v}))


LIFTS.update({
    "parallel-w3": (_w3_split, None),
    "parallel-w1": (_w1_split, _w1_subdiv),
    "parallel-general": (_general_split, None),
})
