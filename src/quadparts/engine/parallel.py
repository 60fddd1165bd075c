"""Merging a pair of parallel labeled edges into one labeled edge.

Both edges are viewed from u to v with w(e1) <= w(e2); when both have
positive weight they are replaced by a single edge whose gadget replays each
of its operations as a pair of operations on the originals, finalizing the
local nearly connected parts the rewrite frees up.  (A weight-0 parallel
edge is simply deleted by the driver; no merge gadget is involved.)
"""

from __future__ import annotations

from ..labels import CATALOG, Label, Pair, TreeSet
from .caselib import PLAIN, PLUS, collect, pair_shape
from .local import Fragment, assert_part, finalize, group
from .model import (
    EdgeView,
    EngineBug,
    Gadget,
    Realization,
    Split,
    Subdivide,
    fuse,
    single,
    span_tree,
)

S0, S1, S2, S3 = TreeSet.S0, TreeSet.S1, TreeSet.S2, TreeSet.S3
S1P, S2P, S3P = TreeSet.S1P, TreeSet.S2P, TreeSet.S3P
S2M, S3M, S5M = TreeSet.S2M, TreeSet.S3M, TreeSet.S5M


def merged_parallel_label(l1: Label, l2: Label) -> Label:
    """Label of the replacement edge for two positive-weight parallel edges."""
    if l1.name == l2.name == "L30":
        return CATALOG["L21"]
    if l1.name == l2.name == "L1":
        return CATALOG["L2"]
    w = (l1.weight + l2.weight) % 4
    return CATALOG[f"L{w}0"]


def build_parallel_gadget(e1: EdgeView, e2: EdgeView, u: int, v: int, tag: str) -> Gadget:
    """New gadget (u -> v) replacing parallel edges e1, e2 (both viewed u -> v).

    Caller guarantees w(e1) <= w(e2), both weights positive, and for the
    general case that e1 is not the plain weight-3 label.
    """
    l1, l2 = e1.label, e2.label
    scope = e1.scope | e2.scope
    if l1.name == l2.name == "L30":
        label = CATALOG["L21"]
        lift = _both_w3_lift(e1, e2, u, v, tag)
        return Gadget(label, u, v, scope, lift, provenance=tag)
    if l1.name == l2.name == "L1":
        label = CATALOG["L2"]
        split, subdiv = _both_w1_lifts(e1, e2, u, v, tag)
        return Gadget(label, u, v, scope, split, subdiv, provenance=tag)
    if l1.name == "L30":
        raise EngineBug("caller must order the general parallel case so e1 is not L30", tag)
    label = merged_parallel_label(l1, l2)
    lift = _general_lift(e1, e2, u, v, tag)
    return Gadget(label, u, v, scope, lift, provenance=tag)


# ---------------------------------------------------------------------------
# Both edges plain weight 3 -> the weight-2 minus-pair label


def _both_w3_lift(e1: EdgeView, e2: EdgeView, u: int, v: int, tag: str):
    def lift(pair: Pair) -> Realization:
        if pair == (S0, S2M):
            r1, r2 = e1.request(Split(S2, S1)), e2.request(Split(S2, S1))
            frag, cascaded = collect(r1, r2)
            local = finalize(Fragment(frag), (r1.p_tree.actives | r2.p_tree.actives) - {u}, tag)
            return Realization(parts=cascaded + local, p_tree=single(u),
                               q_tree=fuse(r1.q_tree, r2.q_tree), fragment=frag)
        if pair == (S2M, S0):
            return _mirror(_both_w3_lift, e1, e2, u, v, pair, tag)
        if pair == (S1, S1P):
            r1, r2 = e1.request(Split(S1, S2)), e2.request(Split(S0, S3))
            frag, cascaded = collect(r1, r2)
            v_prime = min(r1.q_tree.root_children())
            part = assert_part(Fragment(frag), (r2.q_tree.actives - {v}) | {v_prime}, tag)
            return Realization(parts=cascaded + (part,), p_tree=r1.p_tree,
                               q_tree=r1.q_tree.with_dummies({v_prime}), fragment=frag)
        if pair == (S1P, S1):
            return _mirror(_both_w3_lift, e1, e2, u, v, pair, tag)
        if pair == (S1, S5M):
            r1, r2 = e1.request(Split(S1, S2)), e2.request(Split(S0, S3))
            frag, cascaded = collect(r1, r2)
            return Realization(parts=cascaded, p_tree=r1.p_tree,
                               q_tree=fuse(r1.q_tree, r2.q_tree), fragment=frag)
        if pair == (S5M, S1):
            return _mirror(_both_w3_lift, e1, e2, u, v, pair, tag)
        if pair == (S3M, S3M):
            r1, r2 = e1.request(Split(S2, S1)), e2.request(Split(S1, S2))
            frag, cascaded = collect(r1, r2)
            return Realization(parts=cascaded, p_tree=fuse(r1.p_tree, r2.p_tree),
                               q_tree=fuse(r1.q_tree, r2.q_tree), fragment=frag)
        raise EngineBug(f"unhandled pair {pair} for merged weight-3 parallels", tag)

    return lift


# ---------------------------------------------------------------------------
# Both edges subdividable weight 1 -> the subdividable weight-2 label


def _both_w1_lifts(e1: EdgeView, e2: EdgeView, u: int, v: int, tag: str):
    def split_lift(pair: Pair) -> Realization:
        if pair == (S0, S2):
            r1, r2 = e1.request(Split(S0, S1)), e2.request(Split(S0, S1))
            frag, cascaded = collect(r1, r2)
            return Realization(parts=cascaded, p_tree=single(u),
                               q_tree=fuse(r1.q_tree, r2.q_tree), fragment=frag)
        if pair == (S2, S0):
            return _mirror(lambda a, b, uu, vv, t: _both_w1_lifts(a, b, uu, vv, t)[0],
                           e1, e2, u, v, pair, tag)
        if pair == (S1, S1):
            r1, r2 = e1.request(Split(S1, S0)), e2.request(Split(S0, S1))
            frag, cascaded = collect(r1, r2)
            return Realization(parts=cascaded, p_tree=r1.p_tree, q_tree=r2.q_tree, fragment=frag)
        raise EngineBug(f"unhandled pair {pair} for merged weight-1 parallels", tag)

    def subdiv_lift(k: int) -> Realization:
        # two internal vertices realized on separate strands; any small part
        # using both strands stays connected through an endpoint
        r1, r2 = e1.request(Subdivide(1)), e2.request(Subdivide(1))
        frag, cascaded = collect(r1, r2)
        return Realization(parts=cascaded, subdiv=(r1.subdiv[0], r2.subdiv[0]), fragment=frag)

    return split_lift, subdiv_lift


# ---------------------------------------------------------------------------
# General merge: replacement label carries weight (w1+w2) mod 4


def _general_lift(e1: EdgeView, e2: EdgeView, u: int, v: int, tag: str):
    i, j = e1.label.weight, e2.label.weight

    def lift(pair: Pair) -> Realization:
        kind, x, y = pair_shape(pair)
        if kind == "plain" and x + y == i + j:
            return _plain_low(pair, x, y)
        if kind == "plain" and x + y == i + j - 4:
            return _plain_high(pair, x, y)
        if kind == "plus_right":
            return _plus_right(pair, x, y)
        if kind == "plus_left":
            return _mirror(_general_lift, e1, e2, u, v, pair, tag)
        raise EngineBug(f"pair {pair} inconsistent with child weights {i},{j}", tag)

    def _plain_low(pair: Pair, x: int, y: int) -> Realization:
        # no finalization: total attached activity matches the request exactly
        if x > j:
            return _mirror(_general_lift, e1, e2, u, v, pair, tag)
        if e2.admits(PLAIN[x], PLAIN[j - x]):
            r2 = e2.request(Split(PLAIN[x], PLAIN[j - x]))
            r1 = e1.request(Split(S0, PLAIN[i]))
            frag, cascaded = collect(r1, r2)
            return Realization(parts=cascaded, p_tree=r2.p_tree,
                               q_tree=fuse(r2.q_tree, r1.q_tree), fragment=frag)
        if e2.label.name == "L21" and x == 1 and y == 2 and i == 1:
            r1 = e1.request(Split(S1, S0))
            r2 = e2.request(Split(S0, S2M))
            frag, cascaded = collect(r1, r2)
            return Realization(parts=cascaded, p_tree=r1.p_tree, q_tree=r2.q_tree, fragment=frag)
        raise EngineBug(f"no route for plain pair {pair} on labels {e1.label},{e2.label}", tag)

    def _plain_high(pair: Pair, x: int, y: int) -> Realization:
        # the weights exceed the request by 4: one local 4-set is finalized
        if x == 0:
            if e1.admits(PLAIN[i - y], PLAIN[y]):
                r1 = e1.request(Split(PLAIN[i - y], PLAIN[y]))
                r2 = e2.request(Split(PLAIN[j], S0))
                frag, cascaded = collect(r1, r2)
                at_u = (r1.p_tree.actives | r2.p_tree.actives) - {u}
                local = finalize(Fragment(frag), at_u, tag)
                return Realization(parts=cascaded + local, p_tree=single(u),
                                   q_tree=r1.q_tree, fragment=frag)
            if e2.admits(PLAIN[j - y], PLAIN[y]):
                r2 = e2.request(Split(PLAIN[j - y], PLAIN[y]))
                r1 = e1.request(Split(PLAIN[i], S0))
                frag, cascaded = collect(r1, r2)
                at_u = (r1.p_tree.actives | r2.p_tree.actives) - {u}
                local = finalize(Fragment(frag), at_u, tag)
                return Realization(parts=cascaded + local, p_tree=single(u),
                                   q_tree=r2.q_tree, fragment=frag)
            if y == 1:
                # forced labels: e1 the weight-2 minus-pair label, e2 the
                # asymmetric weight-3 label read forward
                r1 = e1.request(Split(S0, S2M))
                r2 = e2.request(Split(S0, S3M))
                frag, cascaded = collect(r1, r2)
                a, b = sorted(r1.q_tree.root_children())
                part = assert_part(Fragment(frag), (r2.q_tree.actives - {v}) | {a}, tag)
                q = span_tree(v, {v, b}, frag)
                return Realization(parts=cascaded + (part,), p_tree=single(u), q_tree=q, fragment=frag)
            if y == 2:
                r1 = e1.request(Split(S2M, S1))
                r2 = e2.request(Split(S2M, S1))
                frag, cascaded = collect(r1, r2)
                at_u = (r1.p_tree.actives | r2.p_tree.actives) - {u}
                local = finalize(Fragment(frag), at_u, tag)
                return Realization(parts=cascaded + local, p_tree=single(u),
                                   q_tree=fuse(r1.q_tree, r2.q_tree), fragment=frag)
            raise EngineBug(f"no zero-left route for {pair} on {e1.label},{e2.label}", tag)
        if y == 0:
            return _mirror(_general_lift, e1, e2, u, v, pair, tag)
        if x == 1 and y == 1:
            if e1.label.name == "L31":
                r1 = e1.request(Split(S1, S2M))
                r2 = e2.request(Split(S0, S3))
                frag, cascaded = collect(r1, r2)
                a, b = sorted(r1.q_tree.root_children())
                part = assert_part(Fragment(frag), (r2.q_tree.actives - {v}) | {a}, tag)
                q = span_tree(v, {v, b}, frag)
                return Realization(parts=cascaded + (part,), p_tree=r1.p_tree, q_tree=q, fragment=frag)
            if e1.label.name == "L32":
                r1 = e1.request(Split(S2M, S1))
                r2 = e2.request(Split(S3, S0))
                frag, cascaded = collect(r1, r2)
                a, b = sorted(r1.p_tree.root_children())
                part = assert_part(Fragment(frag), (r2.p_tree.actives - {u}) | {a}, tag)
                p = span_tree(u, {u, b}, frag)
                return Realization(parts=cascaded + (part,), p_tree=p, q_tree=r1.q_tree, fragment=frag)
            raise EngineBug(f"plain (1,1) reached with e1 labeled {e1.label}", tag)
        raise EngineBug(f"unhandled reduced plain pair {pair}", tag)

    def _plus_right(pair: Pair, x: int, y: int) -> Realization:
        expected = i + j if i + j >= 4 else i + j + 4
        if x + y != expected:
            raise EngineBug(f"plus pair {pair} inconsistent with weights {i},{j}", tag)
        if i == 1 and j == 1:
            # only (S3, S3+) arises; the child that is not purely subdividable
            # absorbs the large side
            ea, eb = (e1, e2) if e1.label.name != "L1" else (e2, e1)
            ra = ea.request(Split(S3, S2P))
            rb = eb.request(Split(S0, S1))
            frag, cascaded = collect(ra, rb)
            return Realization(parts=cascaded, p_tree=ra.p_tree,
                               q_tree=fuse(ra.q_tree, rb.q_tree), fragment=frag)
        if x <= j:
            want_q = PLUS[j - x] if j - x >= 1 else S0
            r2 = e2.request(Split(PLAIN[x], want_q))
            r1 = e1.request(Split(S0, PLAIN[i]))
            frag, cascaded = collect(r1, r2)
            return Realization(parts=cascaded, p_tree=r2.p_tree,
                               q_tree=fuse(r2.q_tree, r1.q_tree), fragment=frag)
        # x > j is reachable only at weights (2,2) with the pair (S3, S1+):
        # split the request three-and-one across the two children
        if not (i == 2 and j == 2 and x == 3 and y == 1):
            raise EngineBug(f"unexpected large-left plus pair {pair} at weights {i},{j}", tag)
        pairers = [e for e in (e1, e2) if e.admits(S1, S1) is not None]
        if pairers:
            eb = pairers[0]
            ea = e2 if eb is e1 else e1
            ra = ea.request(Split(S2, S0))
            rb = eb.request(Split(S1, S1))
            frag, cascaded = collect(ra, rb)
            return Realization(parts=cascaded, p_tree=fuse(ra.p_tree, rb.p_tree),
                               q_tree=rb.q_tree, fragment=frag)
        # both children carry the minus-pair label: their realized shapes are
        # dummy-free, so a kept vertex plus a finalized 4-set always exists
        ra = e1.request(Split(S3, S3P))
        rb = e2.request(Split(S0, S2))
        frag, cascaded = collect(ra, rb)
        at_v = (ra.q_tree.actives | rb.q_tree.actives) - {v}
        fr = Fragment(frag)
        for keep in sorted(at_v):
            rest = at_v - {keep}
            if not fr.connected(frozenset({v, keep})):
                continue
            local = group(fr, rest)
            if local is None:
                continue
            q = span_tree(v, {v, keep}, frag)
            return Realization(parts=cascaded + local, p_tree=ra.p_tree, q_tree=q, fragment=frag)
        raise EngineBug(f"no leftover split of the head side for {pair}", tag)

    return lift


# ---------------------------------------------------------------------------


def _mirror(lift_builder, e1: EdgeView, e2: EdgeView, u: int, v: int,
            pair: Pair, tag: str) -> Realization:
    """Realize the swapped pair on the reversed configuration and flip back."""
    builder = lift_builder(e1.reversed(), e2.reversed(), v, u, tag + "~")
    swapped = (pair[1], pair[0])
    return builder(swapped).flipped()
