"""Reductions at irreducible spots: absorbing an edge into a sibling, and
eliminating a vertex of minimum degree at least 3.

All incident edges are viewed oriented away from the eliminated vertex v.
Some eliminations are *eager*: every incident edge receives a fixed split,
the freed vertices are finalized on the spot, and no replacement edge is
created.  The remaining eliminations install a replacement edge between two
former neighbours whose gadget replays its operations onto the removed edges.
"""

from __future__ import annotations

from itertools import combinations

from ..labels import CATALOG, Pair, TreeSet
from .caselib import PLAIN, PLUS, collect, pair_shape
from .local import Fragment, assert_part, finalize, group
from .model import (
    EdgeView,
    EngineBug,
    Gadget,
    Realization,
    Split,
    Subdivide,
    single,
    span_tree,
)

S0, S1, S2, S3 = TreeSet.S0, TreeSet.S1, TreeSet.S2, TreeSet.S3
S1P, S2P, S3P = TreeSet.S1P, TreeSet.S2P, TreeSet.S3P
S2M, S3M, S5M = TreeSet.S2M, TreeSet.S3M, TreeSet.S5M


# ---------------------------------------------------------------------------
# Eager eliminations: fixed splits, no replacement edge


def eliminate_with_fixed_splits(ops: list[tuple[EdgeView, Pair]], v: int,
                                include_v: bool, tag: str) -> tuple[frozenset[int], ...]:
    """Realize a fixed split on each listed edge and finalize everything freed.

    Used when the weight arithmetic closes on its own: the tail trees at v
    (plus v itself when it leaves the graph) group into nearly connected
    4-sets with no residue.
    """
    reals = [e.request(Split(*op)) for e, op in ops]
    frag, cascaded = collect(*reals)
    pool: set[int] = set()
    for r in reals:
        pool |= r.p_tree.actives - {v}
    if include_v:
        pool.add(v)
    local = finalize(Fragment(frag, extra_vertices=[v]), pool, tag)
    return cascaded + local


# ---------------------------------------------------------------------------
# Absorbing a removable asymmetric weight-3 edge into a sibling


def build_edge_absorb(e1: EdgeView, e2: EdgeView, v: int, v2: int, tag: str) -> Gadget:
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
    label = CATALOG["L20"]
    scope = e1.scope | e2.scope
    sibling_asym = e2.label.name == "L32"

    def lift(pair: Pair) -> Realization:
        r1 = e1.request(Split(S3M, S0))
        m = r1.p_tree.actives - {v}
        if pair == (S0, S2):
            r2 = e2.request(Split(S5M, S2) if sibling_asym else Split(S1, S2))
            frag, cascaded = collect(r1, r2)
            pool = m | (r2.p_tree.actives - {v})
            local = finalize(Fragment(frag), pool, tag)
            return Realization(parts=cascaded + local, p_tree=single(v), q_tree=r2.q_tree,
                               fragment=frag)
        if pair == (S1, S1):
            r2 = e2.request(Split(S2, S1))
            frag, cascaded = collect(r1, r2)
            pool = m | (r2.p_tree.actives - {v})
            return _keep_subtree_at(v, 1, pool, frag, cascaded, r2.q_tree, tag)
        if pair == (S2, S0):
            r2 = e2.request(Split(S3, S0))
            frag, cascaded = collect(r1, r2)
            pool = m | (r2.p_tree.actives - {v})
            return _keep_subtree_at(v, 2, pool, frag, cascaded, r2.q_tree, tag)
        if pair in ((S3, S3P), (S3P, S3)):
            r2 = e2.request(Split(S0, S3))
            frag, cascaded = collect(r1, r2)
            return Realization(parts=cascaded, p_tree=r1.p_tree, q_tree=r2.q_tree, fragment=frag)
        raise EngineBug(f"pair {pair} is not part of the absorbed-edge table", tag)

    return Gadget(label, v, v2, scope, lift, provenance=tag)


def _keep_subtree_at(v: int, size: int, pool: set[int], frag, cascaded,
                     q_tree, tag: str) -> Realization:
    """Keep a `size`-vertex subtree at v as the new tail tree and finalize the rest."""
    fr = Fragment(frag, extra_vertices=[v])
    for combo in combinations(sorted(pool), size):
        keep = frozenset(combo)
        if not fr.connected(keep | {v}):
            continue
        local = group(fr, pool - keep)
        if local is None:
            continue
        p = span_tree(v, keep | {v}, frag)
        return Realization(parts=cascaded + local, p_tree=p, q_tree=q_tree, fragment=frag)
    raise EngineBug(f"no way to keep a {size}-vertex subtree at {v} from pool {sorted(pool)}", tag)


# ---------------------------------------------------------------------------
# Degree-3 elimination with a paired weight-2 tail and a unit third edge


def build_deg3_pair_config(e1: EdgeView, e2: EdgeView, e3: EdgeView, v: int,
                           tag: str) -> Gadget:
    """Configuration: e1 carries the weight-2 or weight-3 minus-pair-bearing
    label, e2 the weight-2 minus-pair label, w(e3) = 1.  The replacement edge
    runs from e1's far end to e3's far end; e2 always receives (S2-, S0)."""
    i = e1.label.weight
    v1, v3 = e1.head, e3.head
    label = CATALOG[f"L{i}0"]
    scope = e1.scope | e2.scope | e3.scope | {v}

    def lift(pair: Pair) -> Realization:
        r2 = e2.request(Split(S2M, S0))
        cs = sorted(r2.p_tree.actives - {v})
        kind, x, y = pair_shape(pair)
        if kind == "plain" and x + y == i:
            if y <= 1:
                r3 = e3.request(Split(PLAIN[1 - y], PLAIN[y]))
                want = PLUS[i - x] if i - x >= 1 else S0
                r1 = e1.request(Split(want, PLAIN[x]))
                frag, cascaded = collect(r1, r2, r3)
                pool = ((r1.p_tree.actives | r3.p_tree.actives) - {v}) | set(cs) | {v}
                local = finalize(Fragment(frag), pool, tag)
                return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=r3.q_tree,
                                   fragment=frag)
            if y == 2:
                r1 = e1.request(Split(S2M, PLAIN[x]))
                if e3.label.subdividable:
                    r3 = e3.request(Subdivide(1))
                    frag, cascaded = collect(r1, r2, r3)
                    pool = (r1.p_tree.actives - {v}) | set(cs)
                    local = finalize(Fragment(frag), pool, tag)
                    q = span_tree(v3, {v3, v, *r3.subdiv}, frag)
                    return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=q,
                                       fragment=frag)
                r3 = e3.request(Split(S3P, S2))
                frag, cascaded = collect(r1, r2, r3)
                pool = (r1.p_tree.actives - {v}) | set(cs)
                local = finalize(Fragment(frag), pool, tag)
                more = finalize(Fragment(frag), (r3.p_tree.actives - {v}) | {v}, tag)
                return Realization(parts=cascaded + local + more, p_tree=r1.q_tree,
                                   q_tree=r3.q_tree, fragment=frag)
            if y == 3:
                # only the weight-3 tail reaches here
                r1 = e1.request(Split(S3M, S0))
                frag0 = None
                if e3.label.subdividable:
                    r3 = e3.request(Subdivide(1))
                    frag, cascaded = collect(r1, r2, r3)
                    part = assert_part(Fragment(frag), (r1.p_tree.actives - {v}) | {cs[0]}, tag)
                    q = span_tree(v3, {v3, v, cs[1], *r3.subdiv}, frag)
                    return Realization(parts=cascaded + (part,), p_tree=r1.q_tree, q_tree=q,
                                       fragment=frag)
                r3 = e3.request(Split(S2P, S3))
                frag, cascaded = collect(r1, r2, r3)
                part = assert_part(Fragment(frag), (r1.p_tree.actives - {v}) | {cs[0]}, tag)
                more = finalize(Fragment(frag), (r3.p_tree.actives - {v}) | {v, cs[1]}, tag)
                return Realization(parts=cascaded + (part,) + more, p_tree=r1.q_tree,
                                   q_tree=r3.q_tree, fragment=frag)
            raise EngineBug(f"plain pair {pair} out of range for tail weight {i}", tag)
        if kind in ("plus_right", "plus_left") and {x, y} == {3} and i == 2:
            # large-pair request on the weight-2 replacement edge
            r1 = e1.request(Split(S3, S3P))
            if e3.label.subdividable:
                r3 = e3.request(Subdivide(1))
                frag, cascaded = collect(r1, r2, r3)
                fr = Fragment(frag)
                for cq in cs:
                    rest = (r1.p_tree.actives - {v}) | (set(cs) - {cq})
                    local = group(fr, rest)
                    if local is None:
                        continue
                    q = span_tree(v3, {v3, v, cq, *r3.subdiv}, frag)
                    return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=q,
                                       fragment=frag)
                raise EngineBug("no single-vertex graft keeps the pool partitionable", tag)
            r3 = e3.request(Split(S2P, S3))
            frag, cascaded = collect(r1, r2, r3)
            pool = ((r1.p_tree.actives | r3.p_tree.actives) - {v}) | set(cs) | {v}
            local = finalize(Fragment(frag), pool, tag)
            return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=r3.q_tree,
                               fragment=frag)
        raise EngineBug(f"pair {pair} is not liftable in the paired-tail configuration", tag)

    return Gadget(label, v1, v3, scope, lift, provenance=tag)


# ---------------------------------------------------------------------------
# General degree-3 elimination (combined weight 4 through 6)


def build_deg3_general(e1: EdgeView, e2: EdgeView, e3: EdgeView, v: int,
                       tag: str) -> Gadget:
    """Edges ordered by weight i >= j >= k; the replacement edge joins the two
    heaviest far ends and e3 always receives (S_k, S0)."""
    i, j, k = e1.label.weight, e2.label.weight, e3.label.weight
    v1, v2 = e1.head, e2.head
    w = i + j + k - 3
    label = CATALOG[f"L{w}0"]
    scope = e1.scope | e2.scope | e3.scope | {v}

    def lift(pair: Pair) -> Realization:
        r3 = e3.request(Split(PLAIN[k], S0))
        a3 = sorted(r3.p_tree.actives - {v})
        kind, x, y = pair_shape(pair)
        if kind == "plain":
            if x + y != w:
                raise EngineBug(f"plain pair {pair} inconsistent with weight {w}", tag)
            if x <= i and y <= j:
                if e1.admits(PLAIN[i - x], PLAIN[x]) is not None:
                    r1 = e1.request(Split(PLAIN[i - x], PLAIN[x]))
                    want = PLUS[j - y] if j - y >= 1 else S0
                    r2 = e2.request(Split(want, PLAIN[y]))
                elif e2.admits(PLAIN[j - y], PLAIN[y]) is not None:
                    r2 = e2.request(Split(PLAIN[j - y], PLAIN[y]))
                    want = PLUS[i - x] if i - x >= 1 else S0
                    r1 = e1.request(Split(want, PLAIN[x]))
                else:
                    raise EngineBug(
                        f"neither heavy edge admits the plain route for {pair}; the "
                        "paired-tail configuration should have matched first", tag)
                frag, cascaded = collect(r1, r2, r3)
                pool = ((r1.p_tree.actives | r2.p_tree.actives) - {v}) | set(a3) | {v}
                local = finalize(Fragment(frag), pool, tag)
                return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=r2.q_tree,
                                   fragment=frag)
            if y > j:
                return _plain_overweight_head(pair, x, y, r3, a3)
            return _plain_overweight_tail(pair, x, y, r3, a3)
        # plus pairs: combined weight exceeds the label by 4, k must be 1
        if k != 1 or x + y != i + j + k + 1:
            raise EngineBug(f"plus pair {pair} needs a unit third edge and full weight", tag)
        if kind == "plus_left":
            if (x, y) == (2, 3):
                return _plus_23(r3, a3)  # every tree it builds is plain, so it fits
            if (x, y) == (3, 2):
                return _plus_32_left(r3, a3)
            if (x, y) == (3, 3):
                if i == 3:
                    return _plus_33(r3, a3)  # the heavy-tail lift is plain on both sides
                inner_gadget = build_deg3_general(e2, e1, e3, v, tag + "~")
                return inner_gadget._split_lift((pair[1], pair[0])).flipped()
            raise EngineBug(f"plus pair {pair} is out of range", tag)
        if (x, y) == (2, 3):
            return _plus_23(r3, a3)
        if (x, y) == (3, 2):
            return _plus_32(r3, a3)
        if (x, y) == (3, 3):
            return _plus_33(r3, a3)
        raise EngineBug(f"plus pair {pair} is out of range", tag)

    def _plain_overweight_head(pair: Pair, x: int, y: int, r3, a3) -> Realization:
        # y exceeds w(e2): the head side is served by e2 whole (subdivided or
        # with its large complement), the tail pools with the third edge
        r1 = e1.request(Split(PLAIN[i], S0))
        frag1 = (r1.p_tree.actives - {v}) | set(a3)
        if e2.label.subdividable:
            r2 = e2.request(Subdivide(j))
            frag, cascaded = collect(r1, r2, r3)
            local = finalize(Fragment(frag), frag1, tag)
            q = span_tree(v2, {v2, v, *r2.subdiv}, frag)
            return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=q, fragment=frag)
        r2 = e2.request(Split(S3P, PLAIN[y]))
        frag, cascaded = collect(r1, r2, r3)
        local = finalize(Fragment(frag), frag1, tag)
        more = finalize(Fragment(frag), (r2.p_tree.actives - {v}) | {v}, tag)
        return Realization(parts=cascaded + local + more, p_tree=r1.q_tree, q_tree=r2.q_tree,
                           fragment=frag)

    def _plain_overweight_tail(pair: Pair, x: int, y: int, r3, a3) -> Realization:
        # x = 3 with all weights 2: both light edges close a part, the heavy
        # tail absorbs the triple request
        r2 = e2.request(Split(S2, S0))
        frag1 = (r2.p_tree.actives - {v}) | set(a3)
        if e1.label.subdividable:
            r1 = e1.request(Subdivide(2))
            frag, cascaded = collect(r1, r2, r3)
            local = finalize(Fragment(frag), frag1, tag)
            p = span_tree(v1, {v1, v, *r1.subdiv}, frag)
            return Realization(parts=cascaded + local, p_tree=p, q_tree=r2.q_tree, fragment=frag)
        r1 = e1.request(Split(S3P, S3))
        frag, cascaded = collect(r1, r2, r3)
        local = finalize(Fragment(frag), frag1, tag)
        more = finalize(Fragment(frag), (r1.p_tree.actives - {v}) | {v}, tag)
        return Realization(parts=cascaded + local + more, p_tree=r1.q_tree, q_tree=r2.q_tree,
                           fragment=frag)

    def _plus_23(r3, a3) -> Realization:
        r1 = e1.request(Split(S0, S2))
        if e2.label.subdividable:
            r2 = e2.request(Subdivide(1))
            frag, cascaded = collect(r1, r2, r3)
            q = span_tree(v2, {v2, v, a3[0], *r2.subdiv}, frag)
            return Realization(parts=cascaded, p_tree=r1.q_tree, q_tree=q, fragment=frag)
        r2 = e2.request(Split(S2P, S3))
        frag, cascaded = collect(r1, r2, r3)
        pool = (r2.p_tree.actives - {v}) | {v, a3[0]}
        local = finalize(Fragment(frag), pool, tag)
        return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=r2.q_tree,
                           fragment=frag)

    def _plus_32(r3, a3) -> Realization:
        if e1.admits(S3P, S3) is not None:
            r1 = e1.request(Split(S3P, S3))
            if e2.label.subdividable:
                r2 = e2.request(Subdivide(1))
                frag, cascaded = collect(r1, r2, r3)
                part = assert_part(Fragment(frag), (r1.p_tree.actives - {v}) | {v}, tag)
                q = span_tree(v2, {v2, v, a3[0], *r2.subdiv}, frag, dummies={v})
                return Realization(parts=cascaded + (part,), p_tree=r1.q_tree, q_tree=q,
                                   fragment=frag)
            r2 = e2.request(Split(S3, S2P))
            frag, cascaded = collect(r1, r2, r3)
            part1 = assert_part(Fragment(frag), (r2.p_tree.actives - {v}) | {a3[0]}, tag)
            part2 = assert_part(Fragment(frag), (r1.p_tree.actives - {v}) | {v}, tag)
            return Realization(parts=cascaded + (part1, part2), p_tree=r1.q_tree,
                               q_tree=r2.q_tree, fragment=frag)
        r1 = e1.request(Subdivide(2))
        if e2.label.subdividable:
            r2 = e2.request(Subdivide(1))
            frag, cascaded = collect(r1, r2, r3)
            p = span_tree(v1, {v1, v, *r1.subdiv}, frag)
            q = span_tree(v2, {v2, v, a3[0], *r2.subdiv}, frag, dummies={v})
            return Realization(parts=cascaded, p_tree=p, q_tree=q, fragment=frag)
        r2 = e2.request(Split(S3, S2P))
        frag, cascaded = collect(r1, r2, r3)
        part = assert_part(Fragment(frag), (r2.p_tree.actives - {v}) | {a3[0]}, tag)
        p = span_tree(v1, {v1, v, *r1.subdiv}, frag)
        return Realization(parts=cascaded + (part,), p_tree=p, q_tree=r2.q_tree, fragment=frag)

    def _plus_32_left(r3, a3) -> Realization:
        # large tail, plain head: the head side must stay dummy-free
        e1_spl = None if not e1.admits(S3, S3P) else e1.request(Split(S3, S3P))
        e2_spl = None if e2.label.subdividable else e2.request(Split(S3P, S2))
        if e1_spl is not None and e2_spl is not None:
            frag, cascaded = collect(e1_spl, e2_spl, r3)
            pool = ((e1_spl.p_tree.actives | e2_spl.p_tree.actives) - {v}) | {v, a3[0]}
            local = finalize(Fragment(frag), pool, tag)
            return Realization(parts=cascaded + local, p_tree=e1_spl.q_tree,
                               q_tree=e2_spl.q_tree, fragment=frag)
        if e1_spl is not None and e2_spl is None:
            s2 = e2.request(Subdivide(1))
            frag, cascaded = collect(e1_spl, s2, r3)
            local = finalize(Fragment(frag), (e1_spl.p_tree.actives - {v}) | {a3[0]}, tag)
            q = span_tree(e2.head, {e2.head, v, *s2.subdiv}, frag)
            return Realization(parts=cascaded + local, p_tree=e1_spl.q_tree, q_tree=q,
                               fragment=frag)
        if e1_spl is None and e2_spl is not None:
            s1 = e1.request(Subdivide(2))
            frag, cascaded = collect(s1, e2_spl, r3)
            local = finalize(Fragment(frag), (e2_spl.p_tree.actives - {v}) | {v}, tag)
            p = span_tree(v1, {v1, v, *s1.subdiv, a3[0]}, frag, dummies={v})
            return Realization(parts=cascaded + local, p_tree=p, q_tree=e2_spl.q_tree,
                               fragment=frag)
        s1 = e1.request(Subdivide(2))
        s2 = e2.request(Subdivide(1))
        frag, cascaded = collect(s1, s2, r3)
        p = span_tree(v1, {v1, v, *s1.subdiv, a3[0]}, frag, dummies={v})
        q = span_tree(e2.head, {e2.head, v, *s2.subdiv}, frag)
        return Realization(parts=cascaded, p_tree=p, q_tree=q, fragment=frag)

    def _plus_33(r3, a3) -> Realization:
        if i == 3:
            r1 = e1.request(Split(S0, S3))
            if e2.label.subdividable:
                r2 = e2.request(Subdivide(1))
                frag, cascaded = collect(r1, r2, r3)
                q = span_tree(v2, {v2, v, a3[0], *r2.subdiv}, frag)
                return Realization(parts=cascaded, p_tree=r1.q_tree, q_tree=q, fragment=frag)
            r2 = e2.request(Split(S2P, S3))
            frag, cascaded = collect(r1, r2, r3)
            pool = (r2.p_tree.actives - {v}) | {v, a3[0]}
            local = finalize(Fragment(frag), pool, tag)
            return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=r2.q_tree,
                               fragment=frag)
        # i == j == 2
        e1_split = e1.admits(S3P, S3) is not None
        e2_split = e2.admits(S3, S3P) is not None
        if e1_split and e2_split:
            r1 = e1.request(Split(S3P, S3))
            r2 = e2.request(Split(S3, S3P))
            frag, cascaded = collect(r1, r2, r3)
            pool = ((r1.p_tree.actives | r2.p_tree.actives) - {v}) | {v, a3[0]}
            local = finalize(Fragment(frag), pool, tag)
            return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=r2.q_tree,
                               fragment=frag)
        if not e1_split and e2_split:
            r1 = e1.request(Subdivide(2))
            r2 = e2.request(Split(S3, S3P))
            frag, cascaded = collect(r1, r2, r3)
            part = assert_part(Fragment(frag), (r2.p_tree.actives - {v}) | {a3[0]}, tag)
            p = span_tree(v1, {v1, v, *r1.subdiv}, frag)
            return Realization(parts=cascaded + (part,), p_tree=p, q_tree=r2.q_tree,
                               fragment=frag)
        if e1_split and not e2_split:
            r1 = e1.request(Split(S3P, S3))
            r2 = e2.request(Subdivide(2))
            frag, cascaded = collect(r1, r2, r3)
            part = assert_part(Fragment(frag), (r1.p_tree.actives - {v}) | {v}, tag)
            q = span_tree(v2, {v2, v, a3[0], *r2.subdiv}, frag, dummies={v})
            return Realization(parts=cascaded + (part,), p_tree=r1.q_tree, q_tree=q,
                               fragment=frag)
        r1 = e1.request(Subdivide(2))
        r2 = e2.request(Subdivide(2))
        frag, cascaded = collect(r1, r2, r3)
        p = span_tree(v1, {v1, v, *r1.subdiv}, frag)
        q = span_tree(v2, {v2, v, a3[0], *r2.subdiv}, frag, dummies={v})
        return Realization(parts=cascaded, p_tree=p, q_tree=q, fragment=frag)

    return Gadget(label, v1, v2, scope, lift, provenance=tag)


# ---------------------------------------------------------------------------
# Degree-3 elimination at combined weight 9 (two weight-3 edges, one weight-2)


def build_deg3_sum9_a(e1: EdgeView, e2: EdgeView, e3: EdgeView, v: int,
                      tag: str) -> Gadget:
    """e1 reverse-asymmetric weight 3, e2 plain weight 3, e3 subdividable
    weight 2.  Replacement edge joins e2's and e3's far ends; e1 is fixed."""
    v2, v3 = e2.head, e3.head
    label = CATALOG["L10"]
    scope = e1.scope | e2.scope | e3.scope | {v}

    def lift(pair: Pair) -> Realization:
        r1 = e1.request(Split(S3, S0))
        m = r1.p_tree.actives - {v}
        if pair == (S1, S0):
            r2 = e2.request(Split(S2, S1))
            r3 = e3.request(Split(S2, S0))
            frag, cascaded = collect(r1, r2, r3)
            part1 = finalize(Fragment(frag),
                             (r2.p_tree.actives | r3.p_tree.actives) - {v}, tag)
            part2 = finalize(Fragment(frag), m | {v}, tag)
            return Realization(parts=cascaded + part1 + part2, p_tree=r2.q_tree,
                               q_tree=r3.q_tree, fragment=frag)
        if pair == (S0, S1):
            r2 = e2.request(Split(S3, S0))
            r3 = e3.request(Split(S1, S1))
            frag, cascaded = collect(r1, r2, r3)
            pool = m | ((r2.p_tree.actives | r3.p_tree.actives) - {v}) | {v}
            local = finalize(Fragment(frag), pool, tag)
            return Realization(parts=cascaded + local, p_tree=r2.q_tree, q_tree=r3.q_tree,
                               fragment=frag)
        if pair in ((S2, S3P), (S2P, S3)):
            r2 = e2.request(Split(S1, S2))
            if e3.label.subdividable:
                r3 = e3.request(Subdivide(2))
                frag, cascaded = collect(r1, r2, r3)
                part1 = finalize(Fragment(frag), m | (r2.p_tree.actives - {v}), tag)
                q = span_tree(v3, {v3, v, *r3.subdiv}, frag)
                return Realization(parts=cascaded + part1, p_tree=r2.q_tree, q_tree=q,
                                   fragment=frag)
            r3 = e3.request(Split(S3P, S3))
            frag, cascaded = collect(r1, r2, r3)
            part1 = finalize(Fragment(frag), m | (r2.p_tree.actives - {v}), tag)
            part2 = finalize(Fragment(frag), (r3.p_tree.actives - {v}) | {v}, tag)
            return Realization(parts=cascaded + part1 + part2, p_tree=r2.q_tree,
                               q_tree=r3.q_tree, fragment=frag)
        if pair in ((S3, S2P), (S3P, S2)):
            r2 = e2.request(Split(S0, S3))
            r3 = e3.request(Split(S0, S2))
            frag, cascaded = collect(r1, r2, r3)
            local = finalize(Fragment(frag), m | {v}, tag)
            return Realization(parts=cascaded + local, p_tree=r2.q_tree, q_tree=r3.q_tree,
                               fragment=frag)
        raise EngineBug(f"pair {pair} not liftable at combined weight 9 (variant A)", tag)

    return Gadget(label, v2, v3, scope, lift, provenance=tag)


def build_deg3_sum9_b(e1: EdgeView, e2: EdgeView, e3: EdgeView, v: int,
                      tag: str) -> Gadget:
    """e1 reverse-asymmetric weight 3, e2 forward-asymmetric weight 3, e3
    subdividable weight 2.  Replacement edge joins e1's and e3's far ends;
    e2 is fixed with (S3-, S0)."""
    v1, v3 = e1.head, e3.head
    label = CATALOG["L10"]
    scope = e1.scope | e2.scope | e3.scope | {v}

    def lift(pair: Pair) -> Realization:
        r2 = e2.request(Split(S3M, S0))
        m = r2.p_tree.actives - {v}
        if pair == (S1, S0):
            r1 = e1.request(Split(S2P, S1))
            r3 = e3.request(Split(S2, S0))
            frag, cascaded = collect(r1, r2, r3)
            pool = m | ((r1.p_tree.actives | r3.p_tree.actives) - {v}) | {v}
            local = finalize(Fragment(frag), pool, tag)
            return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=r3.q_tree,
                               fragment=frag)
        if pair == (S0, S1):
            r1 = e1.request(Split(S3, S0))
            r3 = e3.request(Split(S1, S1))
            frag, cascaded = collect(r1, r2, r3)
            pool = m | ((r1.p_tree.actives | r3.p_tree.actives) - {v}) | {v}
            local = finalize(Fragment(frag), pool, tag)
            return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=r3.q_tree,
                               fragment=frag)
        if pair in ((S2, S3P), (S2P, S3)):
            r1 = e1.request(Split(S1, S2M))
            part1_pool = m | (r1.p_tree.actives - {v})
            if e3.label.subdividable:
                r3 = e3.request(Subdivide(2))
                frag, cascaded = collect(r1, r2, r3)
                part1 = finalize(Fragment(frag), part1_pool, tag)
                q = span_tree(v3, {v3, v, *r3.subdiv}, frag)
                return Realization(parts=cascaded + part1, p_tree=r1.q_tree, q_tree=q,
                                   fragment=frag)
            r3 = e3.request(Split(S3P, S3))
            frag, cascaded = collect(r1, r2, r3)
            part1 = finalize(Fragment(frag), part1_pool, tag)
            part2 = finalize(Fragment(frag), (r3.p_tree.actives - {v}) | {v}, tag)
            return Realization(parts=cascaded + part1 + part2, p_tree=r1.q_tree,
                               q_tree=r3.q_tree, fragment=frag)
        if pair in ((S3, S2P), (S3P, S2)):
            r1 = e1.request(Split(S0, S3M))
            r3 = e3.request(Split(S0, S2))
            frag, cascaded = collect(r1, r2, r3)
            local = finalize(Fragment(frag), m | {v}, tag)
            return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=r3.q_tree,
                               fragment=frag)
        raise EngineBug(f"pair {pair} not liftable at combined weight 9 (variant B)", tag)

    return Gadget(label, v1, v3, scope, lift, provenance=tag)


def build_deg3_sum9_c(e1: EdgeView, e2: EdgeView, e3: EdgeView, v: int,
                      tag: str) -> Gadget:
    """Remaining combined-weight-9 configurations: the replacement edge joins
    the far ends of the two weight-3 edges and e3 is fixed with (S2, S0)."""
    v1, v2 = e1.head, e2.head
    label = CATALOG["L10"]
    scope = e1.scope | e2.scope | e3.scope | {v}

    def lift(pair: Pair) -> Realization:
        r3 = e3.request(Split(S2, S0))
        cs = sorted(r3.p_tree.actives - {v})
        if pair == (S1, S0):
            if e1.admits(S2, S1) is not None:
                r1 = e1.request(Split(S2, S1))
                r2 = e2.request(Split(S3, S0))
                frag, cascaded = collect(r1, r2, r3)
                part1 = finalize(Fragment(frag), (r1.p_tree.actives - {v}) | set(cs), tag)
                part2 = finalize(Fragment(frag), (r2.p_tree.actives - {v}) | {v}, tag)
                return Realization(parts=cascaded + part1 + part2, p_tree=r1.q_tree,
                                   q_tree=r2.q_tree, fragment=frag)
            # the first heavy edge reads as the reverse asymmetric label
            r1 = e1.request(Split(S2P, S1))
            r2 = e2.request(Split(S3, S0))
            frag, cascaded = collect(r1, r2, r3)
            part1 = assert_part(Fragment(frag), (r2.p_tree.actives - {v}) | {cs[0]}, tag)
            part2 = finalize(Fragment(frag),
                             (r1.p_tree.actives - {v}) | {v, cs[1]}, tag)
            return Realization(parts=cascaded + (part1,) + part2, p_tree=r1.q_tree,
                               q_tree=r2.q_tree, fragment=frag)
        if pair == (S0, S1):
            r1 = e1.request(Split(S3, S0))
            r2 = e2.request(Split(S2, S1))
            frag, cascaded = collect(r1, r2, r3)
            part1 = finalize(Fragment(frag), (r2.p_tree.actives - {v}) | set(cs), tag)
            part2 = finalize(Fragment(frag), (r1.p_tree.actives - {v}) | {v}, tag)
            return Realization(parts=cascaded + part1 + part2, p_tree=r1.q_tree,
                               q_tree=r2.q_tree, fragment=frag)
        if pair in ((S2, S3P), (S2P, S3)):
            r1 = e1.request(Split(S1P, S2))
            r2 = e2.request(Split(S0, S3))
            frag, cascaded = collect(r1, r2, r3)
            pool = (r1.p_tree.actives - {v}) | set(cs) | {v}
            local = finalize(Fragment(frag), pool, tag)
            return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=r2.q_tree,
                               fragment=frag)
        if pair in ((S3, S2P), (S3P, S2)):
            r1 = e1.request(Split(S0, S3))
            r2 = e2.request(Split(S1P, S2))
            frag, cascaded = collect(r1, r2, r3)
            pool = (r2.p_tree.actives - {v}) | set(cs) | {v}
            local = finalize(Fragment(frag), pool, tag)
            return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=r2.q_tree,
                               fragment=frag)
        raise EngineBug(f"pair {pair} not liftable at combined weight 9 (variant C)", tag)

    return Gadget(label, v1, v2, scope, lift, provenance=tag)


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


def build_deg4plus_heavy(e3: EdgeView, e4: EdgeView, v: int, tag: str,
                         fixed: EdgeView | None = None) -> Gadget:
    """Two plain weight-3 edges are replaced by one weight-2 edge between
    their far ends.

    At degree >= 4 with no weight-1 edges, v stays put.  At degree 3 with
    combined weight 10, `fixed` is the third weight-3 edge: it receives
    (S3, S0) before the pair is split, and v leaves with the finalized parts.
    """
    label = CATALOG["L20"]
    leaving = frozenset() if fixed is None else frozenset({v})
    scope = e3.scope | e4.scope | leaving | (frozenset() if fixed is None else fixed.scope)

    def lift(pair: Pair) -> Realization:
        row = _W3_PAIR_ROWS.get(pair)
        if row is None:
            raise EngineBug(f"pair {pair} missing from the weight-3 pair table", tag)
        reals = [] if fixed is None else [fixed.request(Split(S3, S0))]
        ra = e3.request(Split(*row[0]))
        rb = e4.request(Split(*row[1]))
        reals += [ra, rb]
        frag, cascaded = collect(*reals)
        pool = (set().union(*(r.p_tree.actives for r in reals)) - {v}) | leaving
        local = finalize(Fragment(frag, extra_vertices=[v]), pool, tag) if pool else ()
        return Realization(parts=cascaded + local, p_tree=ra.q_tree, q_tree=rb.q_tree,
                           fragment=frag)

    return Gadget(label, e3.head, e4.head, scope, lift, provenance=tag)


# ---------------------------------------------------------------------------
# Degree 4 or 5 with no weight-3 edges: replacement edge over e1, e2 plus
# unit pre-splits on the remaining edges


def build_deg4plus_light(e1: EdgeView, e2: EdgeView, singles: list[EdgeView], v: int,
                         tag: str) -> Gadget:
    """Light elimination: every edge in `singles` is fixed with (S1, S0).

    With w(e1)=2 (degree 4) or five unit edges (degree 5) the replacement
    edge carries the augmented weight-2 label; with four unit edges it
    carries the augmented weight-1 label.
    """
    v1, v2 = e1.head, e2.head
    d = 2 + len(singles)
    w1 = e1.label.weight
    label = CATALOG["L20"] if w1 == 2 or d == 5 else CATALOG["L10"]
    scope = e1.scope | e2.scope | frozenset().union(*(s.scope for s in singles)) | {v}

    def fixed_singles():
        rs = [s.request(Split(S1, S0)) for s in singles]
        avs = sorted(set().union(*(r.p_tree.actives for r in rs)) - {v})
        return rs, avs

    def lift(pair: Pair) -> Realization:
        if label.name == "L20":
            return _lift_w2(pair)
        return _lift_w1(pair)

    # -- replacement weight 2 (degree 5 all-unit, or degree 4 with one weight-2)

    def _lift_w2(pair: Pair) -> Realization:
        rs, avs = fixed_singles()
        d5 = len(singles) == 3
        if pair == (S2, S0):
            if not d5:
                r1 = e1.request(Split(S0, S2))
                r2 = e2.request(Split(S1, S0))
                frag, cascaded = collect(r1, r2, *rs)
                pool = (r2.p_tree.actives - {v}) | set(avs) | {v}
                local = finalize(Fragment(frag), pool, tag)
                return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=r2.q_tree,
                                   fragment=frag)
            r2 = e2.request(Split(S1, S0))
            if e1.label.subdividable:
                r1 = e1.request(Subdivide(1))
                frag, cascaded = collect(r1, r2, *rs)
                local = finalize(Fragment(frag), (r2.p_tree.actives - {v}) | set(avs), tag)
                p = span_tree(v1, {v1, v, *r1.subdiv}, frag)
                return Realization(parts=cascaded + local, p_tree=p, q_tree=r2.q_tree,
                                   fragment=frag)
            r1 = e1.request(Split(S3P, S2))
            frag, cascaded = collect(r1, r2, *rs)
            part1 = finalize(Fragment(frag), (r2.p_tree.actives - {v}) | set(avs), tag)
            part2 = finalize(Fragment(frag), (r1.p_tree.actives - {v}) | {v}, tag)
            return Realization(parts=cascaded + part1 + part2, p_tree=r1.q_tree,
                               q_tree=r2.q_tree, fragment=frag)
        if pair == (S0, S2):
            r1 = e1.request(Split(PLAIN[w1], S0))
            if e2.label.subdividable:
                r2 = e2.request(Subdivide(1))
                frag, cascaded = collect(r1, r2, *rs)
                local = finalize(Fragment(frag), (r1.p_tree.actives - {v}) | set(avs), tag)
                q = span_tree(v2, {v2, v, *r2.subdiv}, frag)
                return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=q,
                                   fragment=frag)
            r2 = e2.request(Split(S3P, S2))
            frag, cascaded = collect(r1, r2, *rs)
            part1 = finalize(Fragment(frag), (r1.p_tree.actives - {v}) | set(avs), tag)
            part2 = finalize(Fragment(frag), (r2.p_tree.actives - {v}) | {v}, tag)
            return Realization(parts=cascaded + part1 + part2, p_tree=r1.q_tree,
                               q_tree=r2.q_tree, fragment=frag)
        if pair == (S1, S1):
            if d5:
                r1 = e1.request(Split(S0, S1))
                r2 = e2.request(Split(S0, S1))
                frag, cascaded = collect(r1, r2, *rs)
                local = finalize(Fragment(frag), set(avs) | {v}, tag)
                return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=r2.q_tree,
                                   fragment=frag)
            r1 = e1.request(Split(S1P, S1))
            r2 = e2.request(Split(S0, S1))
            frag, cascaded = collect(r1, r2, *rs)
            pool = (r1.p_tree.actives - {v}) | set(avs) | {v}
            local = finalize(Fragment(frag), pool, tag)
            return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=r2.q_tree,
                               fragment=frag)
        if pair == (S3, S3P):
            return _w2_large(False, rs, avs, d5)
        if pair == (S3P, S3):
            if d5:
                return _swap_mirror(pair, singles)
            return _w2_large(True, rs, avs, d5)
        raise EngineBug(f"pair {pair} not liftable in the light elimination", tag)

    def _w2_large(head_plain: bool, rs, avs, d5: bool) -> Realization:
        # (S3, S3+) with head_plain=False; (S3+, S3) with head_plain=True
        e1_sub = e1.label.subdividable
        e2_sub = e2.label.subdividable
        k1 = 1 if d5 else 2
        if not head_plain:
            r1 = None if e1_sub else e1.request(Split(S2P, S3) if d5 else Split(S3P, S3))
            r2 = None if e2_sub else e2.request(Split(S2, S3P))
            if r1 is not None and r2 is not None:
                frag, cascaded = collect(r1, r2, *rs)
                pool = ((r1.p_tree.actives | r2.p_tree.actives) - {v}) | set(avs) | {v}
                local = finalize(Fragment(frag), pool, tag)
                return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=r2.q_tree,
                                   fragment=frag)
            if r1 is None and r2 is not None:
                s1 = e1.request(Subdivide(k1))
                frag, cascaded = collect(s1, r2, *rs)
                grabs = [avs[0]] if d5 else []
                p = span_tree(v1, {v1, v, *s1.subdiv} | set(grabs), frag)
                pool = (r2.p_tree.actives - {v}) | (set(avs) - set(grabs))
                local = finalize(Fragment(frag), pool, tag)
                return Realization(parts=cascaded + local, p_tree=p, q_tree=r2.q_tree,
                                   fragment=frag)
            if r1 is not None and r2 is None:
                s2 = e2.request(Subdivide(1))
                frag, cascaded = collect(r1, s2, *rs)
                grabs = avs[:2]
                q = span_tree(v2, {v2, v, *s2.subdiv} | set(grabs), frag, dummies={v})
                pool = (r1.p_tree.actives - {v}) | (set(avs) - set(grabs)) | {v}
                local = finalize(Fragment(frag), pool, tag)
                return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=q,
                                   fragment=frag)
            s1 = e1.request(Subdivide(k1))
            s2 = e2.request(Subdivide(1))
            frag, cascaded = collect(s1, s2, *rs)
            grabs = avs[:2]
            rest = [a for a in avs if a not in grabs]
            p = span_tree(v1, {v1, v, *s1.subdiv} | set(rest), frag)
            q = span_tree(v2, {v2, v, *s2.subdiv} | set(grabs), frag, dummies={v})
            return Realization(parts=cascaded, p_tree=p, q_tree=q, fragment=frag)
        # (S3+, S3) at degree 4 with w(e1) = 2
        r1 = None if e1_sub else e1.request(Split(S3, S3P))
        r2 = None if e2_sub else e2.request(Split(S2P, S3))
        if r1 is not None and r2 is not None:
            frag, cascaded = collect(r1, r2, *rs)
            pool = ((r1.p_tree.actives | r2.p_tree.actives) - {v}) | set(avs) | {v}
            local = finalize(Fragment(frag), pool, tag)
            return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=r2.q_tree,
                               fragment=frag)
        if r1 is not None and r2 is None:
            s2 = e2.request(Subdivide(1))
            frag, cascaded = collect(r1, s2, *rs)
            q = span_tree(v2, {v2, v, *s2.subdiv, avs[0]}, frag)
            pool = (r1.p_tree.actives - {v}) | set(avs[1:])
            local = finalize(Fragment(frag), pool, tag)
            return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=q,
                               fragment=frag)
        if r1 is None and r2 is not None:
            s1 = e1.request(Subdivide(2))
            frag, cascaded = collect(s1, r2, *rs)
            p = span_tree(v1, {v1, v, *s1.subdiv, avs[0]}, frag, dummies={v})
            pool = (r2.p_tree.actives - {v}) | set(avs[1:]) | {v}
            local = finalize(Fragment(frag), pool, tag)
            return Realization(parts=cascaded + local, p_tree=p, q_tree=r2.q_tree,
                               fragment=frag)
        s1 = e1.request(Subdivide(2))
        s2 = e2.request(Subdivide(1))
        frag, cascaded = collect(s1, s2, *rs)
        q = span_tree(v2, {v2, v, *s2.subdiv, avs[0]}, frag)
        p = span_tree(v1, {v1, v, *s1.subdiv, avs[1]}, frag, dummies={v})
        return Realization(parts=cascaded, p_tree=p, q_tree=q, fragment=frag)

    # -- replacement weight 1 (degree 4, all edges unit weight)

    def _lift_w1(pair: Pair) -> Realization:
        rs, avs = fixed_singles()
        if pair == (S0, S1):
            r1 = e1.request(Split(S1, S0))
            r2 = e2.request(Split(S0, S1))
            frag, cascaded = collect(r1, r2, *rs)
            pool = (r1.p_tree.actives - {v}) | set(avs) | {v}
            local = finalize(Fragment(frag), pool, tag)
            return Realization(parts=cascaded + local, p_tree=r1.q_tree, q_tree=r2.q_tree,
                               fragment=frag)
        if pair == (S1, S0):
            return _swap_mirror(pair, singles)
        if pair == (S2, S3P):
            e1_spl = None if e1.label.subdividable else e1.request(Split(S3P, S2))
            e2_spl = None if e2.label.subdividable else e2.request(Split(S2, S3P))
            if e1_spl is not None and e2_spl is not None:
                frag, cascaded = collect(e1_spl, e2_spl, *rs)
                pool = ((e1_spl.p_tree.actives | e2_spl.p_tree.actives) - {v}) | set(avs) | {v}
                local = finalize(Fragment(frag), pool, tag)
                return Realization(parts=cascaded + local, p_tree=e1_spl.q_tree,
                                   q_tree=e2_spl.q_tree, fragment=frag)
            if e1_spl is not None and e2_spl is None:
                s2 = e2.request(Subdivide(1))
                frag, cascaded = collect(e1_spl, s2, *rs)
                q = span_tree(v2, {v2, v, *s2.subdiv} | set(avs), frag, dummies={v})
                pool = (e1_spl.p_tree.actives - {v}) | {v}
                local = finalize(Fragment(frag), pool, tag)
                return Realization(parts=cascaded + local, p_tree=e1_spl.q_tree, q_tree=q,
                                   fragment=frag)
            if e1_spl is None and e2_spl is not None:
                s1 = e1.request(Subdivide(1))
                frag, cascaded = collect(s1, e2_spl, *rs)
                p = span_tree(v1, {v1, v, *s1.subdiv}, frag)
                pool = (e2_spl.p_tree.actives - {v}) | set(avs)
                local = finalize(Fragment(frag), pool, tag)
                return Realization(parts=cascaded + local, p_tree=p, q_tree=e2_spl.q_tree,
                                   fragment=frag)
            s1 = e1.request(Subdivide(1))
            s2 = e2.request(Subdivide(1))
            frag, cascaded = collect(s1, s2, *rs)
            p = span_tree(v1, {v1, v, *s1.subdiv}, frag)
            q = span_tree(v2, {v2, v, *s2.subdiv} | set(avs), frag, dummies={v})
            return Realization(parts=cascaded, p_tree=p, q_tree=q, fragment=frag)
        if pair == (S2P, S3):
            return _swap_mirror(pair, singles)
        if pair == (S3, S2P):
            e1_spl = None if e1.label.subdividable else e1.request(Split(S2P, S3))
            e2_spl = None if e2.label.subdividable else e2.request(Split(S3P, S2))
            if e1_spl is not None and e2_spl is not None:
                frag, cascaded = collect(e1_spl, e2_spl, *rs)
                pool = ((e1_spl.p_tree.actives | e2_spl.p_tree.actives) - {v}) | set(avs) | {v}
                local = finalize(Fragment(frag), pool, tag)
                return Realization(parts=cascaded + local, p_tree=e1_spl.q_tree,
                                   q_tree=e2_spl.q_tree, fragment=frag)
            if e1_spl is not None and e2_spl is None:
                s2 = e2.request(Subdivide(1))
                frag, cascaded = collect(e1_spl, s2, *rs)
                q = span_tree(v2, {v2, v, *s2.subdiv, avs[1]}, frag, dummies={v})
                pool = (e1_spl.p_tree.actives - {v}) | {avs[0], v}
                local = finalize(Fragment(frag), pool, tag)
                return Realization(parts=cascaded + local, p_tree=e1_spl.q_tree, q_tree=q,
                                   fragment=frag)
            if e1_spl is None and e2_spl is not None:
                s1 = e1.request(Subdivide(1))
                frag, cascaded = collect(s1, e2_spl, *rs)
                fr = Fragment(frag)
                grafts = sorted(set(avs) | (e2_spl.p_tree.actives - {v}))
                for m in grafts:
                    if fr.witness_for(frozenset({v, m})) != frozenset({v, m}):
                        continue
                    pool = ((e2_spl.p_tree.actives - {v}) | set(avs)) - {m}
                    local = group(fr, pool)
                    if local is None:
                        continue
                    p = span_tree(v1, {v1, v, *s1.subdiv, m}, frag)
                    return Realization(parts=cascaded + local, p_tree=p,
                                       q_tree=e2_spl.q_tree, fragment=frag)
                raise EngineBug("no graft choice closes the light (S3,S2+) lift", tag)
            s1 = e1.request(Subdivide(1))
            s2 = e2.request(Subdivide(1))
            frag, cascaded = collect(s1, s2, *rs)
            p = span_tree(v1, {v1, v, *s1.subdiv, avs[0]}, frag)
            q = span_tree(v2, {v2, v, *s2.subdiv, avs[1]}, frag, dummies={v})
            return Realization(parts=cascaded, p_tree=p, q_tree=q, fragment=frag)
        if pair == (S3P, S2):
            return _swap_mirror(pair, singles)
        raise EngineBug(f"pair {pair} not liftable in the unit-weight elimination", tag)

    def _swap_mirror(pair: Pair, sgl: list[EdgeView]) -> Realization:
        gadget = build_deg4plus_light(e2, e1, sgl, v, tag + "~")
        return gadget._split_lift((pair[1], pair[0])).flipped()

    return Gadget(label, v1, v2, scope, lift, provenance=tag)
