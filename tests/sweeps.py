"""The label-combination sweeps of the case lifts, and the digest of what
they realize.

Each sweep yields ``(labels, gadget)`` for every label combination a rewrite
can face, with synthetic stub children (see ``tests/support.py``) standing in
for real recursion; ``flat_eliminations`` yields the parts of each flat
degree-3 elimination instead.  ``tests/test_case_coverage.py`` checks every
gadget against the conservation ledger, and :func:`stub_realization_lines`
hashes everything the sweeps realize, plus ``partition_tree`` on seeded
random trees, into the lines of ``tests/data/golden_stub_realizations.jsonl``.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import product

from quadparts.engine.model import EdgeView, drive
from quadparts.engine.parallel import build_parallel_gadget
from quadparts.engine.reducible import (
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
from quadparts.engine.series import build_series_gadget
from quadparts.labels import CATALOG, LABELS, TreeSet
from quadparts.treepart import partition_tree

from .support import all_ops, fragment_edges, random_tree, realize, reset_fresh, stub_edge

S0, S1, S2, S3 = TreeSet.S0, TreeSet.S1, TreeSet.S2, TreeSet.S3

W1 = [CATALOG["L1"], CATALOG["L10"]]
W2 = [CATALOG["L2"], CATALOG["L20"], CATALOG["L21"]]
W3 = [CATALOG["L30"], CATALOG["L31"], CATALOG["L32"]]


def series():
    v1, v, v2 = 1, 0, 2
    for l1 in LABELS:
        for l2 in LABELS:
            if l1.weight > l2.weight:
                continue
            e1 = EdgeView(stub_edge(l1, v1, v), v1, 0)
            e2 = EdgeView(stub_edge(l2, v, v2), v, 1)
            yield (l1, l2), build_series_gadget(e1, e2, f"cover[{l1.name}+{l2.name}]")


def parallel():
    u, v = 0, 1
    for l1 in LABELS:
        for l2 in LABELS:
            if not (1 <= l1.weight <= l2.weight):
                continue
            if l1.name == "L30" and l2.name != "L30":
                continue  # the driver orders this pair the other way
            e1 = EdgeView(stub_edge(l1, u, v), u, 0)
            e2 = EdgeView(stub_edge(l2, u, v), u, 1)
            yield (l1, l2), build_parallel_gadget(e1, e2, f"cover[{l1.name}+{l2.name}]")


def absorb():
    v, v1, v2 = 0, 1, 2
    for sibling in ("L30", "L32"):
        e1 = EdgeView(stub_edge(CATALOG["L32"], v, v1), v, 0)
        e2 = EdgeView(stub_edge(CATALOG[sibling], v, v2), v, 1)
        yield (CATALOG[sibling],), build_edge_absorb(e1, e2, f"cover[{sibling}]")


def _deg3_views(la, lb, lc):
    v = 0
    ea = EdgeView(stub_edge(la, v, 1), v, 0)
    eb = EdgeView(stub_edge(lb, v, 2), v, 1)
    ec = EdgeView(stub_edge(lc, v, 3), v, 2)
    return ea, eb, ec


def _eliminated(ops) -> list:
    """Every part a flat elimination at the views' tail finalizes: its
    children's, from the sink, then its own."""
    sink: list = []
    loc, _ = drive(eliminate_with_fixed_splits(ops, ops[0][0].tail, True, "cover"), sink)
    sink.extend(loc.parts)
    return sink


def flat_eliminations():
    a, b, c = _deg3_views(CATALOG["L1"], CATALOG["L10"], CATALOG["L1"])
    yield _eliminated([(a, (S1, S0)), (b, (S1, S0)), (c, (S1, S0))])
    for heavy, mids in ((CATALOG["L30"], (CATALOG["L2"], CATALOG["L21"])),
                        (CATALOG["L31"], (CATALOG["L20"], CATALOG["L2"])),
                        (CATALOG["L32"], (CATALOG["L21"], CATALOG["L20"]))):
        a, b, c = _deg3_views(heavy, mids[0], mids[1])
        yield _eliminated([(a, (S3, S0)), (b, (S2, S0)), (c, (S2, S0))])


def paired_tail():
    for la in (CATALOG["L21"], CATALOG["L32"]):
        for lc in W1:
            a, b, c = _deg3_views(la, CATALOG["L21"], lc)
            yield (la, lc), build_deg3_pair_config(a, b, c, "cover")


def general_mid_weight():
    for la in W2 + W3:
        for lb in W1 + W2:
            for lc in W1 + W2:
                i, j, k = la.weight, lb.weight, lc.weight
                if not (i >= j >= k) or not (5 <= i + j + k + 1 <= 7):
                    continue
                if la.name == "L31" and lb.name == "L31":
                    continue  # two outward asymmetric edges never reduce
                if k == 1 and lb.name == "L21" and la.name in ("L21", "L32"):
                    continue  # routed to the paired-tail configuration
                a, b, c = _deg3_views(la, lb, lc)
                yield (la, lb, lc), build_deg3_general(a, b, c, "cover")


def weight9():
    for la in W3:
        for lb in W3:
            if la.name == "L31" and lb.name == "L31":
                continue
            if lb.name == "L31":
                continue  # driver reorders the asymmetric edge first
            for lc in W2:
                if la.name == "L31" and lb.name == "L30" and lc.name in ("L2", "L20"):
                    build = build_deg3_sum9_a
                elif la.name == "L31" and lb.name == "L32" and lc.name in ("L2", "L20"):
                    build = build_deg3_sum9_b
                else:
                    build = build_deg3_sum9_c
                a, b, c = _deg3_views(la, lb, lc)
                yield (la, lb, lc), build(a, b, c, f"cover[{la.name}/{lb.name}/{lc.name}]")


def weight10():
    for la in ("L30", "L31"):
        a, b, c = _deg3_views(CATALOG[la], CATALOG["L30"], CATALOG["L30"])
        yield (CATALOG[la],), build_deg4plus_heavy(b, c, f"cover[{la}]", fixed=a)


def heavy_pair():
    v = 0
    e3 = EdgeView(stub_edge(CATALOG["L30"], v, 1), v, 0)
    e4 = EdgeView(stub_edge(CATALOG["L30"], v, 2), v, 1)
    yield (), build_deg4plus_heavy(e3, e4, "cover")


def _light(firsts, seconds, singles):
    """Light degree-4+ lifts: e1 from `firsts`, e2 from `seconds`, then
    `singles` single edges, each from W1."""
    v = 0
    for l1 in firsts:
        for l2 in seconds:
            for single_labels in product(W1, repeat=singles):
                e1 = EdgeView(stub_edge(l1, v, 1), v, 0)
                e2 = EdgeView(stub_edge(l2, v, 2), v, 1)
                views = [EdgeView(stub_edge(ls, v, 3 + idx), v, 2 + idx)
                         for idx, ls in enumerate(single_labels)]
                yield (l1, l2, *single_labels), build_deg4plus_light(e1, e2, views, "cover")


def degree4_with_weight2():
    return _light(W2, W1, 2)


def degree5_all_unit():
    return _light(W1, W1, 3)


def degree4_all_unit():
    return _light(W1, W1, 2)


GADGET_SWEEPS = {
    "series": series,
    "parallel": parallel,
    "absorb": absorb,
    "paired_tail": paired_tail,
    "general_mid_weight": general_mid_weight,
    "weight9": weight9,
    "weight10": weight10,
    "heavy_pair": heavy_pair,
    "degree4_with_weight2": degree4_with_weight2,
    "degree5_all_unit": degree5_all_unit,
    "degree4_all_unit": degree4_all_unit,
}


# ---------------------------------------------------------------------------
# The digest of the golden stub-realization fixture


def _tree(t):
    return None if t is None else [t.root, [list(e) for e in t.edges], sorted(t.dummies)]


def _parts(parts):
    return sorted(sorted(p) for p in parts)


def _line(sweep: str, records: list) -> str:
    digest = hashlib.sha256("\n".join(json.dumps(r) for r in records).encode()).hexdigest()
    return json.dumps({"sweep": sweep, "count": len(records), "sha256": digest}, sort_keys=True)


def _tree_partitions() -> list:
    """partition_tree on 300 seeded random trees, each cut into random sizes."""
    rng = random.Random(7)
    records = []
    for trial in range(300):
        n = rng.randint(1, 40)
        sizes, left = [], n
        while left:
            sizes.append(rng.randint(1, min(left, 7)))
            left -= sizes[-1]
        parts = partition_tree(random_tree(n, trial), sizes)
        records.append([sizes, [[sorted(p.members), sorted(p.witness)] for p in parts]])
    return records


def stub_realization_lines() -> list[str]:
    """One line per gadget sweep with the sorted parts, both bound trees,
    the subdivision path and the fragment of every realization; one line
    for the flat eliminations and one for partition_tree.  Stub ids restart
    at every sweep, so each line is independent of what ran before."""
    lines = []
    for name, sweep in GADGET_SWEEPS.items():
        reset_fresh()
        records = []
        for _, gadget in sweep():
            for op in all_ops(gadget.label):
                real = realize(gadget, op)
                records.append([_parts(real.parts), _tree(real.p_tree), _tree(real.q_tree),
                                None if real.subdiv is None else list(real.subdiv),
                                sorted(fragment_edges(real))])
        lines.append(_line(name, records))
    reset_fresh()
    lines.append(_line("flat_eliminations", [_parts(parts) for parts in flat_eliminations()]))
    lines.append(_line("partition_tree", _tree_partitions()))
    return lines
