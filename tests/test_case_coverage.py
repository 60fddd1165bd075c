"""Mechanical guard-coverage checks for the rewrite case tables.

For every label combination a rewrite can face and every operation the
replacement label allows, the lift must select a branch and assemble a
realization without hitting a guard trap, and the conservation ledger of the
gadget it builds must balance.  Synthetic child gadgets with canonical tree
shapes and balanced ledgers stand in for real recursion, which lets the full
combination space be swept even though most combinations need a contrived
graph to arise naturally.
"""

import pytest

from quadparts.engine.model import EdgeView, EngineBug
from quadparts.engine.parallel import build_parallel_gadget
from quadparts.engine.reducible import (
    build_deg3_general,
    build_deg3_pair_config,
    build_deg3_sum9_a,
    build_deg3_sum9_b,
    build_deg3_sum9_c,
    build_deg3_sum10,
    build_deg4plus_heavy,
    build_deg4plus_light,
    build_edge_absorb,
    eliminate_with_fixed_splits,
)
from quadparts.engine.series import build_series_gadget
from quadparts.labels import CATALOG, LABELS, TreeSet

from .support import all_ops, stub_edge

S0, S1, S2, S3 = TreeSet.S0, TreeSet.S1, TreeSet.S2, TreeSet.S3

W1 = [CATALOG["L1"], CATALOG["L10"]]
W2 = [CATALOG["L2"], CATALOG["L20"], CATALOG["L21"]]
W3 = [CATALOG["L30"], CATALOG["L31"], CATALOG["L32"]]


def run_all_ops(label, gadget):
    for op in all_ops(label):
        real = gadget.realize(op)
        for part in real.parts:
            assert len(part) == 4


class TestSeriesCoverage:
    def test_every_label_pair_and_operation(self):
        v1, v, v2 = 1, 0, 2
        for l1 in LABELS:
            for l2 in LABELS:
                if l1.weight > l2.weight:
                    continue
                e1 = EdgeView(stub_edge(l1, v1, v, eid=0), v1)
                e2 = EdgeView(stub_edge(l2, v, v2, eid=1), v)
                label, gadget = build_series_gadget(e1, e2, v, v1, v2,
                                                    f"cover[{l1.name}+{l2.name}]")
                assert label.weight == (l1.weight + l2.weight + 1) % 4
                run_all_ops(label, gadget)


class TestParallelCoverage:
    def test_every_label_pair_and_operation(self):
        u, v = 0, 1
        for l1 in LABELS:
            for l2 in LABELS:
                if not (1 <= l1.weight <= l2.weight):
                    continue
                if l1.name == "L30" and l2.name != "L30":
                    continue  # the driver orders this pair the other way
                e1 = EdgeView(stub_edge(l1, u, v, eid=0), u)
                e2 = EdgeView(stub_edge(l2, u, v, eid=1), u)
                label, gadget = build_parallel_gadget(e1, e2, u, v,
                                                      f"cover[{l1.name}+{l2.name}]")
                assert label.weight == (l1.weight + l2.weight) % 4
                run_all_ops(label, gadget)


class TestAbsorbCoverage:
    def test_both_sibling_labels(self):
        v, v1, v2 = 0, 1, 2
        for sibling in ("L30", "L32"):
            e1 = EdgeView(stub_edge(CATALOG["L32"], v, v1, eid=0), v)
            e2 = EdgeView(stub_edge(CATALOG[sibling], v, v2, eid=1), v)
            label, gadget = build_edge_absorb(e1, e2, v, v2, f"cover[{sibling}]")
            run_all_ops(label, gadget)


def _deg3_views(la, lb, lc):
    v = 0
    ea = EdgeView(stub_edge(la, v, 1, eid=0), v)
    eb = EdgeView(stub_edge(lb, v, 2, eid=1), v)
    ec = EdgeView(stub_edge(lc, v, 3, eid=2), v)
    return v, ea, eb, ec


class TestDegree3Coverage:
    def test_flat_eliminations(self):
        v, a, b, c = _deg3_views(CATALOG["L1"], CATALOG["L10"], CATALOG["L1"])
        parts = eliminate_with_fixed_splits(
            [(a, (S1, S0)), (b, (S1, S0)), (c, (S1, S0))], v, True, "cover")
        assert all(len(p) == 4 for p in parts)
        for heavy, mids in ((CATALOG["L30"], (CATALOG["L2"], CATALOG["L21"])),
                            (CATALOG["L31"], (CATALOG["L20"], CATALOG["L2"])),
                            (CATALOG["L32"], (CATALOG["L21"], CATALOG["L20"]))):
            v, a, b, c = _deg3_views(heavy, mids[0], mids[1])
            parts = eliminate_with_fixed_splits(
                [(a, (S3, S0)), (b, (S2, S0)), (c, (S2, S0))], v, True, "cover")
            assert all(len(p) == 4 for p in parts)

    def test_paired_tail_configurations(self):
        for la in (CATALOG["L21"], CATALOG["L32"]):
            for lc in W1:
                v, a, b, c = _deg3_views(la, CATALOG["L21"], lc)
                label, gadget, ends = build_deg3_pair_config(a, b, c, v, "cover")
                assert label.name == f"L{la.weight}0"
                run_all_ops(label, gadget)

    def test_general_mid_weight_configurations(self):
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
                    v, a, b, c = _deg3_views(la, lb, lc)
                    label, gadget, ends = build_deg3_general(a, b, c, v, "cover")
                    assert label.weight == (i + j + k + 1) % 4
                    run_all_ops(label, gadget)

    def test_weight9_configurations(self):
        builders = []
        for la in W3:
            for lb in W3:
                if la.name == "L31" and lb.name == "L31":
                    continue
                if lb.name == "L31":
                    continue  # driver reorders the asymmetric edge first
                for lc in W2:
                    if la.name == "L31" and lb.name == "L30" and lc.name in ("L2", "L20"):
                        builders.append((build_deg3_sum9_a, la, lb, lc))
                    elif la.name == "L31" and lb.name == "L32" and lc.name in ("L2", "L20"):
                        builders.append((build_deg3_sum9_b, la, lb, lc))
                    else:
                        builders.append((build_deg3_sum9_c, la, lb, lc))
        assert builders
        for build, la, lb, lc in builders:
            v, a, b, c = _deg3_views(la, lb, lc)
            label, gadget, ends = build(a, b, c, v, f"cover[{la.name}/{lb.name}/{lc.name}]")
            run_all_ops(label, gadget)

    def test_weight10_configurations(self):
        for la in ("L30", "L31"):
            v, a, b, c = _deg3_views(CATALOG[la], CATALOG["L30"], CATALOG["L30"])
            label, gadget, ends = build_deg3_sum10(a, b, c, v, f"cover[{la}]")
            run_all_ops(label, gadget)


class TestDegree4PlusCoverage:
    def test_heavy_pair(self):
        v = 0
        e3 = EdgeView(stub_edge(CATALOG["L30"], v, 1, eid=0), v)
        e4 = EdgeView(stub_edge(CATALOG["L30"], v, 2, eid=1), v)
        label, gadget, ends = build_deg4plus_heavy(e3, e4, v, "cover")
        run_all_ops(label, gadget)

    def _light(self, l1, l2, single_labels):
        v = 0
        e1 = EdgeView(stub_edge(l1, v, 1, eid=0), v)
        e2 = EdgeView(stub_edge(l2, v, 2, eid=1), v)
        singles = [EdgeView(stub_edge(ls, v, 3 + idx, eid=2 + idx), v)
                   for idx, ls in enumerate(single_labels)]
        return build_deg4plus_light(e1, e2, singles, v, "cover")

    def test_degree4_with_weight2(self):
        for l1 in W2:
            for l2 in W1:
                for s1 in W1:
                    for s2 in W1:
                        label, gadget, ends = self._light(l1, l2, [s1, s2])
                        assert label.name == "L20"
                        run_all_ops(label, gadget)

    def test_degree5_all_unit(self):
        for l1 in W1:
            for l2 in W1:
                for s1 in W1:
                    for s2 in W1:
                        for s3 in W1:
                            label, gadget, ends = self._light(l1, l2, [s1, s2, s3])
                            assert label.name == "L20"
                            run_all_ops(label, gadget)

    def test_degree4_all_unit(self):
        for l1 in W1:
            for l2 in W1:
                for s1 in W1:
                    for s2 in W1:
                        label, gadget, ends = self._light(l1, l2, [s1, s2])
                        assert label.name == "L10"
                        run_all_ops(label, gadget)


class TestLedgerIsOn:
    """A child that withholds one emitted 4-set leaves four scope vertices
    uncovered, so the ledger of the lift built on it must trap."""

    def _assert_traps(self, label, gadget, tag):
        for op in all_ops(label):
            with pytest.raises(EngineBug, match="scope mismatch") as info:
                gadget.realize(op)
            assert info.value.provenance == tag

    def test_series_lift(self):
        v1, v, v2 = 1, 0, 2
        e1 = EdgeView(stub_edge(CATALOG["L1"], v1, v, eid=0), v1)
        e2 = EdgeView(stub_edge(CATALOG["L2"], v, v2, eid=1, withhold=True), v)
        label, gadget = build_series_gadget(e1, e2, v, v1, v2, "ledger[series]")
        self._assert_traps(label, gadget, "ledger[series]")

    def test_light_degree4_lift(self):
        v = 0
        e1 = EdgeView(stub_edge(CATALOG["L20"], v, 1, eid=0), v)
        e2 = EdgeView(stub_edge(CATALOG["L1"], v, 2, eid=1), v)
        singles = [EdgeView(stub_edge(CATALOG["L1"], v, 3, eid=2), v),
                   EdgeView(stub_edge(CATALOG["L10"], v, 4, eid=3, withhold=True), v)]
        label, gadget, ends = build_deg4plus_light(e1, e2, singles, v, "ledger[light]")
        self._assert_traps(label, gadget, "ledger[light]")
