"""Mechanical guard-coverage checks for the rewrite case tables.

For every label combination a rewrite can face and every operation the
replacement label allows, the lift must select a branch and assemble a
realization without hitting a guard trap, and the conservation ledger of the
gadget it builds must balance.  Synthetic child gadgets with canonical tree
shapes and balanced ledgers stand in for real recursion, which lets the full
combination space be swept even though most combinations need a contrived
graph to arise naturally.  The sweeps themselves live in ``tests/sweeps.py``,
which also hashes what they realize into a golden fixture.
"""

from collections import Counter

import pytest

from quadparts.engine.model import EdgeView, EngineBug
from quadparts.engine.reducible import build_deg4plus_light
from quadparts.engine.series import build_series_gadget
from quadparts.labels import CATALOG

from . import sweeps
from .support import StubGadget, all_ops, realize, stub_edge


def run_all_ops(gadget):
    for op in all_ops(gadget.label):
        real = realize(gadget, op)
        for part in real.parts:
            assert len(part) == 4


def run_sweep(sweep, label_check=None) -> int:
    """Realize every operation of every gadget the sweep builds; `label_check`
    maps the child labels and the gadget's label to whether it is right."""
    count = 0
    for labels, gadget in sweep():
        if label_check is not None:
            assert label_check(labels, gadget.label), [label.name for label in labels]
        run_all_ops(gadget)
        count += 1
    return count


class TestSeriesCoverage:
    def test_every_label_pair_and_operation(self):
        run_sweep(sweeps.series, lambda ls, out: out.weight == (ls[0].weight + ls[1].weight + 1) % 4)


class TestParallelCoverage:
    def test_every_label_pair_and_operation(self):
        run_sweep(sweeps.parallel, lambda ls, out: out.weight == (ls[0].weight + ls[1].weight) % 4)


class TestAbsorbCoverage:
    def test_both_sibling_labels(self):
        assert run_sweep(sweeps.absorb) == 2


class TestDegree3Coverage:
    def test_flat_eliminations(self):
        for parts in sweeps.flat_eliminations():
            assert all(len(p) == 4 for p in parts)

    def test_paired_tail_configurations(self):
        run_sweep(sweeps.paired_tail, lambda ls, out: out.name == f"L{ls[0].weight}0")

    def test_general_mid_weight_configurations(self):
        run_sweep(sweeps.general_mid_weight,
                  lambda ls, out: out.weight == (sum(label.weight for label in ls) + 1) % 4)

    def test_weight9_configurations(self):
        assert run_sweep(sweeps.weight9)

    def test_weight10_configurations(self):
        assert run_sweep(sweeps.weight10) == 2


class TestDegree4PlusCoverage:
    def test_heavy_pair(self):
        assert run_sweep(sweeps.heavy_pair) == 1

    def test_degree4_with_weight2(self):
        run_sweep(sweeps.degree4_with_weight2, lambda ls, out: out.name == "L20")

    def test_degree5_all_unit(self):
        run_sweep(sweeps.degree5_all_unit, lambda ls, out: out.name == "L20")

    def test_degree4_all_unit(self):
        run_sweep(sweeps.degree4_all_unit, lambda ls, out: out.name == "L10")


class TestSingleRequests:
    def test_no_child_operation_is_requested_twice(self, monkeypatch):
        """Within one realization of a swept gadget, each child edge is
        asked for each operation (in its stored orientation) at most once:
        a lift that serves a pair from the other end does so before it
        requests anything, so no child realization is thrown away.  Every
        swept child is a stub, so every request a lift yields is counted
        where the driver starts it: at the stub's `start`, which receives
        the operation already in the stored orientation."""
        requests = Counter()
        real_start = StubGadget.start

        def counted(stub, op):
            requests[id(stub), op] += 1
            return real_start(stub, op)

        monkeypatch.setattr(StubGadget, "start", counted)
        repeats = Counter()
        for name, sweep in sweeps.GADGET_SWEEPS.items():
            for _, gadget in sweep():
                for op in all_ops(gadget.label):
                    requests.clear()
                    realize(gadget, op)
                    assert requests, (name, op)
                    repeats[name] += sum(count - 1 for count in requests.values())
        assert not +repeats, dict(+repeats)


class TestLedgerIsOn:
    """A child that withholds one emitted 4-set leaves four scope vertices
    uncovered, so the ledger of the lift built on it must trap."""

    def _assert_traps(self, gadget, tag):
        for op in all_ops(gadget.label):
            with pytest.raises(EngineBug, match="scope mismatch") as info:
                realize(gadget, op)
            assert info.value.provenance == tag

    def test_series_lift(self):
        v1, v, v2 = 1, 0, 2
        e1 = EdgeView(stub_edge(CATALOG["L1"], v1, v), v1, 0)
        e2 = EdgeView(stub_edge(CATALOG["L2"], v, v2, withhold=True), v, 1)
        gadget = build_series_gadget(e1, e2, v, v1, v2, "ledger[series]")
        self._assert_traps(gadget, "ledger[series]")

    def test_light_degree4_lift(self):
        v = 0
        e1 = EdgeView(stub_edge(CATALOG["L20"], v, 1), v, 0)
        e2 = EdgeView(stub_edge(CATALOG["L1"], v, 2), v, 1)
        singles = [EdgeView(stub_edge(CATALOG["L1"], v, 3), v, 2),
                   EdgeView(stub_edge(CATALOG["L10"], v, 4, withhold=True), v, 3)]
        gadget = build_deg4plus_light(e1, e2, singles, v, "ledger[light]")
        self._assert_traps(gadget, "ledger[light]")
