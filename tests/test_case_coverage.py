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
from functools import partial

import pytest

from quadparts.engine.model import LIFTS, EdgeView, EngineBug, Gadget, Realization, Split, single
from quadparts.engine.reducible import build_deg4plus_light
from quadparts.engine.series import build_series_gadget
from quadparts.labels import CATALOG, TreeSet

from . import sweeps
from .support import StubGadget, all_ops, realize, stub_edge, tree_of


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
        gadget = build_series_gadget(e1, e2, "ledger[series]")
        self._assert_traps(gadget, "ledger[series]")

    def test_light_degree4_lift(self):
        v = 0
        e1 = EdgeView(stub_edge(CATALOG["L20"], v, 1), v, 0)
        e2 = EdgeView(stub_edge(CATALOG["L1"], v, 2), v, 1)
        singles = [EdgeView(stub_edge(CATALOG["L1"], v, 3), v, 2),
                   EdgeView(stub_edge(CATALOG["L10"], v, 4, withhold=True), v, 3)]
        gadget = build_deg4plus_light(e1, e2, singles, "ledger[light]")
        self._assert_traps(gadget, "ledger[light]")


def _series_on_stubs(u: int, w: int, v: int, eid: int, labels=("L1", "L2")):
    """A real child gadget u -> v: the series gadget of two stub grandchildren
    u -> w and w -> v with the given labels, L1 and L2 making it L00; also
    the second stub."""
    first, second = stub_edge(CATALOG[labels[0]], u, w), stub_edge(CATALOG[labels[1]], w, v)
    child = build_series_gadget(EdgeView(first, u, 0), EdgeView(second, w, 1), f"planted[child{eid}]")
    return EdgeView(child, u, eid), second


def _exposed(real: Realization, u: int, v: int) -> frozenset[int]:
    return (real.at(u).actives | real.at(v).actives) - {u, v}


class TestPlantedLedgerFaults:
    """A planted lift over two real children, each the series gadget of two
    stubs, asks each for (S1, S3+), whose four active vertices it hands up,
    and finalizes them as two parts.  Honest, the local ledger balances; a
    fault anywhere in what it covers must trap, as a whole-scope check
    would, and so must a lift that does not request each child exactly
    once."""

    U, V = 1, 2
    S1P3 = Split(TreeSet.S1, TreeSet.S3P)

    @pytest.fixture(autouse=True)
    def _lifts(self, monkeypatch):
        """Planted lifts are registered under the kind "planted" for one test."""
        self.plant = partial(monkeypatch.setitem, LIFTS, "planted")

    def _gadget(self, close, requests=lambda e1, e2, other: (e1, e2)):
        """The planted gadget: its lift requests `requests(...)` of the two
        children it reads off the gadget and another gadget's edge, then
        returns `close(reals, stub)`, where `stub` is the first child's
        second grandchild."""
        e1, second = _series_on_stubs(self.U, 0, self.V, 0)
        e2, _ = _series_on_stubs(self.U, 3, self.V, 1)
        other, _ = _series_on_stubs(self.U, 4, self.V, 2)

        def lift(g, pair):
            reals = []
            for e in requests(*g.children, other):
                reals.append((yield e, self.S1P3))
            return close(reals, second)

        self.plant((lift, None))
        return Gadget("planted", CATALOG["L0"], self.U, self.V, (e1, e2), None, "planted")

    def _closing(self, reals, *extra):
        """Finalize what each realization hands up, then the `extra` parts."""
        parts = tuple(_exposed(r, self.U, self.V) for r in reals) + extra
        return Realization(parts=parts, trees=(single(self.U), single(self.V)))

    def _assert_traps(self, gadget, message):
        with pytest.raises(EngineBug, match=message) as info:
            realize(gadget, Split(TreeSet.S0, TreeSet.S0))
        assert info.value.provenance == "planted"

    def _honest(self, reals, stub):
        return self._closing(reals)

    def test_the_honest_lift_balances(self):
        real = realize(self._gadget(self._honest), Split(TreeSet.S0, TreeSet.S0))
        assert len(real.parts) == 10 and len(frozenset().union(*real.parts)) == 40

    def test_double_covering_a_vertex_a_grandchild_finalized_traps(self):
        """Both as an extra part, and in place of an exposed vertex, which
        keeps the count of covered vertices right."""
        def extra(reals, stub):
            # the stub's last owned vertices make the last 4-set it finalized
            return self._closing(reals, frozenset(stub.owned[-4:]))

        def swapped(reals, stub):
            first, second = (_exposed(r, self.U, self.V) for r in reals)
            return Realization(parts=(first - {max(first)} | {stub.owned[-1]}, second),
                               trees=(single(self.U), single(self.V)))

        for close in (extra, swapped):
            self._assert_traps(self._gadget(close), "scope mismatch")

    def test_dropping_a_childs_exposed_vertices_traps(self):
        self._assert_traps(self._gadget(lambda reals, stub: self._closing(reals[:1])), "scope mismatch")

    def test_a_lift_must_request_each_child_exactly_once(self):
        for requests in (lambda e1, e2, other: (e1, e1), lambda e1, e2, other: (e1, other),
                         lambda e1, e2, other: (e1,), lambda e1, e2, other: (e2, e1, e1)):
            self._assert_traps(self._gadget(self._honest, requests), "not each child once")

    def test_a_tree_vertex_outside_scope_traps(self):
        """A single child, labelled L10, read straight through: its head
        tree for (S2, S3+) keeps its shape but marks a vertex outside every
        scope as its dummy."""
        e1, _ = _series_on_stubs(self.U, 0, self.V, 0, ("L0", "L00"))
        op = Split(TreeSet.S2, TreeSet.S3P)

        def lift(g, pair, outside=None):
            (child,) = g.children
            r = yield child, Split(*pair)
            q = r.at(self.V)
            if outside is not None:
                (dummy,) = q.dummies
                swap = {dummy: outside}
                q = tree_of(q.root, [(swap.get(a, a), swap.get(b, b)) for a, b in q.edges], {outside})
            return Realization(trees=(r.at(self.U), q))

        for outside in (None, 99_999):
            self.plant((partial(lift, outside=outside), None))
            gadget = Gadget("planted", e1.label, self.U, self.V, (e1,), None, "planted")
            if outside is None:
                assert realize(gadget, op).at(self.V).dummies
            else:
                with pytest.raises(EngineBug, match=r"tree vertices \[99999\] outside scope"):
                    realize(gadget, op)
