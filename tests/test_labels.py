import os
import subprocess
import sys
from itertools import product
from pathlib import Path

from quadparts import labels
from quadparts.labels import CATALOG, LABELS, TreeSet, admits, catalog_dump, involution, leq

from .support import (
    TreeShape,
    active_count,
    canonical_member,
    enumerate_rooted_trees,
    fits,
    member_of,
    members_extensional,
)

S0, S1, S2, S3 = TreeSet.S0, TreeSet.S1, TreeSet.S2, TreeSet.S3
S1P, S2P, S3P = TreeSet.S1P, TreeSet.S2P, TreeSet.S3P
S2M, S3M, S5M = TreeSet.S2M, TreeSet.S3M, TreeSet.S5M


class TestCatalog:
    def test_pair_duality_under_involution(self):
        for lab in LABELS:
            dual = involution(lab)
            assert set(dual.pairs) == {(q, p) for p, q in lab.pairs}, lab.name

    def test_involution_fixed_points_and_swap(self):
        assert involution(CATALOG["L31"]).name == "L32"
        assert involution(CATALOG["L32"]).name == "L31"
        for name in ("L0", "L00", "L1", "L10", "L2", "L20", "L21", "L30"):
            assert involution(CATALOG[name]).name == name
        for lab in LABELS:
            assert involution(involution(lab)).name == lab.name

    def test_weights_match_names(self):
        for lab in LABELS:
            assert lab.weight == int(lab.name[1])

    def test_weight_bookkeeping(self):
        # for the plain and zero-variant labels, every pair's active counts
        # sum to the weight mod 4; the minus-set pairs of the exceptional
        # labels are checked by literal table membership instead
        exceptional = {"L21", "L31", "L32"}
        minus = {S2M, S3M, S5M}
        for lab in LABELS:
            for p, q in lab.pairs:
                if lab.name in exceptional and (p in minus or q in minus):
                    continue
                assert (active_count(p) + active_count(q)) % 4 == lab.weight % 4, (lab.name, p, q)

    def test_subdividable_flags(self):
        assert [lab.name for lab in LABELS if lab.subdividable] == ["L0", "L1", "L2"]


class TestOrder:
    def test_listed_relations(self):
        assert leq(S1, S1P)
        assert leq(S2M, S2) and leq(S2, S2P) and leq(S2M, S2P)
        assert leq(S3M, S3) and leq(S3, S3P) and leq(S3M, S3P)

    def test_non_relations(self):
        assert not leq(S1, S2)
        assert not leq(S0, S1)
        assert not leq(S5M, S3P)
        assert not leq(S2P, S2)

    def test_partial_order_axioms(self):
        sets = list(TreeSet)
        for a in sets:
            assert leq(a, a)
        for a, b in product(sets, sets):
            if leq(a, b) and leq(b, a):
                assert a == b
        for a, b, c in product(sets, sets, sets):
            if leq(a, b) and leq(b, c):
                assert leq(a, c)


class TestAdmits:
    def test_examples(self):
        assert admits(CATALOG["L20"], S3, S3P) == (S3, S3P)
        assert admits(CATALOG["L21"], S1, S1P) == (S1, S1P)
        assert admits(CATALOG["L2"], S3, S3P) is None
        assert admits(CATALOG["L21"], S3, S3P) == (S3M, S3M)

    def test_matches_independent_scan(self):
        for lab in LABELS:
            for p, q in product(TreeSet, TreeSet):
                wit = admits(lab, p, q)
                scan = sorted(
                    ((a, b) for a, b in lab.pairs if leq(a, p) and leq(b, q)),
                    key=lambda ab: (ab[0].rank, ab[1].rank),
                )
                assert wit == (scan[0] if scan else None), (lab.name, p, q)

    def test_witness_is_always_a_literal_pair(self):
        for lab in LABELS:
            for p, q in product(TreeSet, TreeSet):
                wit = admits(lab, p, q)
                if wit is not None:
                    assert wit in lab.pairs


class TestMemoTables:
    def test_admits_matches_a_brute_force_search_fresh_and_filled(self, monkeypatch):
        """The witness table against a scan of each label's pairs in catalog
        rank order, first while it fills and then read back full."""
        monkeypatch.setattr(labels, "_ADMITS", {})
        for turn in ("fresh", "filled"):
            for lab in LABELS:
                ranked = sorted(lab.pairs, key=lambda ab: (ab[0].rank, ab[1].rank))
                for p, q in product(TreeSet, repeat=2):
                    expected = next(((a, b) for a, b in ranked if leq(a, p) and leq(b, q)), None)
                    assert admits(lab, p, q) == expected, (turn, lab.name, p, q)
            assert len(labels._ADMITS) == len(LABELS) * len(TreeSet) ** 2

    def test_tables_fill_on_first_use_only(self):
        """Importing the engine builds neither the witness nor the fit table."""
        probe = ("import quadparts.cli; from quadparts import labels; from quadparts.engine import model; "
                 "print(len(labels._ADMITS), len(model._FITS))")
        env = dict(os.environ, PYTHONPATH=str(Path(labels.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["0", "0"]


class TestShapes:
    def test_canonical_members_pass_membership(self):
        for ts in TreeSet:
            shape = canonical_member(ts)
            assert member_of(shape, ts), ts
            assert shape.order == ts.order
            assert len(shape.dummies) == (1 if ts in (S1P, S2P, S3P) else 0)

    def test_minus_two_shape(self):
        shape = canonical_member(S2M)
        assert shape.root_degree() == 2 and shape.order == 3

    def test_minus_three_both_shapes(self):
        path = canonical_member(S3M)
        star = canonical_member(S3M, shape_hint="star")
        assert member_of(path, S3M) and member_of(star, S3M)
        assert path.root_degree() == 2 and star.root_degree() == 3

    def test_plain_members_do_not_satisfy_minus_sets_wrongly(self):
        chain4 = canonical_member(S3)  # path rooted at an end: degree-1 root
        assert not member_of(chain4, S3M)

    def test_rooted_tree_counts(self):
        assert [len(enumerate_rooted_trees(k)) for k in range(1, 7)] == [1, 1, 2, 4, 9, 20]

    def test_fusion_set_extensional(self):
        members = members_extensional(S5M)
        assert members
        for shape in members:
            assert shape.order == 6
            sizes = shape.child_subtree_sizes()
            assert sum(sizes) == 5
        # a 6-vertex tree whose root hangs one size-5 subtree is not a fusion
        chain6 = TreeShape((None, 0, 1, 2, 3, 4))
        assert not member_of(chain6, S5M)

    def test_fits_descends_the_order(self):
        assert fits(canonical_member(S2M), S2P)
        assert fits(canonical_member(S3), S3P)
        assert not fits(canonical_member(S3), S2P)

    def test_dump_contains_every_label(self):
        text = catalog_dump()
        for lab in LABELS:
            assert lab.name in text
