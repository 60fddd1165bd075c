"""The package's record classes: construction, equality, hashing and
immutability, each over the fields it has always had.

Each record is a plain class, a `typing.NamedTuple` or a slotted class; the
table below gives, per class, its constructor fields in order, a changed
value for each field that equality reads, and a changed value for each
field that it ignores.
"""

import pytest

from quadparts.engine.driver import TraceStep
from quadparts.engine.model import BoundTree, EdgeLog, EdgeView, Realization, Split, Subdivide, leaf_gadget, single
from quadparts.graphs import SimpleGraph
from quadparts.labels import L0, L1, L2, LABELS, Label, TreeSet
from quadparts.oracle import Part, Partition, VerifyResult
from quadparts.treepart import RootedTreeView

S0, S1 = TreeSet.S0, TreeSet.S1
QUAD = frozenset({0, 1, 2, 3})
GADGET = leaf_gadget(0, 1)

# class: (fields in constructor order, changed compared fields, changed ignored fields)
RECORDS = {
    SimpleGraph: ({"n": 4, "edges": frozenset({(0, 1)})},
                  {"n": 5, "edges": frozenset({(0, 2)})}, {}),
    Label: ({"name": "L9", "weight": 1, "pairs": ((S0, S1),)},
            {"name": "L8", "weight": 2, "pairs": ((S1, S0),)}, {}),
    Part: ({"members": QUAD, "witness": None},
           {"members": frozenset({4, 5, 6, 7}), "witness": QUAD | {4}}, {}),
    Partition: ({"parts": (Part(QUAD),)}, {"parts": ()}, {}),
    VerifyResult: ({"ok": False, "problems": ("part 0 has 3 vertices",), "witnesses": (QUAD,)},
                   {"ok": True, "problems": (), "witnesses": ()}, {}),
    RootedTreeView: ({"parent": (-1, 0), "depth": (0, 1)},
                     {"parent": (1, -1), "depth": (1, 0)}, {}),
    TraceStep: ({"index": 0, "kind": "series", "detail": "v=3", "edges_after": 5, "vertices_after": 4},
                {"index": 1, "kind": "parallel", "detail": "e=1,2", "edges_after": 4, "vertices_after": 5}, {}),
    Subdivide: ({"k": 1}, {"k": 2}, {}),
    Split: ({"p": S0, "q": S1}, {"p": S1, "q": S0}, {}),
    BoundTree: ({"root": 0, "edges": ((0, 1),), "dummies": frozenset(), "vertices": frozenset({0, 1}),
                 "_children": (1,), "child_subtree_sizes": (1,)},
                {"root": 1, "edges": ((0, 2),), "dummies": frozenset({1})},
                {"vertices": frozenset({0, 1, 2}), "_children": (2,), "child_subtree_sizes": (2,)}),
    Realization: ({"parts": (), "trees": None, "subdiv": None, "edges": (), "log": None, "start": 0, "end": 0},
                  {"parts": (QUAD,), "trees": (single(0), single(1)), "subdiv": (5,), "edges": ((0, 1),)},
                  {"log": EdgeLog(), "start": 3, "end": 4}),
    EdgeView: ({"edge": GADGET, "tail": 0, "eid": 7},
               {"edge": leaf_gadget(0, 1), "tail": 1, "eid": 8}, {}),
}
FROZEN = (SimpleGraph, Label, Part, Partition, VerifyResult, RootedTreeView, TraceStep)
SLOTTED = (Label, Subdivide, Split, BoundTree, Realization, EdgeView)
DEFAULTS = {
    Part: {"witness": None},
    VerifyResult: {"problems": (), "witnesses": ()},
    Realization: {"parts": (), "trees": None, "subdiv": None, "edges": (), "log": None, "start": 0, "end": 0},
}
ids = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_positional_and_keyword_construction_agree(cls):
    fields = RECORDS[cls][0]
    a, b = cls(*fields.values()), cls(**fields)
    assert a == b and not a != b
    for name, value in fields.items():
        assert getattr(a, name) is value and getattr(b, name) is value


@pytest.mark.parametrize("cls", DEFAULTS, ids=[cls.__name__ for cls in DEFAULTS])
def test_defaults_are_unchanged(cls):
    fields, defaults = RECORDS[cls][0], DEFAULTS[cls]
    required = {name: value for name, value in fields.items() if name not in defaults}
    record = cls(**required)
    assert all(getattr(record, name) == value for name, value in defaults.items())


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_equality_and_hashing_read_the_same_fields(cls):
    fields, compared, ignored = RECORDS[cls]
    base = cls(**fields)
    for name, value in compared.items():
        assert cls(**{**fields, name: value}) != base, name
    for name, value in ignored.items():
        other = cls(**{**fields, name: value})
        assert other == base, name
        if cls is not Realization:
            assert hash(other) == hash(base), name
    if cls is Realization:
        with pytest.raises(TypeError):
            hash(base)
    else:
        assert hash(cls(**fields)) == hash(base)
        assert len({base, cls(**fields)}) == 1


def test_an_edge_view_compares_without_its_label():
    view, other = EdgeView(GADGET, 0, 7), EdgeView(GADGET, 0, 7)
    other.label = L2
    assert view == other and hash(view) == hash(other)
    assert EdgeView(GADGET, 1, 7) != view


def test_records_of_different_classes_differ():
    assert Split(S0, S1) != Subdivide(1) and Subdivide(1) != 1
    assert SimpleGraph(1, frozenset()) != Realization()


@pytest.mark.parametrize("cls", FROZEN, ids=[cls.__name__ for cls in FROZEN])
def test_a_frozen_record_rejects_assignment(cls):
    fields = RECORDS[cls][0]
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) is value


@pytest.mark.parametrize("cls", SLOTTED, ids=[cls.__name__ for cls in SLOTTED])
def test_a_slotted_record_has_no_instance_dict(cls):
    record = cls(**RECORDS[cls][0])
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("n, edges, message", [
    (-1, set(), "vertex count must be nonnegative"),
    (3, {(1, 1)}, "self-loop at vertex 1"),
    (3, {(2, 1)}, "edge (2, 1) is not canonically ordered"),
    (3, {(1, 3)}, "edge (1, 3) has an endpoint outside 0..2"),
    (3, {(-1, 2)}, "edge (-1, 2) has an endpoint outside 0..2"),
])
def test_simple_graph_validation(n, edges, message):
    with pytest.raises(ValueError) as err:
        SimpleGraph(n, frozenset(edges))
    assert str(err.value) == message


def test_simple_graph_builds_its_adjacency_once():
    g = SimpleGraph(4, frozenset({(0, 3), (0, 1), (1, 2)}))
    rows = g.adj()
    assert rows == [[1, 3], [0, 2], [1], [0]] and g.adj() is rows
    assert g == SimpleGraph(4, g.edges) and hash(g) == hash(SimpleGraph(4, g.edges))


def test_printed_forms():
    """The forms that trap messages, traces and test reports print."""
    assert [repr(lab) for lab in LABELS[:3]] == ["L0", "L00", "L1"]
    assert f"{Split(S0, S1)} {Subdivide(2)}" == "split(S0,S1) subdiv(2)"
    assert repr(SimpleGraph(2, frozenset({(0, 1)}))) == "SimpleGraph(n=2, edges=frozenset({(0, 1)}))"
    assert repr(single(3)) == "BoundTree(root=3, edges=(), dummies=frozenset())"
    assert repr(Part(frozenset({1}))) == "Part(members=frozenset({1}), witness=None)"
    step = TraceStep(**RECORDS[TraceStep][0])
    assert step.format() == "step=0 kind=series detail=v=3 mod4=1 block=1 edges=5 vertices=4"


def test_only_pure_weight_labels_are_subdividable():
    assert {lab.name for lab in LABELS if lab.subdividable} == {"L0", "L1", "L2"}
    assert (L0.subdividable, L1.subdividable, Label("L9", 0, ()).subdividable) == (True, True, False)


def test_a_verify_result_is_true_when_ok():
    assert VerifyResult(True) and not VerifyResult(False, ("a problem",))
