"""The rooted-tree-set catalog and the ten-edge-label algebra.

An edge label is a set of ordered pairs of rooted-tree sets together with a
weight.  Splitting a labeled edge deletes it and attaches a tree from the
first set at the tail and one from the second set at the head; weight-i
labels ``Li`` additionally allow subdividing the edge exactly i times.  The
catalog below is closed data: the reduction engine's case tables reference
these exact pair sets, so the transcription is kept in one reviewable block.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations


class TreeSet(Enum):
    """Identifiers for the small rooted-tree sets used by edge labels.

    ``Si`` is the set of all rooted trees with i+1 vertices.  ``SiP`` ("plus")
    trees have i+2 vertices with one non-root vertex marked dummy.  The
    "minus" sets are specific shapes: ``S2M`` is the 3-path rooted at its
    middle vertex; ``S3M`` holds the 4-vertex trees rooted at a vertex of
    degree at least 2; ``S5M`` holds the 6-vertex trees formed by fusing the
    roots of a 4-vertex and a 3-vertex rooted tree.
    """

    S0 = "S0"
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    S1P = "S1+"
    S2P = "S2+"
    S3P = "S3+"
    S2M = "S2-"
    S3M = "S3-"
    S5M = "S5-"

    # Members are singletons compared by identity, so they hash by identity
    # too: Enum's own hash runs Python code on every dict or set lookup.
    # Nothing iterates a hashed collection of tree sets, so no output
    # depends on these hashes.
    __hash__ = object.__hash__

    @property
    def display(self) -> str:
        return self.value

    @property
    def order(self) -> int:
        """Vertex count of any member (root included)."""
        return _ORDER[self]

    @property
    def rank(self) -> int:
        return _RANK[self]


_RANK = {s: i for i, s in enumerate(TreeSet)}

S0, S1, S2, S3 = TreeSet.S0, TreeSet.S1, TreeSet.S2, TreeSet.S3
S1P, S2P, S3P = TreeSet.S1P, TreeSet.S2P, TreeSet.S3P
S2M, S3M, S5M = TreeSet.S2M, TreeSet.S3M, TreeSet.S5M

_ORDER = {S0: 1, S1: 2, S2: 3, S3: 4, S1P: 3, S2P: 4, S3P: 5, S2M: 3, S3M: 4, S5M: 6}

# The order relation: a tree in a smaller set also satisfies the request for
# a larger one (a plain tree stands in for a plus tree by treating the absent
# dummy leaf as irrelevant).
_LEQ: frozenset[tuple[TreeSet, TreeSet]] = frozenset(
    [(s, s) for s in TreeSet]
    + [(S1, S1P), (S2M, S2), (S2, S2P), (S2M, S2P), (S3M, S3), (S3, S3P), (S3M, S3P)]
)


def leq(a: TreeSet, b: TreeSet) -> bool:
    """Partial order on tree sets: reflexive-transitive closure of the chain relations."""
    return (a, b) in _LEQ


_DOWN_SETS = {b: tuple(a for a in TreeSet if leq(a, b)) for b in TreeSet}


def down_set(b: TreeSet) -> tuple[TreeSet, ...]:
    """All sets a with a <= b, in catalog order."""
    return _DOWN_SETS[b]


Pair = tuple[TreeSet, TreeSet]


class Label:
    """One edge label: a name, a weight 0..3, and its permitted split pairs.

    A value: equality and hashing read the three fields, and no field can be
    assigned after construction.  `subdividable` is worked out once, when
    the label is made: only the pure-weight labels L0, L1 and L2 allow the
    subdivision operation.
    """

    __slots__ = ("name", "weight", "pairs", "subdividable")

    def __init__(self, name: str, weight: int, pairs: tuple[Pair, ...]):
        init = object.__setattr__
        init(self, "name", name)
        init(self, "weight", weight)
        init(self, "pairs", pairs)
        init(self, "subdividable", name in ("L0", "L1", "L2"))

    def __setattr__(self, attr: str, value) -> None:
        raise AttributeError(f"cannot assign to field {attr!r} of a Label")

    def __eq__(self, other):
        if other.__class__ is not Label:
            return NotImplemented
        return (self.name, self.weight, self.pairs) == (other.name, other.weight, other.pairs)

    def __hash__(self) -> int:
        return hash((self.name, self.weight, self.pairs))

    def __repr__(self) -> str:  # compact in traces
        return self.name


def _mk(name: str, weight: int, pairs: list[Pair]) -> Label:
    return Label(name, weight, tuple(pairs))


L0 = _mk("L0", 0, [(S0, S0)])
L00 = _mk("L00", 0, [(S0, S0), (S1, S3P), (S1P, S3), (S2, S2P), (S2P, S2), (S3, S1P), (S3P, S1)])
L1 = _mk("L1", 1, [(S0, S1), (S1, S0)])
L10 = _mk("L10", 1, [(S0, S1), (S1, S0), (S2, S3P), (S2P, S3), (S3, S2P), (S3P, S2)])
L2 = _mk("L2", 2, [(S0, S2), (S1, S1), (S2, S0)])
L20 = _mk("L20", 2, [(S0, S2), (S1, S1), (S2, S0), (S3, S3P), (S3P, S3)])
L21 = _mk("L21", 2, [(S0, S2M), (S1, S1P), (S1, S5M), (S1P, S1), (S5M, S1), (S2M, S0), (S3M, S3M)])
L30 = _mk("L30", 3, [(S0, S3), (S1, S2), (S2, S1), (S3, S0)])
L31 = _mk("L31", 3, [(S0, S3M), (S1, S2M), (S2, S1P), (S2, S5M), (S2P, S1), (S3, S0)])
L32 = _mk("L32", 3, [(S0, S3), (S1, S2P), (S1P, S2), (S5M, S2), (S2M, S1), (S3M, S0)])

CATALOG: dict[str, Label] = {
    lab.name: lab for lab in (L0, L00, L1, L10, L2, L20, L21, L30, L31, L32)
}
LABELS: tuple[Label, ...] = tuple(CATALOG.values())


def involution(label: Label) -> Label:
    """Label of the same edge read against its stored orientation.

    Fixes every label except the weight-3 asymmetric pair, which swap.
    """
    if label.name == "L31":
        return L32
    if label.name == "L32":
        return L31
    return label


# (label name, p, q) -> admits(label, p, q), filled on first use; the
# catalog holds one label per name.
_ADMITS: dict[tuple[str, TreeSet, TreeSet], Pair | None] = {}


def admits(label: Label, p: TreeSet, q: TreeSet) -> Pair | None:
    """Witness pair (p1, q1) in the label with p1 <= p and q1 <= q, if any.

    Ties break to the lexicographically smallest witness by catalog rank, so
    realizations are reproducible.
    """
    key = (label.name, p, q)
    try:
        return _ADMITS[key]
    except KeyError:
        pass
    candidates = [(a, b) for a, b in label.pairs if leq(a, p) and leq(b, q)]
    witness = min(candidates, key=lambda ab: (ab[0].rank, ab[1].rank)) if candidates else None
    _ADMITS[key] = witness
    return witness


# ---------------------------------------------------------------------------
# Set membership of concrete rooted trees


def shape_matches(order: int, root_degree: int, n_dummies: int,
                  child_sizes: tuple[int, ...], ts: TreeSet) -> bool:
    """Membership of a rooted tree in `ts`, read from its order, root degree,
    dummy count and sorted child subtree sizes."""
    if ts in (S0, S1, S2, S3):
        return n_dummies == 0 and order == ts.order
    if ts in (S1P, S2P, S3P):
        return n_dummies == 1 and order == ts.order
    if ts == S2M:
        return n_dummies == 0 and order == 3 and root_degree == 2
    if ts == S3M:
        return n_dummies == 0 and order == 4 and root_degree >= 2
    if ts == S5M:
        # Root fusion of a 4-vertex and a 3-vertex rooted tree: the child
        # subtrees must split into groups of total size 3 and 2.
        if n_dummies != 0 or order != 6:
            return False
        sizes = child_sizes
        for r in range(len(sizes) + 1):
            for combo in combinations(range(len(sizes)), r):
                if sum(sizes[i] for i in combo) == 3:
                    return True
        return False
    raise ValueError(f"unknown tree set {ts}")


def catalog_dump() -> str:
    """Human-readable dump of the full label catalog for audit."""
    lines = ["label  weight  pairs"]
    for lab in LABELS:
        pairs = ", ".join(f"({a.display},{b.display})" for a, b in lab.pairs)
        lines.append(f"{lab.name:<6} {lab.weight:<7} {pairs}")
    lines.append("")
    lines.append("involution: " + ", ".join(f"{lab.name}->{involution(lab).name}" for lab in LABELS))
    rels = [f"{a.display}<={b.display}" for a in TreeSet for b in TreeSet if a != b and leq(a, b)]
    lines.append("order: " + ", ".join(rels))
    return "\n".join(lines) + "\n"
