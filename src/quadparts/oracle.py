"""Ground-truth layer: nearly-connected checks, partition verification,
exact clique-factor decision, and exhaustive partition search.

A vertex set A is *nearly connected* in g when some connected subgraph of g
on at most |A|+1 vertices contains A.  Every routine here is exact and
deterministic; they are the oracles the reduction engine is tested against.
They share the traversal primitives of :mod:`quadparts.graphs` with the
engine, which the tests check against networkx, but none of the reduction
logic.  The one K_r-factor decision lists only cliques, so its cost follows
the edges; the exhaustive partition search is exponential in n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .graphs import SimpleGraph, nearly_connected_witness


@dataclass(frozen=True)
class Part:
    """One block of a partition: its members plus an optional witness subtree."""

    members: frozenset[int]
    witness: frozenset[int] | None = None

    def sorted_members(self) -> list[int]:
        return sorted(self.members)


@dataclass(frozen=True)
class Partition:
    parts: tuple[Part, ...]

    def member_sets(self) -> list[frozenset[int]]:
        return [p.members for p in self.parts]

    def as_lists(self) -> list[list[int]]:
        return [p.sorted_members() for p in self.parts]


class InstanceTooLarge(ValueError):
    """Raised when an exhaustive search is asked to exceed its documented size limit."""


def is_nearly_connected(g: SimpleGraph, a: Iterable[int]) -> frozenset[int] | None:
    """Witness set S with a ⊆ S, |S| <= |a|+1 and g[S] connected, or None:
    :func:`graphs.nearly_connected_witness` after the input checks."""
    part = frozenset(a)
    if not part:
        raise ValueError("the vertex set must be nonempty")
    if any(not 0 <= v < g.n for v in part):
        raise ValueError("vertex out of range")
    return nearly_connected_witness(g.adj(), part)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    problems: tuple[str, ...] = ()
    witnesses: tuple[frozenset[int], ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def verify_partition(
    g: SimpleGraph,
    parts: Sequence[Iterable[int]],
    expected_sizes: Sequence[int] | None = None,
) -> VerifyResult:
    """Check disjointness, coverage of V(g), part sizes and near-connectedness.

    With ``expected_sizes=None`` every part must have exactly 4 vertices.
    Sizes are compared as multisets.  All failures are collected rather than
    reported one at a time; a part holding a vertex outside 0..n-1 is not
    tested for near-connectedness, since its unknown vertices are reported.
    """
    sets = [frozenset(p) for p in parts]
    problems: list[str] = []
    union: set[int] = set()
    for i, s in enumerate(sets):
        dup = union & s
        if dup:
            problems.append(f"part {i} overlaps earlier parts on {sorted(dup)}")
        union |= s
    vertices = set(range(g.n))
    missing = sorted(vertices - union)
    extra = union - vertices
    if missing:
        problems.append(f"vertices not covered: {missing}")
    if extra:
        problems.append(f"unknown vertices in parts: {sorted(extra)}")
    if expected_sizes is None:
        for i, s in enumerate(sets):
            if s and len(s) != 4:  # an empty part is reported below
                problems.append(f"part {i} has size {len(s)}, expected 4")
    else:
        if sorted(len(s) for s in sets) != sorted(expected_sizes):
            problems.append(
                f"part sizes {sorted(len(s) for s in sets)} do not match expected {sorted(expected_sizes)}"
            )
    witnesses: list[frozenset[int]] = []
    for i, s in enumerate(sets):
        if not s:
            problems.append(f"part {i} is empty")
            continue
        if s & extra:
            continue
        w = is_nearly_connected(g, s)
        if w is None:
            problems.append(f"part {i} ({sorted(s)}) is not nearly connected")
        else:
            witnesses.append(w)
    return VerifyResult(not problems, tuple(problems), tuple(witnesses))


# ---------------------------------------------------------------------------
# Exact clique-factor decision


def has_kr_factor(g: SimpleGraph, r: int) -> list[frozenset[int]] | None:
    """Exact decision: disjoint r-cliques covering V(g), or None.

    Each r-clique is listed once, depth first from its lowest vertex through
    the common higher neighbours of its members, so the cliques come in
    lexicographic order.  Backtracking on an explicit stack then covers the
    uncovered vertex with the fewest free cliques (ties to the lowest), tries
    those in order and remembers each covered set it refuted; it is
    complete, so None is a proof of absence.  Every vertex of a K_r-factor
    has r - 1 neighbours, so fewer than n(r - 1)/2 edges give None at once.
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    if g.n % r != 0 or 2 * g.m < g.n * (r - 1):
        return None
    higher = [{w for w in row if w > v} for v, row in enumerate(g.adj())]
    by_vertex: list[list[frozenset[int]]] = [[] for _ in range(g.n)]
    for low in range(g.n):
        clique, pools = [low], [sorted(higher[low], reverse=True)]
        while pools:  # pools[i] holds the candidates for member i + 1, largest first
            if not pools[-1]:
                pools.pop()
                clique.pop()
            elif len(clique) == r - 1:
                found = frozenset(clique + [pools[-1].pop()])
                for v in found:
                    by_vertex[v].append(found)
            else:
                w = pools[-1].pop()
                pools.append([x for x in pools[-1] if x in higher[w]])
                clique.append(w)

    covered: set[int] = set()
    chosen: list[frozenset[int]] = []
    dead_states: set[frozenset[int]] = set()  # memo of refuted covered-sets
    untried: list[Iterator[frozenset[int]]] = []  # per open level, its candidates left
    while len(covered) < g.n:
        if frozenset(covered) not in dead_states:
            pivot = min((v for v in range(g.n) if v not in covered),
                        key=lambda v: sum(1 for c in by_vertex[v] if not c & covered))
            untried.append(iter([c for c in by_vertex[pivot] if not c & covered]))
        while untried:  # try the innermost level's next candidate, closing refuted levels
            if len(chosen) == len(untried):  # undo its last try first
                covered.difference_update(chosen.pop())
            c = next(untried[-1], None)
            if c is not None:
                chosen.append(c)
                covered.update(c)
                break
            dead_states.add(frozenset(covered))
            untried.pop()
        else:
            return None
    return chosen


# ---------------------------------------------------------------------------
# Exhaustive partition search (the differential-testing oracle)

SIZE_LIMIT = 16  # the most vertices brute_force_partition searches unforced


def brute_force_partition(g: SimpleGraph, sizes: Sequence[int], force: bool = False) -> list[frozenset[int]] | None:
    """Complete backtracking search for a partition of V(g) into nearly
    connected parts of the given sizes.

    Part order symmetry is eliminated by always seeding the next part with
    the lowest unassigned vertex, so a None answer is exhaustive.  Instances
    with more than `SIZE_LIMIT` vertices are refused unless `force` is set.
    """
    if sum(sizes) != g.n:
        raise ValueError(f"sizes sum to {sum(sizes)}, expected n={g.n}")
    if any(s < 1 for s in sizes):
        raise ValueError("all part sizes must be positive")
    if g.n > SIZE_LIMIT and not force:
        raise InstanceTooLarge(
            f"n={g.n} exceeds the exhaustive-search limit {SIZE_LIMIT} (pass force=True to override)"
        )

    unassigned = set(range(g.n))
    result: list[frozenset[int]] = []

    def solve(remaining: tuple[int, ...]) -> bool:
        if not unassigned:
            return True
        seed = min(unassigned)
        rest = sorted(unassigned - {seed})
        for size in sorted(set(remaining)):
            nxt = list(remaining)
            nxt.remove(size)
            for combo in combinations(rest, size - 1):
                part = frozenset((seed, *combo))
                if is_nearly_connected(g, part) is None:
                    continue
                unassigned.difference_update(part)
                result.append(part)
                if solve(tuple(nxt)):
                    return True
                result.pop()
                unassigned.update(part)
        return False

    return result if solve(tuple(sorted(sizes))) else None
