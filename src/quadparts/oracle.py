"""Ground-truth layer: nearly-connected checks, partition verification,
exact clique-factor decision, and exhaustive partition search.

A vertex set A is *nearly connected* in g when some connected subgraph of g
on at most |A|+1 vertices contains A.  Every routine here is exact and
deterministic; they are the oracles the reduction engine is tested against.
They share the traversal primitives of :mod:`quadparts.graphs` with the
engine, which the tests check against networkx, but none of the reduction
logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .graphs import SimpleGraph, graph_power, nearly_connected_witness


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
            if len(s) != 4:
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


@dataclass(frozen=True)
class FactorInstance:
    """Host graph, part size r, and the candidate r-cliques for exact cover."""

    host: SimpleGraph
    r: int
    candidates: tuple[frozenset[int], ...]

    @staticmethod
    def build(host: SimpleGraph, r: int) -> "FactorInstance":
        if r < 2:
            raise ValueError("r must be at least 2")
        edges = host.edges
        cands = [
            frozenset(c)
            for c in combinations(range(host.n), r)
            if all((a, b) in edges for a, b in combinations(c, 2))
        ]
        return FactorInstance(host, r, tuple(cands))


def has_kr_factor(g: SimpleGraph, r: int) -> list[frozenset[int]] | None:
    """Exact decision: disjoint r-cliques covering V(g), or None.

    Backtracking on the uncovered vertex with the fewest remaining candidate
    cliques; complete, so a None answer is a proof of absence.
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    if g.n % r != 0:
        return None
    if g.n == 0:
        return []
    inst = FactorInstance.build(g, r)
    by_vertex: dict[int, list[frozenset[int]]] = {v: [] for v in range(g.n)}
    for c in inst.candidates:
        for v in c:
            by_vertex[v].append(c)

    covered: set[int] = set()
    chosen: list[frozenset[int]] = []
    dead_states: set[frozenset[int]] = set()  # memo of refuted covered-sets

    def feasible_cands(v: int) -> list[frozenset[int]]:
        return [c for c in by_vertex[v] if not (c & covered)]

    def solve() -> bool:
        if len(covered) == g.n:
            return True
        state = frozenset(covered)
        if state in dead_states:
            return False
        pool = [v for v in range(g.n) if v not in covered]
        pivot = min(pool, key=lambda v: (len(feasible_cands(v)), v))
        for c in sorted(feasible_cands(pivot), key=sorted):
            covered.update(c)
            chosen.append(c)
            if solve():
                return True
            chosen.pop()
            covered.difference_update(c)
        dead_states.add(state)
        return False

    return chosen if solve() else None


# ---------------------------------------------------------------------------
# Exhaustive partition search (the differential-testing oracle)


def brute_force_partition(
    g: SimpleGraph,
    sizes: Sequence[int],
    mode: str = "nearly-connected",
    power_k: int | None = None,
    size_limit: int = 16,
    force: bool = False,
) -> list[frozenset[int]] | None:
    """Complete backtracking search for a partition with the given part sizes.

    Modes: ``nearly-connected`` accepts parts that are nearly connected in g;
    ``clique-in-power`` accepts parts inducing cliques in g**power_k.  Part
    order symmetry is eliminated by always seeding the next part with the
    lowest unassigned vertex, so a None answer is exhaustive.  Instances with
    more than `size_limit` vertices are refused unless `force` is set.
    """
    if sum(sizes) != g.n:
        raise ValueError(f"sizes sum to {sum(sizes)}, expected n={g.n}")
    if any(s < 1 for s in sizes):
        raise ValueError("all part sizes must be positive")
    if g.n > size_limit and not force:
        raise InstanceTooLarge(
            f"n={g.n} exceeds the exhaustive-search limit {size_limit} (pass force=True to override)"
        )
    if mode == "nearly-connected":
        def part_ok(p: frozenset[int]) -> bool:
            return len(p) == 1 or is_nearly_connected(g, p) is not None
    elif mode == "clique-in-power":
        if power_k is None:
            raise ValueError("clique-in-power mode needs power_k")
        pow_edges = graph_power(g, power_k).edges
        def part_ok(p: frozenset[int]) -> bool:
            return all((a, b) in pow_edges for a, b in combinations(sorted(p), 2))
    else:
        raise ValueError(f"unknown mode {mode!r}")

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
                if not part_ok(part):
                    continue
                unassigned.difference_update(part)
                result.append(part)
                if solve(tuple(nxt)):
                    return True
                result.pop()
                unassigned.update(part)
        return False

    return result if solve(tuple(sorted(sizes))) else None
