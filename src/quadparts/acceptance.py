"""The acceptance suite: every release-gating property in one runnable module.

Each criterion is a function returning (ok, detail).  ``run_all`` prints one
pass/fail line per criterion; the pytest suite calls the same functions so
the CLI selftest and the test suite cannot drift apart.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Callable

from .engine import find_reduction, init_labeled, partition_with_trace
from .engine.driver import apply_reduction
from .families import enumerate_2connected, random_corpus, spider, subdivided_k4, theta
from .graphs import SimpleGraph, graph_power, induced_is_connected
from .labels import LABELS, TreeSet, admits, involution, leq
from .oracle import brute_force_partition, has_kr_factor, verify_partition
from .treepart import partition_tree

import random


def _partition_and_verify(g: SimpleGraph) -> tuple[bool, str]:
    partition, _ = partition_with_trace(g)
    res = verify_partition(g, partition.member_sets())
    if not res.ok:
        return False, "; ".join(res.problems)
    return True, ""


def criterion_1_exhaustive_main(fast: bool = False) -> tuple[bool, str]:
    """Every 2-connected graph of order 4 and large random corpora of order
    8 and 12 partition into verified nearly connected 4-sets."""
    count = 100 if fast else 1000
    classes = list(enumerate_2connected(4))
    if len(classes) != 3:
        return False, f"expected 3 order-4 classes, found {len(classes)}"
    corpora = [("n=4 classes", classes),
               ("n=8 corpus", random_corpus(8, count)),
               ("n=12 corpus", random_corpus(12, count, base_seed=10_000))]
    checked = 0
    for name, graphs in corpora:
        for idx, g in enumerate(graphs):
            ok, detail = _partition_and_verify(g)
            if not ok:
                return False, f"{name}[{idx}]: {detail}"
            checked += 1
    return True, f"{checked} graphs partitioned and verified"


def criterion_2_trace_invariants(fast: bool = False) -> tuple[bool, str]:
    """Replaying the reductions step by step reproduces the engine's trace,
    and weight-plus-order divisibility and blockness, recomputed from
    scratch, hold after every step across a mixed corpus."""
    count = 40 if fast else 200
    graphs = list(enumerate_2connected(4)) + random_corpus(8, count) + \
        random_corpus(12, count, base_seed=20_000)
    steps = 0
    for idx, g in enumerate(graphs):
        _, trace = partition_with_trace(g)
        lg = init_labeled(g)
        for t in trace:
            kind, detail = apply_reduction(lg, find_reduction(lg))
            if (kind, detail) != (t.kind, t.detail):
                return False, f"graph[{idx}] step {t.index}: replay gave {kind} {detail}, trace {t.format()}"
            weight = sum(le.label.weight for le in lg.edges.values())
            if (weight + len(lg.vertices)) % 4 != 0:
                return False, f"graph[{idx}] {t.format()}: divisibility broken"
            # a block by definition: one BFS on the whole graph and one per deleted vertex
            simple = SimpleGraph.from_edges(g.n, [(a, b) for _, a, b in lg.edge_tuples()])
            alive = lg.vertices
            if len(alive) < 2 or not induced_is_connected(simple, alive) or \
                    not all(induced_is_connected(simple, alive - {x}) for x in alive):
                return False, f"graph[{idx}] {t.format()}: block property broken"
            steps += 1
        if len(lg.edges) != 1:
            return False, f"graph[{idx}]: replay ends with {len(lg.edges)} edges, not 1"
    return True, f"{steps} replayed reduction steps, both invariants held"


def criterion_3_counterexamples(fast: bool = False) -> tuple[bool, str]:
    """The subdivided complete graph and the theta graph have no 4-clique
    factor in their cubes, while the 4th power of the former does."""
    g = subdivided_k4(4)
    if g.n != 24:
        return False, f"subdivided-k4(4) has {g.n} vertices, expected 24"
    if has_kr_factor(graph_power(g, 3), 4) is not None:
        return False, "found a 4-clique factor in the cube of subdivided-k4(4)"
    partition, _ = partition_with_trace(g)
    power4 = graph_power(g, 4).edges
    for part in partition.member_sets():
        if not all((a, b) in power4 for a, b in combinations(sorted(part), 2)):
            return False, f"part {sorted(part)} not a clique in the 4th power"
    t = theta(4)
    if t.n != 20:
        return False, f"theta(4) has {t.n} vertices, expected 20"
    if has_kr_factor(graph_power(t, 3), 4) is not None:
        return False, "found a 4-clique factor in the cube of theta(4)"
    return True, "both families reproduce the tight bounds"


def criterion_4_tree_bound(fast: bool = False) -> tuple[bool, str]:
    """The spider tree separates the (2r-3)rd from the (2r-2)nd power, and
    the constructive tree partition certifies the positive side."""
    s4 = spider(4)
    if s4.n != 16:
        return False, f"spider(4) has {s4.n} vertices, expected 16"
    if has_kr_factor(graph_power(s4, 5), 4) is not None:
        return False, "found a 4-clique factor in the 5th power of spider(4)"
    parts = partition_tree(s4, [4, 4, 4, 4])
    res = verify_partition(s4, [p.members for p in parts], [4, 4, 4, 4])
    power6 = graph_power(s4, 6).edges
    for p in parts:
        if len(p.witness) > 7:
            return False, f"witness {sorted(p.witness)} exceeds 7 vertices"
        if not all((a, b) in power6 for a, b in combinations(sorted(p.members), 2)):
            return False, f"part {sorted(p.members)} not a clique in the 6th power"
    s3 = spider(3)
    if s3.n != 9:
        return False, f"spider(3) has {s3.n} vertices, expected 9"
    if has_kr_factor(graph_power(s3, 3), 3) is not None:
        return False, "found a 3-clique factor in the cube of spider(3)"
    if has_kr_factor(graph_power(s3, 4), 3) is None:
        return False, "no 3-clique factor in the 4th power of spider(3)"
    return True, "spider bounds reproduced at r=3 and r=4"


def criterion_5_label_algebra(fast: bool = False) -> tuple[bool, str]:
    """Catalog duality, involution, weights and the witness search agree
    with independent brute-force scans."""
    for lab in LABELS:
        dual = involution(lab)
        if involution(dual).name != lab.name:
            return False, f"involution not self-inverse on {lab.name}"
        if set(dual.pairs) != {(q, p) for p, q in lab.pairs}:
            return False, f"pair duality broken between {lab.name} and {dual.name}"
        expect_w = int(lab.name[1])
        if lab.weight != expect_w:
            return False, f"{lab.name} carries weight {lab.weight}"
    for lab in LABELS:
        for p in TreeSet:
            for q in TreeSet:
                wit = admits(lab, p, q)
                scan = [(a, b) for a, b in lab.pairs if leq(a, p) and leq(b, q)]
                scan.sort(key=lambda ab: (ab[0].rank, ab[1].rank))
                expected = scan[0] if scan else None
                if wit != expected:
                    return False, f"admits({lab.name},{p},{q}) = {wit}, scan says {expected}"
    return True, f"{len(LABELS)} labels, {len(LABELS) * len(TreeSet) ** 2} witness queries agree"


def criterion_6_oracle_differential(fast: bool = False) -> tuple[bool, str]:
    """Exhaustive search independently finds partitions on random corpora,
    matching the constructive existence result."""
    count = 20 if fast else 250
    graphs = [(8, g) for g in random_corpus(8, count, base_seed=30_000)]
    graphs += [(12, g) for g in random_corpus(12, count, base_seed=40_000)]
    for idx, (n, g) in enumerate(graphs):
        found = brute_force_partition(g, [4] * (n // 4))
        if found is None:
            return False, f"graph[{idx}] (n={n}): exhaustive search found no partition"
        res = verify_partition(g, found)
        if not res.ok:
            return False, f"graph[{idx}] (n={n}): {'; '.join(res.problems)}"
    return True, f"{len(graphs)} graphs: search and construction agree"


def criterion_7_tree_partition_suite(fast: bool = False) -> tuple[bool, str]:
    """Random trees with random size compositions always get witnesses of
    order at most 2*size - 1 inducing connected subgraphs."""
    rounds = 40 if fast else 200
    rng = random.Random(7)
    for trial in range(rounds):
        n = rng.randint(2, 30)
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        g = SimpleGraph.from_edges(n, edges)
        sizes = []
        left = n
        while left:
            s = rng.randint(1, min(left, 6))
            sizes.append(s)
            left -= s
        parts = partition_tree(g, sizes)
        union: set[int] = set()
        for p in parts:
            if p.members & union:
                return False, f"trial {trial}: overlapping parts"
            union |= p.members
        if union != set(range(n)) or sorted(len(p.members) for p in parts) != sorted(sizes):
            return False, f"trial {trial}: coverage or sizes broken"
        for p in parts:
            if not p.members <= p.witness:
                return False, f"trial {trial}: witness misses part vertices"
            if len(p.witness) > 2 * len(p.members) - 1:
                return False, f"trial {trial}: witness bound violated"
            if not induced_is_connected(g, p.witness):
                return False, f"trial {trial}: witness not connected"
    return True, f"{rounds} random trees with random compositions"


def criterion_8_exploration_smoke(fast: bool = False) -> tuple[bool, str]:
    """Splitting order-8 blocks into a 3-set and a 5-set never fails on the
    exploration corpus (consistent with the general-sizes conjecture)."""
    count = 100 if fast else 1000
    failures = 0
    for g in random_corpus(8, count, base_seed=50_000):
        if brute_force_partition(g, [3, 5]) is None:
            failures += 1
    if failures:
        return False, f"{failures} corpus graphs admit no 3+5 split (report, not error)"
    return True, f"{count} graphs split into 3+5 with zero failures"


CRITERIA: list[tuple[str, Callable[[bool], tuple[bool, str]]]] = [
    ("1 exhaustive 4-set partitions", criterion_1_exhaustive_main),
    ("2 per-step invariants", criterion_2_trace_invariants),
    ("3 power counterexamples", criterion_3_counterexamples),
    ("4 tree power bounds", criterion_4_tree_bound),
    ("5 label algebra", criterion_5_label_algebra),
    ("6 oracle differential", criterion_6_oracle_differential),
    ("7 tree partition witnesses", criterion_7_tree_partition_suite),
    ("8 mixed-size exploration", criterion_8_exploration_smoke),
]


def run_all(fast: bool = False, out=print) -> bool:
    all_ok = True
    for name, fn in CRITERIA:
        start = time.monotonic()
        try:
            ok, detail = fn(fast)
        except Exception as exc:  # a trap or crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.monotonic() - start
        status = "PASS" if ok else "FAIL"
        out(f"[{status}] {name}: {detail} ({elapsed:.1f}s)")
        all_ok &= ok
    return all_ok
