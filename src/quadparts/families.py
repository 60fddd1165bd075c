"""Extremal graph families and test-corpus generators.

The three named families are the tight examples for clique factors in graph
powers: the spider tree (subdivided star), the subdivided complete graph on
four vertices, and the theta graph of internally disjoint equal-length paths.
Vertex numbering is fixed per family (branch vertices first, then subdivision
vertices leg-major) so outputs are reproducible.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from typing import Iterator

from .graphs import SimpleGraph, is_biconnected


def _subdivide_path(edges: list[tuple[int, int]], u: int, v: int, count: int, next_id: int) -> int:
    """Append a u-v path with `count` internal vertices; return the next free id."""
    prev = u
    for _ in range(count):
        edges.append((prev, next_id))
        prev = next_id
        next_id += 1
    edges.append((prev, v))
    return next_id


def spider(r: int) -> SimpleGraph:
    """Star with r+1 legs, each edge subdivided r-2 times: a tree on r*r vertices.

    Vertex 0 is the center, 1..r+1 are the leaves, subdivision vertices follow
    leg-major.  Leaves are pairwise at distance 2r-2.
    """
    if r < 2:
        raise ValueError("spider needs r >= 2")
    legs = r + 1
    edges: list[tuple[int, int]] = []
    nxt = legs + 1
    for leaf in range(1, legs + 1):
        nxt = _subdivide_path(edges, 0, leaf, r - 2, nxt)
    g = SimpleGraph.from_edges(nxt, edges)
    assert g.n == r * r
    return g


def subdivided_k4(r: int) -> SimpleGraph:
    """Complete graph on 4 vertices with five edges subdivided r-1 times and
    one designated edge (0,1) subdivided r+1 times: 6r vertices, 2-connected.
    """
    if r < 2:
        raise ValueError("subdivided-k4 needs r >= 2")
    edges: list[tuple[int, int]] = []
    nxt = 4
    nxt = _subdivide_path(edges, 0, 1, r + 1, nxt)  # the long edge
    for u, v in ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        nxt = _subdivide_path(edges, u, v, r - 1, nxt)
    g = SimpleGraph.from_edges(nxt, edges)
    assert g.n == 6 * r
    return g


def theta(r: int) -> SimpleGraph:
    """r+2 internally disjoint paths of length r between vertices 0 and 1.

    Has r*r + r vertices.  The no-factor property of its (r-1)st power is
    asserted only for even r; odd r is still generated for exploration.
    """
    if r < 2:
        raise ValueError("theta needs r >= 2")
    edges: list[tuple[int, int]] = []
    nxt = 2
    for _ in range(r + 2):
        nxt = _subdivide_path(edges, 0, 1, r - 1, nxt)
    g = SimpleGraph.from_edges(nxt, edges)
    assert g.n == r * r + r
    return g


def random_2connected(n: int, seed: int) -> SimpleGraph:
    """Random 2-connected graph: a cycle on a random permutation plus fair-coin chords."""
    if n < 3:
        raise ValueError("random 2-connected graphs need n >= 3")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {tuple(sorted((perm[i], perm[(i + 1) % n]))) for i in range(n)}
    for pair in combinations(range(n), 2):
        if pair not in edges and rng.random() < 0.5:
            edges.add(pair)
    g = SimpleGraph(n, frozenset(edges))
    assert is_biconnected(g)
    return g


def canonical_form(g: SimpleGraph) -> tuple:
    """Exact canonical form by minimizing the adjacency bitstring over all
    n! vertex permutations (720 for n = 6, 5040 for n = 7); refused above
    n = 7."""
    if g.n > 7:
        raise ValueError("exact canonicalization is limited to n <= 7")
    pairs = list(combinations(range(g.n), 2))
    best: tuple | None = None
    for perm in permutations(range(g.n)):
        key = tuple(
            1 if tuple(sorted((perm[u], perm[v]))) in g.edges else 0 for u, v in pairs
        )
        if best is None or key < best:
            best = key
    return (g.n, best)


def enumerate_2connected(n: int) -> Iterator[SimpleGraph]:
    """One 2-connected graph on vertex set 0..n-1 per isomorphism class, as
    edge subsets of K_n.

    Each 2-connected subset is canonicalized over all n! permutations: n = 5
    took 0.12 s (10 classes) and n = 6 took 51-64 s (56 classes) on 2 vCPUs;
    n = 7 (2^21 subsets, 5040 permutations each) was not run.  Refused above
    n = 7; use graph6 streams for larger n.
    """
    if n < 3:
        raise ValueError("2-connected graphs need n >= 3")
    if n > 7:
        raise ValueError("exhaustive enumeration is limited to n <= 7")
    pairs = list(combinations(range(n), 2))
    seen: set[tuple] = set()
    # A 2-connected graph has minimum degree >= 2, hence at least n edges.
    for mask in range(1 << len(pairs)):
        if bin(mask).count("1") < n:
            continue
        edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        if min(deg) < 2:
            continue
        g = SimpleGraph(n, edges)
        if not is_biconnected(g):
            continue
        key = canonical_form(g)
        if key in seen:
            continue
        seen.add(key)
        yield g


def random_corpus(n: int, count: int, base_seed: int = 0) -> list[SimpleGraph]:
    """`count` distinct random 2-connected graphs on n vertices (distinct as
    labeled edge sets), seeded deterministically."""
    out: list[SimpleGraph] = []
    seen: set[frozenset] = set()
    seed = base_seed
    while len(out) < count:
        g = random_2connected(n, seed)
        seed += 1
        if g.edges in seen:
            continue
        seen.add(g.edges)
        out.append(g)
    return out
