"""Seeded benchmark inputs, generated without importing quadparts.

Every input is a dict with the keys ``name``, ``n``, ``edges`` (sorted
``[u, v]`` pairs with ``u < v``), ``fault`` and ``format``.  ``fault`` is
``None`` for an input that must partition, or the name of a known fault of
the program that the input triggers; such inputs never depend on the seed.
``format`` is the file format the ``cli`` workload writes the graph in.

The same ``(workload, seed)`` always gives the same inputs: each input draws
from its own ``random.Random`` seeded with a string, which Python hashes
deterministically.
"""

from __future__ import annotations

import random
from itertools import combinations

RECURSION_FAULT = "RecursionError"

# The realization cascade recurses about 4.7 frames per vertex of a long
# path contracted in label order.  The failing inputs keep their natural
# labels and need about 1900 (cycle_400) and 1800 (theta3_600) frames;
# the passing ones are randomly labelled, n <= 160, and need under 200.
# Against Python's default limit of 1000, a few extra frames in the caller
# flip neither set.
CHAIN_MAX_PASSING_N = 160


def _rng(workload: str, seed: int, name: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{name}")


def _input(name: str, n: int, edges, fault: str | None = None) -> dict:
    pairs = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return {"name": name, "n": n, "edges": [list(p) for p in pairs], "fault": fault,
            "format": "graph6" if n <= 62 else "edge-list"}


def _relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def _cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def dense_graph(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Hamiltonian cycle plus a uniformly chosen half of the other pairs.

    Each other pair is present with probability 1/2, but the edge count is
    fixed, so that the work per input varies less from seed to seed.
    """
    cyc = {(min(u, v), max(u, v)) for u, v in _relabel(n, _cycle_edges(n), rng)}
    rest = [p for p in combinations(range(n), 2) if p not in cyc]
    return sorted(cyc) + rng.sample(rest, len(rest) // 2)


def sparse_graph(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Cycle plus n/4 chords with distinct endpoints spanning at least n/8 steps."""
    free = list(range(n))
    rng.shuffle(free)
    chords = []
    for _ in range(n // 4):
        a = free.pop()
        b = rng.choice([b for b in free if min((a - b) % n, (b - a) % n) >= n // 8])
        free.remove(b)
        chords.append((a, b))
    return _relabel(n, _cycle_edges(n) + chords, rng)


def _paths(poles: list[tuple[int, int]], inner: list[int], first_free: int) -> tuple[int, list]:
    """Join each pole pair by a path with the given number of inner vertices."""
    edges = []
    nxt = first_free
    for (u, v), count in zip(poles, inner):
        prev = u
        for _ in range(count):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, v))
    return nxt, edges


def _composition(total: int, parts: int, lo: int, hi: int, rng: random.Random) -> list[int]:
    """Random list of `parts` integers in [lo, hi] summing to `total`."""
    if not parts * lo <= total <= parts * hi:
        raise ValueError(f"cannot split {total} into {parts} parts in [{lo}, {hi}]")
    out = [lo] * parts
    for _ in range(total - parts * lo):
        out[rng.choice([i for i in range(parts) if out[i] < hi])] += 1
    return out


def theta_graph(n: int, paths: int, rng: random.Random | None) -> list[tuple[int, int]]:
    """Two poles joined by `paths` internally disjoint paths, n vertices in all.

    With an rng the path lengths and vertex labels are random; without one
    the lengths are as equal as possible and the labels fixed.
    """
    inner_total = n - 2
    if rng is None:
        inner = [inner_total // paths + (i < inner_total % paths) for i in range(paths)]
    else:
        inner = _composition(inner_total, paths, 1, inner_total // 2, rng)
    nxt, edges = _paths([(0, 1)] * paths, inner, 2)
    assert nxt == n
    return edges if rng is None else _relabel(n, edges, rng)


def subdivided_k4_graph(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """K4 with its six edges subdivided, n vertices in all, random lengths and labels."""
    k4 = list(combinations(range(4), 2))
    inner = _composition(n - 4, 6, 1, (n - 4) // 3, rng)
    nxt, edges = _paths(k4, inner, 4)
    assert nxt == n
    return _relabel(n, edges, rng)


def _dense(seed: int) -> list[dict]:
    sizes = [16, 20, 24, 24]
    return [_input(f"dense{n}_{i}", n, dense_graph(n, _rng("dense", seed, f"{n}_{i}")))
            for i, n in enumerate(sizes)]


def _sparse(seed: int) -> list[dict]:
    sizes = [64, 96, 128, 128]
    return [_input(f"sparse{n}_{i}", n, sparse_graph(n, _rng("sparse", seed, f"{n}_{i}")))
            for i, n in enumerate(sizes)]


def _chain_shapes(workload: str, seed: int, specs) -> list[dict]:
    out = []
    for i, (shape, n) in enumerate(specs):
        assert n <= CHAIN_MAX_PASSING_N
        rng = _rng(workload, seed, f"{shape}{n}_{i}")
        if shape == "cycle":
            edges = _relabel(n, _cycle_edges(n), rng)
        elif shape.startswith("theta"):
            edges = theta_graph(n, int(shape[5:]), rng)
        else:
            edges = subdivided_k4_graph(n, rng)
        out.append(_input(f"{shape}_{n}_{i}", n, edges))
    return out


def _faults() -> list[dict]:
    """Seed-independent inputs that overflow the recursive realization cascade."""
    return [
        _input("cycle_400", 400, _cycle_edges(400), RECURSION_FAULT),
        _input("theta3_600", 600, theta_graph(600, 3, None), RECURSION_FAULT),
    ]


def _chains(seed: int) -> list[dict]:
    specs = [("cycle", 96), ("cycle", 128), ("cycle", 160), ("cycle", 160),
             ("theta3", 120), ("theta3", 160), ("theta4", 160), ("theta6", 160),
             ("k4", 100), ("k4", 128), ("k4", 160), ("k4", 160)]
    return _chain_shapes("chains", seed, specs) + _faults()


def _cli(seed: int) -> list[dict]:
    out = [_input(f"dense{n}_{i}", n, dense_graph(n, _rng("cli", seed, f"dense{n}_{i}")))
           for i, n in enumerate([16, 16])]
    out += [_input(f"sparse{n}_{i}", n, sparse_graph(n, _rng("cli", seed, f"sparse{n}_{i}")))
            for i, n in enumerate([48, 64])]
    out += _chain_shapes("cli", seed, [("cycle", 60), ("theta3", 120), ("k4", 160), ("k4", 160)])
    return out + _faults()[:1]


WORKLOADS = {"dense": _dense, "sparse": _sparse, "chains": _chains, "cli": _cli}


def build(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](seed)


def graph6(n: int, edges) -> str:
    """graph6 encoding (n <= 62) of a graph given by its edge list."""
    if n > 62:
        raise ValueError("graph6 here supports n <= 62")
    present = {(u, v) for u, v in edges}
    bits = [1 if (u, v) in present else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    out = [n + 63] + [63 + int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)]
    return bytes(out).decode("ascii")


def edge_list(n: int, edges) -> str:
    return "\n".join([str(n)] + [f"{u} {v}" for u, v in edges]) + "\n"
