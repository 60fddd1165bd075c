"""Output checker that shares no code with quadparts; it uses networkx.

``python3 perfbench/checker.py`` runs the self-test, which shows that the
checker accepts a valid partition and rejects an overlapping part, an
uncovered vertex, a part that is not nearly connected and a part with a
pair at distance more than 4.
"""

from __future__ import annotations

import networkx as nx


def build_graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(map(tuple, edges))
    return g


def input_problems(n: int, edges) -> list[str]:
    """Why an input is outside the engine's contract (2-connected, 4 | n), if it is."""
    problems = []
    if n < 4 or n % 4:
        problems.append(f"order {n} is not a positive multiple of 4")
    pairs = [tuple(e) for e in edges]
    if any(u == v or not (0 <= u < n and 0 <= v < n) for u, v in pairs):
        problems.append("self-loop or endpoint out of range")
    if len({frozenset(p) for p in pairs}) != len(pairs):
        problems.append("duplicate edge")
    if not problems and not nx.is_biconnected(build_graph(n, pairs)):
        problems.append("not 2-connected")
    return problems


def _nearly_connected(g: nx.Graph, part: set[int]) -> bool:
    """The part, or the part plus one vertex, induces a connected subgraph."""
    if nx.is_connected(g.subgraph(part)):
        return True
    # A vertex that connects the part must be adjacent to it.
    border = set().union(*(g[v] for v in part)) - part
    return any(nx.is_connected(g.subgraph(part | {x})) for x in sorted(border))


def partition_problems(g: nx.Graph, parts) -> list[str]:
    """Everything wrong with `parts` as a partition of V(g) into nearly connected 4-sets."""
    problems = []
    seen: set[int] = set()
    for i, raw in enumerate(parts):
        part = set(raw)
        if len(raw) != 4 or len(part) != 4:
            problems.append(f"part {i} {sorted(raw)} is not a 4-set")
        if part - set(g):
            problems.append(f"part {i} names unknown vertices {sorted(part - set(g))}")
            continue
        if part & seen:
            problems.append(f"part {i} overlaps earlier parts on {sorted(part & seen)}")
        seen |= part
        if not _nearly_connected(g, part):
            problems.append(f"part {i} {sorted(part)} is not nearly connected")
        for v in sorted(part):
            near = nx.single_source_shortest_path_length(g, v, cutoff=4)
            far = sorted(part - set(near))
            if far:
                problems.append(f"part {i}: {far} at distance > 4 from {v}")
                break
    if set(g) - seen:
        problems.append(f"vertices not covered: {sorted(set(g) - seen)}")
    return problems


def self_test() -> None:
    """Raise AssertionError unless every check fires on its own bad case."""
    c8 = build_graph(8, [(i, (i + 1) % 8) for i in range(8)])
    c12 = build_graph(12, [(i, (i + 1) % 12) for i in range(12)])

    def rejects(g, parts, phrase):
        problems = partition_problems(g, parts)
        if not any(phrase in p for p in problems):
            raise AssertionError(f"checker missed {phrase!r} in {parts}: {problems}")

    if partition_problems(c8, [[0, 1, 2, 3], [4, 5, 6, 7]]):
        raise AssertionError("checker rejects a valid partition of the 8-cycle")
    if partition_problems(c8, [[0, 1, 2, 4], [3, 5, 6, 7]]):
        raise AssertionError("checker rejects parts connected through one extra vertex")
    rejects(c8, [[0, 1, 2, 3], [3, 4, 5, 6], [7]], "overlaps")
    rejects(c8, [[0, 1, 2, 3], [4, 5, 6]], "not covered")
    rejects(c8, [[0, 2, 4, 6], [1, 3, 5, 7]], "not nearly connected")
    rejects(c12, [[0, 1, 6, 7], [2, 3, 4, 5], [8, 9, 10, 11]], "distance > 4")
    if input_problems(8, [(i, (i + 1) % 8) for i in range(8)]):
        raise AssertionError("checker rejects the 8-cycle as an input")
    if "not 2-connected" not in input_problems(8, [(i, i + 1) for i in range(7)]):
        raise AssertionError("checker accepts a path as a 2-connected input")


if __name__ == "__main__":
    self_test()
    print("checker self-test passed")
