"""Wall time and low-point searches of whole partitions on large shapes.

Usage, from the repository root::

    PYTHONPATH=src python -m tests.scale_index [--only NAME ...]

For each input it prints the wall time of one ``partition_with_trace`` call
and how many low-point searches (``graphs._low_points`` runs, of g or of
g - u) that call made, in total and per vertex.  The searches are a
deterministic count, so they compare two versions of the engine without
timing noise; the wall time depends on the machine.  This is a script, not
a test module, so the tier-1 suite does not run it; it needs networkx for
the random cubic blocks.
"""

from __future__ import annotations

import argparse
import time

import networkx as nx

from quadparts import graphs
from quadparts.engine.driver import partition_with_trace
from quadparts.graphs import SimpleGraph, norm_edge

from .support import relabelled, sparse_block


def cubic(n: int, seed: int) -> SimpleGraph:
    """A random 3-regular graph from networkx, with its ids permuted."""
    g = nx.random_regular_graph(3, n, seed)
    return relabelled(SimpleGraph.from_edges(n, g.edges), seed)


def circulant(n: int, steps: tuple[int, ...]) -> SimpleGraph:
    """Vertex i joined to i + s and i - s (mod n) for each s in `steps`."""
    return SimpleGraph.from_edges(n, {norm_edge(i, (i + s) % n) for i in range(n) for s in steps})


def grid(rows: int, cols: int, wrap: bool = False) -> SimpleGraph:
    """The rows x cols grid, with each row closed into a cycle if `wrap`:
    the cylinder rows x cols, a path of `rows` rings of `cols` vertices."""
    n = rows * cols
    edges = [(v, v + 1) for v in range(n) if (v + 1) % cols] + [(v, v + cols) for v in range(n - cols)]
    if wrap:
        edges += [(v, v + cols - 1) for v in range(0, n, cols)]
    return SimpleGraph.from_edges(n, edges)


def prism(k: int) -> SimpleGraph:
    """Two k-cycles joined by a perfect matching: the circular ladder."""
    return SimpleGraph.from_edges(2 * k, [(i, (i + 1) % k) for i in range(k)]
                                  + [(k + i, k + (i + 1) % k) for i in range(k)] + [(i, k + i) for i in range(k)])


# Every input has its ids permuted with seed 1: in identity order the engine
# meets the regular shapes' vertices in an order that hides their cost.
SHAPES = {
    "cubic 800": lambda: cubic(800, 1),
    "cubic 3200": lambda: cubic(3200, 1),
    "sparse_block(4096)": lambda: relabelled(sparse_block(4096, 1), 1),
    "prism 400": lambda: relabelled(prism(200), 1),
    "Möbius 400": lambda: relabelled(circulant(400, (1, 200)), 1),
    "grid 30x30": lambda: relabelled(grid(30, 30), 1),
    "cylinder 40x10": lambda: relabelled(grid(40, 10, wrap=True), 1),
    "cylinder 10x40": lambda: relabelled(grid(10, 40, wrap=True), 1),
}


def measure(g: SimpleGraph) -> tuple[float, int]:
    """Seconds of one partition of g, and the low-point searches it ran."""
    runs = 0
    real = graphs._low_points

    def counted(*args, **kwargs):
        nonlocal runs
        runs += 1
        return real(*args, **kwargs)

    graphs._low_points = counted
    try:
        start = time.perf_counter()
        partition_with_trace(g)
        return time.perf_counter() - start, runs
    finally:
        graphs._low_points = real


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", choices=sorted(SHAPES), help="measure only these inputs")
    names = parser.parse_args().only or list(SHAPES)
    print(f"{'input':<20} {'n':>5} {'wall s':>8} {'searches':>9} {'per vertex':>10}")
    for name in names:
        g = SHAPES[name]()
        wall, runs = measure(g)
        print(f"{name:<20} {g.n:>5} {wall:>8.2f} {runs:>9} {runs / g.n:>10.3f}", flush=True)


if __name__ == "__main__":
    main()
