"""Wall time and connectivity-primitive work of whole partitions on large shapes.

Usage, from the repository root::

    PYTHONPATH=src python -m tests.scale_index [--only NAME ...]

For each input it prints the wall time of one ``partition_with_trace`` call
and the vertices that call visited, as ``support.primitive_visits`` counts
them: under "pair tests" the orders of the graphs its separation-pair tests
were given (``graphs._separation_pair``), under "DFS" the vertices its
depth-first searches reached (``graphs._LowPoints``, run by every pair test
and block test), and their sum per vertex of the input.  The visits are a
deterministic count, so they compare two versions of the engine without
timing noise; the wall time depends on the machine.  This is a script, not
a test module, so the tier-1 suite does not run it; it needs networkx for
the random cubic blocks.
"""

from __future__ import annotations

import argparse
import time

import networkx as nx

from quadparts.engine.driver import partition_with_trace
from quadparts.graphs import SimpleGraph

from .support import circulant, grid, primitive_visits, prism, relabelled, sparse_block


def cubic(n: int, seed: int) -> SimpleGraph:
    """A random 3-regular graph from networkx, with its ids permuted."""
    g = nx.random_regular_graph(3, n, seed)
    return relabelled(SimpleGraph.from_edges(n, g.edges), seed)


# Every input has its ids permuted with seed 1: in identity order the engine
# meets the regular shapes' vertices in an order that hides their cost.
SHAPES = {
    "cubic 800": lambda: cubic(800, 1),
    "cubic 3200": lambda: cubic(3200, 1),
    "sparse_block(4096)": lambda: relabelled(sparse_block(4096, 1), 1),
    "prism 400": lambda: relabelled(prism(200), 1),
    "prism 800": lambda: relabelled(prism(400), 1),
    "Möbius 400": lambda: relabelled(circulant(400, (1, 200)), 1),
    "Möbius 800": lambda: relabelled(circulant(800, (1, 400)), 1),
    "grid 30x30": lambda: relabelled(grid(30, 30), 1),
    "grid 40x40": lambda: relabelled(grid(40, 40), 1),
    "cylinder 40x10": lambda: relabelled(grid(40, 10, wrap=True), 1),
    "cylinder 10x40": lambda: relabelled(grid(10, 40, wrap=True), 1),
}


def measure(g: SimpleGraph) -> tuple[float, int, int]:
    """Seconds of one partition of g, and its pair-test and DFS visits."""
    with primitive_visits() as visits:
        start = time.perf_counter()
        partition_with_trace(g)
        wall = time.perf_counter() - start
    return wall, visits["pair tests"], visits["DFS"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", choices=sorted(SHAPES), help="measure only these inputs")
    names = parser.parse_args().only or list(SHAPES)
    print(f"{'input':<20} {'n':>5} {'wall s':>8} {'pair tests':>10} {'DFS':>10} {'per vertex':>10}")
    for name in names:
        g = SHAPES[name]()
        wall, pair, dfs = measure(g)
        print(f"{name:<20} {g.n:>5} {wall:>8.2f} {pair:>10} {dfs:>10} {(pair + dfs) / g.n:>10.1f}", flush=True)


if __name__ == "__main__":
    main()
