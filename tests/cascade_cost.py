"""Cost of the realization cascade on long chain-like shapes.

Usage, from the repository root::

    PYTHONPATH=src python -m tests.cascade_cost [--sizes 400 1000 ...] [--only NAME ...]

The engine rewrites a block down to one labeled edge, and then ``model.drive``
replays every rewrite once to realize the nearly connected 4-sets.  For
identity and relabelled cycles, thetas on three paths and subdivided K4s,
this script partitions each input twice.  The first run is untouched but for
a wrapper that times every ``drive`` call, so it prints the wall time of the
whole partition, the part of it spent in ``drive`` and the microseconds of
``drive`` per realization.  The second run counts the realizations, by
gadget kind and by operation, at ``Gadget.start``, which every realization
passes through, a leaf's included; the counts are deterministic, so they
compare two versions of the engine without timing noise.  This is a script,
not a test module, so the tier-1 suite does not run it.
"""

from __future__ import annotations

import argparse
import time
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

from quadparts.engine import driver, model
from quadparts.engine.driver import partition_with_trace
from quadparts.graphs import SimpleGraph

from .support import cycle_graph, equal_theta, relabelled


def subdivided_k4(n: int) -> SimpleGraph:
    """K4 with its six edges subdivided into paths whose inner vertex counts
    differ by at most one, n vertices in all."""
    inner = [(n - 4) // 6 + (i < (n - 4) % 6) for i in range(6)]
    edges, nxt = [], 4
    for (a, b), count in zip(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), inner):
        path = [a, *range(nxt, nxt + count), b]
        edges += zip(path, path[1:])
        nxt += count
    return SimpleGraph.from_edges(n, edges)


SHAPES = {
    "cycle": lambda n: cycle_graph(n),
    "cycle relabelled": lambda n: relabelled(cycle_graph(n), 1),
    "theta3": lambda n: equal_theta(n, 3),
    "theta3 relabelled": lambda n: relabelled(equal_theta(n, 3), 1),
    "k4": subdivided_k4,
    "k4 relabelled": lambda n: relabelled(subdivided_k4(n), 1),
}


@contextmanager
def drive_seconds() -> Iterator[list[float]]:
    """Time every `drive` call the reduction driver makes; yields the list
    of seconds, one per call."""
    seconds: list[float] = []
    real_drive = driver.drive

    def timed(lift, sink):
        start = time.perf_counter()
        try:
            return real_drive(lift, sink)
        finally:
            seconds.append(time.perf_counter() - start)

    driver.drive = timed
    try:
        yield seconds
    finally:
        driver.drive = real_drive


@contextmanager
def realizations() -> Iterator[Counter]:
    """Count every realization started, by (gadget kind, operation kind)."""
    counts: Counter = Counter()
    real_start = model.Gadget.start

    def start(gadget, op):
        counts[gadget.kind, "subdiv" if isinstance(op, model.Subdivide) else "split"] += 1
        return real_start(gadget, op)

    model.Gadget.start = start
    try:
        yield counts
    finally:
        model.Gadget.start = real_start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", nargs="+", type=int, default=[400, 1000, 2000, 4000],
                        help="vertex counts, each a multiple of 4 (default: 400 1000 2000 4000)")
    parser.add_argument("--only", nargs="+", choices=sorted(SHAPES), help="measure only these shapes")
    args = parser.parse_args()
    if any(n < 8 or n % 4 for n in args.sizes):
        parser.error("every size must be a multiple of 4 and at least 8")
    print(f"{'input':<24} {'wall s':>8} {'drive s':>8} {'realized':>9} {'us each':>8}  by kind and operation")
    for name in args.only or list(SHAPES):
        for n in args.sizes:
            g = SHAPES[name](n)
            with drive_seconds() as seconds:
                start = time.perf_counter()
                partition_with_trace(g)
                wall = time.perf_counter() - start
            with realizations() as counts:
                partition_with_trace(g)
            total = sum(counts.values())
            kinds = ", ".join(f"{kind} {op} {c}" for (kind, op), c in sorted(counts.items()))
            print(f"{f'{name} {n}':<24} {wall:>8.3f} {sum(seconds):>8.3f} {total:>9} "
                  f"{1e6 * sum(seconds) / total:>8.1f}  {kinds}", flush=True)


if __name__ == "__main__":
    main()
