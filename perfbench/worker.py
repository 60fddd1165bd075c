"""The process that partitions the engine workloads' inputs.

Usage: python3 perfbench/worker.py INPUTS_JSON RESULT_JSON SECONDS TRACE

Runs whole rounds of ``partition_with_trace`` over the inputs for about
SECONDS (at least one round).  With TRACE=1 it spends the first half of the
time untraced and the second half with the layer wrappers of tracer.py
installed.  It never imports the checker's libraries, so its peak resident
memory is that of the engine alone.  The result file holds per-round times,
each input's partition or error, and the span aggregate.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter

import tracer as tracing


CPUS = sorted(os.sched_getaffinity(0))  # the CPUs this process may use, read before any move


def take_cpu(turn: int) -> None:
    """Move this process, and the children it starts next, to CPU number `turn` in turn.

    On a small virtual machine each CPU's speed drifts on its own for a
    minute or more; taking turns gives every run the machine's average
    instead of whichever CPU it happened to land on.
    """
    os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


def run_rounds(partition, items, budget_s: float) -> dict:
    """Whole rounds of `partition(item)` until the next round would end after `budget_s`.

    `partition` returns the parts as sorted lists or raises.  The outcome of
    each item is that of the first round; an item whose later outcome differs
    is listed as unstable.
    """
    times: list[list[float]] = []
    outcomes: list = [None] * len(items)
    unstable: set[int] = set()
    start = perf_counter()
    while True:
        round_start = perf_counter()
        row = []
        for i, item in enumerate(items):
            take_cpu(len(times) + i)  # each input alternates between CPUs across rounds
            t0 = perf_counter()
            try:
                parts = partition(item)
            except Exception as exc:  # an operation that fails is counted, not fatal
                parts = {"error": type(exc).__name__, "message": str(exc)[:300]}
            row.append(perf_counter() - t0)
            if not times:
                outcomes[i] = parts
            elif parts != outcomes[i]:
                unstable.add(i)
        times.append(row)
        now = perf_counter()
        if now - start + (now - round_start) > budget_s:
            break
    return {"times": times, "outcomes": outcomes, "unstable": sorted(unstable)}


def main() -> int:
    inputs_path, result_path, seconds, trace = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1"
    from quadparts.engine import driver
    from quadparts.graphs import SimpleGraph

    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    graphs = [SimpleGraph(inp["n"], frozenset(map(tuple, inp["edges"]))) for inp in inputs]
    result = {"quadparts": driver.__file__}
    untraced = driver.partition_with_trace
    if trace:
        result["untraced"] = run_rounds(lambda g: untraced(g)[0].as_lists(), graphs, seconds / 2)
        tracer = tracing.Tracer()
        tracing.install_engine(tracer)
        traced = tracer.wrap("engine.partition", untraced, tracing.count_steps)
        result["traced"] = run_rounds(lambda g: traced(g)[0].as_lists(), graphs, seconds / 2)
        result["trace"] = tracer.dump()
    else:
        result["untraced"] = run_rounds(lambda g: untraced(g)[0].as_lists(), graphs, seconds)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
