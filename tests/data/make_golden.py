"""Write the golden fixtures ``golden_partitions.jsonl``, ``golden_dense.jsonl``,
``golden_deep.jsonl``, ``golden_regular.jsonl`` and ``golden_stub_realizations.jsonl``
beside this file.

Usage: ``PYTHONPATH=src:. python tests/data/make_golden.py`` from the repository root.

Each line holds one fixed-seed input (order and edge list), the parts the engine returns
for it, and the sha256 of its step trace (the ``TraceStep.format()`` lines
joined by newlines).  The first fixture holds many small and sparse inputs,
the second a few dense blocks (a Hamiltonian cycle plus half of the other
pairs), on which almost every step strips one edge.  The deep fixture holds
three identity-labelled chains (a 400-cycle, the 600-vertex theta of three
paths of equal length and a 396-vertex subdivided K4), whose long paths
contract in label order into a realization cascade hundreds of gadgets
deep.  The regular fixture holds seven networkx random regular and G(n, p)
blocks, each relabelled with its own generator seed, which reach the
degree >= 4 eliminations (pair, flat, light and heavy), the combined-weight-10
and combined-weight-9 degree-3 steps and the weight-8 flat elimination whose
middle edge has weight 2.  The last holds one
sha256 per builder sweep of ``tests/sweeps.py`` over every realization of
the lifts built on stub children (bound trees, subdivision paths, fragments
and parts), which pins the lifts that the partition fixtures rarely reach,
and one more for ``partition_tree`` on seeded random trees.
``tests/test_golden.py`` replays every line; a change that alters partitions,
traces or realizations on purpose regenerates the files and says so.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import networkx as nx

from quadparts.engine import partition_with_trace
from quadparts.families import random_corpus, subdivided_k4, theta
from quadparts.graphs import SimpleGraph
from tests.support import complete_graph, cycle_graph, dense_block, equal_theta, relabelled
from tests.sweeps import stub_realization_lines

FIXTURE = Path(__file__).with_name("golden_partitions.jsonl")
DENSE_FIXTURE = Path(__file__).with_name("golden_dense.jsonl")
DEEP_FIXTURE = Path(__file__).with_name("golden_deep.jsonl")
REGULAR_FIXTURE = Path(__file__).with_name("golden_regular.jsonl")
STUB_FIXTURE = Path(__file__).with_name("golden_stub_realizations.jsonl")


def cycle_with_chords(n: int, seed: int) -> SimpleGraph:
    """The cycle 0..n-1 plus between 1 and n/2 seeded random chords."""
    rng = random.Random(seed)
    cycle = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    pairs = [p for p in combinations(range(n), 2) if p not in cycle]
    return SimpleGraph(n, frozenset(cycle | set(rng.sample(pairs, rng.randint(1, n // 2)))))


def golden_inputs() -> list[tuple[str, SimpleGraph]]:
    out: list[tuple[str, SimpleGraph]] = []
    for n, count in ((8, 120), (12, 80), (16, 40)):
        out += [(f"random-{n}-{i}", g) for i, g in enumerate(random_corpus(n, count, 1000 * n))]
    for n in range(8, 65, 4):
        out += [(f"chords-{n}-{seed}", cycle_with_chords(n, seed)) for seed in range(4)]
    out += [("subdivided_k4-4", subdivided_k4(4)), ("theta-4", theta(4)),
            ("K8", complete_graph(8)), ("K12", complete_graph(12))]
    return out


def dense_inputs() -> list[tuple[str, SimpleGraph]]:
    return [(f"dense-{n}-{seed}", dense_block(n, seed)) for n in (24, 32, 40, 48)
            for seed in range(3)]


def deep_inputs() -> list[tuple[str, SimpleGraph]]:
    return [("cycle-400", cycle_graph(400)), ("theta3-600", equal_theta(600, 3)),
            ("subdivided_k4-396", subdivided_k4(66))]


def _networkx_block(name: str, graph: nx.Graph, seed: int) -> tuple[str, SimpleGraph]:
    return name, relabelled(SimpleGraph.from_edges(graph.number_of_nodes(), graph.edges()), seed)


def regular_inputs() -> list[tuple[str, SimpleGraph]]:
    """(name, graph) for the regular fixture, named after the step each input pins."""
    regular = [("vertex4-light", 5, 16, 48), ("vertex4-pair", 5, 20, 78), ("vertex4-heavy", 5, 32, 45),
               ("vertex3-weight10", 4, 20, 28), ("vertex3-flat-weight8", 6, 20, 42),
               ("vertex3-sum9-c", 3, 20, 10)]
    out = [_networkx_block(f"{step}-regular{d}-{n}-{seed}", nx.random_regular_graph(d, n, seed=seed), seed)
           for step, d, n, seed in regular]
    out.append(_networkx_block("vertex4-flat-gnp-40-4", nx.gnp_random_graph(40, 0.25, seed=4), 4))
    return out


def golden_record(name: str, g: SimpleGraph) -> dict:
    partition, trace = partition_with_trace(g)
    digest = hashlib.sha256("\n".join(step.format() for step in trace).encode()).hexdigest()
    return {"name": name, "n": g.n, "edges": [list(e) for e in g.sorted_edges()],
            "parts": partition.as_lists(), "trace_sha256": digest}


def write_fixture(path: Path, inputs: list[tuple[str, SimpleGraph]]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for name, g in inputs:
            fh.write(json.dumps(golden_record(name, g), sort_keys=True) + "\n")


def main() -> None:
    for path, inputs in ((FIXTURE, golden_inputs()), (DENSE_FIXTURE, dense_inputs()),
                         (DEEP_FIXTURE, deep_inputs()), (REGULAR_FIXTURE, regular_inputs())):
        write_fixture(path, inputs)
    STUB_FIXTURE.write_text("".join(line + "\n" for line in stub_realization_lines()), encoding="utf-8")


if __name__ == "__main__":
    main()
