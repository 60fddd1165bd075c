"""Partitions and step traces must match the committed golden fixtures.

The fixtures are written by ``tests/data/make_golden.py``; a change that
alters engine output on purpose regenerates them and says so.
"""

import hashlib
import json
from pathlib import Path

from quadparts.engine import partition_with_trace
from quadparts.graphs import SimpleGraph

from .sweeps import stub_realization_lines

DATA = Path(__file__).parent / "data"


def _check_fixture(name: str) -> int:
    records = [json.loads(line) for line in (DATA / name).read_text(encoding="utf-8").splitlines()]
    for rec in records:
        g = SimpleGraph.from_edges(rec["n"], rec["edges"])
        partition, trace = partition_with_trace(g)
        digest = hashlib.sha256("\n".join(s.format() for s in trace).encode()).hexdigest()
        assert partition.as_lists() == rec["parts"], rec["name"]
        assert digest == rec["trace_sha256"], rec["name"]
    return len(records)


def test_partitions_and_traces_match_fixture():
    assert _check_fixture("golden_partitions.jsonl") >= 300


def test_dense_partitions_and_traces_match_fixture():
    """Dense blocks of order 24 to 48, where almost every step is a strip."""
    assert _check_fixture("golden_dense.jsonl") == 12


def test_deep_partitions_and_traces_match_fixture():
    """Identity-labelled chains whose realization cascades are hundreds of
    gadgets deep, recorded by the recursive cascade under a raised
    recursion limit."""
    assert _check_fixture("golden_deep.jsonl") == 3


def test_stub_realizations_match_fixture():
    """Every lift swept over stub children, and partition_tree on seeded
    random trees, realizes exactly what was recorded."""
    recorded = (DATA / "golden_stub_realizations.jsonl").read_text(encoding="utf-8").splitlines()
    assert stub_realization_lines() == recorded
