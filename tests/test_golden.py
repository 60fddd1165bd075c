"""Partitions and step traces must match the committed golden fixture.

The fixture is written by ``tests/data/make_golden.py``; a change that alters
engine output on purpose regenerates it and says so.
"""

import hashlib
import json
from pathlib import Path

from quadparts.engine import partition_with_trace
from quadparts.graphs import SimpleGraph

FIXTURE = Path(__file__).parent / "data" / "golden_partitions.jsonl"


def test_partitions_and_traces_match_fixture():
    records = [json.loads(line) for line in FIXTURE.read_text(encoding="utf-8").splitlines()]
    assert len(records) >= 300
    for rec in records:
        g = SimpleGraph.from_edges(rec["n"], rec["edges"])
        partition, trace = partition_with_trace(g)
        digest = hashlib.sha256("\n".join(s.format() for s in trace).encode()).hexdigest()
        assert partition.as_lists() == rec["parts"], rec["name"]
        assert digest == rec["trace_sha256"], rec["name"]
