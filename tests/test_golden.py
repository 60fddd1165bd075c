"""Partitions and step traces must match the committed golden fixtures.

The fixtures are written by ``tests/data/make_golden.py``; a change that
alters engine output on purpose regenerates them and says so.
"""

import ast
import hashlib
import json
import subprocess
import sys
from functools import cache
from pathlib import Path

from quadparts.engine import local, parallel, partition_with_trace, reducible, series
from quadparts.graphio import emit_edge_list
from quadparts.graphs import SimpleGraph

from .support import child_env
from .sweeps import stub_realization_lines

DATA = Path(__file__).parent / "data"


PARTITION_FIXTURES = ("golden_partitions.jsonl", "golden_dense.jsonl", "golden_deep.jsonl",
                      "golden_regular.jsonl")


@cache
def _replay(name: str) -> tuple[tuple[str, ...], ...]:
    """The step details of every record of fixture `name`, replayed once."""
    records = [json.loads(line) for line in (DATA / name).read_text(encoding="utf-8").splitlines()]
    details = []
    for rec in records:
        g = SimpleGraph.from_edges(rec["n"], rec["edges"])
        partition, trace = partition_with_trace(g)
        digest = hashlib.sha256("\n".join(s.format() for s in trace).encode()).hexdigest()
        assert partition.as_lists() == rec["parts"], rec["name"]
        assert digest == rec["trace_sha256"], rec["name"]
        details.append(tuple(s.detail for s in trace))
    return tuple(details)


def _check_fixture(name: str) -> int:
    return len(_replay(name))


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


def test_regular_partitions_and_traces_match_fixture():
    """networkx regular and G(n, p) blocks that reach the degree >= 4
    eliminations and the heavy degree-3 steps."""
    assert _check_fixture("golden_regular.jsonl") == 7


def test_partitions_and_traces_do_not_depend_on_the_hash_seed(tmp_path):
    """`quadparts partition --json --trace` prints the same bytes for the
    deep and regular fixture graphs in two child processes whose string
    hashes are seeded differently, and whose objects, and so whatever
    hashes by identity, lie at different addresses.  No output may depend
    on the order of a hashed collection."""
    paths = []
    for name in ("golden_deep.jsonl", "golden_regular.jsonl"):
        for line in (DATA / name).read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            paths.append(tmp_path / f"{rec['name']}.txt")
            paths[-1].write_text(emit_edge_list(SimpleGraph.from_edges(rec["n"], rec["edges"])), encoding="utf-8")
    probe = ("import sys; from quadparts.cli import run; "
             "sys.exit(max(run(['partition', path, '--json', '--trace']) for path in sys.argv[1:]))")
    runs = []
    for seed in ("0", "1234"):
        env = dict(child_env(), PYTHONHASHSEED=seed)
        runs.append(subprocess.run([sys.executable, "-c", probe, *map(str, paths)], env=env, capture_output=True,
                                   timeout=60))
        assert runs[-1].returncode == 0, runs[-1].stderr
    assert runs[0].stdout.count(b'"ok": true') == len(paths) == 10
    assert (runs[0].stdout, runs[0].stderr) == (runs[1].stdout, runs[1].stderr)


def test_fixtures_reach_every_step_kind():
    """The replayed fixtures run every step but absorb, which no real graph
    is known to reach."""
    reached = {detail.split("[")[0] for name in PARTITION_FIXTURES for trace in _replay(name) for detail in trace}
    assert reached == {"drop", "parallel", "series", "strip", "vertex3", "vertex3-flat",
                       "vertex4-pair", "vertex4-flat", "vertex4-light", "vertex4-heavy"}


def test_stub_realizations_match_fixture():
    """Every lift swept over stub children, and partition_tree on seeded
    random trees, realizes exactly what was recorded."""
    recorded = (DATA / "golden_stub_realizations.jsonl").read_text(encoding="utf-8").splitlines()
    assert stub_realization_lines() == recorded


def _statement_lines(path: Path) -> set[int]:
    """The first line of every statement inside a function of the module at
    `path`, except raise statements and docstrings."""
    functions = [f for f in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(f, ast.FunctionDef)]
    docstrings = {f.body[0] for f in functions if ast.get_docstring(f) is not None}
    return {s.lineno for f in functions for s in ast.walk(f)
            if isinstance(s, ast.stmt) and s is not f and s not in docstrings and not isinstance(s, ast.Raise)}


def test_stub_sweeps_reach_every_lift_statement():
    """The stub sweeps run every statement of the lift modules but their
    raise statements, so a byte-identical stub fixture checks every branch
    of a rewritten lift."""
    modules = {Path(m.__file__): _statement_lines(Path(m.__file__)) for m in (series, parallel, reducible, local)}
    ran: dict[Path, set[int]] = {path: set() for path in modules}
    files = {str(path): path for path in modules}

    def tracer(frame, event, arg):
        path = files.get(frame.f_code.co_filename)
        if path is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                ran[path].add(frame.f_lineno)
            return line
        return line(frame, event, arg)

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        stub_realization_lines()
    finally:
        sys.settrace(previous)
    missed = {path.name: sorted(lines - ran[path]) for path, lines in modules.items() if lines - ran[path]}
    assert not missed, missed
