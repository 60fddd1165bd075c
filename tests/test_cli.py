import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import quadparts
from quadparts.cli import run
from quadparts.graphio import emit_edge_list, parse_edge_list
from quadparts.graphs import graph_power

from .support import cycle_graph


@pytest.fixture
def capture(monkeypatch, capsys):
    def invoke(argv, stdin=""):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = run(argv)
        out = capsys.readouterr()
        return code, out.out, out.err
    return invoke


def test_partition_stdin_json(capture):
    code, out, _ = capture(["partition", "-", "--json"], stdin=emit_edge_list(cycle_graph(8)))
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and len(payload["parts"]) == 2
    assert all(len(p) == 4 for p in payload["parts"])


def test_partition_trace_goes_to_stderr(capture):
    code, out, err = capture(["partition", "-", "--trace"], stdin=emit_edge_list(cycle_graph(4)))
    assert code == 0
    assert "verified" in out
    assert "kind=" in err and "mod4=1" in err


def test_gen_pipe_factor_finds_no_factor(capture):
    code, spider_text, _ = capture(["gen", "spider", "-r", "4"])
    assert code == 0
    code, out, _ = capture(["factor", "-", "-r", "4", "-k", "5"], stdin=spider_text)
    assert code == 0
    assert "no K4-factor" in out


def test_gen_pipe_factor_finds_one(capture):
    code, spider_text, _ = capture(["gen", "spider", "-r", "4"])
    code, out, _ = capture(["factor", "-", "-r", "4", "-k", "6", "--json"], stdin=spider_text)
    assert code == 0
    assert json.loads(out)["factor"] is not None


def test_gen_subdivided_k4_partition(capture):
    code, text, _ = capture(["gen", "subdivided-k4", "-r", "4"])
    assert code == 0
    code, out, _ = capture(["partition", "-", "--json"], stdin=text)
    assert code == 0
    assert len(json.loads(out)["parts"]) == 6


def test_power_emits_edge_list(capture):
    code, out, _ = capture(["power", "-", "-k", "2"], stdin="4\n0 1\n1 2\n2 3\n")
    assert code == 0
    got = parse_edge_list(out)
    assert got.edges == graph_power(parse_edge_list("4\n0 1\n1 2\n2 3\n"), 2).edges


def test_verify_overlap_exits_one(capture):
    code, out, _ = capture(
        ["verify", "-", "--parts", "[[0,1,2,3],[3,4,5,6]]"],
        stdin=emit_edge_list(cycle_graph(8)),
    )
    assert code == 1
    assert "invalid" in out


def test_verify_good_partition(capture):
    code, out, _ = capture(
        ["verify", "-", "--parts", "[[0,1,2,3],[4,5,6,7]]"],
        stdin=emit_edge_list(cycle_graph(8)),
    )
    assert code == 0


def test_verify_size_mismatch_exits_one(capture):
    code, out, err = capture(
        ["verify", "-", "--parts", "[[0,1,2,3],[4,5,6,7]]", "--sizes", "3,5"],
        stdin=emit_edge_list(cycle_graph(8)),
    )
    assert (code, err) == (1, "")
    assert "part sizes [4, 4] do not match expected [3, 5]" in out


@pytest.mark.parametrize("stray", [8, -1])
def test_verify_unknown_vertex_exits_one(capture, stray):
    code, out, err = capture(
        ["verify", "-", "--parts", f"[[0,1,2,3],[4,5,6,{stray}]]"],
        stdin=emit_edge_list(cycle_graph(8)),
    )
    assert (code, err) == (1, "")
    assert f"unknown vertices in parts: [{stray}]" in out


def test_partition_reads_a_graph_file(capture, tmp_path):
    path = tmp_path / "c8.txt"
    path.write_text(emit_edge_list(cycle_graph(8)), encoding="utf-8")
    code, out, _ = capture(["partition", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["parts"] == [[0, 1, 2, 7], [3, 4, 5, 6]]


def test_partition_reads_an_edge_list_with_a_commented_header(capture, tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("4#order\n0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    code, out, err = capture(["partition", str(path), "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["parts"] == [[0, 1, 2, 3]]


def test_partition_reads_a_file_with_a_byte_order_mark(capture, tmp_path):
    path = tmp_path / "c8.txt"
    path.write_text(emit_edge_list(cycle_graph(8)), encoding="utf-8-sig")
    for fmt in ([], ["--format", "edge-list"]):
        code, out, err = capture(["partition", str(path), "--json", *fmt])
        assert (code, err) == (0, ""), fmt
        assert json.loads(out)["parts"] == [[0, 1, 2, 7], [3, 4, 5, 6]]


def test_tree_partition_sizes(capture):
    code, out, _ = capture(
        ["tree-partition", "-", "--sizes", "3,3", "--json"],
        stdin="6\n0 1\n1 2\n2 3\n3 4\n4 5\n",
    )
    assert code == 0
    payload = json.loads(out)
    assert sorted(len(p) for p in payload["parts"]) == [3, 3]


def test_explore_small_order_enumerates(capture):
    code, out, _ = capture(["explore", "--sizes", "2,2"])
    assert code == 0
    assert "0 failures" in out


def test_explore_order8_sample(capture):
    code, out, _ = capture(["explore", "--sizes", "3,5", "--count", "25"])
    assert code == 0
    assert "0 failures" in out


def test_explore_rejects_a_count_below_one(capture):
    for count in ("-3", "0"):
        code, out, err = capture(["explore", "--sizes", "3,5", "--count", count])
        assert (code, out, err) == (2, "", f"error: --count must be at least 1, got {count}\n"), count


def test_partition_rejects_a_graph6_file_with_two_graphs(capture, tmp_path):
    path = tmp_path / "two.g6"
    path.write_text("Cr\nC~\n", encoding="utf-8")
    for fmt in ("auto", "graph6"):
        code, out, err = capture(["partition", str(path), "--format", fmt, "--json"])
        assert (code, out) == (2, "") and err.startswith("error: line 2: a second graph6 graph"), (fmt, err)


def test_labels_dump(capture):
    code, out, _ = capture(["labels"])
    assert code == 0
    assert "L21" in out and "S5-" in out


def test_usage_errors_exit_two(capture):
    assert capture(["tree-partition", "-", "--sizes", "2,9"],
                   stdin=emit_edge_list(cycle_graph(8)))[0] == 2
    assert capture(["partition", "-"], stdin="not a graph\n0 0\n")[0] == 2
    assert capture(["nonsense"])[0] == 2
    assert capture(["partition", "/does/not/exist"])[0] == 2
    assert capture(["power", "-", "-k", "2"], stdin="Cé\n")[0] == 2
    c8 = emit_edge_list(cycle_graph(8))
    for entry in ('"x"', "7.5", "[7]", "7.0", "true"):
        code, _, err = capture(["verify", "-", "--parts", f"[[0,1,2,3],[4,5,6,{entry}]]"], stdin=c8)
        assert (code, err) == (2, "error: --parts vertices must be JSON integers\n"), entry
    code, _, err = capture(["factor", "-", "-r", "4", "-k", "0"], stdin=c8)
    assert (code, err) == (2, "error: power must be at least 1\n")


def test_unreadable_graph_path_is_a_usage_error(capture, tmp_path):
    code, out, err = capture(["partition", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Is a directory" in err and str(tmp_path) in err


def test_partition_rejects_odd_order(capture):
    code, _, err = capture(["partition", "-"], stdin=emit_edge_list(cycle_graph(6)))
    assert code == 2
    assert "divisible" in err


def test_partition_rejects_a_large_header_before_allocating_for_it(capture, tmp_path):
    """A 12-byte edge list that declares 10**6 vertices and holds one edge
    is not 2-connected; it is rejected from its edge count, before anything
    is built per vertex."""
    path = tmp_path / "header.txt"
    path.write_text("1000000\n0 1\n", encoding="utf-8")
    tracemalloc.start()
    try:
        code, out, err = capture(["partition", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", "error: graph is not 2-connected\n")
    assert peak < 2**20, peak


def test_factor_answers_an_isolated_vertex_before_the_power(tmp_path):
    """The same 12-byte file has an isolated vertex, so no power of it has a
    K4-factor; `factor` says so without building the power or listing
    4-sets.  It runs in a child process, which the time limit can stop."""
    path = tmp_path / "header.txt"
    path.write_text("1000000\n0 1\n", encoding="utf-8")
    probe = ("import sys, tracemalloc; from quadparts.cli import run; tracemalloc.start(); "
             "code = run(sys.argv[1:]); print(tracemalloc.get_traced_memory()[1], file=sys.stderr); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(Path(quadparts.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe, "factor", str(path), "-r", "4", "-k", "2"], env=env,
                         capture_output=True, text=True, timeout=30)
    assert (out.returncode, out.stdout) == (0, "no K4-factor in the power k=2\n")
    assert int(out.stderr) < 2**20, out.stderr


def test_factor_lists_the_cliques_of_a_long_cycle_power_from_its_edges(tmp_path):
    """The 4th power of a 200-cycle has C(200, 4) = 64.7 million sets of
    four vertices but only 800 cliques on four; `factor` lists the cliques
    and finds the blocks {4i, ..., 4i + 3}.  It runs in a child process,
    which the time limit can stop."""
    path = tmp_path / "cycle.txt"
    path.write_text(emit_edge_list(cycle_graph(200)), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(quadparts.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-m", "quadparts.cli", "factor", str(path), "-r", "4", "-k", "4", "--json"],
                         env=env, capture_output=True, text=True, timeout=10)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["factor"] == [list(range(4 * i, 4 * i + 4)) for i in range(50)]


def test_power_of_a_long_cycle_searches_only_k_levels(tmp_path):
    """The 4th power of a 20,000-cycle joins each vertex to the 8 within
    distance 4; `power` finds them with searches stopped after 4 levels,
    not one whole search per vertex.  It runs in a child process, which
    the time limit can stop."""
    path = tmp_path / "cycle.txt"
    path.write_text(emit_edge_list(cycle_graph(20000)), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(quadparts.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-m", "quadparts.cli", "power", str(path), "-k", "4"],
                         env=env, capture_output=True, text=True, timeout=10)
    assert out.returncode == 0, out.stderr
    power = parse_edge_list(out.stdout)
    assert power.n == 20000 and power.edges == {(min(i, j), max(i, j)) for i in range(20000)
                                                for j in ((i + d) % 20000 for d in range(1, 5))}


def test_partition_identity_labelled_long_cycle(capture):
    """Its realization cascade is about 2000 gadgets deep."""
    code, out, _ = capture(["partition", "-", "--json"], stdin=emit_edge_list(cycle_graph(2000)))
    assert code == 0
    assert json.loads(out)["ok"]


def test_unexpected_exception_exits_three(capture, monkeypatch):
    def overflow(g):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("quadparts.cli.partition_with_trace", overflow)
    code, out, err = capture(["partition", "-"], stdin=emit_edge_list(cycle_graph(8)))
    assert code == 3
    assert out == ""
    assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"
