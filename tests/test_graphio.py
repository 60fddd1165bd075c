import pytest

from quadparts.graphio import (
    GraphParseError,
    emit_edge_list,
    emit_graph6,
    looks_like_graph6,
    parse_edge_list,
    parse_graph,
    parse_graph6,
)
from quadparts.graphs import SimpleGraph

from .support import complete_graph, cycle_graph


def test_parse_c4():
    g = parse_edge_list("4\n0 1\n1 2\n2 3\n3 0\n")
    assert g.edges == cycle_graph(4).edges


def test_comments_and_blank_lines():
    text = "# a square\n4\n\n0 1  # first\n1 2\n2 3\n3 0\n"
    assert parse_edge_list(text).edges == cycle_graph(4).edges


def test_round_trip_edge_list():
    g = complete_graph(5)
    assert parse_edge_list(emit_edge_list(g)).edges == g.edges


def test_self_loop_rejected_with_position():
    with pytest.raises(GraphParseError) as exc:
        parse_edge_list("2\n0 0\n")
    assert "line 2" in str(exc.value)
    assert "self-loop" in str(exc.value)


def test_out_of_range_rejected():
    with pytest.raises(GraphParseError) as exc:
        parse_edge_list("3\n0 3\n")
    assert "line 2" in str(exc.value)


def test_bad_header():
    with pytest.raises(GraphParseError) as exc:
        parse_edge_list("x\n")
    assert "line 1" in str(exc.value)


def test_duplicate_edge_rejected():
    with pytest.raises(GraphParseError):
        parse_edge_list("3\n0 1\n1 0\n")


def test_graph6_k4():
    assert parse_graph6("C~").edges == complete_graph(4).edges


def test_graph6_round_trip():
    for g in (cycle_graph(4), complete_graph(6), SimpleGraph(3, frozenset())):
        assert parse_graph6(emit_graph6(g)).edges == g.edges
        assert parse_graph6(emit_graph6(g)).n == g.n


def test_graph6_bad_byte_position():
    with pytest.raises(GraphParseError) as exc:
        parse_graph6("C!")  # '!' is printable but below the graph6 range
    assert "byte 2" in str(exc.value)


def test_graph6_rejects_non_ascii_at_its_position():
    # 'é' must not pass as '?' (byte 63), which would read as an empty graph
    with pytest.raises(GraphParseError) as exc:
        parse_graph6("Cé")
    assert "byte 2" in str(exc.value)


def test_graph6_rejects_a_set_padding_bit_at_the_last_byte():
    """The bits after the last adjacency bit pad the last byte with zeros:
    "A@" sets the one padding bit of n = 2 and is not read as the empty
    graph that "A?" spells."""
    assert parse_graph6("A?").edges == frozenset()
    for line, byte in (("A@", 2), ("BA", 2), ("Dr@", 3)):
        with pytest.raises(GraphParseError, match="padding") as exc:
            parse_graph6(line)
        assert exc.value.position == f"byte {byte}", line


def test_graph6_truncated_payload():
    with pytest.raises(GraphParseError):
        parse_graph6("C")


def test_auto_format_detection():
    assert parse_graph("C~", "auto").edges == complete_graph(4).edges
    assert parse_graph("4\n0 1\n1 2\n2 3\n0 3\n", "auto").edges == cycle_graph(4).edges


def test_auto_format_strips_a_comment_on_the_header():
    """A "#" is never a graph6 byte: a header with a comment glued to it is an
    edge list."""
    text = "4#order\n0 1\n1 2\n2 3\n0 3\n"
    assert not looks_like_graph6(text)
    assert parse_graph(text, "auto").edges == cycle_graph(4).edges


def test_auto_format_reads_graph6_after_a_comment_line():
    text = "# K4\nC~  # complete\n"
    assert looks_like_graph6(text)
    assert parse_graph(text, "auto").edges == complete_graph(4).edges


def test_graph6_text_with_two_graphs_is_rejected_at_the_second():
    """A second graph is not silently dropped, whatever the format flag."""
    text = "# two graphs\nCr\n\nC~\n"
    for fmt in ("auto", "graph6"):
        with pytest.raises(GraphParseError, match="a second graph6 graph") as exc:
            parse_graph(text, fmt)
        assert exc.value.position == "line 4", fmt


def test_a_leading_byte_order_mark_is_dropped():
    """Text saved with a UTF-8 byte-order mark parses as without it, in
    every format; only one leading mark is dropped."""
    for text, fmt, want in (("\ufeff4\n0 1\n1 2\n2 3\n3 0\n", "edge-list", cycle_graph(4)),
                            ("\ufeff4\n0 1\n1 2\n2 3\n3 0\n", "auto", cycle_graph(4)),
                            ("\ufeffC~\n", "graph6", complete_graph(4)),
                            ("\ufeffC~\n", "auto", complete_graph(4))):
        assert parse_graph(text, fmt).edges == want.edges, (text, fmt)
    with pytest.raises(GraphParseError):
        parse_graph("\ufeff\ufeff4\n0 1\n1 2\n2 3\n3 0\n", "edge-list")
