"""Command-line interface.

Commands compose through stdin/stdout (``-`` reads standard input), so
pipelines like ``quadparts gen spider -r 4 | quadparts factor - -r 4 -k 5``
work.  Exit codes: 0 success, 1 a property violation was found (failed
verification, discovered counterexample), 2 usage error, 3 internal engine
trap or any other unexpected internal error (reported as one line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import acceptance
from .engine import EngineBug, partition_with_trace
from .families import (
    enumerate_2connected,
    random_2connected,
    random_corpus,
    spider,
    subdivided_k4,
    theta,
)
from .graphio import emit_graph, parse_graph
from .graphs import SimpleGraph, graph_power
from .labels import catalog_dump
from .oracle import brute_force_partition, has_kr_factor, verify_partition
from .treepart import partition_tree

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_ENGINE = 3


class UsageError(ValueError):
    pass


def _read_graph(path: str, fmt: str) -> SimpleGraph:
    """The graph at `path` ("-" for stdin); a path that cannot be read, such
    as a missing file or a directory, is a usage error."""
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(str(exc)) from None
    return parse_graph(text, fmt)


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"sizes must be integers, got {text!r}") from None
    if not sizes or any(s < 1 for s in sizes):
        raise UsageError("sizes must be positive integers")
    return sizes


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_partition(args) -> int:
    g = _read_graph(args.graph, args.format)
    partition, trace = partition_with_trace(g)
    if args.trace:
        for step in trace:
            print(step.format(), file=sys.stderr)
    payload = {
        "ok": True,
        "n": g.n,
        "parts": partition.as_lists(),
        "witnesses": [sorted(p.witness) if p.witness else None for p in partition.parts],
    }
    lines = [f"{len(partition.parts)} parts of 4, verified"]
    lines += [f"  part {sorted(p.members)}  witness {sorted(p.witness)}" for p in partition.parts]
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_tree_partition(args) -> int:
    g = _read_graph(args.graph, args.format)
    sizes = _parse_sizes(args.sizes)
    parts = partition_tree(g, sizes)
    payload = {
        "ok": True,
        "n": g.n,
        "parts": [sorted(p.members) for p in parts],
        "witnesses": [sorted(p.witness) for p in parts],
    }
    lines = [f"{len(parts)} parts with subtree witnesses"]
    lines += [
        f"  part {sorted(p.members)} (size {len(p.members)})  witness {sorted(p.witness)}"
        f" (order {len(p.witness)} <= {2 * len(p.members) - 1})"
        for p in parts
    ]
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_power(args) -> int:
    g = _read_graph(args.graph, args.format)
    sys.stdout.write(emit_graph(graph_power(g, args.k), args.out_format))
    return EXIT_OK


def cmd_factor(args) -> int:
    g = _read_graph(args.graph, args.format)
    host = g
    # Below n/2 edges some vertex is isolated, and it stays isolated in every
    # power, so g answers for g^k without the power being built.
    if args.k is not None and (args.k < 1 or 2 * g.m >= g.n):
        host = graph_power(g, args.k)
    factor = has_kr_factor(host, args.r)
    name = f"K{args.r}-factor"
    if factor is None:
        _emit({"ok": True, "factor": None, "r": args.r, "k": args.k}, args.json,
              [f"no {name}" + (f" in the power k={args.k}" if args.k is not None else "")])
        return EXIT_OK
    payload = {"ok": True, "r": args.r, "k": args.k, "factor": [sorted(c) for c in factor]}
    lines = [f"{name} found:"] + [f"  {sorted(c)}" for c in factor]
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _read_graph(args.graph, args.format)
    try:
        parts = json.loads(args.parts)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--parts is not valid JSON: {exc}") from None
    if not isinstance(parts, list) or not all(isinstance(p, list) for p in parts):
        raise UsageError("--parts must be a JSON list of vertex lists")
    if not all(type(v) is int for p in parts for v in p):
        raise UsageError("--parts vertices must be JSON integers")
    sizes = _parse_sizes(args.sizes) if args.sizes else None
    result = verify_partition(g, [frozenset(p) for p in parts], sizes)
    payload = {"ok": result.ok, "problems": list(result.problems)}
    lines = ["valid partition"] if result.ok else ["invalid partition:"] + [
        f"  {p}" for p in result.problems
    ]
    _emit(payload, args.json, lines)
    return EXIT_OK if result.ok else EXIT_VIOLATION


def cmd_gen(args) -> int:
    fam = args.family
    if fam == "spider":
        g = spider(args.r)
    elif fam == "subdivided-k4":
        g = subdivided_k4(args.r)
    elif fam == "theta":
        g = theta(args.r)
    elif fam == "random-2conn":
        if args.n is None:
            raise UsageError("random-2conn needs -n")
        g = random_2connected(args.n, args.seed or 0)
    else:
        raise UsageError(f"unknown family {fam!r}")
    sys.stdout.write(emit_graph(g, args.out_format))
    return EXIT_OK


def cmd_explore(args) -> int:
    sizes = _parse_sizes(args.sizes)
    n = sum(sizes)
    if args.count < 1:
        raise UsageError(f"--count must be at least 1, got {args.count}")
    if n <= 6:
        stream = list(enumerate_2connected(n))
        source = f"all {len(stream)} isomorphism classes on {n} vertices"
    else:
        stream = random_corpus(n, args.count, args.seed or 0)
        source = f"{len(stream)} random 2-connected graphs on {n} vertices (seed {args.seed or 0})"
    failures = []
    for idx, g in enumerate(stream):
        found = brute_force_partition(g, sizes, force=True)
        if found is None:
            failures.append((idx, g))
            print(f"counterexample candidate #{idx}: no partition into sizes {sizes}")
            print(emit_graph(g, "edge-list"), end="")
    print(f"explored {source}: {len(failures)} failures for sizes {sizes}")
    return EXIT_VIOLATION if failures else EXIT_OK


def cmd_labels(args) -> int:
    sys.stdout.write(catalog_dump())
    return EXIT_OK


def cmd_selftest(args) -> int:
    ok = acceptance.run_all(fast=args.fast)
    return EXIT_OK if ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="quadparts",
                                  description="Nearly connected 4-set partitions and clique "
                                              "factors in graph powers.")
    sub = top.add_subparsers(dest="command", required=True)

    def graph_arg(p):
        p.add_argument("graph", help="input graph file, or - for stdin")
        p.add_argument("--format", choices=["auto", "edge-list", "graph6"], default="auto")

    p = sub.add_parser("partition", help="partition a 2-connected graph into nearly connected 4-sets")
    graph_arg(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", action="store_true", help="print one reduction step per line to stderr")
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("tree-partition", help="partition a connected graph into prescribed sizes")
    graph_arg(p)
    p.add_argument("--sizes", required=True, help="comma-separated part sizes summing to n")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_tree_partition)

    p = sub.add_parser("power", help="emit the k-th power of a graph")
    graph_arg(p)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--out-format", choices=["edge-list", "graph6"], default="edge-list")
    p.set_defaults(fn=cmd_power)

    p = sub.add_parser("factor", help="exact clique-factor decision on g or g^k")
    graph_arg(p)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-k", type=int, default=None, help="take the k-th power first")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("verify", help="verify a candidate partition")
    graph_arg(p)
    p.add_argument("--parts", required=True, help="JSON list of vertex lists")
    p.add_argument("--sizes", default=None, help="expected sizes (default: all 4)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="generate a named graph family")
    p.add_argument("family", choices=["spider", "subdivided-k4", "theta", "random-2conn"])
    p.add_argument("-r", type=int, default=4, help="family parameter")
    p.add_argument("-n", type=int, default=None, help="order for random-2conn")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-format", choices=["edge-list", "graph6"], default="edge-list")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("explore", help="search small 2-connected graphs for partition failures")
    p.add_argument("--sizes", required=True)
    p.add_argument("--count", type=int, default=1000, help="corpus size when n > 6")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("labels", help="dump the edge-label catalog for audit")
    p.set_defaults(fn=cmd_labels)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    p.add_argument("--fast", action="store_true", help="reduced corpus sizes")
    p.set_defaults(fn=cmd_selftest)

    return top


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ValueError as exc:  # UsageError, GraphParseError and InstanceTooLarge too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EngineBug as exc:
        print(f"engine trap: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ENGINE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
