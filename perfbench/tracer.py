"""Spans recorded from outside the program, at the calls into its layers.

A wrapper replaces a public function at the name its callers look up, so
every call becomes a span.  Spans are aggregated in memory per (parent name,
name): call count, total time and self time, where self time is the span's
time minus that of its child spans.  Counters record work that a span's
arguments or result reveal, such as bytes parsed or reduction steps taken.

`layer_metrics` turns the aggregate of one or more processes into the
per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, time covered by child spans]
        self.spans: dict[tuple[str, str], list[int]] = {}  # -> [calls, total_ns, self_ns]
        self.counters: dict[str, int] = {}

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, observe=None):
        """`fn` recording one span per call; `observe(tracer, args, result)` after success."""

        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else ""
            frame = [name, 0]
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                rec = self.spans.setdefault((parent, name), [0, 0, 0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, observe=None) -> None:
        setattr(module, attr, self.wrap(name, getattr(module, attr), observe))

    def dump(self) -> dict:
        return {"spans": [[p, n, *rec] for (p, n), rec in sorted(self.spans.items())],
                "counters": dict(self.counters)}


def count_steps(tracer: Tracer, args, result) -> None:
    """Observer for `partition_with_trace`: count the steps of its public trace by kind."""
    for step in result[1]:
        tracer.count(f"engine.steps.{step.kind}")


def count_bytes(tracer: Tracer, args, result) -> None:
    """Observer for `parse_graph(text, ...)`."""
    tracer.count("graphio.bytes_read", len(args[0].encode()))


def install_engine(tracer: Tracer) -> None:
    """Wrap the engine's layer boundaries; quadparts must be importable."""
    from quadparts import graphs
    from quadparts.engine import driver

    for attr in ("find_reduction", "apply_reduction", "solve_base", "init_labeled"):
        tracer.patch(driver, attr, attr)
    tracer.patch(driver, "is_biconnected", "driver.is_biconnected")
    tracer.patch(driver, "is_nearly_connected", "driver.is_nearly_connected")
    # LabeledMultigraph.is_block imports this name at each call.
    tracer.patch(graphs, "is_biconnected", "graphs.is_biconnected")


STEP_KINDS = ("parallel", "series", "strip", "absorb", "vertex")
SECONDS = {
    # metric: [(parent or None for any, span name), ...]; self times are summed
    "engine.find_reduction_s": [(None, "find_reduction")],
    "engine.reducibility_s": [("find_reduction", "driver.is_biconnected")],
    "engine.block_check_s": [(None, "graphs.is_biconnected")],
    "engine.apply_reduction_s": [(None, "apply_reduction")],
    "engine.solve_base_s": [(None, "solve_base")],
    "engine.init_labeled_s": [(None, "init_labeled"), ("init_labeled", "driver.is_biconnected")],
    "oracle.is_nearly_connected_s": [(None, "driver.is_nearly_connected")],
    "oracle.verify_partition_s": [(None, "cli.verify_partition")],
    "graphio.parse_graph_s": [(None, "cli.parse_graph")],
    "cli.self_s": [(None, "cli.run")],
}
CALLS = {
    "engine.find_reduction_calls": (None, "find_reduction"),
    "engine.reducibility_tests": ("find_reduction", "driver.is_biconnected"),
    "engine.block_checks": (None, "graphs.is_biconnected"),
    "oracle.is_nearly_connected_calls": (None, "driver.is_nearly_connected"),
}


def merge(dumps) -> dict:
    spans: dict[tuple[str, str], list[int]] = {}
    counters: dict[str, int] = {}
    for d in dumps:
        for parent, name, *rec in d["spans"]:
            acc = spans.setdefault((parent, name), [0, 0, 0])
            for i, x in enumerate(rec):
                acc[i] += x
        for key, value in d["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"spans": [[p, n, *rec] for (p, n), rec in sorted(spans.items())], "counters": counters}


def layer_metrics(dump: dict, rounds: int, wall_s: float) -> dict[str, float]:
    """Per-round layer metrics from merged spans of `rounds` rounds taking `wall_s`.

    ``trace.uncovered_s`` is the wall time that no layer metric accounts
    for: engine glue between the wrapped calls and, for the CLI, interpreter
    start-up and imports.
    """

    def select(parent, name, field):
        return sum(rec[field] for p, n, *rec in dump["spans"]
                   if n == name and (parent is None or p == parent))

    out: dict[str, float] = {}
    for metric, keys in SECONDS.items():
        out[metric] = sum(select(p, n, 2) for p, n in keys) / 1e9 / rounds
    for metric, (p, n) in CALLS.items():
        out[metric] = select(p, n, 0) / rounds
    calls = out["engine.find_reduction_calls"]
    out["engine.reducibility_tests_per_step"] = out["engine.reducibility_tests"] / calls if calls else 0.0
    for kind in STEP_KINDS:
        out[f"engine.steps.{kind}"] = dump["counters"].get(f"engine.steps.{kind}", 0) / rounds
    out["graphio.bytes_read"] = dump["counters"].get("graphio.bytes_read", 0) / rounds
    out["trace.wall_s"] = wall_s / rounds
    out["trace.uncovered_s"] = out["trace.wall_s"] - sum(out[m] for m in SECONDS)
    return out
