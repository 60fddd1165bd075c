"""Partition benchmark for quadparts.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload dense --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from the seed, checks them with networkx,
measures set-up time, partitions the inputs in whole rounds for about
``--seconds``, checks every output with the independent checker and prints
one JSON object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import checker
import corpus
import tracer as tracing
from worker import CPUS, run_rounds, take_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170
SETUP_SAMPLES = 8  # before the workload and again after it
IMPORT_PROBE = ("import time; t = time.perf_counter(); import quadparts.cli as c; "
                "print(time.perf_counter() - t, c.__file__)")


class CliFailure(Exception):
    pass


class Run:
    """One benchmark invocation: its deadline, child environment and scratch directory."""

    def __init__(self, work: Path) -> None:
        self.started = perf_counter()
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def remaining(self) -> float:
        return DEADLINE_S - (perf_counter() - self.started)

    def python(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, self.remaining()), check=True)


def from_checkout(path: str) -> bool:
    return Path(path).resolve().is_relative_to(ROOT / "src")


def import_times(run: Run, count: int) -> list[float]:
    """Seconds a fresh interpreter takes to import quadparts.cli, `count` times."""
    samples = []
    try:
        for turn in range(count):
            take_cpu(turn)
            secs, path = run.python(["-c", IMPORT_PROBE]).stdout.split(maxsplit=1)
            if not from_checkout(path.strip()):
                raise RuntimeError(f"quadparts imported from {path.strip()}, not from this checkout")
            samples.append(float(secs))
    finally:
        os.sched_setaffinity(0, CPUS)  # the worker started next takes its own turns
    return samples


def run_engine(run: Run, inputs: list[dict], seconds: float, trace: bool) -> dict:
    """Partition in one worker process; see worker.py."""
    inputs_path, result_path = run.work / "inputs.json", run.work / "result.json"
    inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
    run.python([str(HERE / "worker.py"), str(inputs_path), str(result_path), str(seconds),
                "1" if trace else "0"])
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not from_checkout(result["quadparts"]):
        raise RuntimeError(f"worker imported quadparts from {result['quadparts']}")
    return result


def run_cli(run: Run, inputs: list[dict], seconds: float, trace: bool) -> dict:
    """Partition through the command line, one subprocess at a time."""
    files = []
    for inp in inputs:
        if inp["format"] == "graph6":
            path, text = run.work / f"{inp['name']}.g6", corpus.graph6(inp["n"], inp["edges"]) + "\n"
        else:
            path, text = run.work / f"{inp['name']}.txt", corpus.edge_list(inp["n"], inp["edges"])
        path.write_text(text, encoding="utf-8")
        files.append(str(path))
    out_path, err_path = run.work / "stdout.txt", run.work / "stderr.txt"
    peak_kb = [0]
    span_dumps = []

    def call(argv: list[str]) -> list[list[int]]:
        with open(out_path, "w", encoding="utf-8") as out, open(err_path, "w", encoding="utf-8") as err:
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=run.env, cwd=ROOT)
            watchdog = threading.Timer(max(1.0, run.remaining()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        peak_kb[0] = max(peak_kb[0], usage.ru_maxrss)
        stdout = out_path.read_text(encoding="utf-8").strip().splitlines()
        if proc.returncode != 0:
            last = (err_path.read_text(encoding="utf-8").strip().splitlines() or [""])[-1]
            raise CliFailure(f"exit {proc.returncode}: {last}")
        payload = json.loads(stdout[-1])
        if payload.get("ok") is not True:
            raise CliFailure(f"exit 0 without ok: {stdout[-1][:200]}")
        return payload["parts"]

    def plain(path):
        return call(["-m", "quadparts.cli", "partition", path, "--json"])

    def traced(path):
        spans = run.work / "spans.json"
        spans.unlink(missing_ok=True)
        try:
            return call([str(HERE / "traced_cli.py"), str(spans), "partition", path, "--json"])
        finally:
            span_dumps.append(json.loads(spans.read_text(encoding="utf-8")))

    import_times(run, 1)  # checks that the children import this checkout's quadparts
    if not trace:
        return {"untraced": run_rounds(plain, files, seconds), "maxrss_kb": peak_kb[0]}
    result = {"untraced": run_rounds(plain, files, seconds / 2)}
    result["traced"] = run_rounds(traced, files, seconds / 2)
    result["trace"] = tracing.merge(span_dumps)
    return result


def vertices_per_s(inputs: list[dict], phase: dict) -> float:
    """Vertices partitioned per second of a round, each input timed by its median over rounds.

    Failed inputs add their time but no vertices.  The median keeps a burst
    of load from elsewhere on the machine during one round out of the figure.
    """
    done = sum(inp["n"] for inp, out in zip(inputs, phase["outcomes"]) if isinstance(out, list))
    return done / sum(statistics.median(col) for col in zip(*phase["times"]))


def largest_s(inputs: list[dict], phase: dict) -> float:
    """Median time over rounds of the largest inputs that carry no known fault."""
    top = max(inp["n"] for inp in inputs if inp["fault"] is None)
    idx = [i for i, inp in enumerate(inputs) if inp["fault"] is None and inp["n"] == top]
    return statistics.median(row[i] for row in phase["times"] for i in idx)


def size_profile(inputs: list[dict], phase: dict) -> tuple[dict[int, float], float | None]:
    """Median seconds per input order, and the least-squares exponent of t against n."""
    by_n: dict[int, list[float]] = {}
    for row in phase["times"]:
        for inp, t in zip(inputs, row):
            if inp["fault"] is None:
                by_n.setdefault(inp["n"], []).append(t)
    medians = {n: statistics.median(ts) for n, ts in sorted(by_n.items())}
    if len(medians) < 2:
        return medians, None
    xs = [math.log(n) for n in medians]
    ys = [math.log(t) for t in medians.values()]
    return medians, statistics.linear_regression(xs, ys).slope


def check(inputs: list[dict], phases: list[dict]) -> tuple[bool, int, int, list[str]]:
    """Correctness, attempted, failed and the problems found, over all phases."""
    problems = []
    attempted = failed = 0
    first = phases[0]["outcomes"]
    for phase in phases:
        rounds = len(phase["times"])
        attempted += rounds * len(inputs)
        for i in phase["unstable"]:
            problems.append(f"{inputs[i]['name']}: outcome differs between rounds")
        for inp, out, ref in zip(inputs, phase["outcomes"], first):
            if out != ref:
                problems.append(f"{inp['name']}: traced outcome differs from untraced")
            if isinstance(out, dict):
                failed += rounds
                if inp["fault"] is None:
                    problems.append(f"{inp['name']}: unexpected failure {out}")
    for inp, out in zip(inputs, first):
        if isinstance(out, list):
            g = checker.build_graph(inp["n"], inp["edges"])
            problems += [f"{inp['name']}: {p}" for p in checker.partition_problems(g, out)]
    return not problems, attempted, failed, problems


def digest(inputs: list[dict], outcomes: list) -> str:
    canon = [[inp["name"], out if isinstance(out, list) else out["error"]]
             for inp, out in zip(inputs, outcomes)]
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "quadparts" / "cli.py").is_file():
        print(f"error: no quadparts sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    checker.self_test()

    inputs = corpus.build(args.workload, args.seed)
    for inp in inputs:
        bad = checker.input_problems(inp["n"], inp["edges"])
        if bad:
            raise RuntimeError(f"generated input {inp['name']} is invalid: {bad}")

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = Run(work)
        # The first import may compile and cache bytecode; it is not a sample.
        setup = [] if args.trace else import_times(run, 1 + SETUP_SAMPLES)[1:]
        runner = run_cli if args.workload == "cli" else run_engine
        result = runner(run, inputs, args.seconds, bool(args.trace))
        setup += [] if args.trace else import_times(run, SETUP_SAMPLES)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    phases = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    correct, attempted, failed, problems = check(inputs, phases)
    untraced = result["untraced"]
    if args.trace:
        traced = result["traced"]
        metrics = tracing.layer_metrics(result["trace"], len(traced["times"]),
                                        sum(map(sum, traced["times"])))
        vps, vps_traced = vertices_per_s(inputs, untraced), vertices_per_s(inputs, traced)
        metrics["trace.vertices_per_s_untraced"] = vps
        metrics["trace.vertices_per_s_traced"] = vps_traced
        metrics["trace.overhead_pct"] = (vps / vps_traced - 1) * 100
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "vertices_per_s": vertices_per_s(inputs, untraced),
            "largest_s": largest_s(inputs, untraced),
            "peak_rss_mb": result["maxrss_kb"] / 1024,
        }
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    rounds = "+".join(str(len(p["times"])) for p in phases)
    print(f"workload {args.workload} seed {args.seed}: {len(inputs)} inputs, rounds {rounds}")
    print(f"partitions_sha256 {digest(inputs, untraced['outcomes'])}")
    medians, exponent = size_profile(inputs, untraced)
    print("median_s_by_n " + json.dumps({n: round(t, 4) for n, t in medians.items()})
          + ("" if exponent is None else f" exponent {exponent:.2f}"))
    for inp, out in zip(inputs, untraced["outcomes"]):
        if isinstance(out, dict):
            known = f"known fault {inp['fault']}" if inp["fault"] else "unexpected"
            print(f"failed {inp['name']} ({known}): {out['error']}: {out['message']}")
    for p in problems[:20]:
        print(f"problem {p}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
