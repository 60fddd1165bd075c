"""``quadparts`` command line with the layer wrappers of tracer.py installed.

Usage: python3 perfbench/traced_cli.py SPANS_JSON partition FILE --json

Behaves like ``python -m quadparts.cli partition FILE --json``, including a
traceback and exit code 1 on an uncaught exception, and writes the span
aggregate to SPANS_JSON on the way out.
"""

from __future__ import annotations

import json
import sys

import tracer as tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from quadparts import cli

    tracer = tracing.Tracer()
    tracing.install_engine(tracer)
    tracer.patch(cli, "partition_with_trace", "engine.partition", tracing.count_steps)
    tracer.patch(cli, "parse_graph", "cli.parse_graph", tracing.count_bytes)
    tracer.patch(cli, "verify_partition", "cli.verify_partition")
    run = tracer.wrap("cli.run", cli.run)
    try:
        return run(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
