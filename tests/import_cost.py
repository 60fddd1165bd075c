"""Start-up cost of the command line, module by module.

Usage, from the repository root::

    python -m tests.import_cost [--runs N]

Copies ``src/quadparts`` into a temporary directory and imports
``quadparts.cli`` from the copy in fresh interpreters under
``-X importtime``, N times each way (default 15):

- without bytecode caches for the package (``PYTHONDONTWRITEBYTECODE=1``,
  as the benchmark's runs have it), so each of its modules is compiled on
  every import;
- with caches, after one run that writes them.  That run and the timed ones
  set ``PYTHONPYCACHEPREFIX`` to a folder inside the temporary directory,
  so no cache is written anywhere else.

For every module that the import loads it prints the median of its own
import time (the ``self`` column of ``-X importtime``, which leaves out the
modules it imports) each way, and for the package's modules the median time
that ``compile`` takes on their source in this process.  The first line is
the median wall time of the import, as ``perfbench/run.py`` measures its
``setup_s``.  The times depend on the machine; compare two versions of the
package on the same one.  This is a script, not a test module, so the
tier-1 suite does not run it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quadparts"
PROBE = "import time; t = time.perf_counter(); import quadparts.cli; print(time.perf_counter() - t)"


def import_run(env: dict, cwd: Path) -> tuple[float, dict[str, int]]:
    """Wall seconds of one fresh `import quadparts.cli`, and the self time in
    microseconds of each module imported after `site`."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", PROBE], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True)
    selves: dict[str, int] = {}
    for line in out.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        if name == "site" and fields[2].startswith(" ") and not fields[2].startswith("  "):
            selves.clear()  # everything before here is interpreter start-up
        else:
            selves[name] = int(fields[0])
    return float(out.stdout), selves


def medians(env: dict, cwd: Path, runs: int) -> tuple[float, dict[str, float]]:
    samples = [import_run(env, cwd) for _ in range(runs)]
    names = set.intersection(*(set(s) for _, s in samples))
    return (statistics.median(wall for wall, _ in samples),
            {name: statistics.median(s[name] for _, s in samples) / 1000 for name in names})


def compile_ms(package: Path, runs: int) -> dict[str, float]:
    """Median milliseconds to compile each module of the package copy."""
    out = {}
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package.parent).with_suffix("")
        name = ".".join(rel.parts[:-1] if rel.name == "__init__" else rel.parts)
        source = path.read_text(encoding="utf-8")
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            compile(source, str(path), "exec", dont_inherit=True)
            times.append(time.perf_counter() - start)
        out[name] = statistics.median(times) * 1000
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=15, help="fresh interpreters per way")
    runs = parser.parse_args().runs
    with tempfile.TemporaryDirectory(prefix="import-cost-") as tmp:
        root = Path(tmp)
        package = root / "quadparts"
        shutil.copytree(SRC, package, ignore=shutil.ignore_patterns("__pycache__"))
        base = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        base["PYTHONPATH"] = tmp
        cold_env = dict(base, PYTHONDONTWRITEBYTECODE="1")
        warm_env = dict(base, PYTHONPYCACHEPREFIX=str(root / "pycache"))
        cold_wall, cold = medians(cold_env, root, runs)
        import_run(warm_env, root)  # writes the caches
        warm_wall, warm = medians(warm_env, root, runs)
        compiled = compile_ms(package, runs)

    print(f"import quadparts.cli, median of {runs} fresh interpreters each way: "
          f"{cold_wall * 1000:.1f} ms without caches, {warm_wall * 1000:.1f} ms with caches")
    print(f"{'module':<28} {'compile ms':>10} {'self ms, no caches':>18} {'self ms, caches':>15}")
    sums = {"quadparts": [0.0, 0.0, 0.0], "other modules": [0.0, 0.0, 0.0]}
    for name in sorted(cold, key=cold.get, reverse=True):
        comp = compiled.get(name)
        print(f"{name:<28} {'' if comp is None else f'{comp:.2f}':>10} {cold[name]:>18.2f} "
              f"{warm.get(name, float('nan')):>15.2f}")
        total = sums["quadparts" if name.split(".")[0] == "quadparts" else "other modules"]
        total[0] += comp or 0.0
        total[1] += cold[name]
        total[2] += warm.get(name, 0.0)
    for group, (comp, c, w) in sums.items():
        print(f"{'sum, ' + group:<28} {f'{comp:.2f}' if comp else '':>10} {c:>18.2f} {w:>15.2f}")


if __name__ == "__main__":
    main()
