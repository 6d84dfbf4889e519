"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload pole.rrt --seeds 1-10 [--trace 0] [--seconds 10]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
every metric the median of the runs and the distance between the first and
third quartile as a share of the median (``statistics.quantiles(n=4)``), the
figure the bounds in BENCHMARK.json are set against. With ``--trace 0`` the
unscaled times (see speed.py) are listed too, as ``unscaled.<metric>``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _unscaled(lines: list[str]):
    """(name, value, unit) of the unscaled block run.py prints with --trace 0."""
    if "  unscaled:" not in lines:
        return
    for line in lines[lines.index("  unscaled:") + 1:]:
        fields = line.split()
        if len(fields) != 3:
            return
        yield fields[0], float(fields[1]), fields[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=_seeds, help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=RUN.parent.parent, timeout=600,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(f"seed {seed}: {time.perf_counter() - t0:.1f} s wall, correct={result['correct']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        for name, value, unit in _unscaled(lines):
            values.setdefault(f"unscaled.{name}", []).append(value)
            units[f"unscaled.{name}"] = unit

    print(f"\n{args.workload}, {len(args.seeds)} runs")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:<58} median {med:>12.6g} {units[name]:<10} spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
