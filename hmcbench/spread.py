"""Runs the benchmark on several seeds and prints the spread of each metric.

usage, from the root of an hmc checkout:
  python3 hmcbench/spread.py WORKLOAD SEEDS SECONDS

SEEDS is a comma-separated list. The runs are untraced (--trace 0). For
each end-to-end metric it prints the median of the runs and the distance
between the first and the third quartile as a share of the median, the
figure the bounds in BENCHMARK.json are set against.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main(workload, seeds, seconds):
    values = {}
    shares = set()
    for seed in seeds.split(","):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", seed,
             "--seconds", seconds, "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        shares.add(result["failed"] / result["attempted"])
        line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {line}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"failed shares: {sorted(shares)}")
    for name, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{workload} {name}: median {med:.6g} spread {spread:.4f} n={len(vs)}")


if __name__ == "__main__":
    main(*sys.argv[1:])
