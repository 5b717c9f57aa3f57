"""Run one workload over several seeds and print each metric's quartile spread.

Usage, from the repository root::

    python3 perfbench/check_steady.py --workload netflix-row-top-k --seeds 1-10 --seconds 10

The spread is the distance between the first and third quartile of the
values as a share of their median; ``BENCHMARK.json`` bounds it per metric.
Runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.measure import quartile_spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    first, last = (int(part) for part in args.seeds.split("-"))
    bounds = {metric["name"]: metric.get("bound") for metric in config["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {completed.returncode} correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        spread = quartile_spread(series) if len(series) > 1 else 0.0
        bound = bounds.get(name)
        print(f"{name:32s} median {statistics.median(series):12.6g} spread {spread:7.3f}"
              + (f" bound {bound} ({spread / bound:.2f} of it)" if bound else ""))
        print("    " + " ".join(f"{value:.4g}" for value in series))
    return 0


if __name__ == "__main__":
    sys.exit(main())
