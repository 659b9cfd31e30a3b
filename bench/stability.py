"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 bench/stability.py --workload validate --seeds 1-10

Runs ``bench/run.py --trace 0`` once per seed, one run at a time, and prints
each metric's median and (Q3 - Q1) / median next to its bound from
BENCHMARK.json.  A spread above a third of the bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import quartile_spread

BENCH = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']}  "
              + "  ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
    if len(args.seeds) < 2:
        return 0
    print(f"{args.workload}: {len(args.seeds)} seeds")
    for metric in spec["end_to_end"]:
        xs = values[metric["name"]]
        spread = quartile_spread(xs)
        flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(f"  {metric['name']:14s} median {statistics.median(xs):.6g} "
              f"spread {spread:.4f} bound {metric['bound']} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
