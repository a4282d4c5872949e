"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload opt-cold --seeds 1-10 [--out FILE]

Runs the benchmark once per seed (sequentially, from the checkout root)
and prints, per end-to-end metric, the median, the quartile spread
(Q3 - Q1) / median as statistics.quantiles(n=4) gives it, and the
metric's bound from BENCHMARK.json.  --out also saves every run's result
and report lines.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from stats import quartile_spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, os.path.join(ROOT, *bench["command"][1:]),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["report"] = lines[:-1]
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr, flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        row = {"median": statistics.median(values), "min": min(values),
               "max": max(values)}
        if len(values) >= 2:
            row["spread"] = quartile_spread(values)
        if bounds.get(name) is not None:
            row["bound"] = bounds[name]
        summary[name] = row
        print(f"{name:44s} median {row['median']:.6g}  spread "
              f"{row.get('spread', float('nan')):.4f}  bound {row.get('bound')}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "runs": runs, "summary": summary},
                      fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
