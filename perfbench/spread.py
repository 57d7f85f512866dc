"""Run the benchmark over several seeds and print each metric's median and
quartile spread (Q3 - Q1 as a share of the median), the steadiness measure
its bounds are checked against.

    python3 perfbench/spread.py --workload retrieval --seeds 1-10 [--trace 1]

Runs are sequential, from the root of the checkout, with BENCHMARK.json's
run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds", str(seconds),
                                  "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout.strip().splitlines()
        result = json.loads(out[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    rows = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else None
        rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                      "bound": bounds.get(name), "values": vals}
        print(f"{name:48s} median {med:14.6g}  spread "
              f"{'-' if spread is None else f'{spread:.4f}'}"
              f"  bound {bounds.get(name)}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seconds": seconds,
                      "trace": args.trace, "seeds": args.seeds,
                      "metrics": rows}))


if __name__ == "__main__":
    main()
