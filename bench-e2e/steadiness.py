#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload (untraced), then reports, per workload and metric, the median
and quartiles of the adjusted metrics the benchmark prints and of the raw
(unadjusted) figures from its audit line, with the quartile spread
(q3 - q1) / median that the bounds are checked against.

Run from the repository root:

    python3 bench-e2e/steadiness.py [--seeds 10] [--workloads a,b] [--out FILE]
"""

import argparse
import json
import statistics
import subprocess
import sys


def quartile_summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    audit = next(
        json.loads(line[len("audit "):])
        for line in proc.stderr.splitlines()
        if line.startswith("audit ")
    )
    return result, audit


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="also write the summary JSON here")
    opts = ap.parse_args()

    raw_keys = {
        "setup_s": "raw_setup_s",
        "wall_s": "raw_wall_s",
        "ops_per_s": "raw_ops_per_s",
    }
    summary = {}
    for workload in opts.workloads.split(","):
        adjusted = {m["name"]: [] for m in bench["end_to_end"]}
        raw = {k: [] for k in raw_keys}
        for seed in range(opts.first_seed, opts.first_seed + opts.seeds):
            result, audit = run_once(bench["command"], workload, seed, opts.seconds)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: output check failed")
            for name in adjusted:
                adjusted[name].append(result["metrics"][name]["value"])
            for name, key in raw_keys.items():
                raw[name].append(audit[key]["median"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.6g}" for k, v in adjusted.items()), file=sys.stderr)
        summary[workload] = {
            "adjusted": {k: quartile_summary(v) for k, v in adjusted.items()},
            "raw": {k: quartile_summary(v) for k, v in raw.items()},
        }
        for kind in ("adjusted", "raw"):
            for k, s in summary[workload][kind].items():
                print(f"{workload:14} {kind:8} {k:14} median {s['median']:.6g}  "
                      f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}")
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
