#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread the way the driver does.

Runs `benchmark/run.sh --workload W --seed S --seconds N --trace 0` for
ten seeds per workload and prints, per end-to-end metric, the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.
Exits 1 if a spread other than setup_s's exceeds its bound.

    benchmark/check_spread.py [--runs 10] [--first-seed 100] [--workload NAME]
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{' '.join(cmd)} exited {out.returncode}\n{out.stdout}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: {result['failed']} failed operations")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= bounds[name] or name == "setup_s" else "TOO WIDE"
            ok &= verdict == "ok"
            third = "  (above a third of the bound)" if spread > bounds[name] / 3 else ""
            print(f"{w:<16} {name:<12} median {med:>14.4f}  spread {spread:6.2%}  "
                  f"bound {bounds[name]:4.0%}  {verdict}{third}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
