#!/usr/bin/env python3
"""Runs the benchmark as `BENCHMARK.json` describes it and reports how steady it is.

For each workload, runs the `BENCHMARK.json` command once per seed and
reports, per metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median), next to the
metric's bound. Run from the repository root:

    python3 perfbench/tools/steady.py --workloads fig3-vgg16 --seeds 1-10
    python3 perfbench/tools/steady.py --trace 1 --seeds 1 --out traced.json

`--out` writes every run's metrics, the per-metric summary and the host
facts line as JSON (the shape of one `trajectory.json` entry).
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    host = lines[0]
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(l for l in lines if l.startswith("FAILED")), file=sys.stderr)
    return host, result


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None, help="comma list (default: all)")
    ap.add_argument("--seeds", default="1-10", help="a-b range or comma list")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {"workloads": {}}
    for name in names:
        runs = []
        for seed in seeds_of(args.seeds):
            host, result = run_once(bench, name, seed, args.trace)
            report["host"] = host
            runs.append({"seed": seed, **result})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        metrics = {}
        for key in runs[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in runs]
            metrics[key] = {"unit": runs[0]["metrics"][key]["unit"], **summary(values)}
        report["workloads"][name] = {"runs": runs, "metrics": metrics}
        print(f"\n{name}: {'metric':<34}{'median':>14}{'spread':>9}{'bound':>7}")
        for key, m in metrics.items():
            bound = bounds.get(key)
            flag = ""
            if bound is not None and key != "setup_s" and m["spread"] > bound / 3:
                flag = "  > bound/3"
            b = "" if bound is None else f"{bound:.2f}"
            print(f"{'':>{len(name) + 2}}{key:<34}{m['median']:>14.6g}{m['spread']:>9.4f}{b:>7}{flag}")
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
