"""Measure a baseline: untraced runs of every workload on several seeds,
then one traced run each, written to bench/baseline.json.

    python3 bench/baseline.py [--seeds 10] [--first-seed 1000]

Run from the repository root on an otherwise idle machine; it takes about
half a minute per run.  For each end-to-end metric the file holds every
run's value, the median, the quartiles and the spread (interquartile
distance over the median) next to the bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarize(values: list, bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": bound, "runs": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    out: dict = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for w in (x["name"] for x in bench["workloads"]):
        values: dict = {}
        attempted = failed = 0
        for seed in seeds:
            result, lines = run_once(w, seed, seconds, 0)
            out["environment"] = json.loads(lines[0].split(": ", 1)[1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(w, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        traced, lines = run_once(w, seeds[0], seconds, 1)
        out["workloads"][w] = {
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "end_to_end": {k: summarize(v, bounds[k]) for k, v in values.items()},
            "traced_seed": seeds[0],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "per_layer_table": [ln for ln in lines if ln.startswith("  ") or ln.startswith("stated")],
        }
        for k, s in out["workloads"][w]["end_to_end"].items():
            print(f"{w} {k}: median {s['median']:.4f} spread {s['spread']:.4f} bound {s['bound']}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
