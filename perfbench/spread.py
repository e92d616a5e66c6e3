"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--trace-runs 1]
                                [--first-seed 0] [--out FILE]

Each run is a separate ``perfbench/run.py`` process, one after another.
For every end-to-end metric the summary gives the ten values, their
median and quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the interquartile distance as a share of the median, which must
stay within the metric's bound in ``BENCHMARK.json``.  ``--trace-runs``
adds traced runs, whose per-layer medians are recorded too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable if c == "python3" else c for c in spec["command"]]
    cmd += ["--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        results = []
        for seed in seeds:
            result, lines = _run(spec, name, seed, 0)
            results.append(result)
            summary.setdefault("environment", json.loads(lines[0][len("# env "):]))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"seeds": seeds,
                 "correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "end_to_end": {}}
        for metric in bounds:
            s = summarise([r["metrics"][metric]["value"] for r in results])
            entry["end_to_end"][metric] = s
            flag = "" if s["spread"] <= bounds[metric] / 3 else "  WIDE"
            ok = ok and s["spread"] <= bounds[metric]
            print(f"{name} {metric}: median {s['median']:.6g}, spread {s['spread']:.4f}"
                  f" (bound {bounds[metric]}){flag}", flush=True)
        traced = [_run(spec, name, seed, 1)[0] for seed in seeds[:args.trace_runs]]
        if traced:
            entry["per_layer"] = {
                k: statistics.median(r["metrics"][k]["value"] for r in traced)
                for k in traced[0]["metrics"]}
        entry["correct"] = entry["correct"] and all(r["correct"] for r in traced)
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
