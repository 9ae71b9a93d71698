"""Reference runs: spread of the end-to-end metrics and one traced run.

    python3 perfbench/report.py --seeds 1-10 [--workloads lift,pit] [--trace-seed 1]

Runs `run.py` once per (workload, seed), one process at a time, and prints
Markdown tables: median and quartiles of every end-to-end metric with the
spread (quartile distance over median), then the per-layer metrics of one
traced run per workload with the tracing overhead (traced ops_per_s over
untraced ops_per_s on the same seed). Raw results go to
`.perfbench_out/report.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["process_s"] = time.perf_counter() - t0
    return result


def environment():
    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git": sha}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace-seed", type=int, default=None,
                    help="also make one traced run per workload on this seed")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {"environment": environment(), "runs": {}, "traced": {}}
    env = results["environment"]
    print(f"nproc {env['nproc']}, Python {env['python']}, numpy {env['numpy']}, git {env['git']}, "
          f"{args.seconds:g} s runs, seeds {args.seeds}\n")
    print("| workload | metric | median | q1 | q3 | spread | bound | failed/attempted |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for w in workloads:
        runs = [run_once(w, s, args.seconds, 0) for s in seeds]
        results["runs"][w] = runs
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        ok = all(r["correct"] for r in runs)
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {w} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} | "
                  f"{bounds[name]} | {' '.join(shares)}{'' if ok else ' INCORRECT'} |")
    print("\nWhole process, median over the seeds: " + ", ".join(
        f"{w} {statistics.median(r['process_s'] for r in results['runs'][w]):.1f} s"
        for w in workloads) + ".")
    if args.trace_seed is not None:
        layer_names = [m["name"] for m in spec["per_layer"]]
        traced = {}
        for w in workloads:
            traced[w] = run_once(w, args.trace_seed, args.seconds, 1)
            plain = run_once(w, args.trace_seed, args.seconds, 0)
            base = plain["metrics"]["ops_per_s"]["value"]
            with_trace = traced[w]["metrics"]["trace.ops_per_s"]["value"]
            traced[w]["overhead"] = base / with_trace if with_trace else None
        results["traced"] = traced
        print(f"\nTraced run, seed {args.trace_seed}: one set-up plus one round of operations.\n")
        print("| metric | " + " | ".join(workloads) + " |")
        print("| --- |" + " --- |" * len(workloads))
        for name in layer_names:
            cells = [f"{traced[w]['metrics'][name]['value']:.4g}" for w in workloads]
            print(f"| {name} | " + " | ".join(cells) + " |")
        cells = [f"{traced[w]['overhead']:.2f}x" for w in workloads]
        print("| untraced / traced ops_per_s | " + " | ".join(cells) + " |")
    out = ROOT / ".perfbench_out" / "report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
