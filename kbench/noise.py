#!/usr/bin/env python3
"""Run-to-run noise of the end-to-end metrics, raw against paired.

    python3 kbench/noise.py
    python3 kbench/noise.py --report .bench_build/noise.json

Runs kbench/run.py once per workload per round for ROUNDS rounds, each run
with its own seed and BENCHMARK.json's run_seconds, the workloads
interleaved and PAUSE_S seconds between rounds so the runs spread over the
host's drift. Prints, per workload and end-to-end metric, the median and
the spread (IQR / median, as statistics.quantiles(n=4) gives the quartiles)
of the paired value and of the raw value it was paired from, next to the
metric's bound, and the operations attempted and failed. Results go to
.bench_build/noise.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ROUNDS = 10
PAUSE_S = 60
WORKLOADS = ["spmv-dram", "gray-scott", "halo-cg"]

# Raw (wall-clock, unpaired) figure behind each paired metric, and the
# reference it is paired with.
RAW = {
    "setup_s": "raw_setup_s",
    "solve_s": "raw_solve_s",
    "spmv_csr_gflops": "raw_gflops.csr/tN",
    "spmv_sell_gflops": "raw_gflops.sell/tN",
    "spmv_sell_1t_gflops": "raw_gflops.sell/t1",
    "spmv_sell_fp32_gflops": "raw_gflops.sell_fp32/tN",
}
REFERENCE = {
    ("spmv-dram", "setup_s"): "triad, 1 thread, 288 MB",
    ("spmv-dram", "spmv_sell_1t_gflops"): "triad, 1 thread, 288 MB",
    ("gray-scott", "setup_s"): "Krylov sweep, 1 thread",
    ("gray-scott", "solve_s"): "Krylov sweep, 1 thread",
    ("gray-scott", "spmv_sell_1t_gflops"): "SELL, 1 thread, GS 256^2",
    ("halo-cg", "setup_s"): "plain CSR, 1 thread, Laplacian 256^2",
    ("halo-cg", "solve_s"): "CG skeleton, nproc threads",
    ("halo-cg", "spmv_sell_1t_gflops"): "SELL, 1 thread, Laplacian 256^2",
}
NPROC_REFERENCE = {"spmv-dram": "triad, nproc threads, 288 MB",
                   "gray-scott": "SELL, nproc threads, GS 256^2",
                   "halo-cg": "SELL, nproc threads, Laplacian 256^2"}


def reference(workload, metric):
    if metric == "peak_rss_mb":
        return "none (not paired)"
    return REFERENCE.get((workload, metric), NPROC_REFERENCE[workload])


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def table(runs, bounds):
    print("| workload | metric | reference | median | raw spread | "
          "paired spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for w, rs in runs.items():
        for m in bounds:
            paired = [r["result"]["metrics"][m]["value"] for r in rs]
            raw = ("n/a" if m not in RAW else
                   f"{spread([r['raw'][RAW[m]] for r in rs]):.3f}")
            print(f"| {w} | {m} | {reference(w, m)} | "
                  f"{statistics.median(paired):.4g} | {raw} | "
                  f"{spread(paired):.3f} | {bounds[m]} |")
    print()
    for w, rs in runs.items():
        attempted = sum(r["result"]["attempted"] for r in rs)
        failed = sum(r["result"]["failed"] for r in rs)
        minutes = (rs[-1]["t"] - rs[0]["t"]) / 60
        print(f"{w}: {len(rs)} runs over {minutes:.1f} minutes, "
              f"{attempted} operations attempted, {failed} failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--report", metavar="NOISE_JSON",
                    help="print the table of an earlier run's noise.json")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.report:
        with open(args.report) as f:
            table(json.load(f), bounds)
        return

    seconds = spec["run_seconds"]
    runs = {w: [] for w in WORKLOADS}
    t_start = time.time()
    for rnd in range(ROUNDS):
        if rnd > 0:
            time.sleep(PAUSE_S)
        for w in WORKLOADS:
            seed = 7919 * (rnd + 1) + len(w)
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 w, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE,
                text=True)
            if r.returncode != 0:
                sys.exit(f"run.py failed on {w} seed {seed}")
            res = json.loads(r.stdout.strip().splitlines()[-1])
            with open(os.path.join(ROOT, ".bench_build", "runs",
                                   f"{w}-s{seed}-t0", "result.json")) as f:
                raw = json.load(f)["raw"]
            runs[w].append({"seed": seed, "t": time.time() - t_start,
                            "result": res, "raw": raw})
            print(f"round {rnd} {w} seed {seed}: attempted "
                  f"{res['attempted']} failed {res['failed']} correct "
                  f"{res['correct']}", file=sys.stderr, flush=True)
    with open(os.path.join(ROOT, ".bench_build", "noise.json"), "w") as f:
        json.dump(runs, f, indent=1)

    minutes = (time.time() - t_start) / 60
    print(f"{ROUNDS} runs per workload over {minutes:.1f} minutes, "
          f"{seconds} s each\n")
    table(runs, bounds)


if __name__ == "__main__":
    main()
