#!/usr/bin/env python3
"""Kestrel benchmark entry point.

    python3 kbench/run.py --workload spmv-dram|gray-scott|halo-cg \
        --seed N --seconds T --trace 0|1
    python3 kbench/run.py --self-test
    python3 kbench/run.py --calibrate

Run from the repository root. Builds the kbench program (kbench/CMakeLists.txt, the
library one directory up) into .bench_build/kbench, runs one workload, adds
the Scope-export metrics of traced runs, and prints one JSON object as the
last line of stdout. Details of each run (raw seconds and GB/s, reference
speeds, spans, Scope exports) are kept under .bench_build/runs/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "kbench")
BINARY = os.path.join(BUILD, "kbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"kbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "kbench", "-j", jobs],
    ]
    if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def run_kbench(argv):
    try:
        r = subprocess.run([BINARY] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"kbench exceeded {RUN_TIMEOUT_S} s")
    return r


def scope_events(path):
    with open(path) as f:
        doc = json.load(f)
    return {e["event"]: e for e in doc["events"]}


def per_call_s(events, name):
    e = events.get(name)
    if not e or e["calls_max"] == 0:
        return 0.0
    return e["time_max"] / e["calls_max"]


def add_scope_metrics(result, outdir):
    """prof.* metrics from the halo-CG Scope export, and the cross-check of
    the benchmark's own MatMult total against Scope's MatMult(sell)."""
    metrics = result["metrics"]
    cg = scope_events(os.path.join(outdir, "cg_scope.json"))
    for key, event in [("prof.matmult_pack_s", "MatMultPack"),
                       ("prof.matmult_local_s", "MatMultLocal"),
                       ("prof.matmult_wait_s", "MatMultWait"),
                       ("prof.matmult_offdiag_s", "MatMultOffdiag"),
                       ("prof.matmult_s", "MatMult")]:
        metrics[key] = {"value": per_call_s(cg, event), "unit": "s"}
    gs = scope_events(os.path.join(outdir, "gs_scope.json"))
    scope = gs.get("MatMult(sell)", {}).get("time_max", 0.0)
    bench = result["raw"]["xcheck.bench_matmult_sell_s"]
    result["raw"]["xcheck.scope_matmult_sell_s"] = scope
    # The benchmark's span wraps Scope's, so it may only be larger, by the
    # decorator's call overhead.
    if not (0.90 * bench <= scope <= bench):
        result["problems"].append(
            f"Scope MatMult(sell) total {scope:.6f} s disagrees with the "
            f"benchmark's MatMult total {bench:.6f} s")


def expected_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--calibrate", action="store_true")
    args = ap.parse_args()

    build()
    if args.self_test or args.calibrate:
        flag = "--self-test" if args.self_test else "--calibrate"
        r = subprocess.run([BINARY, flag], cwd=ROOT, timeout=RUN_TIMEOUT_S)
        sys.exit(r.returncode)
    if args.workload not in ("spmv-dram", "gray-scott", "halo-cg"):
        fail(f"unknown workload {args.workload!r}")

    outdir = os.path.join(ROOT, ".bench_build", "runs",
                          f"{args.workload}-s{args.seed}-t{args.trace}")
    os.makedirs(outdir, exist_ok=True)
    r = run_kbench(["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace",
                    str(args.trace), "--out", outdir])
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"kbench exited with {r.returncode}", 3)
    result = json.loads(lines[-1])
    if args.trace:
        add_scope_metrics(result, outdir)
    with open(os.path.join(outdir, "result.json"), "w") as f:
        json.dump(result, f, indent=1)

    names = expected_metrics(args.trace)
    wrong = [n for n, unit in names.items()
             if result["metrics"].get(n, {}).get("unit") != unit]
    if wrong:
        fail("kbench did not report " + ", ".join(wrong) + " as listed", 3)
    for p in result["problems"]:
        print(f"kbench: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"] and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    }))


if __name__ == "__main__":
    main()
