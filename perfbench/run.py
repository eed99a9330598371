#!/usr/bin/env python3
"""End-to-end benchmark of the paper's solvers, split by layer.

    python3 perfbench/run.py --workload bip_mcm --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. It builds the library, the
`trace_summary` tool and the bench binary (perfbench/solver_bench.cpp) from the
checkout's sources into .bench_build/, runs one workload, prints the host
fingerprint and every metric by name with its unit, then the run's record
(workload, host, provenance, solve-time samples) as one JSON line, and as
its last line one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones, and the run's Chrome trace must
pass `trace_summary --check`. It exits 1 if any audit fails.

--smoke runs every workload at a tiny size through build, solve, audit,
probes and the traced run, in seconds: the benchmark's self-test.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
SOLVER_BENCH = BUILD / "solver_bench"
TRACE_SUMMARY = BUILD / "lps" / "trace_summary"  # the repository's own tool
WORKLOADS = ("bip_mcm", "gen_mcm", "wt_mwm", "ii_base")
# A run must end within 180 s, counted after the build (the first run in a
# checkout builds everything).
RUN_LIMIT_S = 170.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then let the build tool bring the targets up to date."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no library sources next to {HERE.name}/ (expected src/ and "
             "CMakeLists.txt at the checkout root)")
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "--target", "solver_bench",
                  "trace_summary", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-6000:])
            fail("build failed: " + " ".join(cmd))


def run_workload(workload, seed, seconds, trace, size, deadline):
    """Run solver_bench once; returns its JSON record (with a trace check)."""
    trace_dir = BUILD / "traces"
    trace_dir.mkdir(exist_ok=True)
    trace_file = trace_dir / f"{workload}.json"
    cmd = [str(SOLVER_BENCH), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, "--trace-file", str(trace_file)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload}: solver_bench exceeded the run time limit")
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: solver_bench exited {proc.returncode} "
             "without a record")
    if proc.returncode != (0 if record["correct"] else 1):
        fail(f"{workload}: solver_bench exited {proc.returncode}")
    if trace:
        check = subprocess.run([str(TRACE_SUMMARY), "--check",
                                str(trace_file)], stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
        record["trace_check"] = check.stdout.strip()
        if check.returncode != 0:
            print(f"perfbench: trace check failed: {check.stdout.strip()}",
                  file=sys.stderr)
            record["correct"] = False
    return record


def report(record):
    host = record["host"]
    prov = record["provenance"]
    print(f"workload {record['workload']}: {record['solver']} "
          f"[{record['config']}] on {record['spec']}, seed {record['seed']}, "
          f"trace {record['trace']}")
    print(f"host: {host['cpu_model']}, nproc {host['nproc']}, "
          f"L1d {host['l1d_bytes']} B, L2 {host['l2_bytes']} B, "
          f"L3 {host['l3_bytes']} B, pool {host['pool_threads']} threads; "
          f"build {prov['git_sha']} {prov['build_type']}")
    print(f"quality reference: {record['reference']} "
          f"({record['reference_kind']})")
    if record.get("trace_check"):
        print(f"trace: {record['trace_check']}")
    for name, m in record["metrics"].items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")


def smoke():
    ok = True
    deadline = time.monotonic() + RUN_LIMIT_S
    for workload in WORKLOADS:
        for trace in (0, 1):
            r = run_workload(workload, 1, 0.2, trace, "smoke", deadline)
            print(f"smoke {workload} trace={trace}: attempted {r['attempted']} "
                  f"failed {r['failed']} correct {r['correct']} "
                  f"({len(r['metrics'])} metrics)")
            ok = ok and r["correct"]
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or --smoke)")

    build()
    if args.smoke:
        return smoke()
    record = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          "full", time.monotonic() + RUN_LIMIT_S)
    report(record)
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
