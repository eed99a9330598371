#!/usr/bin/env python3
"""Paired A/B of two commits on the end-to-end benchmark: the regression gate.

    python3 tools/ab.py BASE [CAND] [--pairs N] [--seed S]

BASE and CAND (default HEAD) are commits; uncommitted changes are not
measured. Both are checked out in temporary git worktrees, removed on
exit. Every workload in BENCHMARK.json runs `perfbench/run.py --trace 0`
at the file's run_seconds, in N pairs: pair i uses seed S+i on both
sides, the base runs first in even pairs and the candidate first in odd
ones. Each side's first run builds it, before anything is timed.

For each workload and end-to-end metric the table gives both sides'
median and interquartile range, how many pairs the candidate won (ties
count for neither side), the median over pairs of candidate / base with
a 95% bootstrap interval, and a verdict:

  regressed   the whole interval lies beyond the metric's bound, read
              as a fraction of the base median
  unresolved  the interval straddles the bound
  gain        at least 10 pairs, at least 9 in 10 of them won, and the
              medians differ by more than the base's interquartile range
  ok          none of these

The bootstrap draws from a fixed seed, so the same records always give
the same verdict. Exit 0 when nothing regressed; 1 when a row regressed
or the candidate failed a larger share of its attempted solves than the
base on some workload; 2 when the commits cannot be compared: perfbench/
or BENCHMARK.json differ between them, two records carry different host
blocks, or a run could not build or produce a record.
"""

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 1
GAIN_WIN_SHARE = 0.9
GAIN_MIN_PAIRS = 10


class Refused(Exception):
    """The two sides cannot be compared."""


def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def pair_ratio(base, cand):
    if base != 0:
        return cand / base
    return 1.0 if cand == 0 else float("inf")


def bootstrap_interval(ratios):
    """95% percentile-bootstrap interval of the median of `ratios`."""
    if min(ratios) == max(ratios):  # every resample has this median
        return ratios[0], ratios[0]
    rng = random.Random(BOOTSTRAP_SEED)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP_RESAMPLES))
    return (medians[int(0.025 * BOOTSTRAP_RESAMPLES)],
            medians[int(0.975 * BOOTSTRAP_RESAMPLES) - 1])


def judge(metric, base, cand):
    """One table row for one metric: base[i] and cand[i] form pair i."""
    lower = metric["better"] == "lower"
    ratios = [pair_ratio(b, c) for b, c in zip(base, cand)]
    lo, hi = bootstrap_interval(ratios)
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, cand))
    base_med = statistics.median(base)
    cand_med = statistics.median(cand)
    gap = (base_med - cand_med) if lower else (cand_med - base_med)
    limit = 1 + metric["bound"] if lower else 1 - metric["bound"]
    if (lo > limit) if lower else (hi < limit):
        verdict = "regressed"
    elif lo <= limit <= hi:
        verdict = "unresolved"
    elif (len(ratios) >= GAIN_MIN_PAIRS and gap > iqr(base) and
          wins >= GAIN_WIN_SHARE * len(ratios)):
        verdict = "gain"
    else:
        verdict = "ok"
    return {"metric": metric["name"],
            "base_median": base_med, "base_iqr": iqr(base),
            "cand_median": cand_med, "cand_iqr": iqr(cand),
            "wins": wins, "pairs": len(ratios),
            "ratio": statistics.median(ratios), "interval": (lo, hi),
            "bound": metric["bound"], "verdict": verdict}


def compare(pairs, metrics):
    """Table rows, per workload and metric, from (base, cand) records.

    A record is run.py's record line merged with its result line. Raises
    Refused when two records' host blocks differ."""
    hosts = {json.dumps(r["host"], sort_keys=True) for p in pairs for r in p}
    if len(hosts) > 1:
        raise Refused("records come from different hosts: " +
                      " vs ".join(sorted(hosts)))
    by_workload = {}
    for base, cand in pairs:
        by_workload.setdefault(base["workload"], []).append((base, cand))
    rows = []
    for workload, wp in by_workload.items():
        for metric in metrics:
            name = metric["name"]
            row = judge(metric, [b["metrics"][name]["value"] for b, _ in wp],
                        [c["metrics"][name]["value"] for _, c in wp])
            rows.append({"workload": workload, **row})
    return rows


def failure_shares(pairs):
    """{workload: [[base failed, attempted], [cand failed, attempted]]}."""
    out = {}
    for pair in pairs:
        sides = out.setdefault(pair[0]["workload"], [[0, 0], [0, 0]])
        for side, r in zip(sides, pair):
            side[0] += r["failed"]
            side[1] += r["attempted"]
    return out


def more_failures(shares):
    """Workloads whose candidate failed a larger share than its base."""
    return [w for w, ((bf, ba), (cf, ca)) in shares.items()
            if cf * ba > bf * ca]


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def run_bench(tree, args):
    """One perfbench/run.py call in `tree`; its merged record."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        sys.stderr.write(proc.stdout[-4000:])
        raise Refused(f"{tree}: perfbench/run.py {' '.join(args)} exited "
                      f"{proc.returncode} without a record")
    try:
        record = json.loads(lines[-2])
        record.update(json.loads(lines[-1]))
    except ValueError as e:
        raise Refused(f"{tree}: unreadable record: {e}")
    return record


def measure(trees, bench, pairs, seed):
    """The (base, cand) record pairs of `pairs` seeded rounds."""
    out = []
    for i in range(pairs):
        order = ("base", "cand") if i % 2 == 0 else ("cand", "base")
        for w in bench["workloads"]:
            args = ["--workload", w["name"], "--seed", str(seed + i),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            rec = {side: run_bench(trees[side], args) for side in order}
            out.append((rec["base"], rec["cand"]))
            solve = [rec[s]["metrics"]["solve_s"]["value"] for s in order]
            print(f"ab: pair {i + 1}/{pairs} {w['name']} seed {seed + i}: "
                  f"solve_s {order[0]} {solve[0]:.4g} {order[1]} "
                  f"{solve[1]:.4g}", file=sys.stderr)
    return out


def print_report(rows, shares, host, head):
    print("host:", json.dumps(host))
    print(head)
    print()
    print("| workload | metric | base median (IQR) | cand median (IQR) "
          "| wins | ratio [95% CI] | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for r in rows:
        lo, hi = r["interval"]
        print(f"| {r['workload']} | {r['metric']} | {r['base_median']:.4g} "
              f"({r['base_iqr']:.3g}) | {r['cand_median']:.4g} "
              f"({r['cand_iqr']:.3g}) | {r['wins']}/{r['pairs']} | "
              f"{r['ratio']:.3f} [{lo:.3f}, {hi:.3f}] | {r['bound']:g} | "
              f"{r['verdict']} |")
    print()
    for w, ((bf, ba), (cf, ca)) in shares.items():
        print(f"{w}: failed/attempted base {bf}/{ba}, cand {cf}/{ca}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("cand", nargs="?", default="HEAD")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    trees = {}
    try:
        shas = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}")
                for side, ref in (("base", args.base), ("cand", args.cand))}
        if git("diff", "--name-only", shas["base"], shas["cand"], "--",
               "perfbench", "BENCHMARK.json"):
            raise Refused("perfbench/ or BENCHMARK.json differ between "
                          "the commits; the benchmark itself changed")
        bench = json.loads(git("show", f"{shas['cand']}:BENCHMARK.json"))
        for side, sha in shas.items():
            trees[side] = tmp / side
            git("worktree", "add", "--detach", str(trees[side]), sha)
        pairs = measure(trees, bench, args.pairs, args.seed)
        rows = compare(pairs, bench["end_to_end"])
    except (Refused, subprocess.CalledProcessError) as e:
        print(f"ab: refused: {e}", file=sys.stderr)
        return 2
    finally:
        for tree in trees.values():
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                           cwd=ROOT)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT)
    shares = failure_shares(pairs)
    print_report(rows, shares, pairs[0][0]["host"],
                 f"base {shas['base'][:12]}, cand {shas['cand'][:12]}, "
                 f"{args.pairs} pairs, seeds {args.seed}-"
                 f"{args.seed + args.pairs - 1}, run_seconds "
                 f"{bench['run_seconds']}")
    regressed = [f"{r['workload']} {r['metric']}" for r in rows
                 if r["verdict"] == "regressed"]
    failing = more_failures(shares)
    for name in regressed:
        print(f"ab: regressed: {name}", file=sys.stderr)
    for w in failing:
        print(f"ab: candidate fails a larger share of solves: {w}",
              file=sys.stderr)
    return 1 if regressed or failing else 0


if __name__ == "__main__":
    sys.exit(main())
