#!/usr/bin/env python3
"""Steadiness check: sets of runs of the same code, compared against the
bounds in BENCHMARK.json.

    python3 bench/steady.py [--runs 10] [--workloads a,b] [--first-seed 1] [--trace-check]

Two sets each run every workload --runs times (at least 2) for the
run_seconds of BENCHMARK.json, with a new seed per run (the workloads are
interleaved in time).  For every end-to-end metric it reports the median
and the spread -- the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median -- and
flags:

* a spread over the metric's bound, and a spread over a third of the bound
  as a warning;
* a median of the second set worse than the first set's by more than the
  bound;
* a share of failed operations that differs between runs;
* any run that is not correct.

It also prints the median raw seconds of a pass.  ``--trace-check`` runs two
traced runs per workload with one seed, requires every count to be
identical, and prints the tracing overhead (traced over untraced raw pass
time).  Exit status 1 on any violation.  Raw results go to
bench/_out/steady-<time>.json.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
PASS_LINE = re.compile(r"median pass ([0-9.]+) s wall, ([0-9.]+) s CPU")


def run_once(workload, seed, seconds, trace):
    """The run's result object, with the raw wall seconds of its median pass."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["pass_s"] = float(PASS_LINE.search(proc.stdout).group(1))
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse(new, old, better):
    """Relative change of `new` against `old`, positive when worse."""
    change = (new - old) / old
    return change if better == "lower" else -change


def compare_sets(results, metrics, problems, warnings):
    print(f"\n{'workload':16s} {'metric':12s} " + " ".join(
        f"{'median' + str(s + 1):>10s} {'spread' + str(s + 1):>8s}" for s in range(SETS))
        + f" {'bound':>6s}")
    for w, sets in results.items():
        for name, m in metrics.items():
            med = [statistics.median(r["metrics"][name]["value"] for r in runs) for runs in sets]
            spr = [spread([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            print(f"{w:16s} {name:12s} " + " ".join(
                f"{a:10.4g} {b:8.3%}" for a, b in zip(med, spr)) + f" {m['bound']:6.2f}")
            for s, b in enumerate(spr):
                if b > m["bound"]:
                    problems.append(f"{w} {name}: spread {b:.3%} of set {s + 1} over bound")
                elif b > m["bound"] / 3:
                    warnings.append(f"{w} {name}: spread {b:.3%} of set {s + 1} over a third "
                                    "of the bound")
            d = worse(med[1], med[0], m["better"])
            if d > m["bound"]:
                problems.append(f"{w} {name}: set 2 median worse than set 1 by {d:.3%}")
        passes = [r["pass_s"] for runs in sets for r in runs]
        print(f"{w:16s} {'pass_s (raw)':12s} {statistics.median(passes):10.4g} "
              f"{spread(passes):8.3%}")
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs}
        if len(shares) != 1:
            problems.append(f"{w}: failed share differs between runs: {sorted(shares)}")
        if not all(r["correct"] for runs in sets for r in runs):
            problems.append(f"{w}: a run was not correct")


def trace_check(workloads, seed, seconds, results, problems):
    for w in workloads:
        a, b = (run_once(w, seed, seconds, 1) for _ in range(2))
        diff = [k for k, v in a["metrics"].items()
                if v["unit"] == "count" and v["value"] != b["metrics"][k]["value"]]
        untraced = statistics.median(r["pass_s"] for runs in results[w] for r in runs)
        overhead = statistics.median([a["pass_s"], b["pass_s"]]) / untraced - 1
        print(f"trace {w}: " + ("counts identical" if not diff else f"counts differ: {diff}")
              + f", traced pass {a['pass_s']:.3f} s / {b['pass_s']:.3f} s, tracing overhead "
              f"{overhead:.0%}")
        if diff:
            problems.append(f"{w}: traced counts differ between two runs: {diff}")


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace-check", action="store_true")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give a spread")
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    seed = args.first_seed
    for s in range(SETS):
        for _ in range(args.runs):
            for w in workloads:
                t0 = time.perf_counter()
                res = run_once(w, seed, seconds, 0)
                results[w][s].append(res)
                print(f"set {s + 1} {w:16s} seed {seed:4d} {time.perf_counter() - t0:6.1f}s "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                      + f" failed {res['failed']}/{res['attempted']}"
                      + ("" if res["correct"] else " NOT CORRECT"), flush=True)
            seed += 1

    problems, warnings = [], []
    compare_sets(results, metrics, problems, warnings)
    if args.trace_check:
        trace_check(workloads, args.first_seed, seconds, results, problems)

    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(results, indent=1))
    for line in warnings:
        print("warning:", line)
    for line in problems:
        print("VIOLATION:", line)
    print(f"{'steady' if not problems else 'NOT steady'}; raw results in {path.relative_to(ROOT)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
