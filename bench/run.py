#!/usr/bin/env python3
"""Benchmark of spincm through its front door, ``spincm.cli.main``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, then has a worker process
(worker.py) run whole rounds of the workload's CLI jobs for at least S
seconds, and checks every output here, apart from the measured process.
Set-up time is probed in fresh interpreters between the rounds.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, run_cal,
cpu_cal, peak_rss_mb); with ``--trace 1`` the per-layer ones of tracing.py,
from a run with every layer wrapped.  Everything runs on one thread: the
BLAS thread count is pinned to 1 before numpy is imported.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SPINCM_PRESET_DIR", None)  # presets must be the built-in ones

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_PROBES = 7


def parse_args(argv=None):
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def check_round(ops, codes, errors):
    """[(op, status, problems)] with status 'ok', 'fault' or 'wrong'."""
    outs = {op.name: (codes[op.name], op.out, errors.get(op.name, "")) for op in ops}
    rows = []
    for op in ops:
        code, _, err = outs[op.name]
        if code is None:
            problems = [("exception", err.strip().splitlines()[-1])]
        else:
            try:
                problems = op.check(code, outs)
            except Exception as exc:  # unreadable output
                problems = [("check_error", f"{type(exc).__name__}: {exc}")]
        rows.append((op, op.classify(problems), problems))
    return rows


def pass_cost(costs, key):
    """A pass's cost: the sum over jobs of the median over rounds of each
    job's cost `key`, so that a burst of load in one job of one round does
    not move it."""
    return sum(statistics.median(c[name][key] for c in costs) for name in costs[0])


class Worker:
    """The process that runs the workload's jobs (worker.py); this process
    only sends it requests, checks the outputs and probes set-up time."""

    def __init__(self, wl, workdir, trace_path=None):
        spec = workdir / "worker.json"
        spec.write_text(json.dumps({
            "src": str(SRC), "warmup": wl.warmup, "trace_path": trace_path and str(trace_path),
            "ops": [[op.name, op.argv, str(op.out)] for op in wl.ops]}))
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec)],
                                     cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self.warmup_code = self._receive()["warmup_code"]

    def _receive(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker ended (exit code {self.proc.wait()})")
        return json.loads(line)

    def round(self):
        """{"codes", "errors", "cost"} of one round of every job."""
        self.proc.stdin.write("round\n")
        self.proc.stdin.flush()
        return self._receive()

    def stop(self):
        """{"metrics", "notes", "peak_rss_mb"}; the worker then exits."""
        self.proc.stdin.write("stop\n")
        self.proc.stdin.flush()
        final = self._receive()
        self.close()
        return final

    def close(self):
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()  # the worker ends when its input does
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class SetupProbes:
    """Set-up time samples: a fresh interpreter that imports spincm and runs
    one job, timed from start to exit.  Each sample is divided by the mean of
    the reference computation's times just before and just after it and
    scaled by calib.REFERENCE_S, so it reads in seconds at the reference
    speed and the machine's drift cancels.  Probes are spread over the run
    (one before each of the first rounds, the rest after the last) so that
    their median does not hang on one moment."""

    def __init__(self, op, expected_code):
        self.argv = [sys.executable, str(HERE / "setup_child.py")] + op.argv
        self.expected = expected_code
        self.times, self.raw, self.problems = [], [], []

    def probe(self):
        import calib
        ref0 = calib.time_reference()[0]
        # a blocking wait, not a polling one, so that the end is seen at once;
        # the probe ends itself if it hangs (see setup_child.py)
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        proc.wait()
        wall = time.perf_counter() - t0
        ref1 = calib.time_reference()[0]
        self.raw.append(wall)
        self.times.append(wall / (0.5 * (ref0 + ref1)) * calib.REFERENCE_S)
        if proc.returncode != self.expected:
            self.problems.append(("setup", f"set-up probe exited {proc.returncode}, "
                                           f"expected {self.expected}"))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "spincm" / "cli.py").is_file():
        sys.stderr.write(f"error: no program to measure: {SRC / 'spincm'} is missing\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    worker = None
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        trace_path = (OUT / "traces" / f"{args.workload}-seed{args.seed}.npz"
                      if args.trace else None)
        worker = Worker(wl, workdir, trace_path)
        warm = wl.ops[wl.warmup]
        probes = SetupProbes(warm, worker.warmup_code) if not args.trace else None

        costs, n_rounds, failed, wrong, first_report = [], 0, 0, 0, None
        measured = 0.0  # seconds spent in rounds, set-up probes excluded
        while True:
            if probes and len(probes.times) < SETUP_PROBES:
                probes.probe()
            t_round = time.perf_counter()
            reply = worker.round()
            rows = check_round(wl.ops, reply["codes"], reply["errors"])
            costs.append(reply["cost"])
            n_rounds += 1
            failed += sum(1 for _, status, _ in rows if status != "ok")
            wrong += sum(1 for _, status, _ in rows if status == "wrong")
            if first_report is None:
                first_report = rows
            measured += time.perf_counter() - t_round
            if measured >= args.seconds:
                break
        final = worker.stop()
        while probes and len(probes.times) < SETUP_PROBES:
            probes.probe()
        setup_problems = probes.problems if probes else []

        for op, status, problems in first_report:
            if status != "ok":
                label = (f"known fault ({workloads.FAULTS[op.fault]})"
                         if status == "fault" else "WRONG")
                print(f"{label}: {op.name}: " + "; ".join(m for _, m in problems))
        for _, message in setup_problems:
            print(f"WRONG: set-up {warm.name}: {message}")
        for note in final["notes"]:
            print(note)
        print(f"workload {args.workload} seed {args.seed}: {n_rounds} rounds of "
              f"{len(wl.ops)} jobs; median pass {pass_cost(costs, 'wall_s'):.3f} s "
              f"wall, {pass_cost(costs, 'cpu_s'):.3f} s CPU"
              + (f"; median set-up probe {statistics.median(probes.raw):.3f} s wall"
                 if probes else ""))

        if args.trace:
            metrics = final["metrics"]
        else:
            metrics = {
                "setup_s": {"value": statistics.median(probes.times), "unit": "s"},
                "run_cal": {"value": pass_cost(costs, "run_cal"), "unit": "cal"},
                "cpu_cal": {"value": pass_cost(costs, "cpu_cal"), "unit": "cal"},
                "peak_rss_mb": {"value": final["peak_rss_mb"], "unit": "MB"},
            }
        result = {"correct": wrong == 0 and not setup_problems,
                  "attempted": n_rounds * len(wl.ops), "failed": failed, "metrics": metrics}
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
