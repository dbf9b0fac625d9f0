"""The measured process: it runs a workload's CLI jobs, round by round.

Started by ``run.py`` as ``python3 bench/worker.py <spec.json>``.  It imports
only the program, the reference computation (``calib.py``) and, for a traced
run, ``tracing.py`` -- never the checks -- so that its peak resident memory
is that of the program's jobs.  It talks to ``run.py`` in JSON lines:

* on start it runs the warm-up job and sends ``{"warmup_code": ...}``;
* on ``round`` it runs every job once and sends the exit codes, the
  errors of jobs that raised, and each job's calibrated and raw cost;
* on ``stop`` it sends the per-layer metrics (traced run only) and its
  peak resident memory, and exits.

The program's own output to standard output and error is discarded.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

LIFETIME_S = 150  # a hung job must not hang the benchmark


def run_op(cli, argv):
    """(exit code or None on an exception, wall s, CPU s, error text)."""
    err = io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a crash of the program is a failed operation
        code = None
        err.write(traceback.format_exc())
    return code, time.perf_counter() - t0, time.process_time() - c0, err.getvalue()


def run_round(cli, ops, tracer=None):
    """Run every op (name, argv, out path) once.  Each op's time is divided
    by the mean of the reference computation's times just before and just
    after it."""
    import calib
    codes, errors, cost = {}, {}, {}
    ref_prev = calib.time_reference()
    for name, argv, out in ops:
        Path(out).unlink(missing_ok=True)
        if tracer is not None:
            tracer.install()
        code, wall, cpu, err = run_op(cli, argv)
        if tracer is not None:
            tracer.uninstall()
        ref = calib.time_reference()
        cost[name] = {"run_cal": wall / (0.5 * (ref_prev[0] + ref[0])),
                      "cpu_cal": cpu / (0.5 * (ref_prev[1] + ref[1])),
                      "wall_s": wall, "cpu_s": cpu}
        codes[name] = code
        if code is None:
            errors[name] = err
        ref_prev = ref
    return codes, errors, cost


def layer_metrics(tracer, trace_path):
    """Per-layer metrics of a traced run -- the counts of one round (every
    round must repeat them) and the median over rounds of each self time --
    and notes on anything that does not hold."""
    import tracing
    rows = tracer.per_round()
    notes = [f"trace: {name} not found in the program; its layer metric reads 0"
             for name in tracer.missing]
    for k, row in enumerate(rows[1:], start=1):
        diff = [m for m, (kind, _) in tracing.PER_LAYER.items()
                if kind != "self" and row[m] != rows[0][m]]
        if diff:
            notes.append(f"trace: round {k} counts differ from round 0: {', '.join(diff)}")
    Path(trace_path).parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_path)
    metrics = {}
    for name, (kind, _) in tracing.PER_LAYER.items():
        if kind == "self":
            metrics[name] = {"value": statistics.median(r[name] for r in rows), "unit": "s"}
        else:
            metrics[name] = {"value": rows[0][name], "unit": "count"}
    return metrics, notes


def main(spec_path):
    signal.alarm(LIFETIME_S)
    # the protocol gets its own copy of standard output; anything else the
    # program writes to file descriptor 1 goes nowhere
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)

    def send(msg):
        proto.write(json.dumps(msg) + "\n")

    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import spincm.cli as cli
    ops = spec["ops"]
    # in-process warm-up: lazy imports and first-call costs are set-up
    send({"warmup_code": run_op(cli, ops[spec["warmup"]][1])[0]})

    tracer = None
    if spec["trace_path"]:
        import tracing
        tracer = tracing.Tracer()
    for line in sys.stdin:
        if line.strip() == "round":
            first_span = len(tracer.name_id) if tracer else 0
            codes, errors, cost = run_round(cli, ops, tracer)
            if tracer:
                tracer.mark_round(first_span)
            send({"codes": codes, "errors": errors, "cost": cost})
        elif line.strip() == "stop":
            break
    metrics, notes = layer_metrics(tracer, spec["trace_path"]) if tracer else ({}, [])
    send({"metrics": metrics, "notes": notes,
          "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    proto.close()


if __name__ == "__main__":
    main(sys.argv[1])
