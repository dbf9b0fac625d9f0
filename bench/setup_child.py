"""One set-up probe: a fresh interpreter imports spincm and runs one job.

Run by ``run.py`` as ``python3 bench/setup_child.py <CLI arguments>``; its
wall time from start to exit is one sample of ``setup_s``.  Exits with the
job's exit code.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

if __name__ == "__main__":
    import signal

    signal.alarm(60)  # a hung probe must not hang the benchmark
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))
    from spincm.cli import main

    sys.exit(main(sys.argv[1:]))
