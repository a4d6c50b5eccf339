"""Entry point of one benchmark workload process (started by run.py).

Pins the BLAS thread pools to one thread before numpy is imported, puts the
checkout's ``src`` first on the import path, then hands over to
``workload.main``. ``BENCH_SPAWN_NS`` is the CLOCK_MONOTONIC time at which
the parent started this process, so set-up time counts interpreter start.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_spawn_ns = int(os.environ.get("BENCH_SPAWN_NS", time.monotonic_ns()))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workload  # noqa: E402  (numpy loads here, after the pin)

if __name__ == "__main__":
    raise SystemExit(workload.main(sys.argv[1:], _spawn_ns))
