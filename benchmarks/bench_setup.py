"""Set-up of one benchmark run: import the library from the checkout's
``src/`` and generate a workload's inputs from the seed.

Run as a script, it times one set-up in a fresh process and prints the
seconds, so ``run.py`` can repeat set-up and report its median:

    python3 benchmarks/bench_setup.py rp2-sq1 1
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(Exception):
    pass


def pin_threads() -> None:
    """One BLAS/OpenMP thread, set before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_library():
    src = ROOT / "src"
    if not (src / "steenrips" / "__init__.py").is_file():
        raise SetupError(f"no library source at {src / 'steenrips'}")
    sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import steenrips

    if not Path(steenrips.__file__).resolve().is_relative_to(src):
        raise SetupError(f"steenrips imported from {steenrips.__file__}, not {src}")
    return steenrips


def timed_setup(workload: str, seed: int):
    """Seconds to import the library and build the input pool, the workload
    and the pool."""
    start = time.perf_counter()
    import_library()
    from workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise SetupError(f"unknown workload {workload!r}; pick from {sorted(WORKLOADS)}")
    wl = WORKLOADS[workload]
    pool = wl.make_inputs(seed)
    return time.perf_counter() - start, wl, pool


if __name__ == "__main__":
    pin_threads()
    print(repr(timed_setup(sys.argv[1], int(sys.argv[2]))[0]))
