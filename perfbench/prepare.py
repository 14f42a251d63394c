"""Set-up of one benchmark process: thread pinning, locating the capsec
sources of this checkout, and the timed import-plus-instance-generation step.

Run as a script, ``python3 perfbench/prepare.py <workload> <seed>`` performs
one set-up in a fresh interpreter and prints its duration in seconds; the
benchmark runs it in child processes to take several set-up samples per run.
Importing this module imports only the standard library.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_INSTANCES = 2  # instances generated inside each timed set-up sample


class SetupError(RuntimeError):
    """The checkout holds no capsec sources, or the workload is unknown."""


def pin_threads():
    """One BLAS/OpenMP thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_sources():
    """Put this checkout's ``src`` first on sys.path and check capsec comes from it."""
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    spec = importlib.util.find_spec("capsec")
    origin = Path(spec.origin).resolve() if spec is not None and spec.origin else None
    if origin is None or SRC.resolve() not in origin.parents:
        raise SetupError(f"capsec sources not found under {SRC}")


def prepare(workload_name, seed, count=SETUP_INSTANCES):
    """Import capsec and build the workload's first ``count`` instances.

    Returns (seconds, workload, instances); the seconds cover the import, the
    seeded instance generation and the body construction.
    """
    t0 = perf_counter()
    import workloads  # imports capsec, numpy and scipy

    workload = workloads.WORKLOADS.get(workload_name)
    if workload is None:
        raise SetupError(f"unknown workload {workload_name!r}; choose from {sorted(workloads.WORKLOADS)}")
    instances = workload.instances(seed, count)
    return perf_counter() - t0, workload, instances


if __name__ == "__main__":
    pin_threads()
    use_checkout_sources()
    seconds, _, _ = prepare(sys.argv[1], int(sys.argv[2]))
    print(repr(seconds))
