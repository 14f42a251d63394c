"""capsec benchmark: closed-loop solves of seeded instances, one caller, one thread.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; capsec is imported from its ``src``.  The
instances are generated from ``--seed`` before timing and fed to the library
one after another.

``--trace 0`` solves instances until ``--seconds`` of solve time have passed
and reports the end-to-end metrics:

- ``instance_cost_p50``: median over the run's instances of the wall time of
  one ``solve`` in multiples of the wall time of the fixed reference kernel
  (``reference.py``), timed just before and after it, so that the host's
  changes of speed cancel out; the plain wall seconds are printed too;
- ``setup_s``: median of three set-ups, one in this process and two in fresh
  interpreters, each importing capsec and generating the first instances;
- ``peak_rss_mb``: peak resident memory of this process;
- ``certified_fraction``: share of attempted instances that pass the
  correctness gate, the complement of the failed fraction (its base is
  ``attempted``).

``--trace 1`` runs a fixed number of instances twice each, untraced and
traced, and reports per-layer call counts and self times, the tracing
overhead, solver diagnostics and the per-call kernel sweep.  Its counts
repeat exactly for a given seed.

Every run applies the correctness gate outside the timed region and prints a
sha256 digest over the answers' report bytes.  An instance fails when it
finds fewer than n certified pairs or returns a wrong answer (a pair whose
residual or centroid gauge is off); a wrong answer, or traced answers that
differ from untraced ones, also makes the run incorrect.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

The benchmark's own tests: ``python3 -m pytest perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter

import prepare as setup

SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def child_setup_seconds(workload, seed):
    out = subprocess.run(
        [sys.executable, str(setup.HERE / "prepare.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
        cwd=setup.ROOT,
    )
    return float(out.stdout.strip().splitlines()[-1])


def environment(seed):
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Gate:
    """Correctness gate over a run's instances; never inside a timed region."""

    def __init__(self, workload):
        self.workload = workload
        self.failed = 0
        self.wrong = 0

    def __call__(self, inst, answer):
        certified, errors = self.workload.gate(inst, answer)
        if errors or not certified:
            self.failed += 1
            self.wrong += bool(errors)
            reasons = errors if certified else ["fewer than n certified pairs"] + errors
            print(f"FAIL {self.workload.name} instance {inst.index} (seed {inst.seed}): {'; '.join(reasons)}")


def measure(args):
    """Untraced run: end-to-end metrics."""
    setup_samples = []
    seconds, workload, instances = setup.prepare(args.workload, args.seed)
    setup_samples.append(seconds)
    for _ in range(SETUP_CHILDREN):
        setup_samples.append(child_setup_seconds(args.workload, args.seed))

    import reference  # after the set-ups, which time the first numpy and scipy import

    # Instances beyond the set-up ones are generated between solves, outside
    # the timer.  The reference kernel is timed between solves too: each
    # solve's cost is its time over the mean of the kernel times just before
    # and just after it.
    times, costs, answers = [], [], []
    ref_s = reference.seconds()
    while sum(times) < args.seconds:
        if len(times) == len(instances):
            instances.append(workload.instance(args.seed, len(instances)))
        t0 = perf_counter()
        answers.append(workload.run(instances[len(times)]))
        times.append(perf_counter() - t0)
        after_s = reference.seconds()
        costs.append(2 * times[-1] / (ref_s + after_s))
        ref_s = after_s

    digest = hashlib.sha256()
    gate = Gate(workload)
    for inst, answer in zip(instances, answers):
        digest.update(workload.encode(inst, answer))
        gate(inst, answer)
    attempted = len(times)
    print(f"digest {workload.name} sha256 {digest.hexdigest()} over {attempted} instances")
    print(f"failed_fraction {gate.failed / attempted:.6g} = {gate.failed}/{attempted}")
    print(f"setup_samples_s {[round(s, 4) for s in setup_samples]}")
    print(f"instance_s {[round(t, 3) for t in times]} (median {statistics.median(times):.4f})")
    print(f"instance_cost_ref {[round(c, 1) for c in costs]}")
    metrics = {
        "instance_cost_p50": (statistics.median(costs), "ref"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "certified_fraction": ((attempted - gate.failed) / attempted, "ratio"),
    }
    return not gate.wrong, attempted, gate.failed, metrics


def trace(args):
    """Traced run: per-layer counts and self times over a fixed instance count."""
    import kernels
    from tracer import Tracer

    _, workload, _ = setup.prepare(args.workload, args.seed, count=0)
    setup_tracer = Tracer()  # kept apart so set-up calls do not enter the solve counts
    with setup_tracer.active():
        pool = workload.instances(args.seed, workload.trace_instances)
    tracer = Tracer()
    with tracer.active():
        unwrapped = tracer.unwrapped_references()

    elapsed = {False: 0.0, True: 0.0}
    digests = {False: hashlib.sha256(), True: hashlib.sha256()}
    gate = Gate(workload)
    diag = {"starts": 0, "converged": 0, "pairs": 0, "iterations": 0, "degenerate_rejections": 0}
    for inst in pool:
        # alternate the order so first-call caches on the bodies favour neither side
        for traced in (False, True) if inst.index % 2 == 0 else (True, False):
            with tracer.active() if traced else nullcontext():
                t0 = perf_counter()
                answer = workload.run(inst)
                elapsed[traced] += perf_counter() - t0
                digests[traced].update(workload.encode(inst, answer))
        gate(inst, answer)
        if hasattr(answer, "diagnostics"):
            for key in ("starts", "converged", "iterations", "degenerate_rejections"):
                diag[key] += int(answer.diagnostics.get(key, 0))
            diag["pairs"] += len(answer.pairs)

    hexes = {traced: d.hexdigest() for traced, d in digests.items()}
    for traced, hexdigest in hexes.items():
        print(f"digest {workload.name} {'traced' if traced else 'untraced'} sha256 {hexdigest} over {len(pool)} instances")
    if hexes[True] != hexes[False]:
        print("FAIL traced answers differ from untraced answers")
    if unwrapped:
        print(f"FAIL unwrapped layer references while tracing: {unwrapped}")
    if tracer.absent:
        print(f"absent stage functions (reported as 0): {tracer.absent}")

    calls, self_s, methods = tracer.calls, tracer.self_s, tracer.section_methods
    metrics = {}
    for layer in ("bodies.support", "bodies.touch_point"):
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    metrics["sections.section.calls"] = (calls["sections.section"], "count")
    metrics["sections.section.self_s"] = (self_s["sections.section"], "s")
    for method, key in (("exact", "exact"), ("analytic", "analytic"), ("monte-carlo", "mc"), ("degenerate", "degenerate")):
        metrics[f"sections.section.{key}_calls"] = (methods[method], "count")
    for layer in ("sections.qhull", "sections.linprog", "sections.cap_volume", "sections.hyperplane_chart", "functional.evaluate"):
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    for layer in ("solver.solve", "solver.gradient_stage", "solver.polish", "solver.classify"):
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    metrics["solver.iterations"] = (diag["iterations"], "count")
    metrics["solver.degenerate_rejections"] = (diag["degenerate_rejections"], "count")
    metrics["solver.converged_ratio"] = (diag["converged"] / diag["starts"] if diag["starts"] else 0.0, "ratio")
    metrics["solver.distinct_ratio"] = (diag["pairs"] / diag["converged"] if diag["converged"] else 0.0, "ratio")
    print(f"solver diagnostics {diag}")
    metrics["families.random_instance.s"] = (setup_tracer.total_s["families.random_instance"], "s")
    metrics["reporting.dump_report.s"] = (tracer.total_s["reporting.dump_report"], "s")
    metrics["trace.overhead_ratio"] = (elapsed[True] / elapsed[False], "ratio")
    for name, us in kernels.sweep().items():
        metrics[name] = (us, "us")

    correct = not gate.wrong and hexes[True] == hexes[False] and not unwrapped
    return correct, len(pool), gate.failed, metrics


def main(argv=None):
    args = parse_args(argv)
    setup.pin_threads()
    try:
        setup.use_checkout_sources()
        correct, attempted, failed, metrics = (trace if args.trace else measure)(args)
    except setup.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args.seed)))
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
