"""Workload definitions: seeded instance streams, the timed ``solve`` call, the
correctness gate and the bytes that enter the answers digest.

Every input is derived from the workload seed; the library only ever receives
the generated ``(K, L)`` bodies and a solver configuration.  Importing this
module imports ``capsec`` (and with it numpy and scipy), so the set-up timer
starts before the import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from capsec import families, reporting, solver
from capsec.bodies import Ellipsoid, VPolytope

GAUGE_TOL = 1e-5  # the acceptance census's |gauge(centroid) - 1| check
POOL_KEY = 20251122  # fixed key of the vpolytope_census shape pool, independent of the seed
POOL_SIZE = 8


@dataclass
class Instance:
    index: int
    seed: int
    K: object
    L: object


def _rng(instance_seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(instance_seed)))


# --- instance generators ---------------------------------------------------


def _ellipsoid_in_polytope_pool(dim):
    # The polytope's shape sets much of a solve's cost, so runs of about 25
    # fresh draws of the family differed by 12% in their median solve time
    # through the draws alone.  Instance i is draw i mod POOL_SIZE of a fixed
    # pool, turned by a rotation drawn from the instance seed (which also
    # seeds the solver's starts): every seed times the same mix of shapes on
    # different inputs.
    def make(instance_seed, index):
        K, L = families.random_instance("ellipsoid_in_polytope", dim, POOL_KEY + index % POOL_SIZE)
        R = families.random_rotation(_rng(instance_seed), dim)
        return VPolytope(K.vertices @ R.T), Ellipsoid(R @ L.shape_matrix @ R.T)

    return make


def _ellipsoid_in_ellipsoid(dim):
    # Aspect ratios are bounded (outer 0.6-1.2, inner 0.5-1.0): draws near the
    # default 0.3-1.0 inner range take 4-5x the median solve time through
    # thousands of extra gradient iterations, so a run holding one of
    # them would not measure the layers but the draw.
    def make(instance_seed, index):
        rng = _rng(instance_seed)
        K = families.random_ellipsoid(rng, dim, (0.6, 1.2))
        L = families.fit_inside(K, families.random_ellipsoid(rng, dim, (0.5, 1.0)))
        return K, L

    return make


@dataclass(frozen=True)
class Workload:
    index: int
    name: str  # BENCHMARK.json records why each workload is measured
    make: object  # (instance seed, index) -> (K, L)
    starts_per_dim: int | None  # solver starts per dimension; None keeps the solver's default
    trace_instances: int  # fixed instance count of a traced run, so its counts repeat exactly

    def run(self, inst):
        """The timed call: one ``solve`` of the instance."""
        starts = None if self.starts_per_dim is None else self.starts_per_dim * inst.K.dim
        return solver.solve(inst.K, inst.L, solver.SolverConfig(starts=starts, seed=inst.seed))

    def encode(self, inst, report):
        """The answer's bytes, as they enter the answers digest."""
        return reporting.dump_report(inst.K, inst.L, report, inst.seed)

    def gate(self, inst, report):
        """(at least n pairs found and certified, wrong-answer messages).

        An instance fails on either; a wrong answer also makes the run incorrect.
        """
        tol = solver.SolverConfig().residual_tol
        errors = []
        for p in report.pairs:
            if p.residual > tol:
                errors.append(f"pair {p.direction} residual {p.residual:.3g} > {tol:g}")
            gauge_err = abs(inst.L.gauge(p.centroid) - 1.0)
            if gauge_err > GAUGE_TOL:
                errors.append(f"pair {p.direction} |gauge(centroid) - 1| = {gauge_err:.3g}")
        return report.certified and len(report.pairs) >= inst.K.dim, errors

    def instance(self, seed, index):
        """The index-th instance of the workload's endless seeded stream."""
        ss = np.random.SeedSequence([int(seed), self.index, index])
        instance_seed = int(ss.generate_state(1, dtype=np.uint64)[0])
        return Instance(index, instance_seed, *self.make(instance_seed, index))

    def instances(self, seed, count):
        return [self.instance(seed, i) for i in range(count)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            0,
            "vpolytope_census",
            _ellipsoid_in_polytope_pool(3),
            starts_per_dim=32,
            trace_instances=POOL_SIZE,
        ),
        Workload(
            1,
            "analytic_census",
            _ellipsoid_in_ellipsoid(4),
            starts_per_dim=None,
            trace_instances=6,
        ),
    )
}
