"""Per-call timing of the section kernels on fixed bodies and fixed hyperplanes.

The bodies and hyperplanes come from a fixed key, not from the workload seed,
so every run and every commit times the same calls.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

from capsec import families
from capsec.bodies import Ball, Ellipsoid, HPolytope, LpBall
from capsec.sections import Hyperplane, cap_volume, section

DIMS = (2, 3, 4)
SECTION_KINDS = ("ball", "ellipsoid", "hpolytope", "vpolytope")
TOUCH_KINDS = ("ball", "ellipsoid", "lpball")
PLANES = 16
PASSES = 5
MIN_PASS_S = 0.005
_KEY = 20251122


def _rng(dim, salt):
    return np.random.Generator(np.random.Philox(key=np.uint64(_KEY + 97 * dim + salt)))


def _unit_rows(rng, count, dim):
    g = rng.normal(size=(count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def fixed_body(kind, dim):
    rng = _rng(dim, 1)
    if kind == "ball":
        return Ball(1.0, dim)
    if kind == "ellipsoid":
        return Ellipsoid.from_semiaxes(np.linspace(1.0, 0.6, dim), rotation=families.random_rotation(rng, dim))
    if kind == "hpolytope":
        u = _unit_rows(rng, 3 * dim, dim)
        return HPolytope(np.vstack([u, -u]), np.ones(6 * dim))
    if kind == "vpolytope":
        return families.random_symmetric_vpolytope(rng, dim)
    if kind == "lpball":
        return LpBall(3.0, 1.0, dim)
    raise ValueError(kind)


def fixed_planes(K):
    """Hyperplanes at 30% of the support: nondegenerate sections on every kind."""
    return [Hyperplane(x, 0.3 * K.support(x)) for x in _unit_rows(_rng(K.dim, 2), PLANES, K.dim)]


def _per_call_us(fn, args):
    for a in args:  # warm per-body caches (edges, vertex enumeration)
        fn(*a)
    t0 = perf_counter()
    for a in args:
        fn(*a)
    reps = max(1, math.ceil(MIN_PASS_S / max(perf_counter() - t0, 1e-9)))
    samples = []
    for _ in range(PASSES):
        t0 = perf_counter()
        for _ in range(reps):
            for a in args:
                fn(*a)
        samples.append((perf_counter() - t0) / (reps * len(args)))
    return 1e6 * statistics.median(samples)


def sweep():
    """{metric name: microseconds per call} for every kernel, kind and dimension."""
    out = {}
    for op, fn in (("section", section), ("cap_volume", cap_volume)):
        for kind in SECTION_KINDS:
            for dim in DIMS:
                K = fixed_body(kind, dim)
                out[f"kernel.{op}.{kind}.n{dim}.us"] = _per_call_us(fn, [(K, H) for H in fixed_planes(K)])
    for kind in TOUCH_KINDS:
        for dim in DIMS:
            L = fixed_body(kind, dim)
            dirs = _unit_rows(_rng(dim, 3), PLANES, dim)
            out[f"kernel.touch_point.{kind}.n{dim}.us"] = _per_call_us(L.touch_point, [(u,) for u in dirs])
    return out


def metric_names():
    names = [f"kernel.{op}.{kind}.n{d}.us" for op in ("section", "cap_volume") for kind in SECTION_KINDS for d in DIMS]
    return names + [f"kernel.touch_point.{kind}.n{d}.us" for kind in TOUCH_KINDS for d in DIMS]
