"""Per-layer timings on one fixed instance per outer-body kind at n = 2, 3, 4.

    python -m pytest bench/layers.py

times ``section`` on L's supporting plane, ``evaluate`` and the solver's
residual Jacobian at one fixed direction, and writes the pytest-benchmark
report to ``BENCH_layers.json`` (see ``bench/pytest.ini``).  The inner body is
a seeded random ellipsoid fitted inside K.
"""

import numpy as np
import pytest

from capsec.bodies import Ball, Ellipsoid, VPolytope, cube
from capsec.families import fit_inside, random_ellipsoid
from capsec.functional import _supporting_plane, evaluate
from capsec.sections import section
from capsec.solver import _residual_jacobian

KINDS = ("ball", "ellipsoid", "hpolytope", "vpolytope")
DIMS = (2, 3, 4)


def instance(kind, dim):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(1000 * dim + KINDS.index(kind))))
    if kind == "ball":
        K = Ball(1.0, dim)
    elif kind == "ellipsoid":
        K = random_ellipsoid(rng, dim, (0.6, 1.2))
    elif kind == "hpolytope":
        K = cube(1.0, dim)
    else:
        pts = rng.normal(size=(3 * dim, dim))
        K = VPolytope.symmetric_hull(pts / np.linalg.norm(pts, axis=1, keepdims=True))
    L = fit_inside(K, random_ellipsoid(rng, dim, (0.5, 1.0)))
    z = rng.normal(size=dim)
    return K, L, z / np.linalg.norm(z)


CASES = [pytest.param(kind, dim, id=f"{kind}-n{dim}") for kind in KINDS for dim in DIMS]


@pytest.mark.parametrize("kind, dim", CASES)
def test_section(benchmark, kind, dim):
    K, L, z = instance(kind, dim)
    H = _supporting_plane(K, L, z)
    assert not benchmark(section, K, H).degenerate


@pytest.mark.parametrize("kind, dim", CASES)
def test_evaluate(benchmark, kind, dim):
    K, L, z = instance(kind, dim)
    assert np.isfinite(benchmark(evaluate, K, L, z).f_value)


@pytest.mark.parametrize("kind, dim", CASES)
def test_residual_jacobian(benchmark, kind, dim):
    K, L, z = instance(kind, dim)
    Q, J = benchmark(_residual_jacobian, K, L, z)
    assert J.shape == (dim, dim - 1) and np.isfinite(J).all()
