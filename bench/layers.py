"""Per-layer timings on fixed instances at n = 2, 3, 4.

    python -m pytest bench/layers.py --benchmark-json=BENCH_layers.json

times ``touch_point`` for a ball, ellipsoid and lp-ball L, and, on one fixed
instance per outer-body kind, ``cap_volume`` and ``section`` on L's supporting
plane, ``evaluate`` and the polish's chart and residual Jacobian
(``_newton_chart``) at one fixed direction, and the solver stages from that
direction: the descent ``_gradient_stage``, and the ``_polish`` from where the
descent ends.  The inner body is a seeded random ellipsoid fitted inside K;
one more chart case fits an lp-ball with p = 3 in a ball, so the boundary
chart at L's flat points is timed too.
"""

import numpy as np
import pytest

from capsec.bodies import Ball, LpBall, VPolytope, cube
from capsec.families import fit_inside, random_ellipsoid
from capsec.functional import _supporting_plane, evaluate
from capsec.sections import cap_volume, section
from capsec.solver import POLISH_TRIGGER, RESIDUAL_TOL, _gradient_stage, _newton_chart, _polish

KINDS = ("ball", "ellipsoid", "hpolytope", "vpolytope")
INNER_KINDS = ("ball", "ellipsoid", "lpball")
DIMS = (2, 3, 4)


def _rng(key):
    return np.random.Generator(np.random.Philox(key=np.uint64(key)))


def _direction(rng, dim):
    z = rng.normal(size=dim)
    return z / np.linalg.norm(z)


def instance(kind, dim):
    rng = _rng(1000 * dim + KINDS.index(kind))
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
    return K, L, _direction(rng, dim)


def inner_body(kind, dim):
    rng = _rng(2000 * dim + INNER_KINDS.index(kind))
    if kind == "ball":
        L = Ball(0.5, dim)
    elif kind == "ellipsoid":
        L = random_ellipsoid(rng, dim, (0.5, 1.0))
    else:
        L = LpBall(3.0, 0.5, dim)
    return L, _direction(rng, dim)


CASES = [pytest.param(kind, dim, id=f"{kind}-n{dim}") for kind in KINDS for dim in DIMS]
INNER_CASES = [pytest.param(kind, dim, id=f"{kind}-n{dim}") for kind in INNER_KINDS for dim in DIMS]


@pytest.mark.parametrize("kind, dim", INNER_CASES)
def test_touch_point(benchmark, kind, dim):
    L, z = inner_body(kind, dim)
    assert benchmark(L.touch_point, z) @ z == pytest.approx(L.support(z))


@pytest.mark.parametrize("kind, dim", CASES)
def test_cap_volume(benchmark, kind, dim):
    K, L, z = instance(kind, dim)
    H, _ = _supporting_plane(K, L, z)
    assert 0.0 < benchmark(cap_volume, K, H) < K.volume()


@pytest.mark.parametrize("kind, dim", CASES)
def test_section(benchmark, kind, dim):
    K, L, z = instance(kind, dim)
    H, _ = _supporting_plane(K, L, z)
    assert not benchmark(section, K, H).degenerate


@pytest.mark.parametrize("kind, dim", CASES)
def test_evaluate(benchmark, kind, dim):
    K, L, z = instance(kind, dim)
    assert np.isfinite(benchmark(evaluate, K, L, z).f_value)


@pytest.mark.parametrize("kind, dim", CASES)
def test_newton_chart(benchmark, kind, dim):
    K, L, z = instance(kind, dim)
    Q, J, _ = benchmark(_newton_chart, K, L, z)
    assert J.shape == (dim, dim - 1) and np.isfinite(J).all()


@pytest.mark.parametrize("kind, dim", CASES)
def test_gradient_stage(benchmark, kind, dim):
    K, L, z = instance(kind, dim)
    stats = {"iterations": 0, "degenerate_rejections": 0}
    _, r = benchmark(_gradient_stage, K, L, z, +1.0, stats)
    assert np.linalg.norm(r) < POLISH_TRIGGER


@pytest.mark.parametrize("kind, dim", CASES)
def test_polish(benchmark, kind, dim):
    K, L, z = instance(kind, dim)
    stats = {"iterations": 0, "degenerate_rejections": 0}
    z, r = _gradient_stage(K, L, z, +1.0, stats)
    _, res = benchmark(_polish, K, L, z, stats, r)
    assert res <= RESIDUAL_TOL


def test_newton_chart_flat_points(benchmark):
    # an lp-ball with p > 2 is flat where a coordinate is 0: the chart steps the touch point
    K = Ball(1.0, 3)
    L = fit_inside(K, LpBall(3.0, 1.0, 3))
    z = np.array([0.0, 0.6, 0.8])
    Q, J, move = benchmark(_newton_chart, K, L, z)
    assert J.shape == (3, 2) and np.isfinite(J).all()
    assert move(np.zeros(3)) == pytest.approx(z, abs=1e-15)
