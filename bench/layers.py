"""Per-layer timings on fixed instances at n = 2, 3, 4.

    python -m pytest bench/layers.py --benchmark-json=BENCH_layers.json

times ``touch_point`` for a ball, ellipsoid and lp-ball L, at one direction
and on a stack of 64n directions, and, on one fixed instance per outer-body
kind, K's and L's ``support`` at one fixed direction and K's on a stack of
64 directions, ``cap_volume`` and ``section`` on L's supporting plane and on
the stack of L's supporting planes along ``solve``'s 64n start directions,
``evaluate`` and the polish's chart and residual Jacobian (``_newton_chart``)
at that direction, ``hyperplane_chart`` on the 64n start directions, and the
solver stages as ``solve`` runs them: the lockstep ``_gradient_stage`` of
the 64n starts (descent, ascent and none, in turn), the lockstep ``_polish``
of every start from where that stage ends, and ``_classify`` at the pair a
descent reaches.  The inner body is a seeded random ellipsoid fitted inside
K; one more chart case fits an lp-ball with p = 3 in a ball, so the boundary
chart at L's flat points is timed too.
"""

import numpy as np
import pytest

from capsec.bodies import Ball, LpBall, VPolytope, cube
from capsec.families import fit_inside, random_ellipsoid
from capsec.functional import _supporting_plane, evaluate
from capsec.sections import cap_volume, hyperplane_chart, section
from capsec.solver import (
    POLISH_TRIGGER,
    RESIDUAL_TOL,
    _chart_move,
    _classify,
    _gradient_stage,
    _newton_chart,
    _polish,
    _start_directions,
)

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


def starts(dim):
    """``solve``'s 64n start directions at seed 0 and their roles: descent, ascent and none, in turn."""
    z = _start_directions(dim, 64 * dim, 0)
    return z, np.array([1.0, -1.0, 0.0])[np.arange(len(z)) % 3]


CASES = [pytest.param(kind, dim, id=f"{kind}-n{dim}") for kind in KINDS for dim in DIMS]
INNER_CASES = [pytest.param(kind, dim, id=f"{kind}-n{dim}") for kind in INNER_KINDS for dim in DIMS]


@pytest.mark.parametrize("kind, dim", INNER_CASES)
def test_touch_point(benchmark, kind, dim):
    L, z = inner_body(kind, dim)
    assert benchmark(L.touch_point, z) @ z == pytest.approx(L.support(z))


@pytest.mark.parametrize("kind, dim", INNER_CASES)
def test_touch_point_stack(benchmark, kind, dim):
    L, _ = inner_body(kind, dim)
    z, _ = starts(dim)
    assert np.einsum("ij,ij->i", benchmark(L.touch_point, z), z) == pytest.approx(L.support(z))


@pytest.mark.parametrize("body", ["K", "L"])
@pytest.mark.parametrize("kind, dim", CASES)
def test_support(benchmark, kind, dim, body):
    K, L, z = instance(kind, dim)
    B = K if body == "K" else L
    assert 0.0 < benchmark(B.support, z) <= K.support(z)


@pytest.mark.parametrize("kind, dim", CASES)
def test_support_stack(benchmark, kind, dim):
    K, _, _ = instance(kind, dim)
    U = _rng(3000 * dim + KINDS.index(kind)).normal(size=(64, dim))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    h = benchmark(K.support, U)
    assert h == pytest.approx([K.support(u) for u in U], rel=1e-14)


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
def test_cap_volume_stack(benchmark, kind, dim):
    K, L, _ = instance(kind, dim)
    H, _ = _supporting_plane(K, L, starts(dim)[0])
    v = benchmark(cap_volume, K, H)
    assert np.all((0.0 < v) & (v < K.volume()))


@pytest.mark.parametrize("kind, dim", CASES)
def test_section_stack(benchmark, kind, dim):
    K, L, _ = instance(kind, dim)
    H, _ = _supporting_plane(K, L, starts(dim)[0])
    assert not benchmark(section, K, H).degenerate


@pytest.mark.parametrize("dim", DIMS)
def test_hyperplane_chart_stack(benchmark, dim):
    z, _ = starts(dim)
    Q = benchmark(hyperplane_chart, z)
    assert np.abs(np.einsum("mij,mi->mj", Q, z)).max() <= 1e-15


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
    K, L, _ = instance(kind, dim)
    z, signs = starts(dim)
    _, r, _, refused = benchmark(_gradient_stage, K, L, z, signs)
    assert not refused.any()
    assert np.linalg.norm(r[signs != 0.0], axis=1).max() < POLISH_TRIGGER


@pytest.mark.parametrize("kind, dim", CASES)
def test_polish(benchmark, kind, dim):
    K, L, _ = instance(kind, dim)
    z, signs = starts(dim)
    z, r, _, _ = _gradient_stage(K, L, z, signs)
    _, res, _ = benchmark(_polish, K, L, z, r)
    assert res[signs != 0.0].max() <= RESIDUAL_TOL  # every start that took the gradient stage converges


@pytest.mark.parametrize("kind, dim", CASES)
def test_classify(benchmark, kind, dim):
    K, L, z = instance(kind, dim)
    z, r, _, _ = _gradient_stage(K, L, z[None], +1.0)
    (z,), (res,), _ = _polish(K, L, z, r)
    assert res <= RESIDUAL_TOL
    assert benchmark(_classify, K, L, z) == 0  # the descent ends at a minimum


def test_newton_chart_flat_points(benchmark):
    # an lp-ball with p > 2 is flat where a coordinate is 0: the chart steps the touch point
    K = Ball(1.0, 3)
    L = fit_inside(K, LpBall(3.0, 1.0, 3))
    z = np.array([0.0, 0.6, 0.8])
    Q, J, base = benchmark(_newton_chart, K, L, z)
    assert J.shape == (3, 2) and np.isfinite(J).all()
    assert _chart_move(L, base, np.zeros(3)) == pytest.approx(z, abs=1e-15)
