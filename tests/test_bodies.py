import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull
from scipy.special import gammaln

import capsec
from capsec.bodies import (
    SPHERE_NET_MAX_DIM,
    Ball,
    BodyError,
    Ellipsoid,
    HPolytope,
    LpBall,
    UnsupportedRepresentation,
    VPolytope,
    contains_body,
    _sobol_points,
    cube,
    sphere_net,
    unit_ball_volume,
)


def run_fresh(script):
    """Run ``script`` in a fresh interpreter on this capsec, failing on a RuntimeWarning; it must exit 0."""
    src = str(Path(capsec.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr


def square():
    return VPolytope([[1, 1], [1, -1], [-1, 1], [-1, -1]])


class TestSupport:
    def test_unit_ball(self):
        assert Ball(1.0, 2).support(np.array([0.0, 1.0])) == 1.0

    def test_ellipsoid_axis(self):
        e = Ellipsoid(np.diag([0.25, 1.0]))  # semiaxes (2, 1)
        assert e.support(np.array([1.0, 0.0])) == pytest.approx(2.0)

    def test_square_oblique(self):
        # max of <v, u> over the four vertices, enumerated by hand
        u = np.array([np.cos(np.pi / 6), np.sin(np.pi / 6)])
        expected = max(v @ u for v in [(1, 1), (1, -1), (-1, 1), (-1, -1)])
        assert square().support(u) == pytest.approx(expected)
        assert expected == pytest.approx(1.36603, abs=1e-5)

    def test_lp_dual_norm(self):
        b = LpBall(3.0, 2.0, 2)
        u = np.array([1.0, 2.0])
        assert b.support(u) == pytest.approx(2.0 * np.linalg.norm(u, ord=1.5))

    def test_zero_vector(self):
        # h_K(0) = 0 for every body, but the touch point of 0 is undefined
        ellipsoid = Ellipsoid.from_semiaxes([1.0, 0.5])
        for body in (Ball(1.0, 2), ellipsoid, LpBall(3.0, 1.0, 2), square(), cube(1.0, 2)):
            assert body.support(np.zeros(2)) == 0.0
        for body in (Ball(1.0, 2), ellipsoid, LpBall(3.0, 1.0, 2)):
            with pytest.raises(BodyError):
                body.touch_point(np.zeros(2))

    def test_dimension_mismatch(self):
        with pytest.raises(BodyError):
            Ball(1.0, 3).support(np.array([1.0, 0.0]))
        with pytest.raises(BodyError):
            Ball(1.0, 3).support(np.ones((4, 2)))

    def test_stacked_directions(self):
        # an (m, n) stack gives m values, each the support of its row; one row gives a float
        U = np.vstack([np.random.default_rng(5).normal(size=(40, 3)), np.zeros(3), np.eye(3)])
        bodies = [
            Ball(1.3, 3),
            Ellipsoid.from_semiaxes([1.0, 0.7, 0.4]),
            LpBall(3.0, 1.1, 3),
            cube(0.8, 3),
            VPolytope.symmetric_hull(sphere_net(3, 16)),
        ]
        for body in bodies:
            values = body.support(U)
            assert values.shape == (len(U),)
            assert values == pytest.approx([body.support(u) for u in U], rel=1e-14, abs=0.0)
            assert type(body.support(U[0])) is float

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_row_does_not_depend_on_its_batch(self, dim):
        # a direction alone, as a stack of one and as a row of 64, in C or Fortran order, gives the same bits
        rng = np.random.default_rng(dim)
        rotation = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        normals = rng.normal(size=(2 * dim, dim))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        offsets = rng.uniform(0.8, 1.2, size=2 * dim)
        bodies = [
            Ball(1.3, dim),
            Ellipsoid.from_semiaxes(rng.uniform(0.4, 1.2, size=dim), rotation),
            LpBall(1.5, 1.1, dim),
            LpBall(3.0, 1.1, dim),
            VPolytope.symmetric_hull(rng.normal(size=(3 * dim, dim))),
            HPolytope(np.vstack([normals, -normals]), np.concatenate([offsets, offsets])),
        ]
        U = rng.normal(size=(64, dim))
        for body in bodies:
            for f in [body.support, body.gauge] + ([body.touch_point] if body.strictly_convex else []):
                # the same stack in Fortran order, as a transposed view gives, rounds the same
                stack, fortran = f(U), f(np.asfortranarray(U))
                for i, u in enumerate(U):
                    alone = np.asarray(f(u)).tobytes()
                    assert alone == f(u[None])[0].tobytes() == stack[i].tobytes(), (body, f.__name__, i)
                    assert fortran[i].tobytes() == alone, (body, f.__name__, i)


class TestTouchPoint:
    def test_ball_radial(self):
        u = np.array([0.0, 0.6, 0.8])
        assert Ball(2.5, 3).touch_point(u) == pytest.approx(2.5 * u)

    def test_ellipsoid_closed_form(self):
        A = np.diag([0.25, 1.0])
        e = Ellipsoid(A)
        u = np.array([0.3, -0.7])
        expected = np.linalg.inv(A) @ u / np.sqrt(u @ np.linalg.inv(A) @ u)
        assert e.touch_point(u) == pytest.approx(expected)

    def test_lp_against_boundary_scan(self):
        # independent check: maximize <y, u> over a fine parameterization of the boundary
        b = LpBall(4.0, 1.0, 2)
        u = np.array([1.0, 1.0]) / np.sqrt(2.0)
        theta = np.linspace(0, 2 * np.pi, 2_000_001)
        raw = np.column_stack([np.cos(theta), np.sin(theta)])
        boundary = raw / np.linalg.norm(raw, ord=4, axis=1, keepdims=True)
        scan_max = np.max(boundary @ u)
        y = b.touch_point(u)
        assert y @ u == pytest.approx(b.support(u), abs=1e-10)
        assert y @ u >= scan_max - 1e-10
        assert b.gauge(y) == pytest.approx(1.0, abs=1e-10)

    def test_polytopes_rejected(self):
        for body in (square(), cube(1.0, 3)):
            with pytest.raises(UnsupportedRepresentation):
                body.touch_point(np.ones(body.dim))

    def test_stack_with_a_zero_row(self):
        U = np.array([[1.0, 0.0], [0.0, 0.0]])
        for body in (Ball(1.0, 2), Ellipsoid.from_semiaxes([1.0, 0.5]), LpBall(3.0, 1.0, 2)):
            with pytest.raises(BodyError):
                body.touch_point(U)
            with pytest.raises(BodyError):
                body.touch_point_jacobian(U)


class TestSphereNet:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_built_once_and_read_only(self, dim):
        net = sphere_net(dim)
        assert sphere_net(dim) is net
        assert not net.flags.writeable
        with pytest.raises(ValueError):
            net[0, 0] = 0.0
        assert np.linalg.norm(net, axis=1) == pytest.approx(np.ones(len(net)), abs=1e-15)

    @pytest.mark.parametrize("size", [0, -3, np.nan, np.inf, 2.5, 8.0, np.float64(8), True, 2**30])
    def test_size_must_be_a_positive_count(self, size):
        for dim in (2, 3):
            with pytest.raises(BodyError, match="size"):
                sphere_net(dim, size)

    @pytest.mark.parametrize("dim", [0, 1, 2.0, 3.0, np.float64(3), True, SPHERE_NET_MAX_DIM + 1])
    def test_dim_must_be_an_integer_in_range(self, dim):
        with pytest.raises(BodyError, match="dimension"):
            sphere_net(dim, 8)

    def test_default_size_is_refused_past_the_sequence_length(self):
        # 4096 * 2^(22 - 4) = 2^30 points would need a 31st bit
        with pytest.raises(BodyError, match="size"):
            sphere_net(22)

    def test_numpy_integers_name_the_same_net(self):
        assert sphere_net(np.int64(3), np.int32(64)) is sphere_net(3, 64)
        assert sphere_net(SPHERE_NET_MAX_DIM, np.uint16(64)).shape == (63, SPHERE_NET_MAX_DIM)

    @pytest.mark.parametrize("dim", range(2, SPHERE_NET_MAX_DIM + 1))
    def test_sobol_points_match_scipy_bit_for_bit(self, dim):
        from scipy.stats import qmc

        for size in (1, 2, 63, 64, 1000, 4096, 65536):
            sobol = qmc.Sobol(dim, scramble=False)
            sobol.fast_forward(1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # sizes that are not powers of 2
                expected = sobol.random(size)
            assert _sobol_points(dim, size).tobytes() == expected.tobytes()

    def test_cold_start_leaves_scipy_stats_unloaded(self):
        # every family's instances at n = 3 and 4, and a 3-D solve
        run_fresh(
            "import sys\n"
            "from capsec.families import FAMILIES, random_instance\n"
            "from capsec.solver import SolverConfig, solve\n"
            "for dim in (3, 4):\n"
            "    for family in FAMILIES:\n"
            "        K, L = random_instance(family, dim, 0)\n"
            "solve(*random_instance('lp_in_ball', 3, 0), SolverConfig(starts=8, seed=0))\n"
            "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
        )

    def test_smooth_bodies_leave_scipy_spatial_and_optimize_unloaded(self):
        # lp-ball and ellipsoid-in-ellipsoid instances at n = 3, 4, one solve and a stacked cap volume
        run_fresh(
            "import sys\n"
            "import numpy as np\n"
            "import capsec\n"
            "from capsec.families import fit_inside, random_ellipsoid\n"
            "for dim in (3, 4):\n"
            "    capsec.random_instance('lp_in_ball', dim, 0)\n"
            "    rng = np.random.default_rng(dim)\n"
            "    K = random_ellipsoid(rng, dim, (0.6, 1.2))\n"
            "    L = fit_inside(K, random_ellipsoid(rng, dim, (0.5, 1.0)))\n"
            "assert len(capsec.solve(K, L, capsec.SolverConfig(starts=16, seed=0)).pairs) == 4\n"
            "x = capsec.sphere_net(4, 64)\n"
            "capsec.cap_volume(K, capsec.Hyperplane(x, 0.5 * K.support(x)))\n"
            "loaded = [m for m in ('scipy.spatial', 'scipy.optimize') if m in sys.modules]\n"
            "assert not loaded, f'{loaded} imported'\n"
        )

    def test_polytopes_load_scipy_spatial_and_not_optimize(self):
        run_fresh(
            "import sys\n"
            "import numpy as np\n"
            "import capsec\n"
            "assert 'scipy.spatial' not in sys.modules\n"
            "K, L = capsec.random_instance('ellipsoid_in_polytope', 3, 0)\n"
            "assert 'scipy.spatial' in sys.modules\n"
            "capsec.solve(K, L, capsec.SolverConfig(starts=8, seed=0))\n"
            "x = capsec.sphere_net(3, 64)\n"
            "capsec.cap_volume(capsec.cube(1.0, 3), capsec.Hyperplane(x, np.zeros(len(x))))\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
        )

    def test_hull_counters_patched_before_the_first_polytope(self):
        # the tracer's contract: getattr binds the scipy class in the module's dict, a patch of
        # that binding counts every hull built there, and setting the original back restores it
        run_fresh(
            "import numpy as np\n"
            "from capsec import Hyperplane, VPolytope, bodies, cap_volume, sections, sphere_net\n"
            "counts, originals = {}, {}\n"
            "for module in (bodies, sections):\n"
            "    assert 'ConvexHull' not in vars(module)\n"
            "    original = getattr(module, 'ConvexHull')\n"
            "    assert vars(module)['ConvexHull'] is original\n"
            "    counts[module.__name__] = 0\n"
            "    def counting(*args, _name=module.__name__, _original=original, **kwargs):\n"
            "        counts[_name] += 1\n"
            "        return _original(*args, **kwargs)\n"
            "    module.ConvexHull, originals[module] = counting, original\n"
            "K = VPolytope.symmetric_hull(sphere_net(3, 16))\n"
            "H = Hyperplane(sphere_net(3, 32), np.zeros(31))\n"
            "volumes = cap_volume(K, H)\n"
            "assert counts == {'capsec.bodies': 1, 'capsec.sections': 31}, counts\n"
            "for module, original in originals.items():\n"
            "    module.ConvexHull = original\n"
            "import scipy.spatial\n"
            "assert bodies.ConvexHull is sections.ConvexHull is scipy.spatial.ConvexHull\n"
            "assert cap_volume(K, H).tobytes() == volumes.tobytes()\n"
            "assert np.allclose(volumes, K.volume() / 2, rtol=1e-12)\n"
        )

    def test_sobol_net_drops_the_zero_point(self):
        # the Sobol point (1/2, ..., 1/2) maps to 0 under the normal quantile
        assert len(sphere_net(2, 64)) == 64
        assert len(sphere_net(3, 64)) == len(sphere_net(4, 64)) == 63


class TestGauge:
    def test_ball(self):
        assert Ball(2.0, 2).gauge(np.array([0.0, 1.0])) == pytest.approx(0.5)

    def test_cube(self):
        assert cube(1.0, 3).gauge(np.array([0.5, -1.0, 0.25])) == pytest.approx(1.0)

    def test_ellipsoid_with_bisection_oracle(self):
        e = Ellipsoid(np.diag([0.25, 1.0]))
        y = np.array([1.0, 0.5])
        assert e.gauge(y) == pytest.approx(np.sqrt(0.5), abs=1e-12)
        # lambda-bisection on membership
        lo, hi = 0.0, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if e.contains_points((y / mid)[None, :])[0]:
                hi = mid
            else:
                lo = mid
        assert e.gauge(y) == pytest.approx(hi, abs=1e-9)

    def test_origin(self):
        for body in (Ball(1.0, 2), square(), LpBall(2.5, 1.0, 2)):
            assert body.gauge(np.zeros(2)) == 0.0


class TestContainsBody:
    def test_ball_in_ball(self):
        assert contains_body(Ball(1.0, 3), Ball(0.5, 3))

    def test_cube_not_in_ball(self):
        assert not contains_body(Ball(1.0, 3), cube(1.0, 3))

    def test_ellipsoid_in_square_with_margin(self):
        outer = cube(1.0, 2)
        inner = Ellipsoid.from_semiaxes([0.9, 0.5])
        # analytic support gap over axis directions: min(1-0.9, 1-0.5) = 0.1 > 0.05
        assert contains_body(outer, inner, margin=0.05)
        assert not contains_body(outer, inner, margin=0.15)

    def test_hexagon_in_disk(self):
        theta = np.pi / 3 * np.arange(6) + 0.1
        hexagon = VPolytope(0.9 * np.column_stack([np.cos(theta), np.sin(theta)]))
        # the vertices sit at radius 0.9, so the support gap is 0.1
        assert contains_body(Ball(1.0, 2), hexagon)
        assert contains_body(Ball(1.0, 2), hexagon, margin=0.05)
        assert not contains_body(Ball(1.0, 2), hexagon, margin=0.15)
        assert not contains_body(Ball(0.85, 2), hexagon)

    def test_one_array_call_per_body(self, monkeypatch):
        calls = []
        original = Ellipsoid.support

        def counting(self, u):
            calls.append(np.shape(u))
            return original(self, u)

        monkeypatch.setattr(Ellipsoid, "support", counting)
        K = Ellipsoid.from_semiaxes([2.0, 1.5, 1.0])
        assert contains_body(K, Ellipsoid.from_semiaxes([1.0, 0.8, 0.5]), 0.1)
        assert not contains_body(K, Ellipsoid.from_semiaxes([1.0, 0.8, 1.2]), 0.0)
        assert [len(shape) for shape in calls] == [2, 2, 2, 2]

    def test_margin_validation(self):
        with pytest.raises(BodyError):
            contains_body(Ball(1.0, 2), Ball(0.5, 2), margin=-1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_margin_rejected(self, bad):
        with pytest.raises(BodyError, match="finite"):
            contains_body(Ball(1.0, 2), Ball(0.5, 2), margin=bad)


class TestInradius:
    def test_ball(self):
        assert Ball(0.7, 4).inradius_lower_bound() == 0.7

    def test_cube(self):
        assert cube(1.0, 3).inradius_lower_bound() == 1.0

    def test_hexagon_apothem(self):
        theta = np.pi / 3 * np.arange(6)
        hexagon = VPolytope(np.column_stack([np.cos(theta), np.sin(theta)]))
        assert hexagon.inradius_lower_bound() == pytest.approx(np.sqrt(3) / 2, abs=1e-12)

    def test_lp(self):
        assert LpBall(2.0, 1.0, 3).inradius_lower_bound() == pytest.approx(1.0)
        # p = 1.5 ball touches its inscribed ball along the diagonal
        b = LpBall(1.5, 1.0, 2)
        diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
        r = b.inradius_lower_bound()
        assert b.gauge(r * diag) == pytest.approx(1.0, abs=1e-12)


class TestBodyConstants:
    """Constants computed once per body equal the per-call formulas they replace, bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_polytope_inradius(self, dim):
        rng = np.random.default_rng(70 + dim)
        eye = np.eye(dim)
        for _ in range(3):
            pts = rng.normal(size=(3 * dim, dim))
            normals = rng.normal(size=(dim, dim))
            normals = np.vstack([eye, normals / np.linalg.norm(normals, axis=1, keepdims=True)])
            offsets = rng.uniform(0.5, 1.5, size=len(normals))
            for P in (
                VPolytope.symmetric_hull(pts),
                HPolytope(np.vstack([normals, -normals]), np.concatenate([offsets, offsets])),
            ):
                N, b = P.facet_equations
                assert P.inradius_lower_bound() == float(np.min(b / np.linalg.norm(N, axis=1)))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_ellipsoid_volume_and_inradius(self, dim):
        rng = np.random.default_rng(80 + dim)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            E = Ellipsoid.from_semiaxes(rng.uniform(0.3, 1.5, size=dim), rotation=q)
            w = np.linalg.eigh(0.5 * (E.shape_matrix + E.shape_matrix.T))[0]
            assert E.volume() == unit_ball_volume(dim) / float(np.sqrt(np.prod(w)))
            assert E.inradius_lower_bound() == float(1.0 / np.sqrt(w.max()))

    def test_unit_ball_volume(self):
        for n in range(1, 8):
            assert unit_ball_volume(n) == float(np.exp(0.5 * n * np.log(np.pi) - gammaln(0.5 * n + 1.0)))


ALL_BODIES = [
    Ball(1.3, 3),
    Ellipsoid.from_semiaxes([1.0, 0.7, 0.4]),
    LpBall(3.0, 1.1, 3),
    cube(0.8, 3),
    VPolytope.symmetric_hull(sphere_net(3, 16)),
]


@pytest.mark.parametrize("body", ALL_BODIES, ids=lambda b: type(b).__name__)
class TestInvariants:
    def test_evenness(self, body):
        rng = np.random.default_rng(0)
        for u in rng.normal(size=(10_000, body.dim)):
            assert body.support(u) == body.support(-u)
            assert body.gauge(u) == body.gauge(-u)

    def test_homogeneity(self, body):
        rng = np.random.default_rng(1)
        for _ in range(100):
            u = rng.normal(size=body.dim)
            lam = float(rng.uniform(0.1, 10.0))
            assert body.support(lam * u) == pytest.approx(
                lam * body.support(u), rel=1e-12
            )

    def test_membership_iff_gauge(self, body):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-2, 2, size=(500, body.dim))
        inside = body.contains_points(pts)
        gauges = np.array([body.gauge(p) for p in pts])
        for m, g in zip(inside, gauges):
            if g <= 1.0 - 1e-9:
                assert m
            if g > 1.0 + 1e-9:
                assert not m


STRICT_BODIES = [Ball(1.3, 3), Ellipsoid.from_semiaxes([1.0, 0.7, 0.4]), LpBall(3.0, 1.1, 3)]


@pytest.mark.parametrize("body", STRICT_BODIES, ids=lambda b: type(b).__name__)
class TestTouchConsistency:
    def test_touch_on_boundary_and_support(self, body):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = rng.normal(size=body.dim)
            u /= np.linalg.norm(u)
            y = body.touch_point(u)
            assert y @ u == pytest.approx(body.support(u), abs=1e-10)
            assert body.gauge(y) == pytest.approx(1.0, abs=1e-8)

    def test_touch_matches_support_gradient(self, body):
        rng = np.random.default_rng(4)
        h = 1e-5
        for _ in range(10):
            u = rng.normal(size=body.dim)
            u /= np.linalg.norm(u)
            y = body.touch_point(u)
            for j in range(body.dim):
                e = np.zeros(body.dim)
                e[j] = h
                fd = (body.support(u + e) - body.support(u - e)) / (2 * h)
                assert fd == pytest.approx(y[j], abs=1e-5)


def fd_touch_jacobian(body, u, rel_step):
    """Central differences of the touch point, column j with step rel_step * |u_j|.

    Returns the differences and each column's rounding floor: a few ulp of
    the touch point, divided by the step.
    """
    cols, floors = [], []
    scale = np.abs(body.touch_point(u)).max()
    for j, uj in enumerate(u):
        e = np.zeros(len(u))
        e[j] = rel_step * abs(uj)
        cols.append((body.touch_point(u + e) - body.touch_point(u - e)) / (2.0 * e[j]))
        floors.append(4.0 * np.finfo(float).eps * scale / (2.0 * e[j]))
    return np.column_stack(cols), np.array(floors)


@pytest.mark.parametrize("body", STRICT_BODIES, ids=lambda b: type(b).__name__)
def test_touch_jacobian_matches_differences(body):
    rng = np.random.default_rng(6)
    for _ in range(20):
        u = rng.normal(size=body.dim)
        J = body.touch_point_jacobian(u)
        fd, floors = fd_touch_jacobian(body, u, 1e-5)
        assert np.all(np.abs(fd - J) <= 1e-7 * np.abs(J).max() + floors)
        assert J == pytest.approx(J.T, rel=1e-12, abs=1e-15)  # a Hessian


class TestLpTouchJacobianNearAxes:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from([1.5, 3.0]),
        st.lists(st.tuples(st.floats(-6.0, 0.0), st.booleans()), min_size=2, max_size=5),
    )
    def test_matches_differences(self, p, coords):
        # coordinates from 1e-6 to 1: for p > 2 the Hessian grows like |u_j|^(q-2) near an axis
        u = np.array([(-1.0 if neg else 1.0) * 10.0**e for e, neg in coords])
        L = LpBall(p, 1.3, len(u))
        J = L.touch_point_jacobian(u)
        assert np.isfinite(J).all()
        fd, floors = fd_touch_jacobian(L, u, 1e-3)
        assert np.all(np.abs(fd - J) <= 1e-6 * np.abs(J).max() + floors)

    def test_unbounded_at_a_zero_coordinate(self):
        u = np.array([0.6, 0.0, -0.8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flat = LpBall(3.0, 1.0, 3).touch_point_jacobian(u)
            smooth = LpBall(1.5, 1.0, 3).touch_point_jacobian(u)
        assert flat[1, 1] == np.inf
        assert np.isfinite(np.delete(flat.ravel(), 4)).all()
        assert np.isfinite(smooth).all() and smooth[1, 1] == 0.0

    def test_polytopes_have_none(self):
        with pytest.raises(UnsupportedRepresentation):
            cube(1.0, 2).touch_point_jacobian(np.array([1.0, 0.0]))


class TestLpNormalMap:
    @pytest.mark.parametrize("p", [1.5, 3.0, 5.7])
    def test_inverts_the_touch_point(self, p):
        L = LpBall(p, 1.3, 4)
        assert L.flat_points == (p > 2.0)
        for z in np.random.default_rng(7).normal(size=(20, 4)):
            z /= np.linalg.norm(z)
            assert L.normal(L.touch_point(z)) == pytest.approx(z, abs=1e-13)
            assert L.normal(5.0 * L.touch_point(z)) == pytest.approx(z, abs=1e-13)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from([3.0, 5.7]),
        st.lists(st.tuples(st.floats(-6.0, 0.0), st.booleans()), min_size=2, max_size=5),
    )
    def test_jacobian_matches_differences(self, p, coords):
        # coordinates from 1e-6 to 1: for p > 2 the normal map stays smooth near an axis
        y = np.array([(-1.0 if neg else 1.0) * 10.0**e for e, neg in coords])
        L = LpBall(p, 1.3, len(y))
        N = L.normal_jacobian(y)
        assert np.isfinite(N).all()
        cols = []
        for j, yj in enumerate(y):
            e = np.zeros(len(y))
            e[j] = 1e-4 * abs(yj)
            cols.append((L.normal(y + e) - L.normal(y - e)) / (2.0 * e[j]))
        floors = 4.0 * np.finfo(float).eps / (2e-4 * np.abs(y))
        assert np.all(np.abs(np.column_stack(cols) - N) <= 1e-6 * np.abs(N).max() + floors)

    def test_bounded_at_a_flat_point(self):
        y = np.array([0.6, 0.0, -0.8])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            N = LpBall(3.0, 1.0, 3).normal_jacobian(y)
        assert np.isfinite(N).all() and not N[:, 1].any()

    def test_other_bodies_have_none(self):
        for body in (Ball(1.0, 2), Ellipsoid.from_semiaxes([1.0, 0.5]), cube(1.0, 2)):
            assert not body.flat_points
            with pytest.raises(UnsupportedRepresentation):
                body.normal(np.array([1.0, 0.0]))
            with pytest.raises(UnsupportedRepresentation):
                body.normal_jacobian(np.array([1.0, 0.0]))


class TestConstruction:
    def test_asymmetric_vertices_rejected(self):
        with pytest.raises(BodyError):
            VPolytope([[1, 0], [0, 1], [-1, 0]])

    def test_asymmetric_facets_rejected(self):
        with pytest.raises(BodyError):
            HPolytope(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))

    def test_nonpositive_offsets_rejected(self):
        eye = np.eye(2)
        with pytest.raises(BodyError):
            HPolytope(np.vstack([eye, -eye]), np.array([1.0, 1.0, -1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_ball_and_lp_scale_rejected(self, bad):
        # NaN compares False with every bound, so a check written as "refuse if <= 0" passes it
        for make in (lambda: Ball(bad, 2), lambda: LpBall(3.0, bad, 2)):
            with pytest.raises(BodyError, match="finite"):
                make()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_polytope_data_rejected(self, bad):
        eye = np.eye(2)
        with pytest.raises(BodyError, match="finite"):
            HPolytope(np.vstack([eye, -eye]), np.array([1.0, 1.0, bad, bad]))
        with pytest.raises(BodyError, match="finite"):
            cube(bad, 2)
        with pytest.raises(BodyError, match="finite"):
            VPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, bad], [0.0, -bad]])

    def test_unbounded_facets_rejected(self):
        # a slab: symmetric, unit normals, positive offsets, but not bounded
        with pytest.raises(BodyError, match="unbounded"):
            HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 1.0]))

    def test_symmetry_is_relative_to_the_scale(self):
        # rounding of a rotated shape matrix scales with its largest entry
        A = np.diag([1e6, 1.0, 1.0])
        A[0, 1] = 7e-12
        assert Ellipsoid(A).shape_matrix[0, 1] == 3.5e-12
        A[0, 1] = 1e-5
        with pytest.raises(BodyError, match="symmetric"):
            Ellipsoid(A)
        with pytest.raises(BodyError, match="symmetric"):
            Ellipsoid([[1.0, 1e-11], [0.0, 1.0]])
        # nan compares false with any tolerance, so it must be refused first
        for bad in (np.nan, np.inf):
            A = np.diag([1e6, 1.0, 1.0])
            A[0, 1] = bad
            with pytest.raises(BodyError, match="finite"):
                Ellipsoid(A)
            with pytest.raises(BodyError, match="finite"):
                Ellipsoid(np.diag([1.0, bad]))
        with pytest.raises(BodyError, match="positive"):
            Ellipsoid.from_semiaxes([1.0, np.nan, 1.0])

    def test_indefinite_shape_matrix_rejected(self):
        with pytest.raises(BodyError):
            Ellipsoid(np.diag([1.0, -1.0]))

    def test_lp_conditioning_warning(self):
        with pytest.warns(UserWarning):
            LpBall(20.0, 1.0, 2)

    def test_flat_vertex_set_rejected(self):
        with pytest.raises(BodyError):
            VPolytope([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]])

    def test_volumes(self):
        assert Ball(2.0, 3).volume() == pytest.approx(32 * np.pi / 3)
        assert cube(1.0, 4).volume() == pytest.approx(16.0)
        assert Ellipsoid.from_semiaxes([2.0, 0.5]).volume() == pytest.approx(np.pi)
        assert LpBall(2.0, 1.0, 2).volume() == pytest.approx(np.pi, rel=1e-12)
        assert unit_ball_volume(2) == pytest.approx(np.pi)


def fresh_hull_edges(P):
    """Edges from a second hull built on ``P.vertices``: a 2-D polygon's sides,
    otherwise every pair within a hull facet."""
    hull = ConvexHull(P.vertices)
    if P.dim == 2:
        pairs = {tuple(sorted(e)) for e in zip(hull.vertices, np.roll(hull.vertices, -1))}
    else:
        pairs = {tuple(sorted(e)) for s in hull.simplices for e in itertools.combinations(s, 2)}
    return np.array(sorted(pairs), dtype=int)


class TestEdges:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_edges_match_a_fresh_hull(self, dim):
        rng = np.random.default_rng(60 + dim)
        signs = np.array(list(itertools.product([-1.0, 1.0], repeat=dim)))
        eye = np.eye(dim)
        polytopes = [
            cube(0.8, dim),
            VPolytope(0.8 * signs),
            VPolytope(np.vstack([eye, -eye])),
            HPolytope(signs / np.sqrt(dim), np.full(len(signs), 1.0 / np.sqrt(dim))),
        ]
        for _ in range(4):
            pts = rng.normal(size=(3 * dim, dim))
            polytopes.append(VPolytope.symmetric_hull(pts / np.linalg.norm(pts, axis=1, keepdims=True)))
        for P in polytopes:
            assert P.edges.tobytes() == fresh_hull_edges(P).tobytes()
            assert P.edges.shape[1] == 2 and P.edges.max() < len(P.vertices)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_boundary_simplices_tile_the_boundary(self, dim):
        # cones from the origin over the boundary simplices fill the polytope once
        rng = np.random.default_rng(70 + dim)
        pts = rng.normal(size=(3 * dim, dim))
        for P in [cube(0.8, dim), VPolytope.symmetric_hull(pts / np.linalg.norm(pts, axis=1, keepdims=True))]:
            S = P.boundary_simplices
            assert S.shape[1] == dim and S.max() < len(P.vertices)
            cones = np.abs(np.linalg.det(P.vertices[S])) / np.prod(np.arange(1, dim + 1))
            assert cones.sum() == pytest.approx(P.volume(), rel=1e-12)

    def test_planar_vertices_counter_clockwise(self):
        # the SVG outline draws a planar polytope's vertices in stored order
        rng = np.random.default_rng(5)
        for P in [cube(1.0, 2), VPolytope.symmetric_hull(rng.normal(size=(6, 2)))]:
            v = P.vertices
            w = np.roll(v, -1, axis=0)
            assert np.all(v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0] > 0)
