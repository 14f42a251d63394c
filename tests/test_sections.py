from math import factorial

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from capsec import sections
from capsec.bodies import Ball, BodyError, Ellipsoid, LpBall, VPolytope, cube, sphere_net
from capsec.sections import (
    Hyperplane,
    SectionMethod,
    cap_volume,
    hyperplane_chart,
    mc_cap_volume,
    mc_section,
    section,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_vpolytope(rng, dim):
    pts = rng.normal(size=(3 * dim, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return VPolytope.symmetric_hull(pts)


class TestHyperplane:
    def test_unit_direction_enforced(self):
        with pytest.raises(BodyError):
            Hyperplane(np.array([1.0, 1.0]), 0.5)

    def test_normalized_constructor(self):
        h = Hyperplane.normalized(np.array([3.0, 4.0]), 2.5)
        assert np.linalg.norm(h.direction) == pytest.approx(1.0, abs=1e-15)
        assert h.offset == pytest.approx(0.5)

    def test_chart_is_orthonormal(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3, 4, 5):
            for _ in range(20):
                x = unit(rng.normal(size=dim))
                Q = hyperplane_chart(x)
                assert Q.shape == (dim, dim - 1)
                assert Q.T @ Q == pytest.approx(np.eye(dim - 1), abs=1e-12)
                assert Q.T @ x == pytest.approx(np.zeros(dim - 1), abs=1e-12)


class TestCapVolume:
    def test_half_ball(self):
        H = Hyperplane(unit([1.0, 2.0, -2.0]), 0.0)
        assert cap_volume(Ball(1.0, 3), H) == pytest.approx(2 * np.pi / 3)

    def test_spherical_cap(self):
        H = Hyperplane(np.array([0.0, 0.0, 1.0]), 0.5)
        expected = np.pi * 0.25 * 2.5 / 3  # pi (1-t)^2 (2+t) / 3
        assert cap_volume(Ball(1.0, 3), H) == pytest.approx(expected, rel=1e-12)
        est, se = mc_cap_volume(Ball(1.0, 3), H, samples=10**6, seed=11)
        assert abs(est - expected) <= 3 * se

    def test_cube_slab(self):
        H = Hyperplane(np.array([1.0, 0.0, 0.0]), 0.25)
        assert cap_volume(cube(1.0, 3), H) == pytest.approx(3.0, rel=1e-12)

    def test_out_of_range(self):
        K = cube(1.0, 2)
        x = np.array([1.0, 0.0])
        assert cap_volume(K, Hyperplane(x, 2.0)) == 0.0
        assert cap_volume(K, Hyperplane(x, -2.0)) == pytest.approx(K.volume())

    def test_complement_identity(self):
        rng = np.random.default_rng(5)
        bodies = [
            Ball(1.2, 3),
            Ellipsoid.from_semiaxes([1.0, 0.6, 0.4]),
            cube(0.9, 3),
            random_vpolytope(rng, 3),
        ]
        for K in bodies:
            for _ in range(5):
                x = unit(rng.normal(size=3))
                t = float(rng.uniform(-0.8, 0.8)) * K.support(x)
                v1 = cap_volume(K, Hyperplane(x, t))
                v2 = cap_volume(K, Hyperplane(-x, -t))
                assert v1 + v2 == pytest.approx(K.volume(), rel=1e-9)


class TestSection:
    def test_square_chord(self):
        sec = section(cube(1.0, 2), Hyperplane(np.array([1.0, 0.0]), 0.3))
        assert sec.measure == pytest.approx(2.0, rel=1e-12)
        assert sec.centroid == pytest.approx(np.array([0.3, 0.0]))
        assert sec.method is SectionMethod.EXACT

    def test_ball_circle(self):
        x = unit([1.0, -1.0, 0.5])
        sec = section(Ball(1.0, 3), Hyperplane(x, 0.6))
        assert sec.measure == pytest.approx(np.pi * 0.64, rel=1e-12)
        assert sec.centroid == pytest.approx(0.6 * x)

    def test_rectangle_diagonal_cut(self):
        # rectangle [-2,2] x [-1,1] cut by <x,y> = 0.5 with x at 45 degrees:
        # the line u + v = 0.5*sqrt(2) crosses the edges v=1 and v=-1
        rect = VPolytope([[2, 1], [2, -1], [-2, 1], [-2, -1]])
        x = unit([1.0, 1.0])
        c = 0.5 * np.sqrt(2.0)  # u + v = c
        p1 = np.array([c - 1.0, 1.0])
        p2 = np.array([c + 1.0, -1.0])
        sec = section(rect, Hyperplane(x, 0.5))
        assert sec.measure == pytest.approx(np.linalg.norm(p2 - p1), rel=1e-12)
        assert sec.centroid == pytest.approx(0.5 * (p1 + p2), abs=1e-12)

    def test_ellipsoid_section_against_mc(self):
        E = Ellipsoid.from_semiaxes([2.0, 1.0, 1.0])
        H = Hyperplane(np.array([1.0, 0.0, 0.0]), 1.0)
        exact = section(E, H)
        est = mc_section(E, H, samples=10**6, seed=21)
        assert abs(exact.measure - est.measure) <= 3 * est.stderr
        assert exact.centroid == pytest.approx(np.array([1.0, 0.0, 0.0]), abs=1e-12)

    def test_degenerate(self):
        sec = section(cube(1.0, 2), Hyperplane(np.array([1.0, 0.0]), 1.5))
        assert sec.measure == 0.0
        assert sec.degenerate
        assert sec.centroid is None

    def test_moment_consistency(self):
        rng = np.random.default_rng(7)
        for K in (Ball(1.0, 3), cube(1.0, 3), random_vpolytope(rng, 3)):
            for _ in range(5):
                x = unit(rng.normal(size=3))
                t = 0.4 * K.support(x)
                sec = section(K, Hyperplane(x, t))
                assert sec.moment == pytest.approx(sec.measure * sec.centroid, rel=1e-9)
                assert sec.centroid @ x == pytest.approx(t, abs=1e-9)

    def test_exact_mirror_symmetry(self):
        # centroid(t, x) == -centroid(t, -x) bitwise on the exact paths
        rng = np.random.default_rng(8)
        for K in (cube(1.0, 3), random_vpolytope(rng, 3), random_vpolytope(rng, 2)):
            for _ in range(10):
                x = unit(rng.normal(size=K.dim))
                t = float(rng.uniform(0.1, 0.8)) * K.support(x)
                a = section(K, Hyperplane(x, t))
                b = section(K, Hyperplane(-x, t))
                assert a.measure == b.measure
                assert np.array_equal(a.centroid, -b.centroid)

    def test_hrep_and_vrep_paths_agree(self):
        rng = np.random.default_rng(9)
        K_h = cube(1.0, 3)
        K_v = VPolytope(K_h.vertices)
        for _ in range(20):
            x = unit(rng.normal(size=3))
            t = float(rng.uniform(-0.9, 0.9))
            a = section(K_h, Hyperplane(x, t))
            b = section(K_v, Hyperplane(x, t))
            assert a.measure == pytest.approx(b.measure, rel=1e-9)
            if not a.degenerate:
                assert a.centroid == pytest.approx(b.centroid, abs=1e-9)


# Reference loops: one slice point per edge and one det per hull facet.  The
# library's whole-array versions must reproduce them bit for bit.


def loop_slice_points(vertices, edges, d, t):
    pts = [vertices[i] for i in np.flatnonzero(d == t)]
    cross = (d[edges[:, 0]] - t) * (d[edges[:, 1]] - t) < 0.0
    for i, j in edges[cross]:
        s = (t - d[i]) / (d[j] - d[i])
        pts.append(vertices[i] + s * (vertices[j] - vertices[i]))
    return np.array(pts) if pts else np.empty((0, vertices.shape[1]))


def loop_chart_polytope_data(chart_pts):
    m, k = chart_pts.shape
    if k == 1:
        lo, hi = float(chart_pts.min()), float(chart_pts.max())
        if hi <= lo:
            return 0.0, None
        return hi - lo, np.array([0.5 * (lo + hi)])
    try:
        hull = ConvexHull(chart_pts)
    except QhullError:
        return 0.0, None
    interior = chart_pts[hull.vertices].mean(axis=0)
    total = 0.0
    first_moment = np.zeros(k)
    for facet in hull.simplices:
        vol = abs(np.linalg.det(chart_pts[facet] - interior)) / factorial(k)
        total += vol
        first_moment += vol * (chart_pts[facet].sum(axis=0) + interior) / (k + 1)
    if total <= 0.0:
        return 0.0, None
    return total, first_moment / total


def loop_hyperplane_chart(x):
    drop = int(np.argmax(np.abs(x)))
    cols = []
    for i in range(x.shape[0]):
        if i == drop:
            continue
        v = np.zeros(x.shape[0])
        v[i] = 1.0
        v = v - (v @ x) * x
        for c in cols:
            v = v - (v @ c) * c
        cols.append(v / np.linalg.norm(v))
    return np.column_stack(cols)


class TestWholeArraySlicingIsBitIdentical:
    def polytopes(self, dim):
        rng = np.random.default_rng(40 + dim)
        return [random_vpolytope(rng, dim) for _ in range(3)] + [cube(1.0, dim)]

    def planes(self, K, rng, count=25):
        verts = sections._polytope_rep(K)[0]
        for _ in range(count):
            x = unit(rng.normal(size=K.dim))
            yield Hyperplane(x, float(rng.uniform(-0.95, 0.95)) * K.support(x))
        # through a vertex strictly between the two supporting planes: d == t there
        x = unit(rng.normal(size=K.dim))
        d = verts @ x
        yield Hyperplane(x, float(np.sort(d)[len(d) // 2 - 1]))

    def results(self, K, planes):
        """(measure, centroid, cap volume) bytes per plane: equal bytes means equal bits."""
        out = []
        for H in planes:
            sec = section(K, H)
            centroid = None if sec.degenerate else sec.centroid.tobytes()
            out.append((np.float64(sec.measure).tobytes(), centroid, np.float64(cap_volume(K, H)).tobytes()))
        return out

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_sections_and_caps_match_loops(self, dim, monkeypatch):
        for K in self.polytopes(dim):
            planes = list(self.planes(K, np.random.default_rng(dim)))
            fast = self.results(K, planes)
            with monkeypatch.context() as m:
                m.setattr(sections, "_slice_points", loop_slice_points)
                m.setattr(sections, "_chart_polytope_data", loop_chart_polytope_data)
                m.setattr(sections, "hyperplane_chart", loop_hyperplane_chart)
                slow = self.results(K, planes)
            assert fast == slow
            assert sum(centroid is not None for _, centroid, _ in fast) >= 20

    def test_cube_vertices_on_plane(self):
        # x = (1, 1, 0)/sqrt(2), t = 0 holds the four cube vertices with y1 = -y2
        K = cube(1.0, 3)
        verts, edges = sections._polytope_rep(K)
        d = verts @ unit([1.0, 1.0, 0.0])
        pts = sections._slice_points(verts, edges, d, 0.0)
        assert np.count_nonzero(d == 0.0) == 4
        assert pts.tobytes() == loop_slice_points(verts, edges, d, 0.0).tobytes()

    def test_plane_without_crossings(self):
        K = random_vpolytope(np.random.default_rng(3), 3)
        d = K.vertices @ unit([1.0, -2.0, 0.5])
        for t in (d.max() + 0.1, d.min() - 0.1):
            pts = sections._slice_points(K.vertices, K.edges, d, t)
            assert pts.shape == (0, 3)
            assert pts.tobytes() == loop_slice_points(K.vertices, K.edges, d, t).tobytes()

    def test_chart_matches_loop(self):
        rng = np.random.default_rng(12)
        directions = [unit(rng.normal(size=dim)) for dim in (2, 3, 4, 5) for _ in range(50)]
        directions += [np.eye(4)[1], -np.eye(3)[2], unit([0.0, -1.0, 1.0, 0.0])]
        for x in directions:
            assert hyperplane_chart(x).tobytes() == loop_hyperplane_chart(x).tobytes()


class TestDerivativeIdentities:
    def bodies(self, rng, dim):
        out = [Ball(1.1, dim), Ellipsoid.from_semiaxes(np.linspace(1.2, 0.6, dim)), cube(0.9, dim)]
        out.append(random_vpolytope(rng, dim))
        return out

    def test_t_derivative_is_minus_measure(self):
        rng = np.random.default_rng(10)
        h = 1e-5
        for dim in (2, 3, 4):
            for K in self.bodies(rng, dim):
                for _ in range(3):
                    x = unit(rng.normal(size=dim))
                    t = float(rng.uniform(0.1, 0.6)) * K.support(x)
                    dv = (
                        cap_volume(K, Hyperplane(x, t + h))
                        - cap_volume(K, Hyperplane(x, t - h))
                    ) / (2 * h)
                    m = section(K, Hyperplane(x, t)).measure
                    assert dv == pytest.approx(-m, rel=1e-4)

    def test_x_gradient_is_moment(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        for dim in (2, 3, 4):
            for K in self.bodies(rng, dim):
                x = unit(rng.normal(size=dim))
                t = float(rng.uniform(0.1, 0.5)) * K.support(x)
                sec = section(K, Hyperplane(x, t))
                Q = hyperplane_chart(x)
                for j in range(dim - 1):
                    w = Q[:, j]
                    dv = (
                        cap_volume(K, Hyperplane(unit(x + h * w), t))
                        - cap_volume(K, Hyperplane(unit(x - h * w), t))
                    ) / (2 * h)
                    expected = float(sec.moment @ w)
                    assert dv == pytest.approx(expected, rel=1e-4, abs=1e-8)


class TestMonteCarlo:
    def test_sample_floor(self):
        with pytest.raises(BodyError):
            mc_cap_volume(Ball(1.0, 2), Hyperplane(np.array([1.0, 0.0]), 0.0), samples=10)

    def test_determinism(self):
        H = Hyperplane(unit([1.0, 2.0]), 0.2)
        a = mc_cap_volume(Ball(1.0, 2), H, samples=10**5, seed=3)
        b = mc_cap_volume(Ball(1.0, 2), H, samples=10**5, seed=3)
        assert a == b

    def test_mc_section_cube(self):
        H = Hyperplane(np.array([1.0, 0.0, 0.0]), 0.5)
        sd = mc_section(cube(1.0, 3), H, samples=10**6, thickness=1e-2, seed=4)
        assert abs(sd.measure - 4.0) <= 3 * sd.stderr
        assert sd.centroid == pytest.approx(np.array([0.5, 0.0, 0.0]), abs=0.05)
        assert sd.method is SectionMethod.MONTE_CARLO

    def test_lp_cap_against_quadrature(self):
        from scipy import integrate

        K = LpBall(3.0, 1.0, 2)
        t = 0.4
        H = Hyperplane(np.array([1.0, 0.0]), t)
        est, se = mc_cap_volume(K, H, samples=10**6, seed=5)
        truth, _ = integrate.quad(lambda u: 2.0 * (1.0 - u**3) ** (1.0 / 3.0), t, 1.0)
        assert abs(est - truth) <= 3 * se

    def test_lp_section_delegates_to_mc(self):
        sec = section(LpBall(3.0, 1.0, 2), Hyperplane(np.array([1.0, 0.0]), 0.2))
        assert sec.method is SectionMethod.MONTE_CARLO
        assert sec.stderr is not None

    def test_empty_slab(self):
        H = Hyperplane(np.array([1.0, 0.0]), 0.999999)
        sd = mc_section(cube(1.0, 2), H, samples=10**3, thickness=1e-9, seed=6)
        assert sd.measure == 0.0 or sd.degenerate is False
