from itertools import product
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError
from scipy.special import betainc

from capsec import bodies, sections
from capsec.bodies import (
    Ball,
    BodyError,
    Ellipsoid,
    HPolytope,
    LpBall,
    UnsupportedRepresentation,
    VPolytope,
    contains_body,
    cube,
    unit_ball_volume,
)
from capsec.families import random_rotation
from capsec.functional import _touch_and_section
from capsec.sections import (
    Hyperplane,
    SectionMethod,
    _ball_cap_fraction,
    cap_volume,
    hyperplane_chart,
    mc_cap_volume,
    mc_section,
    section,
    section_partials,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_plane_rejected(self, bad):
        # a NaN direction would pass a unit check written as "refuse if the error exceeds the tolerance"
        with pytest.raises(BodyError, match="unit vector"):
            Hyperplane(np.array([bad, 0.0]), 0.0)
        with pytest.raises(BodyError, match="offset must be finite"):
            Hyperplane(np.array([1.0, 0.0]), bad)
        with pytest.raises(BodyError, match="offset must be finite"):
            Hyperplane(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, bad]))

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
            cube(0.9, 5),
            random_vpolytope(rng, 5),
        ]
        for K in bodies:
            for _ in range(5):
                x = unit(rng.normal(size=K.dim))
                t = float(rng.uniform(-0.8, 0.8)) * K.support(x)
                v1 = cap_volume(K, Hyperplane(x, t))
                v2 = cap_volume(K, Hyperplane(-x, -t))
                assert v1 + v2 == pytest.approx(K.volume(), rel=1e-9)


def betainc_cap_fraction(a, n):
    """The unit n-ball's share beyond y_1 = a from scipy's regularized incomplete beta function.

    The share beyond c = |a| is I_(1-c^2)((n+1)/2, 1/2) / 2.  1 - c^2 is taken as (1 - c)(1 + c), and
    for c < 1/2 the share is 1/2 - I_(c^2)(1/2, (n+1)/2) / 2, so that no argument is rounded near 1.
    """
    c = np.abs(a)
    far = 0.5 * betainc((n + 1) / 2.0, 0.5, (1.0 - c) * (1.0 + c))
    near = 0.5 - 0.5 * betainc(0.5, (n + 1) / 2.0, c * c)
    cap = np.where(c < 0.5, near, far)
    return np.where(a >= 0.0, cap, 1.0 - cap)


class TestBallCapFraction:
    POINTS = np.linspace(-1.0, 1.0, 20001)
    NEAR_ONE = 1.0 - 10.0 ** -np.arange(1.0, 16.0)

    @pytest.mark.parametrize("n", range(2, 33))
    def test_matches_the_incomplete_beta_function(self, n):
        # the closed form where it keeps its digits, its tail series for small caps
        a = np.concatenate([self.POINTS, self.NEAR_ONE, -self.NEAR_ONE])
        got, expected = _ball_cap_fraction(a, n), betainc_cap_fraction(a, n)
        assert np.all(np.abs(got - expected) <= 2e-12 * expected)
        assert _ball_cap_fraction(np.array([-1.0, 0.0, 1.0]), n).tolist() == [1.0, 0.5, 0.0]

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 32])
    def test_a_row_keeps_its_bits_in_any_stack(self, n):
        # the tail series runs as long as its slowest row needs, so a row's sum must not depend on the others
        a = np.concatenate([self.POINTS[::250], self.NEAR_ONE, -self.NEAR_ONE, [1.5, -1.5, np.inf, -np.inf, np.nan]])
        stack = _ball_cap_fraction(a, n)
        for size in (1, 3, 9):
            pieces = np.concatenate([_ball_cap_fraction(a[i : i + size], n) for i in range(0, len(a), size)])
            assert stack.tobytes() == pieces.tobytes()
        assert _ball_cap_fraction(a[::-1], n).tobytes() == stack[::-1].tobytes()

    def test_ball_and_ellipsoid_caps(self):
        rng = np.random.default_rng(31)
        for dim in (2, 3, 4, 5):
            x = unit(rng.normal(size=dim))
            K = Ellipsoid.from_semiaxes(rng.uniform(0.5, 1.5, size=dim), random_rotation(rng, dim))
            for t in np.linspace(-0.99, 0.99, 23):
                h = K.support(x)
                expected = K.volume() * betainc_cap_fraction(np.array([t]), dim)[0]
                assert cap_volume(K, Hyperplane(x, t * h)) == pytest.approx(expected, rel=1e-12)
                expected = Ball(1.3, dim).volume() * betainc_cap_fraction(np.array([t]), dim)[0]
                assert cap_volume(Ball(1.3, dim), Hyperplane(x, 1.3 * t)) == pytest.approx(expected, rel=1e-12)


def count_hull_builds(monkeypatch):
    """List that gains one entry per ``ConvexHull`` built in ``bodies`` or ``sections``."""
    calls = []

    def counting_hull(*args, **kwargs):
        calls.append(args)
        return ConvexHull(*args, **kwargs)

    for module in (bodies, sections):
        monkeypatch.setattr(module, "ConvexHull", counting_hull)
    return calls


def chart_ellipsoid_section(K, x, t):
    """(measure, centroid) of an ellipsoid section through an orthonormal chart.

    The section is M(ball section) with M = A^{-1/2}; its measure is the ball
    section's times the Gram determinant of M restricted to the ball-side plane.
    """
    w, V = np.linalg.eigh(K.shape_matrix)
    M = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
    h = K.support(x)
    tau = t / h
    Q = hyperplane_chart((M @ x) / h)
    B = M @ Q
    jac = float(np.sqrt(np.linalg.det(B.T @ B)))
    rho = np.sqrt(1.0 - tau * tau)
    measure = unit_ball_volume(K.dim - 1) * rho ** (K.dim - 1) * jac
    return measure, t * (K.inverse_shape @ x) / (h * h)


class TestSection:
    def test_square_chord(self):
        sec = section(cube(1.0, 2), Hyperplane(np.array([1.0, 0.0]), 0.3))
        assert sec.measure == pytest.approx(2.0, rel=1e-12)
        assert sec.centroid == pytest.approx(np.array([0.3, 0.0]))
        assert sec.method is SectionMethod.EXACT

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_h_polytope_section_builds_no_hull(self, dim, monkeypatch):
        # a section is cut from the boundary simplices of the hull made at
        # construction, and the measure floor reads K's volume from that hull
        K, L, z = cube(1.0, dim), Ball(0.5, dim), unit(np.arange(1.0, dim + 1.0) * (-1.0) ** np.arange(dim))
        _touch_and_section(K, L, z)
        calls = count_hull_builds(monkeypatch)
        _touch_and_section(K, L, z)
        assert len(calls) == 0

    def test_polytope_builds_one_hull_cold(self, monkeypatch):
        # from construction through the first section, the hull made at
        # construction is the only one
        calls = count_hull_builds(monkeypatch)
        _touch_and_section(cube(1.0, 3), Ball(0.5, 3), unit([0.3, -0.5, 0.8]))
        assert len(calls) == 1

    def test_ellipsoid_section_matches_chart_oracle(self):
        rng = np.random.default_rng(13)
        for dim in (2, 3, 4, 5, 6):
            for _ in range(4):
                K = Ellipsoid.from_semiaxes(rng.uniform(0.3, 2.0, size=dim), random_rotation(rng, dim))
                for _ in range(5):
                    x = unit(rng.normal(size=dim))
                    h = K.support(x)
                    for tau in (float(rng.uniform(-0.95, 0.95)), 1.0 - 1e-9, -(1.0 - 1e-6)):
                        sec = section(K, Hyperplane(x, tau * h))
                        measure, centroid = chart_ellipsoid_section(K, x, tau * h)
                        assert sec.measure == pytest.approx(measure, rel=1e-12, abs=0.0)
                        assert sec.centroid.tobytes() == centroid.tobytes()

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
        # H-polytopes against V-polytopes built from independently known vertices,
        # so the vertex enumeration of the H-form is checked too
        rng = np.random.default_rng(9)
        w = 0.8
        for dim in (2, 3, 4, 5):
            signs = np.array(list(product([-1.0, 1.0], repeat=dim)))
            pairs = [
                (cube(w, dim), VPolytope(w * signs)),
                (HPolytope(signs / np.sqrt(dim), np.full(len(signs), 1.0 / np.sqrt(dim))),
                 VPolytope(np.vstack([np.eye(dim), -np.eye(dim)]))),
            ]
            for K_h, K_v in pairs:
                assert K_h.volume() == pytest.approx(K_v.volume(), rel=1e-9)
                assert K_h.inradius_lower_bound() == pytest.approx(K_v.inradius_lower_bound(), rel=1e-9)
                # strictly inside, strictly outside, and the vertices themselves
                pts = np.vstack([rng.uniform(-1.2, 1.2, size=(200, dim)) * w, 0.999 * K_v.vertices])
                assert np.array_equal(K_h.contains_points(pts), K_v.contains_points(pts))
                # either polytope as the outer body, then as the inner one
                r = K_v.inradius_lower_bound()
                R = float(np.max(np.linalg.norm(K_v.vertices, axis=1)))
                for L, margin, verdict in [
                    (Ball(0.5 * r, dim), 0.0, True),
                    (Ball(0.5 * r, dim), 0.4 * r, True),
                    (Ball(0.5 * r, dim), 0.6 * r, False),
                    (Ball(1.01 * r, dim), 0.0, False),
                ]:
                    assert contains_body(K_h, L, margin) is contains_body(K_v, L, margin) is verdict
                for L, verdict in [(Ball(1.01 * R, dim), True), (Ball(0.99 * R, dim), False)]:
                    assert contains_body(L, K_h) is contains_body(L, K_v) is verdict
                for _ in range(10):
                    x = unit(rng.normal(size=dim))
                    assert K_h.support(x) == pytest.approx(K_v.support(x), rel=1e-12)
                    assert K_h.gauge(x) == pytest.approx(K_v.gauge(x), rel=1e-9)
                    t = float(rng.uniform(-0.9, 0.9)) * K_v.support(x)
                    a = section(K_h, Hyperplane(x, t))
                    b = section(K_v, Hyperplane(x, t))
                    assert not b.degenerate
                    assert a.measure == pytest.approx(b.measure, rel=1e-9)
                    assert a.centroid == pytest.approx(b.centroid, abs=1e-9)
                    assert cap_volume(K_h, Hyperplane(x, t)) == pytest.approx(
                        cap_volume(K_v, Hyperplane(x, t)), rel=1e-9
                    )


class TestExactSlicingBeyondFourDimensions:
    def test_axis_cube_sections_closed_form(self):
        w = 0.7
        for dim in (5, 6):
            K = cube(w, dim)
            e1 = np.eye(dim)[0]
            for t in (0.0, 0.3, -0.55):
                sec = section(K, Hyperplane(e1, t))
                assert sec.method is SectionMethod.EXACT
                assert sec.measure == pytest.approx((2 * w) ** (dim - 1), rel=1e-12)
                assert sec.centroid == pytest.approx(t * e1, abs=1e-12)

    def test_against_monte_carlo(self):
        K = random_vpolytope(np.random.default_rng(51), 5)
        x = unit([1.0, -0.5, 0.3, 0.8, -0.2])
        H = Hyperplane(x, 0.25 * K.support(x))
        exact = section(K, H)
        est = mc_section(K, H, samples=10**6, seed=52)
        assert abs(exact.measure - est.measure) <= 4 * est.stderr


# Reference loops: one slice point per edge and one det per hull facet.  The
# stacked cap volume must hand qhull each plane's loop cloud bit for bit, and
# together they slice a polytope through a qhull hull of the slice in a chart
# of H: the oracle that the cone sums of ``section`` are held to.


def loop_slice_points(vertices, edges, d, t):
    pts = [vertices[i] for i in np.flatnonzero(d == t)]
    cross = (d[edges[:, 0]] - t) * (d[edges[:, 1]] - t) < 0.0
    for i, j in edges[cross]:
        s = (t - d[i]) / (d[j] - d[i])
        pts.append(vertices[i] + s * (vertices[j] - vertices[i]))
    return np.array(pts) if pts else np.empty((0, vertices.shape[1]))


def loop_cap_cloud(K, x, t):
    """One plane's clipped cloud: the vertices with d >= t, then ``loop_slice_points``, with its own ``V @ x``."""
    d = K.vertices @ x
    return np.vstack([K.vertices[d >= t], loop_slice_points(K.vertices, K.edges, d, t)])


def loop_cap(K, H):
    """(cap volume, cloud handed to qhull or None) of one plane."""
    x, t = H.direction, H.offset
    h = K.support(x)
    if t >= h:
        return 0.0, None
    if t <= -h:
        return K.volume(), None
    cloud = loop_cap_cloud(K, x, t)
    if len(cloud) <= K.dim:
        return 0.0, None
    try:
        return float(ConvexHull(cloud).volume), cloud
    except QhullError:
        return 0.0, cloud


def stack(planes):
    return Hyperplane(np.array([H.direction for H in planes]), np.array([H.offset for H in planes]))


def float_bytes(values):
    return np.asarray(values, dtype=float).tobytes()


def check_caps_against_loops(K, planes, monkeypatch):
    """Stacked and one-plane cap volumes equal ``loop_cap`` byte for byte, and qhull sees exactly its clouds."""
    expected = [loop_cap(K, H) for H in planes]
    with monkeypatch.context() as m:
        calls = count_hull_builds(m)
        stacked = cap_volume(K, stack(planes))
    assert [args[0].tobytes() for args in calls] == [c.tobytes() for _, c in expected if c is not None]
    assert stacked.tobytes() == float_bytes([v for v, _ in expected])
    assert float_bytes([cap_volume(K, H) for H in planes]) == stacked.tobytes()
    return expected


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


def qhull_section(K, H):
    """(measure, centroid) of ``K ∩ H`` from the slice points' qhull hull; (0.0, None) if degenerate."""
    if abs(H.offset) >= K.support(H.direction):
        return 0.0, None
    x, t, sgn = sections._canonical_plane(H.direction, H.offset)
    pts = loop_slice_points(K.vertices, K.edges, K.vertices @ x, t)
    if len(pts) < K.dim:
        return 0.0, None
    Q = loop_hyperplane_chart(x)
    measure, chart_centroid = loop_chart_polytope_data(pts @ Q)
    if chart_centroid is None:
        return 0.0, None
    return measure, sgn * (t * x + Q @ chart_centroid)


class TestWholeArraySlicingIsBitIdentical:
    def polytopes(self, dim):
        rng = np.random.default_rng(40 + dim)
        return [random_vpolytope(rng, dim) for _ in range(3)] + [cube(1.0, dim)]

    def planes(self, K, rng, count=25):
        verts = K.vertices
        for _ in range(count):
            x = unit(rng.normal(size=K.dim))
            yield Hyperplane(x, float(rng.uniform(-0.95, 0.95)) * K.support(x))
        # through a vertex strictly between the two supporting planes: d == t there
        x = unit(rng.normal(size=K.dim))
        d = verts @ x
        yield Hyperplane(x, float(np.sort(d)[len(d) // 2 - 1]))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_sections_and_caps_match_loops(self, dim, monkeypatch):
        for K in self.polytopes(dim):
            planes = list(self.planes(K, np.random.default_rng(dim)))
            check_caps_against_loops(K, planes, monkeypatch)
            nondegenerate = 0
            for H in planes:
                sec = section(K, H)
                measure, centroid = qhull_section(K, H)
                assert sec.degenerate is (centroid is None)
                if centroid is not None:
                    nondegenerate += 1
                    assert sec.measure == pytest.approx(measure, rel=1e-12, abs=0.0)
                    assert sec.centroid == pytest.approx(centroid, rel=0.0, abs=1e-12)
            assert nondegenerate >= 20

    def test_cube_vertices_on_plane(self, monkeypatch):
        # x = (1, 1, 0)/sqrt(2), t = 0 holds the four cube vertices with y1 = -y2
        K = cube(1.0, 3)
        H = Hyperplane(unit([1.0, 1.0, 0.0]), 0.0)
        assert np.count_nonzero(K.vertices @ H.direction == 0.0) == 4
        [(volume, _)] = check_caps_against_loops(K, [H], monkeypatch)
        assert volume == pytest.approx(4.0, rel=1e-12)

    def test_plane_without_crossings(self, monkeypatch):
        K = random_vpolytope(np.random.default_rng(3), 3)
        x = unit([1.0, -2.0, 0.5])
        d = K.vertices @ x
        planes = [Hyperplane(x, d.max() + 0.1), Hyperplane(x, d.min() - 0.1)]
        expected = check_caps_against_loops(K, planes, monkeypatch)
        assert expected == [(0.0, None), (K.volume(), None)]

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_mixed_stack_keeps_each_planes_cloud(self, dim, monkeypatch):
        # planes past either support, at the supports, through a vertex, through
        # vertices with no edge crossing, and generic cuts, shuffled into one
        # stack: a row without a hull must not shift its neighbours' clouds
        rng = np.random.default_rng(60 + dim)
        e1, diagonal = np.eye(dim)[0], unit(np.r_[1.0, 1.0, np.zeros(dim - 2)])
        cross = VPolytope(np.vstack([np.eye(dim), -np.eye(dim)]))
        # x = e1, t = 0 holds 2(n-1) vertices of the cross-polytope and crosses none of its edges
        assert len(loop_cap_cloud(cross, e1, 0.0)) == 1 + 4 * (dim - 1)
        for K in self.polytopes(dim) + [cross]:
            planes = []
            for _ in range(6):
                x = unit(rng.normal(size=dim))
                h, d = K.support(x), K.vertices @ x
                planes += [Hyperplane(x, t) for t in (h, h + 0.3, -h, -h - 0.3, float(np.sort(d)[len(d) // 2]))]
                planes += [Hyperplane(x, float(rng.uniform(-0.9, 0.9)) * h) for _ in range(2)]
            planes += [Hyperplane(e1, 0.0), Hyperplane(diagonal, 0.0)]
            planes = [planes[k] for k in rng.permutation(len(planes))]
            expected = check_caps_against_loops(K, planes, monkeypatch)
            # one hull per plane strictly between the supports whose cloud has more than n points
            cut = [abs(H.offset) < K.support(H.direction) for H in planes]
            clouds = [loop_cap_cloud(K, H.direction, H.offset) for H, inside in zip(planes, cut) if inside]
            hulled = [c for _, c in expected if c is not None]
            assert [c.tobytes() for c in hulled] == [c.tobytes() for c in clouds if len(c) > dim]
            assert len(hulled) >= 6 * 3 and not all(cut)
            # a stack with no plane between the supports builds no hull
            outside = [H for H, inside in zip(planes, cut) if not inside]
            assert all(c is None for _, c in check_caps_against_loops(K, outside, monkeypatch))

    def test_chart_is_an_orthonormal_basis_of_the_complement(self):
        rng = np.random.default_rng(12)
        directions = [unit(rng.normal(size=dim)) for dim in (2, 3, 4, 5) for _ in range(50)]
        directions += [np.eye(4)[1], -np.eye(3)[2], unit([0.0, -1.0, 1.0, 0.0])]
        ulp = np.finfo(float).eps
        for x in directions:
            Q = hyperplane_chart(x)
            assert Q.shape == (len(x), len(x) - 1) and not np.isnan(Q).any()
            assert np.abs(Q.T @ Q - np.eye(len(x) - 1)).max() <= 4 * ulp
            assert np.abs(Q.T @ x).max() <= 4 * ulp
            assert Q.tobytes() == hyperplane_chart(x).tobytes()


TIE_EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True)
tie_dims = st.sampled_from([2, 3, 4])
seeds = st.integers(0, 2**32 - 1)


def tie_polytope(kind, dim, seed):
    return cube(0.8, dim) if kind == "cube" else random_vpolytope(np.random.default_rng(seed), dim)


tie_polytopes = st.builds(tie_polytope, st.sampled_from(["cube", "random"]), tie_dims, seeds)


def fd_centroid_partials(K, H, step):
    """Central differences of the section centroid along the chart of H's normal and in its offset."""
    x, t = H.direction, H.offset
    Q = hyperplane_chart(x)

    def centroid(w, s):
        return section(K, Hyperplane(unit(w), s)).centroid

    dx = np.column_stack([(centroid(x + step * q, t) - centroid(x - step * q, t)) / (2.0 * step) for q in Q.T])
    return Q, dx, (centroid(x, t + step) - centroid(x, t - step)) / (2.0 * step)


TIE_OFFSET = 1e-8  # planes this far off a tie have a fixed slice pattern within the stencil


class TestConeSlicingAtTies:
    """Cone sums against the qhull oracle where vertices, edges or facets meet H."""

    def check_partials(self, K, H):
        """Centroid partials: finite on H, and equal to a difference stencil on planes moved off it."""
        sec, dc_dx, dc_dt = section_partials(K, H)
        plain = section(K, H)
        assert sec.measure == plain.measure and sec.degenerate is plain.degenerate
        if sec.degenerate:
            assert dc_dx is None and dc_dt is None
            return
        assert sec.centroid.tobytes() == plain.centroid.tobytes()
        assert np.isfinite(dc_dx).all() and np.isfinite(dc_dt).all()
        # the stencil moves no vertex across the moved plane: |V x| changes by at most step * max |v|
        step = 0.2 * TIE_OFFSET / np.linalg.norm(K.vertices, axis=1).max()
        for shift in (-TIE_OFFSET, TIE_OFFSET):
            moved = Hyperplane(H.direction, H.offset + shift)
            sec, dc_dx, dc_dt = section_partials(K, moved)
            if sec.degenerate or abs(moved.offset) + TIE_OFFSET >= K.support(moved.direction):
                continue
            Q, fd_dx, fd_dt = fd_centroid_partials(K, moved, step)
            analytic = np.column_stack([dc_dx @ Q, dc_dt])
            assert np.abs(analytic - np.column_stack([fd_dx, fd_dt])).max() <= 1e-6 * np.abs(analytic).max()

    def check(self, K, H):
        self.check_partials(K, H)
        sec = section(K, H)
        measure, centroid = qhull_section(K, H)
        assert sec.degenerate is (centroid is None)
        assert np.isfinite(sec.measure)
        if centroid is None:
            return
        x, t = H.direction, H.offset
        h = K.support(x)
        gap = h - abs(t)
        # the slice's vertices carry O(eps h) errors against a size O(gap):
        # that ratio bounds how closely any two exact slicers can agree
        assert np.all(np.isfinite(sec.centroid))
        assert sec.measure == pytest.approx(measure, rel=max(1e-12, 1e-14 * h / gap), abs=0.0)
        assert sec.centroid == pytest.approx(centroid, rel=0.0, abs=1e-12)
        if t < 0.0:
            x, t = -x, -t  # the same section, seen from its smaller cap
        step = min(1e-6 * h, 1e-2 * gap)
        dv = (cap_volume(K, Hyperplane(x, t + step)) - cap_volume(K, Hyperplane(x, t - step))) / (2 * step)
        # the measure may have a kink at t (n = 2 through a vertex): the central
        # difference is the mean of -measure over [t - step, t + step], which
        # the trapezoid rule on both halves gives to O(step^2)
        lo, hi = (section(K, Hyperplane(x, t + u)).measure for u in (-step, step))
        assert dv == pytest.approx(-(lo + 2.0 * sec.measure + hi) / 4.0, rel=1e-4)

    @TIE_EXAMPLES
    @given(tie_polytopes, seeds, st.integers(0, 10**6))
    def test_plane_through_a_vertex(self, K, seed, pick):
        # offsets from the product the slicer forms, so the extreme vertices give supporting planes
        x = unit(np.random.default_rng(seed).normal(size=K.dim))
        self.check(K, Hyperplane(x, float((K.vertices @ x)[pick % len(K.vertices)])))

    @TIE_EXAMPLES
    @given(
        tie_dims,
        st.integers(0, 3),
        st.sampled_from([1.0, -1.0]),
        st.one_of(st.floats(-0.999, 0.999), st.sampled_from([-1.0, 0.0, 1.0])),
    )
    def test_cube_axis_direction(self, dim, axis, sign, frac):
        # the facets normal to the axis are parallel to H; test_thin_cube_slab_cap_volume
        # takes a slab far thinner than 1e-3
        K = cube(0.8, dim)
        self.check(K, Hyperplane(sign * np.eye(dim)[axis % dim], 0.8 * frac))

    @TIE_EXAMPLES
    @given(tie_dims, st.integers(0, 3), st.integers(1, 3), st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0]))
    def test_plane_containing_boundary_faces(self, dim, a, shift, sa, sb):
        # x = (±e_a ± e_b)/sqrt(2), t = 0 holds two opposite (n-2)-faces of the cube
        a, b = a % dim, (a + shift) % dim
        if a == b:
            b = (a + 1) % dim
        x = np.zeros(dim)
        x[a], x[b] = sa, sb
        self.check(cube(0.8, dim), Hyperplane(unit(x), 0.0))

    @TIE_EXAMPLES
    @given(tie_polytopes, seeds, st.sampled_from([1.0, -1.0]))
    def test_near_tangent_offsets(self, K, seed, sign):
        x = unit(np.random.default_rng(seed).normal(size=K.dim))
        self.check(K, Hyperplane(x, sign * (1.0 - 1e-9) * K.support(x)))

    def test_thin_cube_slab_cap_volume(self):
        # qhull aborted on this cloud while it held the crossings of the facets' diagonals
        K, x = cube(0.8, 4), -np.eye(4)[0]
        t = 0.8 * (1.0 - 1e-9) + 8e-13
        assert cap_volume(K, Hyperplane(x, t)) == pytest.approx(1.6**3 * (0.8 - t), rel=1e-6)

    def test_cube_edge_plane(self):
        # x = (1, 1, 0)/sqrt(2), t = 0 holds two edges of the cube: the section is a 2 x 2 sqrt(2) rectangle
        K = cube(1.0, 3)
        sec = section(K, Hyperplane(unit([1.0, 1.0, 0.0]), 0.0))
        assert sec.measure == pytest.approx(2.0 * 2.0 * np.sqrt(2.0), rel=1e-14)
        assert sec.centroid == pytest.approx(np.zeros(3), abs=1e-15)


class TestDerivativeIdentities:
    def bodies(self, rng, dim):
        out = [Ball(1.1, dim), Ellipsoid.from_semiaxes(np.linspace(1.2, 0.6, dim)), cube(0.9, dim)]
        out.append(random_vpolytope(rng, dim))
        # rotated, so the off-diagonal terms of the shape matrix enter too
        out.append(Ellipsoid.from_semiaxes(np.linspace(0.5, 1.4, dim), random_rotation(np.random.default_rng(dim), dim)))
        return out

    def test_t_derivative_is_minus_measure(self):
        rng = np.random.default_rng(10)
        h = 1e-5
        for dim in (2, 3, 4, 5):
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
        for dim in (2, 3, 4, 5):
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
                    expected = float(sec.measure * sec.centroid @ w)
                    assert dv == pytest.approx(expected, rel=1e-4, abs=1e-8)


class TestMonteCarlo:
    @staticmethod
    def estimates(oracle, K, H, samples, seed):
        """Every number an oracle returns, as one tuple."""
        out = oracle(K, H, samples=samples, seed=seed)
        if oracle is mc_cap_volume:
            return out
        return (out.measure, out.stderr, *out.centroid)

    def test_sample_floor(self):
        H = Hyperplane(np.array([1.0, 0.0]), 0.0)
        for oracle in (mc_cap_volume, mc_section):
            with pytest.raises(BodyError, match="10\\^3 samples"):
                oracle(Ball(1.0, 2), H, samples=999)
            oracle(Ball(1.0, 2), H, samples=10**3)

    def test_determinism(self):
        # 2^19 + 1 samples take a second chunk of one point
        H = Hyperplane(unit([1.0, 2.0]), 0.2)
        for oracle in (mc_cap_volume, mc_section):
            for samples in (10**5, (1 << 19) + 1):
                a = self.estimates(oracle, Ball(1.0, 2), H, samples, seed=3)
                assert a == self.estimates(oracle, Ball(1.0, 2), H, samples, seed=3)
                assert a != self.estimates(oracle, Ball(1.0, 2), H, samples, seed=4)

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

    def test_lp_section_and_cap_volume_unsupported(self):
        K, H = LpBall(3.0, 1.0, 2), Hyperplane(np.array([1.0, 0.0]), 0.2)
        with pytest.raises(UnsupportedRepresentation, match="mc_section"):
            section(K, H)
        with pytest.raises(UnsupportedRepresentation, match="mc_cap_volume"):
            cap_volume(K, H)

    def test_empty_slab(self):
        H = Hyperplane(np.array([1.0, 0.0]), 0.999999)
        sd = mc_section(cube(1.0, 2), H, samples=10**3, thickness=1e-9, seed=6)
        assert sd.measure == 0.0 or sd.degenerate is False
