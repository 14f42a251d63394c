import itertools
import warnings

import numpy as np
import pytest

from capsec.bodies import Ball, BodyError, Ellipsoid, LpBall, VPolytope, cube, sphere_net
from capsec.families import FAMILIES, fit_inside, random_ellipsoid, random_instance, random_rotation
import capsec.functional as functional_module
import capsec.solver as solver_module
from capsec.functional import (
    DegenerateSectionError,
    FunctionalEval,
    RejectedInstanceError,
    _supporting_plane,
    _touch_and_section,
    evaluate,
    fd_tangential_gradient,
)
from capsec.sections import SectionData, SectionMethod, cap_volume, hyperplane_chart, section, section_partials
from capsec.solver import (
    CANONICAL_TOL,
    RESIDUAL_TOL,
    STEP_INIT,
    CriticalPair,
    SolverConfig,
    TheoremReport,
    _centroid_derivative,
    _chart_move,
    _canonical,
    _classify,
    _dedup,
    _icosphere,
    _newton_chart,
    _gradient_stage,
    _lockstep,
    _lstsq,
    _polish,
    _residual_vector,
    _start_directions,
    grid_census,
    solve,
)


def angle(a, b):
    return np.arccos(min(1.0, abs(float(np.dot(a, b)))))


class TestConfig:
    def test_defaults_resolve(self):
        cfg = SolverConfig()
        assert cfg.resolved_starts(3) == 192

    def test_residual_tolerance_is_the_constant(self):
        assert SolverConfig().residual_tol == 1e-7

    def test_residual_tolerance_is_not_settable(self):
        with pytest.raises(TypeError):
            SolverConfig(residual_tol=0.05)

    def test_too_few_starts(self):
        with pytest.raises(BodyError):
            SolverConfig(starts=2).resolved_starts(3)


class TestStartDirections:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_count_is_the_requested_count(self, dim):
        # for n >= 3 the net drops its zero point; the random half makes up the row
        for count in sorted({dim, 7, 15, 16, 96, 64 * dim}):
            for seed in (0, 501):
                starts = _start_directions(dim, count, seed)
                assert starts.shape == (count, dim)
                assert np.linalg.norm(starts, axis=1) == pytest.approx(np.ones(count), abs=1e-15)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_the_added_start_comes_last(self, dim):
        # the net rows and the random rows keep their places; the one more random row follows them
        count = 64 * dim
        starts = _start_directions(dim, count, 7)
        net = sphere_net(dim, count // 2)
        assert len(net) == count // 2 - 1
        assert np.array_equal(starts[: len(net)], net)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(7)))
        g = rng.normal(size=(count - len(net), dim))
        assert np.array_equal(starts[len(net):], g / np.linalg.norm(g, axis=1, keepdims=True))


@pytest.fixture(scope="module")
def report():
    K = Ball(2.0, 3)
    L = Ellipsoid.from_semiaxes([1.0, 0.7, 0.4])
    return solve(K, L, SolverConfig(starts=96, seed=1))


class TestEllipsoidInBall:
    """Ellipsoid with distinct semiaxes inside a ball: the critical directions
    are exactly the three coordinate axes (min, saddle, max)."""

    def test_three_axis_pairs(self, report):
        assert len(report.pairs) == 3
        dirs = sorted(int(np.argmax(np.abs(p.direction))) for p in report.pairs)
        assert dirs == [0, 1, 2]
        for p in report.pairs:
            e = np.zeros(3)
            e[np.argmax(np.abs(p.direction))] = 1.0
            assert angle(p.direction, e) < 1e-6

    def test_certified(self, report):
        assert report.certified

    def test_kinds(self, report):
        # cap volume is smallest along the long axis and largest along the short one
        kinds = [p.kind for p in report.pairs]
        assert kinds[0] == "min"
        assert kinds[-1] == "max"
        assert "saddle" in kinds

    def test_residuals_and_criticality(self, report):
        for p in report.pairs:
            assert p.residual <= 1e-7
            assert np.linalg.norm(p.centroid - p.touch_point) <= 1e-6

    def test_f_values_sorted(self, report):
        fs = [p.f_value for p in report.pairs]
        assert fs == sorted(fs)

    def test_canonical_representatives(self, report):
        for p in report.pairs:
            nz = p.direction[np.abs(p.direction) > 1e-9]
            assert nz[0] > 0


def _census_cases():
    """The 60 acceptance-census instances; n = 3 seed 110 misses a saddle."""
    missed = pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: the starts miss the index-1 saddle; indices 0, 0, 1, 2 sum to 2",
    )
    return [
        pytest.param(dim, seed, marks=missed if (dim, seed) == (3, 110) else ())
        for dim in (2, 3, 4)
        for seed in range(100, 120)
    ]


class TestMorseIndex:
    """Pair kinds come from the index of the residual Jacobian.  Some census
    draws have saddles whose Hessian diagonal in the tangent chart has one
    sign, so axis probes alone would call them minima or maxima; at n = 4
    index 1 and 2 are both saddles, so the sum needs the index itself."""

    @pytest.mark.parametrize("dim, seed", _census_cases())
    def test_census_pairs_satisfy_euler_characteristic(self, census_report, dim, seed):
        _, _, report = census_report(dim, seed)
        assert set(range(dim)) <= {p.morse_index for p in report.pairs}
        assert report.euler_sum == dim % 2  # chi(RP^{n-1})


class TestDedup:
    def test_close_min_and_max_stay_apart(self, census_report):
        # a min and a max 0.0063 rad apart; on RP^1 minima and maxima alternate
        _, _, report = census_report(2, 106)
        kinds = sorted(p.kind for p in report.pairs)
        assert kinds == ["max", "max", "min", "min"]

    def test_near_antipodes_merge(self):
        # row 1 is 1e-4 rad from the antipode of row 0 and has the lower residual, so it is kept
        a = 1e-4
        z = np.array([[1.0, 0.0], [-np.cos(a), np.sin(a)], [0.0, 1.0], [np.sin(a), np.cos(a)]])
        kept, counts = _dedup(z, np.array([2e-8, 1e-8, 3e-8, 4e-8]))
        assert kept.tolist() == [1, 2] and counts.tolist() == [2, 2]

    def test_canonical_skips_negligible_leading_coordinates(self):
        # a leading coordinate within CANONICAL_TOL of 0, of either sign, does not fix the sign
        tiny = 0.5 * CANONICAL_TOL
        z = np.array([[tiny, -0.6, 0.8], [-tiny, 0.6, 0.8], [-tiny, -tiny, -1.0], [tiny, tiny, 1.0], [-0.6, 0.0, 0.8]])
        c = _canonical(z)
        assert c.tobytes() == np.array([-z[0], z[1], -z[2], z[3], -z[4]]).tobytes()
        assert _canonical(z[:0]).shape == (0, 3)


class TestPairOrder:
    """Pairs that tie in f by symmetry keep their order when last bits change."""

    @pytest.mark.parametrize(
        "L", [Ball(0.5, 3), Ellipsoid.from_semiaxes([0.6, 0.5, 0.4])], ids=["ball", "ellipsoid"]
    )
    def test_h_and_v_cube_give_the_same_order(self, L):
        V = VPolytope(np.array(list(itertools.product([-1.0, 1.0], repeat=3))))
        cfg = SolverConfig(starts=96, seed=0)
        h_pairs = solve(cube(1.0, 3), L, cfg).pairs
        v_pairs = solve(V, L, cfg).pairs
        assert len(h_pairs) == len(v_pairs)
        for p, q in zip(h_pairs, v_pairs):
            assert angle(p.direction, q.direction) < 1e-6
            assert p.kind == q.kind


class TestContinuum:
    def test_ball_in_ball_flagged(self):
        report = solve(Ball(1.0, 3), Ball(0.4, 3), SolverConfig(starts=48, seed=2))
        assert report.degenerate_continuum
        assert report.certified
        m = len(report.pairs)
        assert report.continuum_justification.startswith(f"{m}/{m} pairs have a flat eigenvalue")
        assert all(p.kind == "unclassified" and p.morse_index is None for p in report.pairs)

    def test_isolated_lp_minima_are_not_a_continuum(self):
        # four symmetric minima share one f value; each is a nondegenerate critical point
        K, L = random_instance("lp_in_ball", 3, 2)
        report = solve(K, L, SolverConfig(starts=192, seed=2))
        assert not report.degenerate_continuum
        assert report.continuum_justification is None
        # p = 3.70 > 2: the critical set is the 13 lines spanned by {0, +-1}^3, and f
        # falls with h_L = s ||z||_q, so a line with k nonzero coordinates has index 3 - k
        lines = {}
        for v in itertools.product([-1, 0, 1], repeat=3):
            if any(v) and v[np.flatnonzero(v)[0]] > 0:
                lines[v] = ("max", "saddle", "min")[np.count_nonzero(v) - 1]
        assert len(report.pairs) == len(lines) == 13
        found = {}
        for p in report.pairs:
            v = tuple(int(c) for c in np.round(p.direction * np.sqrt(np.count_nonzero(np.abs(p.direction) > 0.1))))
            assert p.direction == pytest.approx(np.array(v) / np.linalg.norm(v), abs=1e-8)
            found[v] = p.kind
        assert found == lines
        assert report.euler_sum == 1  # chi(RP^2)
        assert report.certified


class TestDegenerateGeometry:
    def test_needle_in_cube_solves(self, needle_in_cube):
        # starts and polish steps near the needle's tip meet sections below
        # the measure floor; the solver must reject them and still certify
        K, L, _ = needle_in_cube
        refused = []  # start kinds, by i % 3: descent, ascent, polish only
        for i, z in enumerate(_start_directions(4, 32, 0)):
            try:
                _residual_vector(K, L, z)
            except DegenerateSectionError:
                refused.append(i % 3)
        assert sorted(refused) == [0, 1, 1, 2]
        report = solve(K, L, SolverConfig(starts=32, seed=0))
        # each start whose own section is degenerate is refused once; later
        # trials that meet the floor are retried, not counted
        assert report.diagnostics["degenerate_rejections"] == len(refused)
        assert report.certified
        for p in report.pairs:
            assert p.residual <= 1e-7
            assert abs(L.gauge(p.centroid) - 1.0) <= 1e-5

    def test_gradient_stage_refuses_a_degenerate_start(self, needle_in_cube):
        K, L, d = needle_in_cube
        with pytest.raises(DegenerateSectionError):
            evaluate(K, L, d)
        z, r, steps, refused = _gradient_stage(K, L, np.stack([d, d, d]), [+1.0, -1.0, 0.0])
        assert refused.tolist() == [True, True, True]
        assert steps.tolist() == [0, 0, 0]
        assert np.isnan(r).all()

    def test_refused_start_is_counted_once_and_never_polished(self, monkeypatch):
        # the descent and ascent starts' own evaluations are scripted to be
        # degenerate; only the polish-only start may reach the polish.  L's
        # axes are turned off the start directions, so no pair is a start.
        turn = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
        K, L = Ball(1.0, 2), Ellipsoid.from_semiaxes([0.6, 0.3], rotation=turn)
        starts = _start_directions(2, 3, 0)

        def scripted(K, L, z):
            # a refused row of a stacked evaluation holds NaN
            ev = evaluate(K, L, z)
            refused = [any(np.array_equal(row, s) for s in starts[:2]) for row in z]
            ev.f_value[refused] = ev.residual[refused] = np.nan
            ev.tangential_gradient[refused] = ev.section.centroid[refused] = np.nan
            return ev

        polished = []

        def recording(*args):
            polished.append(args[2])
            return _polish(*args)

        monkeypatch.setattr(solver_module, "evaluate", scripted)
        monkeypatch.setattr(solver_module, "_polish", recording)
        report = solve(K, L, SolverConfig(starts=3, seed=0))
        assert report.diagnostics["degenerate_rejections"] == 2
        assert len(polished) == 1 and np.array_equal(polished[0], starts[2:])


def fd_residual_jacobian(K, L, z, step=1e-6):
    """Central-difference Jacobian of centroid - touch point in the polish's chart at z: 2(n-1) residuals.

    The chart steps z on the sphere, or, where L has flat points, the touch
    point y on L's boundary, with z = L.normal(y).
    """
    Q = hyperplane_chart(z)
    y = L.touch_point(z)

    def residual(s):
        w = L.normal(y + s) if L.flat_points else (z + s) / np.linalg.norm(z + s)
        _, _, touch, sec = _touch_and_section(K, L, w)
        return sec.centroid - touch

    return np.column_stack([(residual(step * q) - residual(-step * q)) / (2.0 * step) for q in Q.T])


def sphere_chart_hessian(K, L, z):
    """sym(Q^T J) with J = (dc/dx + dc/dt p^T - D^2 h_L(z)) Q, the sphere chart's Jacobian, for any L."""
    Q, _, dc = _centroid_derivative(K, L, z)
    H = Q.T @ (dc - L.touch_point_jacobian(z)) @ Q
    return 0.5 * (H + H.T)


def outer_body(kind, dim, rng):
    if kind == "ball":
        return Ball(1.4, dim)
    if kind == "ellipsoid":
        return Ellipsoid.from_semiaxes(rng.uniform(0.8, 1.6, size=dim), random_rotation(rng, dim))
    if kind == "hpolytope":
        return cube(1.0, dim)
    pts = rng.normal(size=(3 * dim, dim))
    return VPolytope.symmetric_hull(1.5 * pts / np.linalg.norm(pts, axis=1, keepdims=True))


def inner_body(kind, dim, rng):
    if kind == "ball":
        return Ball(1.0, dim)
    if kind == "ellipsoid":
        return Ellipsoid.from_semiaxes(rng.uniform(0.4, 1.0, size=dim), random_rotation(rng, dim))
    return LpBall({"lp1.5": 1.5, "lp3": 3.0}[kind], 1.0, dim)


OUTER_KINDS = ("ball", "ellipsoid", "vpolytope", "hpolytope")


class TestResidualJacobian:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("outer", OUTER_KINDS)
    def test_matches_the_difference_stencil(self, outer, dim):
        rng = np.random.default_rng([dim, OUTER_KINDS.index(outer)])
        K = outer_body(outer, dim, rng)
        for inner in ("ball", "ellipsoid", "lp1.5", "lp3"):
            L = fit_inside(K, inner_body(inner, dim, rng))
            for _ in range(4):
                z = rng.normal(size=dim)
                z /= np.linalg.norm(z)
                Q, J, _ = _newton_chart(K, L, z)
                assert Q.tobytes() == hyperplane_chart(z).tobytes()
                oracle = fd_residual_jacobian(K, L, z)
                if outer == inner == "ball":
                    # concentric balls: every direction is critical and J vanishes; the
                    # stencil's rounding is about eps / step
                    assert np.abs(J).max() <= 1e-14 and np.abs(oracle).max() <= 1e-9
                else:
                    assert np.abs(J - oracle).max() <= 1e-6 * np.abs(J).max(), (inner, z)

    def test_refuses_what_evaluate_refuses(self, needle_in_cube):
        K, L, d = needle_in_cube
        with pytest.raises(DegenerateSectionError):
            evaluate(K, L, d)
        with pytest.raises(DegenerateSectionError):
            _newton_chart(K, L, d)

    def test_degenerate_section_is_unclassified(self, needle_in_cube):
        K, L, d = needle_in_cube
        assert _classify(K, L, d[None]) == [None]

    @pytest.mark.parametrize("start", [[1e-3, 2e-3, 1.0], [1.0, 0.0, 2.0], [0.0, 0.0, 1.0]])
    def test_polish_reaches_flat_points(self, start):
        # an lp-ball with p > 2 is flat where a coordinate of z is 0: D^2 h_L is
        # unbounded there, so the polish steps the touch point on L's boundary
        K, L = Ball(1.0, 3), LpBall(2.87, 0.5, 3)
        z = np.array(start) / np.linalg.norm(start)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no inf or nan reaches lstsq
            (z_out,), (res,), (steps,) = _polish(K, L, z[None], _residual_vector(K, L, z)[None])
        assert res <= RESIDUAL_TOL
        assert steps <= 10
        v = np.round(np.abs(z_out) * np.sqrt(np.count_nonzero(np.abs(z_out) > 0.1)))
        assert np.abs(z_out) == pytest.approx(v / np.linalg.norm(v), abs=1e-8)

    @pytest.mark.parametrize("offset", [0.0, 1e-12, 1e-7])
    def test_flat_touch_points_are_classified(self, offset):
        # f ~ -|z_i|^q across a flat point's zero coordinate: that direction counts as negative
        K = Ball(1.0, 3)
        d = np.array([offset, -offset, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p, indices in ((3.0, (2, 1, 0)), (5.7, (2, 1, 0)), (1.5, (0, 1, 2))):
                L = LpBall(p, 0.5, 3)
                for line, index in zip(([0, 0, 1], [0, 1, 1], [1, 1, 1]), indices):
                    z = np.array(line, dtype=float) + d
                    assert _classify(K, L, z[None] / np.linalg.norm(z)) == [index], (p, line)

    def test_index_is_the_inertia_of_the_sphere_chart_hessian(self):
        # away from flat points (every |z_i| >= 1e-3) D^2 h_L is finite, so the sphere
        # chart's sym(Q^T J) is an oracle for the index read in the boundary chart
        rng = np.random.default_rng(3)
        pairs = saddles = 0
        for i in range(16):
            n = 3 + i % 2
            K = random_ellipsoid(rng, n, (0.8, 1.6))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # p near 6 warns about conditioning
                L = fit_inside(K, LpBall(float(rng.uniform(2.5, 6.0)), 1.0, n))
            for p in solve(K, L, SolverConfig(starts=8 * n, seed=i)).pairs:
                z = p.direction
                if np.abs(z).min() < 1e-3:
                    continue
                index = np.count_nonzero(np.linalg.eigvalsh(sphere_chart_hessian(K, L, z)) < 0)
                assert _classify(K, L, z[None]) == [index], (i, z)
                Q, J, _ = _newton_chart(K, L, z)
                eig = np.linalg.eigvals(Q.T @ J)
                assert np.abs(eig.imag).max() <= 1e-12 * np.abs(eig).max()
                pairs += 1
                saddles += 0 < index < n - 1
        assert pairs >= 60 and saddles >= 15

    def test_flat_touch_point_chart(self):
        # the boundary chart's Jacobian is the sphere chart's composed with the normal map's derivative
        K, L = Ball(1.0, 3), LpBall(3.0, 0.5, 3)
        z = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
        Q, p, dc = _centroid_derivative(K, L, z)
        J = (dc - L.touch_point_jacobian(z)) @ Q
        Q_y, J_y, base = _newton_chart(K, L, z)
        assert Q_y.tobytes() == Q.tobytes()
        N = L.normal_jacobian(p)
        assert J_y == pytest.approx(J @ Q.T @ N @ Q, abs=1e-12)
        assert _chart_move(L, base, np.zeros(3)) == pytest.approx(z, abs=1e-15)
        # both charts give the same index here, where D^2 h_L is finite
        H = Q.T @ J
        assert _classify(K, L, z[None]) == [np.count_nonzero(np.linalg.eigvalsh(0.5 * (H + H.T)) < 0)]


class TestSquareAndDisk:
    def test_four_pairs_match_grid_oracle(self):
        K = cube(1.0, 2)
        L = Ball(0.5, 2)
        report = solve(K, L, SolverConfig(starts=64, seed=3))
        census = grid_census(K, L, resolution=4000)
        assert len(report.pairs) == len(census) == 4
        for p in report.pairs:
            assert min(angle(p.direction, z) for z, _ in census) < 1e-6
        # axes are maxima of the cap volume, diagonals are minima
        for p in report.pairs:
            if abs(abs(p.direction[0]) - abs(p.direction[1])) < 1e-6:
                assert p.kind == "min"
            else:
                assert p.kind == "max"


class TestDeterminism:
    def test_identical_reports(self):
        from capsec.reporting import dump_report

        K = cube(1.0, 2)
        L = Ellipsoid.from_semiaxes([0.6, 0.4])
        cfg = SolverConfig(starts=48, seed=7)
        a = dump_report(K, L, solve(K, L, cfg), seed=7)
        b = dump_report(K, L, solve(K, L, cfg), seed=7)
        assert a == b

    def test_seed_changes_starts_not_answers(self):
        K = Ball(2.0, 2)
        L = Ellipsoid.from_semiaxes([1.0, 0.5])
        r1 = solve(K, L, SolverConfig(starts=48, seed=1))
        r2 = solve(K, L, SolverConfig(starts=48, seed=99))
        assert len(r1.pairs) == len(r2.pairs)
        for p, q in zip(r1.pairs, r2.pairs):
            assert angle(p.direction, q.direction) < 1e-6


def _vpolytope_n3():
    return random_instance("ellipsoid_in_polytope", 3, 501)


def _ellipsoid_n4():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(501)))
    K = random_ellipsoid(rng, 4, (0.6, 1.2))
    return K, fit_inside(K, random_ellipsoid(rng, 4, (0.5, 1.0)))


def _lp_n3():
    return random_instance("lp_in_ball", 3, 2)


# the benchmark's outer/inner pairs: a V-polytope K at n = 3, an ellipsoid in an ellipsoid at n = 4,
# and lp_in_ball at n = 3, whose L has flat points
BENCHMARK_SETTINGS = {"vpolytope-n3": _vpolytope_n3, "ellipsoid-n4": _ellipsoid_n4, "lp-n3": _lp_n3}


class TestMonotonicity:
    def test_descent_trace_decreases(self):
        from capsec.solver import _gradient_stage

        K = cube(1.0, 2)
        L = Ellipsoid.from_semiaxes([0.7, 0.3])
        z0 = np.random.default_rng(20).normal(size=(5, 2))
        z0 /= np.linalg.norm(z0, axis=1, keepdims=True)
        for sign in (+1.0, -1.0):
            traces = [[] for _ in z0]
            _gradient_stage(K, L, z0, sign, trace=traces)
            for trace in traces:
                assert len(trace) > 1
                assert all(sign * b <= sign * a + 1e-15 for a, b in zip(trace, trace[1:]))

    @pytest.mark.parametrize("sign", [+1.0, -1.0], ids=["descent", "ascent"])
    @pytest.mark.parametrize("make", BENCHMARK_SETTINGS.values(), ids=BENCHMARK_SETTINGS.keys())
    def test_benchmark_settings_take_armijo_steps(self, monkeypatch, make, sign):
        """Every accepted step meets phi(s) <= phi(0) - 1e-4 s |g|, so the trace is monotone.

        ``evaluate`` is recorded, and its stacked rows are taken in call order.
        A start's accepted iterates are the rows whose values its trace holds,
        and each step length s is read back from the retraction
        z' = (z + s d) / |z + s d|, with d = -g/|g|.
        """
        K, L = make()
        evals = []

        def recording(K, L, z):
            evals.append(evaluate(K, L, z))
            return evals[-1]

        monkeypatch.setattr(solver_module, "evaluate", recording)
        z0 = np.random.default_rng(21).normal(size=(4, K.dim))
        z0 /= np.linalg.norm(z0, axis=1, keepdims=True)
        traces = [[] for _ in z0]
        _, _, counts, _ = _gradient_stage(K, L, z0, sign, trace=traces)
        # (direction, f, gradient) of every evaluated row
        rows = [row for ev in evals for row in zip(ev.direction, ev.f_value, ev.tangential_gradient)]
        steps = 0
        for trace in traces:
            assert all(sign * b <= sign * a + 1e-15 for a, b in zip(trace, trace[1:]))
            remaining = iter(rows)
            accepted = [next(row for row in remaining if row[1] == f) for f in trace]
            for (za, fa, ga), (zb, fb, _) in zip(accepted, accepted[1:]):
                g = sign * ga
                gn = np.linalg.norm(g)
                d = -g / gn
                s = (zb @ d) / (zb @ za)
                assert 0.0 < s <= STEP_INIT * (1 + 1e-12)
                # 1e-15 covers the rounding of s as read back from the unit vectors
                assert sign * fb <= sign * fa - 1e-4 * s * gn + 1e-15
            steps += len(trace) - 1
        assert counts.tolist() == [len(trace) - 1 for trace in traces]
        rejected = len(rows) - len(z0) - steps
        assert steps >= 20 and rejected >= 1


class TestBacktracking:
    """The retry after a failed Armijo test is the quadratic model's minimiser in [0.1 s, 0.5 s]."""

    @pytest.mark.parametrize("sign", [+1.0, -1.0], ids=["descent", "ascent"])
    def test_retries_follow_the_clipped_quadratic(self, monkeypatch, sign):
        # phi(s) = sign f along the step; g = sign grad = -2 e2, so |g| = 2, d = e2 and a
        # trial at s evaluates z = (1, s) / |(1, s)|.  Each entry: the trial's phi, or
        # None for a degenerate section, and the s the stage must try next.
        #   s = 0.1:   phi = 1.05, quadratic minimiser 2 * 0.1^2 / (2 * 0.25) = 0.04, inside
        #   s = 0.04:  degenerate, halves
        #   s = 0.02:  phi = 1 - 1e-6 fails Armijo; minimiser 0.0100003 is clipped to 0.5 s
        #   s = 0.01:  phi = 2, minimiser 9.8e-5 is clipped to 0.1 s
        #   s = 0.001: phi = 0.5 passes
        script = [(1.05, 0.04), (None, 0.02), (1.0 - 1e-6, 0.01), (2.0, 0.001), (0.5, None)]
        trials = []

        def scripted(K, L, z):
            # one start: a stack of one row, which holds NaN where its section is degenerate
            z = z / np.linalg.norm(z, axis=1, keepdims=True)
            (row,) = z
            if not trials and row[0] == 1.0:
                phi, residual = 1.0, 1.0  # the start, far from critical
            else:
                trials.append(row[1] / row[0])
                phi, residual = script[len(trials) - 1][0], 0.0  # residual 0 ends the stage
                if phi is None:
                    phi = residual = np.nan
            centroid = np.full((1, 2), np.nan if np.isnan(residual) else 0.0)
            sec = SectionData(np.ones(1), centroid, SectionMethod.ANALYTIC)
            grad = np.array([[0.0, -2.0 * sign]])
            return FunctionalEval(z, np.array([sign * phi]), np.zeros((1, 2)), sec, grad, np.array([residual]))

        monkeypatch.setattr(solver_module, "evaluate", scripted)
        z, r, steps, refused = _gradient_stage(Ball(1.0, 2), Ball(0.5, 2), np.array([[1.0, 0.0]]), sign)
        expected = [STEP_INIT] + [s_next for _, s_next in script[:-1]]
        assert trials == pytest.approx(expected, rel=1e-12)
        assert steps.tolist() == [1] and refused.tolist() == [False]
        assert z[0] == pytest.approx(np.array([1.0, 0.001]) / np.hypot(1.0, 0.001), rel=1e-15)
        assert np.array_equal(r, np.zeros((1, 2)))

    @pytest.mark.parametrize("sign", [+1.0, -1.0], ids=["descent", "ascent"])
    def test_stage_hands_the_polish_its_residual(self, sign):
        """The residual the stage returns is, bit for bit, the residual at its z, and the polish converges from it."""
        K, L = random_instance("ellipsoid_in_polytope", 3, 106)
        z0 = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
        z, r, steps, _ = _gradient_stage(K, L, z0[None], sign)
        assert steps[0] > 0
        assert np.array_equal(r, _residual_vector(K, L, z))
        assert _polish(K, L, z, r)[1][0] <= RESIDUAL_TOL


def rows_match(stacked, single):
    """A row of a stacked call equals the one-row call: both refused (NaN or None), or equal."""
    if single is None:
        return np.isnan(stacked).all()
    return np.array_equal(stacked, single, equal_nan=True)


class TestLockstep:
    """Each row of a stacked kernel or stage equals the call on that row alone."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("outer", OUTER_KINDS)
    def test_kernel_rows_match_single_calls(self, outer, dim):
        rng = np.random.default_rng([dim, 20 + OUTER_KINDS.index(outer)])
        K = outer_body(outer, dim, rng)
        for inner in ("ball", "ellipsoid", "lp1.5", "lp3"):
            L = fit_inside(K, inner_body(inner, dim, rng))
            z = rng.normal(size=(6, dim))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            H, h = _supporting_plane(K, L, z)
            sec, dc_dx, dc_dt = section_partials(K, H, support=h)
            caps, sections, charts, ev = cap_volume(K, H), section(K, H), hyperplane_chart(z), evaluate(K, L, z)
            Q, J, base = _newton_chart(K, L, z)
            indices = _classify(K, L, z)
            for i, zi in enumerate(z):
                Hi, hi = _supporting_plane(K, L, zi)
                assert rows_match(h[i], hi) and rows_match(H.offset[i], Hi.offset)
                assert rows_match(L.touch_point(z)[i], L.touch_point(zi))
                assert rows_match(L.touch_point_jacobian(z)[i], L.touch_point_jacobian(zi))
                if L.flat_points:
                    y = L.touch_point(zi)
                    assert rows_match(L.normal(L.touch_point(z))[i], L.normal(y))
                    assert rows_match(L.normal_jacobian(L.touch_point(z))[i], L.normal_jacobian(y))
                assert rows_match(caps[i], cap_volume(K, Hi))
                one = section(K, Hi)
                assert rows_match(sections.measure[i], one.measure) and rows_match(sections.centroid[i], one.centroid)
                one, dx, dt = section_partials(K, Hi, support=hi)
                assert rows_match(sec.centroid[i], one.centroid)
                assert rows_match(dc_dx[i], dx) and rows_match(dc_dt[i], dt)
                assert charts[i].tobytes() == hyperplane_chart(zi).tobytes()
                single = evaluate(K, L, zi)
                for field in ("f_value", "touch_point", "tangential_gradient", "residual"):
                    assert rows_match(getattr(ev, field)[i], getattr(single, field)), field
                Qi, Ji, bi = _newton_chart(K, L, zi)
                assert Q[i].tobytes() == Qi.tobytes() and rows_match(J[i], Ji) and rows_match(base[i], bi)
                assert indices[i] == _classify(K, L, zi[None])[0]
            # the same stack in Fortran order, as a transposed view gives, rounds the same
            zf = np.asfortranarray(z)
            Hf, _ = _supporting_plane(K, L, zf)
            sf, evf = section(K, Hf), evaluate(K, L, zf)
            assert rows_match(cap_volume(K, Hf), caps) and rows_match(hyperplane_chart(zf), charts)
            assert rows_match(sf.measure, sections.measure) and rows_match(sf.centroid, sections.centroid)
            for field in ("f_value", "touch_point", "tangential_gradient", "residual"):
                assert rows_match(getattr(evf, field), getattr(ev, field)), field
            assert rows_match(_newton_chart(K, L, zf)[1], J)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("outer", OUTER_KINDS)
    def test_stage_rows_match_single_starts(self, outer, dim):
        rng = np.random.default_rng([dim, 30 + OUTER_KINDS.index(outer)])
        K = outer_body(outer, dim, rng)
        for inner in ("ball", "ellipsoid", "lp1.5", "lp3"):
            L = fit_inside(K, inner_body(inner, dim, rng))
            z0 = rng.normal(size=(6, dim))
            z0 /= np.linalg.norm(z0, axis=1, keepdims=True)
            signs = np.array([1.0, -1.0, 0.0, 1.0, -1.0, 0.0])
            self.check_stages(K, L, z0, signs)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_fd_gradient_rows_match_single_calls(self, family, dim):
        # the perturbed directions of all rows go through one stack, whose rows are C order
        K, L = random_instance(family, dim, 7)
        z = np.random.default_rng(dim).normal(size=(40, dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        stacked = fd_tangential_gradient(K, L, z)
        for i, zi in enumerate(z):
            assert stacked[i].tobytes() == fd_tangential_gradient(K, L, zi).tobytes(), i

    def test_pairs_are_classified_in_one_call(self, monkeypatch):
        # the pair phase is one stacked call, and each pair holds its direction's own bits
        shapes = []

        def recording(K, L, z):
            shapes.append(z.shape)
            return _classify(K, L, z)

        monkeypatch.setattr(solver_module, "_classify", recording)
        K, L = random_instance("ellipsoid_in_polytope", 3, 106)
        report = solve(K, L, SolverConfig(starts=96, seed=106))
        assert shapes == [(len(report.pairs), 3)]
        for p in report.pairs:
            ev = evaluate(K, L, p.direction)
            assert p.f_value == ev.f_value and [p.morse_index] == _classify(K, L, p.direction[None])
            assert p.centroid.tobytes() == ev.section.centroid.tobytes()
            assert p.touch_point.tobytes() == ev.touch_point.tobytes()

    @pytest.mark.parametrize("make", BENCHMARK_SETTINGS.values(), ids=BENCHMARK_SETTINGS.keys())
    def test_polish_only_starts_take_no_cap_volume(self, monkeypatch, make):
        """A sign-0 start gets the residual ``evaluate`` gives at its unit direction, bit for bit, and no objective."""
        K, L = make()
        z0 = 3.0 * _start_directions(K.dim, 12, 0)  # off the sphere, so the stage must normalize them
        signs = np.array([1.0, -1.0, 0.0])[np.arange(len(z0)) % 3]
        capped = []

        def recording(K, H, *, support=None):
            capped.append(len(np.atleast_1d(H.offset)))
            return cap_volume(K, H, support=support)

        monkeypatch.setattr(functional_module, "cap_volume", recording)
        traces = [[] for _ in z0]
        z, r, _, refused = _gradient_stage(K, L, z0, signs, trace=traces)
        assert capped[0] == np.count_nonzero(signs)  # the first evaluate holds the moving starts only
        ev = evaluate(K, L, z0)
        still = signs == 0.0
        assert not refused.any()
        assert (ev.section.centroid - ev.touch_point)[still].tobytes() == r[still].tobytes()
        assert z[still].tobytes() == z0[still].tobytes()
        assert all(not traces[i] for i in np.flatnonzero(still))
        assert all(traces[i][0] == ev.f_value[i] for i in np.flatnonzero(~still))

    def test_needle_rows_are_refused_alone(self, needle_in_cube):
        # the diagonal and the starts whose own section is degenerate are refused
        # in the stack exactly as alone; the other rows go on
        K, L, d = needle_in_cube
        starts = _start_directions(4, 32, 0)[12:27]  # holds the four refused starts, 16, 17, 18 and 25
        z0 = np.vstack([d, starts, -d])
        signs = np.array([1.0, -1.0, 0.0])[np.arange(len(z0)) % 3]
        refused = self.check_stages(K, L, z0, signs)
        assert np.flatnonzero(refused).tolist() == [0, 5, 6, 7, 14, 16]

    def check_stages(self, K, L, z0, signs):
        """Stacked stages against one-row calls: iterates, residuals, step counts and refusals."""
        z, r, steps, refused = _gradient_stage(K, L, z0, signs)
        residuals = _residual_vector(K, L, z0)
        for i, zi in enumerate(z0):
            try:
                _residual_vector(K, L, zi)
                alone = False
            except DegenerateSectionError:
                alone = True
            assert np.isnan(residuals[i]).all() == alone == refused[i]
            z1, r1, steps1, refused1 = _gradient_stage(K, L, zi[None], signs[i])
            assert refused1[0] == refused[i] and steps1[0] == steps[i]
            if not refused[i]:
                assert rows_match(z[i], z1[0]) and rows_match(r[i], r1[0])
        kept = ~refused
        zp, res, polish_steps = _polish(K, L, z[kept], r[kept])
        for i, (zi, ri) in enumerate(zip(z[kept], r[kept])):
            zp1, res1, steps1 = _polish(K, L, zi[None], ri[None])
            assert steps1[0] == polish_steps[i] and rows_match(zp[i], zp1[0])
            assert rows_match(res[i], res1[0])
        return refused


class TestLockstepDriver:
    """``_lockstep`` under scripted rules: which rows begin a step, which try one, and when a row stops."""

    def test_scripted_rows(self):
        # row 0 is not live; row 1 accepts every trial and stops at max_steps; row 2 fails,
        # accepts, then fails max_trials in a row; row 3 stops when ``more`` fails after one
        # step; row 4 fails ``more`` at the outset
        outcomes = {1: iter([True] * 5), 2: iter([False, True, False, False]), 3: iter([True])}
        limit = {1: 99, 2: 99, 3: 1, 4: 0}  # ``more`` holds below this many accepted steps
        accepted = dict.fromkeys(range(5), 0)
        begun, tried = [], []

        def more(rows):
            return np.array([accepted[i] < limit[i] for i in rows], dtype=bool)

        def begin(rows):
            if rows.size:
                begun.append(rows.tolist())

        def attempt(rows):
            tried.append(rows.tolist())
            ok = np.array([next(outcomes[i]) for i in rows], dtype=bool)
            for i in rows[ok]:
                accepted[i] += 1
            return ok

        live = np.array([False, True, True, True, True])
        steps = _lockstep(live, more, begin, attempt, max_trials=2, max_steps=3)
        assert begun == [[1, 2, 3], [1], [1, 2]]
        assert tried == [[1, 2, 3], [1, 2], [1, 2], [2]]
        assert steps.tolist() == [accepted[i] for i in range(5)] == [0, 3, 1, 1, 0]
        assert live.tolist() == [False, True, True, True, True]  # the caller's mask is not changed

    def test_no_live_rows(self):
        def never(rows):
            raise AssertionError("no row is live")

        def anything(rows):
            return np.ones(len(rows), dtype=bool)

        steps = _lockstep(np.zeros(3, dtype=bool), anything, anything, never, 2, 3)
        assert steps.tolist() == [0, 0, 0]


def lstsq_rows(J, b):
    """``np.linalg.lstsq`` with its default cutoff, one row of the stack at a time."""
    return np.array([np.linalg.lstsq(Ji, bi, rcond=None)[0] for Ji, bi in zip(J, b)])


class TestLstsq:
    """``_lstsq``, the polish's step, against ``np.linalg.lstsq`` row by row."""

    @staticmethod
    def solve_quietly(J, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning fails the test
            x = _lstsq(J, b)
            for i in range(len(J)):  # each row's answer is the one it gets alone
                assert np.array_equal(x[i], _lstsq(J[i : i + 1].copy(), b[i : i + 1].copy())[0])
        return x

    @pytest.mark.parametrize("m", [1, 7, 100])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_full_rank_stacks(self, dim, m):
        rng = np.random.default_rng([dim, m])
        J, b = rng.normal(size=(m, dim, dim - 1)), rng.normal(size=(m, dim))
        x, expected = self.solve_quietly(J, b), lstsq_rows(J, b)
        assert (np.linalg.norm(x - expected, axis=1) <= 1e-12 * np.linalg.norm(expected, axis=1)).all()

    def test_needle_jacobians_keep_the_least_residual(self, needle_in_cube):
        # the gradient stage's ends near the needle give cond(J) up to about 1e8, where the
        # normal equations would lose every digit; the least residual |J x - b| still agrees
        K, L, _ = needle_in_cube
        z, signs = _start_directions(4, 32, 0), np.array([1.0, -1.0, 0.0])[np.arange(32) % 3]
        z, r, _, refused = _gradient_stage(K, L, z, signs)
        _, J, _ = _newton_chart(K, L, z[~refused])
        b = -r[~refused]
        assert np.linalg.cond(J).max() > 5e7
        x, expected = self.solve_quietly(J, b), lstsq_rows(J, b)
        least = np.linalg.norm(np.einsum("mij,mj->mi", J, expected) - b, axis=1)
        assert np.linalg.norm(np.einsum("mij,mj->mi", J, x) - b, axis=1) == pytest.approx(least, rel=1e-12)

    def test_rank_deficient_rows_take_the_minimum_norm_answer(self):
        rng = np.random.default_rng(7)
        J, b = rng.normal(size=(5, 4, 3)), rng.normal(size=(5, 4))
        J[0] *= 1e-30  # full rank: the cutoff is each row's own, not the stack's
        J[1, :, 1] = 0.0  # a zero column
        J[3, :, 2] = J[3, :, 0]  # two equal columns
        J[4] = 0.0
        x, expected = self.solve_quietly(J, b), lstsq_rows(J, b)
        assert x == pytest.approx(expected, rel=1e-12, abs=1e-14)
        assert x[1, 1] == 0.0 and x[3, 0] == pytest.approx(x[3, 2], rel=1e-12) and not x[4].any()


def make_pair(dim, i=0, morse_index=None):
    return CriticalPair(
        direction=np.eye(dim)[i % dim],
        f_value=float(i),
        residual=1e-9,
        centroid=np.zeros(dim),
        touch_point=np.zeros(dim),
        morse_index=morse_index,
    )


class TestCertify:
    def make_report(self, npairs, dim):
        return TheoremReport(dimension=dim, pairs=[make_pair(dim, i) for i in range(npairs)])

    def test_enough_pairs(self):
        report = self.make_report(3, 3)
        assert report.certified

    def test_too_few_pairs(self):
        report = self.make_report(2, 3)
        assert not report.certified

    def test_continuum_counts(self):
        # the continuum flag describes the pairs; only their count certifies
        report = self.make_report(2, 3)  # no Morse index: every pair unclassified
        assert report.degenerate_continuum
        assert not report.certified


class TestDerivedLabels:
    """Kinds, the continuum flag and the Euler sum are read off the Morse indices."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_kind_from_morse_index(self, dim):
        expected = {None: "unclassified", 0: "min", dim - 1: "max"}
        expected.update({k: "saddle" for k in range(1, dim - 1)})
        for index, kind in expected.items():
            assert make_pair(dim, morse_index=index).kind == kind

    def test_one_unclassified_pair_flags_the_report(self):
        report = TheoremReport(dimension=3, pairs=[make_pair(3, 0, morse_index=1), make_pair(3, 1)])
        assert report.degenerate_continuum
        assert report.continuum_justification.startswith("1/2 pairs have a flat eigenvalue")

    def test_empty_report_is_not_flagged(self):
        report = TheoremReport(dimension=3, pairs=[])
        assert not report.degenerate_continuum
        assert report.continuum_justification is None

    def test_euler_sum(self):
        complete = TheoremReport(3, [make_pair(3, i, morse_index=i) for i in range(3)])
        assert complete.euler_sum == 1  # chi(RP^2)
        assert not complete.degenerate_continuum
        incomplete = TheoremReport(3, [make_pair(3, 0, morse_index=0), make_pair(3, 1)])
        assert incomplete.euler_sum is None
        assert TheoremReport(3, []).euler_sum is None


class TestValidationUpfront:
    def test_rejects_bad_instance(self):
        with pytest.raises(RejectedInstanceError):
            solve(Ball(1.0, 2), cube(0.4, 2))
        with pytest.raises(RejectedInstanceError):
            solve(Ball(1.0, 2), Ball(2.0, 2))


class TestGridCensus:
    def test_dimension_guard(self):
        with pytest.raises(BodyError):
            grid_census(Ball(1.0, 4), Ball(0.5, 4))

    def test_ellipsoid_axes_2d(self):
        K = Ball(2.0, 2)
        L = Ellipsoid.from_semiaxes([1.0, 0.5])
        census = grid_census(K, L, resolution=2000)
        assert len(census) == 2
        for z, res in census:
            assert res <= 1e-7
            assert min(angle(z, np.array([1.0, 0.0])), angle(z, np.array([0.0, 1.0]))) < 1e-6

    def test_ellipsoid_axes_3d(self):
        K = Ball(2.0, 3)
        L = Ellipsoid.from_semiaxes([1.0, 0.7, 0.4])
        census = grid_census(K, L, resolution=700)
        assert len(census) == 3
        found = sorted(int(np.argmax(np.abs(z))) for z, _ in census)
        assert found == [0, 1, 2]

    def test_degenerate_mesh_vertex_3d(self):
        # a needle ellipsoid at the apex of a stretched octahedron, along the
        # icosphere vertex v: the section there is below the measure floor,
        # so the oracle must skip that vertex and polish the others
        phi = (1.0 + np.sqrt(5.0)) / 2.0
        v = np.array([0.0, 1.0, phi]) / np.sqrt(1.0 + phi**2)
        Q = np.column_stack([v, [1.0, 0.0, 0.0], np.cross(v, [1.0, 0.0, 0.0])])
        K = VPolytope.symmetric_hull(np.array([6.0 * v, Q[:, 1], Q[:, 2]]))
        L = Ellipsoid.from_semiaxes([6.0 - 6.3e-6, 2e-4, 2e-4], rotation=Q)
        with pytest.raises(DegenerateSectionError):
            evaluate(K, L, v)
        census = grid_census(K, L, resolution=100)
        assert census
        assert all(res <= 1e-7 for _, res in census)

    @staticmethod
    def hexagon():
        theta = np.pi / 3 * np.arange(6)
        return VPolytope(1.5 * np.column_stack([np.cos(theta), np.sin(theta)]))

    def test_polytope_outer_2d(self):
        # regular hexagon outer body: 6 critical pairs (vertices + edge normals)
        census = grid_census(self.hexagon(), Ball(0.5, 2), resolution=6000)
        assert len(census) == 6

    def test_brackets_are_bisected_together(self, monkeypatch):
        # the hexagon's grid has 5 sign-change brackets and one exact zero; one stacked call
        # evaluates the grid, one each bisection round for every open bracket, and one the ends
        calls, rounds = [], []
        touch_and_section, lockstep = solver_module._touch_and_section, solver_module._lockstep

        def counted(K, L, z):
            calls.append(len(z))
            return touch_and_section(K, L, z)

        def recorded(*args):
            steps = lockstep(*args)
            rounds.append(steps)
            return steps

        monkeypatch.setattr(solver_module, "_touch_and_section", counted)
        monkeypatch.setattr(solver_module, "_lockstep", recorded)
        assert len(grid_census(self.hexagon(), Ball(0.5, 2), resolution=6000)) == 6
        (steps,) = rounds
        assert len(steps) == 5
        assert len(calls) == steps.max() + 2 == 16
        assert calls[0] == 6000 and calls[-1] == 5

    def test_refused_grid_direction_raises(self, monkeypatch):
        # with the floor above the square's chords near its diagonals (1.83 at 45 degrees), the
        # stacked grid call names the first grid direction refused, as a call on it alone does
        K, L, width = cube(1.0, 2), Ball(0.5, 2), np.pi / 100
        monkeypatch.setattr(functional_module, "measure_floor", lambda K: 1.95)
        with pytest.raises(DegenerateSectionError) as info:
            grid_census(K, L, resolution=100)
        z = info.value.direction
        i = int(np.arctan2(z[1], z[0]) / width + 0.5)
        assert 0 < i < 25 and z.tobytes() == np.array([np.cos(i * width), np.sin(i * width)]).tobytes()
        with pytest.raises(DegenerateSectionError):
            evaluate(K, L, z)
        evaluate(K, L, np.array([np.cos((i - 1) * width), np.sin((i - 1) * width)]))

    @pytest.mark.parametrize("k", range(5))
    def test_icosphere_counts(self, k):
        verts, edges = _icosphere(k)
        assert verts.shape == (10 * 4**k + 2, 3) and edges.shape == (30 * 4**k, 2)
        assert np.linalg.norm(verts, axis=1) == pytest.approx(np.ones(len(verts)), abs=1e-15)
        # sorted, distinct index pairs, every vertex on some edge
        assert (edges[:, 0] < edges[:, 1]).all() and len(np.unique(edges, axis=0)) == len(edges)
        assert np.array_equal(np.unique(edges), np.arange(len(verts)))
