import itertools

import numpy as np
import pytest

from capsec.bodies import Ball, BodyError, Ellipsoid, VPolytope, cube
from capsec.families import random_instance
from capsec.functional import DegenerateSectionError, RejectedInstanceError, evaluate
from capsec.solver import (
    CriticalPair,
    SolverConfig,
    TheoremReport,
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


class TestMorseIndex:
    """Pair kinds come from the index of the residual Jacobian.  These census
    draws have saddles whose Hessian diagonal in the tangent chart has one
    sign, so axis probes alone would call them minima or maxima."""

    @pytest.mark.parametrize("seed", [101, 112, 118])
    def test_census_pairs_satisfy_euler_characteristic(self, census_report, seed):
        _, _, report = census_report(3, seed)
        kinds = [p.kind for p in report.pairs]
        assert {"min", "saddle", "max"} <= set(kinds)
        # index 0 and 2 count +1, index 1 counts -1: chi(RP^2) = 1
        assert kinds.count("min") - kinds.count("saddle") + kinds.count("max") == 1

    def test_index_sum_in_four_dimensions(self, census_report):
        # index 1 and 2 are both saddles here, so the sum needs the index itself
        _, _, report = census_report(4, 100)
        indices = [p.morse_index for p in report.pairs]
        assert None not in indices
        assert sum((-1) ** k for k in indices) == 0  # chi(RP^3)


class TestDedup:
    def test_close_min_and_max_stay_apart(self, census_report):
        # a min and a max 0.0063 rad apart; on RP^1 minima and maxima alternate
        _, _, report = census_report(2, 106)
        kinds = sorted(p.kind for p in report.pairs)
        assert kinds == ["max", "max", "min", "min"]


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
        assert len(report.pairs) == 4
        assert report.certified


class TestDegenerateGeometry:
    def test_needle_in_cube_solves(self, needle_in_cube):
        # starts and polish steps near the needle's tip meet sections below
        # the measure floor; the solver must reject them and still certify
        K, L, _ = needle_in_cube
        report = solve(K, L, SolverConfig(starts=32, seed=0))
        assert report.diagnostics["degenerate_rejections"] > 0
        assert report.certified
        for p in report.pairs:
            assert p.residual <= 1e-7
            assert abs(L.gauge(p.centroid) - 1.0) <= 1e-5


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


class TestMonotonicity:
    def test_descent_trace_decreases(self):
        from capsec.solver import _gradient_stage

        K = cube(1.0, 2)
        L = Ellipsoid.from_semiaxes([0.7, 0.3])
        stats = {"iterations": 0, "degenerate_rejections": 0}
        rng = np.random.default_rng(20)
        for _ in range(5):
            z0 = rng.normal(size=2)
            z0 /= np.linalg.norm(z0)
            trace = []
            _gradient_stage(K, L, z0, +1.0, stats, trace=trace)
            assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))
            trace = []
            _gradient_stage(K, L, z0, -1.0, stats, trace=trace)
            assert all(b >= a - 1e-15 for a, b in zip(trace, trace[1:]))


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
        A = Q @ np.diag(1.0 / np.array([6.0 - 6.3e-6, 2e-4, 2e-4]) ** 2) @ Q.T
        L = Ellipsoid(0.5 * (A + A.T))  # from_semiaxes refuses this rotation's rounding as asymmetric
        with pytest.raises(DegenerateSectionError):
            evaluate(K, L, v)
        census = grid_census(K, L, resolution=100)
        assert census
        assert all(res <= 1e-7 for _, res in census)

    def test_polytope_outer_2d(self):
        # regular hexagon outer body: 6 critical pairs (vertices + edge normals)
        theta = np.pi / 3 * np.arange(6)
        K = VPolytope(1.5 * np.column_stack([np.cos(theta), np.sin(theta)]))
        census = grid_census(K, Ball(0.5, 2), resolution=6000)
        assert len(census) == 6
