import numpy as np
import pytest

from capsec.bodies import Ball, Ellipsoid, LpBall, VPolytope, cube
from capsec.functional import (
    DegenerateSectionError,
    RejectedInstanceError,
    default_margin,
    evaluate,
    fd_tangential_gradient,
    validate_instance,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def pairs_3d():
    rng = np.random.default_rng(100)
    shell = rng.normal(size=(9, 3))
    shell /= np.linalg.norm(shell, axis=1, keepdims=True)
    poly = VPolytope.symmetric_hull(1.8 * shell)
    return [
        (cube(1.0, 3), Ball(0.5, 3)),
        (cube(1.0, 3), Ellipsoid.from_semiaxes([0.8, 0.5, 0.3])),
        (Ball(2.0, 3), LpBall(3.0, 0.9, 3)),
        (poly, Ball(0.4 * poly.inradius_lower_bound(), 3)),
    ]


class TestValidation:
    def test_accepts_valid_pair(self):
        validate_instance(cube(1.0, 3), Ball(0.5, 3))

    def test_rejects_polytope_inner(self):
        with pytest.raises(RejectedInstanceError):
            validate_instance(Ball(2.0, 2), cube(0.5, 2))

    def test_rejects_non_contained(self):
        with pytest.raises(RejectedInstanceError):
            validate_instance(Ball(1.0, 2), Ball(1.5, 2))

    def test_rejects_margin_violation(self):
        # the margin is default_margin(K) = 1e-6 for the unit disk
        validate_instance(Ball(1.0, 2), Ball(1.0 - 1e-5, 2))
        with pytest.raises(RejectedInstanceError):
            validate_instance(Ball(1.0, 2), Ball(1.0 - 1e-7, 2))

    def test_rejects_lpball_outer(self):
        with pytest.raises(RejectedInstanceError, match="mc_section"):
            validate_instance(LpBall(3.0, 1.5, 2), Ball(0.5, 2))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(RejectedInstanceError):
            validate_instance(Ball(1.0, 3), Ball(0.5, 2))

    def test_directional_margin_in_evaluate(self):
        # L pokes within margin of the boundary of K along e1 only
        K = cube(1.0, 2)
        L = Ellipsoid.from_semiaxes([1.0 - 1e-9, 0.5])
        with pytest.raises(RejectedInstanceError):
            evaluate(K, L, np.array([1.0, 0.0]))
        evaluate(K, L, np.array([0.0, 1.0]))


class TestEvaluate:
    def test_ball_in_ball_value(self):
        # cap of the unit 3-ball above t = 0.5: pi (1-t)^2 (2+t) / 3
        ev = evaluate(Ball(1.0, 3), Ball(0.5, 3), np.array([0.0, 0.0, 1.0]))
        assert ev.f_value == pytest.approx(np.pi * 0.25 * 2.5 / 3, rel=1e-12)
        assert ev.residual == pytest.approx(0.0, abs=1e-12)
        assert ev.touch_point == pytest.approx(np.array([0.0, 0.0, 0.5]))

    def test_gradient_orthogonal_to_direction(self):
        rng = np.random.default_rng(12)
        for K, L in pairs_3d():
            for _ in range(5):
                z = unit(rng.normal(size=3))
                ev = evaluate(K, L, z)
                assert ev.tangential_gradient @ z == pytest.approx(0.0, abs=1e-12)

    def test_gradient_formula_components(self):
        rng = np.random.default_rng(13)
        for K, L in pairs_3d():
            z = unit(rng.normal(size=3))
            ev = evaluate(K, L, z)
            diff = ev.section.centroid - ev.touch_point
            diff = diff - (diff @ z) * z
            assert ev.tangential_gradient == pytest.approx(ev.section.measure * diff)
            assert ev.residual == pytest.approx(np.linalg.norm(diff))

    def test_residual_is_full_centroid_gap(self):
        # centroid and touch point both lie on the cutting hyperplane, so the
        # tangential projection does not shrink their difference
        rng = np.random.default_rng(14)
        for K, L in pairs_3d():
            z = unit(rng.normal(size=3))
            ev = evaluate(K, L, z)
            gap = np.linalg.norm(ev.section.centroid - ev.touch_point)
            assert ev.residual == pytest.approx(gap, rel=1e-9, abs=1e-13)

    def test_evenness(self):
        rng = np.random.default_rng(15)
        for K, L in pairs_3d():
            for _ in range(5):
                z = unit(rng.normal(size=3))
                a = evaluate(K, L, z)
                b = evaluate(K, L, -z)
                assert a.f_value == pytest.approx(b.f_value, rel=1e-9)
                assert a.residual == pytest.approx(b.residual, rel=1e-6, abs=1e-12)

    def test_scale_equivariance(self):
        lam = 2.5
        K, L = cube(1.0, 3), Ellipsoid.from_semiaxes([0.8, 0.5, 0.3])
        K2 = cube(lam, 3)
        L2 = Ellipsoid.from_semiaxes(lam * np.array([0.8, 0.5, 0.3]))
        z = unit([1.0, -2.0, 0.5])
        a = evaluate(K, L, z)
        b = evaluate(K2, L2, z)
        assert b.f_value == pytest.approx(lam**3 * a.f_value, rel=1e-9)
        assert b.residual == pytest.approx(lam * a.residual, rel=1e-9)

    def test_degenerate_section_error(self, needle_in_cube):
        # the instance validates, but the section at the needle's tip is a
        # sliver below the measure floor
        K, L, d = needle_in_cube
        validate_instance(K, L)
        with pytest.raises(DegenerateSectionError):
            evaluate(K, L, d)

    def test_zero_direction_rejected(self):
        from capsec.bodies import BodyError

        with pytest.raises(BodyError):
            evaluate(cube(1.0, 2), Ball(0.5, 2), np.zeros(2))

    @pytest.mark.parametrize(
        "z, same", [([1e200, 0.0], [1.0, 0.0]), ([1e-200, 0.0], [1.0, 0.0]), ([3e300, 4e300], [0.6, 0.8])]
    )
    def test_direction_at_either_end_of_the_float_range(self, z, same):
        # each row is scaled by a power of two before squaring: nothing overflows or underflows
        K, L = cube(1.0, 2), Ball(0.5, 2)
        expected, single = evaluate(K, L, np.array(same)), evaluate(K, L, np.array(z))
        stack = evaluate(K, L, np.array([z, same]))
        for field in ("direction", "f_value", "touch_point", "tangential_gradient", "residual"):
            want = np.asarray(getattr(expected, field)).tobytes()
            assert np.asarray(getattr(single, field)).tobytes() == want, field
            assert all(np.asarray(row).tobytes() == want for row in getattr(stack, field)), field

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_direction_rejected(self, bad):
        from capsec.bodies import BodyError

        for z in (np.array([bad, 0.0]), np.array([[0.0, 1.0], [bad, 0.0]])):
            with pytest.raises(BodyError, match="finite"):
                evaluate(cube(1.0, 2), Ball(0.5, 2), z)


class TestGradientAgreement:
    def test_analytic_matches_finite_difference(self):
        rng = np.random.default_rng(16)
        for K, L in pairs_3d():
            for _ in range(4):
                z = unit(rng.normal(size=3))
                g = evaluate(K, L, z).tangential_gradient
                fd = fd_tangential_gradient(K, L, z)
                scale = max(np.linalg.norm(g), np.linalg.norm(fd), 1e-12)
                assert np.linalg.norm(g - fd) / scale < 1e-4


class TestMargins:
    def test_default_margin_scales_with_body(self):
        assert default_margin(Ball(1.0, 3)) == pytest.approx(1e-6)
        assert default_margin(Ball(10.0, 3)) == pytest.approx(1e-5)
