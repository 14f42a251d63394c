import numpy as np
import pytest

from capsec.bodies import Ball, Ellipsoid, HPolytope, LpBall, VPolytope
from capsec.specfile import SpecError, load_instance_spec, parse_instance_spec

BASIC = """
# square with an inscribed disk
dimension = 2
seed = 7
K.kind = cube
K.halfwidth = 1.0
L.kind = ball
L.radius = 0.5
solver.starts = 64
"""


class TestParsing:
    def test_basic(self):
        spec = parse_instance_spec(BASIC)
        assert spec.dimension == 2
        assert isinstance(spec.L, Ball)
        assert spec.L.radius == 0.5
        assert spec.solver.starts == 64
        assert spec.solver.seed == 7

    def test_ellipsoid_with_rotation(self):
        text = """
        dimension = 2
        K.kind = ball
        K.radius = 2.0
        L.kind = ellipsoid
        L.semiaxes = 1.0 0.5
        L.rotation = 0 -1 ; 1 0
        """
        spec = parse_instance_spec(text)
        assert isinstance(spec.L, Ellipsoid)
        # rotated by 90 degrees: long axis now along e2
        assert spec.L.support(np.array([0.0, 1.0])) == pytest.approx(1.0)
        assert spec.L.support(np.array([1.0, 0.0])) == pytest.approx(0.5)

    def test_polytopes(self):
        text = """
        dimension = 2
        K.kind = vpolytope
        K.vertices = 1 1 ; 1 -1 ; -1 1 ; -1 -1
        L.kind = ellipsoid
        L.semiaxes = 0.5 0.25
        """
        assert isinstance(parse_instance_spec(text).K, VPolytope)
        text = """
        dimension = 2
        K.kind = hpolytope
        K.normals = 1 0 ; -1 0 ; 0 1 ; 0 -1
        K.offsets = 1 1 1 1
        L.kind = lpball
        L.p = 3.0
        L.scale = 0.5
        """
        spec = parse_instance_spec(text)
        assert isinstance(spec.K, HPolytope)
        assert isinstance(spec.L, LpBall)
        assert spec.L.p == 3.0

    def test_overrides(self):
        spec = parse_instance_spec(BASIC, overrides={"solver.starts": 16, "L.radius": 0.25})
        assert spec.solver.starts == 16
        assert spec.L.radius == 0.25

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "inst.spec"
        path.write_text(BASIC)
        spec = load_instance_spec(path)
        assert spec.dimension == 2


class TestErrors:
    def error_message(self, text):
        with pytest.raises(SpecError) as exc_info:
            parse_instance_spec(text)
        return str(exc_info.value)

    def test_missing_equals_names_line(self):
        msg = self.error_message("dimension = 2\nK.kind ball\n")
        assert "line 2" in msg

    def test_duplicate_key_names_line(self):
        msg = self.error_message("dimension = 2\ndimension = 3\n")
        assert "line 2" in msg and "duplicate" in msg

    def test_missing_dimension(self):
        assert "dimension" in self.error_message("K.kind = ball\nK.radius = 1\nL.kind = ball\nL.radius = 0.5\n")

    def test_unknown_group(self):
        msg = self.error_message(BASIC + "\nM.kind = ball\n")
        assert "M" in msg

    def test_unknown_kind(self):
        msg = self.error_message(
            "dimension = 2\nK.kind = torus\nL.kind = ball\nL.radius = 0.5\n"
        )
        assert "K.kind" in msg

    def test_missing_required_field(self):
        msg = self.error_message(
            "dimension = 2\nK.kind = ball\nL.kind = ball\nL.radius = 0.5\n"
        )
        assert "K.radius" in msg

    def test_bad_matrix(self):
        msg = self.error_message(
            "dimension = 2\nK.kind = vpolytope\nK.vertices = 1 1 ; 1\nL.kind = ball\nL.radius = 0.1\n"
        )
        assert "K.vertices" in msg

    def test_wrong_semiaxes_count(self):
        msg = self.error_message(
            "dimension = 3\nK.kind = ball\nK.radius = 2\nL.kind = ellipsoid\nL.semiaxes = 1 0.5\n"
        )
        assert "L.semiaxes" in msg

    def test_unknown_solver_option(self):
        msg = self.error_message(BASIC + "\nsolver.warp = 9\n")
        assert "solver.warp" in msg

    def test_invalid_solver_value(self):
        msg = self.error_message(BASIC.replace("solver.starts = 64", "solver.starts = many"))
        assert "field solver.starts:" in msg

    # seed: the top-level seed draws the starts and is the one report.json records;
    # residual_tol: capsec.solver.RESIDUAL_TOL is the one standard for a converged start
    @pytest.mark.parametrize("key", ["max_iters", "step_init", "mode", "dedup_angle", "seed", "residual_tol"])
    def test_fixed_solver_settings_are_refused(self, key):
        msg = self.error_message(BASIC + f"\nsolver.{key} = 1\n")
        assert f"solver.{key}: unknown solver option" in msg

    @pytest.mark.parametrize(
        "radii", ["K.radius = 1.0\nL.radius = nan", "K.radius = inf\nL.radius = 0.5"], ids=["L-nan", "K-inf"]
    )
    def test_non_finite_radius_is_refused_by_the_spec(self, radii):
        # the body is refused as it is read, not later as a containment-margin violation
        msg = self.error_message(f"dimension = 2\nK.kind = ball\nL.kind = ball\n{radii}\n")
        assert "ball radius must be positive and finite" in msg

    def test_body_error_becomes_spec_error(self):
        # asymmetric vertex set
        self.error_message(
            "dimension = 2\nK.kind = vpolytope\nK.vertices = 1 0 ; 0 1 ; -1 0\nL.kind = ball\nL.radius = 0.1\n"
        )
