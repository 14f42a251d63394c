import csv
import json
import re

import jsonschema
import numpy as np
import pytest

from capsec import cli
from capsec.bodies import Ball, Ellipsoid
from capsec.cli import main
from capsec.functional import evaluate
from capsec.reporting import SCHEMA_VERSION, load_schema, report_to_dict
from capsec.solver import SolverConfig, solve

SQUARE_DISK = """
dimension = 2
seed = 3
K.kind = cube
K.halfwidth = 1.0
L.kind = ball
L.radius = 0.5
solver.starts = 48
"""

ELLIPSOID_3D = """
dimension = 3
seed = 5
K.kind = ball
K.radius = 2.0
L.kind = ellipsoid
L.semiaxes = 1.0 0.7 0.4
solver.starts = 96
"""


@pytest.fixture
def square_spec(tmp_path):
    path = tmp_path / "square.spec"
    path.write_text(SQUARE_DISK)
    return path


@pytest.fixture
def ellipsoid_spec(tmp_path):
    path = tmp_path / "ellipsoid.spec"
    path.write_text(ELLIPSOID_3D)
    return path


class TestCheckGradient:
    def test_passes_and_writes_csv(self, square_spec, tmp_path, capsys):
        out = tmp_path / "grad.csv"
        code = main(
            [
                "check-gradient",
                "--spec",
                str(square_spec),
                "--directions",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 8
        assert set(rows[0]) == {"index", "direction", "analytic_grad", "fd_grad", "rel_error"}
        assert all(float(r["rel_error"]) <= 1e-3 for r in rows)
        assert "max relative error" in capsys.readouterr().out

    def test_impossible_threshold_fails(self, ellipsoid_spec, tmp_path):
        code = main(
            [
                "check-gradient",
                "--spec",
                str(ellipsoid_spec),
                "--directions",
                "4",
                "--threshold",
                "0",
                "--out",
                str(tmp_path / "g.csv"),
            ]
        )
        assert code == 2

    def test_refused_direction_fails_the_check(self, square_spec, tmp_path, capsys, monkeypatch):
        # a refused section gives a NaN row; a worst error that dropped it would pass
        def refusing(K, L, z):
            ev = evaluate(K, L, z)
            ev.tangential_gradient[2] = np.nan
            return ev

        monkeypatch.setattr(cli, "evaluate", refusing)
        out = tmp_path / "grad.csv"
        assert main(["check-gradient", "--spec", str(square_spec), "--directions", "5", "--out", str(out)]) == 2
        rows = list(csv.DictReader(out.open()))
        assert [r["rel_error"] == "nan" for r in rows] == [False, False, True, False, False]
        assert "max relative error nan" in capsys.readouterr().out

    def test_bad_spec_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("dimension = 2\nK.kind ball\n")
        assert main(["check-gradient", "--spec", str(bad)]) == 1


class TestSolve:
    def test_report_and_svg(self, square_spec, tmp_path):
        out_dir = tmp_path / "out"
        code = main(["solve", "--spec", str(square_spec), "--out-dir", str(out_dir)])
        assert code == 0
        doc = json.loads((out_dir / "report.json").read_text())
        jsonschema.validate(doc, load_schema())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["certified"] is True
        assert len(doc["pairs"]) == 4
        svg = (out_dir / "solution.svg").read_text()
        assert len(re.findall(r'class="tangent"', svg)) == 2 * len(doc["pairs"])
        assert len(re.findall(r'class="centroid"', svg)) == len(doc["pairs"])

    def test_no_svg_flag(self, square_spec, tmp_path):
        out_dir = tmp_path / "out"
        code = main(["solve", "--spec", str(square_spec), "--out-dir", str(out_dir), "--no-svg"])
        assert code == 0
        assert not (out_dir / "solution.svg").exists()

    def test_no_svg_in_3d(self, ellipsoid_spec, tmp_path):
        out_dir = tmp_path / "out"
        code = main(["solve", "--spec", str(ellipsoid_spec), "--out-dir", str(out_dir)])
        assert code == 0
        assert not (out_dir / "solution.svg").exists()
        doc = json.loads((out_dir / "report.json").read_text())
        assert len(doc["pairs"]) == 3

    def test_deterministic_bytes(self, square_spec, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--spec", str(square_spec), "--out-dir", str(a_dir)]) == 0
        assert main(["solve", "--spec", str(square_spec), "--out-dir", str(b_dir)]) == 0
        assert (a_dir / "report.json").read_bytes() == (b_dir / "report.json").read_bytes()
        assert (a_dir / "solution.svg").read_bytes() == (b_dir / "solution.svg").read_bytes()

    def test_cli_overrides(self, square_spec, tmp_path):
        out_dir = tmp_path / "out"
        code = main(
            [
                "solve",
                "--spec",
                str(square_spec),
                "--out-dir",
                str(out_dir),
                "--starts",
                "32",
                "--seed",
                "11",
            ]
        )
        assert code == 0
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["diagnostics"]["starts"] == 32
        assert doc["instance"]["seed"] == 11

    def test_rejected_instance(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text(
            "dimension = 2\nK.kind = ball\nK.radius = 0.5\nL.kind = ball\nL.radius = 1.0\n"
        )
        assert main(["solve", "--spec", str(bad), "--out-dir", str(tmp_path / "o")]) == 1

    def test_lpball_outer_body_rejected(self, tmp_path, capsys):
        spec = tmp_path / "lp.spec"
        spec.write_text("dimension = 2\nK.kind = lpball\nK.p = 3\nL.kind = ball\nL.radius = 0.5\n")
        assert main(["solve", "--spec", str(spec), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "mc_section" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "K_fields, message",
        [
            ("K.kind = hpolytope\nK.normals = 1 0 ; -1 0\nK.offsets = 1 1\n", "unbounded"),
            ("K.kind = vpolytope\nK.vertices = 1 1 ; -1 -1 ; 2 2 ; -2 -2\n", "degenerate vertex set"),
        ],
        ids=["unbounded-hpolytope", "flat-vpolytope"],
    )
    def test_bad_polytope_rejected(self, K_fields, message, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("dimension = 2\n" + K_fields + "L.kind = ball\nL.radius = 0.5\n")
        assert main(["solve", "--spec", str(spec), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["solve", "check-gradient"])
    def test_dimension_past_the_direction_net(self, command, tmp_path, capsys):
        # the containment check's direction net stops at n = 32: n = 33 is refused before a net is built
        spec = tmp_path / "big.spec"
        spec.write_text("dimension = 33\nK.kind = ball\nK.radius = 1.0\nL.kind = ball\nL.radius = 0.5\n")
        out = tmp_path / "o"
        argv = [command, "--spec", str(spec), "--out-dir" if command == "solve" else "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "net dimension" in err and "Traceback" not in err
        assert not out.exists()


CUBE_3D = """
dimension = 3
K.kind = cube
K.halfwidth = 1.0
L.kind = ball
L.radius = 0.5
"""


class TestSolverOptionErrors:
    """Bad solver options stop before any solve, with one error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["census", "--dimension", "3", "--starts", "2"],
            ["solve", "--starts", "2"],
        ],
        ids=["census-few-starts", "solve-few-starts"],
    )
    def test_refused(self, argv, tmp_path, capsys):
        spec = tmp_path / "cube.spec"
        spec.write_text(CUBE_3D)
        out = tmp_path / "out"
        if argv[0] == "solve":
            argv = argv + ["--spec", str(spec), "--out-dir", str(out)]
        else:
            argv = argv + ["--instances", "1", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()


class TestCountErrors:
    """Counts that would make a vacuous pass or a traceback stop with one error line."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["census", "--instances", "-2"], "instances must be at least 1"),
            (["census", "--dimension", "1", "--instances", "1"], "dimension must be >= 2"),
            (["check-gradient", "--directions", "0"], "directions must be at least 1"),
            (["fixtures", "--dimension", "1"], "dimension must be >= 2"),
        ],
        ids=[
            "census-negative-instances",
            "census-dimension-1",
            "check-gradient-zero-directions",
            "fixtures-dimension-1",
        ],
    )
    def test_refused(self, argv, message, square_spec, tmp_path, capsys):
        out = tmp_path / "out.csv"
        if argv[0] == "check-gradient":
            argv = argv + ["--spec", str(square_spec)]
        if argv[0] != "fixtures":
            argv = argv + ["--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestPathErrors:
    """A path that cannot be opened stops before any work, with one error line."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the path was checked")

        monkeypatch.setattr(cli, "solve", refuse)
        monkeypatch.setattr(cli, "evaluate", refuse)

    @pytest.mark.parametrize("command", ["census", "check-gradient"])
    def test_out_in_missing_directory(self, command, square_spec, tmp_path, capsys, no_work):
        out = tmp_path / "missing" / "out.csv"
        argv = [command, "--out", str(out)]
        argv += ["--spec", str(square_spec)] if command == "check-gradient" else ["--instances", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "No such file or directory" in err and str(out) in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["names-file", "below-file"])
    def test_out_dir_is_a_file(self, below, square_spec, tmp_path, capsys, no_work):
        blocker = tmp_path / "taken"
        blocker.write_text("keep")
        out_dir = blocker / "out" if below else blocker
        assert main(["solve", "--spec", str(square_spec), "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{blocker} is not a directory" in err
        assert blocker.read_text() == "keep"

    def test_unwritable_report(self, square_spec, tmp_path, capsys):
        # the solve runs; writing report.json, here a directory, fails
        out_dir = tmp_path / "out"
        (out_dir / "report.json").mkdir(parents=True)
        assert main(["solve", "--spec", str(square_spec), "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "report.json" in err

    @pytest.mark.parametrize("command", ["solve", "check-gradient"])
    def test_missing_spec(self, command, tmp_path, capsys, no_work):
        spec = tmp_path / "missing.spec"
        assert main([command, "--spec", str(spec)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "No such file or directory" in err and str(spec) in err


class TestUsageErrors:
    """argparse errors exit 1 with argparse's message: exit 2 means a check failed."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["census", "--instances", "abc"], "argument --instances: invalid int value: 'abc'"),
            (["solve", "--spec", "x.spec", "--residual-tol", "1e-7"], "unrecognized arguments: --residual-tol 1e-7"),
            (["check-gradient", "--spec", "x.spec", "--step", "1e-5"], "unrecognized arguments: --step 1e-5"),
        ],
        ids=["census-bad-int", "solve-residual-tol", "check-gradient-step"],
    )
    def test_exit_code(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: capsec")
        assert f"error: {message}\n" in err

    def test_unknown_family(self, capsys):
        # argparse's choices refuse the family before the census runs
        with pytest.raises(SystemExit) as exc_info:
            main(["census", "--family", "bogus"])
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: capsec")
        assert "error: argument --family: invalid choice: 'bogus'" in err


class TestCensus:
    def test_small_census(self, tmp_path, capsys):
        out = tmp_path / "census.csv"
        code = main(
            [
                "census",
                "--family",
                "ellipsoid_in_polytope",
                "--instances",
                "3",
                "--dimension",
                "2",
                "--seed",
                "0",
                "--starts",
                "64",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3
        for row in rows:
            assert row["certified"] == "True"
            assert int(row["pair_count"]) >= 2
            assert float(row["min_residual"]) <= 1e-7
            assert row["euler_sum"] == "0"  # chi(RP^1)
        assert "min pairs" in capsys.readouterr().out

    def test_zero_instances(self, tmp_path, capsys):
        # solving nothing must not read as "all certified"
        out = tmp_path / "empty.csv"
        assert main(["census", "--instances", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: instances must be at least 1\n"
        assert not out.exists()

    def test_census_determinism(self, tmp_path):
        args = [
            "census",
            "--family",
            "lp_in_ball",
            "--instances",
            "2",
            "--dimension",
            "2",
            "--seed",
            "4",
            "--starts",
            "48",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        ra = [{k: v for k, v in r.items() if k != "wall_time_s"} for r in csv.DictReader(a.open())]
        rb = [{k: v for k, v in r.items() if k != "wall_time_s"} for r in csv.DictReader(b.open())]
        assert ra == rb


class TestFixtures:
    def test_default_fixtures_pass(self, capsys):
        assert main(["fixtures", "--dimension", "2"]) == 0
        out = capsys.readouterr().out
        assert "fixed-distance" in out
        assert "orthogonal-tangency" in out

    def test_offset_beyond_inradius(self, capsys):
        assert main(["fixtures", "--dimension", "2", "--offset", "1.5"]) == 1
        assert "inradius" in capsys.readouterr().err

    def test_offset_inside_the_containment_margin(self, capsys):
        # below the inradius, but the ball comes closer to the cube than the margin allows
        assert main(["fixtures", "--dimension", "2", "--offset", "0.9999995"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: containment margin violated: need L + margin <= K\n"


class TestReporting:
    def test_schema_rejects_extra_fields(self):
        K, L = Ball(2.0, 2), Ellipsoid.from_semiaxes([1.0, 0.5])
        report = solve(K, L, SolverConfig(starts=48, seed=0))
        doc = report_to_dict(K, L, report, seed=0)
        jsonschema.validate(doc, load_schema())
        doc["surprise"] = 1
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, load_schema())

    def test_all_body_kinds_serialize(self):
        from capsec.bodies import HPolytope, LpBall, VPolytope
        from capsec.reporting import body_to_dict

        eye = np.eye(2)
        bodies = [
            Ball(1.0, 2),
            Ellipsoid.from_semiaxes([1.0, 0.5]),
            LpBall(3.0, 1.0, 2),
            HPolytope(np.vstack([eye, -eye]), np.ones(4)),
            VPolytope([[1, 1], [1, -1], [-1, 1], [-1, -1]]),
        ]
        kinds = [body_to_dict(b)["kind"] for b in bodies]
        assert kinds == ["ball", "ellipsoid", "lpball", "hpolytope", "vpolytope"]

    def test_float_precision_stable(self):
        from capsec.reporting import _round

        assert _round(np.float64(1) / 3) == float(f"{1/3:.12g}")
        assert _round(-0.0) == 0.0 or _round(-0.0) == -0.0  # representable either way
