"""Command-line front end: gradient checks, solves, censuses and fixtures.

Exit codes: 0 success / certified, 2 check failed or uncertified, 1 usage
errors (argparse's included), spec parse errors and unwritable outputs.
"""

from __future__ import annotations

import argparse
import csv
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bodies import Ball, BodyError, Ellipsoid, cube
from .families import FAMILIES, random_instance
from .functional import RejectedInstanceError, evaluate, fd_tangential_gradient, validate_instance
from .reporting import dump_report
from .solver import SolverConfig, solve
from .specfile import SpecError, load_instance_spec
from .svgfig import render_instance

__all__ = ["main"]

# fixture bodies: the cube [-1, 1]^n around a ball of radius --offset, and the
# unit ball around a fixed ellipsoid; pair geometry must hold to FIXTURE_TOL
FIXTURE_CUBE_HALFWIDTH = 1.0
FIXTURE_BALL_RADIUS = 1.0
FIXTURE_TOL = 1e-6


def _fail(message, code=1):
    print(f"error: {message}", file=sys.stderr)
    return code


def _open_out(path):
    """The file at ``path`` opened for writing, or stdout for '-'."""
    return sys.stdout if path == "-" else open(path, "w", newline="")


@contextmanager
def _csv_rows(out, fieldnames):
    """A DictWriter on ``out``, header written; closes ``out`` unless it is stdout."""
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        yield writer
    finally:
        if out is not sys.stdout:
            out.close()


def _solver_overrides(args):
    overrides = {"solver.starts": args.starts, "seed": args.seed}
    return {k: v for k, v in overrides.items() if v is not None}


def cmd_check_gradient(args):
    if args.directions < 1:
        return _fail("directions must be at least 1")
    try:
        spec = load_instance_spec(args.spec)
        validate_instance(spec.K, spec.L)
        out = _open_out(args.out)  # before any work, so an unwritable path costs nothing
    except (SpecError, RejectedInstanceError, BodyError, OSError) as exc:
        return _fail(str(exc))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(spec.solver.seed)))
    z = rng.normal(size=(args.directions, spec.dimension))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    # a refused row's analytic gradient is NaN, and so are its error and the worst
    analytic = evaluate(spec.K, spec.L, z).tangential_gradient
    fd = fd_tangential_gradient(spec.K, spec.L, z)
    err = np.linalg.norm(analytic - fd, axis=1) / np.maximum(1.0, np.linalg.norm(analytic, axis=1))
    with _csv_rows(out, ["index", "direction", "analytic_grad", "fd_grad", "rel_error"]) as writer:
        for i, (zi, a, d, e) in enumerate(zip(z, analytic, fd, err)):
            writer.writerow(
                {
                    "index": i,
                    "direction": " ".join(f"{x:.12g}" for x in zi),
                    "analytic_grad": " ".join(f"{x:.12g}" for x in a),
                    "fd_grad": " ".join(f"{x:.12g}" for x in d),
                    "rel_error": f"{e:.6g}",
                }
            )
    worst = err.max()
    print(f"checked {args.directions} directions, max relative error {worst:.3g}")
    return 0 if worst <= args.threshold else 2


def cmd_solve(args):
    out_dir = Path(args.out_dir)
    # a file in the way is refused before the solve
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        return _fail(f"cannot use --out-dir {out_dir}: {existing} is not a directory")
    try:
        spec = load_instance_spec(args.spec, _solver_overrides(args))
        report = solve(spec.K, spec.L, spec.solver)  # solve validates the instance
        out_dir.mkdir(parents=True, exist_ok=True)  # only now: a refused instance leaves none
        json_path = out_dir / "report.json"
        json_path.write_bytes(dump_report(spec.K, spec.L, report, spec.solver.seed))
        print(f"wrote {json_path}")
        if spec.dimension == 2 and not args.no_svg:
            svg_path = out_dir / "solution.svg"
            render_instance(spec.K, spec.L, report, svg_path)
            print(f"wrote {svg_path}")
    except (SpecError, RejectedInstanceError, BodyError, OSError) as exc:
        return _fail(str(exc))
    status = "certified" if report.certified else "NOT certified"
    print(
        f"{len(report.pairs)} pairs found in dimension {spec.dimension}: {status}"
        + (" (degenerate continuum)" if report.degenerate_continuum else "")
    )
    return 0 if report.certified else 2


def cmd_census(args):
    if args.dimension < 2:
        return _fail("dimension must be >= 2")
    if args.instances < 1:
        return _fail("instances must be at least 1")
    config = SolverConfig(starts=args.starts)
    try:
        config.resolved_starts(args.dimension)
        out = _open_out(args.out)  # before any solve, so an unwritable path costs nothing
    except (BodyError, OSError) as exc:
        return _fail(str(exc))
    fieldnames = [
        "index",
        "family",
        "dimension",
        "pair_count",
        "min_residual",
        "certified",
        "budget_exhausted",
        "degenerate_continuum",
        "euler_sum",
        "wall_time_s",
    ]
    seeds = np.random.SeedSequence(args.seed).generate_state(args.instances)
    all_certified = True
    pair_counts = []
    with _csv_rows(out, fieldnames) as writer:
        for i in range(args.instances):
            t0 = time.perf_counter()
            K, L = random_instance(args.family, args.dimension, int(seeds[i]))
            report = solve(K, L, replace(config, seed=int(seeds[i])))
            elapsed = time.perf_counter() - t0
            pair_counts.append(len(report.pairs))
            all_certified &= report.certified
            writer.writerow(
                {
                    "index": i,
                    "family": args.family,
                    "dimension": args.dimension,
                    "pair_count": len(report.pairs),
                    "min_residual": f"{min((p.residual for p in report.pairs), default=float('nan')):.3g}",
                    "certified": report.certified,
                    "budget_exhausted": not report.certified,
                    "degenerate_continuum": report.degenerate_continuum,
                    "euler_sum": "" if report.euler_sum is None else report.euler_sum,
                    "wall_time_s": f"{elapsed:.3f}",
                }
            )
    print(
        f"census: {args.instances} instances, min pairs {min(pair_counts)}, "
        f"median pairs {statistics.median(pair_counts)}"
    )
    return 0 if all_certified else 2


def cmd_fixtures(args):
    n, t = args.dimension, args.offset
    if n < 2:
        return _fail("dimension must be >= 2")
    K1 = cube(FIXTURE_CUBE_HALFWIDTH, n)
    if not (0.0 < t < K1.inradius_lower_bound()):
        return _fail(f"offset {t} must lie in (0, inradius {K1.inradius_lower_bound():g}) of K")
    semiaxes = np.linspace(0.6, 0.4, n)
    # name, setting, (K, L), a pair's deviation from the analytic answer, and the
    # wording of the summary's worst deviation and of a violation
    fixtures = [
        ("fixed-distance", f"cube, ball t={t}",
         (K1, Ball(t, n)),
         lambda p: p.centroid - t * p.direction,
         "max |centroid - t z| = {:.3g}", "centroid deviates from t*direction by {:.3g}"),
        ("orthogonal-tangency", f"ball, ellipsoid {semiaxes}",
         (Ball(FIXTURE_BALL_RADIUS, n), Ellipsoid.from_semiaxes(semiaxes)),
         lambda p: p.touch_point - (p.touch_point @ p.direction) * p.direction,
         "max tangential deviation {:.3g}", "touch point not parallel to direction (deviation {:.3g})"),
    ]
    violations = []
    try:
        for name, setting, (K, L), deviation, summary, violation in fixtures:
            report = solve(K, L, SolverConfig(seed=args.seed))
            if not report.certified:
                violations.append(f"{name} fixture: only {len(report.pairs)} pairs, need {n}")
            devs = [float(np.linalg.norm(deviation(p))) for p in report.pairs]
            violations += [f"{name} fixture: " + violation.format(d) for d in devs if d > FIXTURE_TOL]
            worst = summary.format(max(devs, default=0.0))
            print(f"{name} fixture ({setting}): {len(report.pairs)} pairs, {worst}")
    except RejectedInstanceError as exc:  # inside the containment margin
        return _fail(str(exc))

    for v in violations:
        print(f"violation: {v}", file=sys.stderr)
    return 0 if not violations else 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1, since exit code 2 means a check failed."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="capsec",
        description="Critical supporting hyperplanes whose section centroid touches the inner body.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-gradient", help="compare analytic and finite-difference gradients")
    p.add_argument("--spec", required=True, help="instance spec file")
    p.add_argument("--directions", type=int, default=20)
    p.add_argument("--threshold", type=float, default=1e-3)
    p.add_argument("--out", default="-", help="CSV output path ('-' for stdout)")
    p.set_defaults(func=cmd_check_gradient)

    p = sub.add_parser("solve", help="find critical pairs and certify the count")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--no-svg", action="store_true")
    p.add_argument("--starts", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("census", help="random-family theorem census")
    p.add_argument("--family", default="ellipsoid_in_polytope", choices=FAMILIES)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--dimension", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int)
    p.add_argument("--out", default="-", help="CSV output path ('-' for stdout)")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("fixtures", help="analytic fixture checks (ball specializations)")
    p.add_argument("--dimension", type=int, default=3)
    p.add_argument("--offset", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
