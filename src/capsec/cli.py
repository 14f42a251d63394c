"""Command-line front end: gradient checks, solves, censuses and fixtures.

Exit codes: 0 success / certified, 2 check failed or uncertified, 1 usage or
spec parse errors.
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


@contextmanager
def _csv_rows(path, fieldnames):
    """A DictWriter, header written, on the file at ``path`` or on stdout for '-'."""
    out = open(path, "w", newline="") if path != "-" else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        yield writer
    finally:
        if out is not sys.stdout:
            out.close()


def _solver_overrides(args):
    overrides = {}
    if getattr(args, "starts", None) is not None:
        overrides["solver.starts"] = args.starts
    if getattr(args, "residual_tol", None) is not None:
        overrides["solver.residual_tol"] = args.residual_tol
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return overrides


def cmd_check_gradient(args):
    if args.directions < 1:
        return _fail("directions must be at least 1")
    try:
        spec = load_instance_spec(args.spec)
        validate_instance(spec.K, spec.L)
    except (SpecError, RejectedInstanceError) as exc:
        return _fail(str(exc))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(spec.solver.seed)))
    rows = []
    worst = 0.0
    for i in range(args.directions):
        z = rng.normal(size=spec.dimension)
        z /= np.linalg.norm(z)
        analytic = evaluate(spec.K, spec.L, z).tangential_gradient
        fd = fd_tangential_gradient(spec.K, spec.L, z, step=args.step)
        err = float(np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(analytic)))
        worst = max(worst, err)
        rows.append(
            {
                "index": i,
                "direction": " ".join(f"{x:.12g}" for x in z),
                "analytic_grad": " ".join(f"{x:.12g}" for x in analytic),
                "fd_grad": " ".join(f"{x:.12g}" for x in fd),
                "rel_error": f"{err:.6g}",
            }
        )
    with _csv_rows(args.out, list(rows[0])) as writer:
        writer.writerows(rows)
    print(f"checked {args.directions} directions, max relative error {worst:.3g}")
    return 0 if worst <= args.threshold else 2


def cmd_solve(args):
    try:
        spec = load_instance_spec(args.spec, _solver_overrides(args))
        report = solve(spec.K, spec.L, spec.solver)  # solve validates the instance
    except (SpecError, RejectedInstanceError) as exc:
        return _fail(str(exc))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "report.json"
    json_path.write_bytes(dump_report(spec.K, spec.L, report, spec.solver.seed))
    print(f"wrote {json_path}")
    if spec.dimension == 2 and not args.no_svg:
        svg_path = out_dir / "solution.svg"
        render_instance(spec.K, spec.L, report, svg_path)
        print(f"wrote {svg_path}")
    status = "certified" if report.certified else "NOT certified"
    print(
        f"{len(report.pairs)} pairs found in dimension {spec.dimension}: {status}"
        + (" (degenerate continuum)" if report.degenerate_continuum else "")
    )
    return 0 if report.certified else 2


def cmd_census(args):
    if args.family not in FAMILIES:
        return _fail(f"unknown family {args.family}")
    if args.dimension < 2:
        return _fail("dimension must be >= 2")
    if args.instances < 1:
        return _fail("instances must be at least 1")
    options = {"starts": args.starts, "residual_tol": args.residual_tol}
    try:
        config = SolverConfig(**{k: v for k, v in options.items() if v is not None})
        config.resolved_starts(args.dimension)
    except BodyError as exc:
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
    with _csv_rows(args.out, fieldnames) as writer:
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
    n = args.dimension
    if n < 2:
        return _fail("dimension must be >= 2")
    violations = []

    # fixed-distance sections: K a cube, L a ball of radius t < inradius(K)
    K1 = cube(FIXTURE_CUBE_HALFWIDTH, n)
    if not (0.0 < args.offset < K1.inradius_lower_bound()):
        return _fail(
            f"offset {args.offset} must lie in (0, inradius {K1.inradius_lower_bound():g}) of K"
        )
    report1 = solve(K1, Ball(args.offset, n), SolverConfig(seed=args.seed))
    if not report1.certified:
        violations.append(f"fixed-distance fixture: only {len(report1.pairs)} pairs, need {n}")
    for p in report1.pairs:
        dev = float(np.linalg.norm(p.centroid - args.offset * p.direction))
        if dev > FIXTURE_TOL:
            violations.append(
                f"fixed-distance fixture: centroid deviates from t*direction by {dev:.3g}"
            )
    print(
        f"fixed-distance fixture (cube, ball t={args.offset}): {len(report1.pairs)} pairs, "
        f"max |centroid - t z| = "
        f"{max((float(np.linalg.norm(p.centroid - args.offset * p.direction)) for p in report1.pairs), default=0.0):.3g}"
    )

    # orthogonal tangency: K a ball, L a strictly convex body
    semiaxes = np.linspace(0.6, 0.4, n)
    report2 = solve(Ball(FIXTURE_BALL_RADIUS, n), Ellipsoid.from_semiaxes(semiaxes), SolverConfig(seed=args.seed))
    if not report2.certified:
        violations.append(f"orthogonal-tangency fixture: only {len(report2.pairs)} pairs, need {n}")
    worst = 0.0
    for p in report2.pairs:
        tangential = p.touch_point - (p.touch_point @ p.direction) * p.direction
        worst = max(worst, float(np.linalg.norm(tangential)))
        if np.linalg.norm(tangential) > FIXTURE_TOL:
            violations.append(
                f"orthogonal-tangency fixture: touch point not parallel to direction "
                f"(deviation {np.linalg.norm(tangential):.3g})"
            )
    print(
        f"orthogonal-tangency fixture (ball, ellipsoid {semiaxes}): "
        f"{len(report2.pairs)} pairs, max tangential deviation {worst:.3g}"
    )

    for v in violations:
        print(f"violation: {v}", file=sys.stderr)
    return 0 if not violations else 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="capsec",
        description="Critical supporting hyperplanes whose section centroid touches the inner body.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-gradient", help="compare analytic and finite-difference gradients")
    p.add_argument("--spec", required=True, help="instance spec file")
    p.add_argument("--directions", type=int, default=20)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--threshold", type=float, default=1e-3)
    p.add_argument("--out", default="-", help="CSV output path ('-' for stdout)")
    p.set_defaults(func=cmd_check_gradient)

    p = sub.add_parser("solve", help="find critical pairs and certify the count")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--no-svg", action="store_true")
    p.add_argument("--starts", type=int)
    p.add_argument("--residual-tol", type=float, dest="residual_tol")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("census", help="random-family theorem census")
    p.add_argument("--family", default="ellipsoid_in_polytope", choices=FAMILIES)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--dimension", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int)
    p.add_argument("--residual-tol", type=float, dest="residual_tol")
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
