"""End-to-end acceptance checks for the whole package.

Each test prints an explicit PASS/FAIL line (visible even under pytest
capture) so a log of this module doubles as an acceptance report.
"""

import numpy as np
import pytest
import scipy.linalg

from capsec.bodies import Ball, Ellipsoid, VPolytope, cube
from capsec.cli import main
from capsec.families import fit_inside, random_ellipsoid, random_instance
from capsec.functional import evaluate, fd_tangential_gradient
from capsec.sections import Hyperplane, cap_volume, mc_section, section
from capsec.solver import SolverConfig, grid_census, solve


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def angle(a, b):
    return float(np.arccos(min(1.0, abs(float(np.dot(a, b))))))


def sine_angle(a, b):
    """|sin| of the angle between unit vectors, from their wedge product; exact near 0, unlike arccos."""
    return float(np.linalg.norm(np.outer(a, b) - np.outer(b, a)) / np.sqrt(2.0))


@pytest.fixture
def verdict(capsys, request):
    """Print a PASS/FAIL line for the running test, then assert."""

    def check(ok, detail):
        label = request.node.name
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'}: {label} -- {detail}")
        assert ok, detail

    return check


def random_outer(rng, dim, kind):
    if kind == "ball":
        return Ball(float(rng.uniform(1.0, 2.0)), dim)
    if kind == "ellipsoid":
        return Ellipsoid.from_semiaxes(rng.uniform(1.0, 2.0, size=dim))
    if kind == "cube":
        return cube(float(rng.uniform(1.0, 2.0)), dim)
    pts = rng.normal(size=(3 * dim, dim))
    pts = 1.5 * pts / np.linalg.norm(pts, axis=1, keepdims=True)
    return VPolytope.symmetric_hull(pts)


def random_inner(rng, dim, kind, K):
    from capsec.families import fit_inside

    if kind == "ball":
        return fit_inside(K, Ball(1.0, dim))
    return fit_inside(K, Ellipsoid.from_semiaxes(rng.uniform(0.5, 1.0, size=dim)))


def test_gradient_law(verdict):
    """Analytic tangential gradient vs central finite differences, 50 triples."""
    rng = np.random.default_rng(2024)
    outer_kinds = ["ball", "ellipsoid", "cube", "vpolytope"]
    inner_kinds = ["ball", "ellipsoid"]
    dims = [2, 3, 4]
    worst = 0.0
    for i in range(50):
        dim = dims[i % 3]
        K = random_outer(rng, dim, outer_kinds[i % 4])
        L = random_inner(rng, dim, inner_kinds[i % 2], K)
        z = unit(rng.normal(size=dim))
        ev = evaluate(K, L, z)
        g = ev.tangential_gradient
        fd = fd_tangential_gradient(K, L, z)
        # fully symmetric draws have an exactly-zero gradient, where a pure
        # ratio is ill-posed; floor the scale at a tiny fraction of the
        # natural gradient magnitude (section measure times diameter)
        floor = 1e-6 * ev.section.measure * K.diameter()
        scale = max(np.linalg.norm(g), np.linalg.norm(fd), floor)
        worst = max(worst, float(np.linalg.norm(g - fd)) / scale)
    verdict(worst <= 1e-4, f"max relative gradient error {worst:.3g} (threshold 1e-4)")


def test_offset_derivative_sign(verdict):
    """d/dt of the cap volume equals minus the section measure."""
    rng = np.random.default_rng(2025)
    h = 1e-5
    worst = 0.0
    for dim in (2, 3, 4):
        bodies = [
            Ball(1.2, dim),
            Ellipsoid.from_semiaxes(np.linspace(1.4, 0.7, dim)),
            cube(1.0, dim),
        ]
        for K in bodies:
            for _ in range(4):
                z = unit(rng.normal(size=dim))
                t = float(rng.uniform(0.1, 0.6)) * K.support(z)
                dv = (
                    cap_volume(K, Hyperplane(z, t + h))
                    - cap_volume(K, Hyperplane(z, t - h))
                ) / (2 * h)
                m = section(K, Hyperplane(z, t)).measure
                worst = max(worst, abs(dv + m) / m)
    verdict(worst <= 1e-4, f"max relative deviation of dV/dt from -measure: {worst:.3g}")


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_census_certifies(verdict, census_report, dim):
    """20 random instances per dimension all certify >= dim antipodal pairs."""
    failures = []
    for seed in range(20):
        K, L, report = census_report(dim, 100 + seed)
        if not (report.certified and len(report.pairs) >= dim):
            failures.append(f"seed {100 + seed}: {len(report.pairs)} pairs")
            continue
        for p in report.pairs:
            if p.residual > 1e-7:
                failures.append(f"seed {100 + seed}: residual {p.residual:.3g}")
            gauge_err = abs(L.gauge(p.centroid) - 1.0)
            if gauge_err > 1e-5:
                failures.append(f"seed {100 + seed}: |gauge - 1| = {gauge_err:.3g}")
    verdict(
        not failures,
        f"dimension {dim}: 20/20 instances certified"
        if not failures
        else f"dimension {dim}: {failures}",
    )


@pytest.mark.parametrize("dim", [2, 3])
def test_polytope_in_ellipsoid_hull_certifies(verdict, dim):
    """Ball in a random polytope, seeds 0-2: certified, on L's boundary, Euler sum chi(RP^{n-1})."""
    chi = 1 if dim % 2 else 0
    failures = []
    for seed in range(3):
        K, L = random_instance("polytope_in_ellipsoid_hull", dim, seed)
        report = solve(K, L, SolverConfig(seed=seed))
        if not report.certified:
            failures.append(f"seed {seed}: {len(report.pairs)} pairs")
        if report.euler_sum != chi:
            failures.append(f"seed {seed}: Euler sum {report.euler_sum}, chi = {chi}")
        for p in report.pairs:
            if p.residual > 1e-7:
                failures.append(f"seed {seed}: residual {p.residual:.3g}")
            gauge_err = abs(L.gauge(p.centroid) - 1.0)
            if gauge_err > 1e-5:
                failures.append(f"seed {seed}: |gauge - 1| = {gauge_err:.3g}")
    verdict(
        not failures,
        f"dimension {dim}: 3/3 instances certified with Euler sum {chi}"
        if not failures
        else f"dimension {dim}: {failures}",
    )


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_ellipsoid_in_ellipsoid_closed_form(verdict, dim):
    """Ellipsoid in ellipsoid, seeds 0-2: the pairs are the generalized eigenvectors.

    A linear map taking K to the ball makes f a decreasing function of one
    support function, so the critical lines solve P z = lambda R z with
    P = K.inverse_shape and R = L.inverse_shape, and the pair of the j-th
    smallest lambda has Morse index j.  Instances are drawn like the
    benchmark's analytic census: K semiaxes 0.6-1.2, L semiaxes 0.5-1.0.
    """
    failures = []
    worst = 0.0
    for seed in range(3):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        K = random_ellipsoid(rng, dim, (0.6, 1.2))
        L = fit_inside(K, random_ellipsoid(rng, dim, (0.5, 1.0)))
        report = solve(K, L, SolverConfig(seed=seed))
        if len(report.pairs) != dim:
            failures.append(f"seed {seed}: {len(report.pairs)} pairs, expected {dim}")
            continue
        _, vecs = scipy.linalg.eigh(K.inverse_shape, L.inverse_shape)  # ascending eigenvalues
        vecs = vecs / np.linalg.norm(vecs, axis=0)
        ranks = []
        for p in report.pairs:
            sines = [sine_angle(p.direction, v) for v in vecs.T]
            rank = int(np.argmin(sines))
            worst = max(worst, sines[rank])
            ranks.append(rank)
            if sines[rank] > 1e-6:
                failures.append(f"seed {seed}: pair {p.direction} is {sines[rank]:.3g} rad off")
            if p.morse_index != rank:
                failures.append(f"seed {seed}: eigenvalue rank {rank}, Morse index {p.morse_index}")
        if sorted(ranks) != list(range(dim)):
            failures.append(f"seed {seed}: pairs match eigenvectors {sorted(ranks)}")
    verdict(
        not failures,
        f"dimension {dim}: 3/3 instances match the eigenvectors to {worst:.3g} rad, indices by rank"
        if not failures
        else f"dimension {dim}: {failures}",
    )


def test_solver_matches_exhaustive_grid(verdict):
    """n = 2: multi-start solver finds exactly the grid-census critical pairs."""
    mismatches = []
    for seed in range(200, 220):
        K, L = random_instance("ellipsoid_in_polytope", 2, seed)
        report = solve(K, L, SolverConfig(starts=256, seed=seed))
        census = grid_census(K, L, resolution=10_000)
        if len(report.pairs) != len(census):
            mismatches.append(f"seed {seed}: {len(report.pairs)} vs {len(census)}")
            continue
        for p in report.pairs:
            if min(angle(p.direction, z) for z, _ in census) > 1e-3:
                mismatches.append(f"seed {seed}: unmatched direction {p.direction}")
    verdict(
        not mismatches,
        "20/20 instances match the grid oracle 1-to-1" if not mismatches else str(mismatches),
    )


def test_fixture_ellipsoid_in_ball(verdict):
    """Axis-aligned ellipsoid in a ball: the three axis pairs, exactly."""
    semiaxes = np.array([1.0, 0.7, 0.4])
    report = solve(Ball(2.0, 3), Ellipsoid.from_semiaxes(semiaxes), SolverConfig(starts=96, seed=0))
    worst = np.inf
    if len(report.pairs) == 3:
        worst = 0.0
        for p in report.pairs:
            i = int(np.argmax(np.abs(p.direction)))
            e = np.zeros(3)
            e[i] = 1.0
            target = semiaxes[i] * e
            worst = max(
                worst,
                float(np.linalg.norm(np.abs(p.centroid) - target)),
                float(np.linalg.norm(np.abs(p.touch_point) - target)),
                angle(p.direction, e),
            )
    verdict(
        len(report.pairs) == 3 and worst <= 1e-8,
        f"{len(report.pairs)} pairs, max deviation from semiaxis_i * e_i: {worst:.3g}",
    )


def test_fixture_cube_with_inscribed_ball(verdict):
    """Cube with L = 0.5-ball: centroids sit at 0.5 * direction."""
    report = solve(cube(1.0, 3), Ball(0.5, 3), SolverConfig(starts=96, seed=0))
    worst = max(
        (float(np.linalg.norm(p.centroid - 0.5 * p.direction)) for p in report.pairs),
        default=np.inf,
    )
    verdict(
        len(report.pairs) >= 3 and worst <= 1e-6,
        f"{len(report.pairs)} pairs, max |centroid - 0.5 z| = {worst:.3g}",
    )


def test_fixture_ball_in_ball_continuum(verdict):
    """Concentric balls: every direction is critical; flagged as a continuum."""
    report = solve(Ball(1.0, 3), Ball(0.4, 3), SolverConfig(starts=48, seed=0))
    fs = [p.f_value for p in report.pairs]
    spread = max(fs) - min(fs) if fs else None
    ok = (
        report.degenerate_continuum
        and report.certified
        and spread is not None
        and spread <= 1e-10 * Ball(1.0, 3).volume()
    )
    verdict(ok, f"continuum flagged, objective spread {spread}")


def test_sections_against_monte_carlo(verdict):
    """Closed-form / exact sections vs the thin-slab Monte Carlo oracle."""
    rng = np.random.default_rng(2026)
    worst_sigma, worst_comp = 0.0, 0.0
    for kind in ("ball", "ellipsoid", "cube", "vpolytope"):
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            K = random_outer(rng, dim, kind)
            z = unit(rng.normal(size=dim))
            t = float(rng.uniform(0.1, 0.5)) * K.support(z)
            H = Hyperplane(z, t)
            exact = section(K, H)
            est = mc_section(K, H, samples=200_000, seed=int(rng.integers(2**31)))
            # measure agreement in MC standard errors
            worst_sigma = max(worst_sigma, abs(exact.measure - est.measure) / est.stderr)
            # centroid agreement with a conservative 3-sigma bound per run
            p_hat = est.measure / est.stderr  # = sqrt(n p / (1-p)) ~ sqrt(hits)
            centroid_tol = 3.0 * K.diameter() / max(p_hat, 1.0)
            gap = float(np.linalg.norm(exact.centroid - est.centroid))
            if gap > centroid_tol:
                worst_sigma = max(worst_sigma, 3.0 * gap / centroid_tol)
            # cap complement identity
            v1 = cap_volume(K, H)
            v2 = cap_volume(K, Hyperplane(-z, -t))
            worst_comp = max(worst_comp, abs(v1 + v2 - K.volume()) / K.volume())
    ok = worst_sigma <= 3.0 and worst_comp <= 1e-9
    verdict(
        ok,
        f"worst measure/centroid deviation {worst_sigma:.2f} sigma (limit 3), "
        f"worst complement identity error {worst_comp:.3g} (limit 1e-9)",
    )


def test_solve_command_is_deterministic(verdict, tmp_path):
    """Running the solve command twice yields byte-identical JSON."""
    spec = tmp_path / "instance.spec"
    spec.write_text(
        "dimension = 2\n"
        "seed = 17\n"
        "K.kind = vpolytope\n"
        "K.vertices = 1.3 0.2 ; 0.4 1.1 ; -0.9 0.8 ; -1.3 -0.2 ; -0.4 -1.1 ; 0.9 -0.8\n"
        "L.kind = ellipsoid\n"
        "L.semiaxes = 0.45 0.3\n"
        "solver.starts = 64\n"
    )
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    code_a = main(["solve", "--spec", str(spec), "--out-dir", str(a_dir)])
    code_b = main(["solve", "--spec", str(spec), "--out-dir", str(b_dir)])
    same = (a_dir / "report.json").read_bytes() == (b_dir / "report.json").read_bytes()
    verdict(
        code_a == code_b == 0 and same,
        "two runs produced byte-identical report.json" if same else "reports differ",
    )
