"""Multi-start search for antipodal pairs of critical directions.

Runs projected-gradient descent/ascent with Armijo backtracking on the sphere,
polishes candidates with a damped Gauss-Newton iteration on the
centroid-minus-touch-point residual, deduplicates antipodal clusters, and
certifies the distinct-pair count against the dimension lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bodies import BodyError, sphere_net
from .functional import (
    DegenerateSectionError,
    RejectedInstanceError,
    _touch_and_section,
    default_margin,
    evaluate,
    validate_instance,
)
from .sections import Hyperplane, cap_volume, hyperplane_chart

__all__ = [
    "SolverConfig",
    "CriticalPair",
    "TheoremReport",
    "solve",
    "grid_census",
    "certify",
]

MODES = ("descent", "ascent", "both")
CONTINUUM_F_SPREAD = 1e-10
CONTINUUM_FRACTION = 0.9
POLISH_TRIGGER = 1e-3  # residual below which the gradient stage hands over
CLASSIFY_PROBE_RADIUS = 1e-3


@dataclass
class SolverConfig:
    starts: int | None = None  # default 64 * n, resolved at solve time
    max_iters: int = 500
    step_init: float = 0.1
    residual_tol: float = 1e-7
    dedup_angle: float = 1e-2
    seed: int = 0
    mode: str = "both"

    def __post_init__(self):
        if self.residual_tol <= 0:
            raise BodyError("residual_tol must be positive")
        if self.dedup_angle <= 0:
            raise BodyError("dedup_angle must be positive")
        if self.mode not in MODES:
            raise BodyError(f"mode must be one of {MODES}")

    def resolved_starts(self, dim):
        m = 64 * dim if self.starts is None else self.starts
        if m < dim:
            raise BodyError("starts must be at least the dimension")
        return m


@dataclass
class CriticalPair:
    """Antipodal pair of critical directions, stored via its canonical representative."""

    direction: np.ndarray
    f_value: float
    residual: float
    centroid: np.ndarray
    touch_point: np.ndarray
    kind: str = "unclassified"
    basin_count: int = 1


@dataclass
class TheoremReport:
    dimension: int
    pairs: list[CriticalPair]
    certified: bool
    budget_exhausted: bool
    degenerate_continuum: bool = False
    continuum_justification: str | None = None
    diagnostics: dict = field(default_factory=dict)


def _canonical(z, tol=1e-9):
    """Representative of {z, -z} whose first non-negligible coordinate is positive."""
    for zi in z:
        if abs(zi) > tol:
            return -z if zi < 0 else z
    return z


def _projective_angle(a, b):
    return float(np.arccos(min(1.0, abs(float(a @ b)))))


def _start_directions(dim, count, seed):
    """Half low-discrepancy net, half seeded random directions."""
    m_ld = (count + 1) // 2
    net = sphere_net(dim, max(m_ld, 8))[:m_ld]
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    g = rng.normal(size=(count - m_ld, dim))
    rnd = g / np.linalg.norm(g, axis=1, keepdims=True)
    return np.vstack([net, rnd])


def _residual_vector(K, L, z, margin):
    t, touch, sec = _touch_and_section(K, L, z, margin)
    return sec.centroid - touch


def _f_value(K, L, z, margin):
    t = L.support(z)
    return cap_volume(K, Hyperplane(z, t))


def _gradient_stage(K, L, z, sign, cfg, margin, stats, trace=None):
    """Projected gradient with normalization retraction and Armijo backtracking.

    ``sign`` is +1 for descent on f and -1 for ascent (descent on -f).
    ``trace``, if given, records the objective value at each accepted iterate.
    """
    step = cfg.step_init
    try:
        ev = evaluate(K, L, z, margin=margin)
    except DegenerateSectionError:
        stats["degenerate_rejections"] += 1
        return z
    if trace is not None:
        trace.append(ev.f_value)
    for _ in range(cfg.max_iters):
        if ev.residual < POLISH_TRIGGER:
            break
        g = sign * ev.tangential_gradient
        gn = np.linalg.norm(g)
        if gn == 0.0:
            break
        d = -g / gn
        phi0 = sign * ev.f_value
        accepted = False
        s = step
        for _ in range(25):
            z_new = z + s * d
            z_new /= np.linalg.norm(z_new)
            try:
                ev_new = evaluate(K, L, z_new, margin=margin)
            except DegenerateSectionError:
                s *= 0.5
                continue
            if sign * ev_new.f_value <= phi0 - 1e-4 * s * gn:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break
        z, ev = z_new, ev_new
        step = min(2.0 * s, cfg.step_init)
        stats["iterations"] += 1
        if trace is not None:
            trace.append(ev.f_value)
    return z


def _polish(K, L, z, tol, margin, stats, max_iters=30, fd_step=1e-6):
    """Damped Gauss-Newton on the centroid-minus-touch residual in a tangent chart."""
    try:
        r = _residual_vector(K, L, z, margin)
    except DegenerateSectionError:
        stats["degenerate_rejections"] += 1
        return z, np.inf
    rn = np.linalg.norm(r)
    for _ in range(max_iters):
        if rn <= 0.25 * tol:
            break
        Q = hyperplane_chart(z)
        k = Q.shape[1]
        J = np.empty((K.dim, k))
        try:
            for j in range(k):
                zp = z + fd_step * Q[:, j]
                zm = z - fd_step * Q[:, j]
                rp = _residual_vector(K, L, zp / np.linalg.norm(zp), margin)
                rm = _residual_vector(K, L, zm / np.linalg.norm(zm), margin)
                J[:, j] = (rp - rm) / (2.0 * fd_step)
        except DegenerateSectionError:
            stats["degenerate_rejections"] += 1
            return z, rn
        delta, *_ = np.linalg.lstsq(J, -r, rcond=None)
        improved = False
        damping = 1.0
        for _ in range(12):
            z_new = z + damping * (Q @ delta)
            z_new /= np.linalg.norm(z_new)
            try:
                r_new = _residual_vector(K, L, z_new, margin)
            except DegenerateSectionError:
                damping *= 0.5
                continue
            if np.linalg.norm(r_new) < rn:
                z, r, rn = z_new, r_new, float(np.linalg.norm(r_new))
                improved = True
                break
            damping *= 0.5
        if not improved:
            break
        stats["iterations"] += 1
    return z, rn


def _classify(K, L, z, f0, margin, vol_k):
    Q = hyperplane_chart(z)
    tol = 1e-12 * vol_k
    diffs = []
    for j in range(Q.shape[1]):
        for s in (+1.0, -1.0):
            zp = z + s * CLASSIFY_PROBE_RADIUS * Q[:, j]
            zp /= np.linalg.norm(zp)
            try:
                diffs.append(_f_value(K, L, zp, margin) - f0)
            except (DegenerateSectionError, RejectedInstanceError):
                return "unclassified"
    diffs = np.array(diffs)
    pos, neg = diffs > tol, diffs < -tol
    if pos.all():
        return "min"
    if neg.all():
        return "max"
    if pos.any() and neg.any():
        return "saddle"
    return "unclassified"


def solve(K, L, config=None):
    """Locate antipodal critical pairs of the cap-volume objective for (K, L).

    Deterministic for fixed inputs and seed.  Never fabricates: if no start
    reaches the residual tolerance, the report is empty with
    ``budget_exhausted=True``.
    """
    cfg = config or SolverConfig()
    validate_instance(K, L)
    n = K.dim
    margin = default_margin(K)
    vol_k = K.volume()
    count = cfg.resolved_starts(n)
    starts = _start_directions(n, count, cfg.seed)
    stats = {"iterations": 0, "degenerate_rejections": 0}

    if cfg.mode == "both":
        assignments = ["descent", "ascent", "polish"]
    else:
        assignments = [cfg.mode, "polish"]

    candidates = []
    for i, z0 in enumerate(starts):
        task = assignments[i % len(assignments)]
        z = z0
        if task == "descent":
            z = _gradient_stage(K, L, z, +1.0, cfg, margin, stats)
        elif task == "ascent":
            z = _gradient_stage(K, L, z, -1.0, cfg, margin, stats)
        z, res = _polish(K, L, z, cfg.residual_tol, margin, stats)
        if res <= cfg.residual_tol:
            candidates.append((_canonical(z), res))

    # objective values at all converged candidates (used for the continuum test)
    cand_f = np.array([_f_value(K, L, z, margin) for z, _ in candidates])

    degenerate_continuum = False
    justification = None
    if len(candidates) >= 2:
        spread_tol = CONTINUUM_F_SPREAD * vol_k
        fs = np.sort(cand_f)
        best_window = 0
        for i in range(len(fs)):
            j = int(np.searchsorted(fs, fs[i] + spread_tol, side="right"))
            best_window = max(best_window, j - i)
        if best_window >= CONTINUUM_FRACTION * len(fs):
            degenerate_continuum = True
            justification = (
                f"f constant within {CONTINUUM_F_SPREAD:g}*vol(K) across "
                f"{best_window}/{len(fs)} converged candidates"
            )

    # cluster candidates by projective geodesic distance
    clusters = []  # (direction, residual, f, count)
    merges = 0
    order = np.argsort([r for _, r in candidates], kind="stable")
    for idx in order:
        z, res = candidates[idx]
        fv = cand_f[idx]
        for c in clusters:
            if _projective_angle(z, c[0]) <= cfg.dedup_angle:
                c[3] += 1
                merges += 1
                break
        else:
            clusters.append([z, res, fv, 1])

    pairs = []
    for z, res, fv, basin in clusters:
        ev = evaluate(K, L, z, margin=margin, with_value=False)
        kind = _classify(K, L, z, fv, margin, vol_k)
        pairs.append(
            CriticalPair(
                direction=z,
                f_value=float(fv),
                residual=float(res),
                centroid=ev.section.centroid,
                touch_point=ev.touch_point,
                kind=kind,
                basin_count=basin,
            )
        )
    pairs.sort(key=lambda p: (p.f_value, tuple(p.direction)))

    certified = degenerate_continuum or len(pairs) >= n
    stats.update(
        starts=count,
        converged=len(candidates),
        dedup_merges=merges,
        f_spread=float(cand_f.max() - cand_f.min()) if len(cand_f) else None,
    )
    return TheoremReport(
        dimension=n,
        pairs=pairs,
        certified=certified,
        budget_exhausted=not certified,
        degenerate_continuum=degenerate_continuum,
        continuum_justification=justification,
        diagnostics=stats,
    )


def certify(report, dim):
    """True iff the report establishes at least ``dim`` distinct antipodal pairs.

    A flagged degenerate continuum counts as >= dim pairs (it contains
    infinitely many); otherwise the distinct pair count alone decides.
    """
    return report.degenerate_continuum or len(report.pairs) >= dim


# --- exhaustive low-dimensional oracle --------------------------------------


def grid_census(K, L, resolution=10_000, residual_tol=1e-7):
    """Exhaustive critical-pair search on a dense grid (n = 2 or 3).

    n=2: signed tangential gradient on a uniform half-circle grid, sign-change
    bracketing plus bisection.  n=3: icosahedral-refinement mesh on the
    hemisphere, residual local minima polished to tolerance.
    Returns a list of (canonical direction, residual).
    """
    validate_instance(K, L)
    if K.dim == 2:
        return _grid_census_2d(K, L, resolution, residual_tol)
    if K.dim == 3:
        return _grid_census_3d(K, L, resolution, residual_tol)
    raise BodyError("grid_census supports n in {2, 3} only")


def _signed_gradient_2d(K, L, theta, margin):
    z = np.array([np.cos(theta), np.sin(theta)])
    w = np.array([-z[1], z[0]])
    r = _residual_vector(K, L, z, margin)
    return float(r @ w), float(np.linalg.norm(r - (r @ z) * z)), z


def _grid_census_2d(K, L, resolution, residual_tol):
    margin = default_margin(K)
    thetas = np.arange(resolution) * (np.pi / resolution)
    svals = np.empty(resolution)
    for i, th in enumerate(thetas):
        svals[i] = _signed_gradient_2d(K, L, th, margin)[0]
    results = []
    for i in range(resolution):
        a, b = thetas[i], thetas[i] + np.pi / resolution
        sa, sb = svals[i], svals[(i + 1) % resolution]  # periodic with period pi
        if sa == 0.0:
            _, res, z = _signed_gradient_2d(K, L, a, margin)
            results.append((_canonical(z), res))
            continue
        if sa * sb >= 0.0:
            continue
        for _ in range(80):
            mid = 0.5 * (a + b)
            sm, res, z = _signed_gradient_2d(K, L, mid, margin)
            if res <= 0.25 * residual_tol or b - a < 1e-15:
                break
            if sa * sm <= 0.0:
                b, sb = mid, sm
            else:
                a, sa = mid, sm
        _, res, z = _signed_gradient_2d(K, L, 0.5 * (a + b), margin)
        if res <= residual_tol:
            results.append((_canonical(z), res))
    return _dedup_census(results)


def _icosphere(subdivisions):
    """Vertices and edges of a subdivided icosahedron on the unit sphere."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    base = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ]
    )
    verts = list(base / np.linalg.norm(base, axis=1, keepdims=True))
    for _ in range(subdivisions):
        midpoint_cache = {}
        new_faces = []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint_cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                midpoint_cache[key] = len(verts) - 1
            return midpoint_cache[key]

        for f in faces:
            a, b, c = f
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        faces = np.array(new_faces)
    edges = set()
    for f in faces:
        for i in range(3):
            a, b = f[i], f[(i + 1) % 3]
            edges.add((min(a, b), max(a, b)))
    return np.array(verts), sorted(edges)


def _grid_census_3d(K, L, resolution, residual_tol):
    margin = default_margin(K)
    subdivisions = 1
    while 12 * 4**subdivisions < resolution and subdivisions < 6:
        subdivisions += 1
    verts, edges = _icosphere(subdivisions)
    residuals = np.empty(len(verts))
    for i, z in enumerate(verts):
        try:
            r = _residual_vector(K, L, z, margin)
            residuals[i] = np.linalg.norm(r - (r @ z) * z)
        except DegenerateSectionError:
            residuals[i] = np.inf
    neighbors = [[] for _ in verts]
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    stats = {"iterations": 0, "degenerate_rejections": 0}
    results = []
    for i, z in enumerate(verts):
        if any(residuals[j] < residuals[i] for j in neighbors[i]):
            continue  # not a local minimum of the residual
        zp, res = _polish(K, L, z, residual_tol, margin, stats)
        if res <= residual_tol:
            results.append((_canonical(zp), res))
    return _dedup_census(results)


def _dedup_census(results, angle=1e-3):
    out = []
    for z, res in sorted(results, key=lambda zr: zr[1]):
        if all(_projective_angle(z, z2) > angle for z2, _ in out):
            out.append((z, res))
    out.sort(key=lambda zr: tuple(zr[0]))
    return out
