"""Multi-start search for antipodal pairs of critical directions.

Runs projected-gradient descent/ascent on the sphere with Armijo
backtracking, whose retries are chosen by quadratic interpolation; polishes
each candidate, from the gradient stage's last evaluation, with a damped
Gauss-Newton iteration on the centroid-minus-touch-point residual;
deduplicates antipodal clusters; and certifies the distinct-pair count
against the dimension lower bound.  The residual's Jacobian J, in the
polish's chart Q, is exact: it is composed from the section's centroid
partials and the Hessian of L's support function, or, where L has flat
points, the derivative of L's normal map.  A pair's Morse index is the
number of eigenvalues of Q^T J with negative real part, in whichever chart
the polish used; by Sylvester's law of inertia both charts give the inertia
of the Hessian of f.

A report stores only what the search measured; a pair's kind, the report's
continuum flag and its Euler sum are read off the pairs' Morse indices.  The
objective and the containment margin are ``functional``'s alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bodies import BodyError, sphere_net
from .functional import (
    DegenerateSectionError,
    RejectedInstanceError,
    _require_measure,
    _supporting_plane,
    _touch_and_section,
    evaluate,
    validate_instance,
)
from .reporting import _round
from .sections import cap_volume  # unused; perfbench/selftest.py reads this name
from .sections import hyperplane_chart, section_partials

__all__ = [
    "SolverConfig",
    "CriticalPair",
    "TheoremReport",
    "solve",
    "grid_census",
]

RESIDUAL_TOL = 1e-7  # |centroid - touch point| at or below this makes a start converged
DEDUP_ANGLE = 1e-3  # projective angle (rad) within which converged directions are one pair
GRADIENT_MAX_ITERS = 500
STEP_INIT = 0.1
POLISH_TRIGGER = 1e-3  # residual below which the gradient stage hands over
FLAT_EIGENVALUE = 1e-6  # eigenvalues of Q^T J this close to 0, times diam(K) in the sphere chart, are flat
POLISH_MAX_ITERS = 30
CANONICAL_TOL = 1e-9  # coordinates at most this small do not fix a pair's sign


@dataclass
class SolverConfig:
    starts: int | None = None  # default 64 * n, resolved at solve time
    seed: int = 0

    @property
    def residual_tol(self):
        # read-only; perfbench/workloads.py reads SolverConfig().residual_tol
        return RESIDUAL_TOL

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
    morse_index: int | None = None  # eigenvalues of Q^T J with negative real part; None when unclassified
    basin_count: int = 1

    @property
    def kind(self):
        """``min``, ``saddle`` or ``max`` by Morse index on RP^{n-1}; ``unclassified`` without one."""
        if self.morse_index is None:
            return "unclassified"
        if self.morse_index == 0:
            return "min"
        if self.morse_index == len(self.direction) - 1:
            return "max"
        return "saddle"


@dataclass
class TheoremReport:
    dimension: int
    pairs: list[CriticalPair]
    diagnostics: dict = field(default_factory=dict)

    @property
    def certified(self):
        """At least ``dimension`` distinct pairs; ``degenerate_continuum`` only describes them."""
        return len(self.pairs) >= self.dimension

    @property
    def degenerate_continuum(self):
        """Some pair is unclassified: a flat Hessian eigenvalue or a degenerate section."""
        return any(p.morse_index is None for p in self.pairs)

    @property
    def continuum_justification(self):
        flat = sum(p.morse_index is None for p in self.pairs)
        if not flat:
            return None
        return f"{flat}/{len(self.pairs)} pairs have a flat eigenvalue of Q^T J or a degenerate section"

    @property
    def euler_sum(self):
        """Morse alternating sum, chi(RP^{n-1}) when every pair was found; None if any index is missing."""
        indices = [p.morse_index for p in self.pairs]
        if not indices or None in indices:
            return None
        return sum((-1) ** k for k in indices)


def _canonical(z):
    """Representative of {z, -z} whose first non-negligible coordinate is positive."""
    for zi in z:
        if abs(zi) > CANONICAL_TOL:
            return -z if zi < 0 else z
    return z


def _projective_angle(a, b):
    return float(np.arccos(min(1.0, abs(float(a @ b)))))


def _dedup(candidates):
    """Merge (direction, residual) candidates into distinct pairs.

    Greedy in residual order: a candidate joins the first kept direction within
    ``DEDUP_ANGLE`` of it.  Returns ``[direction, residual, count]`` per pair.
    """
    clusters = []
    for idx in np.argsort([r for _, r in candidates], kind="stable"):
        z, res = candidates[idx]
        for c in clusters:
            if _projective_angle(z, c[0]) <= DEDUP_ANGLE:
                c[2] += 1
                break
        else:
            clusters.append([z, res, 1])
    return clusters


def _start_directions(dim, count, seed):
    """Half low-discrepancy net, half seeded random directions."""
    m_ld = (count + 1) // 2
    net = sphere_net(dim, max(m_ld, 8))[:m_ld]
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    g = rng.normal(size=(count - m_ld, dim))
    rnd = g / np.linalg.norm(g, axis=1, keepdims=True)
    return np.vstack([net, rnd])


def _residual_vector(K, L, z):
    _, _, touch, sec = _touch_and_section(K, L, z)
    return sec.centroid - touch


def _gradient_stage(K, L, z, sign, trace=None):
    """Projected gradient, normalization retraction, Armijo backtracking with quadratic-interpolation retries.

    ``sign`` is +1 for descent on f and -1 for ascent (descent on -f).  Along
    the step phi(s) = sign f((z + s d)/|z + s d|), phi'(0) = -|g|.  A trial s
    that fails the Armijo test is retried at the minimiser of the quadratic
    through phi(0), phi'(0) and phi(s), kept in [0.1 s, 0.5 s]; a failed test
    gives the quadratic positive curvature, so the minimiser exists.  A
    degenerate trial section halves s; a degenerate section at z itself
    raises ``DegenerateSectionError``.  Returns the last iterate, its residual
    vector centroid - touch point, which starts the polish, and the number of
    accepted steps.
    ``trace``, if given, records the objective value at each accepted iterate.
    """
    step = STEP_INIT
    steps = 0
    ev = evaluate(K, L, z)
    if trace is not None:
        trace.append(ev.f_value)
    for _ in range(GRADIENT_MAX_ITERS):
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
                ev_new = evaluate(K, L, z_new)
            except DegenerateSectionError:
                s *= 0.5
                continue
            phi = sign * ev_new.f_value
            if phi <= phi0 - 1e-4 * s * gn:
                accepted = True
                break
            s = min(max(gn * s * s / (2.0 * (phi - phi0 + gn * s)), 0.1 * s), 0.5 * s)
        if not accepted:
            break
        z, ev = z_new, ev_new
        step = min(2.0 * s, STEP_INIT)
        steps += 1
        if trace is not None:
            trace.append(ev.f_value)
    return ev.direction, ev.section.centroid - ev.touch_point, steps


def _centroid_derivative(K, L, z):
    """Tangent chart Q at z, the touch point p, and dc/dx + dc/dt p^T at t = h_L(z).

    The last is the derivative of the section centroid along L's supporting
    planes, from the section's centroid partials.  Refuses z as ``evaluate`` does.
    """
    plane, h = _supporting_plane(K, L, z)
    sec, dc_dx, dc_dt = section_partials(K, plane, support=h)
    _require_measure(K, z, sec)
    p = L.touch_point(z)
    return hyperplane_chart(z), p, dc_dx + np.outer(dc_dt, p)


def _newton_chart(K, L, z):
    """Chart Q, the residual's Jacobian J in it, and the map from a chart step to the next z.

    The step moves z on the sphere, and J = (dc/dx + dc/dt p^T - D^2 h_L(z)) Q.
    D^2 h_L is unbounded at the normals of L's flat points (``L.flat_points``),
    so where L has them the step moves the touch point y on L's boundary
    instead, with z = ``L.normal(y)``: there the residual c(normal(y)) - y has
    the Jacobian (dc/dx + dc/dt y^T) N Q - Q, N = ``L.normal_jacobian(y)``,
    bounded where D^2 h_L is not.  In either chart Q^T J carries the Morse
    index (``_classify``).
    """
    Q, y, dc = _centroid_derivative(K, L, z)
    if not L.flat_points:
        return Q, (dc - L.touch_point_jacobian(z)) @ Q, lambda step: (z + step) / np.linalg.norm(z + step)
    return Q, dc @ L.normal_jacobian(y) @ Q - Q, lambda step: L.normal(y + step)


def _polish(K, L, z, r):
    """Damped Gauss-Newton on the centroid-minus-touch residual in a tangent chart.

    ``r`` is the residual vector at z.  Returns the last z, its residual norm
    and the number of accepted steps.
    """
    rn = np.linalg.norm(r)
    steps = 0
    for _ in range(POLISH_MAX_ITERS):
        if rn <= 0.25 * RESIDUAL_TOL:
            break
        Q, J, move = _newton_chart(K, L, z)
        delta, *_ = np.linalg.lstsq(J, -r, rcond=None)
        improved = False
        damping = 1.0
        for _ in range(12):
            z_new = move(damping * (Q @ delta))
            try:
                r_new = _residual_vector(K, L, z_new)
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
        steps += 1
    return z, rn, steps


def _classify(K, L, z):
    """Morse index: the eigenvalues of Q^T J with negative real part, (Q, J) from ``_newton_chart``.

    At a critical direction in the sphere chart, Q^T J is the chart Hessian of
    f over the measure.  In the boundary chart it is A T - I = (A - T^{-1}) T, with A = Q^T (dc/dx +
    dc/dt y^T) Q and T = Q^T N Q >= 0 the inverse of D^2 h_L on the chart.
    It is similar to T^{1/2} (A - T^{-1}) T^{1/2}, so its eigenvalues are
    real and, by Sylvester's law of inertia, their signs are the Hessian's; a
    flat direction (t = 0, where D^2 h_L is infinite) gives -1.  None if an
    eigenvalue is within ``FLAT_EIGENVALUE`` of 0 (times diam(K) in the sphere
    chart; Q^T J has no units in the boundary chart) or a section degenerates.
    """
    try:
        Q, J, _ = _newton_chart(K, L, z)
    except (DegenerateSectionError, RejectedInstanceError):
        return None
    eig = np.linalg.eigvals(Q.T @ J).real
    if np.any(np.abs(eig) <= FLAT_EIGENVALUE * (1.0 if L.flat_points else K.diameter())):
        return None
    return int(np.count_nonzero(eig < 0))


def solve(K, L, config=None):
    """Locate antipodal critical pairs of the cap-volume objective for (K, L).

    Deterministic for fixed inputs and seed.  Never fabricates: if no start
    reaches the residual tolerance, the report is empty and not certified.
    """
    cfg = config or SolverConfig()
    validate_instance(K, L)
    n = K.dim
    count = cfg.resolved_starts(n)
    starts = _start_directions(n, count, cfg.seed)
    stats = {"iterations": 0, "degenerate_rejections": 0}

    # starts cycle through descent, ascent and polish only; a start whose own
    # section is degenerate is refused, once, and not polished
    candidates = []
    for i, z in enumerate(starts):
        try:
            if i % 3 == 0:
                z, r, steps = _gradient_stage(K, L, z, +1.0)
            elif i % 3 == 1:
                z, r, steps = _gradient_stage(K, L, z, -1.0)
            else:
                r, steps = _residual_vector(K, L, z), 0
        except DegenerateSectionError:
            stats["degenerate_rejections"] += 1
            continue
        z, res, polish_steps = _polish(K, L, z, r)
        stats["iterations"] += steps + polish_steps
        if res <= RESIDUAL_TOL:
            candidates.append((_canonical(z), res))

    clusters = _dedup(candidates)
    pairs = []
    for z, res, basin in clusters:
        ev = evaluate(K, L, z)
        pairs.append(
            CriticalPair(
                direction=z,
                f_value=float(ev.f_value),
                residual=float(res),
                centroid=ev.section.centroid,
                touch_point=ev.touch_point,
                morse_index=_classify(K, L, z),
                basin_count=basin,
            )
        )
    # rounded keys, so pairs that tie in f by symmetry are not ordered by last-bit noise
    pairs.sort(key=lambda p: (_round(p.f_value), tuple(np.round(p.direction, 9))))

    stats.update(starts=count, converged=len(candidates), dedup_merges=len(candidates) - len(clusters))
    return TheoremReport(dimension=n, pairs=pairs, diagnostics=stats)


# --- exhaustive low-dimensional oracle --------------------------------------


def grid_census(K, L, resolution=10_000):
    """Exhaustive critical-pair search on a dense grid (n = 2 or 3).

    n=2: signed tangential gradient on a uniform half-circle grid, sign-change
    bracketing plus bisection.  n=3: icosahedral-refinement mesh on the
    hemisphere, residual local minima polished to tolerance.
    Returns the distinct (canonical direction, residual), merged within
    ``DEDUP_ANGLE`` as in ``solve``, in direction order.
    """
    validate_instance(K, L)
    if K.dim == 2:
        results = _grid_census_2d(K, L, resolution)
    elif K.dim == 3:
        results = _grid_census_3d(K, L, resolution)
    else:
        raise BodyError("grid_census supports n in {2, 3} only")
    return sorted(((z, res) for z, res, _ in _dedup(results)), key=lambda zr: tuple(zr[0]))


def _signed_gradient_2d(K, L, theta):
    z = np.array([np.cos(theta), np.sin(theta)])
    w = np.array([-z[1], z[0]])
    r = _residual_vector(K, L, z)
    return float(r @ w), float(np.linalg.norm(r)), z


def _grid_census_2d(K, L, resolution):
    thetas = np.arange(resolution) * (np.pi / resolution)
    svals = np.empty(resolution)
    for i, th in enumerate(thetas):
        svals[i] = _signed_gradient_2d(K, L, th)[0]
    results = []
    for i in range(resolution):
        a, b = thetas[i], thetas[i] + np.pi / resolution
        sa, sb = svals[i], svals[(i + 1) % resolution]  # periodic with period pi
        if sa == 0.0:
            _, res, z = _signed_gradient_2d(K, L, a)
            results.append((_canonical(z), res))
            continue
        if sa * sb >= 0.0:
            continue
        for _ in range(80):
            mid = 0.5 * (a + b)
            sm, res, z = _signed_gradient_2d(K, L, mid)
            if res <= 0.25 * RESIDUAL_TOL or b - a < 1e-15:
                break
            if sa * sm <= 0.0:
                b, sb = mid, sm
            else:
                a, sa = mid, sm
        _, res, z = _signed_gradient_2d(K, L, 0.5 * (a + b))
        if res <= RESIDUAL_TOL:
            results.append((_canonical(z), res))
    return results


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


def _grid_census_3d(K, L, resolution):
    subdivisions = 1
    while 12 * 4**subdivisions < resolution and subdivisions < 6:
        subdivisions += 1
    verts, edges = _icosphere(subdivisions)
    vectors = [None] * len(verts)  # residual vector per vertex; None where the section is degenerate
    residuals = np.full(len(verts), np.inf)
    for i, z in enumerate(verts):
        try:
            vectors[i] = _residual_vector(K, L, z)
        except DegenerateSectionError:
            continue
        residuals[i] = np.linalg.norm(vectors[i])
    neighbors = [[] for _ in verts]
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    results = []
    for i, z in enumerate(verts):
        if vectors[i] is None or any(residuals[j] < residuals[i] for j in neighbors[i]):
            continue  # degenerate, or not a local minimum of the residual
        zp, res, _ = _polish(K, L, z, vectors[i])
        if res <= RESIDUAL_TOL:
            results.append((_canonical(zp), res))
    return results
