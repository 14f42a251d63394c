"""Multi-start search for antipodal pairs of critical directions.

Runs projected-gradient descent/ascent on the sphere with Armijo
backtracking, whose retries are chosen by quadratic interpolation; polishes
each candidate, from the gradient stage's last evaluation, with a damped
Gauss-Newton iteration on the centroid-minus-touch-point residual;
deduplicates antipodal clusters; and certifies the distinct-pair count
against the dimension lower bound.  Both stages advance every start in
lockstep: each round makes one array call over the trial directions of all
live starts, and masks carry each start's own line search, damping and
iteration caps, so a start takes the steps it would take alone.

The residual's Jacobian J, in the polish's chart Q, is exact: it is
composed from the section's centroid partials and the Hessian of L's
support function, or, where L has flat points, the derivative of L's normal
map.  A pair's Morse index is the number of eigenvalues of Q^T J with
negative real part, in whichever chart the polish used; by Sylvester's law
of inertia both charts give the inertia of the Hessian of f.

A report stores only what the search measured; a pair's kind, the report's
continuum flag and its Euler sum are read off the pairs' Morse indices.  The
objective and the containment margin are ``functional``'s alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bodies import BodyError, _dot, sphere_net
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


@dataclass(slots=True)  # a census or benchmark run keeps every report it makes
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


@dataclass(slots=True)
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
    """``count`` starts: about half from the low-discrepancy net, the rest seeded random directions.

    For n >= 3 the net drops its zero point, so it can give one row fewer
    than half; the random rows make up the count.
    """
    m_ld = (count + 1) // 2
    net = sphere_net(dim, max(m_ld, 8))[:m_ld]
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    g = rng.normal(size=(count - len(net), dim))
    rnd = g / np.linalg.norm(g, axis=1, keepdims=True)
    return np.vstack([net, rnd])


def _residual_vector(K, L, z):
    """centroid - touch point at z; for a stack, NaN rows where the section is refused."""
    _, _, touch, sec = _touch_and_section(K, L, z)
    return sec.centroid - touch


def _gradient_stage(K, L, z, sign, trace=None):
    """Projected gradient, normalization retraction, Armijo backtracking with quadratic-interpolation retries.

    ``z`` is an (m, n) stack of starts and ``sign`` one value per start, or
    one for all: +1 for descent on f, -1 for ascent (descent on -f) and 0
    for no step, the start going to the polish as it is.  Along a step
    phi(s) = sign f((z + s d)/|z + s d|), phi'(0) = -|g|.  A trial s that
    fails the Armijo test is retried at the minimiser of the quadratic
    through phi(0), phi'(0) and phi(s), kept in [0.1 s, 0.5 s]; a failed test
    gives the quadratic positive curvature, so the minimiser exists.  A
    degenerate trial section halves s.  A start gives up after 25 trials of
    one line search, and stops after ``GRADIENT_MAX_ITERS`` steps or once its
    residual is below ``POLISH_TRIGGER``.

    The starts advance in lockstep: each round evaluates the current trial of
    every live start in one ``evaluate`` call.  Returns the last iterates,
    their residual vectors centroid - touch point, which start the polish,
    each start's number of accepted steps, and the mask of starts refused
    because their own section is degenerate (NaN residuals, no steps).
    ``trace``, if given, holds one list per start, which receives the
    objective value at each of its accepted iterates, the start first.
    """
    z = np.array(z, dtype=float)
    m = len(z)
    sign = np.broadcast_to(np.asarray(sign, dtype=float), (m,))
    ev = evaluate(K, L, z)
    refused = np.isnan(ev.residual)
    moving = sign != 0.0
    z[moving] = ev.direction[moving]
    f, g, res = ev.f_value.copy(), ev.tangential_gradient.copy(), ev.residual.copy()
    r = ev.section.centroid - ev.touch_point
    steps = np.zeros(m, dtype=int)
    step = np.full(m, STEP_INIT)  # the first trial length of each start's next line search
    d, gn, phi0, s, trials = np.empty_like(z), np.empty(m), np.empty(m), np.empty(m), np.zeros(m, dtype=int)
    live = ~refused & moving
    if trace is not None:
        for i in np.flatnonzero(~refused):
            trace[i].append(f[i])

    def line_search(rows):
        """Start a line search on each of ``rows`` not yet done; end the others."""
        go = (res[rows] >= POLISH_TRIGGER) & (steps[rows] < GRADIENT_MAX_ITERS)
        live[rows[~go]] = False
        rows = rows[go]
        # |g| > 0: the centroid and the touch point lie on the supporting plane, so the
        # residual, at least POLISH_TRIGGER here, is tangential, and |g| is the measure times it
        gs = sign[rows, None] * g[rows]
        gn[rows] = np.linalg.norm(gs, axis=1)
        d[rows] = -gs / gn[rows, None]
        phi0[rows] = sign[rows] * f[rows]
        s[rows] = step[rows]
        trials[rows] = 0

    line_search(np.flatnonzero(live))
    while live.any():
        rows = np.flatnonzero(live)
        z_new = z[rows] + s[rows, None] * d[rows]
        z_new /= np.linalg.norm(z_new, axis=1, keepdims=True)
        ev = evaluate(K, L, z_new)
        trials[rows] += 1
        phi = sign[rows] * ev.f_value
        ok = phi <= phi0[rows] - 1e-4 * s[rows] * gn[rows]  # False on a degenerate (NaN) trial
        won, lost = rows[ok], rows[~ok]
        z[won], f[won], g[won], res[won] = ev.direction[ok], ev.f_value[ok], ev.tangential_gradient[ok], ev.residual[ok]
        r[won] = ev.section.centroid[ok] - ev.touch_point[ok]
        step[won] = np.minimum(2.0 * s[won], STEP_INIT)
        steps[won] += 1
        if trace is not None:
            for i in won:
                trace[i].append(f[i])
        sl, phil, gnl = s[lost], phi[~ok], gn[lost]
        quadratic = gnl * sl * sl / (2.0 * (phil - phi0[lost] + gnl * sl))
        s[lost] = np.where(np.isnan(phil), 0.5 * sl, np.minimum(np.maximum(quadratic, 0.1 * sl), 0.5 * sl))
        live[lost[trials[lost] == 25]] = False
        line_search(won)
    return z, r, steps, refused


def _centroid_derivative(K, L, z):
    """Tangent chart Q at z, the touch point p, and dc/dx + dc/dt p^T at t = h_L(z); one of each per row of a stack.

    The last is the derivative of the section centroid along L's supporting
    planes, from the section's centroid partials.  Refuses z as ``evaluate``
    does: for a stack, a refused row's derivative is NaN.
    """
    plane, h = _supporting_plane(K, L, z)
    sec, dc_dx, dc_dt = section_partials(K, plane, support=h)
    refused = _require_measure(K, z, sec)
    p = L.touch_point(z)
    dc = dc_dx + dc_dt[..., :, None] * p[..., None, :]
    dc[refused] = np.nan
    return hyperplane_chart(z), p, dc


def _newton_chart(K, L, z):
    """Chart Q, the residual's Jacobian J in it, and the point the chart steps from; one of each per row of a stack.

    The step moves z on the sphere, and J = (dc/dx + dc/dt p^T - D^2 h_L(z)) Q.
    D^2 h_L is unbounded at the normals of L's flat points (``L.flat_points``),
    so where L has them the step moves the touch point y on L's boundary
    instead, with z = ``L.normal(y)``: there the residual c(normal(y)) - y has
    the Jacobian (dc/dx + dc/dt y^T) N Q - Q, N = ``L.normal_jacobian(y)``,
    bounded where D^2 h_L is not.  The third value is z or y, which
    ``_chart_move`` takes.  In either chart Q^T J carries the Morse index
    (``_classify``).
    """
    Q, y, dc = _centroid_derivative(K, L, z)
    if not L.flat_points:
        return Q, (dc - L.touch_point_jacobian(z)) @ Q, z
    return Q, dc @ L.normal_jacobian(y) @ Q - Q, y


def _chart_move(L, base, step):
    """The direction a chart step reaches from ``_newton_chart``'s base point.

    On the sphere the step is retracted; where L has flat points it moves y
    on L's boundary, and the direction is L's normal there.
    """
    if not L.flat_points:
        w = base + step
        return w / np.linalg.norm(w, axis=-1, keepdims=True)
    return L.normal(base + step)


def _lstsq(J, b):
    """Minimum-norm least-squares solutions of J x = b, one per row of a stack, with ``lstsq``'s default cutoff.

    Singular values at most eps * max(J's shape) times the largest are taken
    as zero.
    """
    U, sv, Vt = np.linalg.svd(J, full_matrices=False)
    cutoff = np.finfo(float).eps * max(J.shape[-2:]) * sv[:, :1]
    inverse = np.divide(1.0, sv, out=np.zeros_like(sv), where=sv > cutoff)
    return np.einsum("mij,mi->mj", Vt, inverse * np.einsum("mji,mj->mi", U, b))


def _polish(K, L, z, r):
    """Damped Gauss-Newton on the centroid-minus-touch residual in a tangent chart.

    ``z`` is an (m, n) stack of starts and ``r`` their residual vectors.  The
    starts advance in lockstep: each round, the starts that begin a Newton
    step take their charts from one ``_newton_chart`` call, and every live
    start tries its damped step in one ``_residual_vector`` call.  A trial
    that does not lower the residual, or whose section is refused, halves
    the damping; a start stops after 12 such trials of one step, after
    ``POLISH_MAX_ITERS`` steps, or at a quarter of ``RESIDUAL_TOL``.  Returns
    the last directions, their residual norms and each start's number of
    accepted steps.
    """
    z, r = np.array(z, dtype=float), np.array(r, dtype=float)
    m = len(z)
    rn = np.linalg.norm(r, axis=1)
    steps, trials = np.zeros(m, dtype=int), np.zeros(m, dtype=int)
    base, step, damping = np.empty_like(z), np.empty_like(z), np.ones(m)
    fresh = rn > 0.25 * RESIDUAL_TOL  # starts that begin a Newton step this round
    live = fresh.copy()
    while live.any():
        rows = np.flatnonzero(fresh)
        if rows.size:
            Q, J, base[rows] = _newton_chart(K, L, z[rows])
            step[rows] = (Q @ _lstsq(J, -r[rows])[:, :, None])[:, :, 0]
            damping[rows], trials[rows] = 1.0, 0
        rows = np.flatnonzero(live)
        z_new = _chart_move(L, base[rows], damping[rows, None] * step[rows])
        r_new = _residual_vector(K, L, z_new)
        rn_new = np.linalg.norm(r_new, axis=1)
        better = rn_new < rn[rows]  # False on a refused (NaN) trial
        trials[rows] += 1
        won, lost = rows[better], rows[~better]
        z[won], r[won], rn[won] = z_new[better], r_new[better], rn_new[better]
        steps[won] += 1
        damping[lost] *= 0.5
        live[lost[trials[lost] == 12]] = False
        fresh[:] = False
        more = (rn[won] > 0.25 * RESIDUAL_TOL) & (steps[won] < POLISH_MAX_ITERS)
        fresh[won[more]] = True
        live[won[~more]] = False
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

    # starts cycle through descent, ascent and polish only; a start whose own
    # section is degenerate is refused, once, and not polished
    signs = np.array([1.0, -1.0, 0.0])[np.arange(len(starts)) % 3]
    z, r, steps, refused = _gradient_stage(K, L, starts, signs)
    z, res, polish_steps = _polish(K, L, z[~refused], r[~refused])
    iterations = int(steps.sum() + polish_steps.sum())
    # copied rows: a report keeps its pairs' directions, not the whole stack of starts
    candidates = [(_canonical(zi.copy()), float(ri)) for zi, ri in zip(z, res) if ri <= RESIDUAL_TOL]

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

    # in the order report.json lists them
    diagnostics = {
        "starts": count,
        "converged": len(candidates),
        "dedup_merges": len(candidates) - len(clusters),
        "iterations": iterations,
        "degenerate_rejections": int(refused.sum()),
    }
    return TheoremReport(dimension=n, pairs=pairs, diagnostics=diagnostics)


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
    z = np.column_stack([np.cos(thetas), np.sin(thetas)])
    r = _residual_vector(K, L, z)
    if np.isnan(r).any():
        i = int(np.flatnonzero(np.isnan(r[:, 0]))[0])
        _residual_vector(K, L, z[i])  # raises, as the bracketing needs every grid value
    svals = _dot(r, np.column_stack([-z[:, 1], z[:, 0]]))
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
    vectors = _residual_vector(K, L, verts)  # NaN rows where the section is degenerate
    residuals = np.linalg.norm(vectors, axis=1)
    residuals[np.isnan(residuals)] = np.inf
    # a vertex with a lower neighbour is not a local minimum of the residual, nor is a degenerate one
    a, b = np.array(edges).T
    minima = np.isfinite(residuals)
    minima[a[residuals[b] < residuals[a]]] = False
    minima[b[residuals[a] < residuals[b]]] = False
    zp, res, _ = _polish(K, L, verts[minima], vectors[minima])
    return [(_canonical(z.copy()), float(rz)) for z, rz in zip(zp, res) if rz <= RESIDUAL_TOL]
