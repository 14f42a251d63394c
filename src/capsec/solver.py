"""Multi-start search for antipodal pairs of critical directions.

Runs projected-gradient descent/ascent on the sphere with Armijo
backtracking, whose retries are chosen by quadratic interpolation; polishes
each candidate, from the gradient stage's last evaluation, with a damped
Gauss-Newton iteration on the centroid-minus-touch-point residual;
deduplicates antipodal clusters; and certifies the distinct-pair count
against the dimension lower bound.  Both stages are rules for one round
loop, ``_lockstep``, which advances every start together, one stacked call
per round, so a start takes the steps it would take alone, bit for bit.
The distinct pairs are then evaluated and classified in one call each.
The exhaustive grid oracle bisects its brackets on the same loop, and
shares the canonical form and the deduplication of converged rows.

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
    _require_measure,
    _supporting_plane,
    _touch_and_section,
    _unit,
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
    """Each row's representative of {z, -z}: its first coordinate beyond ``CANONICAL_TOL`` is positive.

    ``z`` is an (m, n) stack; a row with no such coordinate is kept as it is.
    """
    big = np.abs(z) > CANONICAL_TOL
    lead = np.where(big, z, 0.0)[np.arange(len(z)), np.argmax(big, axis=1)]
    return np.where(lead[:, None] < 0.0, -z, z)


def _dedup(z, res):
    """Merge the rows of a stack of unit directions into distinct pairs: the kept row indices and their counts.

    Greedy in ``res`` order: a row joins the first kept row within the
    projective angle ``DEDUP_ANGLE`` of it, and is kept otherwise.  So the
    first row not yet merged is kept, and takes every later row within that
    angle of it.  The kept rows come in ``res`` order, each with the number
    of rows it stands for.
    """
    kept, counts = [], []
    rest = np.argsort(res, kind="stable")  # the rows not yet merged, in res order
    while rest.size:
        near = np.arccos(np.minimum(1.0, np.abs(_dot(z[rest], z[rest[0]])))) <= DEDUP_ANGLE
        near[0] = True  # the kept row itself
        kept.append(rest[0])
        counts.append(np.count_nonzero(near))
        rest = rest[~near]
    return np.array(kept, dtype=int), np.array(counts, dtype=int)


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


def _lockstep(live, more, begin, attempt, max_trials, max_steps):
    """Advance a stack of rows together, one stacked ``attempt`` per round; return each row's accepted steps.

    ``live`` masks the rows that run.  Each round ``attempt(rows)`` tries the
    current trial of every live row in one call, shortens the trials that
    fail, and returns which rows accepted theirs.  A row stops after
    ``max_trials`` failed trials in a row.  A row that starts, or accepts a
    step, goes on while ``more(rows)`` holds and it has taken fewer than
    ``max_steps`` steps, and ``begin(rows)`` sets up its next step.
    """
    live = np.array(live, dtype=bool)
    steps, trials = np.zeros(len(live), dtype=int), np.zeros(len(live), dtype=int)
    fresh = np.flatnonzero(live)
    while True:
        go = more(fresh) & (steps[fresh] < max_steps)
        live[fresh[~go]] = False
        begin(fresh[go])
        rows = np.flatnonzero(live)
        if not rows.size:
            return steps
        ok = attempt(rows)
        trials[rows] = np.where(ok, 0, trials[rows] + 1)
        steps[rows[ok]] += 1
        live[rows[trials[rows] == max_trials]] = False
        fresh = rows[ok]


def _gradient_stage(K, L, z, sign, trace=None):
    """Projected gradient, normalization retraction, Armijo backtracking with quadratic-interpolation retries.

    ``z`` is an (m, n) stack of starts and ``sign`` one value per start, or
    one for all: +1 for descent on f, -1 for ascent (descent on -f) and 0
    for no step, the start going to the polish as it is.  Along a step
    phi(s) = sign f((z + s d)/|z + s d|), phi'(0) = -|g|.  A trial s that
    fails the Armijo test is retried at the minimiser of the quadratic
    through phi(0), phi'(0) and phi(s), kept in [0.1 s, 0.5 s]; a failed test
    gives the quadratic positive curvature, so the minimiser exists.  A
    degenerate trial section halves s.  An accepted step doubles s for the
    next line search, up to ``STEP_INIT``.  A start gives up after 25 failed
    trials in a row, and stops after ``GRADIENT_MAX_ITERS`` steps or once its
    residual is below ``POLISH_TRIGGER``; ``_lockstep`` runs the rounds, one
    ``evaluate`` call each.

    Returns the last iterates, their residual vectors centroid - touch point,
    which start the polish, each start's number of accepted steps, and the
    mask of starts refused because their own section is degenerate (NaN
    residuals, no steps).  A polish-only start (sign 0) takes only its
    residual, at the unit direction ``evaluate`` would take, and no cap
    volume.  ``trace``, if given, holds one list per start, which receives
    the objective value at each of its accepted iterates, the start first; a
    polish-only start's list stays empty, as its objective is never computed.
    """
    z = np.array(z, dtype=float)
    m = len(z)
    sign = np.broadcast_to(np.asarray(sign, dtype=float), (m,))
    moving = sign != 0.0
    f, g, res, r = np.full(m, np.nan), np.full_like(z, np.nan), np.full(m, np.nan), np.empty_like(z)
    if moving.any():  # a call on no rows would still count in the traced call counts
        ev = evaluate(K, L, z[moving])
        z[moving], f[moving], g[moving], res[moving] = ev.direction, ev.f_value, ev.tangential_gradient, ev.residual
        r[moving] = ev.section.centroid - ev.touch_point
    if not moving.all():
        r[~moving] = _residual_vector(K, L, _unit(z[~moving]))
    refused = np.isnan(r).any(axis=1)
    s = np.full(m, STEP_INIT)  # each start's current trial length
    d, gn, phi0 = np.empty_like(z), np.empty(m), np.empty(m)
    if trace is not None:
        for i in np.flatnonzero(moving & ~refused):
            trace[i].append(f[i])

    def begin(rows):
        # |g| > 0: the centroid and the touch point lie on the supporting plane, so the
        # residual, at least POLISH_TRIGGER here, is tangential, and |g| is the measure times it
        gs = sign[rows, None] * g[rows]
        gn[rows] = np.linalg.norm(gs, axis=1)
        d[rows] = -gs / gn[rows, None]
        phi0[rows] = sign[rows] * f[rows]

    def attempt(rows):
        ev = evaluate(K, L, z[rows] + s[rows, None] * d[rows])  # evaluate normalizes the trials
        phi = sign[rows] * ev.f_value
        ok = phi <= phi0[rows] - 1e-4 * s[rows] * gn[rows]  # False on a degenerate (NaN) trial
        won, lost = rows[ok], rows[~ok]
        z[won], f[won], g[won], res[won] = ev.direction[ok], ev.f_value[ok], ev.tangential_gradient[ok], ev.residual[ok]
        r[won] = ev.section.centroid[ok] - ev.touch_point[ok]
        s[won] = np.minimum(2.0 * s[won], STEP_INIT)
        if trace is not None:
            for i in won:
                trace[i].append(f[i])
        sl, phil, gnl = s[lost], phi[~ok], gn[lost]
        quadratic = gnl * sl * sl / (2.0 * (phil - phi0[lost] + gnl * sl))
        s[lost] = np.where(np.isnan(phil), 0.5 * sl, np.minimum(np.maximum(quadratic, 0.1 * sl), 0.5 * sl))
        return ok

    def more(rows):
        return res[rows] >= POLISH_TRIGGER

    steps = _lockstep(~refused & moving, more, begin, attempt, 25, GRADIENT_MAX_ITERS)
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

    ``z`` is an (m, n) stack of starts and ``r`` their residual vectors.  A
    Newton step takes its chart from ``_newton_chart`` and starts undamped.
    A trial that does not lower the residual, or whose section is refused,
    halves the damping; a start stops after 12 such trials in a row, after
    ``POLISH_MAX_ITERS`` steps, or at a quarter of ``RESIDUAL_TOL``.
    ``_lockstep`` runs the rounds: one ``_newton_chart`` call for the starts
    that begin a step and one ``_residual_vector`` call for every trial.
    Returns the last directions, their residual norms and each start's
    number of accepted steps.
    """
    z, r = np.array(z, dtype=float), np.array(r, dtype=float)
    rn = np.linalg.norm(r, axis=1)
    base, step, damping = np.empty_like(z), np.empty_like(z), np.ones(len(z))

    def begin(rows):
        if rows.size:  # a call on no rows would still count in the traced call counts
            Q, J, base[rows] = _newton_chart(K, L, z[rows])
            step[rows] = (Q @ _lstsq(J, -r[rows])[:, :, None])[:, :, 0]
            damping[rows] = 1.0

    def attempt(rows):
        z_new = _chart_move(L, base[rows], damping[rows, None] * step[rows])
        r_new = _residual_vector(K, L, z_new)
        rn_new = np.linalg.norm(r_new, axis=1)
        better = rn_new < rn[rows]  # False on a refused (NaN) trial
        won = rows[better]
        z[won], r[won], rn[won] = z_new[better], r_new[better], rn_new[better]
        damping[rows[~better]] *= 0.5
        return better

    def more(rows):
        return rn[rows] > 0.25 * RESIDUAL_TOL

    steps = _lockstep(np.ones(len(z), dtype=bool), more, begin, attempt, 12, POLISH_MAX_ITERS)
    return z, rn, steps


def _classify(K, L, z):
    """Morse indices: per row of z, the eigenvalues of Q^T J with negative real part, (Q, J) from ``_newton_chart``.

    At a critical direction in the sphere chart, Q^T J is the chart Hessian of
    f over the measure.  In the boundary chart it is A T - I = (A - T^{-1}) T, with A = Q^T (dc/dx +
    dc/dt y^T) Q and T = Q^T N Q >= 0 the inverse of D^2 h_L on the chart.
    It is similar to T^{1/2} (A - T^{-1}) T^{1/2}, so its eigenvalues are
    real and, by Sylvester's law of inertia, their signs are the Hessian's; a
    flat direction (t = 0, where D^2 h_L is infinite) gives -1.  None if an
    eigenvalue is within ``FLAT_EIGENVALUE`` of 0 (times diam(K) in the sphere
    chart; Q^T J has no units in the boundary chart) or the section is refused.
    """
    Q, J, _ = _newton_chart(K, L, z)
    QtJ = np.swapaxes(Q, 1, 2) @ J
    kept = np.isfinite(QtJ).all(axis=(1, 2))
    eig = np.full(QtJ.shape[:2], np.nan)
    eig[kept] = np.linalg.eigvals(QtJ[kept]).real
    # NaN compares False, so a refused row counts as flat
    flat = ~(np.abs(eig) > FLAT_EIGENVALUE * (1.0 if L.flat_points else K.diameter())).all(axis=1)
    return [None if f else int(k) for f, k in zip(flat, np.count_nonzero(eig < 0, axis=1))]


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
    converged = res <= RESIDUAL_TOL
    z, res = _canonical(z[converged]), res[converged]
    kept, basins = _dedup(z, res)
    directions = z[kept]
    ev, indices = evaluate(K, L, directions), _classify(K, L, directions)
    # copied rows: a report keeps its pairs' points, not the evaluation's arrays
    pairs = [
        CriticalPair(
            direction=zi,
            f_value=float(f),
            residual=float(ri),
            centroid=centroid.copy(),
            touch_point=touch.copy(),
            morse_index=index,
            basin_count=basin,
        )
        for zi, ri, basin, f, centroid, touch, index in zip(
            directions, res[kept], basins.tolist(), ev.f_value, ev.section.centroid, ev.touch_point, indices
        )
    ]
    # rounded keys, so pairs that tie in f by symmetry are not ordered by last-bit noise
    pairs.sort(key=lambda p: (_round(p.f_value), tuple(np.round(p.direction, 9))))

    # in the order report.json lists them
    diagnostics = {
        "starts": count,
        "converged": len(z),
        "dedup_merges": len(z) - len(kept),
        "iterations": iterations,
        "degenerate_rejections": int(refused.sum()),
    }
    return TheoremReport(dimension=n, pairs=pairs, diagnostics=diagnostics)


# --- exhaustive low-dimensional oracle --------------------------------------


def grid_census(K, L, resolution=10_000):
    """Exhaustive critical-pair search on a dense grid (n = 2 or 3).

    n=2: the signed tangential gradient on a uniform half-circle grid; every
    sign-change bracket is bisected at once, one stacked call per round of
    ``_lockstep``, and a grid angle where it is exactly 0 is taken as found.
    n=3: an icosahedral-refinement mesh of the sphere; the residual's local
    minima on it are polished to tolerance.  The converged directions are
    made canonical and merged within ``DEDUP_ANGLE`` as in ``solve``.
    Returns the distinct (canonical direction, residual), in direction order.
    """
    validate_instance(K, L)
    if K.dim == 2:
        z, res = _grid_census_2d(K, L, resolution)
    elif K.dim == 3:
        z, res = _grid_census_3d(K, L, resolution)
    else:
        raise BodyError("grid_census supports n in {2, 3} only")
    converged = res <= RESIDUAL_TOL
    z, res = _canonical(z[converged]), res[converged]
    kept, _ = _dedup(z, res)
    return sorted(zip(z[kept], res[kept].tolist()), key=lambda zr: tuple(zr[0]))


def _signed_gradient_2d(K, L, theta):
    """Per angle: the residual along the circle's tangent, the residual's norm, and the direction.

    A refused section raises ``DegenerateSectionError``, as the bracketing
    needs every value.
    """
    z = np.column_stack([np.cos(theta), np.sin(theta)])
    _, _, touch, sec = _touch_and_section(K, L, z)
    r = sec.centroid - touch
    refused = np.flatnonzero(np.isnan(r[:, 0]))
    if refused.size:
        raise DegenerateSectionError(z[refused[0]], sec.measure[refused[0]])
    return _dot(r, np.column_stack([-z[:, 1], z[:, 0]])), np.sqrt(_dot(r, r)), z


def _grid_census_2d(K, L, resolution):
    """The grid's exact zeros and each bracket's bisected zero, in angle order, and their residuals."""
    width = np.pi / resolution
    s, res, z = _signed_gradient_2d(K, L, np.arange(resolution) * width)
    zero, bracket = s == 0.0, s * np.roll(s, -1) < 0.0  # periodic with period pi
    rows = np.flatnonzero(bracket)
    a = rows * width
    b, sa = a + width, s[rows]
    # the first midpoint is taken to be a, so the first halving keeps [a, b]
    mid, sm, res_mid = a.copy(), sa.copy(), np.full(len(rows), np.inf)

    def more(i):
        # the convergence test, on the last midpoint and the bracket it halves
        return (res_mid[i] > 0.25 * RESIDUAL_TOL) & (b[i] - a[i] >= 1e-15)

    def begin(i):
        # a bracket keeps its ends until it goes on, so a converged one's 0.5 (a + b) is its last midpoint
        left = sa[i] * sm[i] <= 0.0
        a[i], b[i] = np.where(left, a[i], mid[i]), np.where(left, mid[i], b[i])
        sa[i] = np.where(left, sa[i], sm[i])
        mid[i] = 0.5 * (a[i] + b[i])

    def attempt(i):
        sm[i], res_mid[i], _ = _signed_gradient_2d(K, L, mid[i])
        return np.ones(len(i), dtype=bool)

    _lockstep(np.ones(len(rows), dtype=bool), more, begin, attempt, 1, 80)
    _, res[rows], z[rows] = _signed_gradient_2d(K, L, 0.5 * (a + b))
    found = zero | bracket
    return z[found], res[found]


def _icosphere(subdivisions):
    """Vertices and edges, as sorted index pairs, of a subdivided icosahedron on the unit sphere.

    Each subdivision adds the normalised midpoint of every edge and splits
    each face into four.
    """
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
    verts = base / np.linalg.norm(base, axis=1, keepdims=True)
    for _ in range(subdivisions):
        # the new vertices are numbered in the order the faces first meet their edges
        pairs = _face_edges(faces)
        _, first, edge_of = np.unique(pairs, axis=0, return_index=True, return_inverse=True)
        first_seen = np.sort(first)
        ab, bc, ca = (len(verts) + np.searchsorted(first_seen, first[edge_of])).reshape(-1, 3).T
        m = verts[pairs[first_seen, 0]] + verts[pairs[first_seen, 1]]
        a, b, c = faces.T
        faces = np.column_stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca]).reshape(-1, 3)
        verts = np.vstack([verts, m / np.sqrt(_dot(m, m))[:, None]])
    return verts, np.unique(_face_edges(faces), axis=0)


def _face_edges(faces):
    """Each face's edges ab, bc and ca, in turn, as sorted index pairs."""
    return np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)


def _grid_census_3d(K, L, resolution):
    subdivisions = 1
    while 12 * 4**subdivisions < resolution and subdivisions < 6:
        subdivisions += 1
    verts, edges = _icosphere(subdivisions)
    vectors = _residual_vector(K, L, verts)  # NaN rows where the section is degenerate
    residuals = np.linalg.norm(vectors, axis=1)
    residuals[np.isnan(residuals)] = np.inf
    # a vertex with a lower neighbour is not a local minimum of the residual, nor is a degenerate one
    a, b = edges.T
    minima = np.isfinite(residuals)
    minima[a[residuals[b] < residuals[a]]] = False
    minima[b[residuals[a] < residuals[b]]] = False
    z, res, _ = _polish(K, L, verts[minima], vectors[minima])
    return z, res
