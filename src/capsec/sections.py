"""Cap volumes, hyperplane section measures and section centroids.

For a body K and hyperplane ``H = {y : <x, y> = t}`` (unit ``x``) this module
computes the cap volume ``vol{y in K : <x, y> >= t}``, the (n-1)-measure of
``K ∩ H`` and its centroid.  A polytope section, in any dimension, is a sum
of cones over the slices of the boundary simplices of the hull built when the
polytope was constructed, so it builds no hull of its own.  A polytope cap
volume still takes the hull of the kept vertices and the edge crossings, one
per call.  An H-polytope is a V-polytope whose vertices were enumerated once
at construction.  Balls and ellipsoids have closed forms.
``section_partials`` also returns the partial derivatives of the centroid in
the plane's normal and offset: closed forms for balls and ellipsoids, and
for polytopes the derivative of the same cone sums.  Other bodies
(lp-balls) are refused: the Monte Carlo oracles ``mc_section`` and
``mc_cap_volume`` are called explicitly, for estimates and for
cross-validation of the exact paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import combinations
from math import comb, factorial

import numpy as np
from scipy.optimize import linprog  # unused; perfbench/tracer.py wraps this name
from scipy.spatial import ConvexHull, QhullError
from scipy.spatial import HalfspaceIntersection  # unused; perfbench/tracer.py wraps this name
from scipy.special import betainc

from .bodies import (
    Ball,
    BodyError,
    ConvexBody,
    Ellipsoid,
    UnsupportedRepresentation,
    VPolytope,
    unit_ball_volume,
)

__all__ = [
    "Hyperplane",
    "SectionData",
    "SectionMethod",
    "cap_volume",
    "section",
    "section_partials",
    "mc_cap_volume",
    "mc_section",
    "hyperplane_chart",
]

MC_DEFAULT_SAMPLES = 10**6
MC_DEFAULT_SEED = 20240811
_UNIT_TOL = 1e-12


class SectionMethod(Enum):
    EXACT = "exact"
    ANALYTIC = "analytic"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class Hyperplane:
    """Hyperplane ``{y : <direction, y> = offset}`` with unit direction."""

    direction: np.ndarray
    offset: float

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if d.ndim != 1 or d.shape[0] < 2:
            raise BodyError("hyperplane direction must be a vector in R^n, n >= 2")
        if abs(np.linalg.norm(d) - 1.0) > _UNIT_TOL:
            raise BodyError("hyperplane direction must be a unit vector (|1 - |d|| <= 1e-12)")
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dim(self):
        return self.direction.shape[0]


@dataclass
class SectionData:
    """Measure, centroid and first moment of a hyperplane section."""

    measure: float
    centroid: np.ndarray | None
    method: SectionMethod
    stderr: float | None = None

    @property
    def degenerate(self):
        return self.centroid is None

    @property
    def moment(self):
        """First moment ``measure * centroid``; None for a degenerate section."""
        if self.centroid is None:
            return None
        return self.measure * self.centroid


def hyperplane_chart(direction):
    """Deterministic orthonormal basis Q of ``direction^perp`` (columns).

    Gram-Schmidt on the standard basis with the largest-|component| axis of the
    direction removed first, so the chart is reproducible across runs.
    """
    x = np.asarray(direction, dtype=float)
    n = x.shape[0]
    drop = int(np.argmax(np.abs(x)))
    cols = []
    for i in range(n):
        if i == drop:
            continue
        v = np.zeros(n)  # e_i - x_i x from zeros: 0.0 - (+-0.0) keeps off-axis zeros +0.0
        v[i] = 1.0
        v -= x[i] * x
        for c in cols:
            v = v - (v @ c) * c
        v = v / np.linalg.norm(v)
        cols.append(v)
    return np.column_stack(cols)


def _ball_cap_fraction(a, n):
    """Fraction of the unit n-ball lying in ``{y : y_1 >= a}`` for a in [-1, 1]."""
    if a >= 1.0:
        return 0.0
    if a <= -1.0:
        return 1.0
    if a >= 0.0:
        return 0.5 * float(betainc((n + 1) / 2.0, 0.5, 1.0 - a * a))
    return 1.0 - 0.5 * float(betainc((n + 1) / 2.0, 0.5, 1.0 - a * a))


# --- polytope slicing ------------------------------------------------------


def _slice_points(vertices, edges, d, t):
    """Points of the polytope on the hyperplane <x,y> = t, given ``d = vertices @ x``.

    Vertices with ``d == t`` come first, then the crossings of edges whose ends
    lie strictly on opposite sides, in edge order.
    """
    cross = (d[edges[:, 0]] - t) * (d[edges[:, 1]] - t) < 0.0
    i, j = edges[cross].T
    s = (t - d[i]) / (d[j] - d[i])
    return np.vstack([vertices[d == t], vertices[i] + s[:, None] * (vertices[j] - vertices[i])])


@cache
def _cone_table(n):
    """Slice simplices of a boundary (n-1)-simplex, by which of its vertices lie below H.

    A simplex whose vertices P lie on or above H and Q strictly below it (p, q
    >= 1) meets H in the product of simplices Δ^{p-1}×Δ^{q-1}, with one vertex
    on each edge from P to Q.  Its staircase triangulation has one
    (n-2)-simplex per monotone lattice path from (0, 0) to (p-1, q-1), so one
    simplex when p = 1 or q = 1.  Returns ``(weights, valid, ends)``: a simplex
    has code ``(s < 0) @ weights``, its m-th slice simplex exists where
    ``valid[code, m]``, and ``ends[code, m]`` holds the simplex columns of the
    P end (row 0) and the Q end (row 1) of the edge under each of that slice
    simplex's n-1 vertices.
    """
    valid = np.zeros((2**n, comb(n - 2, (n - 2) // 2)), dtype=bool)
    ends = np.zeros((*valid.shape, 2, n - 1), dtype=int)
    for code in range(1, 2**n - 1):
        below = [k for k in range(n) if code >> k & 1]
        above = [k for k in range(n) if not code >> k & 1]
        for m, ups in enumerate(combinations(range(n - 2), len(above) - 1)):
            a = b = 0
            ends[code, m, :, 0] = above[a], below[b]
            for step in range(n - 2):
                if step in ups:
                    a += 1
                else:
                    b += 1
                ends[code, m, :, step + 1] = above[a], below[b]
            valid[code, m] = True
    weights = 1 << np.arange(n)
    for table in (weights, valid, ends):
        table.setflags(write=False)  # shared by every caller through the cache
    return weights, valid, ends


def _canonical_plane(x, t):
    """Canonical (x, t, point_sign) with a sign-fixed direction and nonnegative offset.

    The plane is unchanged by flipping (x, t) -> (-x, -t); fixing the sign of the
    first nonzero direction component and then mirroring negative offsets makes
    the centroid of mirrored sections an exact floating-point negation.
    """
    for xi in x:
        if xi != 0.0:
            if xi < 0.0:
                x, t = -x, -t
            break
    if t < 0.0:
        return x, -t, -1.0
    return x, t, 1.0


def _polytope_cones(K, x, t):
    """Measure, centroid and cones of the section of a polytope by ``<x, y> = t``, t >= 0.

    Ties count as above H, so every slice vertex is an edge fraction in
    [0, 1).  The cones share their apex, the mean of the slice vertices, which
    lies in K ∩ H: every cone volume is nonnegative and no sum cancels, however
    small the section.  Returns ``(measure, centroid, cones)``, with centroid
    and cones None when the section is degenerate; ``cones`` holds the
    edge-end offsets ``se`` and vertices ``ve`` under each slice vertex, the
    spoke frames ``[x, pts - apex]`` and their signed determinants.
    """
    V, simplices, n = K.vertices, K.boundary_simplices, K.dim
    d = V @ x
    if t >= d.max():
        return 0.0, None, None
    s = d[simplices] - t
    weights, valid, ends = _cone_table(n)
    code = (s < 0.0) @ weights
    rows, slots = np.nonzero(valid[code])
    cols = ends[code[rows], slots]  # (cones, 2, n-1)
    rows = rows[:, None, None]
    se, ve = s[rows, cols], V[simplices[rows, cols]]  # (cones, 2, n-1) and (cones, 2, n-1, n)
    si, sj, vi, vj = se[:, 0], se[:, 1], ve[:, 0], ve[:, 1]
    pts = vi + (si / (si - sj))[..., None] * (vj - vi)  # (cones, n-1, n)
    apex = pts.reshape(-1, n).mean(axis=0)
    # |det[x, spokes]| is the (n-1)-volume of the spokes' parallelotope in H
    frame = np.empty((len(pts), n, n))
    frame[:, 0] = x
    spokes = frame[:, 1:]
    np.subtract(pts, apex, out=spokes)
    signed = np.linalg.det(frame)
    dets = np.abs(signed)
    # cumsum adds left to right like a scalar loop (sum() is pairwise), keeping report bytes stable
    total = np.cumsum(dets)[-1]
    if total <= 0.0:
        return 0.0, None, None
    # a cone's centroid is apex + (sum of its spokes) / n
    first_moment = np.cumsum(dets[:, None] * spokes.sum(axis=1), axis=0)[-1]
    return total / factorial(n - 1), apex + first_moment / (n * total), (se, ve, frame, signed)


def _polytope_section(K, H):
    """Section of a polytope as a sum of cones over the slices of its boundary simplices."""
    x, t, sgn = _canonical_plane(H.direction, H.offset)
    measure, centroid, _ = _polytope_cones(K, x, t)
    return SectionData(measure, None if centroid is None else sgn * centroid, SectionMethod.EXACT)


@cache
def _cofactor_table(n):
    """Index arrays of the minors of an n x n frame that drop one spoke row r >= 1 and one column l.

    ``frame[..., rows, cols]`` has shape (..., n-1, n, n-1, n-1), minor (r-1, l)
    last; ``signs`` holds (-1)^(r+l).
    """
    rows = np.array([[[i for i in range(n) if i != r]] * n for r in range(1, n)])
    cols = np.array([[[j for j in range(n) if j != l] for l in range(n)]] * (n - 1))
    signs = (-1.0) ** np.add.outer(np.arange(1, n), np.arange(n))
    for table in (rows, cols, signs):
        table.setflags(write=False)
    return rows[..., :, None], cols[..., None, :], signs


def _polytope_centroid_partials(n, cones):
    """(dc/dx, dc/dt) of a polytope section centroid at a canonical plane (x, t).

    Every slice vertex v_i + λ (v_j - v_i) is rational in the edge-end offsets
    s = V x - t through λ = s_i / (s_i - s_j), and the centroid depends on x
    only through s: the frame row x scales every cone by the same factor.
    Each cone volume |det F| is differentiated by Jacobi's formula,
    d det F = tr(adj(F) dF), with the cofactors taken as minors so that
    zero-volume cones stay finite.  A slice vertex on H gives the one-sided
    derivative from above.
    """
    se, ve, frame, signed = cones
    si, sj, vi, vj = se[:, 0], se[:, 1], ve[:, 0], ve[:, 1]
    den = si - sj  # > 0: the P end is on or above H, the Q end below
    # dλ = phi . (dx, dt), and each slice vertex moves by e dλ along its edge e = v_j - v_i
    phi = np.empty((*si.shape, n + 1))
    phi[..., :n] = (si[..., None] * vj - sj[..., None] * vi) / (den * den)[..., None]
    phi[..., n] = -1.0 / den
    e = vj - vi
    dpts = np.einsum("cki,ckp->cip", e, phi)  # per cone, the summed moves of its slice vertices
    dapex = dpts.sum(axis=0) / si.size
    rows, cols, signs = _cofactor_table(n)
    cof = signs * np.linalg.det(frame[:, rows, cols])  # (cones, n-1, n): cofactors of the spoke rows
    # d det = sum over spoke rows k of cof_k . (e_k dλ_k - dapex)
    ddet = np.einsum("ck,ckp->cp", np.einsum("cki,cki->ck", cof, e), phi) - cof.sum(axis=1) @ dapex
    ddets = np.sign(signed)[:, None] * ddet
    dets = np.abs(signed)
    sums = frame[:, 1:].sum(axis=1)
    total = dets.sum()
    moment = dets @ sums
    # moment = sum_c dets_c sums_c, and d sums_c = dpts_c - (n-1) dapex
    dmoment = sums.T @ ddets + np.einsum("c,cip->ip", dets, dpts) - (n - 1) * total * dapex
    dc = dapex + dmoment / (n * total) - np.outer(moment, ddets.sum(axis=0)) / (n * total * total)
    return dc[:, :n], dc[:, n]


def _clipped_polytope_volume(vertices, edges, x, t):
    """Volume of the polytope clipped to ``<x, y> >= t`` (hull of kept + crossings)."""
    d = vertices @ x
    cloud = np.vstack([vertices[d >= t], _slice_points(vertices, edges, d, t)])
    if len(cloud) <= vertices.shape[1]:
        return 0.0
    try:
        return float(ConvexHull(cloud).volume)
    except QhullError:
        return 0.0


# --- public operations -----------------------------------------------------


def _check_plane(K, H):
    if H.dim != K.dim:
        raise BodyError("hyperplane and body dimensions differ")


def cap_volume(K, H):
    """n-volume of ``{y in K : <direction, y> >= offset}``.

    Exact for polytopes in every dimension, closed form for balls and
    ellipsoids; any other body raises ``UnsupportedRepresentation``.
    """
    _check_plane(K, H)
    x, t = H.direction, H.offset
    if isinstance(K, Ball):
        return K.volume() * _ball_cap_fraction(t / K.radius, K.dim)
    if isinstance(K, Ellipsoid):
        # affine reduction: A^{-1/2} maps the unit ball onto K, the cap onto a ball cap
        return K.volume() * _ball_cap_fraction(t / K.support(x), K.dim)
    if isinstance(K, VPolytope):
        support = float(np.max(K.vertices @ x))
        if t >= support:
            return 0.0
        if t <= -support:
            return K.volume()
        return _clipped_polytope_volume(K.vertices, K.edges, x, t)
    raise UnsupportedRepresentation(f"no exact cap volume for {type(K).__name__}; use mc_cap_volume")


def section(K, H):
    """Measure, centroid and moment of ``K ∩ H``.

    Exact for polytopes in every dimension, closed form for balls and
    ellipsoids; any other body raises ``UnsupportedRepresentation``.
    Degenerate sections (|offset| >= support) come back with measure 0 and an
    undefined centroid; callers must branch on ``SectionData.degenerate``.
    """
    _check_plane(K, H)
    x, t = H.direction, H.offset
    if isinstance(K, Ball):
        r2 = K.radius**2 - t * t
        if r2 <= 0.0:
            return SectionData(0.0, None, SectionMethod.ANALYTIC)
        measure = unit_ball_volume(K.dim - 1) * r2 ** ((K.dim - 1) / 2.0)
        centroid = t * x
        return SectionData(measure, centroid, SectionMethod.ANALYTIC)
    if isinstance(K, Ellipsoid):
        return _ellipsoid_section(K, x, t)
    if isinstance(K, VPolytope):
        return _polytope_section(K, H)
    raise UnsupportedRepresentation(f"no exact section for {type(K).__name__}; use mc_section")


def section_partials(K, H):
    """Section of ``K ∩ H`` and the partial derivatives of its centroid.

    With ``c(x, t)`` the centroid of ``K ∩ {y : <x, y> = t}`` on nonzero x,
    returns ``(sec, dc_dx, dc_dt)``: the (n, n) derivative in the normal x
    with t held and the (n,) derivative in the offset t, at H.  Closed forms
    for balls and ellipsoids; for polytopes the derivative of the cone sums
    (one-sided where a vertex lies on H).  A degenerate section gives
    ``(sec, None, None)``.
    """
    _check_plane(K, H)
    x, t = H.direction, H.offset
    if isinstance(K, VPolytope):
        xc, tc, sgn = _canonical_plane(x, t)
        measure, centroid, cones = _polytope_cones(K, xc, tc)
        if centroid is None:
            return SectionData(0.0, None, SectionMethod.EXACT), None, None
        dc_dx, dc_dt = _polytope_centroid_partials(K.dim, cones)
        # c(x, t) = sgn c~(a x, a sgn t), where a = +-1 fixed the direction's sign
        a = 1.0 if xc @ x > 0.0 else -1.0
        return SectionData(measure, sgn * centroid, SectionMethod.EXACT), sgn * a * dc_dx, a * dc_dt
    sec = section(K, H)
    if sec.degenerate:
        return sec, None, None
    # the centroid is t P x / (x^T P x), with P = A^{-1} for an ellipsoid and P = I for a ball
    P = K.inverse_shape if isinstance(K, Ellipsoid) else np.eye(K.dim)
    w = P @ x
    q = float(x @ w)
    return sec, t * (P - 2.0 * np.outer(w, w) / q) / q, w / q


def _ellipsoid_section(K, x, t):
    h = K.support(x)
    tau = t / h
    if abs(tau) >= 1.0:
        return SectionData(0.0, None, SectionMethod.ANALYTIC)
    # K = M(B^n) with M = A^{-1/2}, so K ∩ H = M(B^n ∩ H'), where H' has unit
    # normal v = M x / h and offset tau; the ball section has radius rho and
    # center tau v, which M sends to t A^{-1} x / h^2.  M stretches hyperplane
    # measure on H' by det M |M^{-1} v| = det M / h, and det M = vol K / vol B^n.
    center = t * (K.inverse_shape @ x) / (h * h)
    rho = np.sqrt(1.0 - tau * tau)
    n = K.dim
    measure = unit_ball_volume(n - 1) * rho ** (n - 1) * K.volume() / (unit_ball_volume(n) * h)
    return SectionData(measure, center, SectionMethod.ANALYTIC)


def _mc_rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def mc_cap_volume(K, H, samples=MC_DEFAULT_SAMPLES, seed=MC_DEFAULT_SEED):
    """Rejection-sampled cap volume over K's bounding box: (estimate, stderr)."""
    _check_plane(K, H)
    if samples < 10**3:
        raise BodyError("at least 10^3 samples required")
    hw = K.bounding_halfwidths()
    box_vol = float(np.prod(2.0 * hw))
    rng = _mc_rng(seed)
    hits = 0
    remaining = int(samples)
    while remaining > 0:
        m = min(remaining, 1 << 19)
        pts = rng.uniform(-1.0, 1.0, size=(m, K.dim)) * hw
        inside = K.contains_points(pts) & (pts @ H.direction >= H.offset)
        hits += int(np.count_nonzero(inside))
        remaining -= m
    p = hits / samples
    return box_vol * p, box_vol * float(np.sqrt(p * (1.0 - p) / samples))


def mc_section(K, H, samples=MC_DEFAULT_SAMPLES, thickness=None, seed=MC_DEFAULT_SEED):
    """Thin-slab Monte Carlo estimate of a section's measure and centroid.

    Estimates ``vol(K ∩ {|<x,y> - t| <= thickness/2}) / thickness`` and the
    conditional mean point (re-projected onto H).  Bias is O(thickness^2).
    """
    _check_plane(K, H)
    if samples < 10**3:
        raise BodyError("at least 10^3 samples required")
    if thickness is None:
        thickness = 1e-3 * K.diameter()
    hw = K.bounding_halfwidths()
    box_vol = float(np.prod(2.0 * hw))
    rng = _mc_rng(seed)
    hits = 0
    point_sum = np.zeros(K.dim)
    remaining = int(samples)
    while remaining > 0:
        m = min(remaining, 1 << 19)
        pts = rng.uniform(-1.0, 1.0, size=(m, K.dim)) * hw
        in_slab = np.abs(pts @ H.direction - H.offset) <= 0.5 * thickness
        sel = in_slab & K.contains_points(pts)
        hits += int(np.count_nonzero(sel))
        point_sum += pts[sel].sum(axis=0)
        remaining -= m
    if hits == 0:
        return SectionData(0.0, None, SectionMethod.MONTE_CARLO, stderr=0.0)
    p = hits / samples
    measure = box_vol * p / thickness
    stderr = box_vol * float(np.sqrt(p * (1.0 - p) / samples)) / thickness
    centroid = point_sum / hits
    centroid = centroid + (H.offset - centroid @ H.direction) * H.direction
    return SectionData(measure, centroid, SectionMethod.MONTE_CARLO, stderr)
