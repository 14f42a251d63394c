"""Cap volumes, hyperplane section measures and section centroids.

For a body K and hyperplane ``H = {y : <x, y> = t}`` (unit ``x``) this module
computes the cap volume ``vol{y in K : <x, y> >= t}``, the (n-1)-measure of
``K ∩ H`` and its centroid.  Polytopes are sliced exactly (edge crossings or a
chart-restricted halfspace system), balls and ellipsoids analytically; lp-balls
fall back to the Monte Carlo oracle, which is also available for
cross-validation of the exact paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import factorial

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection
from scipy.spatial import QhullError
from scipy.special import betainc

from .bodies import (
    Ball,
    BodyError,
    ConvexBody,
    Ellipsoid,
    HPolytope,
    LpBall,
    VPolytope,
    unit_ball_volume,
)

__all__ = [
    "Hyperplane",
    "SectionData",
    "SectionMethod",
    "cap_volume",
    "section",
    "mc_cap_volume",
    "mc_section",
    "hyperplane_chart",
    "EXACT_SECTION_DIMS",
]

EXACT_SECTION_DIMS = (2, 3, 4)
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

    @classmethod
    def normalized(cls, direction, offset):
        """Build from an arbitrary nonzero direction, rescaling the offset to match."""
        d = np.asarray(direction, dtype=float)
        nrm = np.linalg.norm(d)
        if nrm == 0:
            raise BodyError("hyperplane direction must be nonzero")
        return cls(d / nrm, float(offset) / nrm)

    @property
    def dim(self):
        return self.direction.shape[0]

    def flipped(self):
        """The same hyperplane written with the opposite normal."""
        return Hyperplane(-self.direction, -self.offset)


@dataclass
class SectionData:
    """Measure, centroid and first moment of a hyperplane section."""

    measure: float
    centroid: np.ndarray | None
    moment: np.ndarray | None
    method: SectionMethod
    stderr: float | None = None

    @property
    def degenerate(self):
        return self.centroid is None


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


def _chart_polytope_data(chart_pts):
    """(measure, chart centroid) of the convex hull of points in chart coordinates.

    Triangulates the hull as a fan from an interior point and accumulates
    simplex volumes and centroids.
    """
    m, k = chart_pts.shape
    if k == 1:
        lo, hi = float(chart_pts.min()), float(chart_pts.max())
        if hi <= lo:
            return 0.0, None
        return hi - lo, np.array([0.5 * (lo + hi)])
    try:
        hull = ConvexHull(chart_pts)
    except QhullError:
        return 0.0, None
    interior = chart_pts[hull.vertices].mean(axis=0)
    facets = chart_pts[hull.simplices]  # (F, k, k): the k vertices of each hull facet
    vols = np.abs(np.linalg.det(facets - interior)) / factorial(k)
    # cumsum adds left to right like a scalar loop (sum() is pairwise), keeping report bytes stable
    total = np.cumsum(vols)[-1]
    first_moment = np.cumsum(vols[:, None] * (facets.sum(axis=1) + interior) / (k + 1), axis=0)[-1]
    if total <= 0.0:
        return 0.0, None
    return total, first_moment / total


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


def _polytope_section(vertices, edges, H):
    x, t, sgn = _canonical_plane(H.direction, H.offset)
    pts = _slice_points(vertices, edges, vertices @ x, t)
    n = vertices.shape[1]
    if len(pts) < n:
        return SectionData(0.0, None, None, SectionMethod.EXACT)
    Q = hyperplane_chart(x)
    measure, chart_centroid = _chart_polytope_data(pts @ Q)
    if chart_centroid is None:
        return SectionData(0.0, None, None, SectionMethod.EXACT)
    centroid = sgn * (t * x + Q @ chart_centroid)
    return SectionData(measure, centroid, measure * centroid, SectionMethod.EXACT)


def _hpolytope_section(K, H):
    x, t, sgn = _canonical_plane(H.direction, H.offset)
    Q = hyperplane_chart(x)
    A = K.normals @ Q
    b = K.offsets - t * (K.normals @ x)
    k = Q.shape[1]
    if k == 1:
        lo, hi = -np.inf, np.inf
        for a, bb in zip(A[:, 0], b):
            if a > 1e-14:
                hi = min(hi, bb / a)
            elif a < -1e-14:
                lo = max(lo, bb / a)
            elif bb < 0:
                return SectionData(0.0, None, None, SectionMethod.EXACT)
        if hi <= lo:
            return SectionData(0.0, None, None, SectionMethod.EXACT)
        measure, chart_centroid = hi - lo, np.array([0.5 * (lo + hi)])
    else:
        row_norms = np.linalg.norm(A, axis=1)
        res = linprog(
            np.r_[np.zeros(k), -1.0],
            A_ub=np.column_stack([A, row_norms]),
            b_ub=b,
            bounds=[(None, None)] * k + [(0.0, None)],
            method="highs",
        )
        if not res.success or res.x[-1] <= 1e-12:
            return SectionData(0.0, None, None, SectionMethod.EXACT)
        center = res.x[:k]
        try:
            hi = HalfspaceIntersection(np.column_stack([A, -b]), center)
        except QhullError:
            return SectionData(0.0, None, None, SectionMethod.EXACT)
        measure, chart_centroid = _chart_polytope_data(hi.intersections)
        if chart_centroid is None:
            return SectionData(0.0, None, None, SectionMethod.EXACT)
    centroid = sgn * (t * x + Q @ chart_centroid)
    return SectionData(measure, centroid, measure * centroid, SectionMethod.EXACT)


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


def cap_volume(K, H, mc_samples=MC_DEFAULT_SAMPLES, mc_seed=MC_DEFAULT_SEED):
    """n-volume of ``{y in K : <direction, y> >= offset}``.

    Exact for polytopes (n <= 4), closed form for balls and ellipsoids;
    lp-balls and higher-dimensional polytopes use the Monte Carlo estimate
    with the given (deterministic) sampling parameters.
    """
    _check_plane(K, H)
    x, t = H.direction, H.offset
    if isinstance(K, Ball):
        return K.volume() * _ball_cap_fraction(t / K.radius, K.dim)
    if isinstance(K, Ellipsoid):
        # affine reduction: A^{-1/2} maps the unit ball onto K, the cap onto a ball cap
        return K.volume() * _ball_cap_fraction(t / K.support(x), K.dim)
    if isinstance(K, (VPolytope, HPolytope)) and K.dim in EXACT_SECTION_DIMS:
        verts, edges = _polytope_rep(K)
        support = float(np.max(verts @ x))
        if t >= support:
            return 0.0
        if t <= -support:
            return K.volume()
        return _clipped_polytope_volume(verts, edges, x, t)
    return mc_cap_volume(K, H, mc_samples, mc_seed)[0]


def _polytope_rep(K):
    """(vertices, edges) of a polytope, enumerating an H-rep if needed (cached on K)."""
    if isinstance(K, VPolytope):
        return K.vertices, K.edges
    vp = getattr(K, "_vrep", None)
    if vp is None:
        vp = VPolytope(K.vertices)
        K._vrep = vp
    return vp.vertices, vp.edges


def section(K, H, mc_samples=MC_DEFAULT_SAMPLES, mc_seed=MC_DEFAULT_SEED):
    """Measure, centroid and moment of ``K ∩ H``.

    Degenerate sections (|offset| >= support) come back with measure 0 and an
    undefined centroid; callers must branch on ``SectionData.degenerate``.
    """
    _check_plane(K, H)
    x, t = H.direction, H.offset
    if isinstance(K, Ball):
        r2 = K.radius**2 - t * t
        if r2 <= 0.0:
            return SectionData(0.0, None, None, SectionMethod.ANALYTIC)
        measure = unit_ball_volume(K.dim - 1) * r2 ** ((K.dim - 1) / 2.0)
        centroid = t * x
        return SectionData(measure, centroid, measure * centroid, SectionMethod.ANALYTIC)
    if isinstance(K, Ellipsoid):
        return _ellipsoid_section(K, x, t)
    if isinstance(K, (VPolytope, HPolytope)):
        if K.dim not in EXACT_SECTION_DIMS:
            return mc_section(K, H, samples=mc_samples, seed=mc_seed)
        if abs(t) >= K.support(x):
            return SectionData(0.0, None, None, SectionMethod.EXACT)
        if isinstance(K, HPolytope):
            return _hpolytope_section(K, H)
        return _polytope_section(K.vertices, K.edges, H)
    if isinstance(K, LpBall):
        return mc_section(K, H, samples=mc_samples, seed=mc_seed)
    raise BodyError(f"unsupported body type {type(K).__name__}")


def _ellipsoid_section(K, x, t):
    h = K.support(x)
    tau = t / h
    if abs(tau) >= 1.0:
        return SectionData(0.0, None, None, SectionMethod.ANALYTIC)
    M = K.inv_sqrt_shape
    v = (M @ x) / h  # unit normal in ball coordinates
    # section = M(ball section): an (n-1)-ellipsoid with center M(tau v)
    center = t * (K.inverse_shape @ x) / (h * h)
    Q = hyperplane_chart(v)
    B = M @ Q
    jac = float(np.sqrt(np.linalg.det(B.T @ B)))
    rho = np.sqrt(1.0 - tau * tau)
    measure = unit_ball_volume(K.dim - 1) * rho ** (K.dim - 1) * jac
    return SectionData(measure, center, measure * center, SectionMethod.ANALYTIC)


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
        return SectionData(0.0, None, None, SectionMethod.MONTE_CARLO, stderr=0.0)
    p = hits / samples
    measure = box_vol * p / thickness
    stderr = box_vol * float(np.sqrt(p * (1.0 - p) / samples)) / thickness
    centroid = point_sum / hits
    centroid = centroid + (H.offset - centroid @ H.direction) * H.direction
    return SectionData(measure, centroid, measure * centroid, SectionMethod.MONTE_CARLO, stderr)
