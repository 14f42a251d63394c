"""Cap volumes, hyperplane section measures and section centroids.

For a body K and hyperplane ``H = {y : <x, y> = t}`` (unit ``x``) this module
computes the cap volume ``vol{y in K : <x, y> >= t}``, the (n-1)-measure of
``K ∩ H`` and its centroid.  A polytope section, in any dimension, is a sum
of cones over the slices of the boundary simplices of the hull built when the
polytope was constructed, so it builds no hull of its own.  A polytope cap
volume still takes a qhull hull of the kept vertices and the edge crossings
of each plane.  An H-polytope is a V-polytope whose vertices were enumerated
once at construction.  Balls and ellipsoids have closed forms.
``section_partials`` also returns the partial derivatives of the centroid in
the plane's normal and offset: closed forms for balls and ellipsoids, and
for polytopes the derivative of the same cone sums.  Other bodies
(lp-balls) are refused: the Monte Carlo oracles ``mc_section`` and
``mc_cap_volume`` are called explicitly, for estimates and for
cross-validation of the exact paths.

A ``Hyperplane`` may hold a stack of m planes, and ``section``,
``section_partials``, ``cap_volume`` and ``hyperplane_chart`` then give one
result per plane from one array call: the closed forms row by row, the
polytope cone sums stacked over every plane's cones, and the polytope cap
volume's point clouds stacked over every plane's vertices and edges.  The
one per-plane step left is the cap volume's qhull call on each plane's
cloud.  One plane is the m = 1 case of the same array code.

``ConvexHull`` and ``QhullError`` are bound from ``scipy.spatial`` by the
first polytope cap volume, and no call of this module loads
``scipy.optimize``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import combinations
from math import comb, factorial

import numpy as np
from scipy.special import betainc

from .bodies import (
    Ball,
    BodyError,
    ConvexBody,
    Ellipsoid,
    UnsupportedRepresentation,
    VPolytope,
    _apply,
    _bind_scipy,
    _dot,
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


def __getattr__(name):
    # PEP 562: getattr(sections, name) binds the scipy name, so a tracer or test can patch the binding.
    # Nothing here calls linprog or HalfspaceIntersection; they stay bound on first access for
    # perfbench/tracer.py, which wraps them, until ROADMAP item 16 deletes them.
    if name in ("ConvexHull", "QhullError", "HalfspaceIntersection", "linprog"):
        return _bind_scipy(globals(), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SectionMethod(Enum):
    EXACT = "exact"
    ANALYTIC = "analytic"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class Hyperplane:
    """Hyperplane ``{y : <direction, y> = offset}`` with unit direction.

    A stack of m planes has an (m, n) direction array and m offsets.
    """

    direction: np.ndarray
    offset: float | np.ndarray

    def __post_init__(self):
        d = np.ascontiguousarray(self.direction, dtype=float)  # matmul rounds by memory layout
        if d.ndim not in (1, 2) or d.shape[-1] < 2:
            raise BodyError("hyperplane direction must be a vector in R^n, n >= 2, or a stack of them")
        if not (np.abs(np.sqrt((d * d).sum(axis=-1)) - 1.0) <= _UNIT_TOL).all():  # NaN fails too
            raise BodyError("hyperplane direction must be a unit vector (|1 - |d|| <= 1e-12)")
        t = np.asarray(self.offset, dtype=float)
        if t.shape != d.shape[:-1]:
            raise BodyError(f"offset has shape {t.shape}, expected one per direction {d.shape[:-1]}")
        if not np.isfinite(t).all():
            raise BodyError("hyperplane offset must be finite")
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "offset", float(t) if d.ndim == 1 else t)

    @property
    def dim(self):
        return self.direction.shape[-1]


@dataclass
class SectionData:
    """Measure and centroid of a hyperplane section, or of a stack of sections.

    For a stack, ``measure`` holds m values and ``centroid`` is (m, n), with
    NaN rows where a section is degenerate.
    """

    measure: float | np.ndarray
    centroid: np.ndarray | None
    method: SectionMethod
    stderr: float | None = None

    @property
    def degenerate(self):
        """Whether the section is degenerate; for a stack, whether any of its sections is."""
        return self.centroid is None or bool(np.isnan(self.centroid).any())


def _planes(H):
    """(directions (m, n), offsets (m,), whether H is one plane)."""
    single = H.direction.ndim == 1
    return np.atleast_2d(H.direction), np.atleast_1d(H.offset), single


def _section_data(measure, centroid, method, single):
    """SectionData of a stack, or of its one plane, whose degenerate centroid is None."""
    if not single:
        return SectionData(measure, centroid, method)
    c = centroid[0].copy()  # not a view, which would keep the stack alive
    return SectionData(float(measure[0]), None if np.isnan(c[0]) else c, method)


def hyperplane_chart(direction):
    """Deterministic orthonormal basis Q of ``direction^perp`` (columns), (n, n-1).

    One Householder reflection (Householder, J. ACM 5, 1958): with k the
    axis of the largest |x_k| and v = x + sign(x_k) e_k, the reflection
    I - 2 v v^T / v^T v maps e_k to -sign(x_k) x, so its other columns, in
    axis order, span x^perp.  A stack of directions (m, n) gives one chart per
    row, (m, n, n-1), each with the bits of its row's own chart.
    """
    x = np.asarray(direction, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    m, n = x.shape
    rows, k = np.arange(m), np.argmax(np.abs(x), axis=1)
    v = x.copy()
    v[rows, k] += np.copysign(1.0, x[rows, k])
    others = np.arange(n - 1) + (np.arange(n - 1) >= k[:, None])  # the axes other than k, in order
    w = np.take_along_axis(v, others, axis=1) * (2.0 / _dot(v, v))[:, None]
    # e_j - w_j v: subtracting from +0.0 keeps off-axis zeros +0.0
    Q = np.swapaxes(np.eye(n)[others], 1, 2) - v[:, :, None] * w[:, None, :]
    return Q[0] if single else Q


def _ball_cap_fraction(a, n):
    """Fraction of the unit n-ball lying in ``{y : y_1 >= a}``, for each a, clipped to [-1, 1]."""
    a = np.minimum(np.maximum(a, -1.0), 1.0)
    half = 0.5 * betainc((n + 1) / 2.0, 0.5, 1.0 - a * a)
    return np.where(a >= 0.0, half, 1.0 - half)


# --- polytope slicing ------------------------------------------------------


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
    """Canonical (x, t, point_sign) with a sign-fixed direction and nonnegative offset, row by row for a stack.

    The plane is unchanged by flipping (x, t) -> (-x, -t); fixing the sign of the
    first nonzero direction component and then mirroring negative offsets makes
    the centroid of mirrored sections an exact floating-point negation.
    """
    first = np.choose(np.argmax(x != 0.0, axis=-1), x.T)  # each row's first nonzero component
    flip = first < 0.0
    x, t = np.where(flip[..., None], -x, x), np.where(flip, -t, t)
    below = t < 0.0
    return x, np.where(below, -t, t), np.where(below, -1.0, 1.0)


def _segment_sums(a, starts):
    """Sums of the runs of rows of ``a`` that begin at ``starts`` (increasing), one run per plane."""
    return np.add.reduceat(a, starts, axis=0)


def _polytope_cones(K, x, t):
    """Measures, centroids and cones of the sections of a polytope by ``<x_i, y> = t_i``, t_i >= 0.

    ``x`` is an (m, n) stack of directions and ``t`` its m offsets.  Ties
    count as above H, so every slice vertex is an edge fraction in [0, 1).
    Each plane's cones share their apex, the mean of its slice vertices, which
    lies in K ∩ H: every cone volume is nonnegative and no sum cancels, however
    small the section.  The cones of all planes are stacked, plane by plane,
    and summed per plane.  Returns ``(measure, centroid, cones)``: m measures,
    an (m, n) centroid with NaN rows where a section is degenerate, and, if
    any plane has cones, ``cones`` holding the planes that have them
    (``rows``), the first cone of each (``starts``), its cone count
    (``counts``) and, per cone, the index of its plane among ``rows``
    (``group``), the edge-end offsets ``se`` and vertices ``ve`` under each
    slice vertex, the spoke frames ``[x, pts - apex]`` and their signed
    determinants; otherwise None.
    """
    V, simplices, n = K.vertices, K.boundary_simplices, K.dim
    m = len(x)
    measure, centroid = np.zeros(m), np.full((m, n), np.nan)
    d = _apply(V, x)  # (m, vertices), rounded as each plane's own V @ x
    s = d[:, simplices] - t[:, None, None]  # (m, simplices, n)
    weights, valid, ends = _cone_table(n)
    # a plane on or above every vertex cuts nothing, so its simplices get code 0 and no cones
    code = ((s < 0.0) & (t < d.max(axis=1))[:, None, None]) @ weights
    plane, simplex, slot = np.nonzero(valid[code])  # cones in plane order
    if not plane.size:
        return measure, centroid, None
    cols = ends[code[plane, simplex], slot]  # (cones, 2, n-1)
    se = s[plane[:, None, None], simplex[:, None, None], cols]  # (cones, 2, n-1)
    ve = V[simplices[simplex[:, None, None], cols]]  # (cones, 2, n-1, n)
    si, sj, vi, vj = se[:, 0], se[:, 1], ve[:, 0], ve[:, 1]
    pts = vi + (si / (si - sj))[..., None] * (vj - vi)  # (cones, n-1, n)
    counts = np.bincount(plane, minlength=m)
    rows = np.flatnonzero(counts)
    counts = counts[rows]
    starts = np.cumsum(counts) - counts
    group = np.repeat(np.arange(len(rows)), counts)
    apex = _segment_sums(pts.reshape(-1, n), (n - 1) * starts) / ((n - 1) * counts)[:, None]
    # |det[x, spokes]| is the (n-1)-volume of the spokes' parallelotope in H
    frame = np.empty((len(pts), n, n))
    frame[:, 0] = x[plane]
    spokes = frame[:, 1:]
    np.subtract(pts, apex[group][:, None, :], out=spokes)
    signed = np.linalg.det(frame)
    dets = np.abs(signed)
    total = _segment_sums(dets, starts)
    # a cone's centroid is apex + (sum of its spokes) / n
    first_moment = _segment_sums(dets[:, None] * spokes.sum(axis=1), starts)
    ok = total > 0.0
    measure[rows[ok]] = total[ok] / factorial(n - 1)
    centroid[rows[ok]] = apex[ok] + first_moment[ok] / (n * total[ok])[:, None]
    return measure, centroid, (rows, starts, counts, group, se, ve, frame, signed)


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
    """(dc/dx, dc/dt) of the polytope section centroids at canonical planes (x, t), one per plane with cones.

    Every slice vertex v_i + λ (v_j - v_i) is rational in the edge-end offsets
    s = V x - t through λ = s_i / (s_i - s_j), and the centroid depends on x
    only through s: the frame row x scales every cone by the same factor.
    Each cone volume |det F| is differentiated by Jacobi's formula,
    d det F = tr(adj(F) dF), with the cofactors taken as minors so that
    zero-volume cones stay finite.  A slice vertex on H gives the one-sided
    derivative from above.  A plane whose cones all have zero volume gives
    NaN.
    """
    _, starts, counts, group, se, ve, frame, signed = cones
    si, sj, vi, vj = se[:, 0], se[:, 1], ve[:, 0], ve[:, 1]
    den = si - sj  # > 0: the P end is on or above H, the Q end below
    # dλ = phi . (dx, dt), and each slice vertex moves by e dλ along its edge e = v_j - v_i
    phi = np.empty((*si.shape, n + 1))
    phi[..., :n] = (si[..., None] * vj - sj[..., None] * vi) / (den * den)[..., None]
    phi[..., n] = -1.0 / den
    e = vj - vi
    dpts = np.einsum("cki,ckp->cip", e, phi)  # per cone, the summed moves of its slice vertices
    dapex = _segment_sums(dpts, starts) / ((n - 1) * counts)[:, None, None]
    rows, cols, signs = _cofactor_table(n)
    cof = signs * np.linalg.det(frame[:, rows, cols])  # (cones, n-1, n): cofactors of the spoke rows
    # d det = sum over spoke rows k of cof_k . (e_k dλ_k - dapex)
    ddet = np.einsum("ck,ckp->cp", np.einsum("cki,cki->ck", cof, e), phi)
    ddet -= np.einsum("ci,cip->cp", cof.sum(axis=1), dapex[group])
    ddets = np.sign(signed)[:, None] * ddet
    dets = np.abs(signed)
    sums = frame[:, 1:].sum(axis=1)
    total = _segment_sums(dets, starts)
    total = np.where(total > 0.0, total, np.nan)[:, None, None]
    moment = _segment_sums(dets[:, None] * sums, starts)
    # moment = sum_c dets_c sums_c, and d sums_c = dpts_c - (n-1) dapex
    dmoment = _segment_sums(sums[:, :, None] * ddets[:, None, :] + dets[:, None, None] * dpts, starts)
    dmoment -= (n - 1) * total * dapex
    dtotal = _segment_sums(ddets, starts)
    dc = dapex + dmoment / (n * total) - moment[:, :, None] * dtotal[:, None, :] / (n * total * total)
    return dc[..., :n], dc[..., n]


def _hull_volume(cloud):
    """Volume of the convex hull of ``cloud``; 0.0 where qhull aborts."""
    try:
        return ConvexHull(cloud).volume
    except QhullError:
        return 0.0


def _polytope_caps(K, x, t, h):
    """Volumes of a polytope clipped to ``<x_i, y> >= t_i``, given its support ``h`` on the rows of x.

    A plane with t >= h keeps nothing and one with t <= -h keeps K.  A plane
    between them keeps the hull of its cloud: its vertices with d >= t, then
    its vertices with d == t, then the crossings of the edges whose ends lie
    strictly on opposite sides, in edge order, where ``d = V x``.  Every
    plane's cloud is built in one stacked pass and grouped by plane, so a
    qhull hull of each cloud of more than n points is the only per-plane
    step; a smaller cloud is flat and keeps 0.0.
    """
    V, edges, n = K.vertices, K.edges, K.dim
    volume = np.where(t >= h, 0.0, K.volume())
    cut = np.flatnonzero((t < h) & (t > -h))
    volume[cut] = 0.0
    x, t = x[cut], t[cut]
    d = _apply(V, x)  # (planes, vertices), rounded as each plane's own V @ x
    kept_plane, kept = np.nonzero(d >= t[:, None])
    on_plane, on = np.nonzero(d == t[:, None])
    s = d[:, edges] - t[:, None, None]  # (planes, edges, 2)
    cross_plane, cross = np.nonzero(s[..., 0] * s[..., 1] < 0.0)
    i, j = edges[cross].T
    di, dj, tc = d[cross_plane, i], d[cross_plane, j], t[cross_plane]
    crossings = V[i] + ((tc - di) / (dj - di))[:, None] * (V[j] - V[i])
    # each part is in plane order, so a stable sort by plane keeps kept, on-plane, crossings within a plane
    plane = np.concatenate([kept_plane, on_plane, cross_plane])
    cloud = np.concatenate([V[kept], V[on], crossings])[np.argsort(plane, kind="stable")]
    counts = np.bincount(plane, minlength=len(cut))
    starts = np.cumsum(counts) - counts
    rows = np.flatnonzero(counts > n)
    _bind_scipy(globals(), "ConvexHull", "QhullError")
    volume[cut[rows]] = [_hull_volume(cloud[a : a + c]) for a, c in zip(starts[rows].tolist(), counts[rows].tolist())]
    return volume


# --- public operations -----------------------------------------------------


def _check_plane(K, H):
    if H.dim != K.dim:
        raise BodyError("hyperplane and body dimensions differ")


def _support(K, x, support):
    """K's support on the rows of x: ``support`` when the caller has it, else computed."""
    return K.support(x) if support is None else np.atleast_1d(support)


def cap_volume(K, H, *, support=None):
    """n-volume of ``{y in K : <direction, y> >= offset}``; m volumes for a stack of m planes.

    Exact for polytopes in every dimension, closed form for balls and
    ellipsoids; any other body raises ``UnsupportedRepresentation``.
    ``support``, if given, is ``K.support(H.direction)``, which a caller that
    has it passes so it is not computed again.

    A polytope cap is the qhull hull of its plane's cloud, and where qhull
    aborts on a flat or nearly flat cloud the cap reads 0.0, even for a
    nonempty cap such as a thin slab.  A qhull-free cone sum for the cap
    volume (ROADMAP item 3) would mend this.
    """
    _check_plane(K, H)
    x, t, single = _planes(H)
    if isinstance(K, Ball):
        volume = K.volume() * _ball_cap_fraction(t / K.radius, K.dim)
    elif isinstance(K, Ellipsoid):
        # affine reduction: A^{-1/2} maps the unit ball onto K, the cap onto a ball cap
        volume = K.volume() * _ball_cap_fraction(t / _support(K, x, support), K.dim)
    elif isinstance(K, VPolytope):
        volume = _polytope_caps(K, x, t, _support(K, x, support))
    else:
        raise UnsupportedRepresentation(f"no exact cap volume for {type(K).__name__}; use mc_cap_volume")
    return float(volume[0]) if single else volume


def _sections(K, x, t, support):
    """(measures, centroids with NaN rows where degenerate, method) of K's sections by the rows of (x, t)."""
    if isinstance(K, Ball):
        r2 = K.radius**2 - t * t
        cut = r2 > 0.0
        measure = np.where(cut, unit_ball_volume(K.dim - 1) * np.maximum(r2, 0.0) ** ((K.dim - 1) / 2.0), 0.0)
        return measure, np.where(cut[:, None], t[:, None] * x, np.nan), SectionMethod.ANALYTIC
    if isinstance(K, Ellipsoid):
        return *_ellipsoid_sections(K, x, t, _support(K, x, support)), SectionMethod.ANALYTIC
    if isinstance(K, VPolytope):
        xc, tc, sgn = _canonical_plane(x, t)
        measure, centroid, _ = _polytope_cones(K, xc, tc)
        return measure, sgn[:, None] * centroid, SectionMethod.EXACT
    raise UnsupportedRepresentation(f"no exact section for {type(K).__name__}; use mc_section")


def section(K, H, *, support=None):
    """Measure and centroid of ``K ∩ H``, or of each section by a stack of planes.

    Exact for polytopes in every dimension, closed form for balls and
    ellipsoids; any other body raises ``UnsupportedRepresentation``.
    Degenerate sections (|offset| >= support) come back with measure 0 and an
    undefined centroid (None, or a NaN row of a stack); callers must branch
    on ``SectionData.degenerate``.  ``support`` is as in ``cap_volume``.
    """
    _check_plane(K, H)
    x, t, single = _planes(H)
    return _section_data(*_sections(K, x, t, support), single)


def section_partials(K, H, *, support=None):
    """Section of ``K ∩ H`` and the partial derivatives of its centroid.

    With ``c(x, t)`` the centroid of ``K ∩ {y : <x, y> = t}`` on nonzero x,
    returns ``(sec, dc_dx, dc_dt)``: the (n, n) derivative in the normal x
    with t held and the (n,) derivative in the offset t, at H.  Closed forms
    for balls and ellipsoids; for polytopes the derivative of the cone sums
    (one-sided where a vertex lies on H).  A degenerate section gives
    ``(sec, None, None)``.  A stack of m planes gives (m, n, n) and (m, n)
    derivatives, with NaN where a section is degenerate.  ``support`` is as
    in ``cap_volume``.
    """
    _check_plane(K, H)
    x, t, single = _planes(H)
    n = K.dim
    if isinstance(K, VPolytope):
        xc, tc, sgn = _canonical_plane(x, t)
        measure, centroid, cones = _polytope_cones(K, xc, tc)
        dc_dx, dc_dt = np.full((len(x), n, n), np.nan), np.full((len(x), n), np.nan)
        if cones is not None:
            dc_dx[cones[0]], dc_dt[cones[0]] = _polytope_centroid_partials(n, cones)
        # c(x, t) = sgn c~(a x, a sgn t), where a = +-1 fixed the direction's sign
        a = np.where(np.sum(xc * x, axis=1) > 0.0, 1.0, -1.0)
        centroid, dc_dx, dc_dt = sgn[:, None] * centroid, (sgn * a)[:, None, None] * dc_dx, a[:, None] * dc_dt
        method = SectionMethod.EXACT
    else:
        measure, centroid, method = _sections(K, x, t, support)
        # the centroid is t P x / (x^T P x), with P = A^{-1} for an ellipsoid and P = I for a ball
        P = K.inverse_shape if isinstance(K, Ellipsoid) else np.eye(n)
        w = _apply(P, x)
        q = _dot(x, w)[:, None]
        dc_dx = t[:, None, None] * (P - 2.0 * w[:, :, None] * w[:, None, :] / q[:, :, None]) / q[:, :, None]
        dc_dt = w / q
    cut = ~np.isnan(centroid[:, 0])
    dc_dx[~cut], dc_dt[~cut] = np.nan, np.nan
    sec = _section_data(measure, centroid, method, single)
    if not single:
        return sec, dc_dx, dc_dt
    return (sec, dc_dx[0], dc_dt[0]) if cut[0] else (sec, None, None)


def _ellipsoid_sections(K, x, t, h):
    """(measures, centroids with NaN rows where degenerate) of an ellipsoid's sections; h its support on x."""
    tau = t / h
    cut = np.abs(tau) < 1.0
    # K = M(B^n) with M = A^{-1/2}, so K ∩ H = M(B^n ∩ H'), where H' has unit
    # normal v = M x / h and offset tau; the ball section has radius rho and
    # center tau v, which M sends to t A^{-1} x / h^2.  M stretches hyperplane
    # measure on H' by det M |M^{-1} v| = det M / h, and det M = vol K / vol B^n.
    center = t[:, None] * _apply(K.inverse_shape, x) / (h * h)[:, None]
    rho = np.sqrt(np.where(cut, 1.0 - tau * tau, 0.0))
    n = K.dim
    measure = unit_ball_volume(n - 1) * rho ** (n - 1) * K.volume() / (unit_ball_volume(n) * h)
    return measure, np.where(cut[:, None], center, np.nan)


def _mc_box_samples(K, H, samples, seed):
    """K's bounding-box volume and uniform samples of the box, in chunks of at most 2^19 points.

    Checks the plane and the 10^3 sample floor first; the samples are drawn
    from a Philox generator keyed by ``seed``.
    """
    _check_plane(K, H)
    if samples < 10**3:
        raise BodyError("at least 10^3 samples required")
    hw = K.bounding_halfwidths()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    total = int(samples)
    sizes = [min(1 << 19, total - k) for k in range(0, total, 1 << 19)]
    return float(np.prod(2.0 * hw)), (rng.uniform(-1.0, 1.0, size=(m, K.dim)) * hw for m in sizes)


def mc_cap_volume(K, H, samples=MC_DEFAULT_SAMPLES, seed=MC_DEFAULT_SEED):
    """Rejection-sampled cap volume over K's bounding box: (estimate, stderr)."""
    box_vol, chunks = _mc_box_samples(K, H, samples, seed)
    hits = 0
    for pts in chunks:
        inside = K.contains_points(pts) & (pts @ H.direction >= H.offset)
        hits += int(np.count_nonzero(inside))
    p = hits / samples
    return box_vol * p, box_vol * float(np.sqrt(p * (1.0 - p) / samples))


def mc_section(K, H, samples=MC_DEFAULT_SAMPLES, thickness=None, seed=MC_DEFAULT_SEED):
    """Thin-slab Monte Carlo estimate of a section's measure and centroid.

    Estimates ``vol(K ∩ {|<x,y> - t| <= thickness/2}) / thickness`` and the
    conditional mean point (re-projected onto H).  Bias is O(thickness^2).
    """
    box_vol, chunks = _mc_box_samples(K, H, samples, seed)
    if thickness is None:
        thickness = 1e-3 * K.diameter()
    hits = 0
    point_sum = np.zeros(K.dim)
    for pts in chunks:
        in_slab = np.abs(pts @ H.direction - H.offset) <= 0.5 * thickness
        sel = in_slab & K.contains_points(pts)
        hits += int(np.count_nonzero(sel))
        point_sum += pts[sel].sum(axis=0)
    if hits == 0:
        return SectionData(0.0, None, SectionMethod.MONTE_CARLO, stderr=0.0)
    p = hits / samples
    measure = box_vol * p / thickness
    stderr = box_vol * float(np.sqrt(p * (1.0 - p) / samples)) / thickness
    centroid = point_sum / hits
    centroid = centroid + (H.offset - centroid @ H.direction) * H.direction
    return SectionData(measure, centroid, SectionMethod.MONTE_CARLO, stderr)
