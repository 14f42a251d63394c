"""Origin-symmetric convex bodies with support functions, gauges and touching points.

Five closed-form representations are supported: Euclidean balls, ellipsoids
``{x : x^T A x <= 1}``, lp-balls, H-polytopes (facet normals and offsets) and
V-polytopes (vertex lists).  An H-polytope enumerates its vertices once at
construction and is a V-polytope that keeps its own facets.  All bodies are
centrally symmetric; the polytope constructors enforce this structurally by
requiring normals / vertices to be closed under negation.

``support``, ``touch_point``, ``touch_point_jacobian``, ``normal`` and
``normal_jacobian`` take one vector (n,) or a stack of row vectors (m, n),
and a stack gives one result per row.  One vector is the m = 1 case of the
same array code.
"""

from __future__ import annotations

import itertools
import warnings
from functools import cache, cached_property

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection
from scipy.special import gammaln

__all__ = [
    "BodyError",
    "UnsupportedRepresentation",
    "Ball",
    "Ellipsoid",
    "LpBall",
    "HPolytope",
    "VPolytope",
    "cube",
    "unit_ball_volume",
    "sphere_net",
    "contains_body",
]

_SYMMETRY_TOL = 1e-9
LP_CONDITIONING_RANGE = (1.2, 12.0)


class BodyError(ValueError):
    """Invalid body parameters or invalid arguments to a body operation."""


class UnsupportedRepresentation(BodyError):
    """Operation not defined for this representation (e.g. touch point of a polytope)."""


@cache
def unit_ball_volume(n):
    """Volume of the unit Euclidean ball in R^n."""
    return float(np.exp(0.5 * n * np.log(np.pi) - gammaln(0.5 * n + 1.0)))


def _as_vector(u, dim, name="u"):
    u = np.asarray(u, dtype=float)
    if u.shape != (dim,):
        raise BodyError(f"{name} has shape {u.shape}, expected ({dim},)")
    return u


def _as_directions(u, dim):
    """A vector (n,) or a stack of row vectors (m, n)."""
    u = np.asarray(u, dtype=float)
    if u.ndim not in (1, 2) or u.shape[-1] != dim:
        raise BodyError(f"u has shape {u.shape}, expected ({dim},) or (m, {dim})")
    return u


def _first_line(exc):
    """qhull errors run to many lines; the first names the failure."""
    return str(exc).partition("\n")[0]


def _require_nonzero(u):
    if not u.any(axis=-1).all():
        raise BodyError("u must be nonzero")


def _outer(a, b):
    """a b^T for vectors, or row by row for stacks."""
    return a[..., :, None] * b[..., None, :]


def _dot(a, b):
    """a . b for vectors, or row by row for stacks, each rounded as one vector's ``a @ b``."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _apply(M, u):
    """M u for a vector, or for each row of a stack, each rounded as one vector's ``M @ u``."""
    return np.matmul(M, u[..., None])[..., 0]


def _closed_under_negation(rows, negations):
    """Whether each row's negation, the same row of ``negations``, is within ``_SYMMETRY_TOL`` of some row."""
    return all(np.any(np.all(np.abs(rows - r) < _SYMMETRY_TOL, axis=1)) for r in negations)


class ConvexBody:
    """Common interface of all body kinds.

    Subclasses provide ``support``, ``gauge``, ``contains_points``, ``volume``
    and, when strictly convex, ``touch_point`` and ``touch_point_jacobian``.
    ``support`` takes one direction (n,) and returns a float, or a stack of
    directions (m, n) and returns their m values.  The touch point, the normal
    map and their derivatives take the same stacks, and return (m, n) points
    and (m, n, n) derivatives.
    """

    dim: int
    strictly_convex: bool = False
    # the boundary has points of zero curvature: ``touch_point_jacobian`` is unbounded
    # at their normals, and ``normal`` and ``normal_jacobian`` chart the boundary instead
    flat_points: bool = False

    def support(self, u):
        raise NotImplementedError

    def touch_point(self, u):
        raise UnsupportedRepresentation(
            f"{type(self).__name__} is not strictly convex; touching point may be non-unique"
        )

    def touch_point_jacobian(self, u):
        """Derivative of ``touch_point`` at u, the Hessian of the support function."""
        raise UnsupportedRepresentation(
            f"{type(self).__name__} is not strictly convex; its support function has no Hessian"
        )

    def normal(self, y):
        """Unit outer normal at the boundary point on the ray through y."""
        raise UnsupportedRepresentation(f"{type(self).__name__} has no normal map")

    def normal_jacobian(self, y):
        """Derivative of ``normal`` at y."""
        raise UnsupportedRepresentation(f"{type(self).__name__} has no normal map")

    def gauge(self, y):
        raise NotImplementedError

    def contains_points(self, pts):
        """Vectorized membership test for an (m, n) array of points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self._contains(pts)

    def volume(self):
        raise NotImplementedError

    def bounding_halfwidths(self):
        """Axis-aligned bounding box half-widths (support along the axes)."""
        return np.array([self.support(e) for e in np.eye(self.dim)])

    def diameter(self):
        return 2.0 * float(np.linalg.norm(self.bounding_halfwidths()))

    def extreme_directions(self):
        """Representation-specific directions that must be probed by containment checks."""
        return np.eye(self.dim)

    def inradius_lower_bound(self):
        raise NotImplementedError

    def scaled(self, factor):
        """The body scaled by ``factor`` about the origin."""
        raise NotImplementedError


class Ball(ConvexBody):
    strictly_convex = True

    def __init__(self, radius, dim):
        if radius <= 0:
            raise BodyError("ball radius must be positive")
        if dim < 2:
            raise BodyError("dimension must be >= 2")
        self.radius = float(radius)
        self.dim = int(dim)

    def __repr__(self):
        return f"Ball(radius={self.radius}, dim={self.dim})"

    def support(self, u):
        u = _as_directions(u, self.dim)
        if u.ndim == 2:
            return self.radius * np.linalg.norm(u, axis=1)
        return self.radius * float(np.linalg.norm(u))

    def touch_point(self, u):
        u = _as_directions(u, self.dim)
        _require_nonzero(u)
        return self.radius * u / np.linalg.norm(u, axis=-1, keepdims=True)

    def touch_point_jacobian(self, u):
        u = _as_directions(u, self.dim)
        _require_nonzero(u)
        nrm = np.linalg.norm(u, axis=-1, keepdims=True)
        x = u / nrm
        return self.radius * (np.eye(self.dim) - _outer(x, x)) / nrm[..., None]

    def gauge(self, y):
        y = _as_vector(y, self.dim, "y")
        return float(np.linalg.norm(y)) / self.radius

    def _contains(self, pts):
        return np.einsum("ij,ij->i", pts, pts) <= self.radius**2

    def volume(self):
        return unit_ball_volume(self.dim) * self.radius**self.dim

    def inradius_lower_bound(self):
        return self.radius

    def scaled(self, factor):
        return Ball(self.radius * factor, self.dim)


class Ellipsoid(ConvexBody):
    """Centered ellipsoid ``{x : x^T A x <= 1}`` with A positive definite."""

    strictly_convex = True

    def __init__(self, shape_matrix):
        A = np.asarray(shape_matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise BodyError("shape matrix must be square")
        if A.shape[0] < 2:
            raise BodyError("dimension must be >= 2")
        if not np.isfinite(A).all():
            raise BodyError("shape matrix must be finite")
        # rounding of R diag R^T scales with the largest entry, so the tolerance does too
        if np.max(np.abs(A - A.T)) > 1e-12 * np.max(np.abs(A)):
            raise BodyError("shape matrix must be symmetric")
        w, V = np.linalg.eigh(0.5 * (A + A.T))
        if w.min() <= 0:
            raise BodyError("shape matrix must be positive definite")
        self.shape_matrix = 0.5 * (A + A.T)
        self._eigvals = w
        self._eigvecs = V
        self.dim = A.shape[0]
        # constants of the body, read on every section and cap volume
        self._volume = unit_ball_volume(self.dim) / float(np.sqrt(np.prod(w)))
        self._inradius = float(1.0 / np.sqrt(w.max()))

    @classmethod
    def from_semiaxes(cls, semiaxes, rotation=None):
        """Ellipsoid with the given semiaxis lengths, optionally rotated."""
        a = np.asarray(semiaxes, dtype=float)
        if not np.all(a > 0):
            raise BodyError("semiaxes must be positive")
        A = np.diag(1.0 / a**2)
        if rotation is not None:
            R = np.asarray(rotation, dtype=float)
            A = R @ A @ R.T
        return cls(A)

    def __repr__(self):
        return f"Ellipsoid(dim={self.dim}, semiaxes={np.sort(1.0 / np.sqrt(self._eigvals))})"

    @cached_property
    def inverse_shape(self):
        return self._eigvecs @ np.diag(1.0 / self._eigvals) @ self._eigvecs.T

    def support(self, u):
        # each row rounded as one direction's, so a section's support and centroid keep their bits
        u = _as_directions(u, self.dim)
        h = np.sqrt(_dot(u, _apply(self.inverse_shape, u)))
        return h if u.ndim == 2 else float(h)

    def touch_point(self, u):
        u = _as_directions(u, self.dim)
        _require_nonzero(u)
        w = _apply(self.inverse_shape, u)
        return w / np.sqrt(_dot(u, w))[..., None]

    def touch_point_jacobian(self, u):
        # h = sqrt(u^T P u) with P = A^{-1}; the touch point is P u / h
        u = _as_directions(u, self.dim)
        _require_nonzero(u)
        w = _apply(self.inverse_shape, u)
        h = np.sqrt(_dot(u, w))[..., None, None]
        return (self.inverse_shape - _outer(w, w) / (h * h)) / h

    def gauge(self, y):
        y = _as_vector(y, self.dim, "y")
        return float(np.sqrt(y @ self.shape_matrix @ y))

    def _contains(self, pts):
        return np.einsum("ij,jk,ik->i", pts, self.shape_matrix, pts) <= 1.0

    def volume(self):
        return self._volume

    def extreme_directions(self):
        return np.vstack([np.eye(self.dim), self._eigvecs.T])

    def inradius_lower_bound(self):
        return self._inradius

    def scaled(self, factor):
        return Ellipsoid(self.shape_matrix / factor**2)


def _norm_gradient(v, r):
    """||v||_r, a = |v / ||v||_r| and the r-norm's gradient sign(v) a^(r-1) at v, row by row for a stack.

    The norm keeps its last axis, (1,) or (m, 1).
    """
    nr = np.linalg.norm(v, ord=r, axis=-1, keepdims=True)
    a = np.abs(v / nr)
    return nr, a, np.sign(v) * a ** (r - 1.0)


class LpBall(ConvexBody):
    """Scaled lp-ball ``{x : ||x||_p <= s}`` with p in (1, inf)."""

    strictly_convex = True

    def __init__(self, p, scale=1.0, dim=2):
        if not (1.0 < p < np.inf):
            raise BodyError("lp exponent must lie in (1, inf)")
        if scale <= 0:
            raise BodyError("lp scale must be positive")
        if dim < 2:
            raise BodyError("dimension must be >= 2")
        lo, hi = LP_CONDITIONING_RANGE
        if not (lo <= p <= hi):
            warnings.warn(
                f"lp exponent {p} outside [{lo}, {hi}]: touching points are "
                "poorly conditioned near the axes",
                stacklevel=2,
            )
        self.p = float(p)
        self.q = self.p / (self.p - 1.0)
        self.scale = float(scale)
        self.dim = int(dim)
        # for p > 2 the boundary is flat where a coordinate is 0
        self.flat_points = self.p > 2.0

    def __repr__(self):
        return f"LpBall(p={self.p}, scale={self.scale}, dim={self.dim})"

    def support(self, u):
        u = _as_directions(u, self.dim)
        # dual-norm formula: h(u) = s * ||u||_q
        if u.ndim == 2:
            return self.scale * np.linalg.norm(u, ord=self.q, axis=1)
        return self.scale * float(np.linalg.norm(u, ord=self.q))

    def touch_point(self, u):
        u = _as_directions(u, self.dim)
        _require_nonzero(u)
        _, _, y = _norm_gradient(u, self.q)
        return self.scale * y

    def touch_point_jacobian(self, u):
        """Hessian of h(u) = s ||u||_q: (q - 1) s / ||u||_q * (diag |u / ||u||_q|^(q-2) - y y^T).

        Here y is the touch point over s.  For p > 2 (q < 2) the diagonal
        term is unbounded at a zero coordinate, where the boundary of L has
        zero curvature: that entry is +inf.
        """
        u = _as_directions(u, self.dim)
        _require_nonzero(u)
        nq, a, y = _norm_gradient(u, self.q)
        diag = np.zeros(u.shape + (self.dim,))
        with np.errstate(divide="ignore"):
            diag[..., range(self.dim), range(self.dim)] = a ** (self.q - 2.0)
        return (self.q - 1.0) * self.scale / nq[..., None] * (diag - _outer(y, y))

    def normal(self, y):
        # the gradient of the gauge ||y||_p / s, normalized
        y = _as_directions(y, self.dim)
        _require_nonzero(y)
        _, _, w = _norm_gradient(y, self.p)
        return w / np.linalg.norm(w, axis=-1, keepdims=True)

    def normal_jacobian(self, y):
        """(p - 1) / (||y||_p |w|) * (I - z z^T) diag |y / ||y||_p|^(p-2).

        Here w = sign(y) |y / ||y||_p|^(p-1) is the gradient of ||y||_p and
        z = w / |w| the normal.  For p > 2 it is bounded, and zero along a
        zero coordinate of y.
        """
        y = _as_directions(y, self.dim)
        _require_nonzero(y)
        npy, a, w = _norm_gradient(y, self.p)
        nw = np.linalg.norm(w, axis=-1, keepdims=True)
        z = w / nw
        scale = (self.p - 1.0) / (npy * nw)
        return scale[..., None] * ((np.eye(self.dim) - _outer(z, z)) * a[..., None, :] ** (self.p - 2.0))

    def gauge(self, y):
        y = _as_vector(y, self.dim, "y")
        return float(np.linalg.norm(y, ord=self.p)) / self.scale

    def _contains(self, pts):
        return np.sum(np.abs(pts / self.scale) ** self.p, axis=1) <= 1.0

    def volume(self):
        # (2 s Gamma(1+1/p))^n / Gamma(1+n/p)
        n, p = self.dim, self.p
        logv = n * (np.log(2 * self.scale) + gammaln(1 + 1 / p)) - gammaln(1 + n / p)
        return float(np.exp(logv))

    def inradius_lower_bound(self):
        # inscribed ball touches at the diagonal for p < 2, at the axes for p >= 2
        if self.p >= 2.0:
            return self.scale
        return self.scale * self.dim ** (0.5 - 1.0 / self.p)

    def scaled(self, factor):
        return LpBall(self.p, self.scale * factor, self.dim)


class VPolytope(ConvexBody):
    """Convex hull of a vertex list closed under negation."""

    strictly_convex = False

    def __init__(self, vertices):
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2:
            raise BodyError("vertices must be an (m, n) array")
        if V.shape[1] < 2:
            raise BodyError("dimension must be >= 2")
        self.dim = V.shape[1]
        if not _closed_under_negation(V, -V):
            raise BodyError("vertex list is not closed under negation")
        try:
            hull = ConvexHull(V)
        except Exception as exc:
            raise BodyError(f"degenerate vertex set: {_first_line(exc)}") from exc
        self._hull = hull
        self.vertices = V[hull.vertices]
        if np.linalg.matrix_rank(self.vertices) < self.dim:
            raise BodyError("vertex set does not span R^n")
        # every containment-margin check reads this; an H-polytope's own facets are set by now
        normals, offsets = self.facet_equations
        self._inradius = float(np.min(offsets / np.linalg.norm(normals, axis=1)))

    @classmethod
    def symmetric_hull(cls, points):
        """Convex hull of the given points together with their negatives."""
        P = np.asarray(points, dtype=float)
        return cls(np.vstack([P, -P]))

    def __repr__(self):
        return f"VPolytope(vertices={len(self.vertices)}, dim={self.dim})"

    @cached_property
    def facet_equations(self):
        """Hull facets as (normals, offsets) with ``<n_i, x> <= b_i``."""
        eq = self._hull.equations  # rows [a, c] with a.x + c <= 0
        normals = eq[:, :-1]
        offsets = -eq[:, -1]
        return normals, offsets

    @cached_property
    def boundary_simplices(self):
        """(F, n) indices into ``vertices`` of the construction hull's boundary simplices.

        qhull triangulates non-simplicial facets, so these (n-1)-simplices tile
        the boundary of the polytope; in 2-D they are its edges.
        """
        hull = self._hull
        row = np.empty(len(hull.points), dtype=int)
        row[hull.vertices] = np.arange(len(hull.vertices))
        return row[hull.simplices]

    @cached_property
    def edges(self):
        """Sorted index pairs into ``vertices`` of the edges of the boundary simplices.

        The pairs may include diagonals of non-simplicial facets; these are
        harmless for slicing, as their crossing points lie on the slice
        polytope, never outside it.
        """
        pairs = np.sort(self.boundary_simplices[:, list(itertools.combinations(range(self.dim), 2))], axis=2)
        return np.unique(pairs.reshape(-1, 2), axis=0)

    def support(self, u):
        u = _as_directions(u, self.dim)
        if u.ndim == 2:
            return np.max(u @ self.vertices.T, axis=1)
        return float(np.max(self.vertices @ u))

    def gauge(self, y):
        # qhull facet equations are not bitwise symmetric; |.| restores exact evenness
        y = _as_vector(y, self.dim, "y")
        normals, offsets = self.facet_equations
        return float(np.max(np.abs(normals @ y) / offsets))

    def _contains(self, pts):
        normals, offsets = self.facet_equations
        return np.all(pts @ normals.T <= offsets[None, :] + 1e-12, axis=1)

    def volume(self):
        return float(self._hull.volume)

    def extreme_directions(self):
        vn = self.vertices / np.linalg.norm(self.vertices, axis=1, keepdims=True)
        normals, _ = self.facet_equations
        return np.vstack([vn, normals])

    def inradius_lower_bound(self):
        return self._inradius


class HPolytope(VPolytope):
    """Intersection of halfspaces ``<n_i, x> <= b_i`` with unit normals closed under negation.

    The vertices are enumerated once at construction, so an H-polytope is a
    V-polytope whose facets are the given halfspaces.
    """

    def __init__(self, normals, offsets):
        N = np.asarray(normals, dtype=float)
        b = np.asarray(offsets, dtype=float)
        if N.ndim != 2 or N.shape[0] != b.shape[0]:
            raise BodyError("normals and offsets must have matching first dimension")
        if N.shape[1] < 2:
            raise BodyError("dimension must be >= 2")
        if np.any(b <= 0):
            raise BodyError("all offsets must be positive (origin interior)")
        norms = np.linalg.norm(N, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise BodyError("facet normals must be unit vectors")
        self.normals = N
        self.offsets = b
        # the negation of the halfspace <n, x> <= b is <-n, x> <= b
        if not _closed_under_negation(np.hstack([N, b[:, None]]), np.hstack([-N, b[:, None]])):
            raise BodyError("facet list is not closed under negation")
        try:
            # qhull reports unbounded regions as a degenerate dual hull
            pts = HalfspaceIntersection(np.hstack([N, -b[:, None]]), np.zeros(N.shape[1])).intersections
        except Exception as exc:
            raise BodyError(f"halfspace intersection failed (unbounded?): {_first_line(exc)}") from exc
        super().__init__(pts)

    def __repr__(self):
        return f"HPolytope(facets={len(self.offsets)}, dim={self.dim})"

    @property
    def facet_equations(self):
        return self.normals, self.offsets

    def _contains(self, pts):
        # no slack: the given facets are exact, unlike qhull's
        return np.all(pts @ self.normals.T <= self.offsets[None, :], axis=1)


def cube(halfwidth, dim):
    """Axis-aligned cube ``[-w, w]^n`` as an H-polytope."""
    eye = np.eye(dim)
    return HPolytope(np.vstack([eye, -eye]), np.full(2 * dim, float(halfwidth)))


def sphere_net(dim, size=None):
    """Deterministic low-discrepancy net of unit directions, read-only.

    n=2 uses a uniform angle grid; higher dimensions map an unscrambled Sobol
    sequence through the normal quantile and normalize.  The Sobol point
    (1/2, ..., 1/2) maps to the zero vector and is dropped, so for n >= 3 the
    net has ``size - 1`` rows.  Each net is built once per (dim, size).
    """
    if size is None:
        size = 4096 if dim <= 4 else 4096 * 2 ** (dim - 4)
    return _sphere_net(dim, size)


@cache
def _sphere_net(dim, size):
    if dim == 2:
        theta = np.arange(size) * (2.0 * np.pi / size)
        net = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        from scipy.special import ndtri
        from scipy.stats import qmc

        sob = qmc.Sobol(d=dim, scramble=False)
        sob.fast_forward(1)  # skip the all-zeros point
        g = ndtri(sob.random(size))
        norms = np.linalg.norm(g, axis=1)
        keep = norms > 1e-12
        net = g[keep] / norms[keep, None]
    net.setflags(write=False)  # shared by every caller through the cache
    return net


def contains_body(outer, inner, margin=0.0):
    """Test ``inner + margin <= outer`` in support-function terms.

    Exact when the outer body is a polytope (one support test per facet).
    Otherwise it compares support functions, one array call per body, on a
    deterministic direction net plus both bodies' extreme directions: False
    always names a real violation, but a violation that falls between those
    directions is accepted.
    """
    if outer.dim != inner.dim:
        raise BodyError("dimension mismatch")
    if margin < 0:
        raise BodyError("margin must be nonnegative")
    if isinstance(outer, VPolytope):
        dirs, bounds = outer.facet_equations
    else:
        dirs = np.vstack([sphere_net(outer.dim), outer.extreme_directions(), inner.extreme_directions()])
        bounds = outer.support(dirs)
    return bool(np.all(inner.support(dirs) <= bounds - margin))
