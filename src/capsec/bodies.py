"""Origin-symmetric convex bodies with support functions, gauges and touching points.

Five closed-form representations are supported: Euclidean balls, ellipsoids
``{x : x^T A x <= 1}``, lp-balls, H-polytopes (facet normals and offsets) and
V-polytopes (vertex lists).  All bodies are centrally symmetric; the polytope
constructors enforce this structurally by requiring normals / vertices to be
closed under negation.
"""

from __future__ import annotations

import itertools
import warnings
from functools import cached_property

import numpy as np
from scipy.optimize import linprog
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


def unit_ball_volume(n):
    """Volume of the unit Euclidean ball in R^n."""
    return float(np.exp(0.5 * n * np.log(np.pi) - gammaln(0.5 * n + 1.0)))


def _as_vector(u, dim, name="u"):
    u = np.asarray(u, dtype=float)
    if u.shape != (dim,):
        raise BodyError(f"{name} has shape {u.shape}, expected ({dim},)")
    return u


def _require_nonzero(u, name="u"):
    if not u.any():
        raise BodyError(f"{name} must be nonzero")


class ConvexBody:
    """Common interface of all body kinds.

    Subclasses provide ``support``, ``gauge``, ``contains_points``, ``volume``
    and, when strictly convex, ``touch_point``.
    """

    dim: int
    strictly_convex: bool = False

    def support(self, u):
        raise NotImplementedError

    def touch_point(self, u):
        raise UnsupportedRepresentation(
            f"{type(self).__name__} is not strictly convex; touching point may be non-unique"
        )

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
        u = _as_vector(u, self.dim)
        _require_nonzero(u)
        return self.radius * float(np.linalg.norm(u))

    def touch_point(self, u):
        u = _as_vector(u, self.dim)
        _require_nonzero(u)
        return self.radius * u / np.linalg.norm(u)

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
        if not np.allclose(A, A.T, atol=1e-12):
            raise BodyError("shape matrix must be symmetric")
        w, V = np.linalg.eigh(0.5 * (A + A.T))
        if w.min() <= 0:
            raise BodyError("shape matrix must be positive definite")
        self.shape_matrix = 0.5 * (A + A.T)
        self._eigvals = w
        self._eigvecs = V
        self.dim = A.shape[0]

    @classmethod
    def from_semiaxes(cls, semiaxes, rotation=None):
        """Ellipsoid with the given semiaxis lengths, optionally rotated."""
        a = np.asarray(semiaxes, dtype=float)
        if np.any(a <= 0):
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

    @cached_property
    def inv_sqrt_shape(self):
        # maps the unit ball onto the ellipsoid
        return self._eigvecs @ np.diag(1.0 / np.sqrt(self._eigvals)) @ self._eigvecs.T

    def support(self, u):
        u = _as_vector(u, self.dim)
        _require_nonzero(u)
        return float(np.sqrt(u @ self.inverse_shape @ u))

    def touch_point(self, u):
        u = _as_vector(u, self.dim)
        _require_nonzero(u)
        w = self.inverse_shape @ u
        return w / np.sqrt(u @ w)

    def gauge(self, y):
        y = _as_vector(y, self.dim, "y")
        return float(np.sqrt(y @ self.shape_matrix @ y))

    def _contains(self, pts):
        return np.einsum("ij,jk,ik->i", pts, self.shape_matrix, pts) <= 1.0

    def volume(self):
        return unit_ball_volume(self.dim) / float(np.sqrt(np.prod(self._eigvals)))

    def extreme_directions(self):
        return np.vstack([np.eye(self.dim), self._eigvecs.T])

    def semiaxes(self):
        return 1.0 / np.sqrt(self._eigvals)

    def inradius_lower_bound(self):
        return float(1.0 / np.sqrt(self._eigvals.max()))

    def scaled(self, factor):
        return Ellipsoid(self.shape_matrix / factor**2)


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

    def __repr__(self):
        return f"LpBall(p={self.p}, scale={self.scale}, dim={self.dim})"

    def support(self, u):
        u = _as_vector(u, self.dim)
        _require_nonzero(u)
        # dual-norm formula: h(u) = s * ||u||_q
        return self.scale * float(np.linalg.norm(u, ord=self.q))

    def touch_point(self, u):
        u = _as_vector(u, self.dim)
        _require_nonzero(u)
        nq = np.linalg.norm(u, ord=self.q)
        y = np.sign(u) * np.abs(u / nq) ** (self.q - 1.0)
        return self.scale * y

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


class HPolytope(ConvexBody):
    """Intersection of halfspaces ``<n_i, x> <= b_i`` with unit normals closed under negation."""

    strictly_convex = False

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
        self.dim = N.shape[1]
        self._check_symmetry()

    def _check_symmetry(self):
        rows = np.hstack([self.normals, self.offsets[:, None]])
        neg = np.hstack([-self.normals, self.offsets[:, None]])
        for r in rows:
            if not np.any(np.all(np.abs(neg - r) < _SYMMETRY_TOL, axis=1)):
                raise BodyError("facet list is not closed under negation")

    def __repr__(self):
        return f"HPolytope(facets={len(self.offsets)}, dim={self.dim})"

    @cached_property
    def vertices(self):
        """Enumerated vertices (cached); requires boundedness."""
        hs = np.hstack([self.normals, -self.offsets[:, None]])
        try:
            hi = HalfspaceIntersection(hs, np.zeros(self.dim))
        except Exception as exc:  # qhull reports unbounded regions this way
            raise BodyError(f"halfspace intersection failed (unbounded?): {exc}") from exc
        pts = hi.intersections
        hull = ConvexHull(pts)
        return pts[hull.vertices]

    def support(self, u):
        u = _as_vector(u, self.dim)
        _require_nonzero(u)
        return float(np.max(self.vertices @ u))

    def gauge(self, y):
        # facet list is closed under negation, so |.| is exact and makes
        # gauge(y) == gauge(-y) bitwise
        y = _as_vector(y, self.dim, "y")
        return float(np.max(np.abs(self.normals @ y) / self.offsets))

    def _contains(self, pts):
        return np.all(pts @ self.normals.T <= self.offsets[None, :], axis=1)

    def volume(self):
        return float(ConvexHull(self.vertices).volume)

    def extreme_directions(self):
        vn = self.vertices / np.linalg.norm(self.vertices, axis=1, keepdims=True)
        return np.vstack([self.normals, vn])

    def inradius_lower_bound(self):
        return float(self.offsets.min())

    def scaled(self, factor):
        return HPolytope(self.normals, self.offsets * factor)


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
        self._check_symmetry(V)
        try:
            hull = ConvexHull(V)
        except Exception as exc:
            raise BodyError(f"degenerate vertex set: {exc}") from exc
        self._hull = hull
        self.vertices = V[hull.vertices]
        if np.linalg.matrix_rank(self.vertices) < self.dim:
            raise BodyError("vertex set does not span R^n")

    @staticmethod
    def _check_symmetry(V):
        for v in V:
            if not np.any(np.all(np.abs(V + v) < _SYMMETRY_TOL, axis=1)):
                raise BodyError("vertex list is not closed under negation")

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
    def edges(self):
        """Index pairs of 1-faces (may include facet diagonals from qhull's triangulation).

        Extra in-facet diagonals are harmless for slicing: their crossing points
        lie on the slice polytope, never outside it.
        """
        V = self.vertices
        hull = ConvexHull(V)
        pairs = set()
        if self.dim == 2:
            order = hull.vertices
            for a, b in zip(order, np.roll(order, -1)):
                pairs.add((min(a, b), max(a, b)))
        else:
            for simplex in hull.simplices:
                for a, b in itertools.combinations(simplex, 2):
                    pairs.add((min(a, b), max(a, b)))
        return np.array(sorted(pairs), dtype=int)

    def support(self, u):
        u = _as_vector(u, self.dim)
        _require_nonzero(u)
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
        normals, offsets = self.facet_equations
        scale = np.linalg.norm(normals, axis=1)
        return float(np.min(offsets / scale))

    def scaled(self, factor):
        return VPolytope(self.vertices * factor)


def cube(halfwidth, dim):
    """Axis-aligned cube ``[-w, w]^n`` as an H-polytope."""
    eye = np.eye(dim)
    return HPolytope(np.vstack([eye, -eye]), np.full(2 * dim, float(halfwidth)))


def sphere_net(dim, size=None):
    """Deterministic low-discrepancy net of unit directions.

    n=2 uses a uniform angle grid; higher dimensions map an unscrambled Sobol
    sequence through the normal quantile and normalize.
    """
    if size is None:
        size = 4096 if dim <= 4 else 4096 * 2 ** (dim - 4)
    if dim == 2:
        theta = np.arange(size) * (2.0 * np.pi / size)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    from scipy.special import ndtri
    from scipy.stats import qmc

    sob = qmc.Sobol(d=dim, scramble=False)
    sob.fast_forward(1)  # skip the all-zeros point
    g = ndtri(sob.random(size))
    norms = np.linalg.norm(g, axis=1)
    keep = norms > 1e-12
    return g[keep] / norms[keep, None]


def contains_body(outer, inner, margin=0.0, net_size=None):
    """Conservative test for ``inner + margin <= outer`` in support-function terms.

    Exact when the outer body is an H-polytope; otherwise checks a deterministic
    direction net plus both bodies' extreme directions, so near-touching pairs
    may be rejected but a violation found on the net is never accepted.
    """
    if outer.dim != inner.dim:
        raise BodyError("dimension mismatch")
    if margin < 0:
        raise BodyError("margin must be nonnegative")
    if isinstance(outer, HPolytope):
        return all(
            inner.support(nrm) <= off - margin
            for nrm, off in zip(outer.normals, outer.offsets)
        )
    dirs = np.vstack(
        [
            sphere_net(outer.dim, net_size),
            outer.extreme_directions(),
            inner.extreme_directions(),
        ]
    )
    if isinstance(inner, VPolytope):
        # support of inner is a max over vertices; check each vertex separately
        for u in dirs:
            if np.max(inner.vertices @ u) > outer.support(u) - margin:
                return False
        return True
    return all(inner.support(u) <= outer.support(u) - margin for u in dirs)
