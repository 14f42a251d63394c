"""Origin-symmetric convex bodies with support functions, gauges and touching points.

Five closed-form representations are supported: Euclidean balls, ellipsoids
``{x : x^T A x <= 1}``, lp-balls, H-polytopes (facet normals and offsets) and
V-polytopes (vertex lists).  An H-polytope enumerates its vertices once at
construction and is a V-polytope that keeps its own facets.  All bodies are
centrally symmetric; the polytope constructors enforce this structurally by
requiring normals / vertices to be closed under negation.

``support``, ``gauge``, ``touch_point``, ``touch_point_jacobian``, ``normal``
and ``normal_jacobian`` take one vector (n,) or a stack of row vectors (m, n),
and a stack gives one result per row.  Each has one expression per body,
and a stack is read in C order, so a row equals the call on its direction
alone bit for bit, in any stack and any memory order.

Importing capsec loads no scipy module: the normal quantile of the direction
net (``_ndtri``) and the log-gamma of the unit-ball and lp-ball volumes
(``_lgam``) are ports of Cephes, bit for bit what ``scipy.special`` returns.
``scipy.spatial`` loads with the first polytope: ``_bind_scipy`` binds a
scipy name into a capsec module on its first use there, or on first
attribute access through that module's PEP 562 ``__getattr__``.
"""

from __future__ import annotations

import importlib
import itertools
import math
import warnings
from functools import cache, cached_property

import numpy as np

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
    "SPHERE_NET_MAX_DIM",
    "contains_body",
]

_SYMMETRY_TOL = 1e-9
# entries in one block of VPolytope.edges' pair-by-vertex miss counts: 32 MB of floats
_EDGE_BLOCK = 2**22
LP_CONDITIONING_RANGE = (1.2, 12.0)


# where each scipy name bound on first use is defined
_SCIPY_HOMES = {
    "ConvexHull": "scipy.spatial",
    "HalfspaceIntersection": "scipy.spatial",
    "QhullError": "scipy.spatial",
    "linprog": "scipy.optimize",
}


def _bind_scipy(namespace, *names):
    """Bind scipy names into a module namespace, importing their module on first need; returns the last.

    A name the namespace binds already, such as a wrapper patched in by a
    tracer or a test, is kept.  Call sites bind what they use and then look it
    up as a module global, so a patched name is the one called.
    """
    for name in names:
        if name not in namespace:
            namespace[name] = getattr(importlib.import_module(_SCIPY_HOMES[name]), name)
    return namespace[names[-1]]


def __getattr__(name):
    # PEP 562: getattr(bodies, name) binds the scipy name, so a tracer or test can patch the binding
    if name in ("ConvexHull", "HalfspaceIntersection"):
        return _bind_scipy(globals(), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class BodyError(ValueError):
    """Invalid body parameters or invalid arguments to a body operation."""


class UnsupportedRepresentation(BodyError):
    """Operation not defined for this representation (e.g. touch point of a polytope)."""


# --- Cephes special functions ----------------------------------------------
# Ports of Cephes (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989) as scipy.special runs them, so each returns scipy's bits: the same
# coefficients, the same order of operations, and the C library's log, which
# ``math.log`` calls and numpy's vectorised ``np.log`` may round differently.


def _polevl(x, coefficients):
    """c_0 x^N + ... + c_N by Horner's rule, as Cephes ``polevl``."""
    acc = coefficients[0]
    for c in coefficients[1:]:
        acc = acc * x + c
    return acc


def _p1evl(x, coefficients):
    """x^N + c_0 x^(N-1) + ... + c_(N-1), whose leading coefficient 1 is implied, as Cephes ``p1evl``."""
    acc = x + coefficients[0]
    for c in coefficients[1:]:
        acc = acc * x + c
    return acc


def _libm_log(x):
    """The C library's log of each entry of an array."""
    return np.fromiter(map(math.log, x.tolist()), dtype=float, count=x.size)


_SQRT_2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189  # exp(-2)
# ndtri: (w + w^3 P0(w^2)/Q0(w^2)) sqrt(2 pi) with w = y - 1/2, for |w| <= 1/2 - exp(-2)
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
# the tails, in z = 1 / sqrt(-2 log y): P1/Q1 for sqrt(-2 log y) in [2, 8), P2/Q2 from 8 on
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _ndtri(p):
    """The standard normal quantile of each entry of an array, Cephes ``ndtri``.

    An entry p above 1 - exp(-2) is reflected to y = 1 - p, and its result
    negated; otherwise y = p.  For y above exp(-2) a rational approximation
    in y - 1/2 holds.  Below it, with x = sqrt(-2 log y), the quantile is
    -(x - log(x)/x - z P(z)/Q(z)) in z = 1/x, with one rational pair for
    x < 8 and another from 8 on.  0 gives -inf, 1 gives inf, and an entry
    outside [0, 1] gives NaN.
    """
    p = np.asarray(p, dtype=float)
    out = np.full(p.shape, np.nan)
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    central = y > _EXP_M2
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))) * _SQRT_2PI
    tail = (y > 0.0) & (y <= _EXP_M2)
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    far = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    near = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    x = x0 - np.where(x < 8.0, near, far)
    out[tail] = np.where(upper[tail], x, -x)
    out[p == 0.0] = -np.inf
    out[p == 1.0] = np.inf
    return out


_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
# Stirling's series from 13 on
_LGAM_A = (
    8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
    -2.77777777730099687205e-3, 8.33333333333331927722e-2,
)
# log Gamma(2 + x) = x B(x)/C(x) on [0, 1)
_LGAM_B = (
    -1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
    -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5,
)
_LGAM_C = (
    -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
    -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6,
)


def _lgam(x):
    """log Gamma(x) for a float x > 0, Cephes ``lgam``.

    Below 13 the argument is shifted into [2, 3) by the recurrence
    Gamma(x + 1) = x Gamma(x), whose factors are collected in z, and a
    rational approximation gives the rest; from 13 on Stirling's series.
    """
    x = float(x)
    if x < 13.0:
        z, shift, u = 1.0, 0.0, x
        while u >= 3.0:
            shift -= 1.0
            u = x + shift
            z *= u
        while u < 2.0:
            z /= u
            shift += 1.0
            u = x + shift
        if u == 2.0:
            return math.log(z)
        x += shift - 2.0
        return math.log(z) + x * _polevl(x, _LGAM_B) / _p1evl(x, _LGAM_C)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


@cache
def unit_ball_volume(n):
    """Volume of the unit Euclidean ball in R^n."""
    return float(np.exp(0.5 * n * np.log(np.pi) - _lgam(0.5 * n + 1.0)))


def _as_directions(u, dim):
    """A vector (n,) or a stack of row vectors (m, n), in C order: matmul rounds by memory layout."""
    u = np.ascontiguousarray(u, dtype=float)
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
    ``support`` and ``gauge`` take one vector (n,) and return a float, or a
    stack of vectors (m, n) and return their m values.  The touch point, the normal
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
        return self.support(np.eye(self.dim))

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
        if not 0.0 < radius < np.inf:  # NaN fails too
            raise BodyError("ball radius must be positive and finite")
        if dim < 2:
            raise BodyError("dimension must be >= 2")
        self.radius = float(radius)
        self.dim = int(dim)

    def __repr__(self):
        return f"Ball(radius={self.radius}, dim={self.dim})"

    def support(self, u):
        u = _as_directions(u, self.dim)
        h = self.radius * np.linalg.norm(u, axis=-1)
        return h if u.ndim == 2 else float(h)

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
        y = _as_directions(y, self.dim)
        g = np.sqrt(_dot(y, y)) / self.radius
        return g if y.ndim == 2 else float(g)

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
        y = _as_directions(y, self.dim)
        g = np.sqrt(_dot(y, _apply(self.shape_matrix, y)))
        return g if y.ndim == 2 else float(g)

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
        if not 0.0 < scale < np.inf:
            raise BodyError("lp scale must be positive and finite")
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
        # dual-norm formula: h(u) = s * ||u||_q; the kept axis makes a vector's power an array's, as a row's is
        u = _as_directions(u, self.dim)
        h = self.scale * np.linalg.norm(u, ord=self.q, axis=-1, keepdims=True)[..., 0]
        return h if u.ndim == 2 else float(h)

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
        # the kept axis makes a vector's power an array's, as in ``support``
        y = _as_directions(y, self.dim)
        g = np.linalg.norm(y, ord=self.p, axis=-1, keepdims=True)[..., 0] / self.scale
        return g if y.ndim == 2 else float(g)

    def _contains(self, pts):
        return np.sum(np.abs(pts / self.scale) ** self.p, axis=1) <= 1.0

    def volume(self):
        # (2 s Gamma(1+1/p))^n / Gamma(1+n/p)
        n, p = self.dim, self.p
        logv = n * (np.log(2 * self.scale) + _lgam(1 + 1 / p)) - _lgam(1 + n / p)
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
        if not np.isfinite(V).all():
            raise BodyError("vertices must be finite")
        if not _closed_under_negation(V, -V):
            raise BodyError("vertex list is not closed under negation")
        _bind_scipy(globals(), "ConvexHull")
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
        """Sorted index pairs into ``vertices`` of the polytope's edges.

        Each edge is a pair of some boundary simplex.  qhull triangulates a
        non-simplicial facet into simplices that share its equation, so their
        pairs also hold the facet's diagonals.  A pair is an edge when the
        vertices lying on every facet through both of its ends are those two
        alone: the smallest face holding both is then a segment.  A
        simplicial polytope keeps every pair.
        """
        simplices = self.boundary_simplices
        pairs = np.sort(simplices[:, list(itertools.combinations(range(self.dim), 2))], axis=2)
        pairs = np.unique(pairs.reshape(-1, 2), axis=0)
        _, facet = np.unique(self._hull.equations, axis=0, return_inverse=True)
        facet = facet.ravel()
        if facet.max() + 1 == len(simplices):
            return pairs
        on = np.zeros((len(self.vertices), facet.max() + 1), dtype=bool)  # vertex on facet
        on[simplices, facet[:, None]] = True
        off = (~on).T.astype(float)
        keep = np.empty(len(pairs), dtype=bool)
        step = max(1, _EDGE_BLOCK // len(self.vertices))  # bounds the (pairs, vertices) block
        for start in range(0, len(pairs), step):
            block = pairs[start : start + step]
            through = on[block[:, 0]] & on[block[:, 1]]  # (pairs, facets)
            # a vertex is off the smallest face holding a pair when some facet through the pair misses it
            misses = through.astype(float) @ off  # (pairs, vertices)
            keep[start : start + step] = np.count_nonzero(misses == 0.0, axis=1) == 2
        return pairs[keep]

    def support(self, u):
        # V u row by row: a matrix product's BLAS kernel, so its rounding, depends on the stack's size
        u = _as_directions(u, self.dim)
        h = np.max(_apply(self.vertices, u), axis=-1)
        return h if u.ndim == 2 else float(h)

    def gauge(self, y):
        # qhull facet equations are not bitwise symmetric; |.| restores exact evenness
        y = _as_directions(y, self.dim)
        normals, offsets = self.facet_equations
        g = np.max(np.abs(_apply(normals, y)) / offsets, axis=-1)
        return g if y.ndim == 2 else float(g)

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
        if not np.all((b > 0) & (b < np.inf)):  # NaN fails too
            raise BodyError("all offsets must be positive and finite (origin interior)")
        norms = np.linalg.norm(N, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise BodyError("facet normals must be unit vectors")
        self.normals = N
        self.offsets = b
        # the negation of the halfspace <n, x> <= b is <-n, x> <= b
        if not _closed_under_negation(np.hstack([N, b[:, None]]), np.hstack([-N, b[:, None]])):
            raise BodyError("facet list is not closed under negation")
        _bind_scipy(globals(), "HalfspaceIntersection")
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


# Joe & Kuo's direction numbers (new-joe-kuo-6.21201; S. Joe and F. Y. Kuo, SIAM J. Sci.
# Comput. 30 (2008) 2635-2654), as scipy.stats.qmc.Sobol ships them, for dimensions 2 to 32:
# (poly, (m_1, ..., m_s)) per dimension.  poly is the primitive polynomial of degree s with its
# leading and constant terms, x^s + a_1 x^(s-1) + ... + a_(s-1) x + 1, so a_k is bit s - k.
# The first dimension has every direction integer 1 and no row.
_SOBOL_DIRECTION_NUMBERS = (
    (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)), (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)), (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)),
    (55, (1, 1, 5, 1, 1)), (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)),
    (67, (1, 3, 3, 9, 7, 49)), (91, (1, 1, 1, 15, 21, 21)), (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)), (115, (1, 1, 5, 5, 19, 61)),
    (131, (1, 3, 7, 11, 23, 15, 103)), (137, (1, 3, 7, 13, 13, 15, 69)),
    (143, (1, 1, 3, 13, 7, 35, 63)), (145, (1, 3, 5, 9, 1, 25, 53)),
    (157, (1, 3, 1, 13, 9, 35, 107)), (167, (1, 3, 1, 5, 27, 61, 31)),
    (171, (1, 1, 5, 11, 19, 41, 61)), (185, (1, 3, 5, 3, 3, 13, 69)),
    (191, (1, 1, 7, 13, 1, 19, 1)), (193, (1, 3, 7, 5, 13, 19, 59)),
    (203, (1, 1, 3, 9, 25, 29, 41)), (211, (1, 3, 5, 13, 23, 1, 55)),
    (213, (1, 3, 7, 3, 13, 59, 17)),
)
_SOBOL_BITS = 30
SPHERE_NET_MAX_DIM = len(_SOBOL_DIRECTION_NUMBERS) + 1


def _is_count(x):
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def sphere_net(dim, size=None):
    """Deterministic low-discrepancy net of unit directions, read-only.

    n=2 uses a uniform angle grid; higher dimensions map the unscrambled
    Sobol sequence, generated here from Joe and Kuo's direction numbers bit
    for bit as scipy's ``qmc.Sobol`` draws it (``scipy.stats`` is never
    imported), through the normal quantile and normalize.  The Sobol point
    (1/2, ..., 1/2) maps to the zero vector and is dropped, so for n >= 3 the
    net has ``size - 1`` rows.  ``dim`` is an integer in
    [2, ``SPHERE_NET_MAX_DIM``] and ``size`` an integer in [1, 2^30), the
    30-bit Sobol sequence's length after its all-zeros point; the default
    size, 4096 * 2^(dim - 4) from n = 4 on, fits up to dim 21.  Each net is
    built once per (dim, size).
    """
    if not (_is_count(dim) and 2 <= dim <= SPHERE_NET_MAX_DIM):
        raise BodyError(f"net dimension must be an integer in [2, {SPHERE_NET_MAX_DIM}]")
    if size is None:
        size = 4096 if dim <= 4 else 4096 * 2 ** (dim - 4)
    if not (_is_count(size) and 1 <= size < 2**_SOBOL_BITS):
        raise BodyError(f"net size must be a positive count below 2^{_SOBOL_BITS}")
    return _sphere_net(int(dim), int(size))


def _sobol_points(dim, size):
    """Points 1 to ``size`` of the unscrambled 30-bit Sobol sequence in Gray-code order, as (size, dim).

    Bit for bit what ``scipy.stats.qmc.Sobol(dim, scramble=False)`` draws
    after ``fast_forward(1)``.  Each dimension's direction integers follow
    Bratley and Fox's recursion (ACM TOMS 14, 1988),
    m_j = 2 a_1 m_(j-1) ^ 4 a_2 m_(j-2) ^ ... ^ 2^s m_(j-s) ^ m_(j-s), and
    column j holds m_(j+1) * 2^(29 - j).  Point k is the XOR of the columns
    picked out by the bits of its Gray code k ^ (k >> 1), divided by 2^30.
    The Gray code of 2^b + i is 2^b plus that of 2^b - 1 - i, so each bit b
    doubles the points built so far with one vectorised XOR of column b.
    """
    v = np.ones((dim, _SOBOL_BITS), dtype=np.int64)
    for d, (poly, m) in enumerate(_SOBOL_DIRECTION_NUMBERS[: dim - 1], start=1):
        s, m = len(m), list(m)
        for j in range(s, _SOBOL_BITS):
            new = m[j - s] ^ (m[j - s] << s)
            for i in range(1, s):
                if poly >> (s - i) & 1:
                    new ^= m[j - i] << i
            m.append(new)
        v[d] = m
    v <<= np.arange(_SOBOL_BITS - 1, -1, -1)
    x = np.zeros((size + 1, dim), dtype=np.int64)  # point 0 is all zeros
    for b in range(size.bit_length()):
        h = 1 << b
        x[h : 2 * h] = x[h - 1 :: -1][: size + 1 - h] ^ v[:, b]
    return x[1:] * 2.0**-_SOBOL_BITS


@cache
def _sphere_net(dim, size):
    """``sphere_net`` for arguments it has checked, built once per (dim, size) and shared read-only."""
    if dim == 2:
        theta = np.arange(size) * (2.0 * np.pi / size)
        net = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        # points 1 to size < 2^m pick only Sobol columns 0 to m - 1, so each coordinate is a
        # multiple of 2^-m: the quantile is taken once per multiple and gathered
        m = size.bit_length()
        quantile = _ndtri(np.arange(2**m) * 2.0**-m)
        g = quantile[(_sobol_points(dim, size) * 2.0**m).astype(np.intp)]
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
    if not 0.0 <= margin < np.inf:  # NaN fails too
        raise BodyError("margin must be nonnegative and finite")
    if isinstance(outer, VPolytope):
        dirs, bounds = outer.facet_equations
    else:
        dirs = np.vstack([sphere_net(outer.dim), outer.extreme_directions(), inner.extreme_directions()])
        bounds = outer.support(dirs)
    return bool(np.all(inner.support(dirs) <= bounds - margin))
