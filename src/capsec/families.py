"""Random (K, L) instance generators for census runs and stress tests.

Outer bodies are symmetric V-polytopes (hulls of +/- points on a sphere or
ellipsoid shell) or balls; inner bodies are balls, random ellipsoids or
lp-balls, rescaled so the containment margin holds with room to spare.
"""

from __future__ import annotations

import numpy as np

from .bodies import Ball, BodyError, Ellipsoid, LpBall, VPolytope, contains_body, sphere_net

__all__ = ["FAMILIES", "random_instance", "fit_inside", "random_rotation"]

FAMILIES = ("polytope_in_ellipsoid_hull", "ellipsoid_in_polytope", "lp_in_ball")

FIT_REL_MARGIN = 0.02
_FIT_NET_SIZE = 512


def random_rotation(rng, dim):
    """Haar-ish random rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _random_directions(rng, count, dim):
    g = rng.normal(size=(count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def random_symmetric_vpolytope(rng, dim, shell_semiaxes=None):
    """Hull of +/-(3 * dim random points on a sphere or ellipsoid shell)."""
    for _ in range(20):
        dirs = _random_directions(rng, 3 * dim, dim)
        if shell_semiaxes is not None:
            dirs = dirs * np.asarray(shell_semiaxes)
        try:
            return VPolytope.symmetric_hull(dirs)
        except BodyError:
            continue  # degenerate draw, retry
    raise BodyError("failed to draw a non-degenerate symmetric polytope")


def random_ellipsoid(rng, dim, semiaxis_range=(0.3, 1.0)):
    """Random rotation of log-uniform semiaxes."""
    lo, hi = semiaxis_range
    semiaxes = np.exp(rng.uniform(np.log(lo), np.log(hi), size=dim))
    return Ellipsoid.from_semiaxes(semiaxes, rotation=random_rotation(rng, dim))


def fit_inside(K, L):
    """Rescale L so that ``contains_body(K, L, FIT_REL_MARGIN * inradius(K))`` holds."""
    margin = FIT_REL_MARGIN * K.inradius_lower_bound()
    dirs = np.vstack([sphere_net(K.dim, _FIT_NET_SIZE), K.extreme_directions(), L.extreme_directions()])
    ratio = float(np.min((K.support(dirs) - margin) / L.support(dirs)))
    scale = 0.9 * ratio
    for _ in range(10):
        cand = L.scaled(scale)
        if contains_body(K, cand, margin):
            return cand
        scale *= 0.9
    raise BodyError("could not fit inner body inside outer body with the requested margin")


def random_instance(family, dim, rng):
    """Draw one (K, L) pair from the named family."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(rng)))
    if family == "polytope_in_ellipsoid_hull":
        shell = np.exp(rng.uniform(np.log(0.6), np.log(1.2), size=dim))
        K = random_symmetric_vpolytope(rng, dim, shell_semiaxes=shell)
        L = fit_inside(K, Ball(1.0, dim))
    elif family == "ellipsoid_in_polytope":
        K = random_symmetric_vpolytope(rng, dim)
        L = fit_inside(K, random_ellipsoid(rng, dim))
    elif family == "lp_in_ball":
        K = Ball(1.0, dim)
        p = rng.uniform(1.5, 6.0)
        L = fit_inside(K, LpBall(p, 1.0, dim))
    else:
        raise BodyError(f"unknown family {family!r}; choose from {FAMILIES}")
    return K, L
