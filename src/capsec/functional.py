"""The cap-volume objective on the unit sphere and its tangential gradient.

For an outer body K and a strictly convex inner body L, the objective at a
unit direction z is the volume of K beyond the supporting hyperplane of L with
normal z.  Its Riemannian gradient on the sphere is
``measure * P_{z_perp}[centroid - touch_point]``, so criticality is exactly
"the section centroid is the touching point of L".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import BodyError, LpBall, contains_body
from .sections import Hyperplane, SectionData, cap_volume, hyperplane_chart, section

__all__ = [
    "RejectedInstanceError",
    "DegenerateSectionError",
    "FunctionalEval",
    "default_margin",
    "measure_floor",
    "validate_instance",
    "evaluate",
    "fd_tangential_gradient",
]


FD_GRADIENT_STEP = 1e-5  # central-difference step (rad) of fd_tangential_gradient


class RejectedInstanceError(ValueError):
    """The (K, L) pair violates the preconditions (containment margin, strict convexity)."""


class DegenerateSectionError(RuntimeError):
    """The supporting hyperplane produced a section with measure below the floor."""

    def __init__(self, direction, measure):
        super().__init__(f"degenerate section at direction {direction} (measure {measure:g})")
        self.direction = np.asarray(direction, dtype=float)
        self.measure = measure


def default_margin(K):
    """Containment margin keeping the objective strictly inside (0, vol K)."""
    return 1e-6 * K.inradius_lower_bound()


def measure_floor(K):
    """Sections below this (n-1)-measure are treated as degenerate."""
    return 1e-12 * K.volume() ** ((K.dim - 1) / K.dim)


def validate_instance(K, L):
    """Raise RejectedInstanceError unless K slices exactly, L is strictly convex and L + default_margin(K) <= K."""
    if K.dim != L.dim:
        raise RejectedInstanceError("K and L must have the same dimension")
    if isinstance(K, LpBall):
        raise RejectedInstanceError(
            "outer body K cannot be an lp-ball: its sections have no exact path "
            "(estimate them with mc_section / mc_cap_volume)"
        )
    if not L.strictly_convex:
        raise RejectedInstanceError(
            f"inner body must be strictly convex, got {type(L).__name__}"
        )
    if not contains_body(K, L, default_margin(K)):
        raise RejectedInstanceError("containment margin violated: need L + margin <= K")


@dataclass
class FunctionalEval:
    """Objective value, section data and tangential gradient at one direction."""

    direction: np.ndarray
    f_value: float
    touch_point: np.ndarray
    section: SectionData
    tangential_gradient: np.ndarray
    residual: float


def _unit(z):
    z = np.asarray(z, dtype=float)
    nrm = np.linalg.norm(z)
    if nrm == 0:
        raise BodyError("direction must be nonzero")
    return z / nrm


def _supporting_plane(K, L, z):
    """L's supporting hyperplane with unit normal z, and h_K(z).

    Refused if K's support gap there is below the margin.  The slicing takes
    h_K(z) from here, so it is computed once per direction.
    """
    t = L.support(z)
    h = K.support(z)
    gap, m = h - t, default_margin(K)
    if gap < m:
        raise RejectedInstanceError(
            f"containment margin violated along direction {z}: support gap {gap:g} < {m:g}"
        )
    return Hyperplane(z, t), h


def _require_measure(K, z, sec):
    """Refuse a degenerate section, or one at or below ``measure_floor(K)``."""
    if sec.degenerate or sec.measure <= measure_floor(K):
        raise DegenerateSectionError(z, sec.measure)


def _touch_and_section(K, L, z):
    """Supporting plane, h_K(z), touching point and section for direction z; cheap core of evaluate."""
    plane, h = _supporting_plane(K, L, z)
    sec = section(K, plane, support=h)
    _require_measure(K, z, sec)
    return plane, h, L.touch_point(z), sec


def evaluate(K, L, z):
    """Objective, section, tangential gradient and residual |centroid - touch point| at unit direction z."""
    z = _unit(z)
    plane, h, touch, sec = _touch_and_section(K, L, z)
    diff = sec.centroid - touch
    residual = float(np.linalg.norm(diff))
    grad = sec.measure * (diff - (diff @ z) * z)
    f = cap_volume(K, plane, support=h)
    return FunctionalEval(z, f, touch, sec, grad, residual)


def fd_tangential_gradient(K, L, z):
    """Central-difference tangential gradient with great-circle retraction.

    The step is ``FD_GRADIENT_STEP``.  Independent of the analytic formula:
    only cap volumes are evaluated.
    """
    z = _unit(z)
    Q = hyperplane_chart(z)
    grad = np.zeros(K.dim)

    def f(direction):
        plane, h = _supporting_plane(K, L, direction / np.linalg.norm(direction))
        return cap_volume(K, plane, support=h)

    for j in range(Q.shape[1]):
        w = Q[:, j]
        coeff = (f(z + FD_GRADIENT_STEP * w) - f(z - FD_GRADIENT_STEP * w)) / (2.0 * FD_GRADIENT_STEP)
        grad += coeff * w
    return grad

