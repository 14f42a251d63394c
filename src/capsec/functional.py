"""The cap-volume objective on the unit sphere and its tangential gradient.

For an outer body K and a strictly convex inner body L, the objective at a
unit direction z is the volume of K beyond the supporting hyperplane of L with
normal z.  Its Riemannian gradient on the sphere is
``measure * P_{z_perp}[centroid - touch_point]``, so criticality is exactly
"the section centroid is the touching point of L".

``evaluate`` takes one direction or an (m, n) stack of them, and a stack is
evaluated in one array call per layer: one support, section, touch-point
and cap-volume call for all m rows.
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
    """Objective value, section data and tangential gradient at one direction, or at each row of a stack.

    For a stack every field holds one value or row per direction, and a row
    whose section is refused (degenerate, or at or below ``measure_floor``)
    holds NaN in its objective, centroid, gradient and residual.
    """

    direction: np.ndarray
    f_value: float
    touch_point: np.ndarray
    section: SectionData
    tangential_gradient: np.ndarray
    residual: float


def _unit(z):
    z = np.asarray(z, dtype=float)
    nrm = np.sqrt((z * z).sum(axis=-1, keepdims=True))
    if not (nrm > 0).all():
        raise BodyError("direction must be nonzero")
    return z / nrm


def _supporting_plane(K, L, z):
    """L's supporting hyperplane with unit normal z, and h_K(z); for a stack of directions, one per row.

    Refused if K's support gap there is below the margin, along any row.
    The slicing takes h_K(z) from here, so it is computed once per direction.
    """
    t = L.support(z)
    h = K.support(z)
    gap, m = h - t, default_margin(K)
    if np.any(gap < m):
        i = int(np.argmin(gap))
        raise RejectedInstanceError(
            f"containment margin violated along direction {np.atleast_2d(z)[i]}: "
            f"support gap {np.atleast_1d(gap)[i]:g} < {m:g}"
        )
    return Hyperplane(z, t), h


def _require_measure(K, z, sec):
    """Refuse a degenerate section, or one at or below ``measure_floor(K)``.

    One direction raises ``DegenerateSectionError``.  For a stack, the refused
    rows' centroids are set to NaN, and their mask is returned.
    """
    refused = ~(np.asarray(sec.measure) > measure_floor(K))
    if np.ndim(z) == 1:
        if refused:
            raise DegenerateSectionError(z, sec.measure)
    else:
        sec.centroid[refused] = np.nan
    return refused


def _touch_and_section(K, L, z):
    """Supporting plane, h_K(z), touching point and section for direction z; cheap core of evaluate."""
    plane, h = _supporting_plane(K, L, z)
    sec = section(K, plane, support=h)
    _require_measure(K, z, sec)
    return plane, h, L.touch_point(z), sec


def evaluate(K, L, z):
    """Objective, section, tangential gradient and residual |centroid - touch point| at unit direction z.

    z may be an (m, n) stack, evaluated in one array call per layer; a row
    whose section is refused holds NaN where one direction raises
    ``DegenerateSectionError``.
    """
    z = _unit(z)
    plane, h, touch, sec = _touch_and_section(K, L, z)
    diff = sec.centroid - touch
    residual = np.sqrt((diff * diff).sum(axis=-1))
    radial = np.sum(diff * z, axis=-1, keepdims=True)
    grad = np.asarray(sec.measure)[..., None] * (diff - radial * z)
    f = cap_volume(K, plane, support=h)
    if z.ndim == 1:
        return FunctionalEval(z, f, touch, sec, grad, float(residual))
    return FunctionalEval(z, np.where(np.isnan(residual), np.nan, f), touch, sec, grad, residual)


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

