"""Shared fixtures for the test suite."""

from functools import cache

import numpy as np
import pytest

from capsec.bodies import Ellipsoid, cube
from capsec.families import random_instance
from capsec.solver import SolverConfig, solve


@cache
def _census_report(dim, seed):
    K, L = random_instance("ellipsoid_in_polytope", dim, seed)
    return K, L, solve(K, L, SolverConfig(starts=32 * dim, seed=seed))


@pytest.fixture(scope="session")
def census_report():
    """``census_report(dim, seed) -> (K, L, report)`` for an acceptance-census instance.

    The instance is solved with the census settings (32 * dim starts, the
    instance seed) once per session; tests share the report and must not
    mutate it.
    """
    return _census_report


# orthonormal, with first column the cube diagonal (1, 1, 1, 1) / 2
_HADAMARD_4 = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0


@pytest.fixture(scope="session")
def needle_in_cube():
    """``(K, L, d)``: a needle ellipsoid L along the diagonal d of the 4-cube K.

    L's long semiaxis, 2 - 1e-5, reaches almost to K's vertex and its other
    semiaxes are 1.414e-3, so every facet gap is 4.3e-6 and the instance
    validates.  Near d the section shrinks to a sliver: at d its measure is
    2.7e-15, below the degenerate-section floor of 8e-12.
    """
    L = Ellipsoid.from_semiaxes([2 - 1e-5, 1.414e-3, 1.414e-3, 1.414e-3], rotation=_HADAMARD_4)
    return cube(1.0, 4), L, _HADAMARD_4[:, 0]
