"""Shared fixtures for the test suite."""

from functools import cache

import pytest

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
