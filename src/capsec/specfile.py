"""Flat key-value instance specification files.

Grammar (one ``key = value`` assignment per line, ``#`` comments)::

    dimension = 2
    seed = 42
    K.kind = cube            # ball | ellipsoid | lpball | cube | hpolytope | vpolytope
    K.halfwidth = 1.0
    L.kind = ball
    L.radius = 0.5
    solver.starts = 128      # optional; the one solver option

Body parameters by kind:

* ball: ``radius``
* cube: ``halfwidth``
* ellipsoid: ``semiaxes`` (space-separated) and optional ``rotation``
  (row-major matrix, rows separated by ``;``)
* lpball: ``p`` and optional ``scale``
* hpolytope: ``normals`` (rows of unit normals) and ``offsets``
* vpolytope: ``vertices`` (rows)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import Ball, BodyError, ConvexBody, Ellipsoid, HPolytope, LpBall, VPolytope, cube
from .solver import SolverConfig

__all__ = ["SpecError", "InstanceSpec", "parse_instance_spec", "load_instance_spec"]


class SpecError(ValueError):
    """Malformed specification file; message names the offending line or field."""


@dataclass
class InstanceSpec:
    dimension: int
    K: ConvexBody
    L: ConvexBody
    solver: SolverConfig  # its seed is the spec's top-level ``seed``


def _parse_matrix(value, field_name):
    try:
        rows = [
            [float(tok) for tok in row.split()]
            for row in value.split(";")
            if row.strip()
        ]
    except ValueError as exc:
        raise SpecError(f"field {field_name}: {exc}") from exc
    if not rows or len({len(r) for r in rows}) != 1:
        raise SpecError(f"field {field_name}: ragged or empty matrix")
    return np.array(rows)


def _parse_vector(value, field_name):
    try:
        return np.array([float(tok) for tok in value.replace(";", " ").split()])
    except ValueError as exc:
        raise SpecError(f"field {field_name}: {exc}") from exc


def _build_body(prefix, fields, dim):
    kind = fields.get("kind")
    if kind is None:
        raise SpecError(f"field {prefix}.kind: missing")

    def need(name):
        if name not in fields:
            raise SpecError(f"field {prefix}.{name}: required for kind {kind!r}")
        return fields[name]

    if kind == "ball":
        return Ball(float(need("radius")), dim)
    if kind == "cube":
        return cube(float(need("halfwidth")), dim)
    if kind == "ellipsoid":
        semiaxes = _parse_vector(need("semiaxes"), f"{prefix}.semiaxes")
        if semiaxes.shape != (dim,):
            raise SpecError(f"field {prefix}.semiaxes: expected {dim} values")
        rotation = None
        if "rotation" in fields:
            rotation = _parse_matrix(fields["rotation"], f"{prefix}.rotation")
            if rotation.shape != (dim, dim):
                raise SpecError(f"field {prefix}.rotation: expected a {dim}x{dim} matrix")
        return Ellipsoid.from_semiaxes(semiaxes, rotation)
    if kind == "lpball":
        return LpBall(float(need("p")), float(fields.get("scale", 1.0)), dim)
    if kind == "hpolytope":
        normals = _parse_matrix(need("normals"), f"{prefix}.normals")
        offsets = _parse_vector(need("offsets"), f"{prefix}.offsets")
        return HPolytope(normals, offsets)
    if kind == "vpolytope":
        return VPolytope(_parse_matrix(need("vertices"), f"{prefix}.vertices"))
    raise SpecError(f"field {prefix}.kind: unknown kind {kind!r}")


def parse_instance_spec(text, overrides=None):
    """Parse spec text into an InstanceSpec.  Raises SpecError with line numbers."""
    assignments = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise SpecError(f"line {lineno}: empty key or value")
        if key in assignments:
            raise SpecError(f"line {lineno}: duplicate key {key!r}")
        assignments[key] = value
    if overrides:
        assignments.update({k: str(v) for k, v in overrides.items()})

    if "dimension" not in assignments:
        raise SpecError("field dimension: missing")
    try:
        dim = int(assignments["dimension"])
    except ValueError as exc:
        raise SpecError(f"field dimension: {exc}") from exc
    try:
        seed = int(assignments.get("seed", 0))
    except ValueError as exc:
        raise SpecError(f"field seed: {exc}") from exc

    groups = {"K": {}, "L": {}, "solver": {}}
    for key, value in assignments.items():
        if key in ("dimension", "seed"):
            continue
        if "." not in key:
            raise SpecError(f"field {key}: unknown top-level key")
        head, rest = key.split(".", 1)
        if head not in groups:
            raise SpecError(f"field {key}: unknown group {head!r}")
        groups[head][rest] = value

    try:
        K = _build_body("K", groups["K"], dim)
        L = _build_body("L", groups["L"], dim)
    except BodyError as exc:
        raise SpecError(str(exc)) from exc

    for name in groups["solver"]:
        if name != "starts":
            raise SpecError(f"field solver.{name}: unknown solver option")
    config = SolverConfig(seed=seed)
    if "starts" in groups["solver"]:
        try:
            config.starts = int(groups["solver"]["starts"])
        except ValueError as exc:
            raise SpecError(f"field solver.starts: {exc}") from exc
    try:
        config.resolved_starts(dim)
    except BodyError as exc:
        raise SpecError(str(exc)) from exc

    return InstanceSpec(dimension=dim, K=K, L=L, solver=config)


def load_instance_spec(path, overrides=None):
    with open(path, encoding="utf-8") as fh:
        return parse_instance_spec(fh.read(), overrides)
