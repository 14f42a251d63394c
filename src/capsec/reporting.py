"""JSON report serialization with a stable schema and fixed float precision."""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .bodies import Ball, Ellipsoid, HPolytope, LpBall, VPolytope

__all__ = ["SCHEMA_VERSION", "body_to_dict", "report_to_dict", "dump_report", "load_schema"]

SCHEMA_VERSION = "capsec-report-v1"
SIGNIFICANT_DIGITS = 12


def _round(x):
    return float(f"{float(x):.{SIGNIFICANT_DIGITS}g}")


def _vec(v):
    return [_round(x) for x in np.asarray(v, dtype=float)]


def _mat(m):
    return [_vec(row) for row in np.asarray(m, dtype=float)]


def body_to_dict(body):
    if isinstance(body, Ball):
        return {"kind": "ball", "radius": _round(body.radius)}
    if isinstance(body, Ellipsoid):
        return {"kind": "ellipsoid", "shape_matrix": _mat(body.shape_matrix)}
    if isinstance(body, LpBall):
        return {"kind": "lpball", "p": _round(body.p), "scale": _round(body.scale)}
    if isinstance(body, HPolytope):
        return {"kind": "hpolytope", "normals": _mat(body.normals), "offsets": _vec(body.offsets)}
    if isinstance(body, VPolytope):
        return {"kind": "vpolytope", "vertices": _mat(body.vertices)}
    raise TypeError(f"unknown body type {type(body).__name__}")


def report_to_dict(K, L, report, seed):
    return {
        "schema_version": SCHEMA_VERSION,
        "instance": {
            "dimension": report.dimension,
            "K": body_to_dict(K),
            "L": body_to_dict(L),
            "seed": int(seed),
        },
        "pairs": [
            {
                "direction": _vec(p.direction),
                "f_value": _round(p.f_value),
                "residual": _round(p.residual),
                "centroid": _vec(p.centroid),
                "touch_point": _vec(p.touch_point),
                "kind": p.kind,
                "basin_count": int(p.basin_count),
            }
            for p in report.pairs
        ],
        "certified": bool(report.certified),
        "budget_exhausted": not report.certified,
        "degenerate_continuum": bool(report.degenerate_continuum),
        "continuum_justification": report.continuum_justification,
        "diagnostics": {key: int(value) for key, value in report.diagnostics.items()},
    }


def dump_report(K, L, report, seed):
    """Serialize a report to bytes; identical inputs give identical bytes."""
    doc = report_to_dict(K, L, report, seed)
    return (json.dumps(doc, indent=2, sort_keys=False) + "\n").encode("utf-8")


def load_schema():
    with resources.files("capsec.schemas").joinpath("report-v1.json").open("rb") as fh:
        return json.load(fh)
