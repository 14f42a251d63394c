"""SVG overlay figures for planar instances: bodies, tangent lines, centroids."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np

from .bodies import VPolytope

__all__ = ["render_instance"]

_OUTLINE_SAMPLES = 256
_SIZE = 600  # width and height of the figure in px


def _fmt(x):
    return f"{x:.6g}"


def _boundary_points(body):
    if isinstance(body, VPolytope):
        return body.vertices  # qhull lists planar hull vertices counter-clockwise
    theta = np.linspace(0.0, 2.0 * np.pi, _OUTLINE_SAMPLES, endpoint=False)
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    return dirs / body.gauge(dirs)[:, None]


def _path(points, to_px, **attrs):
    d = "M" + "L".join(f"{_fmt(px)} {_fmt(py)}" for px, py in map(to_px, points)) + "z"
    return dict(attrs, d=d)


def render_instance(K, L, report, path):
    """Write an SVG with K, L, one tangent line per critical direction (both
    members of each pair) and one centroid marker per pair."""
    if K.dim != 2:
        raise ValueError("SVG rendering is only available for n = 2")
    extent = 1.15 * float(np.max(K.bounding_halfwidths()))
    scale = _SIZE / (2.0 * extent)

    def to_px(p):
        return (scale * (p[0] + extent), scale * (extent - p[1]))

    svg = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=str(_SIZE),
        height=str(_SIZE),
        viewBox=f"0 0 {_SIZE} {_SIZE}",
    )
    ET.SubElement(svg, "rect", x="0", y="0", width=str(_SIZE), height=str(_SIZE), fill="white")
    ET.SubElement(
        svg, "path", **_path(_boundary_points(K), to_px), fill="none",
        stroke="#1f77b4", attrib={"stroke-width": "2", "class": "body-outer"},
    )
    ET.SubElement(
        svg, "path", **_path(_boundary_points(L), to_px), fill="none",
        stroke="#2ca02c", attrib={"stroke-width": "2", "class": "body-inner"},
    )
    span = 2.0 * extent
    for pair in report.pairs:
        for sgn in (+1.0, -1.0):
            z = sgn * pair.direction
            t = float(z @ (sgn * pair.centroid))
            w = np.array([-z[1], z[0]])
            a, b = to_px(t * z + span * w), to_px(t * z - span * w)
            ET.SubElement(
                svg, "line",
                x1=_fmt(a[0]), y1=_fmt(a[1]), x2=_fmt(b[0]), y2=_fmt(b[1]),
                stroke="#d62728", attrib={"stroke-width": "1", "class": "tangent"},
            )
        cx, cy = to_px(pair.centroid)
        ET.SubElement(
            svg, "circle", cx=_fmt(cx), cy=_fmt(cy), r="4",
            fill="#ff7f0e", attrib={"class": "centroid"},
        )
    ET.ElementTree(svg).write(path, encoding="unicode", xml_declaration=False)
