"""Scalar vector/box/triangle primitives shared by the geometric modules.

Everything here is 64-bit float and pure: same inputs give bitwise-same
outputs.  Heavier, vectorised variants of some predicates live next to
their callers (see :mod:`reblock.intersection` and
:mod:`reblock.sidedness`); this module is the single-shot reference
implementation they must agree with.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# Inflation applied to zero-thickness bounding boxes so that degenerate
# (axis-parallel planar) geometry stays queryable by the spatial index.
AABB_EPSILON = 1e-9


class Vec3(NamedTuple):
    x: float
    y: float
    z: float


def vec3(x: float, y: float, z: float) -> Vec3:
    """Construct a :class:`Vec3`, rejecting NaN / infinite components."""
    v = Vec3(float(x), float(y), float(z))
    if not (math.isfinite(v.x) and math.isfinite(v.y) and math.isfinite(v.z)):
        raise ValueError(f"non-finite vector component: {v}")
    return v


def add(a: Vec3, b: Vec3) -> Vec3:
    return Vec3(a.x + b.x, a.y + b.y, a.z + b.z)


def sub(a: Vec3, b: Vec3) -> Vec3:
    return Vec3(a.x - b.x, a.y - b.y, a.z - b.z)


def scale(a: Vec3, s: float) -> Vec3:
    return Vec3(a.x * s, a.y * s, a.z * s)


def dot(a: Vec3, b: Vec3) -> float:
    return a.x * b.x + a.y * b.y + a.z * b.z


def cross(a: Vec3, b: Vec3) -> Vec3:
    return Vec3(
        a.y * b.z - a.z * b.y,
        a.z * b.x - a.x * b.z,
        a.x * b.y - a.y * b.x,
    )


def norm(a: Vec3) -> float:
    return math.sqrt(dot(a, a))


def normalize(a: Vec3) -> Vec3:
    n = norm(a)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return Vec3(a.x / n, a.y / n, a.z / n)


class Aabb(NamedTuple):
    """Axis-aligned box stored as center + half extents (all > 0)."""

    center: Vec3
    half: Vec3

    @property
    def lo(self) -> Vec3:
        return Vec3(self.center.x - self.half.x,
                    self.center.y - self.half.y,
                    self.center.z - self.half.z)

    @property
    def hi(self) -> Vec3:
        return Vec3(self.center.x + self.half.x,
                    self.center.y + self.half.y,
                    self.center.z + self.half.z)


def aabb_from_bounds(lo: Vec3, hi: Vec3) -> Aabb:
    center = Vec3((lo.x + hi.x) * 0.5, (lo.y + hi.y) * 0.5, (lo.z + hi.z) * 0.5)
    half = Vec3((hi.x - lo.x) * 0.5, (hi.y - lo.y) * 0.5, (hi.z - lo.z) * 0.5)
    return Aabb(center, half)


def aabb_overlaps(a: Aabb, b: Aabb) -> bool:
    """Closed-interval overlap: boxes touching at a face/edge/corner count."""
    return (abs(a.center.x - b.center.x) <= a.half.x + b.half.x
            and abs(a.center.y - b.center.y) <= a.half.y + b.half.y
            and abs(a.center.z - b.center.z) <= a.half.z + b.half.z)


class Triangle(NamedTuple):
    v0: Vec3
    v1: Vec3
    v2: Vec3


def triangle_normal(t: Triangle) -> Vec3:
    """Unnormalised normal (v1-v0) x (v2-v0); the zero vector iff degenerate."""
    return cross(sub(t.v1, t.v0), sub(t.v2, t.v0))


def triangle_is_degenerate(t: Triangle) -> bool:
    n = triangle_normal(t)
    return n.x == 0.0 and n.y == 0.0 and n.z == 0.0


def triangle_centroid(t: Triangle) -> Vec3:
    return Vec3((t.v0.x + t.v1.x + t.v2.x) / 3.0,
                (t.v0.y + t.v1.y + t.v2.y) / 3.0,
                (t.v0.z + t.v1.z + t.v2.z) / 3.0)


def triangle_area(t: Triangle) -> float:
    return 0.5 * norm(triangle_normal(t))


def triangle_aabb(t: Triangle) -> Aabb:
    """Tightest box around the vertices, inflated on zero-thickness axes.

    The inflation is ``AABB_EPSILON * max(1, extent)`` per flat axis so an
    axis-parallel triangle still presents a queryable volume to the index.
    """
    lo = Vec3(min(t.v0.x, t.v1.x, t.v2.x),
              min(t.v0.y, t.v1.y, t.v2.y),
              min(t.v0.z, t.v1.z, t.v2.z))
    hi = Vec3(max(t.v0.x, t.v1.x, t.v2.x),
              max(t.v0.y, t.v1.y, t.v2.y),
              max(t.v0.z, t.v1.z, t.v2.z))
    extent = max(hi.x - lo.x, hi.y - lo.y, hi.z - lo.z)
    eps = AABB_EPSILON * max(1.0, extent)
    lo_l = list(lo)
    hi_l = list(hi)
    for c in range(3):
        if hi_l[c] - lo_l[c] < eps:
            lo_l[c] -= eps
            hi_l[c] += eps
    return aabb_from_bounds(Vec3(*lo_l), Vec3(*hi_l))


class Plane(NamedTuple):
    """Plane ``dot(normal, p) + d = 0`` with a unit normal."""

    normal: Vec3
    d: float


def plane_from_triangle(t: Triangle) -> Plane:
    n = triangle_normal(t)
    length = norm(n)
    if length == 0.0:
        raise ValueError("degenerate triangle has no plane")
    unit = Vec3(n.x / length, n.y / length, n.z / length)
    return Plane(unit, -dot(unit, t.v0))

