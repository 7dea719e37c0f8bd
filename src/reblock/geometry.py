"""Value types for points and boxes, shared by the geometric modules.

Everything here is 64-bit float and pure: same inputs give bitwise-same
outputs.  The vectorised geometry (SAT, ray casting, the triangle index)
works on NumPy arrays and lives with its callers in
:mod:`reblock.intersection`, :mod:`reblock.sidedness` and
:mod:`reblock.mesh`.
"""

from __future__ import annotations

import math
from typing import NamedTuple


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
