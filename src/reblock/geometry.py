"""The value type for points and directions, shared by the geometric modules.

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
