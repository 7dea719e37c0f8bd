from __future__ import annotations

import pytest

from reblock.geometry import Aabb, vec3


def test_vec3_rejects_non_finite():
    with pytest.raises(ValueError):
        vec3(float("nan"), 0, 0)
    with pytest.raises(ValueError):
        vec3(0, float("inf"), 0)


def test_aabb_bounds_round_trip():
    box = Aabb(vec3(2, 3, 6), vec3(3, 1, 3))
    assert box.lo == vec3(-1, 2, 3)
    assert box.hi == vec3(5, 4, 9)
