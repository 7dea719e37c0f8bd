from __future__ import annotations

import pytest

from reblock.geometry import Aabb, aabb_from_bounds, aabb_overlaps, vec3


def test_vec3_rejects_non_finite():
    with pytest.raises(ValueError):
        vec3(float("nan"), 0, 0)
    with pytest.raises(ValueError):
        vec3(0, float("inf"), 0)


def test_aabb_bounds_round_trip():
    box = aabb_from_bounds(vec3(-1, 2, 3), vec3(5, 4, 9))
    assert box.lo == vec3(-1, 2, 3)
    assert box.hi == vec3(5, 4, 9)
    assert box.center == vec3(2, 3, 6)


def test_aabb_overlap_is_closed():
    a = Aabb(vec3(0, 0, 0), vec3(1, 1, 1))
    touching = Aabb(vec3(2, 0, 0), vec3(1, 1, 1))  # shares the x=1 face
    apart = Aabb(vec3(2.001, 0, 0), vec3(1, 1, 1))
    assert aabb_overlaps(a, touching)
    assert not aabb_overlaps(a, apart)
