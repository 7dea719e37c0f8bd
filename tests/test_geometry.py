from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reblock.geometry import (
    Aabb,
    Triangle,
    aabb_from_bounds,
    aabb_overlaps,
    cross,
    dot,
    normalize,
    plane_from_triangle,
    sub,
    triangle_aabb,
    triangle_area,
    triangle_centroid,
    triangle_is_degenerate,
    triangle_normal,
    vec3,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_vec3_rejects_non_finite():
    with pytest.raises(ValueError):
        vec3(float("nan"), 0, 0)
    with pytest.raises(ValueError):
        vec3(0, float("inf"), 0)


def test_normalize_zero_vector():
    with pytest.raises(ValueError):
        normalize(vec3(0, 0, 0))


@given(finite, finite, finite, finite, finite, finite)
def test_cross_is_perpendicular(ax, ay, az, bx, by, bz):
    a = vec3(ax, ay, az)
    b = vec3(bx, by, bz)
    c = cross(a, b)
    scale = max(1.0, abs(dot(a, a)), abs(dot(b, b)))
    assert abs(dot(c, a)) <= 1e-6 * scale * scale
    assert abs(dot(c, b)) <= 1e-6 * scale * scale


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


def test_triangle_helpers():
    t = Triangle(vec3(0, 0, 0), vec3(2, 0, 0), vec3(0, 2, 0))
    assert triangle_normal(t) == vec3(0, 0, 4)
    assert triangle_area(t) == 2.0
    assert triangle_centroid(t) == vec3(2 / 3, 2 / 3, 0)
    assert not triangle_is_degenerate(t)
    assert triangle_is_degenerate(Triangle(vec3(0, 0, 0), vec3(1, 1, 1), vec3(2, 2, 2)))


def test_flat_triangle_aabb_is_inflated():
    # axis-parallel triangle: its box must still have volume for the index
    t = Triangle(vec3(0, 0, 5), vec3(1, 0, 5), vec3(0, 1, 5))
    box = triangle_aabb(t)
    assert box.half.z > 0
    assert box.lo.z < 5 < box.hi.z


def test_plane_from_triangle_unit_normal():
    t = Triangle(vec3(0, 0, 1), vec3(1, 0, 1), vec3(0, 1, 1))
    plane = plane_from_triangle(t)
    assert math.isclose(dot(plane.normal, plane.normal), 1.0, rel_tol=1e-12)
    # all three vertices satisfy the plane equation
    for v in t:
        assert abs(dot(plane.normal, v) + plane.d) < 1e-12


@given(finite, finite, finite, finite, finite, finite)
def test_sub_then_add_identity(ax, ay, az, bx, by, bz):
    a = vec3(ax, ay, az)
    b = vec3(bx, by, bz)
    d = sub(a, b)
    assert d.x == a.x - b.x and d.y == a.y - b.y and d.z == a.z - b.z
