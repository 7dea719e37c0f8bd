from __future__ import annotations

import pytest

from reblock.geometry import vec3


def test_vec3_rejects_non_finite():
    with pytest.raises(ValueError):
        vec3(float("nan"), 0, 0)
    with pytest.raises(ValueError):
        vec3(0, float("inf"), 0)

