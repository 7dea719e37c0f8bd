"""Shared geometry builders and fixtures.

Everything here is deterministic: meshes are built from closed-form
vertex data, and random content always comes from a seeded Generator.
"""
from __future__ import annotations

from collections import deque
from pathlib import Path

import numpy as np
import pytest

from reblock.geometry import vec3
from reblock.lattice import LatticeSpec
from reblock.mesh import TriangleMesh


def box_mesh(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)) -> TriangleMesh:
    """Closed 12-triangle box with outward-facing winding."""
    x0, y0, z0 = lo
    x1, y1, z1 = hi
    v = np.array(
        [
            [x0, y0, z0],
            [x1, y0, z0],
            [x1, y1, z0],
            [x0, y1, z0],
            [x0, y0, z1],
            [x1, y0, z1],
            [x1, y1, z1],
            [x0, y1, z1],
        ],
        dtype=np.float64,
    )
    f = np.array(
        [
            [0, 2, 1],
            [0, 3, 2],  # bottom (-z)
            [4, 5, 6],
            [4, 6, 7],  # top (+z)
            [0, 1, 5],
            [0, 5, 4],  # front (-y)
            [2, 3, 7],
            [2, 7, 6],  # back (+y)
            [0, 4, 7],
            [0, 7, 3],  # left (-x)
            [1, 2, 6],
            [1, 6, 5],  # right (+x)
        ],
        dtype=np.int64,
    )
    return TriangleMesh(v, f)


def icosphere(subdiv: int = 4, radius: float = 1.0, center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Unit icosahedron subdivided ``subdiv`` times, scaled and shifted.

    Vertex count is 10*4**subdiv + 2 (subdiv=4 gives 2,562).
    """
    phi = (1.0 + 5.0**0.5) / 2.0
    raw = [
        (-1, phi, 0),
        (1, phi, 0),
        (-1, -phi, 0),
        (1, -phi, 0),
        (0, -1, phi),
        (0, 1, phi),
        (0, -1, -phi),
        (0, 1, -phi),
        (phi, 0, -1),
        (phi, 0, 1),
        (-phi, 0, -1),
        (-phi, 0, 1),
    ]
    faces = [
        (0, 11, 5),
        (0, 5, 1),
        (0, 1, 7),
        (0, 7, 10),
        (0, 10, 11),
        (1, 5, 9),
        (5, 11, 4),
        (11, 10, 2),
        (10, 7, 6),
        (7, 1, 8),
        (3, 9, 4),
        (3, 4, 2),
        (3, 2, 6),
        (3, 6, 8),
        (3, 8, 9),
        (4, 9, 5),
        (2, 4, 11),
        (6, 2, 10),
        (8, 6, 7),
        (9, 8, 1),
    ]
    verts = [np.asarray(p, dtype=np.float64) / np.linalg.norm(p) for p in raw]
    midpoint_cache: dict[tuple[int, int], int] = {}

    def midpoint(a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        got = midpoint_cache.get(key)
        if got is None:
            m = verts[a] + verts[b]
            m /= np.linalg.norm(m)
            verts.append(m)
            got = len(verts) - 1
            midpoint_cache[key] = got
        return got

    for _ in range(subdiv):
        split = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            split += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = split
    pts = np.asarray(verts) * radius + np.asarray(center, dtype=np.float64)
    return TriangleMesh(pts, np.asarray(faces, dtype=np.int64))


def grid_surface(xs, ys, height) -> TriangleMesh:
    """Triangulated heightfield z = height(x, y) over the xs x ys grid.

    ``height`` may be a constant or a callable; breakpoints are used
    verbatim, so dyadic inputs produce exactly representable vertices.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    nx, ny = len(xs), len(ys)
    verts = np.empty((nx * ny, 3), dtype=np.float64)
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            z = height(x, y) if callable(height) else float(height)
            verts[j * nx + i] = (x, y, z)
    faces = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            a = j * nx + i
            b = a + 1
            c = a + nx
            d = c + 1
            faces.append((a, b, d))
            faces.append((a, d, c))
    return TriangleMesh(verts, np.asarray(faces, dtype=np.int64))


def bisect_longest_edges(mesh: TriangleMesh, max_edge: float) -> TriangleMesh:
    """``mesh`` with triangles split at the midpoint of their longest edge,
    first edge first on ties, until no edge is longer than ``max_edge``.

    Triangles are taken first in, first out.  Splitting an edge splits
    every triangle that shares it at the same midpoint, so a closed mesh
    stays closed, without T-junctions.
    """
    verts = [tuple(v) for v in mesh.vertices.tolist()]
    vert_ids = {v: i for i, v in enumerate(verts)}
    tris = [tuple(t) for t in mesh.triangles.tolist()]
    alive = [True] * len(tris)
    owners: dict[tuple[int, int], set[int]] = {}

    def edges(tid: int) -> list[tuple[int, int]]:
        a, b, c = tris[tid]
        return [(min(u, v), max(u, v)) for u, v in ((a, b), (b, c), (c, a))]

    def add(tid: int) -> None:
        for e in edges(tid):
            owners.setdefault(e, set()).add(tid)

    def length_sq(u: int, v: int) -> float:
        (x0, y0, z0), (x1, y1, z1) = verts[u], verts[v]
        return (x0 - x1) * (x0 - x1) + (y0 - y1) * (y0 - y1) + (z0 - z1) * (z0 - z1)

    for tid in range(len(tris)):
        add(tid)
    queue = deque(range(len(tris)))
    while queue:
        tid = queue.popleft()
        if not alive[tid]:
            continue
        a, b, c = tris[tid]
        lengths = [length_sq(a, b), length_sq(b, c), length_sq(c, a)]
        longest = max(range(3), key=lengths.__getitem__)
        if lengths[longest] <= max_edge * max_edge:
            continue
        ea, eb = ((a, b), (b, c), (c, a))[longest]
        mid = tuple((p + q) * 0.5 for p, q in zip(verts[ea], verts[eb]))
        m = vert_ids.setdefault(mid, len(verts))
        if m == len(verts):
            verts.append(mid)
        for owner in list(owners[min(ea, eb), max(ea, eb)]):
            alive[owner] = False
            for e in edges(owner):
                owners[e].discard(owner)
            corners = tris[owner]
            i = next(i for i in range(3) if {corners[i], corners[(i + 1) % 3]} == {ea, eb})
            p, q, o = corners[i], corners[(i + 1) % 3], corners[(i + 2) % 3]
            for child in ((p, m, o), (m, q, o)):
                tris.append(child)
                alive.append(True)
                add(len(tris) - 1)
                queue.append(len(tris) - 1)
    kept = [t for t, ok in zip(tris, alive) if ok]
    return TriangleMesh(np.array(verts), np.array(kept), name=mesh.name)


def write_obj(path: Path, mesh: TriangleMesh) -> Path:
    lines = [f"v {x} {y} {z}" for x, y, z in mesh.vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.triangles]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def unit_spec() -> LatticeSpec:
    """4x4x4 cells of unit size in a 4x4x4 parent."""
    return LatticeSpec(vec3(0, 0, 0), vec3(4, 4, 4), vec3(1, 1, 1))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
