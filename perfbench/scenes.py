"""Seeded input generators for the three benchmark workloads.

Each generator writes what the ``reblock`` CLI would receive -- a model
CSV, triangulated OBJ surfaces and a tagging-instruction file -- into a
directory, and returns a :class:`Scene` describing the lattice and the
call to make.  Only NumPy and the standard library are used, so the
inputs do not depend on the code under test.  The same seed always gives
byte-identical files.

Surfaces use seeded, generic coefficients (phases, centres, amplitudes),
as surveyed surfaces do; no coordinate is chosen to land on a cell
centre or a lattice plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("crossed", "passthrough", "merge")


@dataclass(frozen=True)
class Size:
    """Knobs that set how much work one pass does."""

    parents: int  # crossed: parents cut by both surfaces
    grid: tuple[int, int, int]  # passthrough / merge: parents along x, y, z


# Full sizes are what the benchmark measures; tiny ones are for the
# smoke check.
SIZES = {
    "full": {
        "crossed": Size(parents=4, grid=(0, 0, 0)),
        "passthrough": Size(parents=0, grid=(20, 20, 1)),
        "merge": Size(parents=0, grid=(6, 6, 3)),
    },
    "tiny": {
        "crossed": Size(parents=4, grid=(0, 0, 0)),
        "passthrough": Size(parents=0, grid=(8, 8, 1)),
        "merge": Size(parents=0, grid=(3, 3, 1)),
    },
}


@dataclass(frozen=True)
class Scene:
    """Generated inputs plus the call the workload makes on them."""

    workload: str
    model: Path
    config: Path | None  # tagging instructions; None for merge
    origin: tuple[float, float, float]
    parent_dims: tuple[float, float, float]
    min_dims: tuple[float, float, float]
    parents: int
    threads: int
    convention: str


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return repr(float(v))


def write_obj(path: Path, vertices: np.ndarray, faces: np.ndarray) -> None:
    lines = [f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}" for x, y, z in vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in faces]
    path.write_text("\n".join(lines) + "\n")


def write_model(
    path: Path,
    origin: tuple[float, float, float],
    parent_dims: tuple[float, float, float],
    min_dims: tuple[float, float, float],
    blocks: list[tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int], int]],
) -> None:
    """Rows of ``x,y,z,dx,dy,dz,label`` from (parent, cell_min, cell_dims, label)."""
    rows = ["x,y,z,dx,dy,dz,label"]
    for parent, cell_min, cell_dims, label in blocks:
        centre = []
        dims = []
        for a in range(3):
            lo = origin[a] + parent[a] * parent_dims[a] + cell_min[a] * min_dims[a]
            d = cell_dims[a] * min_dims[a]
            centre.append(lo + 0.5 * d)
            dims.append(d)
        rows.append(",".join(_fmt(v) for v in (*centre, *dims)) + f",{label}")
    path.write_text("\n".join(rows) + "\n")


def write_instructions(path: Path, records: list[dict[str, object]]) -> None:
    keys = ("surface", "positive", "above", "across", "below", "forced")
    lines = [" ".join(f"{k}={r[k]}" for k in keys) for r in records]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------

def heightfield(xs: np.ndarray, ys: np.ndarray, height) -> tuple[np.ndarray, np.ndarray]:
    """Triangulated z = height(x, y) over the xs x ys vertex grid."""
    gx, gy = np.meshgrid(xs, ys)  # (ny, nx)
    verts = np.stack([gx, gy, height(gx, gy)], axis=-1).reshape(-1, 3)
    nx, ny = len(xs), len(ys)
    a = (np.arange(ny - 1)[:, None] * nx + np.arange(nx - 1)[None, :]).ravel()
    b, c = a + 1, a + nx
    d = c + 1
    faces = np.stack([np.stack([a, b, d], 1), np.stack([a, d, c], 1)], 1).reshape(-1, 3)
    return verts, faces


def icosphere(subdiv: int, radius: float, centre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed sphere of 20 * 4**subdiv triangles with outward winding."""
    phi = (1.0 + 5.0 ** 0.5) / 2.0
    verts = [
        np.array(p, dtype=np.float64) / math.sqrt(1.0 + phi * phi)
        for p in (
            (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
            (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
            (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
        )
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    cache: dict[tuple[int, int], int] = {}

    def midpoint(a: int, b: int) -> int:
        key = (min(a, b), max(a, b))
        if key not in cache:
            m = verts[a] + verts[b]
            verts.append(m / np.linalg.norm(m))
            cache[key] = len(verts) - 1
        return cache[key]

    for _ in range(subdiv):
        split = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            split += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = split
    return np.asarray(verts) * radius + centre, np.asarray(faces)


def _waves(rng: np.random.Generator, amplitude: float, wavelength: float):
    """Sum of three plane waves: a smooth, generic undulation.

    The seed jitters every coefficient by a few percent around a fixed
    shape, so inputs differ from seed to seed while the amount of work a
    pass does stays nearly the same.
    """
    angles = np.array([0.31, 1.37, 2.42]) + rng.uniform(-0.005, 0.005, 3)
    phases = np.array([0.7, 2.9, 4.6]) + rng.uniform(-0.01, 0.01, 3)
    weights = amplitude * np.array([0.4, 0.35, 0.3]) * rng.uniform(0.995, 1.005, 3)
    k = 2.0 * math.pi / wavelength * np.array([1.0, 0.83, 1.21]) * rng.uniform(0.995, 1.005, 3)

    def h(x, y):
        out = 0.0
        for i in range(3):
            u = x * math.cos(angles[i]) + y * math.sin(angles[i])
            out = out + weights[i] * np.sin(k[i] * u + phases[i])
        return out

    return h


def _box_range(h, x0: float, x1: float, y0: float, y1: float) -> tuple[float, float]:
    gx, gy = np.meshgrid(np.linspace(x0, x1, 7), np.linspace(y0, y1, 7))
    z = h(gx, gy)
    return float(z.min()), float(z.max())


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def crossed(rng: np.random.Generator, out: Path, size: Size) -> Scene:
    """Parents of 8^3 cells, each cut by an undulating sheet and a sphere.

    The sphere's centre sits on the sheet, so the two surfaces cross along
    a closed curve.  The model is the ``size.parents`` parents that both
    surfaces cut and that lie nearest one fixed point of that curve.
    """
    origin = (0.0, 0.0, 0.0)
    min_dims = (2.0, 2.0, 1.0)
    parent_dims = (16.0, 16.0, 8.0)
    radius = 20.0 + 3.0 * size.parents
    centre = np.array(
        [
            200.0 + rng.uniform(-0.05, 0.05),
            200.0 + rng.uniform(-0.05, 0.05),
            40.0 + rng.uniform(-0.05, 0.05),
        ]
    )
    waves = _waves(rng, amplitude=6.0, wavelength=2.5 * radius)

    def sheet(x, y):
        return centre[2] + waves(x, y)

    span = radius + 48.0
    xs = np.linspace(centre[0] - span, centre[0] + span, 32)
    ys = np.linspace(centre[1] - span, centre[1] + span, 32)
    write_obj(out / "sheet.obj", *heightfield(xs, ys, sheet))
    write_obj(out / "sphere.obj", *icosphere(3, radius, centre))

    lo = np.floor((centre - radius - np.array(parent_dims)) / parent_dims).astype(int)
    hi = np.ceil((centre + radius + np.array(parent_dims)) / parent_dims).astype(int)
    cut = []
    for pz in range(lo[2], hi[2]):
        for py in range(lo[1], hi[1]):
            for px in range(lo[0], hi[0]):
                b0 = np.array([px, py, pz]) * parent_dims
                b1 = b0 + parent_dims
                near = np.clip(centre, b0, b1) - centre
                far = np.maximum(np.abs(b0 - centre), np.abs(b1 - centre))
                if not (np.linalg.norm(near) < 0.97 * radius < 1.01 * radius < np.linalg.norm(far)):
                    continue
                zmin, zmax = _box_range(sheet, b0[0], b1[0], b0[1], b1[1])
                if zmin < b1[2] - 1.0 and zmax > b0[2] + 1.0:
                    cut.append((px, py, pz))
    if len(cut) < size.parents:
        raise RuntimeError(f"only {len(cut)} parents cut by both surfaces")
    # A fixed arc of the crossing curve: the parents nearest one point on it.
    anchor = centre + radius * np.array([math.cos(0.4), math.sin(0.4), 0.0])
    pick = sorted(
        cut, key=lambda p: float(np.linalg.norm((np.array(p) + 0.5) * parent_dims - anchor))
    )[: size.parents]
    pick.sort(key=lambda p: (p[2], p[1], p[0]))
    blocks = []
    for parent in pick:
        split = 3 + (parent[0] + parent[1]) % 3
        lower = int(rng.integers(1, 3))
        blocks.append((parent, (0, 0, 0), (8, 8, split), lower))
        blocks.append((parent, (0, 0, split), (8, 8, 8 - split), 3 - lower))
    write_model(out / "model.csv", origin, parent_dims, min_dims, blocks)
    write_instructions(
        out / "tags.cfg",
        [
            dict(surface="sheet.obj", positive="0,0,1", above=100, across=-1, below=-1, forced=0),
            dict(surface="sphere.obj", positive="0,0,1", above=-1, across=-1, below=300, forced=0),
        ],
    )
    return Scene(
        "crossed", out / "model.csv", out / "tags.cfg", origin, parent_dims,
        min_dims, len(pick), threads=1, convention="dissolved",
    )


def passthrough(rng: np.random.Generator, out: Path, size: Size) -> Scene:
    """A large model that the surfaces barely touch.

    Parents of 4^3 cells, each split into 8 labelled octant blocks.  A
    topography sheet floats above the model except for a pit that dips
    into it, and a small intrusion sphere sits inside; together they cut
    a few percent of the parents.
    """
    nx, ny, nz = size.grid
    origin = (0.0, 0.0, 0.0)
    min_dims = (2.0, 2.0, 2.0)
    parent_dims = (8.0, 8.0, 8.0)
    width = (nx * parent_dims[0], ny * parent_dims[1])
    top = nz * parent_dims[2]
    pit = np.array([width[0] * rng.uniform(0.3, 0.45), width[1] * rng.uniform(0.3, 0.7)])
    sigma = 0.1 * min(width)
    waves = _waves(rng, amplitude=1.5, wavelength=0.4 * min(width))

    def topo(x, y):
        r2 = (x - pit[0]) ** 2 + (y - pit[1]) ** 2
        return top + 6.0 + waves(x, y) - (6.0 + 0.55 * top) * np.exp(-r2 / (sigma * sigma))

    xs = np.linspace(-5.0, width[0] + 5.0, 48)
    ys = np.linspace(-5.0, width[1] + 5.0, 48)
    write_obj(out / "topo.obj", *heightfield(xs, ys, topo))
    intrusion = np.array(
        [width[0] * rng.uniform(0.6, 0.8), width[1] * rng.uniform(0.3, 0.7), 0.5 * top]
    )
    write_obj(out / "intrusion.obj", *icosphere(2, 0.05 * min(width), intrusion))

    blocks = []
    octants = [(x, y, z) for z in (0, 2) for y in (0, 2) for x in (0, 2)]
    labels = rng.integers(1, 4, nx * ny * nz * 8)
    i = 0
    for pz in range(nz):
        for py in range(ny):
            for px in range(nx):
                for corner in octants:
                    blocks.append(((px, py, pz), corner, (2, 2, 2), int(labels[i])))
                    i += 1
    write_model(out / "model.csv", origin, parent_dims, min_dims, blocks)
    write_instructions(
        out / "tags.cfg",
        [
            dict(surface="topo.obj", positive="0,0,1", above=100, across=-1, below=-1, forced=0),
            dict(surface="intrusion.obj", positive="0,0,1", above=-1, across=-1, below=200, forced=0),
        ],
    )
    return Scene(
        "passthrough", out / "model.csv", out / "tags.cfg", origin, parent_dims,
        min_dims, nx * ny * nz, threads=1, convention="dissolved",
    )


def _cuts(rng: np.random.Generator, n: int, low: int, high: int) -> list[int]:
    """Sorted distinct interior cut positions of [0, n), low..high of them."""
    k = int(rng.integers(low, high + 1))
    return sorted(int(c) for c in rng.choice(np.arange(1, n), k, replace=False))


def merge(rng: np.random.Generator, out: Path, size: Size) -> Scene:
    """Fragmented, labelled blocks for standalone merging.

    Every parent of 8^3 cells is a random grid partition in x and y whose
    columns are split into z-slabs, each slab labelled 1 or 2.
    """
    nx, ny, nz = size.grid
    origin = (0.0, 0.0, 0.0)
    min_dims = (1.0, 1.0, 1.0)
    parent_dims = (8.0, 8.0, 8.0)
    blocks = []
    for pz in range(nz):
        for py in range(ny):
            for px in range(nx):
                xe = [0, *_cuts(rng, 8, 1, 2), 8]
                ye = [0, *_cuts(rng, 8, 1, 2), 8]
                for j in range(len(ye) - 1):
                    for i in range(len(xe) - 1):
                        ze = [0, *_cuts(rng, 8, 2, 4), 8]
                        for k in range(len(ze) - 1):
                            blocks.append(
                                (
                                    (px, py, pz),
                                    (xe[i], ye[j], ze[k]),
                                    (xe[i + 1] - xe[i], ye[j + 1] - ye[j], ze[k + 1] - ze[k]),
                                    int(rng.integers(1, 3)),
                                )
                            )
    write_model(out / "model.csv", origin, parent_dims, min_dims, blocks)
    return Scene(
        "merge", out / "model.csv", None, origin, parent_dims, min_dims,
        nx * ny * nz, threads=2, convention="persistent",
    )


def generate(workload: str, seed: int, out: Path, scale: str = "full") -> Scene:
    """Write the inputs of ``workload`` for ``seed`` into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make = {"crossed": crossed, "passthrough": passthrough, "merge": merge}[workload]
    return make(rng, out, SIZES[scale][workload])
