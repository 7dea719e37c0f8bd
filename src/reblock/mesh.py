"""Triangle-mesh container, file loaders, integrity checks, density
refinement, and the sort-and-sweep index that prunes block-vs-triangle
candidates to the triangles whose bounding boxes meet a query box.

The OBJ and OFF loaders parse each block of records with one ``np.loadtxt``
call, NumPy's C reader; only a block that fails to parse, or holds a
non-finite coordinate or a reference to a missing vertex, is read again,
line by line, to name its first faulty line.

Triangle bounds and normals are computed on coordinate columns, not by
NumPy reductions over rows of three (its slow path for a short axis), with
the same operations in the same order, so the arrays are bit-identical.

Meshes are treated as immutable after construction; operations that
"modify" a mesh return a new one.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NoReturn, Sequence

import numpy as np

from .errors import EmptyMesh, RefinementOverflow, ValidationError
from .tables import parse_table, read_text

# Hard ceiling on triangles produced by refine_mesh.
REFINE_CAP = 10_000_000


@dataclass
class TriangleMesh:
    """Indexed triangle soup.

    ``vertices`` is an (N, 3) float64 array, ``triangles`` an (M, 3) int32
    array of vertex indices.  ``name`` identifies the surface in reports.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    name: str = "surface"
    _tri_verts: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        tris = np.asarray(self.triangles)  # range-checked before it narrows to int32
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValidationError("vertices must be an (N, 3) array")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise ValidationError("triangles must be an (M, 3) array")
        if not np.isfinite(self.vertices).all():
            raise ValidationError(f"mesh '{self.name}' has non-finite vertices")
        if tris.size and (tris.min() < 0 or tris.max() >= len(self.vertices)):
            raise ValidationError(f"mesh '{self.name}' has out-of-range vertex indices")
        self.triangles = np.ascontiguousarray(tris, dtype=np.int32)

    def __len__(self) -> int:
        return len(self.triangles)

    def tri_vertices(self) -> np.ndarray:
        """(M, 3, 3) array: triangle -> vertex -> coordinate (cached)."""
        if self._tri_verts is None:
            self._tri_verts = self.vertices[self.triangles]
        return self._tri_verts


# ---------------------------------------------------------------------------
# loaders
# ---------------------------------------------------------------------------

def load_mesh(path: str | Path) -> TriangleMesh:
    """Load an ``.off`` or triangulated ``.obj`` mesh by file extension."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"mesh file not found: {path}")
    suffix = path.suffix.lower()
    if suffix == ".off":
        return load_off(path)
    if suffix == ".obj":
        return load_obj(path)
    raise ValidationError(f"unsupported mesh format '{suffix}' for {path}")


_LINE = r"\n[^\S\n]*(\S.*)"  # a non-blank line, left-stripped
_TAG = r"\n[^\S\n]*%s(?!\S)"  # an OBJ record's tag, first on its line
_SUFFIX = r"/(?<=\S/)\S*"  # the /t/n part of an OBJ face reference


def _text(path: Path) -> str:
    """The file's lines, as ``str.splitlines`` breaks them, each after a
    newline and with ``#`` comments cut."""
    text = read_text(path)
    if any(c in text for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"):
        text = "\n".join(text.splitlines())
    return re.sub("#.*", "", "\n" + text)


def _fault(path: Path, text: str, pattern: str, start: int, reasons: Iterable) -> NoReturn:
    """Raise ``path:line: reason`` at the first match of ``pattern`` in
    ``text``, from match ``start`` on, whose entry in ``reasons`` is set."""
    for i, reason in enumerate(reasons, start):
        if reason:
            match = next(itertools.islice(re.finditer(pattern, text), i, None))
            raise ValidationError(f"{path}:{text.count(chr(10), 0, match.start()) + 1}: {reason}")
    raise AssertionError(f"{path}: the bulk read rejects a line the line-by-line read accepts")


def _record_fault(tag: str, fields: str, before: int = 0, nv: int = 0) -> str | None:
    """What is wrong with a vertex line, or with an OBJ face line that
    follows ``before`` of the file's ``nv`` vertex lines."""
    if tag == "v":
        if (v := parse_table([fields], np.float64, 3)) is None:
            return "bad vertex line"
        return None if np.isfinite(v).all() else "non-finite vertex"
    if (n := len(fields.split())) != 3:
        return f"face with {n} vertices; only triangulated OBJ files are supported"
    if (refs := parse_table([re.sub(_SUFFIX, "", fields)], np.int64, 3)) is None:
        return "bad face line"
    refs = np.where(refs < 0, refs + before + 1, refs)  # -k counts back from the line
    return None if _in_range(refs - 1, nv) else "vertex reference out of range"


def _off_face_fault(line: str, nv: int) -> str | None:
    fields = line.split()
    k = parse_table(fields[:1], np.int64, 1)
    if k is not None and k[0, 0] != 3:
        return f"face with {k[0, 0]} vertices; only triangles are supported"
    if k is not None and len(fields) < 4:
        return "truncated face line"
    if (face := parse_table([line], np.int64, 4)) is None:
        return "bad face line"
    return None if _in_range(face[:, 1:], nv) else "vertex index out of range"


def _in_range(refs: np.ndarray, nv: int) -> bool:
    """Whether every 0-based reference names one of ``nv`` vertices."""
    return bool(((refs >= 0) & (refs < nv)).all())


def load_off(path: str | Path) -> TriangleMesh:
    """OFF, counts on the header line or the next; colour fields are ignored."""
    path = Path(path)
    text = _text(path)
    lines = re.findall(_LINE, text)
    if not lines:
        raise ValidationError(f"{path}: empty OFF file")
    if not lines[0].upper().startswith("OFF"):
        _fault(path, text, _LINE, 0, ["missing OFF header"])
    rest = lines[0][3:].strip()
    pos = 1 if rest else 2
    if pos > len(lines):
        raise ValidationError(f"{path}: truncated OFF file")
    counts = parse_table([rest or lines[1]], np.int64, 2)
    if counts is None or counts.min() < 0:
        _fault(path, text, _LINE, pos - 1, ["expected 'nv nf ne' counts"])
    nv, nf = counts[0].tolist()
    if pos + nv + nf > len(lines):
        raise ValidationError(f"{path}: fewer data lines than the header promises")
    verts = parse_table(lines[pos : pos + nv], np.float64, 3)
    if verts is None or not np.isfinite(verts).all():
        _fault(path, text, _LINE, pos, (_record_fault("v", v) for v in lines[pos : pos + nv]))
    if nf == 0:
        raise EmptyMesh(f"{path}: OFF file declares no faces")
    faces = parse_table(lines[pos + nv : pos + nv + nf], np.int64, 4)
    if faces is None or (faces[:, 0] != 3).any() or not _in_range(faces[:, 1:], nv):
        faults = (_off_face_fault(f, nv) for f in lines[pos + nv : pos + nv + nf])
        _fault(path, text, _LINE, pos + nv, faults)
    return TriangleMesh(verts, faces[:, 1:], name=path.stem)


def load_obj(path: str | Path) -> TriangleMesh:
    """Minimal OBJ subset: ``v`` and ``f`` records, triangles only.

    Face vertices of the ``a/t/n`` form are accepted (texture/normal
    references are ignored); polygons with more than 3 vertices are
    rejected rather than fanned.
    """
    path = Path(path)
    text = _text(path)
    verts = parse_table(re.findall(_TAG % "v" + "(.*)", text), np.float64, 3)
    refs = parse_table(re.findall(_TAG % "f" + "(.*)", re.sub(_SUFFIX, "", text)), np.int64, None)
    if verts is not None and refs is not None and refs.shape[1] == 3:
        negative = refs < 0
        if negative.any():  # -k is the k-th vertex back from the face's line
            tags = "".join(re.findall(_TAG % "([vf])", text)).encode()
            is_vertex = np.frombuffer(tags, np.uint8) == ord("v")
            refs += negative * (np.cumsum(is_vertex)[~is_vertex, None] + 1)
        if np.isfinite(verts).all() and _in_range(refs - 1, len(verts)):
            if not len(refs):
                raise EmptyMesh(f"{path}: no faces found")
            return TriangleMesh(verts, refs - 1, name=path.stem)
    pattern = _TAG % "([vf])" + "(.*)"  # every other record type is ignored
    records = re.findall(pattern, text)
    is_vertex = [tag == "v" for tag, _ in records]
    before, nv = itertools.accumulate(is_vertex), sum(is_vertex)
    faults = (_record_fault(*record, n, nv) for record, n in zip(records, before))
    _fault(path, text, pattern, 0, faults)


# ---------------------------------------------------------------------------
# integrity
# ---------------------------------------------------------------------------

def integrity_check(mesh: TriangleMesh) -> tuple[TriangleMesh, list[int]]:
    """Drop degenerate triangles; return (clean mesh, removed indices).

    A triangle is degenerate when it repeats a vertex index or its normal
    vector is exactly zero (vertices collinear or coincident).  The vertex
    list is kept as-is, so surviving indices remain valid and orphan
    vertices are permitted.
    """
    tris = mesh.triangles
    if len(tris) == 0:
        raise EmptyMesh(f"mesh '{mesh.name}' has no triangles")
    tv = mesh.tri_vertices()
    n0, n1, n2 = cross_columns((tv[:, 1] - tv[:, 0]).T, (tv[:, 2] - tv[:, 0]).T)
    zero_normal = (n0 == 0.0) & (n1 == 0.0) & (n2 == 0.0)
    repeated = (
        (tris[:, 0] == tris[:, 1])
        | (tris[:, 1] == tris[:, 2])
        | (tris[:, 2] == tris[:, 0])
    )
    bad = zero_normal | repeated
    removed = np.flatnonzero(bad)
    if len(removed) == len(tris):
        raise EmptyMesh(f"mesh '{mesh.name}': all triangles degenerate")
    if len(removed) == 0:
        return mesh, []
    return (
        TriangleMesh(mesh.vertices, tris[~bad], name=mesh.name),
        [int(i) for i in removed],
    )


def cross_columns(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The cross product a x b of vectors given as three coordinate
    columns, with the products and differences ``np.cross`` makes."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def tri_bounds(tv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``, the (..., 3) bounds of a (..., 3 vertices, 3 coordinates)
    array: ``tv.min(axis=-2)`` and ``tv.max(axis=-2)``, as the same
    ``np.minimum`` and ``np.maximum`` calls on whole vertex slices.  Each
    coordinate's column is contiguous."""
    x = np.moveaxis(tv, -1, 0)  # (coordinate, ..., vertex)
    lo = np.minimum(np.minimum(x[..., 0], x[..., 1], order="C"), x[..., 2], order="C")
    hi = np.maximum(np.maximum(x[..., 0], x[..., 1], order="C"), x[..., 2], order="C")
    return np.moveaxis(lo, 0, -1), np.moveaxis(hi, 0, -1)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefineParams:
    """Density thresholds: split until area and every edge are below these."""

    max_triangle_area: float
    max_edge_length: float

    def __post_init__(self) -> None:
        if self.max_triangle_area <= 0 or self.max_edge_length <= 0:
            raise ValidationError("refinement thresholds must be positive")


def refine_mesh(mesh: TriangleMesh, params: RefineParams) -> TriangleMesh:
    """Recursively bisect longest edges until every triangle satisfies
    ``params``.

    Splitting an edge also splits the neighbour sharing it (at the same
    midpoint), so the refined mesh stays conforming: no T-junctions are
    introduced and the union of triangles is geometrically unchanged.
    Raises :class:`RefinementOverflow` past ``REFINE_CAP`` triangles.
    """
    verts: list[tuple[float, float, float]] = [tuple(v) for v in mesh.vertices]
    vert_ids: dict[tuple[float, float, float], int] = {v: i for i, v in enumerate(verts)}
    tris: list[tuple[int, int, int]] = [tuple(t) for t in mesh.triangles]
    alive: list[bool] = [True] * len(tris)
    n_alive = len(tris)

    def edge_key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    edge_map: dict[tuple[int, int], set[int]] = {}

    def register(tid: int) -> None:
        a, b, c = tris[tid]
        for e in (edge_key(a, b), edge_key(b, c), edge_key(c, a)):
            edge_map.setdefault(e, set()).add(tid)

    def unregister(tid: int) -> None:
        a, b, c = tris[tid]
        for e in (edge_key(a, b), edge_key(b, c), edge_key(c, a)):
            owners = edge_map.get(e)
            if owners is not None:
                owners.discard(tid)

    for tid in range(len(tris)):
        register(tid)

    max_area = params.max_triangle_area
    max_edge_sq = params.max_edge_length * params.max_edge_length

    def needs_split(tid: int) -> tuple[int, int] | None:
        """Return the longest edge (as a directed pair) if over threshold."""
        a, b, c = tris[tid]
        pa, pb, pc = verts[a], verts[b], verts[c]
        ab = _dist_sq(pa, pb)
        bc = _dist_sq(pb, pc)
        ca = _dist_sq(pc, pa)
        longest = max(ab, bc, ca)
        area = _tri_area(pa, pb, pc)
        if area <= max_area and longest <= max_edge_sq:
            return None
        if longest == ab:
            return (a, b)
        if longest == bc:
            return (b, c)
        return (c, a)

    queue: deque[int] = deque(range(len(tris)))
    while queue:
        tid = queue.popleft()
        if not alive[tid]:
            continue
        split = needs_split(tid)
        if split is None:
            continue
        ea, eb = split
        pa, pb = verts[ea], verts[eb]
        mid = ((pa[0] + pb[0]) * 0.5, (pa[1] + pb[1]) * 0.5, (pa[2] + pb[2]) * 0.5)
        m = vert_ids.get(mid)
        if m is None:
            m = len(verts)
            verts.append(mid)
            vert_ids[mid] = m
        # split every live triangle that shares the edge, so the mesh
        # stays conforming even when the edge is not the neighbour's longest
        owners = [t for t in edge_map.get(edge_key(ea, eb), ()) if alive[t]]
        for owner in owners:
            corners = tris[owner]
            alive[owner] = False
            n_alive += 1  # one owner out, two children in
            unregister(owner)
            for i in range(3):
                p, q = corners[i], corners[(i + 1) % 3]
                if edge_key(p, q) == edge_key(ea, eb):
                    o = corners[(i + 2) % 3]
                    children = ((p, m, o), (m, q, o))
                    break
            else:  # pragma: no cover - edge map guarantees membership
                raise AssertionError("edge not found in owning triangle")
            for child in children:
                cid = len(tris)
                tris.append(child)
                alive.append(True)
                register(cid)
                queue.append(cid)
            if len(tris) > REFINE_CAP * 2 or n_alive > REFINE_CAP:
                raise RefinementOverflow(
                    f"refinement of '{mesh.name}' exceeded {REFINE_CAP} triangles"
                )

    out = [t for t, ok in zip(tris, alive) if ok]
    return TriangleMesh(
        np.asarray(verts, dtype=np.float64),
        np.asarray(out, dtype=np.int32),
        name=mesh.name,
    )


def _dist_sq(a: Sequence[float], b: Sequence[float]) -> float:
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    dz = a[2] - b[2]
    return dx * dx + dy * dy + dz * dz


def _tri_area(a: Sequence[float], b: Sequence[float], c: Sequence[float]) -> float:
    ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    vx, vy, vz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    nx = uy * vz - uz * vy
    ny = uz * vx - ux * vz
    nz = ux * vy - uy * vx
    return 0.5 * math.sqrt(nx * nx + ny * ny + nz * nz)


# ---------------------------------------------------------------------------
# sort-and-sweep index
# ---------------------------------------------------------------------------

@dataclass
class MeshIndex:
    """Sort-and-sweep index over triangle AABBs (Baraff 1992).

    On each axis k, ``order[k]`` lists the triangle ids by increasing box
    minimum, ``keys[k]`` holds those minima and ``hi_max[k]`` the running
    maximum of the box maxima in that order.  Both key rows are monotone,
    so two binary searches bound the run of triangles whose boxes can
    meet a query interval on that axis; :func:`query_candidates` makes
    them for a whole batch of boxes at once.
    """

    tri_lo: np.ndarray  # (M, 3) per-triangle AABB minima, a contiguous column per axis
    tri_hi: np.ndarray  # (M, 3) per-triangle AABB maxima, likewise
    order: np.ndarray  # (3, M) int32 triangle ids sorted by tri_lo per axis
    keys: np.ndarray  # (3, M) tri_lo in that order
    hi_max: np.ndarray  # (3, M) running maximum of tri_hi in that order


def build_index(mesh: TriangleMesh) -> MeshIndex:
    """Sort-and-sweep index over the triangle boxes from :func:`tri_bounds`.

    A box side thinner than 1e-9 * max(1, extent), the extent being its
    longest side, is inflated by that much at both ends, so an
    axis-parallel triangle still presents a queryable volume.
    """
    if len(mesh) == 0:
        raise EmptyMesh(f"mesh '{mesh.name}' has no triangles to index")
    lo, hi = (b.T for b in tri_bounds(mesh.tri_vertices()))  # (3, M) rows
    size = hi - lo
    extent = np.maximum(np.maximum(np.maximum(size[0], size[1]), size[2]), 1.0)
    eps = 1e-9 * extent
    flat = size < eps
    np.subtract(lo, eps, out=lo, where=flat)
    np.add(hi, eps, out=hi, where=flat)
    order = np.argsort(lo, axis=1, kind="stable").astype(np.int32)
    at = order + np.arange(0, lo.size, lo.shape[1])[:, None]  # into the flattened rows
    return MeshIndex(
        tri_lo=lo.T,
        tri_hi=hi.T,
        order=order,
        keys=lo.take(at),
        hi_max=np.maximum.accumulate(hi.take(at), axis=1),
    )


def query_candidates(index: MeshIndex, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Candidate triangles of a batch of closed boxes ``[lo, hi]``.

    ``lo`` and ``hi`` are (B, 3) arrays.  Returns a (P, 2) int64 array of
    (box, triangle) pairs, one per triangle whose inflated AABB meets the
    box: grouped by box in input order, triangles ascending within a box.
    """
    lo = np.asarray(lo, dtype=np.float64).reshape(-1, 3)
    hi = np.asarray(hi, dtype=np.float64).reshape(-1, 3)
    # on axis k, a triangle sorted before ``start`` ends below the box and
    # one sorted from ``stop`` on begins above it; scan the shortest window
    start = np.column_stack([index.hi_max[k].searchsorted(lo[:, k]) for k in range(3)])
    stop = np.column_stack([index.keys[k].searchsorted(hi[:, k], "right") for k in range(3)])
    axis = np.argmin(stop - start, axis=1)
    boxes = np.arange(len(lo))
    first = start[boxes, axis]
    n = np.maximum(stop[boxes, axis] - first, 0)
    # each box's window slots, as positions in the flattened ``order``
    offset = np.cumsum(n) - n - first - axis * index.order.shape[1]
    ids = index.order.ravel()[np.arange(n.sum()) - np.repeat(offset, n)]
    keep = np.ones(len(ids), dtype=bool)
    for k in range(3):
        keep &= index.tri_lo[:, k][ids] <= np.repeat(hi[:, k], n)
        keep &= index.tri_hi[:, k][ids] >= np.repeat(lo[:, k], n)
    box, ids = np.repeat(boxes, n)[keep], ids[keep]
    by_box = np.lexsort((ids, box))
    return np.column_stack([box[by_box], ids[by_box]])
