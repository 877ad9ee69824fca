"""Triangulated meshes of the immersed surface and ASCII export.

One fundamental-domain mesh covers both sheets of the cover over a trimmed
annulus, built from the two closed grid immersions.  Cell assembly follows
the sheet alignment of radial edges: for the single row pair straddling a
branch modulus, cells past the branch crossing take their upper corners
from the other sheet's grid, so triangles never bridge the two sheets
incorrectly near a branch point.  Further copies are exact translates by
the period vector T.

The ASCII OBJ/PLY writers share the text that depends on the mesh alone,
formatted once per mesh and kept on it: the "x y z" text of the positions,
chunk by chunk, and a table of each distinct normal component and |K| value
(both depend on z alone, so both sheets and every copy repeat them).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analysis import abs_gauss_curvature
from .errors import RiemannFamilyError
from .weierstrass import (
    Normalization,
    _matched_lambda,
    immerse_grid,
    period_vectors,
    radial_edge_alignment,
    unit_normal,
)

#: Decimal precision used for all exported floats; round-trips doubles exactly.
EXPORT_DIGITS = 17
_FLOAT = f"%.{EXPORT_DIGITS}g"

#: Rows formatted per %-operation when writing; bounds the text held at once.
EXPORT_CHUNK = 2048


@dataclass(frozen=True)
class MeshProvenance:
    lam: float
    normalization: str
    sheet_convention: str
    r_min: float
    r_max: float
    n_rad: int
    n_ang: int
    copies: int


@dataclass(frozen=True)
class SurfaceMesh:
    vertices: np.ndarray      # (n, 3) float
    triangles: np.ndarray     # (m, 3) int, counterclockwise in grid orientation
    normals: np.ndarray       # (n, 3) unit
    abs_curvature: np.ndarray  # (n,)
    provenance: MeshProvenance

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        t = np.asarray(self.triangles, dtype=np.int64)
        n = np.asarray(self.normals, dtype=float)
        k = np.asarray(self.abs_curvature, dtype=float)
        if len(t) and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle indices out of range")
        if len(n):
            bad = np.abs(np.linalg.norm(n, axis=1) - 1.0) > 1e-9
            if bad.any():
                raise ValueError("normals must be unit length")
        for arr in (v, t, n, k):
            arr.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "normals", n)
        object.__setattr__(self, "abs_curvature", k)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def _export_text(self) -> _ExportText:
        # cached_property writes the instance __dict__ directly, past the
        # frozen __setattr__; it is no field, so repr and == ignore it
        return _ExportText(self)


def triangle_areas(mesh: SurfaceMesh) -> np.ndarray:
    v = mesh.vertices
    t = mesh.triangles
    a, ab, ac = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    ab -= a
    ac -= a
    del a
    # the cross product component by component, with no (m, 3) temporaries
    cx = ab[:, 1] * ac[:, 2] - ab[:, 2] * ac[:, 1]
    cy = ab[:, 2] * ac[:, 0] - ab[:, 0] * ac[:, 2]
    cz = ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]
    return 0.5 * np.sqrt(cx * cx + cy * cy + cz * cz)


def euler_characteristic(mesh: SurfaceMesh) -> int:
    """V - E + F, with E the distinct unordered vertex pairs of triangle sides."""
    t = mesh.triangles
    sides = np.sort(np.stack([t, np.roll(t, -1, axis=1)], axis=-1).reshape(-1, 2), axis=1)
    edges = np.unique(sides[:, 0] * mesh.n_vertices + sides[:, 1])
    return mesh.n_vertices - len(edges) + mesh.n_triangles


def _fundamental_domain(lam, norm: Normalization, n_rad: int, n_ang: int,
                        r_min: float, r_max: float):
    """(vertices, triangles, z of each vertex, period vector T) of one
    fundamental domain.  Its own function so that the grids and the
    assembly's index arrays are freed before the copies and the area check."""
    grid = immerse_grid(lam, norm, r_min=r_min, r_max=r_max, n_rad=n_rad,
                        n_ang=n_ang, closed=True)
    pair = (grid, grid.sheet_partner)
    alignment = radial_edge_alignment(grid)
    t_vec = period_vectors(lam, norm).translation
    base_verts = np.concatenate([g.positions.reshape(-1, 3) for g in pair])
    base_z = np.concatenate([g.z.ravel() for g in pair])

    # cell (s, i, c), in the alignment's numbering of the pair, has lower
    # corners a = (s, i, c), b = (s, i, c + 1); its upper corners follow the
    # alignment of its east and west radial edges: cc = upper[s, i, c + 1]
    # shifted period_k[s, i, c + 1] periods, d likewise west
    a = np.arange(len(base_z)).reshape(2, n_rad, -1)[:, :-1, :-1].ravel()
    up, shift = (np.stack([m[..., 1:], m[..., :-1]], axis=-1).ravel()   # cc, d of each cell
                 for m in (alignment.upper, alignment.period_k))

    # a corner shifted by k != 0 periods is a duplicate vertex, appended
    # once per (vertex, k) in order of first use
    moved = shift != 0
    keys, first, inverse = np.unique(shift[moved] * len(base_z) + up[moved],
                                     return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    up[moved] = len(base_z) + rank[inverse]
    k_extra, src = np.divmod(keys[order], len(base_z))
    verts = np.concatenate([base_verts, base_verts[src] + k_extra[:, None] * t_vec])
    zflat = np.concatenate([base_z, base_z[src]])

    cc, d = up[0::2], up[1::2]
    tris = np.stack([a, a + 1, cc, a, cc, d], axis=-1).reshape(-1, 3).astype(np.int64)
    return verts, tris, zflat, t_vec


def build_mesh(lam, norm: Normalization, *, n_rad: int = 48, n_ang: int = 96,
               copies: int = 1, r_min: float = 1.0 / 40.0, r_max: float = 40.0) -> SurfaceMesh:
    """Mesh of `copies` fundamental domains of the immersed surface.

    Quad cells follow the continuation alignment of their radial edges, so
    cells in the ring pair straddling a branch modulus take their upper
    corners from the other sheet's grid (and, where the alignment carries a
    period offset, from a translated duplicate vertex).  Ends are trimmed at
    |z| in [r_min, r_max]; the second and later copies reuse the first
    copy's immersion values translated by multiples of the period vector,
    exactly.
    """
    lam = _matched_lambda(lam, norm)
    if copies < 1:
        raise ValueError("copies must be at least 1")
    verts, tris, zflat, t_vec = _fundamental_domain(lam, norm, n_rad, n_ang, r_min, r_max)
    normals = unit_normal(zflat)
    curv = abs_gauss_curvature(zflat, lam, norm)

    if copies > 1:
        tris = np.concatenate([tris + k * len(verts) for k in range(copies)])
        verts = np.concatenate([verts + k * t_vec for k in range(copies)])
        normals = np.tile(normals, (copies, 1))
        curv = np.tile(curv, copies)

    mesh = SurfaceMesh(
        vertices=verts, triangles=tris, normals=normals, abs_curvature=curv,
        provenance=MeshProvenance(
            lam=lam.value, normalization=norm.kind.value,
            sheet_convention="principal root at z0 = 1 (departure germ at lam = 1)",
            r_min=r_min, r_max=r_max, n_rad=n_rad, n_ang=n_ang, copies=copies,
        ),
    )
    areas = triangle_areas(mesh)
    if len(areas) and float(areas.min()) <= 1e-12:
        raise RiemannFamilyError(
            f"degenerate triangle (area {areas.min():.3e}) in mesh at lam = {lam.value}"
        )
    return mesh


# ---------------------------------------------------------------------------
# ASCII export / import
# ---------------------------------------------------------------------------

def export(mesh: SurfaceMesh, fmt: str, path) -> None:
    """Write the mesh as ASCII OBJ (v/vn/f) or PLY 1.0 (with |K| as quality).

    Output is deterministic: identical meshes produce byte-identical files.
    Every float is written with %.17g.  The text that depends on the mesh
    alone is formatted once per mesh, kept on it and shared by both formats:
    the "x y z" text of the positions, and a table of each distinct normal
    component and |K| value (by bit pattern, so -0.0 and 0.0 stay apart),
    which both sheets and every translated copy repeat since they depend on
    z alone.  Each vertex's index token of the face rows is formatted once
    per export.  Rows are written EXPORT_CHUNK at a time.
    """
    writers = {"obj": _obj_text, "ply": _ply_text}
    fmt = fmt.lower()
    if fmt not in writers:
        raise ValueError(f"unsupported mesh format {fmt!r} (use 'obj' or 'ply')")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(writers[fmt](mesh))


def _lines(row: str, values) -> str:
    """Lines `row % values[r]`, one per row r of a 2-d array, formatted by one
    %-operation."""
    return (row + "\n") * len(values) % tuple(values.ravel().tolist())


def _strings(row: str, values) -> np.ndarray:
    """Object array of the strings `row % values[r]`."""
    return np.array(_lines(row, values).split("\n")[:-1], dtype=object)


def _chunks(n: int):
    """Slices of EXPORT_CHUNK rows that cover rows 0 .. n - 1."""
    return (slice(lo, lo + EXPORT_CHUNK) for lo in range(0, n, EXPORT_CHUNK))


class _ExportText:
    """Export text of one mesh that both formats share.

    `table` holds %.17g of each distinct double of [normals | abs_curvature],
    keyed by bit pattern, and `index` (n, 4) the position of every value in
    it.  `positions()` is the "x y z\n" text of each EXPORT_CHUNK block of
    rows, formatted again only if EXPORT_CHUNK has changed since.
    """

    def __init__(self, mesh: SurfaceMesh):
        values = np.column_stack([mesh.normals, mesh.abs_curvature])
        keys, index = np.unique(values.view(np.int64), return_inverse=True)
        self.table = _strings(_FLOAT, keys.view(np.float64)[:, None])
        self.index = index.reshape(values.shape)
        self._vertices = mesh.vertices
        self._blocks = None, []

    def positions(self) -> list:
        chunk, blocks = self._blocks
        if chunk != EXPORT_CHUNK:
            blocks = [_lines(f"{_FLOAT} {_FLOAT} {_FLOAT}", self._vertices[rows])
                      for rows in _chunks(len(self._vertices))]
            self._blocks = EXPORT_CHUNK, blocks
        return blocks


def _obj_text(mesh: SurfaceMesh):
    text = mesh._export_text
    yield "# riemann-examples surface mesh\n"
    for block in text.positions():
        yield "v " + block[:-1].replace("\n", "\nv ") + "\n"
    for rows in _chunks(mesh.n_vertices):
        yield _lines("vn %s %s %s", text.table[text.index[rows, :3]])
    corner = _strings("%d//%d", np.repeat(np.arange(1, mesh.n_vertices + 1), 2).reshape(-1, 2))
    for rows in _chunks(mesh.n_triangles):
        yield _lines("f %s %s %s", corner[mesh.triangles[rows]])


def _ply_text(mesh: SurfaceMesh):
    text = mesh._export_text
    yield "\n".join([
        "ply",
        "format ascii 1.0",
        "comment riemann-examples surface mesh",
        f"element vertex {mesh.n_vertices}",
        "property double x",
        "property double y",
        "property double z",
        "property double nx",
        "property double ny",
        "property double nz",
        "property double quality",
        f"element face {mesh.n_triangles}",
        "property list uchar int vertex_indices",
        "end_header",
    ]) + "\n"
    for rows, block in zip(_chunks(mesh.n_vertices), text.positions()):
        xyz = block.split("\n")[:-1]
        cells = np.empty((len(xyz), 5), dtype=object)
        cells[:, 0] = xyz
        cells[:, 1:] = text.table[text.index[rows]]
        yield _lines("%s %s %s %s %s", cells)
    token = _strings("%d", np.arange(mesh.n_vertices)[:, None])
    for rows in _chunks(mesh.n_triangles):
        yield _lines("3 %s %s %s", token[mesh.triangles[rows]])
