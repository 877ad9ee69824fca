"""Triangulated meshes of the immersed surface and ASCII export.

One fundamental-domain mesh covers both sheets of the cover over a trimmed
annulus, built from the two closed grid immersions.  Cell assembly follows
the sheet alignment of radial edges, read off the grid paths' lifts: an
edge keeps its start's root sign sigma (w = sigma W), so where sigma
changes between rings a cell takes its upper corners from the other
sheet's grid, translated by the periods its count of cut crossings
differs by; triangles never bridge the two sheets incorrectly near a
branch point.  Further copies are exact translates by the period vector T.

The ASCII OBJ/PLY writers write every float as Python's "%.17g" does.
numpy formats whole arrays of doubles with 1e-4 <= |x| < 1e17 (an exact
two-product gives their 17 digits), and "%.17g" the rest one value at a
time: zeros, subnormals, |x| < 1e-4, |x| >= 1e17, inf and nan.  The text is
fixed-width uint8 rows padded with zero bytes; each chunk of lines is
assembled from them and the padding dropped.  The text that depends on the
mesh alone is formatted once per mesh and kept on it: the positions, chunk
by chunk, and a table of each distinct normal component and |K| value
(both depend on z alone, so both sheets and every copy repeat them).
"""

from __future__ import annotations

import math
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

#: Rows formatted and written per piece of export text; bounds the
#: temporaries held at once.
EXPORT_CHUNK = 2048


@dataclass(frozen=True)
class MeshProvenance:
    """How a SurfaceMesh was built: lam, the normalization's kind ("raw",
    "paper" or "spacing"), the sheet convention of its roots, the trimmed
    annulus r_min <= |z| <= r_max sampled n_rad x n_ang per sheet, and the
    number of fundamental domains (copies) translated by the period."""

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
    """Triangulated surface: vertex positions in the ambient units of the
    normalization, triangles as vertex indices, and per vertex the unit
    normal and |K| (in inverse squared ambient units, abs_gauss_curvature:
    the curvature of the surface x/2, four times that of the positions
    here); arrays are stored read-only."""

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

    Quad cells follow the continuation alignment of their radial edges
    (radial_edge_alignment): an edge keeps its start's root sign sigma, so a
    cell whose upper ring has the other sigma takes its upper corners from
    the other sheet's grid, and one whose edge ends j_land - j_start periods
    away, j the signed count of cut crossings of a vertex's grid path, from
    a translated duplicate vertex.  Ends are trimmed at
    |z| in [r_min, r_max], finite with 0 < r_min < r_max and rings with a
    finite curve polynomial (`immerse_grid` raises ValueError otherwise); the
    second and later copies reuse the first copy's immersion values
    translated by multiples of the period vector, exactly.
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
    Every float is written as Python's "%.17g" writes it, which round-trips
    doubles exactly.  Doubles with 1e-4 <= |x| < 1e17 are formatted by numpy
    for whole arrays at once (`_float_text`); the others (zeros, subnormals,
    |x| < 1e-4, |x| >= 1e17, inf and nan) by "%.17g" one at a time.  The
    text that depends on the mesh alone is formatted once per mesh, kept on
    it and shared by both formats: the text of the positions, and a table of
    each distinct normal component and |K| value (by bit pattern, so -0.0
    and 0.0 stay apart), which both sheets and every translated copy repeat
    since they depend on z alone.  The vertex numbers of the face rows are
    formatted once per export.  Rows are written EXPORT_CHUNK at a time.
    """
    writers = {"obj": _obj_text, "ply": _ply_text}
    fmt = fmt.lower()
    if fmt not in writers:
        raise ValueError(f"unsupported mesh format {fmt!r} (use 'obj' or 'ply')")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(writers[fmt](mesh))


#: Bytes of the text of one double: "-d.dddddddddddddddde-ddd" at most.
FLOAT_WIDTH = 24

#: 10**0 .. 10**20, each an exact double, and their Veltkamp halves.
_POW10 = np.array([float(10 ** k) for k in range(21)])


def _veltkamp(a):
    """(hi, lo) with hi + lo = a exactly, each of at most 26 significant bits."""
    c = 134217729.0 * a     # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _veltkamp(_POW10)


def _scaled(mag, k):
    """(p, e): p = fl(mag * 10**k) and the exact error e = mag * 10**k - p
    of Dekker's two-product, for 0 <= k <= 20 and 1e-4 <= mag < 1e17."""
    p = mag * _POW10[k]
    hi, lo = _veltkamp(mag)
    ten_hi, ten_lo = _POW10_HI[k], _POW10_LO[k]
    return p, ((hi * ten_hi - p) + hi * ten_lo + lo * ten_hi) + lo * ten_lo


def _float_text(values) -> np.ndarray:
    """The "%.17g" text of each double of `values` (flattened), one
    (FLOAT_WIDTH,) uint8 row each, padded with zero bytes.

    For 1e-4 <= |x| < 1e17, "%.17g" writes the 17 significant digits of |x|
    in fixed notation.  With X = floor(log10 |x|) in [-4, 16], they are the
    digits of N = round-half-even(|x| * 10**(16 - X)) in [1e16, 1e17), read
    off the exact product p + e of `_scaled` as p + rint(e): p is an even
    integer there, and np.rint rounds half to even.  A floor(log10) one off
    near a power of ten moves X one step.  N never rounds up to 1e17: no
    double of the range lies within half a unit of the 17th digit below a
    power of ten.  The digits are laid out per exponent, the values sorted
    by X, and the trailing zeros of the fraction (and a point with no
    fraction left) are dropped.  Every other double is formatted by "%.17g"
    one at a time.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    mag = np.abs(x)
    fast = (mag >= 1e-4) & (mag < 1e17)
    mag[~fast] = 1.0
    exp10 = np.floor(np.log10(mag)).astype(np.int8).clip(-4, 16)
    p, e = _scaled(mag, 16 - exp10)
    step = (((p > 1e17) | ((p == 1e17) & (e >= 0))).view(np.int8)     # p + e >= 1e17
            - ((p < 1e16) | ((p == 1e16) & (e < 0))).view(np.int8))   # p + e < 1e16
    moved = np.flatnonzero(step)
    if len(moved):
        exp10[moved] += step[moved]
        p[moved], e[moved] = _scaled(mag[moved], 16 - exp10[moved])
    sig = p.astype(np.int64) + np.rint(e).astype(np.int64)

    # column-major text of the values sorted by exponent, so that each
    # exponent's layout is a few block copies
    order = np.argsort(exp10, kind="stable")
    exp10, sig = exp10[order], sig[order]
    digits = np.empty((17, len(x)), np.uint8)
    high, low = np.divmod(sig, 10 ** 9)
    for part, rows in ((low.astype(np.uint32), range(16, 7, -1)),
                       (high.astype(np.uint32), range(7, -1, -1))):
        for row in rows:
            rest = part // 10
            digits[row] = part - 10 * rest
            part = rest
    digits += ord("0")
    text = np.zeros((FLOAT_WIDTH, len(x)), np.uint8)
    text[0] = (x[order] < 0).view(np.uint8) * ord("-")
    bounds = np.searchsorted(exp10, np.arange(-4, 18))
    for exp, lo, hi in zip(range(-4, 17), bounds[:-1], bounds[1:]):
        block = text[:, lo:hi]
        if exp >= 0:        # exp + 1 digits before the point
            block[1:exp + 2] = digits[:exp + 1, lo:hi]
            block[exp + 2] = ord(".")
            block[exp + 3:19] = digits[exp + 1:, lo:hi]
        else:               # "0." and -exp - 1 zeros before the digits
            block[1:2 - exp] = ord("0")
            block[2] = ord(".")
            block[2 - exp:19 - exp] = digits[:, lo:hi]

    # drop the trailing zeros from the last digit back, and the point if
    # they reach it
    flat = text.ravel()
    at = (18 - np.minimum(exp10, 0).astype(np.intp)) * len(x) + np.arange(len(x))
    while len(at):
        char = flat[at]
        at = at[(char == ord("0")) | (char == ord("."))]
        char = flat[at]
        flat[at] = 0
        at = at[char == ord("0")] - len(x)

    rank = np.empty_like(order)
    rank[order] = np.arange(len(x))
    out = np.take(np.ascontiguousarray(text.T), rank, axis=0)
    slow = np.flatnonzero(~fast)
    if len(slow):
        out[slow] = np.frombuffer(b"".join(
            (b"%.17g" % v).ljust(FLOAT_WIDTH, b"\0") for v in x[slow].tolist()),
            np.uint8).reshape(-1, FLOAT_WIDTH)
    return out


def _int_text(values) -> np.ndarray:
    """The decimal text of each non-negative integer of `values`, one uint8
    row each as wide as the largest, padded with zero bytes."""
    n = np.asarray(values, dtype=np.int64).ravel()
    width = len(str(n.max())) if len(n) else 1
    text = np.empty((width, len(n)), np.uint8)
    for row in range(width - 1, -1, -1):
        rest = n // 10
        text[row] = (n - 10 * rest + ord("0")) * ((n > 0) | (row == width - 1))
        n = rest
    return np.ascontiguousarray(text.T)


def _concat(n: int, *parts) -> np.ndarray:
    """(n, w) uint8 rows that put `parts` side by side: bytes, the same in
    every row, or uint8 texts of n rows."""
    return np.concatenate([
        np.broadcast_to(np.frombuffer(part, np.uint8), (n, len(part))) if isinstance(part, bytes)
        else part.reshape(n, math.prod(part.shape[1:])) for part in parts], axis=1)


def _rows(prefix: bytes, *cells) -> str:
    """Lines of `prefix` and the cells of each row: uint8 texts, each ending
    in its separator, padded with zero bytes, which are dropped.  The last
    separator of a line becomes its newline."""
    line = _concat(len(cells[0]), prefix, *cells)
    line[:, -1] = ord("\n")
    return line.tobytes().translate(None, b"\0").decode("ascii")


def _chunks(n: int):
    """Slices of EXPORT_CHUNK rows that cover rows 0 .. n - 1."""
    return (slice(lo, lo + EXPORT_CHUNK) for lo in range(0, n, EXPORT_CHUNK))


def _float_cells(values) -> np.ndarray:
    """`_float_text` of each value and a space, formatted EXPORT_CHUNK rows
    at a time, in shape values.shape + (FLOAT_WIDTH + 1,)."""
    cells = np.empty(values.shape + (FLOAT_WIDTH + 1,), np.uint8)
    cells[..., FLOAT_WIDTH] = ord(" ")
    for rows in _chunks(len(values)):
        text = cells[rows, ..., :FLOAT_WIDTH]
        text[...] = _float_text(values[rows]).reshape(text.shape)
    return cells


class _ExportText:
    """Export text of one mesh that both formats share, as `_float_cells`.

    `positions` (n, 3, FLOAT_WIDTH + 1) holds the vertices, `table` each
    distinct double of [normals | abs_curvature], keyed by bit pattern, and
    `index` (n, 4) the row of every value in it.  When those rows are the
    provenance's copies of the first copy's, bit for bit (as build_mesh
    tiles them), only the first copy's are looked up and its index tiled.
    """

    def __init__(self, mesh: SurfaceMesh):
        n, copies = mesh.n_vertices, max(mesh.provenance.copies, 1)
        rows = n // copies
        if rows * copies != n or not all(
                np.array_equal(a[k * rows:(k + 1) * rows].view(np.int64), a[:rows].view(np.int64))
                for a in (mesh.normals, mesh.abs_curvature) for k in range(1, copies)):
            rows, copies = n, 1
        values = np.column_stack([mesh.normals[:rows], mesh.abs_curvature[:rows]])
        keys, index = np.unique(values.view(np.int64), return_inverse=True)
        self.table = _float_cells(keys.view(np.float64))
        self.index = np.tile(index.reshape(values.shape), (copies, 1))
        self.positions = _float_cells(mesh.vertices)


def _obj_text(mesh: SurfaceMesh):
    text = mesh._export_text
    yield "# riemann-examples surface mesh\n"
    for rows in _chunks(mesh.n_vertices):
        yield _rows(b"v ", text.positions[rows])
    for rows in _chunks(mesh.n_vertices):
        yield _rows(b"vn ", np.take(text.table, text.index[rows, :3], axis=0))
    number = _int_text(np.arange(1, mesh.n_vertices + 1))
    corner = _concat(mesh.n_vertices, number, b"//", number, b" ")
    for rows in _chunks(mesh.n_triangles):
        yield _rows(b"f ", np.take(corner, mesh.triangles[rows], axis=0))


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
    for rows in _chunks(mesh.n_vertices):
        yield _rows(b"", text.positions[rows], np.take(text.table, text.index[rows], axis=0))
    number = _concat(mesh.n_vertices, _int_text(np.arange(mesh.n_vertices)), b" ")
    for rows in _chunks(mesh.n_triangles):
        yield _rows(b"3 ", np.take(number, mesh.triangles[rows], axis=0))
