import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from riemann_examples import mesh as mesh_module
from riemann_examples.curve import Lambda
from riemann_examples.mesh import (
    MeshProvenance,
    SurfaceMesh,
    build_mesh,
    euler_characteristic,
    export,
    triangle_areas,
)
from riemann_examples.weierstrass import (
    Normalization,
    immerse_grid,
    period_vectors,
    radial_edge_alignment,
    unit_normal,
)


def seam_offsets(grid_plus, grid_minus):
    """Per-row offsets between each grid's seam column and the start column it
    continues onto (same sheet or the other, whichever root matches).

    The returned array holds, for every row of each grid, the residual after
    subtracting the best integer multiple (in -2..2) of the translation
    period; a correctly tiling mesh has residuals at quadrature level.
    """
    t_vec = period_vectors(grid_plus.lam, grid_plus.norm).translation
    out = []
    grids = {+1: grid_plus, -1: grid_minus}
    for s, g in grids.items():
        for i in range(g.n_rad):
            w_end = g.w[i, -1]
            candidates = []
            for s2, g2 in grids.items():
                dw = abs(g2.w[i, 0] - w_end)
                candidates.append((dw, s2))
            _, s_match = min(candidates)
            start = grids[s_match].positions[i, 0]
            end = g.positions[i, -1]
            best = min(
                float(np.linalg.norm(end - (start + k * t_vec)))
                for k in range(-2, 3)
            )
            out.append(best)
    return np.array(out)


def load_obj(path) -> SurfaceMesh:
    verts, norms, tris = [], [], []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "vn":
                norms.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                tris.append([int(p.split("/")[0]) - 1 for p in parts[1:4]])
    return SurfaceMesh(
        vertices=np.array(verts).reshape(-1, 3),
        triangles=np.array(tris, dtype=np.int64).reshape(-1, 3),
        normals=np.array(norms).reshape(-1, 3),
        abs_curvature=np.zeros(len(verts)),
        provenance=MeshProvenance(lam=float("nan"), normalization="unknown",
                                  sheet_convention="unknown", r_min=0.0, r_max=0.0,
                                  n_rad=0, n_ang=0, copies=0),
    )


def load_ply(path) -> SurfaceMesh:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    n_vert = n_face = 0
    body_at = 0
    for k, line in enumerate(lines):
        if line.startswith("element vertex"):
            n_vert = int(line.split()[-1])
        elif line.startswith("element face"):
            n_face = int(line.split()[-1])
        elif line == "end_header":
            body_at = k + 1
            break
    vert_rows = [list(map(float, ln.split())) for ln in lines[body_at:body_at + n_vert]]
    face_rows = [list(map(int, ln.split()))[1:4]
                 for ln in lines[body_at + n_vert:body_at + n_vert + n_face]]
    data = np.array(vert_rows).reshape(-1, 7)
    return SurfaceMesh(
        vertices=data[:, 0:3], triangles=np.array(face_rows, dtype=np.int64).reshape(-1, 3),
        normals=data[:, 3:6], abs_curvature=data[:, 6],
        provenance=MeshProvenance(lam=float("nan"), normalization="unknown",
                                  sheet_convention="unknown", r_min=0.0, r_max=0.0,
                                  n_rad=0, n_ang=0, copies=0),
    )


def small_mesh(lv=1.0, copies=1, n_rad=12, n_ang=24):
    lam = Lambda(lv)
    return build_mesh(lam, Normalization.paper(lam), n_rad=n_rad, n_ang=n_ang,
                      copies=copies, r_min=0.1, r_max=10.0)


def empty_mesh():
    return SurfaceMesh(
        vertices=np.zeros((0, 3)), triangles=np.zeros((0, 3), dtype=np.int64),
        normals=np.zeros((0, 3)), abs_curvature=np.zeros(0),
        provenance=MeshProvenance(lam=1.0, normalization="paper",
                                  sheet_convention="", r_min=0.0, r_max=0.0,
                                  n_rad=0, n_ang=0, copies=0))


def test_triangle_count_formula():
    n_rad, n_ang = 12, 24
    mesh = small_mesh(n_rad=n_rad, n_ang=n_ang)
    assert mesh.n_triangles == 2 * (n_rad - 1) * n_ang * 2  # per sheet per copy


def test_copies_are_exact_translates():
    lam = Lambda(2.0)
    norm = Normalization.paper(lam)
    m1 = build_mesh(lam, norm, n_rad=8, n_ang=16, copies=1, r_min=0.1, r_max=10.0)
    m2 = build_mesh(lam, norm, n_rad=8, n_ang=16, copies=2, r_min=0.1, r_max=10.0)
    t_vec = period_vectors(lam, norm).translation
    n = m1.n_vertices
    assert np.array_equal(m2.vertices[:n], m1.vertices)
    assert np.array_equal(m2.vertices[n:], m1.vertices + t_vec)
    assert np.array_equal(m2.triangles[len(m1.triangles):] - n, m1.triangles)


def cross_product_areas(mesh: SurfaceMesh) -> np.ndarray:
    v, t = mesh.vertices, mesh.triangles
    return 0.5 * np.linalg.norm(np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]]), axis=1)


@pytest.mark.parametrize("lv", [0.354, 1.0, 4.851])
def test_triangle_areas_equal_cross_product_norm_bitwise(lv):
    for mesh in (small_mesh(lv, copies=2), special_values_mesh()):
        with np.errstate(over="ignore", invalid="ignore"):
            areas, reference = triangle_areas(mesh), cross_product_areas(mesh)
        assert areas.dtype == reference.dtype
        assert np.array_equal(areas.view(np.int64), reference.view(np.int64))


def test_euler_characteristic_constant_across_resolutions():
    for lv in (1.0, 2.0):
        chis = {euler_characteristic(small_mesh(lv, n_rad=n, n_ang=2 * n))
                for n in (8, 12, 16)}
        assert len(chis) == 1


def set_based_euler(mesh: SurfaceMesh) -> int:
    edges = set()
    for tri in mesh.triangles:
        for e in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edges.add((min(e), max(e)))
    return mesh.n_vertices - len(edges) + mesh.n_triangles


def test_euler_characteristic_matches_edge_set():
    points_only = SurfaceMesh(
        vertices=np.eye(3), triangles=np.zeros((0, 3), dtype=np.int64),
        normals=np.eye(3), abs_curvature=np.zeros(3), provenance=empty_mesh().provenance)
    meshes = [small_mesh(0.5), small_mesh(1.0, copies=2), small_mesh(3.0, n_rad=8, n_ang=16),
              special_values_mesh(), empty_mesh(), points_only]
    for m in meshes:
        assert euler_characteristic(m) == set_based_euler(m)
    assert euler_characteristic(points_only) == 3


def test_no_degenerate_triangles():
    mesh = small_mesh(0.5)
    assert float(triangle_areas(mesh).min()) > 1e-12


def test_mesh_tiles_by_translation():
    for lv in (0.5, 1.0, 3.0):
        lam = Lambda(lv)
        norm = Normalization.paper(lam)
        grids = [immerse_grid(lam, norm, r_min=0.1, r_max=10.0, n_rad=10, n_ang=20,
                              sheet_sign=s, closed=True) for s in (+1, -1)]
        offsets = seam_offsets(grids[0], grids[1])
        assert float(offsets.max()) < 1e-9


def test_lambda_one_mesh_mirror_symmetric():
    # the vertex set of the periodic surface is invariant under the mirror;
    # on a single fundamental domain some partners sit one period over, so
    # the comparison set is extended by the neighbouring translates
    lam = Lambda(1.0)
    mesh = small_mesh(1.0, n_rad=16, n_ang=32)
    t_vec = period_vectors(lam, Normalization.paper(lam)).translation
    v = mesh.vertices
    extended = np.concatenate([v + k * t_vec for k in (-1, 0, 1)])
    mirrored = v * np.array([1.0, -1.0, 1.0])
    d2 = np.sum((mirrored[:, None, :] - extended[None, :, :]) ** 2, axis=-1)
    hausdorff = math.sqrt(d2.min(axis=1).max())
    assert hausdorff < 1e-6


def test_discrete_normals_converge_to_gauss_map():
    def normal_error(n_rad, n_ang):
        lam = Lambda(2.0)
        norm = Normalization.paper(lam)
        grid = immerse_grid(lam, norm, r_min=0.5, r_max=2.0, n_rad=n_rad,
                            n_ang=n_ang, sheet_sign=+1, closed=False)
        worst = 0.0
        for i in range(grid.n_rad - 1):
            for j in range(grid.n_col - 1):
                a = grid.positions[i, j]
                b = grid.positions[i, j + 1]
                c = grid.positions[i + 1, j]
                facet = np.cross(b - a, c - a)
                facet /= np.linalg.norm(facet)
                exact = unit_normal(grid.z[i, j])
                worst = max(worst, min(np.linalg.norm(facet - exact),
                                       np.linalg.norm(facet + exact)))
        return worst

    e1 = normal_error(8, 16)
    e2 = normal_error(16, 32)
    assert e2 < 0.7 * e1


@pytest.mark.parametrize("lv", [0.01, 0.003])
def test_small_lambda_mesh_builds(lv):
    # the sheet -1 grid needs C, integrated over [1, lam] with a singular
    # end at lam, a distance lam from the branch point 0
    mesh = build_mesh(lv, Normalization.paper(lv), n_rad=8, n_ang=16)
    assert len(mesh.vertices) > 0
    assert np.all(np.isfinite(mesh.vertices))


def test_mesh_provenance_and_curvature_channel():
    mesh = small_mesh(1.0)
    assert mesh.provenance.lam == 1.0
    assert mesh.provenance.normalization == "paper"
    assert mesh.abs_curvature.max() <= 2.0 + 1e-9
    assert np.all(mesh.abs_curvature >= 0.0)


def test_copies_validation():
    with pytest.raises(ValueError):
        small_mesh(copies=0)


def test_mesh_rejects_bad_indices():
    with pytest.raises(ValueError):
        SurfaceMesh(vertices=np.zeros((2, 3)), triangles=np.array([[0, 1, 2]]),
                    normals=np.zeros((2, 3)), abs_curvature=np.zeros(2),
                    provenance=empty_mesh().provenance)


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

def test_obj_round_trip_byte_identical(tmp_path):
    mesh = small_mesh(1.0, n_rad=8, n_ang=16)
    p1 = tmp_path / "a.obj"
    p2 = tmp_path / "b.obj"
    export(mesh, "obj", p1)
    re_read = load_obj(p1)
    assert np.array_equal(re_read.vertices, mesh.vertices)
    export(re_read, "obj", p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_ply_round_trip_byte_identical(tmp_path):
    mesh = small_mesh(2.0, n_rad=8, n_ang=16)
    p1 = tmp_path / "a.ply"
    p2 = tmp_path / "b.ply"
    export(mesh, "ply", p1)
    re_read = load_ply(p1)
    assert np.array_equal(re_read.vertices, mesh.vertices)
    assert np.array_equal(re_read.abs_curvature, mesh.abs_curvature)
    export(re_read, "ply", p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_repeated_export_is_deterministic(tmp_path):
    lam = Lambda(0.5)
    norm = Normalization.paper(lam)
    paths = []
    for name in ("x.ply", "y.ply"):
        mesh = build_mesh(lam, norm, n_rad=8, n_ang=16, copies=1,
                          r_min=0.1, r_max=10.0)
        p = tmp_path / name
        export(mesh, "ply", p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_empty_mesh_exports_valid_files(tmp_path):
    mesh = empty_mesh()
    p_obj = tmp_path / "empty.obj"
    p_ply = tmp_path / "empty.ply"
    export(mesh, "obj", p_obj)
    export(mesh, "ply", p_ply)
    assert "element vertex 0" in p_ply.read_text()
    assert "element face 0" in p_ply.read_text()
    assert load_ply(p_ply).n_vertices == 0
    assert load_obj(p_obj).n_triangles == 0


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        export(empty_mesh(), "stl", tmp_path / "x.stl")


def test_export_io_failure():
    with pytest.raises(OSError):
        export(empty_mesh(), "obj", "/nonexistent-dir/x.obj")


def _reference_text(mesh: SurfaceMesh, fmt: str) -> str:
    """Line-by-line export with format(x, ".17g") per float."""
    def f(x):
        return format(float(x), ".17g")

    if fmt == "obj":
        lines = ["# riemann-examples surface mesh"]
        lines += [f"v {f(x)} {f(y)} {f(z)}" for x, y, z in mesh.vertices]
        lines += [f"vn {f(x)} {f(y)} {f(z)}" for x, y, z in mesh.normals]
        lines += [f"f {a}//{a} {b}//{b} {c}//{c}" for a, b, c in mesh.triangles + 1]
    else:
        lines = ["ply", "format ascii 1.0", "comment riemann-examples surface mesh",
                 f"element vertex {mesh.n_vertices}"]
        lines += [f"property double {p}" for p in ("x", "y", "z", "nx", "ny", "nz", "quality")]
        lines += [f"element face {mesh.n_triangles}",
                  "property list uchar int vertex_indices", "end_header"]
        lines += [" ".join(f(x) for x in (*v, *n, k))
                  for v, n, k in zip(mesh.vertices, mesh.normals, mesh.abs_curvature)]
        lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    return "\n".join(lines) + "\n"


def special_values_mesh():
    vertices = np.array([[-0.0, 0.0, 3.0], [5e-324, -2.2250738585072014e-308, 1e300],
                         [-1e300, 1.0, -7.0], [0.1, 1.0 / 3.0, -2.5e-17],
                         [123456789.0, -0.0, 6.02214076e23]])
    normals = np.array([[0.0, 0.0, 1.0], [-0.0, 1.0, 0.0], [0.6, -0.8, -0.0],
                        [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    return SurfaceMesh(
        vertices=vertices, triangles=np.array([[0, 1, 2], [2, 3, 4], [4, 0, 1]]),
        normals=normals, abs_curvature=np.array([0.0, 5e-324, 1e300, 4.0, -0.0]),
        provenance=MeshProvenance(lam=1.0, normalization="paper", sheet_convention="",
                                  r_min=0.0, r_max=0.0, n_rad=0, n_ang=0, copies=0))


@pytest.mark.parametrize("fmt", ["obj", "ply"])
def test_export_equals_reference_formatter(tmp_path, monkeypatch, fmt):
    from riemann_examples import mesh as mesh_module
    built = small_mesh(2.0, copies=2, n_rad=8, n_ang=16)
    # the second copy's last |K| one ulp off: its rows no longer tile the first's
    curv = built.abs_curvature.copy()
    curv[-1] = np.nextafter(curv[-1], np.inf)
    untiled = dataclasses.replace(built, abs_curvature=curv)
    for name, m, chunk in (("built", built, None), ("untiled", untiled, None),
                           ("special", special_values_mesh(), 2), ("empty", empty_mesh(), None)):
        if chunk is not None:
            monkeypatch.setattr(mesh_module, "EXPORT_CHUNK", chunk)
        path = tmp_path / f"{name}.{fmt}"
        export(m, fmt, path)
        assert path.read_bytes() == _reference_text(m, fmt).encode("ascii")
    tokens = (tmp_path / f"special.{fmt}").read_text().split()
    for token in ("-0", "4.9406564584124654e-324", "1.0000000000000001e+300", "3", "-7"):
        assert token in tokens


#: Values repeated across pooled meshes: signed zeros, subnormals, extremes.
VALUE_POOL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
              1e300, -1e300, 1.0, -7.0, 0.1, 1.0 / 3.0)
UNIT_POOL = ((0.0, 0.0, 1.0), (0.6, -0.8, 0.0), (1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0),
             tuple(unit_normal(0.3 + 0.7j)))


@st.composite
def pooled_meshes(draw):
    """Small meshes whose floats repeat, drawn from VALUE_POOL and, for the
    normals, UNIT_POOL with each component's sign flipped at random.  The
    provenance names 0-3 copies, and the normals and |K| may repeat per
    copy, as build_mesh's do."""
    copies = draw(st.integers(0, 3))
    n = draw(st.integers(0, 6))
    value = st.sampled_from(VALUE_POOL)
    sign = st.sampled_from((1.0, -1.0))
    normals = [[s * c for s, c in zip(draw(st.tuples(sign, sign, sign)),
                                      draw(st.sampled_from(UNIT_POOL)))] for _ in range(n)]
    curvature = [draw(value) for _ in range(n)]
    if draw(st.booleans()):
        normals, curvature = normals * max(copies, 1), curvature * max(copies, 1)
        n = len(normals)
    vertices = [draw(st.tuples(value, value, value)) for _ in range(n)]
    index = st.integers(0, max(n - 1, 0))
    triangles = draw(st.lists(st.tuples(index, index, index), max_size=8 if n else 0))
    return SurfaceMesh(
        vertices=np.array(vertices).reshape(-1, 3),
        triangles=np.array(triangles, dtype=np.int64).reshape(-1, 3),
        normals=np.array(normals).reshape(-1, 3), abs_curvature=np.array(curvature),
        provenance=dataclasses.replace(empty_mesh().provenance, copies=copies))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mesh=pooled_meshes(), chunk=st.sampled_from((1, 2, 3, 7, 2048)))
@example(mesh=SurfaceMesh(
    vertices=np.zeros((2, 3)), triangles=np.zeros((0, 3), dtype=np.int64),
    normals=np.array([[0.0, 0.0, 1.0], [-0.0, 0.0, 1.0]]), abs_curvature=np.zeros(2),
    provenance=dataclasses.replace(empty_mesh().provenance, copies=2)), chunk=2048)
def test_export_equals_reference_on_repeated_values(tmp_path, mesh, chunk):
    # the writers format each distinct value once, keyed by bit pattern:
    # -0.0 and 0.0 compare equal but must keep their own text, also where
    # they are all that tells one copy's rows from another's
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mesh_module, "EXPORT_CHUNK", chunk)
        for fmt in ("obj", "ply"):
            path = tmp_path / f"pooled.{fmt}"
            export(mesh, fmt, path)
            assert path.read_bytes() == _reference_text(mesh, fmt).encode("ascii")


@pytest.mark.parametrize("chunk", [3, 2048])
def test_export_streams_at_most_chunk_rows(monkeypatch, chunk):
    monkeypatch.setattr(mesh_module, "EXPORT_CHUNK", chunk)
    mesh = small_mesh(0.5, copies=2, n_rad=24, n_ang=48)
    assert mesh.n_triangles > 2 * chunk
    n_v, n_t = mesh.n_vertices, mesh.n_triangles
    for writer, n_rows in ((mesh_module._obj_text, 2 * n_v + n_t),
                           (mesh_module._ply_text, n_v + n_t)):
        rows = [piece.count("\n") for piece in list(writer(mesh))[1:]]
        assert max(rows) <= chunk
        assert sum(rows) == n_rows


def _export_matches_reference(tmp_path, mesh, fmt):
    path = tmp_path / f"shared.{fmt}"
    export(mesh, fmt, path)
    assert path.read_bytes() == _reference_text(mesh, fmt).encode("ascii")


@pytest.mark.parametrize("order", [("obj", "ply"), ("ply", "obj")])
def test_both_formats_of_one_mesh_share_its_text(tmp_path, order):
    mesh = small_mesh(0.5, copies=2, n_rad=8, n_ang=16)
    for fmt in order + order:
        _export_matches_reference(tmp_path, mesh, fmt)


def test_shared_text_follows_a_chunk_change(tmp_path, monkeypatch):
    mesh = small_mesh(2.0, copies=2, n_rad=8, n_ang=16)
    _export_matches_reference(tmp_path, mesh, "obj")
    monkeypatch.setattr(mesh_module, "EXPORT_CHUNK", 3)
    for fmt, writer in (("ply", mesh_module._ply_text), ("obj", mesh_module._obj_text)):
        _export_matches_reference(tmp_path, mesh, fmt)
        assert max(piece.count("\n") for piece in list(writer(mesh))[1:]) <= 3


def test_shared_text_is_freed_with_its_mesh(tmp_path):
    mesh = small_mesh(1.0, n_rad=8, n_ang=16)
    for fmt in ("obj", "ply"):
        _export_matches_reference(tmp_path, mesh, fmt)
    refs = weakref.ref(mesh), weakref.ref(mesh._export_text)
    del mesh
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_vertex_and_triangle_order_match_cell_loop():
    # reference assembly: cell by cell, with the period-shifted duplicate
    # vertices appended on first use
    lam = Lambda(0.5)
    norm = Normalization.paper(lam)
    n_rad, n_ang = 12, 24
    grids = {s: immerse_grid(lam, norm, r_min=0.1, r_max=10.0, n_rad=n_rad, n_ang=n_ang,
                             sheet_sign=s, closed=True) for s in (+1, -1)}
    alignment = radial_edge_alignment(grids[+1])
    t_vec = period_vectors(lam, norm).translation
    n_col = n_ang + 1
    verts = [grids[+1].positions.reshape(-1, 3), grids[-1].positions.reshape(-1, 3)]
    extra = {}

    def vid(s, i, j, k):
        if k == 0:
            return (0 if s > 0 else n_rad * n_col) + i * n_col + j
        if (s, i, j, k) not in extra:
            verts.append((grids[s].positions[i, j] + k * t_vec)[None, :])
            extra[(s, i, j, k)] = 2 * n_rad * n_col + len(extra)
        return extra[(s, i, j, k)]

    def upper_vid(s, i, j):
        # the aligned upper vertex of radial edge (i, j) in the pair's
        # numbering: sheet +1 block, then sheet -1 block, each row-major
        block = 0 if s > 0 else 1
        u, k = alignment.upper[block, i, j], alignment.period_k[block, i, j]
        s_up = 1 if u < n_rad * n_col else -1
        i_up, j_up = divmod(u % (n_rad * n_col), n_col)
        assert (i_up, j_up) == (i + 1, j)
        return vid(s_up, i_up, j_up, k)

    tris = []
    for s in (+1, -1):
        for i in range(n_rad - 1):
            for c in range(n_col - 1):
                a, b = vid(s, i, c, 0), vid(s, i, c + 1, 0)
                cc = upper_vid(s, i, c + 1)
                d = upper_vid(s, i, c)
                tris += [(a, b, cc), (a, cc, d)]
    mesh = build_mesh(lam, norm, n_rad=n_rad, n_ang=n_ang, r_min=0.1, r_max=10.0)
    assert extra
    assert np.array_equal(mesh.vertices, np.concatenate(verts))
    assert np.array_equal(mesh.triangles, np.array(tris))
