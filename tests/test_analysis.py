import contextlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemann_examples.curve import CurvePoint, Lambda, continue_sheet, principal_w
from riemann_examples import analysis, weierstrass
from riemann_examples.cli import main
from riemann_examples.errors import (InsufficientSlicePoints, QuadratureFailure,
                                       RiemannFamilyError, SingularPoint)
from riemann_examples.analysis import (
    CurvatureGrid,
    abs_gauss_curvature,
    check_symmetries,
    fit_circle,
    fit_line_2d,
    foliation_slices,
    general_curvature,
    line_fit_residual,
    max_abs_curvature,
    max_center_curvature,
    plane_fit,
    verify_curvature_bound,
)
from riemann_examples.weierstrass import (
    Normalization,
    immerse,
    immerse_grid,
    normalization_scale,
    path_integral,
    period_vectors,
    radial_edge_alignment,
    weierstrass_integrand,
)
from riemann_examples.limits import end_spacing

from conftest import curve_samples


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lv", [0.1, 0.5, 1.0, 2.0, 10.0])
def test_raw_curvature_at_i(lv):
    lam = Lambda(lv)
    val = abs_gauss_curvature(1j, lam, Normalization.raw(lam))
    expect = lv + 1.0 / lv
    assert abs(val - expect) < 1e-10 * expect
    assert abs(abs_gauss_curvature(-1j, lam, Normalization.raw(lam)) - expect) < 1e-10 * expect


def test_normalized_curvature_at_i():
    lam = Lambda(0.5)
    val = abs_gauss_curvature(1j, lam, Normalization.paper(lam))
    assert val == pytest.approx(1.25, rel=1e-12)
    lam2 = Lambda(2.0)
    val2 = abs_gauss_curvature(1j, lam2, Normalization.paper(lam2))
    assert val2 == pytest.approx(1.25, rel=1e-12)


def test_curvature_vanishes_at_branch_point():
    lam = Lambda(3.0)
    for norm in (Normalization.raw(lam), Normalization.paper(lam)):
        assert abs_gauss_curvature(complex(lam.value), lam, norm) == 0.0


def test_curvature_singular_at_origin():
    with pytest.raises(SingularPoint):
        abs_gauss_curvature(0.0 + 0.0j, Lambda(1.0), Normalization.raw(Lambda(1.0)))


def test_general_curvature_examples():
    assert general_curvature(0.3 + 0.2j, 0.0, 1.0) == 0.0
    assert general_curvature(1.0, 1.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(ZeroDivisionError):
        general_curvature(1.0, 1.0, 0.0)


def test_general_curvature_agrees_with_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(100):
        lv = math.exp(rng.uniform(-1.5, 1.5))
        lam = Lambda(lv)
        z = math.exp(rng.uniform(-1.5, 1.5)) * np.exp(1j * rng.uniform(-3.1, 3.1))
        if min(abs(z - b) for b in (0.0, lv, -1.0 / lv)) < 1e-3:
            continue
        norm = Normalization.paper(lam)
        w = principal_w(z, lam)
        f = normalization_scale(norm) / (z * w)
        direct = general_curvature(z, 1.0, f)
        closed = abs_gauss_curvature(z, lam, norm)
        assert abs(direct - closed) < 1e-10 * closed


def curvature_bound_chain(z, lam) -> tuple:
    """The two-step majorization of |K| on the normalized family:
    |K| <= 16 (|z|+1)^2 / (|z| (|z|+1/|z|)^4) <= 4, returned as a triple
    (|K|, middle bound, 4.0) for elementwise inspection."""
    k = abs_gauss_curvature(z, lam, Normalization.paper(lam))
    az = np.abs(np.asarray(z, dtype=complex))
    mid = 16.0 * (az + 1.0) ** 2 / (az * (az + 1.0 / az) ** 4)
    return k, mid, 4.0


def test_curvature_bound_chain():
    rng = np.random.default_rng(11)
    z = np.exp(rng.uniform(-6.9, 6.9, size=400) + 1j * rng.uniform(-math.pi, math.pi, size=400))
    for lv in (0.1, 1.0, 10.0):
        k, mid, cap = curvature_bound_chain(z, Lambda(lv))
        assert np.all(k <= mid * (1.0 + 1e-12))
        assert np.all(mid <= cap * (1.0 + 1e-12))


def test_curvature_rotation_invariance():
    # |K| is exactly invariant under z -> -1/z on the normalized family
    rng = np.random.default_rng(5)
    z = np.exp(rng.uniform(-2, 2, 200) + 1j * rng.uniform(-math.pi, math.pi, 200))
    for lv in (0.3, 1.0, 4.0):
        lam = Lambda(lv)
        norm = Normalization.paper(lam)
        a = abs_gauss_curvature(z, lam, norm)
        b = abs_gauss_curvature(-1.0 / z, lam, norm)
        assert np.allclose(a, b, rtol=1e-12)


def test_verify_curvature_bound_lambda_one():
    report = verify_curvature_bound(Lambda(1.0), CurvatureGrid(n_rad=256, n_ang=256))
    assert report.max_abs_k <= 4.0
    assert report.refined_max == pytest.approx(2.0, abs=1e-6)
    assert min(abs(report.refined_argmax - 1j), abs(report.refined_argmax + 1j)) < 1e-3
    assert "rotation fixed point" in report.argmax_locus


@pytest.mark.parametrize("lv", [0.1, 0.5, 2.0, 10.0])
def test_verify_curvature_bound_sharp(lv):
    report = verify_curvature_bound(Lambda(lv), CurvatureGrid(n_rad=256, n_ang=256))
    assert report.max_abs_k <= 4.0
    assert report.refined_max <= 2.0 + 1e-3
    assert min(abs(report.refined_argmax - 1j), abs(report.refined_argmax + 1j)) < 1e-2


_NORMS = (Normalization.raw, Normalization.paper, Normalization.spacing)


@settings(max_examples=200, deadline=None)
@given(log_lam=st.floats(-6.0, 6.0), which=st.sampled_from(_NORMS),
       log_r=st.floats(-4.0, 4.0), theta=st.floats(-math.pi, math.pi))
def test_closed_form_supremum_bounds_curvature(log_lam, which, log_r, theta):
    lam = Lambda(10.0 ** log_lam)
    norm = which(lam)
    sup = max_abs_curvature(lam, norm)
    s = normalization_scale(norm)
    expect = (lam.value + 1.0 / lam.value) / (s * s)
    assert abs(sup - expect) <= 4.0 * np.spacing(expect)
    eps = np.finfo(float).eps
    assert abs_gauss_curvature(np.exp(log_r + 1j * theta), lam, norm) <= sup * (1.0 + 4.0 * eps)


@pytest.mark.parametrize("lv", [1e-6, 0.1, 1.0, 3.0, 1e6])
def test_dense_search_about_i_reaches_the_supremum(lv):
    # an offset grid on the disk of radius 1e-4 about each of +-i, missing
    # the centre itself: its points lie within 1.5e-6 of it
    lam = Lambda(lv)
    u = np.linspace(-1.0, 1.0, 101) + 0.01
    d = 1e-4 * (u[:, None] + 1j * u[None, :])
    d = d[np.abs(d) <= 1e-4]
    for norm in (Normalization.raw(lam), Normalization.paper(lam)):
        sup = max_abs_curvature(lam, norm)
        for c in (1j, -1j):
            k = abs_gauss_curvature(c + d, lam, norm)
            assert abs(float(k.max()) - sup) <= 1e-9 * sup


def test_grid_above_supremum_is_a_typed_failure(monkeypatch, capsys):
    grid = CurvatureGrid(n_rad=64, n_ang=64)
    good = verify_curvature_bound(Lambda(2.0), grid)
    monkeypatch.setattr(analysis, "max_abs_curvature", lambda lam, norm: 1.0)
    with pytest.raises(RiemannFamilyError) as exc:
        verify_curvature_bound(Lambda(2.0), grid)
    msg = str(exc.value)
    assert "lam = 2.0" in msg and "supremum 1.0" in msg
    assert repr(good.max_abs_k) in msg and str(good.argmax) in msg
    assert main(["verify", "--suite", "curvature", "--lambda-set", "2"]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: lam = 2.0")


def test_max_curvature_symmetric_in_reciprocal_parameter():
    a = verify_curvature_bound(Lambda(0.2), CurvatureGrid(n_rad=128, n_ang=128))
    b = verify_curvature_bound(Lambda(5.0), CurvatureGrid(n_rad=128, n_ang=128))
    assert a.refined_max == pytest.approx(b.refined_max, rel=1e-9)


def _complex_grid_max(lam, grid):
    """|K| on every complex node of the grid; the first maximal node."""
    logr = np.linspace(math.log(grid.r_min), math.log(grid.r_max), grid.n_rad)
    theta = np.linspace(-math.pi, math.pi, grid.n_ang, endpoint=False)
    z = np.exp(logr[:, None] + 1j * theta[None, :])
    k = abs_gauss_curvature(z, lam, Normalization.paper(lam))
    idx = np.unravel_index(np.argmax(k), k.shape)
    return float(k[idx]), complex(z[idx])


def _assert_polar_grid_is_the_complex_grid(lam, grid):
    report = verify_curvature_bound(lam, grid)
    assert (report.max_abs_k, report.argmax) == _complex_grid_max(lam, grid)
    assert report.max_abs_k <= max_abs_curvature(lam, Normalization.paper(lam)) * (1.0 + 1e-12)


@settings(max_examples=150, deadline=None)
@given(log_lam=st.floats(-6.0, 6.0), n_rad=st.integers(1, 48), n_ang=st.integers(1, 48))
def test_polar_grid_equals_the_complex_grid(log_lam, n_rad, n_ang):
    _assert_polar_grid_is_the_complex_grid(Lambda(10.0 ** log_lam),
                                           CurvatureGrid(n_rad=n_rad, n_ang=n_ang))


@pytest.mark.parametrize("lv", [0.5, 1.0, 2.0])
def test_default_polar_grid_equals_the_complex_grid(lv):
    _assert_polar_grid_is_the_complex_grid(Lambda(lv), CurvatureGrid())


@pytest.mark.parametrize("n_ang", [512, 511, 64])
@pytest.mark.parametrize("lv", [0.5, 1.0, 2.0, 3.7, 1e-6, 1e6])
def test_half_turn_ring_maxima_keep_the_complex_grid_max(lv, n_ang):
    # the ring maxima come from the columns theta in [-pi, 0] only, for even
    # and odd column counts, across the family
    _assert_polar_grid_is_the_complex_grid(Lambda(lv), CurvatureGrid(n_ang=n_ang))


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lv", [0.5, 1.0, 2.0])
def test_symmetries_on_random_samples(lv):
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    report = check_symmetries(lam, norm, curve_samples(lam, 6, seed=13))
    assert report.passed, (report.mirror_residuals, report.rotation_residuals,
                           report.line_flip_residuals)
    assert report.max_residual < 1e-7


def test_rotation_fixed_point_at_i():
    lam = Lambda(2.0)
    norm = Normalization.paper(lam)
    p = CurvePoint(1j, principal_w(1j, lam), lam)
    report = check_symmetries(lam, norm, [p])
    assert report.rotation_residuals[0] < 1e-10


def test_line_flip_fixes_line_samples():
    lam = Lambda(0.8)
    norm = Normalization.paper(lam)
    t = 0.5 * lam.value
    p = CurvePoint(t, principal_w(t, lam), lam)
    report = check_symmetries(lam, norm, [p])
    assert report.line_flip_residuals[0] < 1e-10


# ---------------------------------------------------------------------------
# fitting helpers
# ---------------------------------------------------------------------------

def test_fit_circle_exact():
    ang = np.linspace(0, 2 * math.pi, 37)[:-1]
    xy = np.stack([3.0 + 2.5 * np.cos(ang), -1.0 + 2.5 * np.sin(ang)], axis=1)
    center, radius, res = fit_circle(xy)
    assert np.allclose(center, [3.0, -1.0], atol=1e-9)
    assert radius == pytest.approx(2.5, abs=1e-9)
    assert res < 1e-9


def test_fit_line_and_plane():
    t = np.linspace(-2, 2, 15)
    xy = np.stack([1.0 + 2.0 * t, -0.5 * t], axis=1)
    assert fit_line_2d(xy) < 1e-12
    pts = np.stack([t, 2 * t + 1, np.full_like(t, 3.0)], axis=1)
    normal, _, dev = plane_fit(pts)
    assert dev < 1e-12
    assert abs(abs(normal[2]) - 1.0) < 1e-12 or abs(normal[2]) < 1.0  # well-defined
    assert line_fit_residual(pts) < 1e-12


# ---------------------------------------------------------------------------
# foliation
# ---------------------------------------------------------------------------

def test_foliation_circles_at_interior_heights(grids_lambda1):
    lam = Lambda(1.0)
    norm = Normalization.paper(lam)
    spacing = end_spacing(lam, norm)
    heights = spacing * np.linspace(0.15, 0.85, 20)
    slices = foliation_slices(grids_lambda1, heights)
    for s in slices:
        assert s.kind == "circle"
        assert s.residual < 1e-6 * s.radius
        assert s.n_points >= 16


@pytest.fixture(scope="module")
def interior_slices(grids_lambda1):
    """Slices of grids_lambda1 at 20 interior heights, with the number of
    edges the slicer continued (one per crossing and Newton step) and the
    number of batched rounds it took."""
    lam = Lambda(1.0)
    heights = end_spacing(lam, Normalization.paper(lam)) * np.linspace(0.15, 0.85, 20)
    with _counting_rounds() as edges:
        slices = foliation_slices(grids_lambda1, heights)
    return slices, sum(edges), len(edges)


@contextlib.contextmanager
def _counting_rounds():
    """Record the number of edges of every _continue_edges call the slicer makes."""
    edges = []
    original = analysis._continue_edges

    def counted(za, *args, **kwargs):
        edges.append(len(za))
        return original(za, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_continue_edges", counted)
        yield edges


@contextlib.contextmanager
def _carlson_work(module, name):
    """Record, for every call of module.name, its positional arguments and
    the point count of each weierstrass._carlson call made within it."""
    calls, points = [], []
    carlson, original = weierstrass._carlson, getattr(module, name)

    def counted_carlson(x, y, z):
        points.append(np.size(x))
        return carlson(x, y, z)

    def counted(*args, **kwargs):
        first = len(points)
        out = original(*args, **kwargs)
        calls.append((args, points[first:]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weierstrass, "_carlson", counted_carlson)
        mp.setattr(module, name, counted)
        yield calls


def _axis_crossings(za, zb, lv) -> int:
    """Edges za -> zb that cross the real axis left of lam (a point on the
    axis counts as above it)."""
    za, zb = np.asarray(za, dtype=complex), np.asarray(zb, dtype=complex)
    sides = (za.imag >= 0.0) != (zb.imag >= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        x0 = za.real + (zb.real - za.real) * (za.imag / (za.imag - zb.imag))
    return int(np.count_nonzero(sides & (x0 < lv)))


def test_each_newton_round_is_one_carlson_call_over_its_new_points(grids_lambda1):
    # the first round evaluates its start points too; later rounds carry
    # them, and evaluate only the new iterates and their axis crossings.  The
    # height is taken below the axis on a chord across the cut (0, 1), whose
    # Newton steps must cross it.
    g = grids_lambda1[0]
    lam, i, j = g.lam, int(np.argmin(np.abs(g.radii - 0.75))), g.n_col // 2 - 1
    z_low = g.z[i, j] + 0.75 * (g.z[i, j + 1] - g.z[i, j])
    _, vals, _ = weierstrass._continue_edges([g.z[i, j]], [g.w[i, j]], [z_low], lam, g.norm, str)
    with _carlson_work(analysis, "_continue_edges") as rounds:
        foliation_slices(grids_lambda1, [g.positions[i, j, 2] + vals[0, 2]])
    crossings = 0
    for r, ((za, _, zb, _, _, _, start), points) in enumerate(rounds):
        assert (start is None) == (r == 0)
        n_cross = _axis_crossings(za, zb, lam.value)
        assert points == [(1 if r else 2) * len(za) + n_cross]
        crossings += n_cross
    assert len(rounds) >= 3 and crossings > 0


@pytest.mark.parametrize("lv", [0.7, 1.0, 2.5])
def test_each_batch_of_edges_is_one_carlson_call(lv):
    # immerse (with a winding circuit), a grid and the companion cycle each
    # evaluate the base point or first vertex, their points and their axis
    # crossings in one _carlson call: a target crosses at most where its
    # sweep leaves the axis, a grid on its stem from 1 and on its edges, the
    # cycle on its chords.  So does a batch of edges (the alignment, and
    # edges across both cuts).
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    targets = np.array([0.5 + 0.5j, -2.0 - 1.0j, 3.0j, 0.3 - 0.4j])
    sweep = weierstrass._sweep_radii(targets, lam, 1)
    with _carlson_work(weierstrass, "immerse") as calls:
        weierstrass.immerse(lam, norm, targets, winding=1)
    assert [points for _, points in calls] == [
        [1 + len(targets) + _axis_crossings(sweep, targets, lv)]]
    with _carlson_work(weierstrass, "immerse_grid") as calls:
        grid = weierstrass.immerse_grid(lam, norm, r_min=0.1, r_max=10.0, n_rad=8, n_ang=16)
    z = grid.z
    crossings = (_axis_crossings(1.0, z[0, 0], lv) + _axis_crossings(z[:-1, 0], z[1:, 0], lv)
                 + _axis_crossings(z[:, :-1], z[:, 1:], lv))
    assert [points for _, points in calls] == [[1 + z.size + crossings]]
    cycle = weierstrass.companion_cycle_vertices(lam)
    with _carlson_work(weierstrass, "cycle_real_period") as calls:
        weierstrass.cycle_real_period(cycle, lam, norm)
    assert [points for _, points in calls] == [[257 + _axis_crossings(cycle[:-1], cycle[1:], lv)]]
    za = np.array([0.5 * lv + 0.5j, -3.0 / lv - 0.5j, 3.0 * lv + 0.5j])
    zb = np.conj(za)
    wa = principal_w(za, lam)
    with _carlson_work(weierstrass, "_continue_edges") as batches:
        radial_edge_alignment(grid, grid.sheet_partner)
        weierstrass._continue_edges(za, wa, zb, lam, norm, str)
    assert [points for _, points in batches] == [
        [2 * len(args[0]) + _axis_crossings(args[0], args[2], lv)] for args, _ in batches]
    assert _axis_crossings(za, zb, lv) == 2


def test_foliation_points_lie_on_their_height(interior_slices):
    for s in interior_slices[0]:
        assert np.all(np.abs(s.points[:, 2] - s.height) < 1e-12 * max(1.0, abs(s.height)))


def test_foliation_crossings_take_few_continuations(interior_slices):
    slices, n_continuations, _ = interior_slices
    assert n_continuations / sum(s.n_points for s in slices) <= 6.0


def test_foliation_rounds_do_not_grow_with_heights(grids_lambda1, interior_slices):
    # every crossing of every height steps in the same batched rounds
    lam = Lambda(1.0)
    height = 0.5 * end_spacing(lam, Normalization.paper(lam))
    with _counting_rounds() as edges:
        foliation_slices(grids_lambda1, [height])
    assert len(edges) <= 8
    assert interior_slices[2] <= 8


def test_edge_crossing_unreached_height_raises(grids_lambda1):
    g = grids_lambda1[0]
    pos_a = g.positions[5, 5]
    c = float(pos_a[2]) + 1e3
    with pytest.raises(QuadratureFailure, match="lam = 1.0"):
        analysis._edge_height_crossing(g.lam, g.norm, g.z[5, 5:6], g.w[5, 5:6], pos_a[None],
                                       g.z[6, 5:6], [c], [float(pos_a[2]) - c])


def test_foliation_line_at_end_height(grids_lambda1):
    slices = foliation_slices(grids_lambda1, [0.0])
    assert slices[0].kind == "line"
    assert slices[0].residual < 1e-9


def test_foliation_insufficient_points(grids_lambda1):
    with pytest.raises(InsufficientSlicePoints):
        foliation_slices(grids_lambda1, [1e6])


def test_center_curve_flattens_and_radius_grows():
    radii = []
    curvatures = []
    for lv in (1.0, 3.0, 10.0, 30.0):
        lam = Lambda(lv)
        norm = Normalization.paper(lam)
        grids = [immerse_grid(lam, norm, r_min=0.1, r_max=10.0, n_rad=20, n_ang=40,
                              sheet_sign=s, closed=True) for s in (+1, -1)]
        spacing = end_spacing(lam, norm)
        base_h = float(immerse(lam, norm, [0.5 * min(lv, 1.0) + 0j])[0].position[2])
        heights = base_h + spacing * np.linspace(0.25, 0.75, 7)
        slices = foliation_slices(grids, heights)
        radii.append(slices[3].radius)
        curvatures.append(max_center_curvature(slices))
    assert all(b > a for a, b in zip(radii[:-1], radii[1:]))
    assert all(b < a for a, b in zip(curvatures[:-1], curvatures[1:]))


# ---------------------------------------------------------------------------
# lockstep crossings against the per-crossing Newton loop
# ---------------------------------------------------------------------------

def _scalar_crossing(lam, norm, za, wa, pos_a, zb, c, f_lo):
    """Reference crossing: safeguarded Newton on one edge, one continue_sheet
    and one path_integral per step."""
    fn = weierstrass_integrand(norm)
    s2dz = 2.0 * normalization_scale(norm) * (zb - za)
    tol = 1e-12 * max(1.0, abs(c))
    t_lo, t_hi = 0.0, 1.0
    t, z, w, f = 0.0, za, wa, f_lo
    pos = np.asarray(pos_a, dtype=float)
    for _ in range(60):
        fp = (s2dz / w).real
        t_new = 0.5 * (t_lo + t_hi)
        if fp != 0.0 and t_lo < t - f / fp < t_hi:
            t_new = t - f / fp
        z_new = za + t_new * (zb - za)
        seg = continue_sheet([z, z_new], w, lam)
        pos = pos + path_integral(seg, fn).real
        t, z, w, f = t_new, z_new, seg.w_values[-1], pos[2] - c
        if abs(f) < tol:
            return pos
        if (f_lo < 0) == (f < 0):
            t_lo = t
        else:
            t_hi = t
    raise AssertionError("reference crossing not resolved")


def _scalar_slice_points(grids, heights):
    """Reference slice points, height by height: per sheet the crossing
    radial edges (to the aligned upper vertex), then the angular edges."""
    by_sign = {g.sheet_sign: g for g in grids}
    alignment = radial_edge_alignment(by_sign[+1], by_sign[-1])
    t3 = period_vectors(by_sign[+1].lam, by_sign[+1].norm).translation[2]
    # x3 of both grids in the alignment's numbering: sheet +1, then sheet -1
    x3_pair = np.concatenate([by_sign[s].positions[..., 2].ravel() for s in (+1, -1)])
    out = []
    for c in heights:
        pts = []
        for block, s in enumerate((+1, -1)):
            g = by_sign[s]
            x3 = g.positions[..., 2]
            upper = x3_pair[alignment.upper[block]] + alignment.period_k[block] * t3
            rad_lo, ang_lo, ang_hi = x3[:-1], x3[:, :-1], x3[:, 1:]
            rad_hit = rad_lo - c == 0.0
            rad_cross = (rad_lo - c) * (upper - c) < 0.0
            for i, j in zip(*np.nonzero(rad_hit | rad_cross)):
                if rad_hit[i, j]:
                    pts.append(g.positions[i, j])
                else:
                    pts.append(_scalar_crossing(g.lam, g.norm, g.z[i, j], g.w[i, j],
                                                g.positions[i, j], g.z[i + 1, j], c,
                                                rad_lo[i, j] - c))
            for i, j in zip(*np.nonzero((ang_lo - c) * (ang_hi - c) < 0.0)):
                pts.append(_scalar_crossing(g.lam, g.norm, g.z[i, j], g.w[i, j],
                                            g.positions[i, j], g.z[i, j + 1], c,
                                            ang_lo[i, j] - c))
        out.append(np.array(pts))
    return out


def _verify_grids_and_heights(lv):
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    grids = [immerse_grid(lam, norm, r_min=0.1, r_max=10.0, n_rad=24, n_ang=48,
                          sheet_sign=s, closed=True) for s in (+1, -1)]
    base = float(immerse(lam, norm, [0.5 * min(lv, 1.0) + 0j])[0].position[2])
    return grids, base + end_spacing(lam, norm) * np.linspace(0.25, 0.75, 8)


@pytest.mark.parametrize("lv", [0.35, 1.0, 3.3])
def test_lockstep_slices_match_scalar_newton(lv):
    grids, heights = _verify_grids_and_heights(lv)
    slices = foliation_slices(grids, heights)
    for s, ref in zip(slices, _scalar_slice_points(grids, heights)):
        assert s.points.shape == ref.shape
        assert np.max(np.abs(s.points - ref)) <= 1e-12 * max(1.0, abs(s.height))


def test_lockstep_crossing_accepts_scalars_and_arrays(grids_lambda1):
    # one edge (as 1-element arrays) and the same edge twice
    g = grids_lambda1[0]
    c = float(g.positions[5, 5, 2] + g.positions[6, 5, 2]) / 2
    args = (g.z[5, 5], g.w[5, 5], g.positions[5, 5], g.z[6, 5], c, float(g.positions[5, 5, 2]) - c)
    one = analysis._edge_height_crossing(g.lam, g.norm, *(np.array([v]) for v in args))
    many = analysis._edge_height_crossing(g.lam, g.norm, *(np.array([v, v]) for v in args))
    assert one.shape == (1, 3) and many.shape == (2, 3)
    assert np.array_equal(many[0], one[0]) and np.array_equal(many[1], one[0])
    assert abs(one[0, 2] - c) < 1e-12 * max(1.0, abs(c))


_EDGE_NAME = re.compile(r"lam = ([0-9.]+), sheet ([+-]1), (radial|angular) grid edge "
                        r"\((\d+), (\d+)\) -> \((\d+), (\d+)\), "
                        r"height x3 = (\S+) \(crossing tolerance (\S+)\), "
                        r"Newton step (\S+) -> (\S+): ")


def _named_crossing(msg, lam, heights, grids):
    m = _EDGE_NAME.match(msg)
    assert m, msg
    lv, sheet, kind, i, j, i2, j2, height, tol, z0, z1 = m.groups()
    i, j, i2, j2 = int(i), int(j), int(i2), int(j2)
    assert float(lv) == lam.value and sheet in ("+1", "-1")
    assert (i2, j2) == ((i + 1, j) if kind == "radial" else (i, j + 1))
    assert float(height) in [float(h) for h in heights]
    assert float(tol) == pytest.approx(1e-12 * max(1.0, abs(float(height))), rel=1e-2)
    # the step that failed runs along the named edge
    z = {g.sheet_sign: g.z for g in grids}[int(sheet)]
    z0, z1 = complex(z0), complex(z1)
    for zt in (z0, z1):
        t = (zt - z[i, j]) / (z[i2, j2] - z[i, j])
        assert abs(t.imag) < 1e-12 and -1e-12 < t.real < 1.0 + 1e-12
    return z1


@pytest.mark.parametrize("case", ["guard-coarse", "guard"])
def test_crossing_errors_name_lambda_sheet_edge_height_and_tolerance(monkeypatch, case,
                                                                    grids_lambda1):
    from riemann_examples import curve, errors, weierstrass
    if case == "guard-coarse":
        # a coarse grid, with a guard radius of 1
        lam = Lambda(2.0)
        grids = [immerse_grid(lam, Normalization.paper(lam), r_min=1.0, r_max=2.3 ** 2,
                              n_rad=3, n_ang=8, sheet_sign=s, closed=True) for s in (+1, -1)]
        x3 = np.concatenate([g.positions[..., 2].ravel() for g in grids])
        heights = np.linspace(x3.min(), x3.max(), 12)[1:-1]
    else:
        lam = Lambda(1.0)
        grids = grids_lambda1
        heights = end_spacing(lam, Normalization.paper(lam)) * np.linspace(0.15, 0.85, 20)
    # the alignment is computed with the default settings, so every error
    # below comes from a height crossing
    alignment = weierstrass.radial_edge_alignment(*grids)
    monkeypatch.setattr(analysis, "radial_edge_alignment", lambda *args: alignment)
    delta = 1.0 if case == "guard-coarse" else 0.1
    monkeypatch.setattr(curve, "delta_branch", lambda lam: (delta,) * 3)
    with pytest.raises(errors.BranchTooClose) as err:
        foliation_slices(grids, heights, min_points=1)
    z1 = _named_crossing(str(err.value), lam, heights, grids)
    # the refused iterate lies within the widened guard of a branch point,
    # whose own radius the error shows
    assert "end point" in str(err.value)
    assert str(err.value).endswith(f"(radius {delta:.2e})")
    assert min(abs(z1 - b) for b in (0.0, lam.value, -1.0 / lam.value)) < delta
