import contextlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemann_examples.curve import CurvePoint, Lambda, principal_w
from riemann_examples import analysis, weierstrass
from riemann_examples.cli import main
from riemann_examples.errors import InsufficientSlicePoints, RiemannFamilyError, SingularPoint
from riemann_examples.analysis import (
    CurvatureGrid,
    abs_gauss_curvature,
    check_symmetries,
    fit_generalized_circles,
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
    period_vectors,
    sheet_connection,
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


def _full_polar_grid_report(lam, grid):
    """verify_curvature_bound's report from every column theta in [-pi, 0]
    of every ring: the ring maxima of the whole polar grid, then the same
    exact re-evaluation of the rings within 1e-12 of the largest."""
    lv = lam.value
    logr = np.linspace(math.log(grid.r_min), math.log(grid.r_max), grid.n_rad)
    theta = np.linspace(-math.pi, math.pi, grid.n_ang, endpoint=False)
    r, cos = np.exp(logr), np.cos(theta[:grid.n_ang // 2 + 1])
    rc = r[:, None]
    pq = (2.0 * lv * rc) * cos
    np.subtract(rc * rc + lv * lv, pq, out=pq)
    q = (2.0 * rc / lv) * cos
    q += rc * rc + 1.0 / (lv * lv)
    pq *= q
    h = 1.0 / (r * (r + 1.0 / r) ** 4)
    ring_max = pq.max(axis=1) * (h * h)
    rows = np.flatnonzero(ring_max >= ring_max.max() * (1.0 - 1e-12))
    z = np.exp(logr[rows, None] + 1j * theta[None, :])
    k = abs_gauss_curvature(z, lam, Normalization.paper(lam))
    idx = np.unravel_index(np.argmax(k), k.shape)
    zmax = complex(z[idx])
    return (float(k[idx]), zmax, max_abs_curvature(lam, Normalization.paper(lam)),
            1j if zmax.imag >= 0 else -1j)


_WINDOW_GRIDS = [
    CurvatureGrid(n_rad=256, n_ang=256),
    CurvatureGrid(n_rad=64, n_ang=64),
    CurvatureGrid(r_min=0.5, r_max=2.0, n_rad=33, n_ang=10),
    CurvatureGrid(n_rad=100, n_ang=1000),
    CurvatureGrid(n_rad=64, n_ang=1),
    CurvatureGrid(n_rad=64, n_ang=3),
    CurvatureGrid(n_rad=1, n_ang=64),
    CurvatureGrid(n_rad=8, n_ang=11),
    CurvatureGrid(n_rad=64, n_ang=63),
]


@pytest.mark.parametrize("grid", _WINDOW_GRIDS, ids=lambda g: f"{g.n_rad}x{g.n_ang}")
def test_ring_windows_report_what_the_full_polar_grid_reports(grid):
    # each ring's maximum comes from the columns about the vertex of its
    # concave product in cos(theta); the report is bitwise the one of all
    # columns, across the family and within 1e-9 of lam = 1 (an odd column
    # count leaves the rings r and 1/r different columns, so a vertex of the
    # wrong sign shows there)
    for lv in [*np.logspace(-6.0, 6.0, 25), 1.0 - 1e-9, 1.0, 1.0 + 1e-9]:
        lam = Lambda(float(lv))
        rep = verify_curvature_bound(lam, grid)
        got = (rep.max_abs_k, rep.argmax, rep.refined_max, rep.refined_argmax)
        assert got == _full_polar_grid_report(lam, grid), (lv, grid)


@pytest.mark.parametrize("field, value", [
    ("r_min", 0.0), ("r_min", -1.0), ("r_min", math.nan), ("r_max", math.inf),
    ("r_max", -math.inf), ("n_rad", 0), ("n_ang", 0), ("n_ang", -3)])
def test_bad_curvature_grids_are_refused_naming_lambda_field_and_value(field, value,
                                                                        monkeypatch):
    # refused before anything is evaluated
    monkeypatch.setattr(analysis, "abs_gauss_curvature", None)
    grid = CurvatureGrid(**{"n_rad": 8, "n_ang": 8, field: value})
    with pytest.raises(ValueError, match=rf"lam = 2\.0: .*{field} = {re.escape(repr(value))}$"):
        verify_curvature_bound(Lambda(2.0), grid)


@pytest.mark.parametrize("grid", [CurvatureGrid(r_min=2.0, r_max=0.5, n_rad=8, n_ang=8),
                                  CurvatureGrid(n_rad=1, n_ang=8)])
def test_reversed_radii_and_one_ring_still_give_reports(grid):
    rep = verify_curvature_bound(Lambda(2.0), grid)
    assert rep.max_abs_k <= rep.refined_max
    assert (rep.max_abs_k, rep.argmax) == _complex_grid_max(Lambda(2.0), grid)


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


@pytest.mark.parametrize("lv", [1e-6, 1e-3, 1.0 - 1e-12, 1.0 + 1e-7, 1e3, 1e6])
def test_symmetries_across_the_family_and_near_one(lv):
    # no anchor is immersed at z = +-1, so the base point may sit within
    # 1e-12 of lam; the rotation's anchor is the lift over i whose image
    # carries no C (|C| is 4e6 at lam = 1e-6), so every residual stays
    # within the closed form's own precision max(1e-12, 1e-15 max(lam, 1/lam))
    lam = Lambda(lv)
    report = check_symmetries(lam, Normalization.paper(lam), curve_samples(lam, 6, seed=13))
    assert report.max_residual <= max(1e-12, 1e-15 * max(lv, 1.0 / lv))


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
    line, center, radius, res = fit_generalized_circles(xy)
    assert not line
    assert np.allclose(center, [3.0, -1.0], atol=1e-9)
    assert radius == pytest.approx(2.5, abs=1e-9)
    assert res < 1e-9
    # the points are centred before |q|^2 is formed, so a circle 1e8 from
    # the origin keeps its radius (an uncentred fit loses it to cancellation)
    far = np.stack([1e8 + 2.5 * np.cos(ang), -3e7 + 2.5 * np.sin(ang)], axis=1)
    line, _, radius, _ = fit_generalized_circles(far)
    assert not line
    assert radius == pytest.approx(2.5, abs=1e-7)


def test_fit_circle_through_three_points():
    # three points have one circle through them, the null vector of the
    # 3 x 4 design matrix, which only a full SVD returns
    ang = np.array([0.3, 2.0, 4.4])
    xy = np.stack([3.0 + 2.0 * np.cos(ang), -1.0 + 2.0 * np.sin(ang)], axis=1)
    line, center, radius, res = fit_generalized_circles(xy)
    assert not line
    assert np.allclose(center, [3.0, -1.0], atol=1e-12)
    assert radius == pytest.approx(2.0, abs=1e-12)
    assert res < 1e-12


def test_circle_fit_builds_no_square_factor_per_slice():
    # a full SVD of each slice's 1024 x 4 design matrix would build a
    # 1024 x 1024 U (8 MB per slice, about 34 MB peak for 4 slices)
    norm = Normalization.paper(0.5)
    heights = [0.3, 1.1, 1.9, 2.7]
    foliation_slices(norm, heights, min_points=16)      # fill the caches
    tracemalloc.start()
    try:
        foliation_slices(norm, heights, min_points=1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_fit_line_and_plane():
    t = np.linspace(-2, 2, 15)
    xy = np.stack([1.0 + 2.0 * t, -0.5 * t], axis=1)
    line, _, _, res = fit_generalized_circles(xy)
    assert line and res < 1e-12
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
    """Slices of grids_lambda1 at 20 interior heights."""
    lam = Lambda(1.0)
    heights = end_spacing(lam, Normalization.paper(lam)) * np.linspace(0.15, 0.85, 20)
    return foliation_slices(grids_lambda1, heights)


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


@pytest.mark.parametrize("lv", [0.7, 1.0, 2.5])
def test_each_batch_of_edges_is_one_carlson_call(lv):
    # immerse (with a winding circuit) and a grid each evaluate the base
    # point and their points in one _carlson call, and the companion cycle,
    # whose chords telescope, its first and last vertex: no axis crossing is
    # evaluated, since a crossing of (-inf, 0) adds nothing and one of the
    # cut (0, lam) the jump 2 Re Psi(lam), cached with the sheet connection.
    # So does a batch of edges across both cuts.  A grid evaluates only the
    # upper half of its mirrored columns, and a closed grid's seam column;
    # the alignment reads the grid paths' lifts and evaluates nothing.
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    targets = np.array([0.5 + 0.5j, -2.0 - 1.0j, 3.0j, 0.3 - 0.4j])
    sweep = weierstrass._sweep_radii(targets, lam, 1)
    assert _axis_crossings(sweep, targets, lv) > 0
    sheet_connection(lam, norm)         # fill the cache of Psi at [1, lam]
    with _carlson_work(weierstrass, "immerse") as calls:
        weierstrass.immerse(lam, norm, targets, winding=1)
    assert [points for _, points in calls] == [[1 + len(targets)]]
    for closed in (False, True):
        with _carlson_work(weierstrass, "immerse_grid") as calls:
            grid = weierstrass.immerse_grid(lam, norm, r_min=0.1, r_max=10.0, n_rad=8,
                                            n_ang=16, closed=closed)
        assert [points for _, points in calls] == [[1 + 8 * (8 + closed)]]
    cycle = weierstrass.companion_cycle_vertices(lam)
    with _carlson_work(weierstrass, "cycle_real_period") as calls:
        weierstrass.cycle_real_period(cycle, lam, norm)
    assert [points for _, points in calls] == [[2]]
    za = np.array([0.5 * lv + 0.5j, -3.0 / lv - 0.5j, 3.0 * lv + 0.5j])
    zb = np.conj(za)
    # with cold caches: the alignment reads no period and no sheet connection
    weierstrass._period_vectors_cached.cache_clear()
    weierstrass._lam_terms.cache_clear()
    with _carlson_work(weierstrass, "radial_edge_alignment") as calls:
        weierstrass.radial_edge_alignment(grid)
    assert [points for _, points in calls] == [[]]
    with _carlson_work(weierstrass, "_ray") as rays:
        weierstrass._crossings(za, zb, lam, str)
        weierstrass._ray(np.concatenate((za, zb)), lam, norm)
    assert _axis_crossings(za, zb, lv) == 2
    assert [points for _, points in rays] == [[2 * len(za)]]


def test_foliation_points_lie_on_their_height(interior_slices):
    for s in interior_slices:
        assert np.all(np.abs(s.points[:, 2] - s.height) < 1e-12 * max(1.0, abs(s.height)))


@pytest.mark.parametrize("lv", [1e-6, 1e-3, 1e3, 1e6])
def test_foliation_points_lie_on_their_height_across_the_family(lv):
    # x3 has no W/z term, so the closed-form slices meet their heights to
    # roundoff at the ends of the family too; the heights span two periods
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    grid = immerse_grid(lam, norm, r_min=0.1, r_max=10.0, n_rad=4, n_ang=8, closed=True)
    heights = end_spacing(lam, norm) * np.linspace(-2.0, 2.0, 17)[1::2]
    for s in foliation_slices([grid, grid.sheet_partner], heights):
        assert np.all(np.abs(s.points[:, 2] - s.height) < 1e-12 * max(1.0, abs(s.height)))


def test_foliation_line_at_end_height(grids_lambda1):
    slices = foliation_slices(grids_lambda1, [0.0])
    assert slices[0].kind == "line"
    assert slices[0].residual < 1e-9


@pytest.mark.parametrize("lv", [1e-3, 0.5, 100.0, 1e4])
def test_foliation_lines_at_both_end_heights(lv):
    # the heights of the segments (0, lam) and (-inf, -1/lam), which run into
    # the ends z = 0 and z = inf: their slices are collinear to roundoff,
    # where the circle fit returns a runaway radius with residual 0.0
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    grid = immerse_grid(lam, norm, r_min=0.5, r_max=2.0, n_rad=2, n_ang=8)
    ends = [p.position[2] for p in immerse(lam, norm, [0.5 * lv, -2.0 / lv])]
    for s in foliation_slices([grid, grid.sheet_partner], ends):
        assert s.kind == "line"
        assert s.residual <= 1e-12 * np.max(np.abs(s.points))


@pytest.mark.parametrize("lv", [1e-6, 1e-3, 1.0])
def test_foliation_slices_repeat_by_the_period(lv, grids_lambda1):
    # the slice one vertical period s T3 up, or 1e5 periods up (height about
    # 1e6, or 1e7 at lam = 1e-6), is the slice at c translated by as many
    # periods T, with the same kind and radius
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    if lv == 1.0:
        grids = grids_lambda1
    else:
        grid = immerse_grid(lam, norm, r_min=0.1, r_max=10.0, n_rad=4, n_ang=8, closed=True)
        grids = [grid, grid.sheet_partner]
    t_vec = period_vectors(lam, norm).translation
    c = 0.4 * end_spacing(lam, norm)
    for n in (1, 100_000):
        base, up = foliation_slices(grids, [c, c + n * t_vec[2]])
        assert up.kind == base.kind == "circle"
        assert up.radius == pytest.approx(base.radius, rel=1e-8)
        expected = base.points + n * t_vec
        scale = np.maximum(1.0, np.linalg.norm(expected, axis=1))
        assert np.all(np.linalg.norm(up.points - expected, axis=1) <= 1e-12 * scale)


@pytest.mark.parametrize("lv", [1e-6, 1.0, 1e6])
def test_end_slices_stay_lines_far_up_the_period(lv):
    # the end heights 1e3 and 1e5 periods up carry the rounding of their
    # size, which is no reason for a line to become a circle
    lam = Lambda(lv)
    for norm in (Normalization.raw(lam), Normalization.paper(lam), Normalization.spacing(lam)):
        h0 = immerse(lam, norm, [0.5 * lv])[0].position[2]
        t3 = period_vectors(lam, norm).translation[2]
        for n in (0, 1e3, 1e5):
            for s in foliation_slices(norm, h0 + t3 * (n + np.array([0.0, 0.5]))):
                assert s.kind == "line", (norm.kind, n, s.height)


@pytest.mark.parametrize("lv", [1e-6, 0.5, 1.0, 2.0, 1e6])
def test_foliation_from_the_normalization_is_the_foliation_from_the_grids(lv):
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    grid = immerse_grid(lam, norm, r_min=0.5, r_max=2.0, n_rad=2, n_ang=8)
    heights = end_spacing(lam, norm) * np.linspace(-1.0, 1.0, 9)
    for a, b in zip(foliation_slices(norm, heights), foliation_slices([grid, grid.sheet_partner],
                                                                      heights)):
        assert (a.height, a.kind, a.radius, a.residual) == (b.height, b.kind, b.radius, b.residual)
        assert np.array_equal(a.points, b.points)
        assert a.center is b.center is None or np.array_equal(a.center, b.center)


def test_foliation_insufficient_points(grids_lambda1):
    with pytest.raises(InsufficientSlicePoints):
        foliation_slices(grids_lambda1, [1.0], min_points=2)
    assert foliation_slices(grids_lambda1, [1.0], min_points=3)[0].n_points == 3


@pytest.mark.parametrize("heights", [[math.nan], [1.0, math.inf], [-math.inf], 1.0, [[1.0, 2.0]]])
def test_foliation_refuses_heights_that_are_not_finite_numbers_in_a_row(heights, monkeypatch):
    # refused before anything is evaluated, naming lam and the height
    monkeypatch.setattr(analysis, "_immerse", None)
    g = immerse_grid(Lambda(2.0), Normalization.paper(Lambda(2.0)), r_min=0.5, r_max=2.0,
                     n_rad=2, n_ang=8)
    with pytest.raises(ValueError, match=r"lam = 2\.0: slice height.*(nan|inf|1\.0)"):
        foliation_slices([g, g.sheet_partner], heights)


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
