import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemann_examples.analysis import abs_gauss_curvature, check_symmetries, max_abs_curvature
from riemann_examples.curve import (
    BranchDeparture,
    CurvePoint,
    Lambda,
    SheetedPath,
    continue_sheet,
    curve_rhs,
    principal_w,
    sheeted_path_from_branch,
)
from riemann_examples.errors import RiemannFamilyError, SingularPoint
from riemann_examples.mesh import build_mesh
from riemann_examples.reference import catenoid_integrand
from riemann_examples.weierstrass import (
    BASE_POINT,
    Normalization,
    PeriodVector,
    companion_cycle_vertices,
    cycle_real_period,
    gauss_map,
    immerse,
    immerse_grid,
    integrate,
    make_sheeted_path,
    metric_factor,
    normalization_scale,
    path_integral,
    period_vectors,
    phi,
    radial_edge_alignment,
    route_vertices,
    sheet_connection,
    translation_cycle_vertices,
    vertical_end_spacing,
)

from conftest import continue_edges


# ---------------------------------------------------------------------------
# pointwise data
# ---------------------------------------------------------------------------

def test_phi_vanishing_first_component_at_unit_real():
    lam = Lambda(4.0)
    w = principal_w(1.0, lam)     # rhs(1) = -3.75, so w = i sqrt(3.75)
    assert w == pytest.approx(1j * math.sqrt(3.75))
    val = phi(CurvePoint(1.0, w, lam), Normalization.raw(lam)).components
    assert val[0] == pytest.approx(0.0)
    assert val[2] == pytest.approx(-2j / math.sqrt(3.75))


def test_paper_normalization_at_lambda_one_is_identity():
    lam = Lambda(1.0)
    assert normalization_scale(Normalization.paper(lam)) == 1.0
    assert normalization_scale(Normalization.raw(lam)) == 1.0


# every public entry that takes (lam, norm): a lam = 2 family at the lam = 3
# scale.  The paper scale is symmetric under lam -> 1/lam, so a 2 against
# 0.5 pair would hide the mix.
_MISMATCHED_ENTRIES = {
    "immerse": lambda lam, norm: immerse(lam, norm, [1j]),
    "immerse_grid": lambda lam, norm: immerse_grid(lam, norm, r_min=0.5, r_max=2.0,
                                                   n_rad=2, n_ang=8),
    "vertical_end_spacing": vertical_end_spacing,
    "cycle_real_period": lambda lam, norm: cycle_real_period(
        translation_cycle_vertices(lam), lam, norm),
    "abs_gauss_curvature": lambda lam, norm: abs_gauss_curvature(1j, lam, norm),
    "max_abs_curvature": max_abs_curvature,
    "period_vectors": period_vectors,
    "sheet_connection": sheet_connection,
    "check_symmetries": lambda lam, norm: check_symmetries(lam, norm, [0.5 + 0.5j]),
    "build_mesh": lambda lam, norm: build_mesh(lam, norm, n_rad=4, n_ang=8),
}


@pytest.mark.parametrize("entry", sorted(_MISMATCHED_ENTRIES))
def test_mismatched_normalization_is_refused_naming_both_lambdas(entry):
    with pytest.raises(ValueError, match=r"built for lam = 3\.0, not lam = 2\.0"):
        _MISMATCHED_ENTRIES[entry](Lambda(2.0), Normalization.paper(Lambda(3.0)))


_GRID_ENTRIES = {
    "immerse_grid": lambda lam, norm, r_min, r_max: immerse_grid(
        lam, norm, r_min=r_min, r_max=r_max, n_rad=8, n_ang=16),
    "build_mesh": lambda lam, norm, r_min, r_max: build_mesh(
        lam, norm, n_rad=8, n_ang=16, r_min=r_min, r_max=r_max),
}


@pytest.mark.parametrize("r_min, r_max", [(2.0, 1.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 2.0),
                                          (0.1, math.inf), (math.nan, 2.0), (0.1, 1e300)])
@pytest.mark.parametrize("entry", sorted(_GRID_ENTRIES))
def test_bad_grid_radii_are_refused_naming_lambda_and_both_radii(entry, r_min, r_max):
    # (0.1, inf) used to build a mesh of non-finite vertices, (2, 1)
    # descending rings, and (0.1, 1e300) rings whose curve polynomial
    # overflows, with no error (the last one with an overflow warning)
    lam = Lambda(0.5)
    with warnings.catch_warnings(), pytest.raises(ValueError, match=re.escape(
            f"r_min = {r_min!r}, r_max = {r_max!r} (lam = 0.5)")):
        warnings.simplefilter("error")
        _GRID_ENTRIES[entry](lam, Normalization.paper(lam), r_min, r_max)


@pytest.mark.parametrize("lv, r_min, r_max", [(0.5, 1e-300, 1e308), (1e-6, 1e-308, 1e300),
                                              (0.5, 1e-30, 1e30)])
def test_wide_grids_build_or_are_refused_naming_lambda_and_both_radii(lv, r_min, r_max):
    # 2 rings over hundreds of decades: a ring's clearance from a branch
    # modulus is measured in log r, as the rings are spaced, and the shifted
    # rings do not overflow (the first two used to warn of an overflow, and
    # all three raised a PathBlocked that named neither lam nor the radii)
    lam = Lambda(lv)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            grid = immerse_grid(lam, Normalization.paper(lam), r_min=r_min, r_max=r_max,
                                n_rad=2, n_ang=8)
        except (RiemannFamilyError, ValueError) as err:
            assert f"lam = {lv!r}" in str(err)
            assert f"r_min = {r_min!r}, r_max = {r_max!r}" in str(err)
        else:
            assert np.all(np.isfinite(grid.positions)) and np.all(np.isfinite(grid.w))


@pytest.mark.parametrize("k", [3, 5, 8])
def test_rings_clear_the_axis_crossings_of_their_chords(k):
    # lam exactly where the chords of ring k of a 12x8 grid over [0.1, 10]
    # cross the positive axis: the rings are shifted until r cos(pi/8) is 4
    # guard radii clear of lam and 1/lam, so the grid and its mesh build
    # (both used to raise BranchTooClose on that crossing)
    chord = math.cos(math.pi / 8)
    lam = Lambda(math.exp(math.log(0.1) + (k + 0.5) * math.log(100.0) / 12) * chord)
    norm = Normalization.paper(lam)
    grid = immerse_grid(lam, norm, r_min=0.1, r_max=10.0, n_rad=12, n_ang=8, closed=True)
    for m in (lam.value, 1.0 / lam.value):
        assert np.min(np.abs(chord * grid.radii - m)) >= 4e-6 * m
    mesh = build_mesh(lam, norm, n_rad=12, n_ang=8, r_min=0.1, r_max=10.0)
    assert np.all(np.isfinite(mesh.vertices))


def test_normalization_scale_symmetry():
    # the normalized family always rescales by the larger of sqrt(lam), 1/sqrt(lam)
    assert normalization_scale(Normalization.paper(Lambda(4.0))) == pytest.approx(2.0)
    assert normalization_scale(Normalization.paper(Lambda(0.25))) == pytest.approx(2.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.2, 5.0), st.floats(0.3, 3.0), st.floats(-3.1, 3.1), st.booleans())
def test_null_identity(lv, rho, ang, flip):
    lam = Lambda(lv)
    z = rho * complex(math.cos(ang), math.sin(ang))
    if min(abs(z - b) for b in (0.0, lv, -1.0 / lv)) < 1e-6:
        return
    w = principal_w(z, lam) * (-1 if flip else 1)
    val = phi(CurvePoint(z, w, lam), Normalization.paper(lam))
    assert val.null_residual < 1e-9


def test_phi_singular_points():
    lam = Lambda(2.0)
    with pytest.raises(SingularPoint):
        phi(CurvePoint(2.0, 0.0, lam), Normalization.raw(lam))


def test_gauss_map_values():
    assert np.allclose(gauss_map(0.0 + 0.0j), [0.0, 0.0, -1.0])
    assert gauss_map(np.exp(0.7j))[2] == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(gauss_map(1j), [0.0, 1.0, 0.0])
    lam = Lambda(2.0)
    assert np.allclose(gauss_map(CurvePoint(1j, principal_w(1j, lam), lam)), [0, 1, 0])


def test_metric_factor():
    lam = Lambda(1.0)
    p = CurvePoint(1j, principal_w(1j, lam), lam)
    assert abs(p.w) ** 2 == pytest.approx(2.0)
    assert metric_factor(p, Normalization.raw(lam)) == pytest.approx(0.5)
    # depends on |w| only: sheet partners agree
    assert metric_factor(p.sheet_partner, Normalization.raw(lam)) == pytest.approx(0.5)
    # blows up toward a branch point
    z_near = lam.value + 1e-5
    q = CurvePoint(z_near, principal_w(z_near, lam), lam)
    assert metric_factor(q, Normalization.raw(lam)) > 1e3


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_constant_path_integrates_to_zero():
    lam = Lambda(2.0)
    path = continue_sheet([0.5 + 0.5j], principal_w(0.5 + 0.5j, lam), lam)
    assert np.allclose(integrate(path, Normalization.raw(lam)), 0.0)


def test_catenoid_cross_check_third_coordinate():
    # closed form x3 = 2 ln|z| for the degenerate catenoid data, checked
    # against quadrature along the real segment 1 -> e
    lam = Lambda(0.5)
    verts = np.linspace(1.0, math.e, 7).astype(complex)
    path = continue_sheet(verts, principal_w(1.0, lam), lam)
    val = path_integral(path, lambda z, w: catenoid_integrand(z)).real
    assert val[2] == pytest.approx(2.0, abs=1e-12)


def test_reversed_path_negates_integral():
    lam = Lambda(2.0)
    verts = [1.0, 1.5 + 1.0j, 0.5 + 2.0j]
    path = continue_sheet(verts, principal_w(1.0, lam), lam)
    norm = Normalization.paper(lam)
    fwd = integrate(path, norm)
    bwd = integrate(path.reversed(), norm)
    assert np.allclose(fwd, -bwd, atol=1e-10)


@pytest.mark.parametrize("which", ["start", "end"])
def test_an_end_with_w_zero_off_a_branch_point_is_refused_naming_it(which):
    # w = 0 at a path end declares it a branch point; off one it is refused
    lam = Lambda(2.0)
    verts = np.array([0.5 + 0.5j, 0.6 + 0.5j])
    w = np.array([principal_w(z, lam) for z in verts])
    w[0 if which == "start" else -1] = 0.0
    with pytest.raises(ValueError, match=f"path {which} has w = 0 but is not at a branch point"):
        integrate(SheetedPath(verts, w, lam), Normalization.paper(lam))


def test_homotopic_routes_agree():
    lam = Lambda(2.0)
    norm = Normalization.paper(lam)
    target = 0.7 * np.exp(2.2j)
    direct = immerse(lam, norm, [target])[0].position
    # alternate class-0 route: sweep first, then radial
    from riemann_examples.weierstrass import _angular_leg, _radial_leg
    verts = [BASE_POINT] + _angular_leg(1.0, 0.0, 2.2) + _radial_leg(1.0, 0.7, 2.2, lam)
    verts[-1] = target
    alt = integrate(make_sheeted_path(verts, lam), norm)
    assert np.linalg.norm(direct - alt) < 1e-9


def test_null_homotopic_loop_vanishes():
    lam = Lambda(2.0)
    norm = Normalization.paper(lam)
    taus = np.linspace(0.0, 2.0 * math.pi, 97)
    verts = 2.0 + 2.0j + 0.7 * np.exp(1j * taus)
    path = continue_sheet(verts, principal_w(verts[0], lam), lam)
    assert np.linalg.norm(integrate(path, norm)) < 1e-9


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lv", [0.2, 1.0, 5.0])
def test_period_structure(lv):
    lam = Lambda(lv)
    pv = period_vectors(lam, Normalization.paper(lam))
    t_norm = np.linalg.norm(pv.translation)
    assert t_norm > 0
    assert np.linalg.norm(pv.companion) < 1e-6 * t_norm


def _upper_semicircle_x3(lam, norm):
    """x3 integrated along the lifted upper unit semicircle from +1 to -1: the
    end spacing for lam >= 1, where the semicircle separates the branch
    points 0 and -1/lam from lam."""
    verts = np.exp(1j * np.linspace(0.0, math.pi, 97))
    return float(integrate(make_sheeted_path(verts, lam), norm)[2])


def test_end_spacing_matches_semicircle_quadrature_for_large_lam():
    for lv in (1.0, 2.0, 100.0):
        lam = Lambda(lv)
        norm = Normalization.paper(lam)
        assert vertical_end_spacing(lam, norm) == pytest.approx(
            _upper_semicircle_x3(lam, norm), abs=1e-8)


def _elliptic_periods(lv):
    """Raw (T1, T3) from mpmath's complete elliptic integrals at 50 digits."""
    with mpmath.workdps(50):
        lam = mpmath.mpf(lv)
        m = 1 / (1 + lam * lam)
        big_k, big_e = mpmath.ellipk(m), mpmath.ellipe(m)
        r = 2 / mpmath.sqrt(lam + 1 / lam)
        e1, e3 = lam, -1 / lam
        return -4 * r * (e3 * big_k + (e1 - e3) * (big_k - big_e)), 4 * r * big_k


def _rel(x, ref):
    return float(abs((mpmath.mpf(x) - ref) / ref))


_ORACLE_LAMBDAS = [float(x) for x in np.logspace(-6.0, 6.0, 25)] + [1.0 - 1e-6, 1.0 + 1e-6]


@pytest.mark.parametrize("lv", _ORACLE_LAMBDAS)
def test_end_spacing_is_half_the_elliptic_period(lv):
    lam = Lambda(lv)
    _, t3 = _elliptic_periods(lv)
    assert _rel(2.0 * vertical_end_spacing(lam, Normalization.raw(lam)), t3) < 1e-14


def test_translation_period_matches_elliptic_integrals():
    for lv in _ORACLE_LAMBDAS:
        lam = Lambda(lv)
        t = period_vectors(lam, Normalization.raw(lam)).translation
        t1, t3 = _elliptic_periods(lv)
        assert _rel(t[0], t1) < 1e-14 and _rel(t[2], t3) < 1e-14 and t[1] == 0.0


@pytest.mark.parametrize("lv", [0.2, 0.5, 2.0, 5.0])
def test_end_spacing_is_the_gap_between_the_end_lines(lv):
    # x3 is constant on (0, lam) and on (-inf, -1/lam), the lines that run
    # into the planar ends z = 0 and z = infinity; their heights differ by the
    # end spacing modulo the vertical period
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    near, far = immerse(lam, norm, [complex(0.5 * lv), complex(-2.0 / lv)])
    t3 = period_vectors(lam, norm).translation[2]
    gap = (far.position[2] - near.position[2] - vertical_end_spacing(lam, norm)) % t3
    assert min(gap, t3 - gap) < 1e-9


def test_period_vector_invariant_enforced():
    with pytest.raises(ValueError):
        PeriodVector(np.array([1.0, 0.0, 0.0]), np.array([0.1, 0.0, 0.0]))
    with pytest.raises(ValueError):
        PeriodVector(np.zeros(3), np.zeros(3))


def test_companion_period_that_does_not_vanish_is_a_typed_error(monkeypatch):
    # the companion circle at lam = 1e-6 left unclosed by exp(2 pi i) != 1:
    # its last vertex lands 6e-11 off the first, which alone gives a period
    # of 5.9e-6 |T|
    from riemann_examples import weierstrass
    from riemann_examples.errors import QuadratureFailure
    lv = 1e-6

    def unclosed(lam):
        taus = np.linspace(0.0, 2.0 * math.pi, 257)
        return (0.75 * lv - 0.25 / lv) + (0.75 * lv + 0.25 / lv) * np.exp(1j * taus)

    monkeypatch.setattr(weierstrass, "companion_cycle_vertices", unclosed)
    weierstrass._period_vectors_cached.cache_clear()
    lam = Lambda(lv)
    with pytest.raises(QuadratureFailure, match=r"^lam = 1e-06: companion cycle period is "
                                                r"\S+ \|T\|, not below 1e-6 \|T\| \(cycle of "
                                                r"256 chords about 0 and lam from "):
        period_vectors(lam, Normalization.paper(lam))


def test_period_lattice_composition():
    # two translation circuits and one companion circuit integrate to 2T; the
    # translation cycle is the circle through lam/2 and -1.5/lam enclosing the
    # branch points 0 and -1/lam
    lam = Lambda(2.0)
    norm = Normalization.paper(lam)
    pv = period_vectors(lam, norm)
    t = cycle_real_period(translation_cycle_vertices(lam), lam, norm)
    c = cycle_real_period(companion_cycle_vertices(lam), lam, norm)
    assert np.linalg.norm((2.0 * t + c) - 2.0 * pv.translation) < 1e-8


def _scalar_cycle_period(vertices, lam, norm):
    """Reference cycle period: the whole cycle continued by one continue_sheet
    from the principal root and integrated by one path_integral."""
    path = continue_sheet(vertices, principal_w(vertices[0], lam), lam)
    return integrate(path, norm)


@pytest.mark.parametrize("lv", [0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0])
def test_batched_companion_period_matches_scalar_cycle(refuse_quadrature, lv):
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    verts = companion_cycle_vertices(lam)
    scalar = _scalar_cycle_period(verts, lam, norm)
    t_norm = np.linalg.norm(period_vectors(lam, norm).translation)
    refuse_quadrature()     # every chord is summed in closed form
    batched = cycle_real_period(verts, lam, norm)
    assert np.max(np.abs(batched - scalar)) <= 1e-14 * t_norm


def test_cycle_period_where_the_principal_root_is_minus_w():
    # the translation cycle started at -0.25 - 1.25i, where the principal
    # root is -W: the closed-form lift starts with sign -1
    lam = Lambda(2.0)
    norm = Normalization.paper(lam)
    cycle = -0.25 + 1.25 * np.exp(1j * np.linspace(-0.5 * math.pi, 1.5 * math.pi, 257))
    ref = _scalar_cycle_period(cycle, lam, norm)
    assert np.max(np.abs(cycle_real_period(cycle, lam, norm) - ref)) <= 1e-14 * np.linalg.norm(ref)


def test_cycle_enclosing_one_branch_point_does_not_close():
    from riemann_examples.errors import QuadratureFailure
    lam = Lambda(2.0)
    about_lam = 2.0 + 0.5 * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 65))
    with pytest.raises(QuadratureFailure, match="odd number of branch points"):
        cycle_real_period(about_lam, lam, Normalization.paper(lam))


@pytest.mark.parametrize("lv", [1e-6, 1e-3, 0.5, 1.0, 3.0, 1e3, 8e5, 1e6])
def test_winding_adds_translation(lv):
    # one circuit of the translation cycle adds the closed-form T that
    # immerse adds per winding, and the companion cycle adds nothing: its
    # chords telescope to Psi at the cycle's two ends and the jump
    # 2 Re Psi(lam) of each crossing of the cut (0, lam), so no interior
    # vertex adds rounding, even at the ends of the family (a sum over every
    # vertex missed T by 1.4e-12 |T| at 8e5, above verify's 1e-12)
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    t_vec = period_vectors(lam, norm).translation
    circuit = cycle_real_period(translation_cycle_vertices(lam), lam, norm)
    assert np.linalg.norm(circuit - t_vec) <= 1e-14 * np.linalg.norm(t_vec)
    companion = cycle_real_period(companion_cycle_vertices(lam), lam, norm)
    assert np.linalg.norm(companion) <= 1e-15 * np.linalg.norm(t_vec)


# ---------------------------------------------------------------------------
# immersion
# ---------------------------------------------------------------------------

def test_base_point_maps_to_origin():
    lam = Lambda(2.0)
    sp = immerse(lam, Normalization.paper(lam), [1.0 + 0.0j])[0]
    assert np.allclose(sp.position, 0.0)


def test_base_point_target_at_lambda_one():
    # at lam = 1 the base point is the branch point: its one lift (1, 0) is
    # the base point itself, with image 0, like every other branch point
    # target, whose lift is (b, 0) at x(b)
    lam = Lambda(1.0)
    norm = Normalization.paper(lam)
    base, other = immerse(lam, norm, [1.0, -1.0])
    assert base.source.z == 1.0 and base.source.w == 0.0
    assert np.array_equal(base.position, np.zeros(3))
    assert other.source.w == 0.0 and np.linalg.norm(other.position) > 1.0
    assert np.array_equal(immerse(lam, norm, [1.0], sheet_sign=-1)[0].position, np.zeros(3))


def _sheet_connection_mpmath(lv):
    """(C1, C3) = 2 Re of the integral of Phi over [1, lam] for lam < 1, paper
    scale, at 40 digits.  On (lam, 1) the continued root is the positive
    sqrt(z (z - lam)(z + 1/lam)); z = lam + u^2 removes the singular end."""
    with mpmath.workdps(40):
        lam = mpmath.mpf(lv)
        s = 1 / mpmath.sqrt(lam)

        def integrand(u, numerator):
            z = lam + u * u
            return 2 * s * numerator(z) / mpmath.sqrt(z * (z + 1 / lam))

        # breakpoints graded toward the branch point 0, at distance lam
        pts = [0] + [mpmath.sqrt(lam * 10 ** j) for j in range(8) if lam * 10 ** j < 1 - lam]
        pts.append(mpmath.sqrt(1 - lam))
        return [-2 * mpmath.quad(lambda u: integrand(u, f), pts)
                for f in (lambda z: (1 - z * z) / z, lambda z: 2)]


def _branch_loop_connection(lv, norm):
    """The sheet connection integrated along a 64-chord circle of radius
    lam/2 about the branch point lam, with radial legs from and back to 1:
    the loop lifts from (1, w0) to (1, -w0)."""
    from riemann_examples.weierstrass import _radial_leg
    lam = Lambda(lv)
    r = 0.5 * lv
    p0 = lv - r if lv > 1.0 else lv + r
    start = math.pi if p0 < lv else 0.0
    taus = np.linspace(start, start + 2.0 * math.pi, 65)[1:]
    verts = ([BASE_POINT] + _radial_leg(1.0, p0, 0.0, lam)
             + [lv + r * np.exp(1j * t) for t in taus] + _radial_leg(p0, 1.0, 0.0, lam))
    w0 = principal_w(BASE_POINT, lam)
    path = continue_sheet(verts, w0, lam)
    assert abs(path.w_values[-1] + w0) < 1e-9 * abs(w0)
    return integrate(path, norm)


def test_sheet_connection_lies_in_symmetry_locus():
    # the two base-point lifts are mirror partners for lam > 1 (offset along
    # x2) and line-flip partners for lam < 1 (offset in the x1-x3 plane)
    for lv in (1e-4, 1e-3, 3e-3, 0.01, 0.3, 0.999, 1.001, 3.0, 1e4, 1e6):
        norm = Normalization.paper(lv)
        c = sheet_connection(lv, norm)
        size = np.linalg.norm(c)
        if lv > 1.0:
            # x2 = Re 2 i s (w/z - w0) is algebraic and w(lam) = 0
            s = normalization_scale(norm)
            c2 = (-4j * s * principal_w(1.0, lv)).real
            assert c2 == pytest.approx(4.0 * s * math.sqrt((lv - 1.0) * (1.0 + 1.0 / lv)),
                                       rel=1e-14)
            assert np.linalg.norm(c - [0.0, c2, 0.0]) <= 1e-13 * size, lv
        else:
            c1, c3 = (float(x) for x in _sheet_connection_mpmath(lv))
            assert np.linalg.norm(c - [c1, 0.0, c3]) <= 1e-13 * size, lv
    # an independent construction: a loop about the branch point lam
    for lv in (0.3, 0.5, 2.0, 3.0):
        norm = Normalization.paper(lv)
        c = sheet_connection(lv, norm)
        assert np.linalg.norm(c - _branch_loop_connection(lv, norm)) <= 1e-12 * np.linalg.norm(c)
    assert np.allclose(sheet_connection(1.0, Normalization.paper(1.0)), 0.0)
    # within the branch snapping tolerance of lam = 1 the closed form still
    # separates the two base-point lifts: C = (0, 4 s sqrt((lam - 1)(1 + 1/lam)), 0)
    lv = 1.0 + 1e-13
    norm = Normalization.paper(lv)
    c2 = 4.0 * normalization_scale(norm) * math.sqrt((lv - 1.0) * (1.0 + 1.0 / lv))
    c = sheet_connection(lv, norm)
    assert abs(c[1] - c2) <= 1e-13 * c2 and np.max(np.abs(c[[0, 2]])) <= 1e-14


def _phi_from_one_mpmath(t):
    """Re of the integral of Phi from the branch point 1 to t on the real
    axis at lam = 1 (paper scale s = 1), at 40 digits: w = sqrt(z - 1)
    sqrt(z (z + 1)) (the +1 departure germ), with z = 1 + sign u^2."""
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        sg = mpmath.sign(t - 1)

        def integrand(u, numerator):
            z = 1 + sg * u * u
            return 2 * sg * numerator(z) / (mpmath.sqrt(sg) * mpmath.sqrt(z * (z + 1)))

        numerators = (lambda z: (1 - z * z) / z, lambda z: 1j * (1 + z * z) / z, lambda z: 2)
        return np.array([float(mpmath.re(mpmath.quad(lambda u: integrand(u, f),
                                                      [0, mpmath.sqrt(abs(t - 1))])))
                         for f in numerators])


@pytest.mark.parametrize("t", [1.001, 1.0001, 1.00001, 0.999])
def test_branch_start_matches_mpmath_close_to_the_branch_point(t):
    # near u = 0, forming z = b + u^2 d and then z - b cancels to 0, where
    # the integrand is infinite
    lam = Lambda(1.0)
    x = immerse(lam, Normalization.paper(lam), [t])[0].position
    ref = _phi_from_one_mpmath(t)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_line_images_are_colinear():
    from riemann_examples.analysis import line_fit_residual
    for lv in (0.5, 2.0):
        lam = Lambda(lv)
        norm = Normalization.paper(lam)
        ts = np.linspace(0.15, 0.95, 9) * min(lv, 1.0)
        pts = [sp.position for sp in immerse(lam, norm, ts.astype(complex))]
        assert line_fit_residual(pts) < 1e-7
        # second line family: t <= -1/lam
        ts2 = -np.linspace(1.25, 3.0, 9) / lv
        pts2 = [sp.position for sp in immerse(lam, norm, ts2.astype(complex))]
        assert line_fit_residual(pts2) < 1e-7


def test_planar_geodesics_are_coplanar_with_x2_normal():
    from riemann_examples.analysis import plane_fit
    for lv in (0.5, 2.0):
        lam = Lambda(lv)
        norm = Normalization.paper(lam)
        ts = np.linspace(1.3, 3.5, 9) * max(lv, 1.0)
        pts = np.array([sp.position for sp in immerse(lam, norm, ts.astype(complex))])
        normal, _, dev = plane_fit(pts)
        span = np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))
        assert dev / span < 1e-7
        assert abs(abs(normal[1]) - 1.0) < 1e-7
        ts2 = -np.linspace(0.2, 0.9, 9) / lv
        pts2 = np.array([sp.position for sp in immerse(lam, norm, ts2.astype(complex))])
        normal2, _, dev2 = plane_fit(pts2)
        span2 = np.linalg.norm(pts2.max(axis=0) - pts2.min(axis=0))
        assert dev2 / span2 < 1e-7
        assert abs(abs(normal2[1]) - 1.0) < 1e-7


def test_grid_immersion_matches_per_target_immersion():
    for lv in (0.5, 1.0, 2.0):
        lam = Lambda(lv)
        norm = Normalization.paper(lam)
        grid = immerse_grid(lam, norm, r_min=0.1, r_max=10.0, n_rad=8, n_ang=16)
        for i, j in [(0, 0), (3, 5), (7, 15), (4, 8)]:
            z = grid.z[i, j]
            sp = immerse(lam, norm, [z])[0]
            if abs(sp.source.w - grid.w[i, j]) > 1e-8 * (1.0 + abs(grid.w[i, j])):
                sp = immerse(lam, norm, [z], sheet_sign=-1)[0]
            assert np.linalg.norm(sp.position - grid.positions[i, j]) < 1e-9


def test_conformality_of_immersion():
    # discrete first fundamental form vs the metric coefficient; the
    # immersion integrand is twice the (g, eta) data, so positions realize
    # four times the metric coefficient, at second order in the step
    lam = Lambda(2.0)
    norm = Normalization.paper(lam)

    def one_sided_error(h):
        errs = []
        for z0 in (0.8 + 0.6j, -1.2 + 0.9j, 0.3 - 1.1j):
            p0, pp, pm = (sp.position for sp in immerse(
                lam, norm, [z0, z0 + h, z0 - h]))
            e_disc = (np.linalg.norm(pp - pm) / (2.0 * h)) ** 2
            w0 = immerse(lam, norm, [z0])[0].source.w
            e_true = 4.0 * metric_factor(CurvePoint(z0, w0, lam), norm)
            errs.append(abs(e_disc - e_true) / e_true)
        return max(errs)

    e1, e2 = one_sided_error(1e-2), one_sided_error(5e-3)
    order = math.log2(e1 / e2) / math.log2(2.0)
    assert order >= 1.8


def test_end_spacing_orientation_and_fixed_spacing_normalization():
    lam = Lambda(5.0)
    norm = Normalization.paper(lam)
    verts = np.exp(1j * np.linspace(0.0, math.pi, 97))
    path = make_sheeted_path(verts, lam)
    fwd = integrate(path, norm)
    bwd = integrate(path.reversed(), norm)
    assert fwd[2] == pytest.approx(-bwd[2], abs=1e-10)

    spacing = vertical_end_spacing(lam, Normalization.spacing(lam))
    assert spacing == pytest.approx(2.0 * math.pi, abs=1e-9)


def test_route_is_deterministic():
    lam = Lambda(0.5)
    v1 = route_vertices(0.3 * np.exp(1.1j), lam)
    v2 = route_vertices(0.3 * np.exp(1.1j), lam)
    assert np.array_equal(np.asarray(v1), np.asarray(v2))


def test_routes_just_off_lambda_one_leave_the_base_point_in_one_edge():
    # 1e-6 < |lam - 1| < 3e-6: the base point sits just outside the guard
    # disk of lam, and the route leaves it along the first edge of its radial
    # leg
    from riemann_examples.weierstrass import _radial_leg

    targets = [1000.0 * np.exp(-1.5j), 1.5 * np.exp(0.5j), 0.5 * np.exp(2j)]
    for d in np.concatenate([-np.linspace(1.01e-6, 3e-6, 12), np.linspace(1.01e-6, 3e-6, 12)]):
        lam = Lambda(1.0 + d)
        for t in targets:
            assert route_vertices(t, lam)[1] == _radial_leg(1.0, abs(t), 0.0, lam)[0]
    # immersions along that first edge
    for d, ts in ((1.01e-6, targets[2:]), (1.191e-6, targets[2:]), (-1.01e-6, targets[:2]),
                  (-1.191e-6, targets[:2]), (-1.372e-6, targets[:2])):
        lam = Lambda(1.0 + d)
        for p in immerse(lam, Normalization.paper(lam), ts):
            assert np.all(np.isfinite(p.position))


def test_route_blocked_inside_branch_guard():
    from riemann_examples.curve import delta_branch
    from riemann_examples.errors import PathBlocked
    lam = Lambda(2.0)
    target = 2.0 + 0.2 * delta_branch(lam)[1]
    with pytest.raises(PathBlocked, match=r"lam = 2.0: target .* lies in the guard disk of "
                                          r"branch point \(2\+0j\) \(radius 2.00e-06\)$"):
        route_vertices(target, lam)
    with pytest.raises(SingularPoint, match=r"^lam = 2.0: target 0j \(winding 0\) is the "
                                            r"puncture z = 0$"):
        route_vertices(0.0 + 0.0j, lam)
    with pytest.raises(SingularPoint, match=r"^lam = 2.0: target 0j \(winding 1\) is the "
                                            r"puncture z = 0$"):
        immerse(lam, Normalization.paper(lam), [0j], winding=1)


@pytest.mark.parametrize("sheet", [0, 2, 0.5, -2])
def test_a_sheet_sign_other_than_plus_or_minus_one_is_refused(sheet):
    lam = Lambda(0.5)
    norm = Normalization.paper(lam)
    msg = f"^lam = 0.5: sheet_sign must be \\+1 or -1, not {sheet!r}$"
    with pytest.raises(ValueError, match=msg):
        immerse(lam, norm, [0.3 + 0.2j], sheet_sign=sheet)
    with pytest.raises(ValueError, match=msg):
        immerse_grid(lam, norm, r_min=0.1, r_max=10.0, n_rad=4, n_ang=8, sheet_sign=sheet)


def test_an_empty_cycle_is_refused_naming_lambda():
    lam = Lambda(0.5)
    with pytest.raises(ValueError, match=r"^lam = 0.5: a cycle needs at least one vertex"):
        cycle_real_period([], lam, Normalization.paper(lam))


@pytest.mark.parametrize("winding", [0.5, float("nan"), 1.0, np.float64(-2.0)])
def test_a_winding_that_is_not_an_integer_is_refused(winding):
    # a fractional winding would place a point on no lift of any route
    lam = Lambda(0.5)
    norm = Normalization.paper(lam)
    msg = f"^lam = 0.5: winding {re.escape(repr(winding))} is not an integer$"
    with pytest.raises(ValueError, match=msg):
        immerse(lam, norm, [0.3 + 0.2j], winding=winding)
    with pytest.raises(ValueError, match=msg):
        route_vertices(0.3 + 0.2j, lam, winding=winding)


def test_numpy_integer_windings_and_sheets_are_python_ones():
    lam = Lambda(0.5)
    norm = Normalization.paper(lam)
    for winding, sheet in ((-2, -1), (1, 1)):
        expect = immerse(lam, norm, [0.3 + 0.2j], winding=winding, sheet_sign=sheet)[0]
        got = immerse(lam, norm, [0.3 + 0.2j], winding=np.int64(winding),
                      sheet_sign=np.int32(sheet))[0]
        assert np.array_equal(got.position, expect.position)
        assert route_vertices(0.3 + 0.2j, lam, winding=np.int64(winding)) == \
            route_vertices(0.3 + 0.2j, lam, winding=winding)


# ---------------------------------------------------------------------------
# batched routes against the per-target scalar path
# ---------------------------------------------------------------------------

def _scalar_immerse(lam, norm, target, winding, sheet_sign):
    """Reference immersion of one target: its whole route continued by one
    continue_sheet and integrated by one path_integral, as make_sheeted_path
    and integrate do for sheet +1.  The route is seeded on the requested
    sheet itself (sheet_sign times the principal root, or that departure
    germ at lam = 1), and a sheet -1 route starts at the image C of the
    base-point lift (1, -w0), taken from its own integral over [1, lam]."""
    verts = route_vertices(target, lam, winding=winding)
    at_base = abs(curve_rhs(BASE_POINT, lam)) < 1e-12
    at_end = abs(curve_rhs(target, lam)) < 1e-12
    offset = np.zeros(3)
    if sheet_sign < 0 and not at_base:
        offset = 2.0 * integrate(make_sheeted_path([BASE_POINT, lam.value], lam), norm)
    if len(verts) == 1:
        return offset, sheet_sign * principal_w(BASE_POINT, lam)
    body = verts[:-1] if at_end else verts
    if at_base:
        path = sheeted_path_from_branch(body, BranchDeparture(BASE_POINT, lam, sign=sheet_sign))
    else:
        path = continue_sheet(body, sheet_sign * principal_w(BASE_POINT, lam), lam)
    if at_end:
        path = SheetedPath(np.append(path.vertices, target), np.append(path.w_values, 0j), lam)
    pos = integrate(path, norm)
    return offset + pos, path.w_values[-1]


@pytest.mark.parametrize("lv", [0.35, 1.0, 3.3, 100.0])
@pytest.mark.parametrize("winding", [0, 1])
@pytest.mark.parametrize("sheet", [+1, -1])
def test_batched_immerse_matches_scalar_routes(lv, winding, sheet):
    # the branch point lam, the base point, a real target past lam (whose
    # route detours over lam, except at lam = 1), a target near the end 0,
    # targets sharing a radius on either side of 1, positive real targets
    # off lam, and a target within a detour radius of lam, whose sweep is
    # redirected.  The scalar reference is good to about 1e-12 relative: at
    # lam = 100, sheet -1, its image of the base point is 1.19e-12 off the
    # exact x2 = 4 s sqrt((lam - 1)(1 + 1/lam)) at |x| = 400.
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    targets = [complex(lv), 1.0 + 0.0j, complex(lv * (1.5 if lv >= 1.0 else 0.5)),
               0.05 * np.exp(2j), 0.7 * np.exp(1.2j), 0.7 * np.exp(-2.0j),
               2.5 * np.exp(0.4j), 2.5 * np.exp(-2.9j), 2.0 + 0.0j, 0.004 + 0.0j,
               1.05 * lv * np.exp(0.3j)]
    points = immerse(lam, norm, targets, sheet_sign=sheet, winding=winding)
    for target, sp in zip(targets, points):
        pos, w = _scalar_immerse(lam, norm, target, winding, sheet)
        assert np.max(np.abs(sp.position - pos)) <= 1e-12 * max(1.0, np.linalg.norm(pos)), target
        assert abs(sp.source.w - w) <= 1e-14 * abs(w), target


@pytest.mark.parametrize("lv", [0.95, 1.05])
@pytest.mark.parametrize("sheet", [+1, -1])
def test_redirected_route_along_the_negative_axis_passes_above(lv, sheet):
    # |1 - lam| < lam/8, so the sweep to z = -1 runs at a redirected radius
    # and a radial leg along the negative axis finishes the route, detouring
    # over -1/lam on a semicircle above the axis: -1 is reached from above,
    # like every target on the real axis, and immerse agrees with the
    # quadrature along the route
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    route = np.asarray(route_vertices(-1.0, lam))
    assert np.all(route.imag >= 0.0)
    assert np.min(np.abs(route - complex(-1.0 / lv, 1.0 / (8.0 * lv)))) < 1e-12
    on, above = immerse(lam, norm, [-1.0, complex(-1.0, 1e-12)], sheet_sign=sheet)
    pos, w = _scalar_immerse(lam, norm, -1.0, 0, sheet)
    assert np.max(np.abs(on.position - pos)) <= 1e-12 * max(1.0, np.linalg.norm(pos))
    assert abs(on.source.w - w) <= 1e-14 * abs(w)
    assert np.linalg.norm(on.position - above.position) <= 1e-9


def test_symmetry_suite_routes_stay_in_the_batch(monkeypatch, refuse_quadrature):
    # the CLI symmetry suite at lam = 0.5, 1, 2 makes three immersion calls
    # per lam (two immerse calls and check_symmetries' one _lift_images call),
    # each immersing all its routes in closed form, with no quadrature and no
    # scalar continuation (at lam = 1 too, where the routes leave the branch
    # point 1)
    from riemann_examples import analysis, cli
    calls = []

    def recording(fn):
        def call(*args, **kwargs):
            calls.append(len(args[2]))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(cli, "immerse", recording(immerse))
    monkeypatch.setattr(analysis, "_lift_images", recording(analysis._lift_images))
    rng = np.random.default_rng(0)
    refuse_quadrature()
    for lv in (0.5, 1.0, 2.0):
        calls.clear()
        cli._suite_symmetry(Lambda(lv), rng)
        assert len(calls) == 3


@pytest.mark.parametrize("sheet", [+1, -1])
def test_routes_at_small_lambda_match_x2_closed_form(sheet):
    # at lam = 0.003 the branch points 0 and lam crowd too closely for a
    # detour over lam, but routes that never near lam need none; x2 is
    # algebraic: Re 2 i s (w/z - w0)
    lam = Lambda(0.003)
    norm = Normalization.paper(lam)
    s = normalization_scale(norm)
    w0 = principal_w(BASE_POINT, lam)
    targets = [0.5 + 0.5j, -2.0 + 1.0j, 3.0j, 0.05 * np.exp(-2.5j), 40.0 * np.exp(1.0j)]
    for target, sp in zip(targets, immerse(lam, norm, targets, sheet_sign=sheet)):
        x2 = (2j * s * (sp.source.w / target - sheet * w0)).real
        assert abs(sp.position[1] - x2) <= 1e-10, target


@pytest.mark.parametrize("delta, target, winding", [
    (0.3, 2.2 * np.exp(0.05j), 0),
    (0.3, 2.2 * np.exp(0.05j), 1),
    (0.01, -0.5 + 0.002j, 0),
], ids=["guard-winding0", "guard-winding1", "guard-end"])
def test_guard_errors_name_lambda_target_and_winding(monkeypatch, delta, target, winding):
    # with every guard radius widened to delta, 2.2 e^{0.05 i} lies within
    # 0.3 of lam = 2 and -0.5 + 0.002i within 0.01 of the branch point
    # -1/lam: immerse refuses either target before evaluating anything,
    # naming lam, the target, its winding and the guard disk with its radius
    from riemann_examples import curve, weierstrass
    from riemann_examples.errors import PathBlocked
    lam = Lambda(2.0)
    monkeypatch.setattr(curve, "delta_branch", lambda lam: (delta,) * 3)
    monkeypatch.setattr(weierstrass, "_carlson", None)
    with pytest.raises(PathBlocked) as err:
        immerse(lam, Normalization.paper(lam), [1j, target], winding=winding)
    m = re.match(r"lam = 2.0: target (\S+) \(winding (-?\d+)\) lies in the guard disk of "
                 r"branch point (\S+) \(radius (\S+)\)$", str(err.value))
    assert m, str(err.value)
    assert complex(m[1]) == target and int(m[2]) == winding
    assert abs(target - complex(m[3])) < delta
    assert float(m[4]) == pytest.approx(delta, rel=1e-2)


# ---------------------------------------------------------------------------
# batched grid immersion against the per-edge chain loop
# ---------------------------------------------------------------------------

def _scalar_grid(lam, norm, radii, angles, sheet_sign):
    """Reference grid immersion: the stem, then one continue_sheet and one
    path_integral per edge, up the western column and along each row.  The
    stem is seeded on the requested sheet itself (sheet_sign times the
    principal root, or that departure germ at lam = 1), so sheet -1 is
    integrated here and not derived from sheet +1."""
    from riemann_examples.weierstrass import _angular_leg, _radial_leg, weierstrass_integrand
    fn = weierstrass_integrand(norm)
    stem = ([BASE_POINT] + _angular_leg(1.0, 0.0, angles[0])
            + _radial_leg(1.0, radii[0], angles[0], lam))
    ss = abs(curve_rhs(BASE_POINT, lam)) < 1e-12
    if ss:
        path = sheeted_path_from_branch(stem, BranchDeparture(BASE_POINT, lam, sign=sheet_sign))
    else:
        path = continue_sheet(stem, sheet_sign * principal_w(BASE_POINT, lam), lam)
    z = radii[:, None] * np.exp(1j * np.asarray(angles)[None, :])
    w = np.zeros(z.shape, dtype=complex)
    pos = np.zeros(z.shape + (3,))
    w[0, 0] = path.w_values[-1]
    pos[0, 0] = path_integral(path, fn).real
    if sheet_sign < 0 and not ss:
        pos[0, 0] += sheet_connection(lam, norm)

    def edge(a, b):
        seg = continue_sheet([z[a], z[b]], w[a], lam)
        w[b] = seg.w_values[-1]
        pos[b] = pos[a] + path_integral(seg, fn).real

    for i in range(1, len(radii)):
        edge((i - 1, 0), (i, 0))
    for i in range(len(radii)):
        for j in range(1, len(angles)):
            edge((i, j - 1), (i, j))
    return z, w, pos


def _assert_matches_scalar(grid):
    z, w, pos = _scalar_grid(grid.lam, grid.norm, grid.radii, grid.angles, grid.sheet_sign)
    assert np.array_equal(grid.z, z)
    assert np.all(np.abs(grid.w - w) < np.abs(grid.w + w))     # no sign flips
    assert np.max(np.abs(grid.w - w) / np.abs(w)) <= 1e-14
    assert np.max(np.abs(grid.positions - pos)) <= 1e-12


@pytest.mark.parametrize("lv", [0.35, 1.0, 3.3])
@pytest.mark.parametrize("sheet", [+1, -1])
def test_batched_grid_matches_scalar_chain_loop(lv, sheet):
    lam = Lambda(lv)
    grid = immerse_grid(lam, Normalization.paper(lam), r_min=1.0 / 40.0, r_max=40.0,
                        n_rad=24, n_ang=48, sheet_sign=sheet, closed=True)
    _assert_matches_scalar(grid)


@pytest.mark.parametrize("k", [0, 1, 2], ids=["zero", "lam", "minus-inverse-lam"])
def test_guard_rim_of_each_branch_point(monkeypatch, k):
    # at lam = 2 the branch points 0, lam, -1/lam have the gaps 0.5, 2, 0.5
    # and so the guard radii 5e-7, 2e-6, 5e-7.  At (1 -+ 1e-12) times its own
    # radius, straight above the branch point b, continue_sheet and immerse
    # refuse the point inside and take it outside.
    from riemann_examples import weierstrass
    from riemann_examples.curve import branch_points, delta_branch
    from riemann_examples.errors import BranchTooClose, PathBlocked
    lam = Lambda(2.0)
    norm = Normalization.paper(lam)
    b, delta = branch_points(lam).finite[k], delta_branch(lam)[k]
    assert delta == 1e-6 * (2.0 if k == 1 else 0.5)
    rim = f"branch point {b} (radius {delta:.2e})"
    for f, inside in ((1.0 - 1e-12, True), (1.0 + 1e-12, False)):
        z = b + 1j * delta * f
        assert abs(z - b) == delta * f
        if inside:
            with pytest.raises(BranchTooClose, match=re.escape(rim)):
                continue_sheet([z], principal_w(z, lam), lam)
            with pytest.raises(PathBlocked, match=re.escape(rim)):
                immerse(lam, norm, [z])
        else:
            continue_sheet([z], principal_w(z, lam), lam)
            assert np.all(np.isfinite(immerse(lam, norm, [z])[0].position))
    # immerse_grid: a closed 2x8 grid whose second ring has its chords cross
    # the real axis at f times the radius from b (on the rays at angle 0 and
    # pi, one ring chord each).  About 0 the crossing is exact to roundoff;
    # about lam and -1/lam the floats near b resolve it only to about 1e-10 of
    # the radius, so the rim there is 1 -+ 1e-8.
    half = math.cos(math.pi / 8)
    eps = 1e-12 if k == 0 else 1e-8
    for f, inside in ((1.0 - eps, True), (1.0 + eps, False)):
        ring = (abs(b) + delta * f) / half
        monkeypatch.setattr(weierstrass, "_half_offset_radii",
                            lambda *args: np.array([1.0, ring]))
        if inside:
            with pytest.raises(BranchTooClose, match="real-axis crossing .* " + re.escape(rim)):
                immerse_grid(lam, norm, r_min=0.1, r_max=10.0, n_rad=2, n_ang=8, closed=True)
        else:
            grid = immerse_grid(lam, norm, r_min=0.1, r_max=10.0, n_rad=2, n_ang=8, closed=True)
            assert np.all(np.isfinite(grid.positions))

    # rings inside the guard disk of z = 0: the first edge to touch one is
    # refused, before any edge is integrated (the radial steps by 1/5 are
    # each clearly separated, so only the vertex guard sees the last ring)
    if k == 0:
        for radii, edge in ((np.array([0.5, 1e-8]), "(0, 0) -> (1, 0)"),
                            (0.5 * 0.2 ** np.arange(10), "(8, 0) -> (9, 0)")):
            monkeypatch.setattr(weierstrass, "_half_offset_radii", lambda *args: radii)
            with pytest.raises(BranchTooClose) as err:
                immerse_grid(lam, norm, r_min=0.1, r_max=10.0, n_rad=len(radii), n_ang=8,
                             sheet_sign=-1)
            assert f"lam = 2.0, sheet -1, radial grid edge {edge}: end point" in str(err.value)
            assert str(err.value).endswith(rim)
        angles = -math.pi + (np.arange(8) + 0.5) * (2.0 * math.pi / 8)
        with pytest.raises(BranchTooClose):
            _scalar_grid(lam, norm, np.array([0.5, 1e-8]), angles, -1)


@pytest.mark.parametrize("sheet", [+1, -1])
def test_grid_edge_errors_name_lambda_sheet_edge_and_guard(monkeypatch, sheet):
    # the ring |z| = 1e-5 lies in the guard disk of 0 once the guard radii
    # are widened to 2e-5 (the default 5e-7 about 0 lets this grid build);
    # the stem and the ring |z| = 1 pass
    from riemann_examples import curve, weierstrass
    from riemann_examples.errors import BranchTooClose
    monkeypatch.setattr(weierstrass, "_half_offset_radii", lambda *args: np.array([1.0, 1e-5]))
    monkeypatch.setattr(curve, "delta_branch", lambda lam: (2e-5,) * 3)
    lam = Lambda(2.0)
    with pytest.raises(BranchTooClose) as err:
        immerse_grid(lam, Normalization.paper(lam), r_min=0.1, r_max=10.0,
                     n_rad=2, n_ang=8, sheet_sign=sheet)
    msg = str(err.value)
    assert f"lam = 2.0, sheet {sheet:+d}, radial grid edge (0, 0) -> (1, 0)" in msg
    assert msg.endswith("lies in the guard disk of branch point 0j (radius 2.00e-05)")


@pytest.mark.parametrize("lv", [1e-6, 0.35, 1.0, 4.851, 1e6])
@pytest.mark.parametrize("closed", [False, True])
def test_mirrored_grid_evaluation_is_the_direct_one_bitwise(lv, closed):
    # the lower-half columns are the exact conjugates of the upper half, so
    # immerse_grid evaluates only the upper half (and a closed grid's seam):
    # by W(conj z) = conj W(z) its roots and positions are bitwise those of
    # one _ray over every point, placed by the grid paths' lifts
    from riemann_examples import weierstrass
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    m = max(lv, 1.0 / lv)
    grid = immerse_grid(lam, norm, r_min=0.5 / m, r_max=2.0 * m, n_rad=12, n_ang=24,
                        closed=closed)
    assert np.array_equal(grid.angles[:12], -grid.angles[23:11:-1])
    assert np.array_equal(grid.z[:, :12], np.conj(grid.z[:, 23:11:-1]))
    sigma, j = weierstrass._grid_lift(lam, grid.z, +1)
    w, psi = weierstrass._ray(np.concatenate(([BASE_POINT], grid.z.ravel())), lam, norm)
    sigma = sigma.ravel()
    pos = (sigma[:, None] * psi[1:]).real - psi[0].real
    pos += j.reshape(-1, 1) * weierstrass._lam_terms(norm)[1]
    assert np.array_equal((sigma * w[1:]).reshape(grid.w.shape), grid.w)
    assert np.array_equal(pos.reshape(grid.positions.shape), grid.positions)


# ---------------------------------------------------------------------------
# radial-edge alignment: the sheet check, and both sheets against their own
# continuation
# ---------------------------------------------------------------------------

def test_alignment_refuses_a_sheet_minus_grid():
    lam = Lambda(0.354)
    grid = immerse_grid(lam, Normalization.paper(lam), r_min=0.1, r_max=10.0, n_rad=24,
                        n_ang=48, closed=True)
    with pytest.raises(ValueError, match="sheet_partner"):
        radial_edge_alignment(grid.sheet_partner)
    assert radial_edge_alignment(grid).upper.shape == (2, 23, 49)


#: Ring 5 of the 12-ring grid over [0.1, 10].
_R5 = 0.1 * 100.0 ** (5.5 / 12.0)

#: (lam, (r_min, r_max, n_rad, n_ang)) of the alignment checks: 24x48 grids,
#: then branch points between a ring and the axis crossing r cos(pi/n_ang)
#: of its chords, where sigma does not change between the straddled rings:
#: 1/lam at 1.02 r5 and lam at 0.96 r5 on 12x8 grids, and lam = 0.3 and 2.0
#: on 48x8 grids over [1/40, 40]; then the family's ends on 48x96 grids over
#: [min(lam, 1/lam)/2, 2 max(lam, 1/lam)], which span both branch moduli.
_ALIGNMENT_CASES = (
    [pytest.param(lv, (0.1, 10.0, 24, 48), id=str(lv))
     for lv in (0.354, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 4.851)]
    + [pytest.param(f * _R5, (0.1, 10.0, 12, 8), id=f"{f}r5-12x8") for f in (1.02, 0.96)]
    + [pytest.param(lv, (1.0 / 40.0, 40.0, 48, 8), id=f"{lv}-48x8") for lv in (0.3, 2.0)]
    + [pytest.param(lv, (0.5 * min(lv, 1.0 / lv), 2.0 * max(lv, 1.0 / lv), 48, 96),
                    id=f"{lv}-48x96") for lv in (1e-6, 1e-3, 1e3, 1e6)])


@pytest.mark.parametrize("lv, spec", _ALIGNMENT_CASES)
def test_sheet_minus_alignment_matches_its_own_continuation(lv, spec):
    # every radial edge of either sheet, continued from that sheet's own
    # vertices, ends on upper[s] shifted by period_k[s] periods
    lam = Lambda(lv)
    r_min, r_max, n_rad, n_ang = spec
    grid = immerse_grid(lam, Normalization.paper(lam), r_min=r_min, r_max=r_max,
                        n_rad=n_rad, n_ang=n_ang, closed=True)
    pair = (grid, grid.sheet_partner)
    alignment = radial_edge_alignment(grid)
    t_vec = period_vectors(grid.lam, grid.norm).translation
    w_pair = np.concatenate([g.w.ravel() for g in pair])
    pos_pair = np.concatenate([g.positions.reshape(-1, 3) for g in pair])
    z, block = grid.z.ravel(), grid.z.size
    a = np.arange(block - grid.n_col)
    for s, g in enumerate(pair):
        w_end, vals = continue_edges(z[a], g.w.ravel()[a], z[a + grid.n_col], grid.lam,
                                     grid.norm, lambda k: f"edge {k}")
        end = g.positions.reshape(-1, 3)[a] + vals
        up, k = alignment.upper[s].ravel(), alignment.period_k[s].ravel()
        scale = np.maximum(1.0, np.linalg.norm(end, axis=1))
        assert np.all(np.abs(w_pair[up] - w_end) <= 1e-9 * (1.0 + np.abs(w_end)))
        assert np.all(np.linalg.norm(end - pos_pair[up] - k[:, None] * t_vec, axis=1)
                      <= 1e-9 * scale)
        # the band rows cross to the other sheet, and some of their edges
        # gain a period
        assert np.any((up < block) == (s == 1)) and np.any(k != 0)
