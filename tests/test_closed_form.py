"""The closed-form immersion against an independent oracle.

The oracle shares no code with the package.  From w^2 = z (z - lam)(z + 1/lam)
and the integrand alone, the Weierstrass integral on the root
W = sqrt(z - lam) sqrt(z) sqrt(z + 1/lam) (principal roots) is

    x = Re s (-2 B - 2 W/z, 2 i W/z, -2 A) + const,

with A = 2 R_F(z - lam, z, z + 1/lam) and B = (2/3) R_D(z - lam, z + 1/lam, z)
the integrals of dt/W and dt/(t W) along the horizontal ray from z to +inf
(DLMF 19.16, 19.29), here mpmath's elliprf and elliprd at 30 digits.  The
image of a lift (z, w) is then known modulo the translation period T and
the sheet reflection x -> C - x, C = 2 x(lam); every check below accepts
either class within _tol(lam) max(1, |x|): 1e-12 on [1e-3, 1e3], growing
as 1e-15 max(lam, 1/lam) beyond, where the closed form cancels
|Psi| ~ s lam^(-1/2) against positions of size 1.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemann_examples import curve, weierstrass
from riemann_examples.analysis import foliation_slices
from riemann_examples.curve import CURVE_TOL, Lambda, _curve_at, branch_points, curve_residual
from riemann_examples.errors import BranchTooClose
from riemann_examples.mesh import build_mesh
from riemann_examples.weierstrass import (
    Normalization,
    immerse,
    immerse_grid,
    normalization_scale,
    period_vectors,
    radial_edge_alignment,
    sheet_connection,
    vertical_end_spacing,
)

from conftest import continue_edges

_LAMBDAS = [1e-6, 1e-5, 1e-3, 0.05, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0, 40.0, 1e3, 1e5,
            1e6]


def _tol(lv):
    """Oracle tolerance, relative to max(1, |x|): 1e-12 on [1e-3, 1e3]."""
    return max(1e-12, 1e-15 * max(lv, 1.0 / lv))


class _Oracle:
    """Images of lifts at one lam and scale s, at 30 digits."""

    def __init__(self, lv, s):
        with mpmath.workdps(30):
            self.lam, self.s = mpmath.mpf(lv), mpmath.mpf(s)
            self.cache = {}
            w1, psi1 = self.ray(1.0)
            w0 = mpmath.sqrt((1 - self.lam) * (1 + 1 / self.lam))
            self.sigma0 = 1 if abs(w0 - w1) <= abs(w0 + w1) else -1
            self.base = [self.sigma0 * p for p in psi1]
            _, psi_lam = self.ray(float(lv))
            self.c = np.array([float(2 * mpmath.re(self.sigma0 * p - q))
                               for p, q in zip(psi_lam, self.base)])
            m = 1 / (1 + self.lam ** 2)
            k, e = mpmath.ellipk(m), mpmath.ellipe(m)
            r = 2 / mpmath.sqrt(self.lam + 1 / self.lam)
            t1 = -4 * r * (-k / self.lam + (self.lam + 1 / self.lam) * (k - e))
            self.t = np.array([float(self.s * t1), 0.0, float(self.s * 4 * r * k)])

    def ray(self, z):
        """(W, Psi) at z; on the real axis the limit from above, at z + 1e-40 i."""
        z = complex(z)
        if z not in self.cache:
            with mpmath.workdps(30):
                zm = mpmath.mpc(z.real, z.imag if z.imag != 0.0 else mpmath.mpf("1e-40"))
                x, y = zm - self.lam, zm + 1 / self.lam
                w = mpmath.sqrt(x) * mpmath.sqrt(zm) * mpmath.sqrt(y)
                a = 2 * mpmath.elliprf(x, zm, y)
                b = 2 * mpmath.elliprd(x, y, zm) / 3
                self.cache[z] = (w, [self.s * v for v in (-2 * b - 2 * w / zm,
                                                         mpmath.mpc(0, 2) * w / zm, -2 * a)])
        return self.cache[z]

    def miss(self, z, w, x):
        """Relative distance from x to the nearest oracle image of (z, w)."""
        wz, psi = self.ray(z)
        sigma = 1 if abs(w - complex(wz)) <= abs(w + complex(wz)) else -1
        with mpmath.workdps(30):
            image = {sg: np.array([float(mpmath.re(sg * p - q)) for p, q in zip(psi, self.base)])
                     for sg in (sigma, -sigma)}
        cands = [image[sigma], self.c - image[-sigma]]
        gap = min(np.linalg.norm(x - c - n * self.t) for c in cands for n in range(-2, 3))
        return gap / max(1.0, float(np.linalg.norm(x)))


def _oracle(lam, norm):
    return _Oracle(lam.value, normalization_scale(norm))


def _targets(lv):
    """Targets off and on the real axis (the cut (0, lam) and (-inf, -1/lam),
    lam itself, -1), each either a branch point or more than 1e-4 of its gap
    away from every branch point."""
    ts = [0.6 + 0.8j, -1.5 + 0.5j, 2.5 * np.exp(-2.9j), 0.7 * np.exp(-2j), 3.0 * np.exp(1.5j),
          1.7 * lv * np.exp(0.2j), complex(lv), 0.5 * min(lv, 1.0), -2.0 / lv, -1.0]
    bp = branch_points(lv)

    def clear(t):
        return all(abs(t - b) == 0.0 or abs(t - b) > 1e-4 * gap
                   for b, gap in zip(bp.finite, bp.gaps))

    return [t for t in ts if clear(t)]


@pytest.mark.parametrize("lv", _LAMBDAS)
def test_immerse_matches_the_elliptic_oracle(lv):
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    oracle = _oracle(lam, norm)
    targets = _targets(lv)
    for winding in (0, 1, -1):
        for sheet in (+1, -1):
            for t, p in zip(targets, immerse(lam, norm, targets, sheet_sign=sheet,
                                             winding=winding)):
                assert oracle.miss(t, p.source.w, p.position) <= _tol(lv), (t, sheet, winding)


def test_translation_circuit_at_small_lambda_meets_the_oracle():
    # the translation circuit crosses the axis at lam/2 and -1.5/lam, at least
    # half a gap from every branch point: at lam = 1e-3 (where a circuit
    # crossing at -1/lam - lam/2 fell in the guard disk of -1/lam) each
    # circuit adds exactly one period T, and every image meets the oracle
    lam = Lambda(1e-3)
    norm = Normalization.paper(lam)
    oracle = _oracle(lam, norm)
    targets = _targets(lam.value)
    t_vec = period_vectors(lam, norm).translation
    for sheet in (+1, -1):
        base = immerse(lam, norm, targets, sheet_sign=sheet)
        for winding in (1, -1):
            points = immerse(lam, norm, targets, sheet_sign=sheet, winding=winding)
            for t, p0, p in zip(targets, base, points):
                assert oracle.miss(t, p.source.w, p.position) <= 1e-12, (t, sheet, winding)
                shift = sheet * winding * t_vec
                assert np.linalg.norm(p.position - p0.position - shift) <= (
                    1e-10 * np.linalg.norm(t_vec)), (t, sheet, winding)


@pytest.mark.parametrize("lv", _LAMBDAS)
def test_grid_matches_the_elliptic_oracle(lv):
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    oracle = _oracle(lam, norm)
    for sheet in (+1, -1):
        grid = immerse_grid(lam, norm, r_min=1.0 / 40.0, r_max=40.0, n_rad=4, n_ang=8,
                            sheet_sign=sheet, closed=True)
        for z, w, x in zip(grid.z.ravel(), grid.w.ravel(), grid.positions.reshape(-1, 3)):
            assert oracle.miss(z, w, x) <= _tol(lv), (z, sheet)


def test_coarse_grids_match_the_elliptic_oracle():
    # at n_ang = 8 the seam chord of the ring |z| = 3.16 at lam = 0.35 crosses
    # the axis 0.06 from the branch point -1/lam, where one nearest-root step
    # along the chord lands on the wrong sheet (the scalar continuation puts
    # vertex (4, 8) 0.29 off); at lam = 2 the ring |z| = 2.3 has a chord
    # passing right of the branch point 2
    for lv, r_min, r_max, n_rad in ((0.35, 0.1, 10.0, 6), (2.0, 1.0, 2.3 ** 2, 3)):
        lam = Lambda(lv)
        norm = Normalization.paper(lam)
        oracle = _oracle(lam, norm)
        for sheet in (+1, -1):
            grid = immerse_grid(lam, norm, r_min=r_min, r_max=r_max, n_rad=n_rad, n_ang=8,
                                sheet_sign=sheet, closed=True)
            for z, w, x in zip(grid.z.ravel(), grid.w.ravel(), grid.positions.reshape(-1, 3)):
                assert oracle.miss(z, w, x) <= 1e-12, (lv, z, sheet)


_FAMILY = st.one_of(
    st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
    st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-9.0, -6.0)).map(
        lambda a: 1.0 + a[0] * 10.0 ** a[1]),
)


@settings(max_examples=20, deadline=None)
@given(lv=_FAMILY)
def test_the_whole_family_meets_the_oracle(lv):
    # log10 lam uniform on [-6, 6], and lam = 1 -+ 10^u with u uniform on
    # [-9, -6], where the base point 1 lies next to the branch point lam
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    oracle = _oracle(lam, norm)
    targets = _targets(lv)
    pv = period_vectors(lam, norm)
    t_norm = np.linalg.norm(pv.translation)
    assert np.linalg.norm(pv.companion) < 1e-6 * t_norm
    for sheet in (+1, -1):
        images = {winding: immerse(lam, norm, targets, sheet_sign=sheet, winding=winding)
                  for winding in (0, 1, -1)}
        for winding, points in images.items():
            for t, p in zip(targets, points):
                assert oracle.miss(t, p.source.w, p.position) <= _tol(lv), (t, sheet, winding)
        for t, p0, p1 in zip(targets, images[0], images[1]):
            shift = p1.position - p0.position - sheet * pv.translation
            assert np.linalg.norm(shift) <= 1e-10 * t_norm, (t, sheet)
    assert np.all(np.isfinite(build_mesh(lam, norm, n_rad=8, n_ang=16).vertices))


# ---------------------------------------------------------------------------
# the uniformisation by Jacobi's sn, and the foliation slices
# ---------------------------------------------------------------------------

def _jacobi_oracle(lv, v):
    """(z, w) at the torus coordinate v, from mpmath's ellipfun at 30 digits:
    z = (lam + 1/lam) dn^2/sn^2, w = (lam + 1/lam)^(3/2) cn dn / sn^3 at
    (v | m), m = 1/(1 + lam^2)."""
    with mpmath.workdps(30):
        lam = mpmath.mpf(lv)
        m, c = 1 / (1 + lam ** 2), lam + 1 / lam
        sn, cn, dn = (mpmath.ellipfun(f, v, m=m) for f in ("sn", "cn", "dn"))
        return complex(c * dn ** 2 / sn ** 2), complex(c ** 1.5 * cn * dn / sn ** 3)


def _quarter_periods(lv):
    with mpmath.workdps(30):
        m = 1 / (1 + mpmath.mpf(lv) ** 2)
        return float(mpmath.ellipk(m)), float(mpmath.ellipk(1 - m))


@pytest.mark.parametrize("lv", [1e-6, 1e-3, 0.5, 1.0, 2.0, 1e3, 1e6])
def test_curve_at_matches_jacobi_elliptic_functions(lv):
    # v over two periods 2K either way and one period 2iK', off the poles
    # and zeros of sn (y = 0 and K' at Re v in K Z)
    k, kc = _quarter_periods(lv)
    a = k * np.linspace(-4.0, 4.0, 12, endpoint=False) + 0.3 * k
    y = kc * (np.arange(6) + 0.3) / 3.0
    z, w = _curve_at(a[:, None], y, lv)
    for zk, wk, ak, yk in zip(z.ravel(), w.ravel(), np.repeat(a, len(y)), np.tile(y, len(a))):
        z_ref, w_ref = _jacobi_oracle(lv, mpmath.mpc(ak, yk))
        assert abs(zk - z_ref) <= 1e-13 * abs(z_ref), (ak, yk)
        assert abs(wk - w_ref) <= 1e-13 * abs(w_ref), (ak, yk)
    assert np.all(curve_residual(z, w, lv) <= CURVE_TOL)


@pytest.mark.parametrize("lv", [0.35, 1.0, 3.3])
def test_slices_match_the_elliptic_oracle(lv):
    # the slice at height c samples the line Re v = a, a = (K - (c - h0) /
    # kappa) mod 2K, at y = 2K' (j + 1/4) / n: every point is an oracle image
    # of its lift (ellipfun at 30 digits), at its height
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    oracle = _oracle(lam, norm)
    s = normalization_scale(norm)
    grid = immerse_grid(lam, norm, r_min=0.1, r_max=10.0, n_rad=4, n_ang=8, closed=True)
    _, psi = oracle.ray(0.5 * lv)
    h0 = float(mpmath.re(psi[2] - oracle.base[2]))
    heights = h0 + vertical_end_spacing(lam, norm) * np.linspace(0.25, 0.75, 8)
    k, kc = _quarter_periods(lv)
    kappa = 4.0 * s / np.sqrt(lv + 1.0 / lv)
    for sl in foliation_slices([grid, grid.sheet_partner], heights):
        a = (k - (sl.height - h0) / kappa) % (2.0 * k)
        for j, x in enumerate(sl.points):
            z, w = _jacobi_oracle(lv, mpmath.mpc(a, 2.0 * kc * (j + 0.25) / sl.n_points))
            assert oracle.miss(z, w, x) <= 1e-12, (sl.height, j)
            assert abs(x[2] - sl.height) <= 1e-12 * max(1.0, abs(sl.height))


# ---------------------------------------------------------------------------
# near-singular edges, small lam and lam next to 1
# ---------------------------------------------------------------------------

def test_grid_edge_to_a_ring_near_zero(monkeypatch):
    # the radial edge from |z| = 1 to |z| = 1e-5 at lam = 2, along which Phi
    # grows like |z|^-3/2
    monkeypatch.setattr(weierstrass, "_half_offset_radii", lambda *args: np.array([1.0, 1e-5]))
    lam = Lambda(2.0)
    norm = Normalization.paper(lam)
    oracle = _oracle(lam, norm)
    grid = immerse_grid(lam, norm, r_min=0.1, r_max=10.0, n_rad=2, n_ang=8)
    for z, w, x in zip(grid.z.ravel(), grid.w.ravel(), grid.positions.reshape(-1, 3)):
        assert oracle.miss(z, w, x) <= 1e-12, z


@pytest.mark.parametrize("lv", [1.04e-5, 2e-5, 5e-5])
def test_sheet_connection_at_small_lambda(lv):
    # the one edge [1, lam] ends at a branch point within 1e-5 of the branch
    # point 0
    norm = Normalization.paper(lv)
    c = sheet_connection(lv, norm)
    ref = _oracle(Lambda(lv), norm).c
    assert np.linalg.norm(c - ref) <= 1e-12 * np.linalg.norm(ref)


def test_mesh_builds_just_off_lambda_one():
    # the stem leaves the base point 1.05e-6 from the branch point lam
    lam = Lambda(1.0 + 1.05e-6)
    norm = Normalization.paper(lam)
    mesh = build_mesh(lam, norm, n_rad=8, n_ang=16)
    assert np.all(np.isfinite(mesh.vertices))
    oracle = _oracle(lam, norm)
    grid = immerse_grid(lam, norm, r_min=1.0 / 40.0, r_max=40.0, n_rad=8, n_ang=16,
                        closed=True)
    for z, w, x in zip(grid.z.ravel(), grid.w.ravel(), grid.positions.reshape(-1, 3)):
        assert oracle.miss(z, w, x) <= 1e-12, z


@pytest.mark.parametrize("d", [-3e-6, -9.1e-7, -1e-7, 1e-7, 9.1e-7, 3e-6])
def test_grids_are_continuous_through_lambda_one(d):
    # the base point 1 lies within |d| of the branch point lam, inside its
    # guard disk for |d| < 2e-6, and the stem leaves it across the axis
    lam = Lambda(1.0 + d)
    norm = Normalization.paper(lam)
    oracle = _oracle(lam, norm)
    for sheet in (+1, -1):
        grid = immerse_grid(lam, norm, r_min=1.0 / 40.0, r_max=40.0, n_rad=4, n_ang=8,
                            sheet_sign=sheet, closed=True)
        for z, w, x in zip(grid.z.ravel(), grid.w.ravel(), grid.positions.reshape(-1, 3)):
            assert oracle.miss(z, w, x) <= 1e-12, (z, sheet)
    assert np.all(np.isfinite(build_mesh(lam, norm, n_rad=8, n_ang=16).vertices))


def test_probe_immersions_just_off_lambda_one():
    # 24 lam with 1e-6 < |lam - 1| < 3e-6, 3 targets each: every route
    # leaves the base point next to the branch point lam
    targets = [1000.0 * np.exp(-1.5j), 1.5 * np.exp(0.5j), 0.5 * np.exp(2j)]
    for d in np.concatenate([-np.linspace(1.01e-6, 3e-6, 12), np.linspace(1.01e-6, 3e-6, 12)]):
        lam = Lambda(1.0 + d)
        norm = Normalization.paper(lam)
        oracle = _oracle(lam, norm)
        for t, p in zip(targets, immerse(lam, norm, targets)):
            assert oracle.miss(t, p.source.w, p.position) <= 1e-12, (d, t)


# ---------------------------------------------------------------------------
# the base point
# ---------------------------------------------------------------------------

def test_principal_root_at_the_base_point_is_plus_w():
    # every closed-form lift starts at z0 = 1 on W itself: the principal root
    # there is +W(1) of _ray, real for lam < 1, +i times a positive number
    # beyond and 0 at lam = 1, including where the base point nears lam
    for lv in [*np.logspace(-6, 6), 1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-7, 1.0 + 1e-7]:
        lam = Lambda(lv)
        w = weierstrass._ray([1.0 + 0.0j], lam, Normalization.raw(lam))[0][0]
        w0 = curve.principal_w(1.0 + 0.0j, lam)
        assert abs(w0 - w) <= abs(w0 + w), lv
        assert abs(w0 - w) <= 1e-15 * abs(w), lv


# ---------------------------------------------------------------------------
# no quadrature and no scalar continuation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lv", [0.5, 1.0, 2.0])
def test_immersion_runs_without_quadrature(refuse_quadrature, lv):
    refuse_quadrature()
    with pytest.raises(AssertionError, match="reached"):
        curve.continue_sheet([1.0], 1.0, 0.5)
    weierstrass._period_vectors_cached.cache_clear()
    weierstrass._lam_terms.cache_clear()
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    for sheet in (+1, -1):
        immerse(lam, norm, [0.6 + 0.8j, -3.0, 0.3 * np.exp(-1j)], sheet_sign=sheet, winding=1)
    period_vectors(lam, norm)
    grids = [immerse_grid(lam, norm, r_min=0.1, r_max=10.0, n_rad=12, n_ang=24,
                          sheet_sign=s, closed=True) for s in (+1, -1)]
    radial_edge_alignment(grids[0])
    spacing = vertical_end_spacing(lam, norm)
    assert len(foliation_slices(grids, spacing * np.array([0.3, 0.6]))) == 2


# ---------------------------------------------------------------------------
# the jump of an axis crossing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["raw", "paper", "spacing"])
@pytest.mark.parametrize("lv", [*np.logspace(-6, 6, 13), 1.0 - 1e-9, 1.0, 1.0 + 1e-9])
def test_a_crossing_adds_the_jump_its_interval_fixes(lv, kind):
    # an edge that crosses the axis at x0 < lam adds Psi(x0 on za's side) -
    # flip Psi(x0 on zb's side), Psi from above the _ray at x0 and
    # from below its _mirror: that per-crossing formula is the oracle.  Its
    # real part is J = 2 Re Psi(lam) on the whole cut (0, lam), exactly 0 on
    # (-1/lam, 0) and on the cut (-inf, -1/lam), and J is -T
    lam = Lambda(lv)
    norm = getattr(Normalization, kind)(lam)
    jump = weierstrass._lam_terms(norm)[1]
    t_vec = period_vectors(lam, norm).translation
    assert np.linalg.norm(jump + t_vec) <= 1e-14 * np.linalg.norm(t_vec)
    rng = np.random.default_rng(29)
    u = rng.uniform(0.0, 1.0, 60)
    for x0, on_cut, flip in ((lv * u, True, -1.0), (-u / lv, False, 1.0),
                             (-np.exp(6.0 * u) / lv, False, -1.0)):
        x0 = x0[~curve.near_branch(x0, lam)]
        step = rng.uniform(0.1, 2.0, len(x0)) * np.exp(1j * rng.uniform(0.1, 3.0, len(x0)))
        step *= np.where(rng.random(len(x0)) < 0.5, 1.0, -1.0)      # za above or below
        step *= min(lv, 1.0 / lv) * 1e-3
        za, zb = x0 + step, x0 - step
        flips, cut = weierstrass._crossings(za, zb, lam, str)
        assert np.all(cut == on_cut) and np.all(flips == flip)
        _, above = weierstrass._ray(x0 + 0.0j, lam, norm)
        below = weierstrass._mirror(above)
        up = (za.imag > 0.0)[:, None]
        oracle = np.where(up, above - flip * below, below - flip * above).real
        if on_cut:
            miss = np.linalg.norm(oracle - jump, axis=1)
            assert np.all(miss <= 1e-14 * max(1.0, np.linalg.norm(jump)))
        else:
            assert np.all(oracle == 0.0)


# ---------------------------------------------------------------------------
# guards of the closed-form edges
# ---------------------------------------------------------------------------

def test_edge_guards_refuse_crossings_near_a_branch_point():
    lam = Lambda(2.0)
    norm = Normalization.paper(lam)
    w = complex(curve.principal_w(2.0 + 1e-6 + 0.5j, lam))

    def where(k):
        return f"edge {k}"

    # crossing the axis 1e-6 from lam, inside the guard disk of radius 2e-6
    with pytest.raises(BranchTooClose, match="edge 0: real-axis crossing"):
        continue_edges(2.0 + 1e-6 + 0.5j, w, 2.0 + 1e-6 - 0.5j, lam, norm, where)
    # ending there
    with pytest.raises(BranchTooClose, match="edge 0: end point"):
        continue_edges(2.0 + 0.5j, w, 2.0 + 1e-6j, lam, norm, where)
    # leaving a branch point downward is no crossing near it: the root is
    # the +1 departure germ, which is W about lam in every direction
    wb, vals = continue_edges(2.0, 0.0, 2.0 - 0.5j, lam, norm, where)
    oracle = _oracle(lam, norm)
    w_ref, _ = oracle.ray(2.0 - 0.5j)
    assert abs(wb[0] - complex(w_ref)) <= 1e-15 * abs(wb[0])
    x_lam = immerse(lam, norm, [2.0])[0].position
    assert oracle.miss(2.0 - 0.5j, wb[0], x_lam + vals[0]) <= 1e-12
    # nor is leaving a regular point of the cut inside the disk: the crossing
    # is that end point exactly, where the sheet flips
    za = 2.0 - 1e-6
    wa, psi_a = oracle.ray(za)
    x_a = np.array([float(mpmath.re(p - q)) for p, q in zip(psi_a, oracle.base)])
    wb, vals = continue_edges(za, complex(wa), za - 0.5j, lam, norm, where)
    assert oracle.miss(za - 0.5j, wb[0], x_a + vals[0]) <= 1e-12


def test_real_targets_are_taken_from_above():
    # a target on the real axis with imaginary part -0.0 is the same point as
    # with +0.0: points on the real axis are limits from above, on the cut
    # (0, lam), on (-1/lam, 0) and on the cut (-inf, -1/lam) alike.  Each is
    # 1e-9 from its image of t + 1e-12 i, and on the oracle.
    lam = Lambda(2.0)
    norm = Normalization.paper(lam)
    oracle = _oracle(lam, norm)
    for t in (0.3, -0.3, -3.0):
        up, down, above = immerse(lam, norm, [complex(t, 0.0), complex(t, -0.0),
                                              complex(t, 1e-12)])
        assert np.array_equal(up.position, down.position) and up.source.w == down.source.w, t
        assert np.linalg.norm(up.position - above.position) <= 1e-9, t
        assert abs(up.source.w - above.source.w) <= 1e-9, t
        assert oracle.miss(t, down.source.w, down.position) <= 1e-12, t
