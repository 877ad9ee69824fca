import math

import numpy as np
import pytest

from riemann_examples.curve import (CurvePoint, Lambda, branch_points, continue_sheet,
                                    principal_w)
from riemann_examples.limits import (
    Annulus,
    ClipRegion,
    catenoid_decomposition_residuals,
    catenoid_limit_sweep,
    conjugate_check,
    end_spacing,
    f0,
    f_inf,
    helicoid_decomposition_residuals,
    helicoid_limit_sweep,
    plane_limit_experiment,
)
from riemann_examples import weierstrass
from riemann_examples.errors import SingularPoint
from riemann_examples.weierstrass import Normalization, immerse, integrate, phi_components

from conftest import curve_samples


# ---------------------------------------------------------------------------
# correction factors
# ---------------------------------------------------------------------------

def test_f0_at_base_point():
    # 1/sqrt(0.99 * 1.01) - 1
    val = f0(1.0, 0.01)
    assert val.real == pytest.approx(5.0003750312610507e-05, rel=1e-9)
    assert abs(val.imag) < 1e-15


def test_f_inf_at_base_point():
    val = f_inf(1.0, 100.0)
    assert val.real == pytest.approx(-5.0003750312610507e-05, rel=1e-9)
    assert abs(val.imag) < 1e-15


def test_f0_direct_square_root_form():
    # matched branches: f0 = sqrt(z)/sqrt((z - lam)(lam z + 1)) - 1 near z = 1
    lv = 0.05
    for z in (1.0 + 0.0j, 1.2 + 0.4j, 0.8 - 0.3j):
        direct = np.sqrt(z) / np.sqrt((z - lv) * (lv * z + 1.0)) - 1.0
        assert f0(z, lv) == pytest.approx(direct, abs=1e-12)


def test_f0_f_inf_domain_validation():
    with pytest.raises(ValueError):
        f0(1.0, 2.0)
    with pytest.raises(ValueError):
        f_inf(1.0, 0.5)
    # w = 0 at a finite branch point: the factors have a pole there
    with pytest.raises(SingularPoint, match=r"lam = 0\.1: .* pole at the branch point z = \(-10"):
        f0([2j, -10.0], 0.1)
    with pytest.raises(SingularPoint, match=r"lam = 10\.0: .* z = \(10"):
        f_inf(10.0, 10.0)


@pytest.mark.parametrize("factor, lv", [(f0, 0.1), (f0, 0.01), (f_inf, 100.0)])
def test_correction_factor_on_an_array_is_the_scalar_calls(factor, lv):
    z = np.append(_annulus_targets(48), [1.0, 3.0, -2.0]).reshape(3, -1)
    values = factor(z, lv)
    assert values.shape == z.shape
    scalars = np.array([factor(t, lv) for t in z.ravel()]).reshape(z.shape)
    assert np.array_equal(values.view(float), scalars.view(float))


def test_sup_f0_decreases():
    ann = Annulus(L=10.0, n_rad=16, n_ang=32)
    sups = []
    for lv in (0.1, 0.01, 0.001):
        lam = Lambda(lv)
        grid = ann.grid(lam, Normalization.paper(lam))
        sups.append(float(np.max(np.abs(f0(grid.z, lam)))))
    assert sups[0] > sups[1] > sups[2]


def test_sup_f_inf_decreases():
    ann = Annulus(L=10.0, n_rad=16, n_ang=32)
    sups = []
    for lv in (10.0, 100.0, 1000.0):
        lam = Lambda(lv)
        grid = ann.grid(lam, Normalization.paper(lam))
        sups.append(float(np.max(np.abs(f_inf(grid.z, lam)))))
    assert sups[0] > sups[1] > sups[2]


# ---------------------------------------------------------------------------
# convergence sweeps
# ---------------------------------------------------------------------------

def test_catenoid_sweep_monotone():
    ann = Annulus(L=10.0, n_rad=24, n_ang=48)
    clip = ClipRegion("ball", 5.0)
    report = catenoid_limit_sweep([0.1, 0.01, 0.001], ann, clip)
    assert report.is_strictly_decreasing()
    # threshold frozen from this sweep's own first run, with 2x margin
    assert report.deviations[-1] < 0.013


def test_catenoid_sweep_clip_subset_monotone():
    ann = Annulus(L=10.0, n_rad=16, n_ang=32)
    big = catenoid_limit_sweep([0.01], ann, ClipRegion("ball", 5.0))
    small = catenoid_limit_sweep([0.01], ann, ClipRegion("ball", 2.0))
    assert small.deviations[0] <= big.deviations[0]


def test_helicoid_sweep_monotone():
    ann = Annulus(L=10.0, n_rad=24, n_ang=48)
    clip = ClipRegion("ball", 5.0)
    report = helicoid_limit_sweep([10.0, 100.0, 1000.0], ann, clip)
    assert report.is_strictly_decreasing()
    assert report.deviations[-1] < 0.013
    # end spacing tends to 2 pi from below
    gaps = [abs(s - 2.0 * math.pi) for s in report.extras["end_spacing"]]
    assert gaps[0] > gaps[1] > gaps[2]


def test_sweep_validation():
    ann = Annulus(L=10.0, n_rad=16, n_ang=32)
    clip = ClipRegion("ball", 5.0)
    with pytest.raises(ValueError):
        catenoid_limit_sweep([2.0], ann, clip)
    with pytest.raises(ValueError):
        helicoid_limit_sweep([0.5], ann, clip)
    with pytest.raises(ValueError):
        ClipRegion("cube", 1.0)
    with pytest.raises(ValueError):
        Annulus(L=0.5)
    with pytest.raises(ValueError, match="finite number > 1, not inf"):
        Annulus(L=math.inf)


def test_positive_real_axis_heights_vanish():
    # winding-0 targets on the positive real axis below the branch modulus
    # sit on the straight line at the base height: the helicoid's limit ray
    for lv in (10.0, 100.0, 1000.0):
        lam = Lambda(lv)
        norm = Normalization.paper(lam)
        ts = np.linspace(0.3, 3.0, 7).astype(complex)
        pts = immerse(lam, norm, ts)
        assert max(abs(sp.position[2]) for sp in pts) < 1e-10


# ---------------------------------------------------------------------------
# end spacing
# ---------------------------------------------------------------------------

def test_end_spacing_large_lambda():
    # one function under both names, so wrapping it wraps every caller
    assert end_spacing is weierstrass.vertical_end_spacing
    lam = Lambda(1000.0)
    spacing = end_spacing(lam, Normalization.paper(lam))
    assert abs(spacing - 2.0 * math.pi) < 0.01 * 2.0 * math.pi


def test_end_spacing_fixed_normalization():
    lam = Lambda(0.2)
    assert end_spacing(lam, Normalization.spacing(lam)) == pytest.approx(
        2.0 * math.pi, abs=1e-9)


# ---------------------------------------------------------------------------
# decomposition identities
# ---------------------------------------------------------------------------

def _annulus_targets(n, seed=1):
    rng = np.random.default_rng(seed)
    rho = np.exp(rng.uniform(math.log(0.11), math.log(9.0), n))
    ang = rng.uniform(-3.0, 3.0, n)
    return rho * np.exp(1j * ang)


def test_catenoid_decomposition():
    res = catenoid_decomposition_residuals(0.01, _annulus_targets(50))
    assert float(res.max()) < 1e-8


def test_helicoid_decomposition():
    res = helicoid_decomposition_residuals(100.0, _annulus_targets(50))
    assert float(res.max()) < 1e-8


@pytest.mark.parametrize("lv, residuals", [(0.1, catenoid_decomposition_residuals),
                                           (10.0, helicoid_decomposition_residuals)])
def test_decomposition_at_branch_point_and_real_targets(lv, residuals):
    # the route to the branch point lam ends on it (square-root substitution
    # on the correction integrand too); real targets lie on the shared trunk
    targets = [complex(lv), 0.5, 3.0, 0.7 * np.exp(2j), 0.7 * np.exp(-2j)]
    assert float(residuals(lv, targets).max()) < 1e-8


def test_continued_root_is_the_immersed_root():
    from riemann_examples.errors import BranchAmbiguity
    from riemann_examples.limits import _continued_w
    for lv in (0.1, 10.0):
        lam = Lambda(lv)
        targets = list(_annulus_targets(12)) + [complex(lv)]
        points = immerse(lam, Normalization.raw(lam), targets)
        for z, p in zip(targets, points):
            assert abs(_continued_w(z, lam) - p.source.w) <= 1e-12 * max(abs(p.source.w), 1.0), z
    with pytest.raises(BranchAmbiguity):
        _continued_w(0.5j, Lambda(1.0))


def test_null_homotopic_loops_vanish_for_small_lambda():
    # closed curves in the chosen annulus component integrate to zero for
    # lam down at the catenoid end (the enclosed cycle carries no real period)
    for lv in (0.01, 0.005):
        lam = Lambda(lv)
        norm = Normalization.paper(lam)
        taus = np.linspace(0.0, 2.0 * math.pi, 129)
        verts = np.exp(1j * taus)
        path = continue_sheet(verts, principal_w(1.0, lam), lam)
        assert np.linalg.norm(integrate(path, norm)) < 1e-9


def test_loop_period_matches_twice_spacing_for_large_lambda():
    lam = Lambda(50.0)
    norm = Normalization.paper(lam)
    taus = np.linspace(0.0, 2.0 * math.pi, 129)
    verts = np.exp(1j * taus)
    path = continue_sheet(verts, principal_w(1.0, lam), lam)
    loop = integrate(path, norm)
    spacing = end_spacing(lam, norm)
    assert abs(loop[2] - 2.0 * spacing) < 1e-8


# ---------------------------------------------------------------------------
# conjugacy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lv", [0.3, 1.0, 3.0])
def test_conjugate_check(lv):
    lam = Lambda(lv)
    report = conjugate_check(lam, curve_samples(lam, 100, seed=2))
    assert report.max_residual < 1e-10


def _conjugate_residuals_per_sample(lam, samples):
    """conjugate_check's residuals, one sample at a time, the mapped point
    checked by CurvePoint."""
    norm, norm_recip = Normalization.paper(lam), Normalization.paper(lam.reciprocal)
    res = []
    for p in samples:
        mapped = CurvePoint(-p.z, 1j * p.w, lam.reciprocal)
        lhs = -1j * phi_components(p.z, p.w, norm)
        rhs = np.array([-1.0, -1.0, 1.0]) * phi_components(mapped.z, mapped.w, norm_recip)
        res.append(float(np.max(np.abs(lhs - rhs))) / max(float(np.max(np.abs(lhs))), 1e-300))
    return np.array(res)


@pytest.mark.parametrize("lv", [1e-6, 0.3, 1.0, 3.0, 1e6])
def test_conjugate_check_matches_the_per_sample_loop(lv):
    lam = Lambda(lv)
    samples = curve_samples(lam, 60, seed=5)
    report = conjugate_check(lam, samples)
    assert np.array_equal(report.residuals, _conjugate_residuals_per_sample(lam, samples))
    # bare z values are taken on the principal root's sheet
    bare = [p.z for p in samples[:5]]
    lifted = [CurvePoint(z, principal_w(z, lam), lam) for z in bare]
    assert np.array_equal(conjugate_check(lam, bare).residuals,
                          _conjugate_residuals_per_sample(lam, lifted))


def test_conjugate_check_refuses_a_sample_mapped_off_the_curve():
    # a point of the lam = 2 curve is no point of the lam = 0.5 curve, and
    # its image is off the reciprocal curve
    lam = Lambda(0.5)
    samples = curve_samples(lam, 5, seed=6)
    samples.insert(3, curve_samples(Lambda(2.0), 1, seed=6)[0])
    with pytest.raises(ValueError, match=r"^lam = 0\.5: sample 3, .* off the curve for lam = 2\.0"):
        conjugate_check(lam, samples)


def test_conjugate_check_of_no_samples():
    report = conjugate_check(Lambda(0.5), [])
    assert report.residuals.shape == (0,) and report.max_residual == 0.0


def conjugate_branch_points(lam) -> tuple:
    """Images of the finite branch points under z -> -z: the branch set of
    the reciprocal-parameter curve."""
    mapped = tuple(-b for b in branch_points(lam).finite)
    expected = branch_points(lam.reciprocal).finite
    return mapped, expected


def test_conjugate_maps_branch_points():
    mapped, expected = conjugate_branch_points(Lambda(0.4))
    assert sorted(m.real for m in mapped) == pytest.approx(
        sorted(e.real for e in expected))


def test_self_conjugate_at_lambda_one():
    lam = Lambda(1.0)
    assert branch_points(lam).finite == branch_points(lam.reciprocal).finite
    report = conjugate_check(lam, curve_samples(lam, 20, seed=4))
    assert report.max_residual < 1e-10


# ---------------------------------------------------------------------------
# plane-limit experiment
# ---------------------------------------------------------------------------

def test_plane_limit_trends():
    report = plane_limit_experiment([0.1, 0.03, 0.01])
    # the ball-clipped piece flattens onto a single plane
    assert report.is_strictly_decreasing()
    assert report.plane_deviations[-1] < 0.2
    # with the ends pinned 2 pi apart, the mean radius of the narrowest
    # grid ring shrinks along the schedule (0.855, 0.645, 0.527)
    assert all(b < a for a, b in zip(report.waist_radii[:-1], report.waist_radii[1:]))


def test_plane_limit_validation():
    with pytest.raises(ValueError):
        plane_limit_experiment([2.0])


def test_homothety_collapse():
    # positions scaled by t -> 0 converge to the plane x3 = 0 on any slab clip
    lam = Lambda(0.5)
    norm = Normalization.raw(lam)
    pts = np.array([sp.position for sp in immerse(
        lam, norm, _annulus_targets(40, seed=9))])
    for t in (1e-2, 1e-4):
        assert np.max(np.abs((t * pts)[:, 2])) < t * np.max(np.abs(pts[:, 2])) + 1e-15
    assert np.max(np.abs((1e-6 * pts)[:, 2])) < 1e-4
