import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from riemann_examples.curve import Lambda, continue_sheet, principal_w
from riemann_examples.errors import SingularPoint
from riemann_examples.reference import (
    CATENOID_AXIS,
    ReferenceSurface,
    catenoid_integrand,
    catenoid_point,
    deviation_field,
    helicoid_integrand,
    helicoid_point,
)
from riemann_examples.weierstrass import path_integral, route_vertices


def _quadrature_reference(z, integrand, sign=1.0, lam=Lambda(20.0)):
    """Independent oracle: integrate the closed form's own Weierstrass data
    from 1 to z along a winding-0 route.  The routes run on the lam = 20
    curve, whose finite branch points 0, 20 and -0.05 lie outside the
    annulus 0.11 <= |z| <= 9.5 where the oracle is sampled."""
    verts = np.asarray(route_vertices(complex(z), lam), dtype=complex)
    # the curve root is irrelevant for single-valued reference data; a valid
    # sheeted path still drives the integrator
    path = continue_sheet(verts, principal_w(verts[0], lam), lam)
    return sign * path_integral(path, lambda zz, ww: integrand(zz)).real


def test_catenoid_base_point():
    assert np.allclose(catenoid_point(1.0 + 0.0j), 0.0)


def test_catenoid_waist_circle():
    for ang in (0.3, 1.2, 2.9, -2.0):
        assert catenoid_point(np.exp(1j * ang))[2] == pytest.approx(0.0, abs=1e-15)


def test_catenoid_at_minus_one():
    # antiderivative value cross-checked against quadrature along a route
    val = catenoid_point(-1.0 + 0.0j)
    assert np.allclose(val, [4.0, 0.0, 0.0], atol=1e-14)
    orc = _quadrature_reference(-1.0 + 1e-12j, catenoid_integrand)
    assert np.allclose(orc, val, atol=1e-8)


def test_catenoid_symmetry_about_waist():
    # points at |z| = r and 1/r sit at equal distance from the vertical axis
    # through (2, 0)
    for r, ang in [(2.0, 0.7), (3.5, -1.2), (1.3, 2.1)]:
        a = catenoid_point(r * np.exp(1j * ang)) - np.array([*CATENOID_AXIS, 0.0])
        b = catenoid_point(np.exp(1j * ang) / r) - np.array([*CATENOID_AXIS, 0.0])
        assert np.hypot(a[0], a[1]) == pytest.approx(np.hypot(b[0], b[1]), rel=1e-12)


def test_catenoid_singular_at_origin():
    with pytest.raises(SingularPoint):
        catenoid_point(0.0 + 0.0j)
    with pytest.raises(SingularPoint):
        helicoid_point(0.0 + 0.0j)


def test_helicoid_base_point_and_branch_shift():
    assert np.allclose(helicoid_point(1.0, 0), 0.0)
    shift = helicoid_point(1.0, 1) - helicoid_point(1.0, 0)
    assert np.allclose(shift, [0.0, 0.0, 4.0 * math.pi], atol=1e-14)


def test_helicoid_vertical_period_against_quadrature():
    # one positive circuit about the origin lifts the height by 4 pi
    lam = Lambda(2.0)
    taus = np.linspace(0.0, 2.0 * math.pi, 129)
    verts = np.exp(1j * taus)
    path = continue_sheet(verts, principal_w(1.0, lam), lam)
    loop = -path_integral(path, lambda z, w: helicoid_integrand(z) * -1.0).real
    # the helicoid is minus the real integral of its data
    loop = -loop
    assert np.allclose(loop, [0.0, 0.0, 4.0 * math.pi], atol=1e-10)


def test_helicoid_contains_horizontal_ray():
    for t in (0.2, 1.0, 3.7, 10.0):
        p = helicoid_point(complex(t), 0)
        assert p[0] == pytest.approx(0.0, abs=1e-15)
        assert p[2] == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.11, 9.5), st.floats(-3.1, 3.1))
@example(rho=2.0, ang=0.0)
def test_closed_forms_agree_with_quadrature(rho, ang):
    z = rho * complex(math.cos(ang), math.sin(ang))
    cat = catenoid_point(z)
    assert np.allclose(_quadrature_reference(z, catenoid_integrand), cat, atol=1e-8)
    # the helicoid block carries a leading minus sign
    hel = helicoid_point(z, 0)
    assert np.allclose(_quadrature_reference(z, helicoid_integrand, sign=-1.0),
                       hel, atol=1e-8)


def test_deviation_field_basic():
    zs = np.array([0.5 + 0.5j, 2.0 - 1.0j, -1.0 + 0.2j])
    exact = catenoid_point(zs)
    assert deviation_field(zs, exact, "catenoid") == 0.0
    # order free
    perm = [2, 0, 1]
    assert deviation_field(zs[perm], exact[perm], "catenoid") == 0.0
    shifted = exact + np.array([0.0, 0.0, 0.25])
    assert deviation_field(zs, shifted, "catenoid") == pytest.approx(0.25)


def test_deviation_field_length_mismatch():
    zs = np.array([1.0 + 0.0j, 2.0 + 0.0j])
    with pytest.raises(ValueError):
        deviation_field(zs, np.zeros((3, 3)), "catenoid")


def test_reference_surface_type():
    with pytest.raises(ValueError):
        ReferenceSurface("catenoid", branch_of_log=2)
    h = ReferenceSurface("helicoid", branch_of_log=1)
    assert np.allclose(h.point(1.0 + 0.0j), [0.0, 0.0, 4.0 * math.pi])
