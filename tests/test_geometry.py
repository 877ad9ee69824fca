"""The immersed surface checked from its own positions.

Every normal and curvature the package reports comes from a formula in the
Weierstrass data.  These checks take only positions from the package
(weierstrass._immerse) and differentiate them in z = u + i v by fourth-order
central differences on a 5 x 5 stencil; the fundamental forms of those
derivatives give the normal, the mean curvature H and the Gauss curvature K.
"""

import numpy as np
import pytest

from riemann_examples.analysis import abs_gauss_curvature
from riemann_examples.curve import Lambda
from riemann_examples.weierstrass import Normalization, _immerse, unit_normal

#: Fourth-order central weights of the first and second derivative at the
#: offsets -2h, ..., 2h.
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_OFFSETS = np.arange(-2, 3)


def _targets(lv, n=30):
    """n points of the upper half-plane, |z| log-uniform over the branch
    moduli and a decade beyond, at least 0.05 rad off the real axis: their
    routes cross no cut, so each stencil lies on one analytic branch."""
    rng = np.random.default_rng(17)
    m = max(lv, 1.0 / lv)
    r = np.exp(rng.uniform(np.log(0.1 / m), np.log(10.0 * m), n))
    return r * np.exp(1j * rng.uniform(0.05, np.pi - 0.05, n))


def _finite_difference_geometry(lam, norm, z):
    """The unit normal, H and K at the points z, from _immerse positions on a
    5 x 5 stencil of step h = 1e-3 min(|z|, distance to a branch point)."""
    lv = lam.value
    h = 1e-3 * np.min(np.abs(z[:, None] - np.array([0.0, lv, -1.0 / lv])), axis=1)[:, None]
    stencil = z[:, None, None] + h[:, :, None] * (_OFFSETS[:, None] + 1j * _OFFSETS)
    x = _immerse(lam, norm, stencil.ravel())[0].reshape(len(z), 5, 5, 3)
    x_u, x_v = (np.einsum("a,naj->nj", _D1, line) / h for line in (x[:, :, 2], x[:, 2]))
    x_uu, x_vv = (np.einsum("a,naj->nj", _D2, line) / h**2 for line in (x[:, :, 2], x[:, 2]))
    x_uv = np.einsum("a,b,nabj->nj", _D1, _D1, x) / h**2
    e, f, g = (np.sum(p * q, axis=1) for p, q in ((x_u, x_u), (x_u, x_v), (x_v, x_v)))
    normal = np.cross(x_u, x_v)
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    ll, mm, nn = (np.sum(d * normal, axis=1) for d in (x_uu, x_uv, x_vv))
    det = e * g - f * f
    return normal, (e * nn - 2.0 * f * mm + g * ll) / (2.0 * det), (ll * nn - mm * mm) / det


@pytest.mark.parametrize("lv", [1e-3, 0.1, 0.5, 2.0, 10.0, 1e3])
def test_positions_give_the_gauss_map_a_minimal_surface_and_a_quarter_of_abs_k(lv):
    # the reported |K| is that of the surface x/2, four times the curvature
    # of the immersed positions (analysis)
    lam = Lambda(lv)
    norm = Normalization.paper(lam)
    z = _targets(lv)
    normal, mean, gauss = _finite_difference_geometry(lam, norm, z)
    expect = unit_normal(z)
    miss = np.minimum(np.linalg.norm(normal - expect, axis=1),
                      np.linalg.norm(normal + expect, axis=1))
    assert np.max(miss) <= 1e-8
    assert np.max(np.abs(mean) / np.sqrt(np.abs(gauss))) <= 1e-5
    ratio = -gauss / abs_gauss_curvature(z, lam, norm)
    assert np.max(np.abs(ratio - 0.25)) <= 1e-6
