import math
import sys

import numpy as np
import pytest

from riemann_examples import Lambda, Normalization
from riemann_examples.curve import CurvePoint, principal_w
from riemann_examples.weierstrass import _crossings, _lam_terms, _ray, immerse_grid


def curve_samples(lam: Lambda, n: int, seed: int = 0, *, both_sheets: bool = True):
    """Random curve points clear of the branch set, the real axis, and the
    unit circle (so transformed partners stay routable at lam = 1)."""
    rng = np.random.default_rng(seed)
    lv = lam.value
    out = []
    while len(out) < n:
        z = math.exp(rng.uniform(-1.6, 1.6)) * np.exp(1j * rng.uniform(-2.9, 2.9))
        if min(abs(z - b) for b in (0.0, lv, -1.0 / lv)) < 0.05:
            continue
        if abs(z.imag) < 0.02 or abs(abs(z) - 1.0) < 0.03:
            continue
        w = principal_w(z, lam)
        if both_sheets and rng.random() < 0.5:
            w = -w
        out.append(CurvePoint(z, w, lam))
    return out


def continue_edges(za, wa, zb, lam, norm, where):
    """Continue the lifts (za, wa) along the straight edges to zb in closed
    form, from one _crossings and one _ray call: the roots at zb and the real
    integrals of Phi dz along the edges.  Each wa picks the nearer of the
    roots +-W at za; the edge keeps that sign up to its flip, and a crossing
    of the cut (0, lam) adds the jump J = 2 Re Psi(lam)."""
    za, wa, zb = (np.atleast_1d(np.asarray(v, dtype=complex)) for v in (za, wa, zb))
    flip, cut = _crossings(za, zb, lam, where)
    roots, psi = _ray(np.concatenate((za, zb)), lam, norm)
    n = len(za)
    sign = np.where(np.abs(wa - roots[:n]) <= np.abs(wa + roots[:n]), 1.0, -1.0)
    vals = (flip[:, None] * psi[n:] - psi[:n]).real
    vals[cut] += _lam_terms(norm)[1]
    return sign * flip * roots[n:], sign[:, None] * vals


@pytest.fixture(scope="session")
def grids_lambda1():
    lam = Lambda(1.0)
    norm = Normalization.paper(lam)
    return [immerse_grid(lam, norm, r_min=0.1, r_max=10.0, n_rad=24, n_ang=48,
                         sheet_sign=s, closed=True) for s in (+1, -1)]


@pytest.fixture
def refuse_quadrature(monkeypatch):
    """A function that makes the reference quadrature's panels and the scalar
    continuation raise, at every binding in the package's modules."""
    from riemann_examples import quadrature

    def refuse(*args, **kwargs):
        raise AssertionError("quadrature or scalar continuation reached")

    def apply():
        monkeypatch.setattr(quadrature, "_gk_panel", refuse)
        for name, mod in list(sys.modules.items()):
            if name.startswith("riemann_examples") and hasattr(mod, "continue_sheet"):
                monkeypatch.setattr(mod, "continue_sheet", refuse)
    return apply
