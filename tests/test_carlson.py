"""Carlson's R_F and R_D over small and large batches, and the branch guards.

curve._carlson runs one body, _carlson_body, once over the arrays of a
batch, or once per point over Python complex numbers for batches of at most
_SMALL_BATCH points.  The array path must stay bitwise what it was before
the split (_frozen_carlson below); the per-point path agrees with it to a
few ulp.  _branch_guards finds near_branch and at_branch in one pass.
"""

import warnings

import numpy as np
import pytest

from riemann_examples import curve, weierstrass
from riemann_examples.curve import (SNAP_RATIO, Lambda, _branch_guards, branch_points,
                                    delta_branch)
from riemann_examples.errors import BranchTooClose, PathBlocked
from riemann_examples.weierstrass import Normalization, immerse


def _frozen_carlson(x, y, z):
    """_carlson as it was before its per-point path, kept verbatim."""
    x, y, z = np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in (x, y, z)))
    tail, scale, mf = np.zeros(x.shape, dtype=complex), 1.0, (x + y + z) / 3.0
    dev = np.maximum(np.maximum(np.abs(x - mf), np.abs(y - mf)), np.abs(z - mf))
    for _ in range(100):
        if np.all(dev <= 1e-3 * np.abs(mf)):
            break
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lm = sx * sy + sy * sz + sz * sx
        tail += scale / (sz * (z + lm))
        scale *= 0.25
        x, y, z = 0.25 * (x + lm), 0.25 * (y + lm), 0.25 * (z + lm)
        mf, dev = (x + y + z) / 3.0, 0.25 * dev
    a, b = 1.0 - x / mf, 1.0 - y / mf
    c = -a - b
    e2, e3 = a * b - c * c, a * b * c
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(mf)
    md = (x + y + 3.0 * z) / 5.0
    a, b = 1.0 - x / md, 1.0 - y / md
    c = -(a + b) / 3.0
    e2, e3 = a * b - 6.0 * c * c, (3.0 * a * b - 8.0 * c * c) * c
    e4, e5 = 3.0 * (a * b - c * c) * c * c, a * b * c ** 3
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return rf, scale * series / (md * np.sqrt(md)) + 3.0 * tail


def _frozen_guards(z, lam):
    """near_branch and at_branch as they were before the one-pass guard."""
    bp = branch_points(lam)
    near, at = np.zeros(np.shape(z), dtype=bool), np.zeros(np.shape(z), dtype=bool)
    for b, delta in zip(bp.finite, delta_branch(lam)):
        near |= np.abs(z - b) < delta
    for b, gap in zip(bp.finite, bp.gaps):
        at |= np.abs(z - b) <= SNAP_RATIO * gap
    return near, at


def _arguments(z, lv):
    """_ray's arguments of _carlson at the points z."""
    return z - lv, z + 1.0 / lv, z


def _hard_points(lv):
    """_SMALL_BATCH points: on both cuts and on (-1/lam, 0) with imaginary
    part +0.0 and -0.0, the branch points lam and -1/lam (where one argument
    is exactly 0), and |z| = 1e8 and 1e-8, made as _ray makes its points:
    -0.0 becomes +0.0, the limit from above."""
    m = 1.0 / lv
    z = [complex(0.5 * lv, 0.0), complex(0.5 * lv, -0.0), complex(-2.0 * m, 0.0),
         complex(-2.0 * m, -0.0), complex(-0.5 * m, 0.0), complex(-0.5 * m, -0.0),
         complex(lv, 0.0), complex(-m, 0.0),
         1e8, complex(-1e8, 0.0), complex(-1e8, -0.0), 1e8 * np.exp(2j),
         1e-8, complex(-1e-8, -0.0), 1e-8j, 1e-8 * np.exp(-2j)]
    return np.array(z) + 0.0


@pytest.mark.parametrize("lv", [1e-6, 1.0 - 1e-9, 1.0, 0.35, 4.851, 1e6])
def test_small_batches_match_the_array_path(lv):
    # the per-point path against the array body on the same batch, as one
    # batch of _SMALL_BATCH points, point by point, and on random batches
    # over |z| in [1e-8, 1e8]; warnings are errors and no ZeroDivisionError
    # or OverflowError may escape where the array path returns a value
    rng = np.random.default_rng(27)
    rand = np.exp(rng.uniform(-18.0, 18.0, (8, 9)) + 1j * rng.uniform(-np.pi, np.pi, (8, 9)))
    batches = [_hard_points(lv)] + [z[None] for z in _hard_points(lv)] + list(rand)
    assert len(batches[0]) == curve._SMALL_BATCH
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in batches:
            args = _arguments(z, lv)
            want = curve._carlson_body(*args, np)
            got = curve._carlson(*args)
            for g, w in zip(got, want):
                assert g.shape == w.shape and np.all(np.isfinite(w))
                assert np.all(np.abs(g - w) <= 1e-15 * np.abs(w)), (lv, z)


@pytest.mark.parametrize("lv", [1e-6, 0.35, 1.0, 4.851, 1e6])
def test_large_batches_are_the_frozen_carlson_bitwise(monkeypatch, lv):
    # above _SMALL_BATCH points _carlson is one array body, bitwise the
    # parent's; at or below it, one body per point
    rng = np.random.default_rng(1)
    calls = []
    body = curve._carlson_body

    def counted(x, y, z, xp):
        calls.append(np.ndim(x))
        return body(x, y, z, xp)

    monkeypatch.setattr(curve, "_carlson_body", counted)
    for n in (curve._SMALL_BATCH + 1, 64, 1000):
        z = np.exp(rng.uniform(-18.0, 18.0, n) + 1j * rng.uniform(-np.pi, np.pi, n))
        z[:4] = [lv, -1.0 / lv, 0.5 * lv, -2.0 / lv]
        got, want = curve._carlson(*_arguments(z, lv)), _frozen_carlson(*_arguments(z, lv))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert calls == [1, 1, 1]
    calls.clear()
    curve._carlson(*_arguments(_hard_points(lv), lv))
    assert calls == [0] * curve._SMALL_BATCH


@pytest.mark.parametrize("lv", [1e-6, 0.5, 1.0, 2.0, 1e6])
def test_one_guard_pass_is_near_and_not_at_branch(lv):
    # at 0.5, 1 and 2 times the guard and the snap radius of each branch
    # point, in 8 directions: _branch_guards gives the masks of the separate
    # passes, and immerse's target check and the edge end check refuse
    # exactly the points in a guard disk and not at a branch point
    lam = Lambda(lv)
    bp = branch_points(lam)
    radii = [f * r for b, gap, delta in zip(bp.finite, bp.gaps, delta_branch(lam))
             for r in (delta, SNAP_RATIO * gap) for f in (0.5, 1.0, 2.0)]
    turns = np.exp(0.25j * np.pi * np.arange(8))
    z = (np.repeat(bp.finite, 6)[:, None] + np.array(radii)[:, None] * turns).ravel()
    near, at = _branch_guards(z, lam)
    want_near, want_at = _frozen_guards(z, lam)
    assert np.array_equal(near, want_near) and np.array_equal(at, want_at)
    blocked = near & ~at
    assert blocked.any() and (~blocked).any() and at.any()
    for zk, bad in zip(z, blocked):
        if bad:
            with pytest.raises(PathBlocked):
                weierstrass._sweep_radii(np.array([zk]), lam, 0)
            with pytest.raises(BranchTooClose):
                weierstrass._crossings(np.array([zk + 1.0]), np.array([zk]), lam, str)
        else:
            weierstrass._sweep_radii(np.array([zk]), lam, 0)
            weierstrass._crossings(np.array([zk + 1.0]), np.array([zk]), lam, str)


@pytest.mark.parametrize("n", [1, 20])
@pytest.mark.parametrize("bad", [complex(np.inf, 0.0), complex(np.nan, 1.0), 1e300 + 1e300j],
                         ids=["inf", "nan", "huge"])
def test_targets_without_a_finite_curve_polynomial_are_refused(monkeypatch, n, bad):
    # refused by name before anything is evaluated, without a warning
    lam = Lambda(0.5)
    targets = [0.3 + 0.1j * k for k in range(1, n + 1)]
    targets[n // 3] = bad
    monkeypatch.setattr(weierstrass, "_carlson", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            immerse(lam, Normalization.paper(lam), targets)
    assert str(err.value) == (f"targets need a finite curve polynomial, not target {bad} "
                              f"(lam = 0.5)")


@pytest.mark.parametrize("bad", [complex(np.nan, 1.0), 1e300 + 1e300j], ids=["nan", "huge"])
def test_cycles_through_points_without_a_finite_curve_polynomial_are_refused(monkeypatch, bad):
    lam = Lambda(0.5)
    monkeypatch.setattr(weierstrass, "_carlson", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            weierstrass.cycle_real_period([2.0 + 1.0j, bad, 2.0 - 1.0j, 2.0 + 1.0j], lam,
                                          Normalization.paper(lam))
    assert str(err.value) == (f"cycle points need a finite curve polynomial, not cycle point "
                              f"{bad} (lam = 0.5)")
