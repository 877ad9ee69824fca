import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemann_examples.curve import (
    BranchDeparture,
    CurvePoint,
    Lambda,
    branch_points,
    continue_sheet,
    curve_rhs,
    delta_branch,
    principal_w,
)
from riemann_examples.errors import BranchTooClose


def circle(center, radius, n=96, sign=+1.0):
    taus = np.linspace(0.0, sign * 2.0 * math.pi, n + 1)
    return center + radius * np.exp(1j * taus)


def test_rhs_values():
    assert curve_rhs(2.0, 2.0) == pytest.approx(0.0)
    assert curve_rhs(1.0, 2.0) == pytest.approx(-1.5)
    assert curve_rhs(1j, 1.0) == pytest.approx(-2j)


def test_branch_points():
    for lv, expected in [(2.0, {0.0, 2.0, -0.5}), (1.0, {0.0, 1.0, -1.0}),
                         (0.1, {0.0, 0.1, -10.0})]:
        bp = branch_points(lv)
        assert bp.at_infinity
        assert {complex(b) for b in bp.finite} == {complex(e) for e in expected}
        # each gap is the distance to the nearest other finite branch point
        for b, gap in zip(bp.finite, bp.gaps):
            assert gap == min(abs(b - o) for o in bp.finite if o != b)


def test_lambda_validation():
    with pytest.raises(ValueError):
        Lambda(0.0)
    with pytest.raises(ValueError):
        Lambda(-1.0)
    with pytest.raises(ValueError):
        Lambda(float("inf"))


def test_curve_point_validation():
    lam = Lambda(2.0)
    CurvePoint(1.0, principal_w(1.0, lam), lam)
    with pytest.raises(ValueError):
        CurvePoint(1.0, 1.0 + 1.0j, lam)


def test_loop_enclosing_nothing_is_single_valued():
    lam = Lambda(2.0)
    verts = circle(5.0 + 2.0j, 0.5)
    w0 = principal_w(verts[0], lam)
    path = continue_sheet(verts, w0, lam)
    assert abs(path.w_values[-1] - w0) < 1e-9 * (1.0 + abs(w0))


@pytest.mark.parametrize("lv", [0.5, 1.0, 2.0])
def test_loop_around_one_branch_point_flips_sheet(lv):
    lam = Lambda(lv)
    verts = circle(lv, 0.25 * min(lv, abs(lv + 1.0 / lv), abs(lv - 0) or 1.0))
    w0 = principal_w(verts[0], lam)
    path = continue_sheet(verts, w0, lam)
    assert abs(path.w_values[-1] + w0) < 1e-9 * (1.0 + abs(w0))


def test_loop_around_two_branch_points_closes():
    # the translation cycle: circle about -1/(2 lam) enclosing 0 and -1/lam
    lv = 2.0
    lam = Lambda(lv)
    verts = circle(-0.5 / lv, 0.5 * (lv + 1.0 / lv), n=128)
    w0 = principal_w(verts[0], lam)
    path = continue_sheet(verts, w0, lam)
    assert abs(path.w_values[-1] - w0) < 1e-9 * (1.0 + abs(w0))


def _winding_loop(lam: Lambda, winding: dict, n=128):
    """Composite loop with prescribed winding about each finite branch point:
    a large circle around everything plus reversed small circles."""
    lv = lam.value
    big_r = 2.0 * (lv + 1.0 / lv)
    small = {b: 0.25 * min(abs(b - o) for o in branch_points(lam).finite if o != b)
             for b in branch_points(lam).finite}
    verts = [complex(big_r)]
    n_big = winding.get("all", 0)
    for _ in range(n_big):
        verts += list(circle(0.0, big_r, n)[1:])
    for b in branch_points(lam).finite:
        k = winding.get(b, 0) - n_big
        if k == 0:
            continue
        r = small[b]
        entry = b + r if (b.real + r < big_r) else b - r
        bridge = np.linspace(verts[-1], entry, 64)[1:]
        # nudge the bridge off the real axis so it clears the other branches
        bridge = bridge + 0.35j * np.sin(np.linspace(0, math.pi, 63))
        verts += list(bridge)
        verts += list((circle(b, r, n, sign=+1.0 if k > 0 else -1.0))[1:] + 0.0)
        verts += list(bridge[::-1])
    verts.append(complex(big_r))
    return np.array(verts)


@pytest.mark.parametrize("subset", [
    (), (0.0,), ("lam",), ("recip",), (0.0, "lam"), (0.0, "recip"),
    ("lam", "recip"), (0.0, "lam", "recip"),
])
def test_sheet_flip_parity_matches_enclosed_branch_count(subset):
    lam = Lambda(2.0)
    b_lam = complex(lam.value)
    b_rec = complex(-1.0 / lam.value)
    name_to_pt = {0.0: 0.0 + 0.0j, "lam": b_lam, "recip": b_rec}
    winding = {name_to_pt[s]: 1 for s in subset}
    if len(subset) >= 2:
        winding["all"] = 1
    verts = _winding_loop(lam, winding)
    w0 = principal_w(verts[0], lam)
    path = continue_sheet(verts, w0, lam)
    flip = abs(path.w_values[-1] + w0) < abs(path.w_values[-1] - w0)
    assert flip == (len(subset) % 2 == 1)


def test_sheet_involution():
    lam = Lambda(0.7)
    verts = np.array([2.0, 1.5 + 1.0j, -0.5 + 2.0j, -2.0 + 0.5j])
    w0 = principal_w(verts[0], lam)
    p_plus = continue_sheet(verts, w0, lam)
    p_minus = continue_sheet(verts, -w0, lam)
    assert np.allclose(p_minus.w_values, -p_plus.w_values, rtol=0, atol=1e-12)


def test_refinement_stability():
    lam = Lambda(3.0)
    verts = np.array([1.0, 1.0 + 2.0j, -2.0 + 2.0j, -2.0 - 1.0j, 0.5 - 1.0j])
    halved = []
    for a, b in zip(verts[:-1], verts[1:]):
        halved += [a, 0.5 * (a + b)]
    halved.append(verts[-1])
    w0 = principal_w(verts[0], lam)
    w_coarse = continue_sheet(verts, w0, lam).w_values[-1]
    w_fine = continue_sheet(np.array(halved), w0, lam).w_values[-1]
    assert abs(w_fine - w_coarse) < 1e-9 * abs(w_coarse)


def test_branch_guard():
    lam = Lambda(1.0)
    verts = np.array([0.5, 1.0 + delta_branch(lam)[1] * 0.1])
    with pytest.raises(BranchTooClose):
        continue_sheet(verts, principal_w(0.5, lam), lam)


def test_continue_sheet_rejects_bad_seed():
    lam = Lambda(1.0)
    with pytest.raises(ValueError):
        continue_sheet([0.5, 0.6], 1.0 + 0.0j, lam)


def test_branch_departure_germ_is_on_curve():
    lam = Lambda(1.0)
    dep = BranchDeparture(1.0 + 0.0j, lam, sign=+1)
    for direction in (1.0, -1.0, 1j, np.exp(0.3j)):
        z = 1.0 + 1e-3 * direction
        w = dep.w_at(z)
        assert abs(w * w - curve_rhs(z, lam)) < 1e-12
    # opposite signs give opposite roots
    dep_m = BranchDeparture(1.0 + 0.0j, lam, sign=-1)
    z = 1.0 + 1e-3j
    assert abs(dep.w_at(z) + dep_m.w_at(z)) < 1e-15


@settings(max_examples=40, deadline=None)
@given(st.floats(0.2, 5.0), st.floats(0.3, 3.0), st.floats(-2.9, 2.9))
def test_principal_w_is_on_curve(lv, rho, ang):
    lam = Lambda(lv)
    z = rho * complex(math.cos(ang), math.sin(ang))
    w = principal_w(z, lam)
    assert abs(w * w - curve_rhs(z, lam)) <= 1e-10 * (1.0 + abs(z)) ** 3
