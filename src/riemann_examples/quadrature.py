"""Reference quadrature along sheeted paths of the cover.

Integration is adaptive Gauss-Kronrod 7/15 on sheeted polylines, with w
at each node chosen as the root nearest to the linear interpolation of the
continued end roots.  Square-root singular endpoints (paths that start or
end at a finite branch point, which happens for every path at lam = 1
where the base point is a branch point) are handled by the substitution
u^2 = z - z_branch.  The path's own roots say which ends these are: an end
with w = 0, which must be a branch point by curve.at_branch, the package's
one snap.

The immersion itself is in closed form (weierstrass); path_integral remains
public API, the reference the tests check that closed form against, and the
integrator of the limit decompositions' correction integrands, which are
not Phi.
"""

from __future__ import annotations

import cmath
import heapq
import math

import numpy as np

from .curve import (
    Lambda,
    SheetedPath,
    _nearest_root,
    at_branch,
    branch_points,
    curve_rhs,
)
from .errors import QuadratureFailure

#: Default absolute quadrature tolerance per unit of path length.
TOL_PER_UNIT = 1e-10

#: Panel cap of the adaptive refinement, per path segment.
MAX_PANELS = 1 << 16


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 panels
# ---------------------------------------------------------------------------

_K15_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


def _gk_panel(f, a: float, b: float):
    h = 0.5 * (b - a)
    x = 0.5 * (a + b) + h * _K15_NODES
    y = np.asarray(f(x))
    if not np.all(np.isfinite(y)):
        raise QuadratureFailure(f"non-finite integrand values on [{a}, {b}]")
    k = h * (y @ _K15_WEIGHTS)
    g = h * (y[..., 1::2] @ _G7_WEIGHTS)
    return k, float(np.max(np.abs(k - g)))


def _adaptive_vec(f, a: float, b: float, tol: float):
    """Adaptive bisection of GK panels for a vector-valued complex integrand."""
    val, err = _gk_panel(f, a, b)
    if err <= tol:
        return val
    counter = 0
    panels = [(-err, a, counter, b, val)]
    total_err = err
    n_panels = 1
    while total_err > tol:
        if n_panels >= MAX_PANELS:
            raise QuadratureFailure(
                f"tolerance {tol:.2e} not reached with {n_panels} panels "
                f"(error estimate {total_err:.2e})"
            )
        neg_err, a0, _, b0, _ = heapq.heappop(panels)
        m = 0.5 * (a0 + b0)
        v1, e1 = _gk_panel(f, a0, m)
        v2, e2 = _gk_panel(f, m, b0)
        counter += 1
        heapq.heappush(panels, (-e1, a0, counter, m, v1))
        counter += 1
        heapq.heappush(panels, (-e2, m, counter, b0, v2))
        total_err += e1 + e2 + neg_err
        n_panels += 1
    ordered = sorted(panels, key=lambda p: p[1])
    return np.sum([p[4] for p in ordered], axis=0)


def _nearest_roots(roots, refs):
    """Vectorized choice between +-roots, whichever is closer to refs."""
    flip = np.abs(roots - refs) > np.abs(roots + refs)
    return np.where(flip, -roots, roots)


# ---------------------------------------------------------------------------
# path integrals
# ---------------------------------------------------------------------------

def _segment_integral(fn, za, wa, zb, wb, lam: Lambda, tol: float):
    dz = zb - za
    dw = wb - wa

    def f(t):
        z = za + t * dz
        ref = wa + t * dw
        w = _nearest_roots(np.sqrt(curve_rhs(z, lam).astype(complex)), ref)
        return fn(z, w) * dz

    return _adaptive_vec(f, 0.0, 1.0, tol)


def _rhs_near_branch(b, lam: Lambda):
    """The curve polynomial as a function of v = z - b, for b at a finite
    branch point p.  Its factor z - p is taken as (b - p) + v: forming z
    first would cancel the digits of a v much smaller than b."""
    p0, p1, p2 = sorted(branch_points(lam).finite, key=lambda q: abs(b - q))
    return lambda v: ((b - p0) + v) * (b + v - p1) * (b + v - p2)


def _branch_w_table(direction, u_max, w_far, rhs):
    """Geometric table of continued w values along z = b + u^2 * direction,
    halving u 60 times from the regular end down toward the branch point b;
    rhs is the curve polynomial as a function of z - b."""
    us = u_max * 0.5 ** np.arange(61)
    ws = np.empty(len(us), dtype=complex)
    ws[0] = w_far
    for k in range(1, len(us)):
        ws[k] = _nearest_root(ws[k - 1], cmath.sqrt(rhs(us[k] ** 2 * direction)))
    return us, ws


def _branch_segment_integral(fn, b, z_far, w_far, lam: Lambda, tol: float):
    """Integral of fn(z, w) dz from the branch point b to z_far, via u^2 = z - b."""
    span = z_far - b
    length = abs(span)
    direction = span / length
    u_max = math.sqrt(length)
    rhs = _rhs_near_branch(b, lam)
    us, ws = _branch_w_table(direction, u_max, w_far, rhs)

    def f(u):
        u = np.asarray(u)
        v = (u * u) * direction
        z = b + v
        roots = np.sqrt(rhs(v).astype(complex))
        idx = np.clip(np.floor(np.log2(u_max / np.maximum(u, 1e-300))).astype(int),
                      0, len(us) - 1)
        refs = ws[idx] * (u / us[idx])
        w = _nearest_roots(roots, refs)
        return fn(z, w) * (2.0 * u * direction)

    return _adaptive_vec(f, 0.0, u_max, tol)


def _singular_end(z, w, lam: Lambda, which: str) -> bool:
    """Whether a path end is singular: w = 0 there, which must be at a branch
    point by at_branch (else ValueError naming the end)."""
    if w != 0:
        return False
    if not at_branch(z, lam):
        raise ValueError(f"path {which} has w = 0 but is not at a branch point "
                         f"(z = {z}, lam = {lam.value!r})")
    return True


def path_integral(path: SheetedPath, fn):
    """Contour integral of fn(z, w) dz along a sheeted path.

    fn must be vectorized: given equal-length arrays z, w it returns an array
    of shape (..., len(z)).  A first or last vertex with w = 0 is a finite
    branch point (_singular_end), integrated by the square-root substitution.
    """
    verts = path.vertices
    ws = path.w_values
    lam = path.lam
    n = len(verts)
    total = np.zeros(3, dtype=complex)
    if n < 2:
        return total
    i0, i1 = 0, n - 1
    if _singular_end(verts[0], ws[0], lam, "start"):
        tol = TOL_PER_UNIT * max(abs(verts[1] - verts[0]), 1e-6)
        total += _branch_segment_integral(fn, verts[0], verts[1], ws[1], lam, tol)
        i0 = 1
    if _singular_end(verts[-1], ws[-1], lam, "end"):
        tol = TOL_PER_UNIT * max(abs(verts[-1] - verts[-2]), 1e-6)
        total -= _branch_segment_integral(fn, verts[-1], verts[-2], ws[-2], lam, tol)
        i1 = n - 2
    for i in range(i0, i1):
        za, zb = verts[i], verts[i + 1]
        if za == zb:
            continue
        tol = TOL_PER_UNIT * abs(zb - za)
        total += _segment_integral(fn, za, ws[i], zb, ws[i + 1], lam, tol)
    return total
