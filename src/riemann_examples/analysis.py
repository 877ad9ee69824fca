"""Curvature, symmetry, and foliation analysis of the immersed family.

The closed-form curvature of the family with scale s is

    |K| = (16 / s^2) |z - lam| |z + 1/lam| / ( |z| (|z| + 1/|z|)^4 ),

whose supremum is attained only at z = +-i: lam + 1/lam on the raw family,
exactly 1 + min(lam, 1/lam)^2 on the paper scale, below the universal
bound 4 of the normalized family.

Symmetry checks verify the three isometry lifts of the cover at the level of
path integrals, each anchored at a fixed point of the respective symmetry:

    mirror     (z, w) -> (conj z, conj w)      ambient diag(+1, -1, +1)
    rotation   (z, w) -> (-1/z, -w/z^2)        ambient diag(-1, +1, -1)
    line flip  (z, w) -> (conj z, -conj w)     ambient diag(-1, +1, -1)

Horizontal foliation slices are extracted from grid immersions by solving
x3 = c on every radial and angular grid edge that crosses the height, by a
safeguarded Newton iteration with the exact derivative dx3/dt = Re(Phi3 dz)
(linear interpolation is far too coarse for the circle-fit tolerances),
then fitted by circles or lines.  The crossings of all heights and both
sheets step in lockstep: each Newton round continues and integrates every
unresolved crossing at once, carrying W and Psi at its iterates over rounds
(weierstrass._continue_edges); check_symmetries immerses its lifts at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curve import CurvePoint, Lambda, as_lambda, principal_w
from .errors import (InsufficientSlicePoints, QuadratureFailure, RiemannFamilyError,
                     SingularPoint)
from .weierstrass import (
    Normalization,
    _continue_edges,
    _edge_locator,
    immerse,
    normalization_scale,
    period_vectors,
    radial_edge_alignment,
    sheet_connection,
)

# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def abs_gauss_curvature(z, lam, norm: Normalization):
    """Closed-form |K| at parameter z; vectorized over z."""
    lam = as_lambda(lam)
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise SingularPoint("curvature is evaluated away from the puncture z = 0")
    s = normalization_scale(norm)
    # a 0-d z is evaluated as a 1-element array, so that abs is numpy's
    # absolute and not the complex scalar's own
    z1, lv = np.atleast_1d(z), lam.value
    az = abs(z1)
    out = 16.0 / (s * s) * (abs(z1 - lv) * abs(z1 + 1.0 / lv)) / (az * (az + 1.0 / az) ** 4)
    return float(out[0]) if z.ndim == 0 else out


def max_abs_curvature(lam, norm: Normalization) -> float:
    """The supremum of |K|, |K(+-i)| = (lam + 1/lam) / s^2, attained only at z = +-i.

    At |z| = r the angular maximum of |z - lam| |z + 1/lam| is
    (1 + r^2)(lam + 1/lam) / 2, at cos(theta) = (1/lam - lam)(r^2 - 1) / (4 r)
    (0 at r = 1), so |K| <= (8 / s^2)(lam + 1/lam) r^3 / (1 + r^2)^3, largest
    at r = 1.  On the paper scale the supremum is 1 + min(lam, 1/lam)^2.
    """
    return abs_gauss_curvature(1j, lam, norm)


def general_curvature(g_value, g_derivative, f_value) -> float:
    """|K| of arbitrary surface data (g, f dz): (4 |g'| / (|f| (1+|g|^2)^2))^2."""
    if f_value == 0:
        raise ZeroDivisionError("curvature formula needs f != 0")
    g2 = 1.0 + abs(g_value) ** 2
    return (4.0 * abs(g_derivative) / (abs(f_value) * g2 * g2)) ** 2


@dataclass(frozen=True)
class CurvatureGrid:
    r_min: float = 1e-3
    r_max: float = 1e3
    n_rad: int = 512
    n_ang: int = 512


@dataclass(frozen=True)
class CurvatureBoundReport:
    lam: Lambda
    max_abs_k: float
    argmax: complex
    refined_max: float
    refined_argmax: complex
    argmax_locus: str


def verify_curvature_bound(lam, grid: CurvatureGrid | None = None) -> CurvatureBoundReport:
    """Grid maximum of |K| on the normalized family over the large annulus,
    checked against the closed-form supremum max_abs_curvature.

    Every node z = r e^(i theta) is evaluated in real polar arithmetic: by
    the law of cosines |z - lam|^2 = r^2 + lam^2 - 2 lam r cos(theta) and
    |z + 1/lam|^2 = r^2 + 1/lam^2 + (2 r / lam) cos(theta), so |K|^2 is
    proportional to their product times (1 / (r (r + 1/r)^4))^2, with no
    square root and no complex value; cos is even, so the ring maxima need
    only the columns theta in [-pi, 0].  The rings whose maximum lies within
    1e-12 (relative) of the largest are then re-evaluated exactly by
    abs_gauss_curvature on the complex nodes, and max_abs_k and argmax (the
    first maximal node in grid order) are taken there.  Rounding moves the
    polar values by far less than 1e-12 near the maximum, so this equals the
    exact evaluation of the whole grid.

    max_abs_k and argmax are the grid's; refined_max is the supremum and
    refined_argmax the one of +-i in the grid argmax's half-plane.  Raises
    RiemannFamilyError if the grid maximum exceeds the supremum by more than
    1e-12 relative, or exceeds 4.
    """
    lam = as_lambda(lam)
    grid = grid or CurvatureGrid()
    norm = Normalization.paper(lam)
    lv = lam.value
    logr = np.linspace(math.log(grid.r_min), math.log(grid.r_max), grid.n_rad)
    theta = np.linspace(-math.pi, math.pi, grid.n_ang, endpoint=False)
    r, cos = np.exp(logr), np.cos(theta[:grid.n_ang // 2 + 1])
    rc = r[:, None]
    pq = rc * rc + lv * lv - (2.0 * lv * rc) * cos            # |z - lam|^2
    pq *= rc * rc + 1.0 / (lv * lv) + (2.0 * rc / lv) * cos   # times |z + 1/lam|^2
    h = 1.0 / (r * (r + 1.0 / r) ** 4)
    ring_max = pq.max(axis=1) * (h * h)
    rows = np.flatnonzero(ring_max >= ring_max.max() * (1.0 - 1e-12))
    z = np.exp(logr[rows, None] + 1j * theta[None, :])
    k = abs_gauss_curvature(z, lam, norm)
    idx = np.unravel_index(np.argmax(k), k.shape)
    zmax = complex(z[idx])
    kmax = float(k[idx])
    sup = max_abs_curvature(lam, norm)
    if kmax > min(sup * (1.0 + 1e-12), 4.0):
        raise RiemannFamilyError(
            f"lam = {lam.value!r}: grid maximum |K| = {kmax!r} at z = {zmax} exceeds "
            f"the closed-form supremum {sup!r} (or the universal bound 4)"
        )
    return CurvatureBoundReport(
        lam=lam, max_abs_k=kmax, argmax=zmax, refined_max=sup,
        refined_argmax=1j if zmax.imag >= 0 else -1j,
        argmax_locus="normal-rotation fixed point (z = +-i)",
    )


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------

MIRROR = np.diag([1.0, -1.0, 1.0])
ROTATION = np.diag([-1.0, 1.0, -1.0])


@dataclass(frozen=True)
class SymmetryReport:
    lam: Lambda
    tolerance: float
    mirror_residuals: np.ndarray
    rotation_residuals: np.ndarray
    line_flip_residuals: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(max(self.mirror_residuals.max(initial=0.0),
                         self.rotation_residuals.max(initial=0.0),
                         self.line_flip_residuals.max(initial=0.0)))

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance


def check_symmetries(lam, norm: Normalization, samples,
                     tolerance: float = 1e-7) -> SymmetryReport:
    """Verify the three ambient symmetries on the given curve points.

    For each sample lift p the transformed lift is immersed independently
    (its own closed-form position and sheet) and compared against the ambient
    affine map: mirror across the plane of the planar geodesics (normal
    along x2), half-turn about the horizontal axes through the images of
    z = +-i, and half-turn about the straight lines (the fixed set of the
    line flip).  Translation parts are pinned by the images of the
    base-point lifts (the base point itself at lam = 1), so the checks also
    exercise the anchoring of the second sheet.

    All lifts go through one immerse call.
    """
    lam = as_lambda(lam)
    w0 = principal_w(1.0 + 0.0j, lam)
    lifts = [(1.0 + 0.0j, np.conj(w0)), (1.0 + 0.0j, -np.conj(w0)), (-1.0 + 0.0j, -w0)]
    for p in samples:
        p = p if isinstance(p, CurvePoint) else CurvePoint(p, principal_w(p, lam), lam)
        lifts += [(p.z, p.w), (np.conj(p.z), np.conj(p.w)), (-1.0 / p.z, -p.w / p.z ** 2),
                  (np.conj(p.z), -np.conj(p.w))]
    # each target is immersed once, and its sheet +1 image x is kept if the
    # continued root is w, its partner's image C - x if it is -w
    c = sheet_connection(lam, norm)
    images = []
    for sp, (z, w) in zip(immerse(lam, norm, [z for z, _ in lifts]), lifts):
        err_plus, err_minus = abs(sp.source.w - w), abs(sp.source.w + w)
        if min(err_plus, err_minus) > 1e-6 * (1.0 + abs(w)):
            raise ValueError(f"no immersion sheet matches the requested root at z = {z}")
        images.append(sp.position if err_plus <= err_minus else c - sp.position)
    b_mirror, b_flip, b_rot, *images = images

    # positions of individual lifts are defined modulo the translation
    # period (immerse places the winding-0 representative of the stack)
    t_vec = period_vectors(lam, norm).translation

    def lattice_residual(x, y, scale):
        return min(float(np.linalg.norm(x - y - n * t_vec)) for n in range(-2, 3)) / scale

    res_mirror, res_rot, res_flip = [], [], []
    for pos, pos_m, pos_r, pos_f in np.reshape(images, (-1, 4, 3)):
        scale = max(1.0, float(np.linalg.norm(pos)))
        res_mirror.append(lattice_residual(pos_m, MIRROR @ pos + b_mirror, scale))
        res_rot.append(lattice_residual(pos_r, ROTATION @ pos + b_rot, scale))
        res_flip.append(lattice_residual(pos_f, ROTATION @ pos + b_flip, scale))

    return SymmetryReport(
        lam=lam, tolerance=tolerance,
        mirror_residuals=np.array(res_mirror),
        rotation_residuals=np.array(res_rot),
        line_flip_residuals=np.array(res_flip),
    )


# ---------------------------------------------------------------------------
# colinearity / coplanarity of the special real intervals
# ---------------------------------------------------------------------------

def line_fit_residual(points) -> float:
    """Max distance to the best-fit 3-d line, relative to the segment span."""
    pts = np.asarray(points, dtype=float)
    c = pts.mean(axis=0)
    d = pts - c
    _, _, vt = np.linalg.svd(d, full_matrices=False)
    perp = d - np.outer(d @ vt[0], vt[0])
    span = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    return float(np.max(np.linalg.norm(perp, axis=1))) / max(span, 1e-300)


def plane_fit(points):
    """Best-fit plane: returns (unit normal, offset, max |signed distance|)."""
    pts = np.asarray(points, dtype=float)
    c = pts.mean(axis=0)
    d = pts - c
    _, _, vt = np.linalg.svd(d, full_matrices=False)
    n = vt[2]
    dist = d @ n
    return n, float(c @ n), float(np.max(np.abs(dist)))


# ---------------------------------------------------------------------------
# foliation slices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoliationSlice:
    height: float
    kind: str                      # "circle" or "line"
    center: np.ndarray | None
    radius: float | None
    residual: float
    n_points: int
    points: np.ndarray = field(repr=False, default=None)


#: A slice is a line when the line fit beats the circle fit and the fitted
#: radius has run away beyond this cutoff.
LINE_RADIUS_CUTOFF = 1e6


def fit_circle(xy):
    """Algebraic least-squares circle fit with a few Gauss-Newton polish steps.

    Returns (center (2,), radius, max | |p - c| - R |).
    """
    xy = np.asarray(xy, dtype=float)
    x, y = xy[:, 0], xy[:, 1]
    a = np.column_stack([2.0 * x, 2.0 * y, np.ones_like(x)])
    b = x * x + y * y
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    cx, cy, c0 = sol
    r = math.sqrt(max(c0 + cx * cx + cy * cy, 0.0))
    for _ in range(3):
        dx, dy = x - cx, y - cy
        di = np.hypot(dx, dy)
        if np.any(di == 0):
            break
        j = np.column_stack([-dx / di, -dy / di, -np.ones_like(di)])
        res = di - r
        try:
            step, *_ = np.linalg.lstsq(j, -res, rcond=None)
        except np.linalg.LinAlgError:
            break
        cx, cy, r = cx + step[0], cy + step[1], r + step[2]
    di = np.hypot(x - cx, y - cy)
    return np.array([cx, cy]), float(r), float(np.max(np.abs(di - r)))


def fit_line_2d(xy):
    """Total-least-squares line fit in the plane: max perpendicular distance."""
    xy = np.asarray(xy, dtype=float)
    c = xy.mean(axis=0)
    d = xy - c
    _, _, vt = np.linalg.svd(d, full_matrices=False)
    perp = d @ vt[1]
    return float(np.max(np.abs(perp)))


def _edge_height_crossing(lam, norm, za, wa, pos_a, zb, c, f_lo, where=None):
    """Solve x3 = c along the straight edges za -> zb continued from (za, wa).

    Takes equal-length arrays of edges and returns an (n, 3) array.  Each
    edge runs a safeguarded Newton iteration in its parameter t:
    f(t) = x3(t) - c has the exact derivative f'(t) = Re(2 s dz / w(t)),
    since Phi3 = 2 s / w, and a sign bracket replaces any step that leaves
    it (or meets f' = 0) by its midpoint.  All edges step in lockstep: each
    round continues the root and integrates from every active iterate to its
    next one by one _continue_edges call (which refuses iterates inside a
    branch guard disk, and hands W and Psi at them to the next round), and
    retires the edges that meet |x3 - c| < 1e-12 max(1, |c|).  `where(k)`
    names edge k in errors (by default its end points, lam and height); an
    error within a round also names the Newton step.  QuadratureFailure is
    raised for an edge not resolved within 60 rounds.
    """
    za, wa, zb = (np.asarray(v, dtype=complex) for v in (za, wa, zb))
    c, f = np.asarray(c, dtype=float), np.array(f_lo, dtype=float)
    pos = np.array(pos_a, dtype=float)
    if where is None:
        def where(k) -> str:
            return (f"lam = {lam.value!r}, edge {complex(za[k])} -> {complex(zb[k])}, "
                    f"height x3 = {float(c[k])!r}")
    s2dz = 2.0 * normalization_scale(norm) * (zb - za)
    tol = 1e-12 * np.maximum(1.0, np.abs(c))
    below = f < 0
    t_lo, t_hi, t = np.zeros(len(za)), np.ones(len(za)), np.zeros(len(za))
    z, w = za.copy(), wa.copy()
    act, start = np.arange(len(za)), None
    for _ in range(60):
        fp = (s2dz[act] / w[act]).real
        with np.errstate(divide="ignore", invalid="ignore"):
            t_newton = t[act] - f[act] / fp
        t_new = np.where((fp != 0.0) & (t_lo[act] < t_newton) & (t_newton < t_hi[act]),
                         t_newton, 0.5 * (t_lo[act] + t_hi[act]))
        z_old, w_old = z[act], w[act]
        z_new = za[act] + t_new * (zb[act] - za[act])

        def located_at(k, act=act, z0=z_old, z1=z_new):
            return f"{where(act[k])}, Newton step {complex(z0[k])} -> {complex(z1[k])}"

        w_new, vals, end = _continue_edges(z_old, w_old, z_new, lam, norm, located_at, start)
        pos[act] += vals
        t[act], z[act], w[act] = t_new, z_new, w_new
        f[act] = pos[act, 2] - c[act]
        same_side = (f[act] < 0) == below[act]
        t_lo[act] = np.where(same_side, t_new, t_lo[act])
        t_hi[act] = np.where(same_side, t_hi[act], t_new)
        going = ~(np.abs(f[act]) < tol[act])
        act, start = act[going], tuple(v[going] for v in end)
        if not act.size:
            return pos
    k = act[0]
    raise QuadratureFailure(
        f"{where(k)}: height crossing not resolved, |x3 - c| = {abs(f[k]):.3e} "
        f"after 60 steps (tolerance {tol[k]:.3e})"
    )


def foliation_slices(grids, heights, min_points: int = 16):
    """Horizontal slices of the immersed surface.

    `grids` holds the two sheet grids of one immersion.  Crossing points of
    each height are found along radial grid edges (ending on their upper
    vertex of radial_edge_alignment, so edges through a branch band pair
    with the correct partner) and angular grid edges, of both sheets in the
    alignment's numbering.  The crossing edges of every height are refined
    by one lockstep call of _edge_height_crossing, so each Newton round is
    one batched closed-form continuation and integration over all of them.
    Each slice is fitted by a circle and by a line; the better model is
    reported.
    """
    by_sign = {g.sheet_sign: g for g in grids}
    if len(by_sign) != 2:
        raise ValueError("foliation slicing needs both sheet grids")
    pair = (by_sign[+1], by_sign[-1])
    alignment = radial_edge_alignment(*pair)
    lam, norm = pair[0].lam, pair[0].norm
    t3 = period_vectors(lam, norm).translation[2]
    zf = np.concatenate([g.z.ravel() for g in pair])
    wf = np.concatenate([g.w.ravel() for g in pair])
    vertices = np.concatenate([g.positions.reshape(-1, 3) for g in pair])
    idx = np.arange(len(zf)).reshape(2, *pair[0].z.shape)

    def per_sheet(radial, angular):
        """Edge values in order: per sheet, radial edges then angular."""
        return np.concatenate((radial.reshape(2, -1), angular.reshape(2, -1)), axis=1).ravel()

    # every edge: start and end vertex, and the end's period offset (radial
    # edges end on their aligned upper vertex, angular edges stay within a
    # row chain, consistent by construction)
    a = per_sheet(idx[:, :-1], idx[:, :, :-1])
    b = per_sheet(alignment.upper, idx[:, :, 1:])
    radial = np.arange(len(a)) % (len(a) // 2) < alignment.upper[0].size
    lo = vertices[a, 2]
    hi = vertices[b, 2] + per_sheet(alignment.period_k, 0 * idx[:, :, 1:]) * t3

    # the points of each height in order: per sheet, radial then angular
    # edges; a radial edge starting exactly at the height gives its vertex
    edge = []
    for c in heights:
        edge.append(np.flatnonzero((radial & (lo - c == 0.0)) | ((lo - c) * (hi - c) < 0.0)))
        if len(edge[-1]) < min_points:
            raise InsufficientSlicePoints(
                f"slice at height {c} met only {len(edge[-1])} edges (need {min_points})"
            )
    if not edge:
        return []
    counts = [len(e) for e in edge]
    edge, height = np.concatenate(edge), np.repeat(np.asarray(heights, dtype=float), counts)
    va, vb = a[edge], b[edge]
    f_lo = lo[edge] - height
    points = vertices[va]
    k = np.flatnonzero(f_lo != 0.0)
    edge_at = _edge_locator(lam, pair[0].z.shape, va[k], vb[k])

    def where(j) -> str:
        c = height[k[j]]
        return (f"{edge_at(j)}, height x3 = {float(c)!r} "
                f"(crossing tolerance {1e-12 * max(1.0, abs(c)):.2e})")

    points[k] = _edge_height_crossing(
        lam, norm, zf[va[k]], wf[va[k]], points[k], zf[vb[k]], height[k], f_lo[k], where)

    slices = []
    for c, pts in zip(heights, np.split(points, np.cumsum(counts)[:-1])):
        xy = pts[:, :2]
        center, radius, circ_res = fit_circle(xy)
        line_res = fit_line_2d(xy)
        # the algebraic fit degenerates on near-collinear data; offer it the
        # far-center circle that a line really is
        centroid = xy.mean(axis=0)
        d = xy - centroid
        _, _, vt = np.linalg.svd(d, full_matrices=False)
        span = max(float(np.linalg.norm(xy.max(axis=0) - xy.min(axis=0))), 1.0)
        c_far = centroid + vt[1] * max(1e7, 1e3 * span)
        dist = np.linalg.norm(xy - c_far, axis=1)
        r_far = float(dist.mean())
        res_far = float(np.max(np.abs(dist - r_far)))
        if res_far < circ_res:
            center, radius, circ_res = c_far, r_far, res_far
        if line_res < circ_res and radius > LINE_RADIUS_CUTOFF:
            slices.append(FoliationSlice(height=float(c), kind="line", center=None,
                                         radius=None, residual=line_res,
                                         n_points=len(pts), points=pts))
        else:
            slices.append(FoliationSlice(height=float(c), kind="circle", center=center,
                                         radius=radius, residual=circ_res,
                                         n_points=len(pts), points=pts))
    return slices


def max_center_curvature(slices) -> float:
    """Largest three-point (Menger) curvature along the curve of circle centers."""
    centers = np.array([np.array([s.center[0], s.center[1], s.height])
                        for s in slices if s.kind == "circle"])
    if len(centers) < 3:
        return 0.0
    best = 0.0
    for a, b, c in zip(centers[:-2], centers[1:-1], centers[2:]):
        ab, bc, ca = b - a, c - b, a - c
        area2 = np.linalg.norm(np.cross(ab, bc))
        denom = np.linalg.norm(ab) * np.linalg.norm(bc) * np.linalg.norm(ca)
        if denom > 0:
            best = max(best, 2.0 * area2 / denom)
    return float(best)
