"""Curvature, symmetry, conjugacy and foliation analysis of the immersed family.

The closed-form curvature of the family with scale s is

    |K| = (16 / s^2) |z - lam| |z + 1/lam| / ( |z| (|z| + 1/|z|)^4 ),

whose supremum is attained only at z = +-i: lam + 1/lam on the raw family,
exactly 1 + min(lam, 1/lam)^2 on the paper scale, below the universal
bound 4 of the normalized family.  This |K| is the curvature of the
half-size surface x/2, four times that of the immersed surface x: it is
Osserman's (4 |g'| / (|f| (1 + |g|^2)^2))^2 with g = z and f = s/(z w), the
eta of weierstrass, while Phi is Osserman's (f (1 - g^2)/2, i f (1 + g^2)/2,
f g) with f = 2 s/(z w).  The reported numbers keep this convention.

Symmetry checks verify the three isometry lifts of the cover at the level of
path integrals, each anchored at a fixed point of the respective symmetry:

    mirror     (z, w) -> (conj z, conj w)      ambient diag(+1, -1, +1)
    rotation   (z, w) -> (-1/z, -w/z^2)        ambient diag(-1, +1, -1)
    line flip  (z, w) -> (conj z, -conj w)     ambient diag(-1, +1, -1)

The members lam and 1/lam are conjugate: (z, w) -> (z', w') = (-z, i w)
maps the lam-curve onto the (1/lam)-curve, and on the paper scale

    -i Phi_lam(z, w) = diag(-1, -1, 1) Phi_{1/lam}(-z, i w),

that is i Phi_lam dz = diag(-1, -1, 1) Phi_{1/lam} dz': the conjugate
surface of the member lam, integrated from i Phi_lam, is the member 1/lam
turned by pi about the x3 axis.  conjugate_check verifies the identity
pointwise on the integrands.

Horizontal foliation slices are in closed form: on the torus coordinate v,
which inverts the integral of dz/w by Jacobi's sn (curve._curve_at),
x3 falls linearly with Re v, so each height is one vertical line of v.  Its
points are immersed at once, and every slice is fitted as a generalized
circle (a circle or a line) by one batched SVD; check_symmetries also
immerses its lifts at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curve import (CURVE_TOL, CurvePoint, Lambda, _agm, _curve_at, as_lambda, curve_residual,
                    principal_w)
from .errors import InsufficientSlicePoints, RiemannFamilyError, SingularPoint
from .weierstrass import (
    Normalization,
    _immerse,
    _lift_images,
    _matched_lambda,
    _raw_periods,
    normalization_scale,
    period_vectors,
    phi_components,
    sheet_connection,
)

# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def abs_gauss_curvature(z, lam, norm: Normalization):
    """Closed-form |K| at parameter z; vectorized over z.  It is the
    curvature of the surface x/2, four times that of the immersed surface."""
    lam = _matched_lambda(lam, norm)
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
    Like abs_gauss_curvature it is the curvature of the surface x/2, four
    times the supremum on the immersed surface.

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
    """The polar grid of z that verify_curvature_bound searches: n_rad rings
    log-spaced on [r_min, r_max], each with n_ang angles equally spaced on
    [-pi, pi), endpoint excluded."""

    r_min: float = 1e-3
    r_max: float = 1e3
    n_rad: int = 512
    n_ang: int = 512


#: Columns of each ring evaluated by verify_curvature_bound: the two that
#: bracket the vertex of the ring's concave product, and one on each side.
RING_WINDOW = 4


@dataclass(frozen=True)
class CurvatureBoundReport:
    """verify_curvature_bound at lam, paper scale: max_abs_k is the grid
    maximum of |K|, at the node argmax; refined_max is the closed-form
    supremum, at refined_argmax (+-i, in the argmax's half-plane), the
    fixed point named by argmax_locus."""

    lam: Lambda
    max_abs_k: float
    argmax: complex
    refined_max: float
    refined_argmax: complex
    argmax_locus: str


def verify_curvature_bound(lam, grid: CurvatureGrid | None = None) -> CurvatureBoundReport:
    """Grid maximum of |K| on the normalized family over the large annulus,
    checked against the closed-form supremum max_abs_curvature.

    On the ring |z| = r, |z - lam|^2 |z + 1/lam|^2 is, by the law of
    cosines, P(c) = (r^2 + lam^2 - 2 lam r c)(r^2 + 1/lam^2 + (2 r / lam) c)
    with c = cos(theta), and |K|^2 is P times (1 / (r (r + 1/r)^4))^2.  P is
    concave in c, with vertex c* = (1/lam - lam)(r - 1/r) / 4, so a ring's
    grid maximum lies at the columns theta in [-pi, 0] whose c bracket c*
    (an end column if c* is outside [-1, 1]): one searchsorted finds them, and P is evaluated in real arithmetic on
    RING_WINDOW columns about them, n_rad x 4 nodes in all.  The rings
    within 1e-12 (relative) of the largest are re-evaluated exactly by
    abs_gauss_curvature on their complex nodes, where max_abs_k and argmax
    (the first maximal node in grid order) are taken; rounding moves P far
    less than that near the maximum, so this is the whole grid's maximum.

    refined_max is the supremum and refined_argmax the one of +-i in the
    argmax's half-plane.  Raises ValueError, before any evaluation, for a
    radius that is not finite and > 0 or n_rad or n_ang below 1, and
    RiemannFamilyError if the grid maximum exceeds the supremum by more
    than 1e-12 relative, or exceeds 4.
    """
    lam = as_lambda(lam)
    grid = grid or CurvatureGrid()
    lv = lam.value
    for name in ("r_min", "r_max"):
        value = getattr(grid, name)
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"lam = {lv!r}: curvature grid radii must be finite and > 0, "
                             f"not {name} = {value!r}")
    for name in ("n_rad", "n_ang"):
        value = getattr(grid, name)
        if not value >= 1:
            raise ValueError(f"lam = {lv!r}: curvature grid needs {name} >= 1, "
                             f"not {name} = {value!r}")
    norm = Normalization.paper(lam)
    logr = np.linspace(math.log(grid.r_min), math.log(grid.r_max), grid.n_rad)
    theta = np.linspace(-math.pi, math.pi, grid.n_ang, endpoint=False)
    r, cos = np.exp(logr), np.cos(theta[:grid.n_ang // 2 + 1])
    cstar = (1.0 / lv - lv) * (r - 1.0 / r) / 4.0
    width = min(RING_WINDOW, len(cos))
    first = np.clip(np.searchsorted(cos, cstar) - width // 2, 0, len(cos) - width)
    c = cos[first[:, None] + np.arange(width)]
    rc = r[:, None]
    pq = (2.0 * lv * rc) * c
    np.subtract(rc * rc + lv * lv, pq, out=pq)                # |z - lam|^2
    q = (2.0 * rc / lv) * c
    q += rc * rc + 1.0 / (lv * lv)
    pq *= q                                                   # times |z + 1/lam|^2
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
    """check_symmetries at lam: per sample and symmetry, the distance of the
    transformed lift's position from the ambient image of the sample's,
    modulo the period T, relative to max(1, |x|).  It passes when the
    largest residual is below `tolerance`."""

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
    line flip).  The mirror and the line flip fix z = 1 and send the
    base-point lift (1, w0) to (1, conj w0) and (1, -conj w0); w0 is real for
    lam <= 1 and imaginary beyond, so their translation parts are the images
    0 and C of the two base-point lifts (C the sheet_connection), swapped
    beyond lam = 1.  The rotation fixes both lifts over z = i, which is at
    least 1 from every branch point, so its translation part is (I - R) x(i)
    for the lift on W(i) = -principal_w(i) (arguments pi/2 + atan lam and
    atan lam - pi/2), whose image carries no C.  No target at z = +-1 is
    immersed, so a base point near a branch point blocks nothing.

    All lifts go through one closed-form immersion (_lift_images).  Positions
    of lifts are defined modulo the translation period T (immerse places the
    winding-0 representative of the stack), so each difference d is reduced
    by its nearest multiple rint(d.T / |T|^2) T.
    """
    lam = _matched_lambda(lam, norm)
    pts = [p if isinstance(p, CurvePoint) else CurvePoint(p, principal_w(p, lam), lam)
           for p in samples]
    z = np.array([p.z for p in pts], dtype=complex)
    w = np.array([p.w for p in pts], dtype=complex)
    images = _lift_images(
        lam, norm, np.concatenate(([1j], z, np.conj(z), -1.0 / z, np.conj(z))),
        np.concatenate(([-principal_w(1j, lam)], w, np.conj(w), -w / z ** 2, -np.conj(w))))
    pos, pos_m, pos_r, pos_f = images[1:].reshape(4, -1, 3)
    c = sheet_connection(lam, norm)
    b_mirror, b_flip = (np.zeros(3), c) if lam.value <= 1.0 else (c, np.zeros(3))
    b_rot = images[0] - ROTATION @ images[0]
    t_vec = period_vectors(lam, norm).translation
    scale = np.maximum(1.0, np.linalg.norm(pos, axis=1))

    def lattice_residual(x, y):
        d = x - y
        d -= np.rint(d @ t_vec / (t_vec @ t_vec))[:, None] * t_vec
        return np.linalg.norm(d, axis=1) / scale

    return SymmetryReport(
        lam=lam, tolerance=tolerance,
        mirror_residuals=lattice_residual(pos_m, pos @ MIRROR + b_mirror),
        rotation_residuals=lattice_residual(pos_r, pos @ ROTATION + b_rot),
        line_flip_residuals=lattice_residual(pos_f, pos @ ROTATION + b_flip),
    )


# ---------------------------------------------------------------------------
# conjugacy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugacyReport:
    """Residuals of conjugate_check at the member lam: one per sample, the
    largest component of |-i Phi_lam - diag(-1, -1, 1) Phi_{1/lam}| relative
    to the largest component of |Phi_lam| there (paper scale)."""

    lam: Lambda
    residuals: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if len(self.residuals) else 0.0


def conjugate_check(lam, samples) -> ConjugacyReport:
    """Pointwise conjugacy identity between the normalized families at lam
    and 1/lam.

    For (z, w) on the lam-curve, the mapped point (-z, i w) lies on the
    (1/lam)-curve, and the conjugated integrand i * Phi_lam, transported by
    dz -> -dz', equals diag(-1, -1, 1) applied to the integrand of the
    (1/lam)-family at the mapped point.  Residuals are relative; a sample
    mapped off the (1/lam)-curve raises ValueError.
    """
    lam, recip = as_lambda(lam), as_lambda(lam).reciprocal
    z, w = np.array([(p.z, p.w) if isinstance(p, CurvePoint) else (p, principal_w(p, lam))
                     for p in samples], dtype=complex).reshape(-1, 2).T
    on_curve = curve_residual(-z, 1j * w, recip) <= CURVE_TOL
    if not on_curve.all():
        k = int(np.argmin(on_curve))
        raise ValueError(f"lam = {lam.value!r}: sample {k}, (z, w) = ({z[k]}, {w[k]}), maps to "
                         f"(-z, i w) off the curve for lam = {recip.value!r}")
    lhs = -1j * phi_components(z, w, Normalization.paper(lam))
    rhs = np.array([[-1.0], [-1.0], [1.0]]) * phi_components(-z, 1j * w, Normalization.paper(recip))
    scale = np.maximum(np.abs(lhs).max(axis=0), 1e-300)
    return ConjugacyReport(lam=lam, residuals=np.abs(lhs - rhs).max(axis=0) / scale)


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
    """The slice x3 = height, fitted as a circle or a line (kind): a circle's
    center (x1, x2) and radius, both None for a line, and the largest
    first-order distance (ambient units) of its n_points sampled positions,
    `points` of shape (n_points, 3), from the fitted curve."""

    height: float
    kind: str                      # "circle" or "line"
    center: np.ndarray | None
    radius: float | None
    residual: float
    n_points: int
    points: np.ndarray = field(repr=False, default=None)


#: A slice is a line when its fitted radius has run away beyond this cutoff
#: and the linear part of its generalized circle fits as well as the circle,
#: to 1e-12 of the slice's span plus 8 ulp of the points' own size (points
#: collinear to roundoff fit both, however far out they lie).
LINE_RADIUS_CUTOFF = 1e6
EPS = 2.0 ** -52              # the double precision machine epsilon


def fit_generalized_circles(xy):
    """Fit a circle or a line to each planar point set of a stack (..., n, 2).

    Circles and lines are the generalized circles F = a |q|^2 + b q1 + c q2
    + d = 0 (a = 0 a line), fitted algebraically (Pratt 1987) with unit
    coefficient norm: each set is centred on its centroid and scaled to unit
    rms radius, q, and (a, b, c, d) is the right singular vector of
    [|q|^2, q1, q2, 1] with the smallest singular value, one batched SVD for
    the whole stack (full only for n = 3, whose null vector a reduced SVD
    drops; for n >= 4 the reduced one builds no n x n factor).  The circle
    residual is the first-order distance |F| / |grad F|, free of the
    cancellation in |p - center| - radius; the line residual is that of the
    linear part, |b q1 + c q2 + d| / |(b, c)|.  LINE_RADIUS_CUTOFF decides
    which model a set takes.

    Returns (line, center, radius, residual): whether each set is a line, its
    circle center and radius, and the max residual of the reported model.
    """
    xy = np.asarray(xy, dtype=float)
    centroid = xy.mean(axis=-2)
    rel = xy - centroid[..., None, :]
    scale = np.sqrt(np.mean(np.sum(rel * rel, axis=-1), axis=-1))
    q1, q2 = np.moveaxis(rel / scale[..., None, None], -1, 0)
    qq = q1 * q1 + q2 * q2
    vt = np.linalg.svd(np.stack([qq, q1, q2, np.ones_like(qq)], axis=-1),
                       full_matrices=xy.shape[-2] < 4)[2]
    a, b, c, d = np.moveaxis(vt[..., -1, :, None], -2, 0)
    lin = b * q1 + c * q2 + d
    with np.errstate(divide="ignore", invalid="ignore"):
        circle_res = scale * np.max(abs(a * qq + lin) / np.hypot(2 * a * q1 + b, 2 * a * q2 + c),
                                    axis=-1)
        line_res = scale * np.max(abs(lin) / np.hypot(b, c), axis=-1)
        radius = scale * (np.sqrt(np.maximum(b * b + c * c - 4 * a * d, 0.0)) / (2 * abs(a)))[..., 0]
        center = centroid - scale[..., None] * np.concatenate([b, c], axis=-1) / (2 * a)
    span = np.maximum(np.linalg.norm(xy.max(axis=-2) - xy.min(axis=-2), axis=-1), 1.0)
    tie = 1e-12 * span + 8.0 * EPS * np.max(abs(xy), axis=(-2, -1))
    line = (radius > LINE_RADIUS_CUTOFF) & (line_res <= circle_res + tie)
    return line, center, radius, np.where(line, line_res, circle_res)


def foliation_slices(norm, heights, min_points: int = 16):
    """Horizontal slices of the immersed surface, in closed form.

    `norm` is the surface's Normalization, or the two sheet grids of one
    immersion, which supply it.  On the torus coordinate v of curve._curve_at,
    dx3 = Re(2 s dz / w) = -kappa Re dv with kappa = 4 s / sqrt(lam + 1/lam),
    so x3 = h0 - kappa (Re v - K) modulo s T3, where h0 is the height of the
    segment (0, lam), the line Re v = K through the end z = 0.  The slice
    x3 = c is therefore the vertical line Re v = a, with
    a = (K - (c - h0) / kappa) mod 2K and y = Im v in [0, 2K'): one closed
    leaf per period, a line at the end heights (Re v = 0 or K, onto which
    an a is set when it lies within the rounding it takes from c).  Each
    slice is sampled at `min_points` points y = 2K' (j + 1/4) / min_points, which
    miss y = 0 and K', where those lines meet the ends and the branch points.
    The points are immersed on their own lifts in one call and moved by
    whole periods T to the height c.  All slices are fitted at once by
    fit_generalized_circles, as circles or lines.  Fewer than 3 points per
    slice raise InsufficientSlicePoints; heights that are not a 1-d sequence
    of finite numbers raise ValueError.
    """
    if not isinstance(norm, Normalization):
        by_sign = {g.sheet_sign: g for g in norm}
        if len(by_sign) != 2:
            raise ValueError("foliation slicing needs both sheet grids")
        norm = by_sign[+1].norm
    if min_points < 3:
        raise InsufficientSlicePoints(f"a slice needs at least 3 points to fit a curve, "
                                      f"not {min_points}")
    lam = norm.lam
    lv, s = lam.value, normalization_scale(norm)
    heights = np.asarray(heights, dtype=float)
    if heights.ndim != 1:
        raise ValueError(f"lam = {lv!r}: slice heights must be a 1-d sequence, "
                         f"not {heights.tolist()!r}")
    if not np.all(np.isfinite(heights)):
        raise ValueError(f"lam = {lv!r}: slice height {heights[~np.isfinite(heights)][0]} "
                         f"is not finite")
    quarter, quarter_c = (0.5 * math.pi / _agm(x)[-1][0] for x in (lv, 1.0 / lv))
    kappa = 4.0 * s / math.sqrt(lv + 1.0 / lv)
    h0 = _immerse(lam, norm, [0.5 * lv])[0][0, 2]
    a = np.mod(quarter - (heights - h0) / kappa, 2.0 * quarter)
    end = np.rint(a / quarter)
    snap = abs(a - end * quarter) <= 8.0 * EPS * ((abs(heights) + abs(h0)) / kappa + quarter)
    a = np.where(snap, np.mod(end * quarter, 2.0 * quarter), a)
    y = 2.0 * quarter_c * (np.arange(min_points) + 0.25) / min_points
    z, w = _curve_at(a[:, None], y, lv)
    points = _lift_images(lam, norm, z.ravel(), w.ravel()).reshape(len(heights), min_points, 3)
    t1, t3 = _raw_periods(lv)
    shift = np.rint((heights[:, None] - points[..., 2]) / (s * t3))
    points += shift[..., None] * (s * np.array([t1, 0.0, t3]))

    line, center, radius, residual = fit_generalized_circles(points[..., :2])
    return [FoliationSlice(height=float(c), kind="line" if ln else "circle",
                           center=None if ln else ctr, radius=None if ln else float(r),
                           residual=float(res), n_points=min_points, points=pts)
            for c, ln, ctr, r, res, pts in zip(heights, line, center, radius, residual, points)]


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
