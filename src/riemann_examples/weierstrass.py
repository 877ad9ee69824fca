"""Weierstrass representation of the Riemann minimal examples.

The surface data on the double cover is g = z, eta = s dz / (z w), giving the
integrand vector

    Phi(z, w) = s * ( (1 - z^2)/(z w),  i (1 + z^2)/(z w),  2/w )

whose real contour integral from the base point z0 = 1 immerses the cover
into R^3.  The scale s is 1 for the raw family, sqrt(lam) (lam >= 1) or
1/sqrt(lam) (lam <= 1) for the normalized family whose limits are the
catenoid and helicoid, or is derived so that the vertical distance between
adjacent planar ends is exactly 2*pi.

The translation period T = s (T1, 0, T3) and the end spacing s T3 / 2 are
complete elliptic integrals of the curve, evaluated in closed form by the
arithmetic-geometric mean; the companion period, which must vanish, is
checked on its cycle, from Psi at the cycle's two ends.

Only sheet +1 is ever integrated.  The deck involution w -> -w negates Phi,
so sheet -1 is the point reflection x(z, -w) = C - x(z, w), with C = 2 x(lam)
from the segment [1, lam] (sheet_connection).

The immersion integrates nothing numerically.  On the root
W = sqrt(z - lam) sqrt(z) sqrt(z + 1/lam) the integral of Phi is elementary
plus two elliptic integrals,

    x = Re s (-2 B - 2 W/z, 2 i W/z, -2 A) + const,

with A and B the integrals of dt/W and dt/(t W) along the horizontal ray
from z to +inf, Carlson's 2 R_F and (2/3) R_D (curve._carlson, _ray).  That
form is analytic off (-inf, lam], so a path enters only through its
crossings of that half-line (_crossings): the sign sigma of the root flips
on the cuts of W, and x jumps by sigma_before J, J = 2 Re Psi(lam) = -T, on
the cut (0, lam), and not at all on (-inf, 0).  Paths start on the principal
root W(1) = sqrt(1 - lam) sqrt(1 + 1/lam) (i sqrt(lam - 1) sqrt(1 + 1/lam)
beyond lam = 1, 0 at it), so a point z on the root sigma W is at
Re sigma Psi(z) - Re Psi(1) plus its path's jumps, plus n T for n
translation circuits: immerse and immerse_grid need no routes, and evaluate
the base point and their points in one _ray call, Psi(lam) once per scale
(_lam_terms).  A grid's lower half is the conjugate of its upper half by
construction, and takes conj W and _mirror(Psi) from it.
The sign sigma and the signed count j of cut crossings of each grid vertex
(_grid_lift) also align the mesh's radial edges: an edge keeps its start's
sigma, lands on the lift over its end with that sign, and is j_land - j_start
periods off it (radial_edge_alignment).  _carlson runs one duplication
body over numpy arrays, or point by point for a few points, where numpy's
fixed cost per call would dominate.  The quadrature of
make_sheeted_path and path_integral (re-exported here) along route_vertices
remains for reference computations.
Guards and snaps are curve.near_branch and curve.at_branch, both found in
one pass over each batch (curve._branch_guards); detours, chord clearances
and period cycles are fractions of the gaps between branch points.  Targets,
cycle points and grid rings must be finite, with a finite curve polynomial.
"""

from __future__ import annotations

import cmath
import dataclasses
import enum
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .curve import (
    GUARD_RATIO,
    BranchDeparture,
    CurvePoint,
    Lambda,
    SheetedPath,
    _agm,
    _branch_guards,
    _carlson,
    as_lambda,
    at_branch,
    branch_points,
    continue_sheet,
    delta_branch,
    guard_disk,
    principal_w,
    sheeted_path_from_branch,
)
from .errors import BranchTooClose, PathBlocked, QuadratureFailure, SingularPoint
from .quadrature import path_integral

#: Base point of every immersion.
BASE_POINT = 1.0 + 0.0j


# ---------------------------------------------------------------------------
# normalizations
# ---------------------------------------------------------------------------

class NormalizationKind(str, enum.Enum):
    UNNORMALIZED = "raw"
    PAPER = "paper"
    FIXED_VERTICAL_SPACING = "spacing"


@dataclass(frozen=True)
class Normalization:
    """Selects the scale s multiplying eta."""

    kind: NormalizationKind
    lam: Lambda

    def __post_init__(self):
        object.__setattr__(self, "kind", NormalizationKind(self.kind))
        object.__setattr__(self, "lam", as_lambda(self.lam))

    @classmethod
    def raw(cls, lam) -> "Normalization":
        return cls(NormalizationKind.UNNORMALIZED, as_lambda(lam))

    @classmethod
    def paper(cls, lam) -> "Normalization":
        return cls(NormalizationKind.PAPER, as_lambda(lam))

    @classmethod
    def spacing(cls, lam) -> "Normalization":
        return cls(NormalizationKind.FIXED_VERTICAL_SPACING, as_lambda(lam))


def _matched_lambda(lam, norm: Normalization) -> Lambda:
    """lam as a Lambda; ValueError, naming both parameters, unless norm was
    built for it."""
    lam = as_lambda(lam)
    if norm.lam != lam:
        raise ValueError(f"normalization was built for lam = {norm.lam.value!r}, "
                         f"not lam = {lam.value!r}")
    return lam


def normalization_scale(norm: Normalization) -> float:
    """The factor s applied to eta (hence to the whole immersion)."""
    lv = norm.lam.value
    if norm.kind is NormalizationKind.UNNORMALIZED:
        return 1.0
    if norm.kind is NormalizationKind.PAPER:
        return math.sqrt(lv) if lv >= 1.0 else 1.0 / math.sqrt(lv)
    return _fixed_spacing_scale(lv)


@functools.lru_cache(maxsize=256)
def _fixed_spacing_scale(lam_value: float) -> float:
    return 4.0 * math.pi / _raw_periods(lam_value)[1]


@functools.lru_cache(maxsize=256)
def _raw_periods(lam_value: float) -> tuple:
    """Raw translation period components (T1, T3), in closed form (T2 = 0).

    With e1 = lam, e3 = -1/lam, k^2 = 1/(1 + lam^2) and r = 2/sqrt(lam + 1/lam),
    T3 = 4 r K(k) and T1 = -4 r (e3 K + (e1 - e3)(K - E)).  K = pi / (2 a_N)
    with a_N the AGM of curve._agm, and K - E = K sum 2^(n-1) c_n^2 (DLMF 19.8.2),
    summed rather than subtracting E from K.
    """
    lv = lam_value
    seq = _agm(lv)
    k = 0.5 * math.pi / seq[-1][0]
    tail = sum(2.0 ** (n - 1) * c * c for n, (_, _, c) in enumerate(seq))
    r = 2.0 / math.sqrt(lv + 1.0 / lv)
    return 4.0 * r * (k / lv - (lv + 1.0 / lv) * k * tail), 4.0 * r * k


# ---------------------------------------------------------------------------
# pointwise data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiValue:
    """Integrand vector at one point of the cover."""

    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=complex)
        if c.shape != (3,):
            raise ValueError("PhiValue holds exactly three complex components")
        c.setflags(write=False)
        object.__setattr__(self, "components", c)

    @property
    def null_residual(self) -> float:
        """Relative size of phi1^2 + phi2^2 + phi3^2 (zero for valid data)."""
        c = self.components
        return float(abs(np.sum(c * c)) / max(np.sum(np.abs(c) ** 2), 1e-300))


def phi_components(z, w, norm: Normalization):
    """Vectorized integrand; z, w may be scalars or equal-shaped arrays."""
    s = normalization_scale(norm)
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    zw = z * w
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.stack([
            s * (1.0 - z * z) / zw,
            s * 1j * (1.0 + z * z) / zw,
            s * 2.0 / w,
        ])
    return out


def phi(point: CurvePoint, norm: Normalization) -> PhiValue:
    if point.w == 0 or point.z == 0:
        raise SingularPoint(f"integrand singular at (z, w) = ({point.z}, {point.w})")
    return PhiValue(phi_components(point.z, point.w, norm))


def unit_normal(z):
    """Stereographic unit normal of the Gauss map g = z; vectorized."""
    z = np.asarray(z, dtype=complex)
    d = 1.0 + np.abs(z) ** 2
    n = np.stack([2.0 * z.real, 2.0 * z.imag, np.abs(z) ** 2 - 1.0], axis=-1)
    return n / d[..., None]


def gauss_map(point):
    """Unit normal at a curve point (only z enters; both sheets share it)."""
    z = point.z if isinstance(point, CurvePoint) else point
    return unit_normal(z)


def metric_factor(point: CurvePoint, norm: Normalization) -> float:
    """Coefficient of |dz|^2 in the induced metric of the (g, eta) data,
    s^2 (1 + |z|^2)^2 / (4 |z|^2 |w|^2).

    Note the immersion integrand used here carries an extra factor 2 relative
    to the (g, eta) convention behind this formula, so immersed positions
    realize 4x this coefficient.
    """
    if point.w == 0 or point.z == 0:
        raise SingularPoint("metric factor singular at w = 0 or z = 0")
    s = normalization_scale(norm)
    az2 = abs(point.z) ** 2
    return s * s * (1.0 + az2) ** 2 / (4.0 * az2 * abs(point.w) ** 2)


def weierstrass_integrand(norm: Normalization):
    def fn(z, w):
        return phi_components(z, w, norm)
    return fn


def integrate(path: SheetedPath, norm: Normalization) -> np.ndarray:
    """Real part of the Weierstrass contour integral along the path; an end
    with w = 0 is a branch point (path_integral)."""
    return path_integral(path, weierstrass_integrand(norm)).real.copy()


# ---------------------------------------------------------------------------
# path construction
# ---------------------------------------------------------------------------

def make_sheeted_path(vertices, lam) -> SheetedPath:
    """The SheetedPath on sheet +1 along the vertices.

    A first vertex at a finite branch point is seeded by the +1 departure
    germ, any other by the principal root; a first or last vertex at a
    branch point is stored with w = 0, which path_integral reads as a
    singular end.
    """
    lam = as_lambda(lam)
    verts = np.asarray(vertices, dtype=complex)
    keep = np.ones(len(verts), dtype=bool)
    keep[1:] = verts[1:] != verts[:-1]
    verts = verts[keep]
    bp = branch_points(lam)

    def branch_at(z):
        return bp.finite[bp.nearest(z)] if at_branch(z, lam) else None

    b_start = branch_at(verts[0]) if len(verts) > 1 else None
    b_end = branch_at(verts[-1]) if len(verts) > 1 else None
    if len(verts) == 2 and b_start is not None and b_start == b_end:
        # both ends snap to the same branch point: the path is that point
        return SheetedPath([b_start], [0.0j], lam)

    body = verts[:-1] if b_end is not None else verts
    if b_start is not None:
        path = sheeted_path_from_branch(body, BranchDeparture(b_start, lam))
    else:
        path = continue_sheet(body, principal_w(verts[0], lam), lam)
    if b_end is not None:
        path = SheetedPath(np.append(path.vertices, b_end),
                           np.append(path.w_values, 0.0j), lam)
    return path


def _radial_leg(r_from: float, r_to: float, angle: float, lam: Lambda):
    """Vertices (excluding the start) of a radial run at a fixed angle,
    detouring over any branch point b sitting strictly inside the run (more
    than its guard radius from either end) on a semicircle of radius gap/8
    above the real axis, like every point on it.

    Detour entry and exit points may overshoot the run's endpoints; the leg
    then returns to its endpoint along the ray, which no longer crosses the
    branch point.
    """
    if r_from == r_to:
        return []
    direction = cmath.exp(1j * angle)
    lo, hi = sorted((r_from, r_to))
    bp = branch_points(lam)
    crossings = []
    for b, gap, eps in zip(bp.finite, bp.gaps, delta_branch(lam)):
        if abs(b) == 0.0 or abs(cmath.exp(1j * cmath.phase(b)) - direction) > 1e-9:
            continue
        if lo + eps < abs(b) < hi - eps:
            crossings.append((abs(b), gap / 8.0))
    crossings.sort(reverse=bool(r_from > r_to))
    out = []
    sgn = 1.0 if r_to > r_from else -1.0
    for rb, rdet in crossings:
        out.append((rb - sgn * rdet) * direction)
        taus = np.linspace(0.0, math.pi, 9) if sgn < 0 else np.linspace(math.pi, 0.0, 9)
        for tau in taus[1:-1]:
            out.append(rb * direction + rdet * complex(direction.real * math.cos(tau),
                                                       math.sin(tau)))
        out.append((rb + sgn * rdet) * direction)
    out.append(r_to * direction)
    return out


def _angular_leg(radius: float, a_from: float, a_to: float):
    """Chords of at most pi/32 on the circle |z| = radius from a_from to a_to
    (excluding start)."""
    if a_from == a_to:
        return []
    n = max(1, math.ceil(abs(a_to - a_from) / (math.pi / 32.0)))
    return [radius * cmath.exp(1j * a) for a in np.linspace(a_from, a_to, n + 1)[1:]]


def _finite_moduli(points, lam: Lambda, what: str, refusal: str | None = None):
    """|z| of the points; ValueError naming lam and the point, or refusal if
    given, for one not finite or whose curve polynomial z (z - lam)(z + 1/lam) overflows."""
    lv = lam.value
    with np.errstate(over="ignore", invalid="ignore"):
        rho = np.abs(points)
        huge = ~np.isfinite((1.0 + rho) * (lv + rho) * (1.0 / lv + rho))
    if huge.any():
        raise ValueError(refusal or f"{what}s need a finite curve polynomial, not {what} "
                                    f"{points[np.flatnonzero(huge)[0]]} (lam = {lv!r})")
    return rho


def _sweep_radii(targets, lam: Lambda, winding: int):
    """Radius of the angular sweep of each target's route: its own, or one on
    the side of the base point if the sweep would pass within lam's detour
    radius lam/8.  A target that is not finite raises ValueError
    (_finite_moduli), before anything is evaluated; one at the puncture
    SingularPoint and one in a guard disk (unless at_branch) PathBlocked, each
    naming lam, it and the winding.  A winding that is not an integer
    (operator.index) raises ValueError naming lam and it."""
    lv = lam.value
    try:
        operator.index(winding)
    except TypeError:
        raise ValueError(f"lam = {lv!r}: winding {winding!r} is not an integer") from None
    rho = _finite_moduli(targets, lam, "target")
    if np.any(rho == 0.0):
        raise SingularPoint(f"lam = {lv!r}: target 0j (winding {winding}) is the puncture z = 0")
    near, at = _branch_guards(targets, lam)
    blocked = near & ~at
    if blocked.any():
        t = targets[np.flatnonzero(blocked)[0]]
        raise PathBlocked(f"lam = {lv!r}: target {t} (winding {winding}) lies in "
                          f"{guard_disk(t, lam)}")
    detour = lv / 8.0       # _radial_leg's detour about lam, whose gap is lam
    redirect = (np.angle(targets) != 0.0) & (np.abs(rho - lv) < detour)
    return np.where(redirect, lv + (1.5 if 1.0 >= lv else -1.5) * detour, rho)


def route_vertices(target: complex, lam, *, winding: int = 0):
    """Deterministic polyline from the base point to the target.

    Radial run along the positive real axis, then an angular sweep at the
    target radius (_sweep_radii; if redirected, a radial leg at the
    target's angle finishes the route); optional extra full circuits about
    the origin are inserted on translation_cycle_vertices.  The winding about
    the origin of the returned route is exactly `winding`.  A target on the
    real axis is reached from above, imaginary part -0.0 included.  This is
    the path of the quadrature reference and the lift immerse places.
    """
    lam = as_lambda(lam)
    lv = lam.value
    target = complex(target) + 0.0      # imaginary part -0.0 -> +0.0
    rho, phi_t = abs(target), cmath.phase(target)
    rho_mid = float(_sweep_radii(np.array([target]), lam, winding)[0])
    verts = [BASE_POINT]
    if winding != 0:
        # insert |winding| circuits of the translation cycle: it encloses the
        # two branch points 0 and -1/lam, so the lift closes and each circuit
        # shifts the image by exactly one period
        circuit = list(translation_cycle_vertices(lam)[::1 if winding > 0 else -1][1:])
        verts += _radial_leg(1.0, 0.5 * lv, 0.0, lam) + abs(winding) * circuit
        verts += _radial_leg(0.5 * lv, rho_mid, 0.0, lam)
    else:
        verts += _radial_leg(1.0, rho_mid, 0.0, lam)
    verts += _angular_leg(rho_mid, 0.0, phi_t)
    if rho_mid != rho:
        verts += _radial_leg(rho_mid, rho, phi_t, lam)
    verts[-1] = target
    return verts


def _crossings(za, zb, lam: Lambda, where):
    """Sheet flips and crossings of the cut (0, lam) of the edges za -> zb.

    Along an edge the continued root sigma W keeps its sign sigma, and Psi is
    analytic, until the edge crosses the real axis at some x0 < lam (a point
    on the axis counts as above it); sigma flips iff x0 lies on a cut of W.
    Returns flip = sigma_b / sigma_a and cut, whether 0 < x0 < lam, shape
    (n,).  The real jump Re (Psi(x0 on za's side) - flip Psi(x0 on zb's side))
    is 0 on (-inf, 0); on the cut its derivative Phi(x0, W) + Phi(x0, -W)
    vanishes, so it is its value at lam, J = 2 Re Psi(lam) (_lam_terms).

    An end point zb inside a branch guard disk (near_branch) raises
    BranchTooClose unless it is a branch point (at_branch); so does a crossing
    inside one, unless it is an end point on the axis (imag 0.0), where x0 is
    that end point exactly and its side is exact (e.g. the base point 1 at
    lam near 1).  `where(k)` names edge k in errors.
    """
    lv = lam.value
    up_a, up_b = za.imag >= 0.0, zb.imag >= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        x0 = np.where(zb.imag == 0.0, zb.real,
                      za.real + (zb.real - za.real) * (za.imag / (za.imag - zb.imag)))
    x0 = np.where(up_a != up_b, x0, np.inf)
    at_end = (za.imag == 0.0) | (zb.imag == 0.0)
    near, at = _branch_guards(np.concatenate((zb, x0)), lam)
    n = len(zb)
    for what, pts, bad in (("end point", zb, near[:n] & ~at[:n]),
                           ("real-axis crossing", x0, near[n:] & ~at_end)):
        if bad.any():
            k = np.flatnonzero(bad)[0]
            raise BranchTooClose(f"{where(k)}: {what} {pts[k]} lies in "
                                 f"{guard_disk(pts[k], lam)}")
    cut = (0.0 < x0) & (x0 < lv)
    return np.where(cut | (x0 < -1.0 / lv), -1.0, 1.0), cut


def _ray(z, lam: Lambda, norm: Normalization):
    """W and Psi at the points z, of shapes (n,) and (n, 3), by one _carlson
    call.

    W = sqrt(z - lam) sqrt(z) sqrt(z + 1/lam), each root principal: the root
    of the curve with cuts (0, lam) and (-inf, -1/lam).  With
    A = 2 R_F(z - lam, z, z + 1/lam) and B = (2/3) R_D(z - lam, z + 1/lam, z),
    the integrals of dt/W and dt/(t W) along the horizontal ray from z to
    +inf (DLMF 19.16, 19.29), Psi = s (-2 B - 2 W/z, 2 i W/z, -2 A) is an
    antiderivative of Phi(z, W) off (-inf, lam], since
    d(w/z)/dz = (1 + z^2)/(2 z w) on the curve.  Points on the real axis give
    the limits from above.
    """
    z = np.asarray(z, dtype=complex) + 0.0     # imaginary parts -0.0 -> +0.0
    lv = lam.value
    w = np.sqrt(z - lv) * np.sqrt(z) * np.sqrt(z + 1.0 / lv)
    rf, rd = _carlson(z - lv, z + 1.0 / lv, z)
    s = normalization_scale(norm)
    return w, s * np.stack([-4.0 / 3.0 * rd - 2.0 * w / z, 2j * w / z, -4.0 * rf], axis=-1)


def _mirror(psi):
    """Psi at the conjugate points: the data have real coefficients, so
    Psi(conj z) = (conj Psi1, -conj Psi2, conj Psi3)(z) off the real axis."""
    return np.conj(psi) * [1.0, -1.0, 1.0]


@functools.lru_cache(maxsize=256)
def _lam_terms(norm: Normalization) -> np.ndarray:
    """Rows C = 2 Re (Psi(lam) - Psi(1)), the sheet_connection, and the jump
    J = 2 Re Psi(lam) of a crossing of the cut (0, lam) (_crossings), from
    one _ray call at [1, lam]; read-only."""
    _, psi = _ray([BASE_POINT, norm.lam.value], norm.lam, norm)
    terms = 2.0 * np.stack((psi[1].real - psi[0].real, psi[1].real))
    terms.setflags(write=False)
    return terms


def sheet_connection(lam, norm: Normalization) -> np.ndarray:
    """The point reflection C of the deck involution: x(z, -w) = C - x(z, w).

    w -> -w negates Phi, and C is the image of the second base-point lift
    (1, -w0).  The segment [1, lam] holds no other branch point; out to lam
    and back on the other sheet, it joins the two lifts in two equal halves,
    so C = 2 x(lam) (_lam_terms).  At lam = 1 both lifts are the branch
    point and C = 0.
    """
    _matched_lambda(lam, norm)
    return _lam_terms(norm)[0].copy()


@dataclass(frozen=True)
class SurfacePoint:
    """An immersed position together with its source point on the cover."""

    position: np.ndarray
    source: CurvePoint

    def __post_init__(self):
        p = np.asarray(self.position, dtype=float)
        if p.shape != (3,) or not np.all(np.isfinite(p)):
            raise ValueError("position must be a finite 3-vector")
        p.setflags(write=False)
        object.__setattr__(self, "position", p)


def _immerse(lam: Lambda, norm: Normalization, targets, winding: int = 0):
    """immerse's sheet +1 images of the targets as arrays: positions, shape
    (n, 3), and their continued roots."""
    targets = np.asarray(targets, dtype=complex) + 0.0
    sweep = _sweep_radii(targets, lam, winding).astype(complex)

    def where(k) -> str:
        return f"lam = {lam.value!r}: target {targets[k]} (winding {winding})"

    flip, cut = _crossings(sweep, targets, lam, where)
    roots, psi = _ray(np.concatenate(([BASE_POINT], targets)), lam, norm)
    pos = (flip[:, None] * psi[1:] - psi[0]).real
    pos[cut] += _lam_terms(norm)[1]
    t1, t3 = _raw_periods(lam.value)
    pos += winding * normalization_scale(norm) * np.array([t1, 0.0, t3])
    return pos, flip * roots[1:]


def _sheet(lam: Lambda, sheet_sign) -> int:
    """sheet_sign as the int +1 or -1; ValueError naming lam and the value
    for any other."""
    if sheet_sign not in (1, -1):
        raise ValueError(f"lam = {lam.value!r}: sheet_sign must be +1 or -1, not {sheet_sign!r}")
    return int(sheet_sign)


def immerse(lam, norm: Normalization, targets, *, sheet_sign: int = +1,
            winding: int = 0) -> list[SurfacePoint]:
    """Immerse targets on the lifts of their routes from the base point
    z0 = 1 (route_vertices, winding number `winding` about the origin).

    A route crosses (-inf, lam] at most where its sweep leaves the axis, for
    a target below it; winding adds winding T, T in closed form.  Sheet +1
    starts on the principal root W(1) at z0 (at lam = 1, where z0 is a
    branch point, the base point itself is (1, 0) with image 0).  Sheet -1
    is not integrated: it returns the sheet partners (z, -w) at C - x, C the
    sheet_connection.  Targets on the real axis are limits from above.  A
    sheet_sign other than +1 or -1 raises ValueError.
    """
    lam = _matched_lambda(lam, norm)
    sheet_sign = _sheet(lam, sheet_sign)
    targets = np.array([complex(t) for t in targets], dtype=complex) + 0.0
    pos, w = _immerse(lam, norm, targets, winding)
    if sheet_sign < 0:
        pos, w = sheet_connection(lam, norm) - pos, -w
    return [SurfacePoint(p, CurvePoint(z, wk, lam)) for p, z, wk in zip(pos, targets, w)]


def _lift_images(lam: Lambda, norm: Normalization, z, w) -> np.ndarray:
    """Images, shape (n, 3), of the lifts (z, w) on either sheet: immerse's
    sheet +1 image x where its root is w, else its partner's C - x, with C
    the sheet_connection.  ValueError if neither root is within
    1e-6 (1 + |w|) of w."""
    w = np.asarray(w, dtype=complex)
    pos, root = _immerse(lam, norm, z)
    plus, minus = np.abs(root - w), np.abs(root + w)
    bad = np.minimum(plus, minus) > 1e-6 * (1.0 + np.abs(w))
    if bad.any():
        raise ValueError(f"no immersion sheet matches the requested root at "
                         f"z = {complex(np.ravel(z)[np.argmax(bad)])}")
    return np.where((plus <= minus)[:, None], pos, sheet_connection(lam, norm) - pos)


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodVector:
    """Real period of the translation cycle and of the companion cycle."""

    translation: np.ndarray
    companion: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float)
        c = np.asarray(self.companion, dtype=float)
        t.setflags(write=False)
        c.setflags(write=False)
        nt = float(np.linalg.norm(t))
        if nt <= 0.0:
            raise ValueError("translation period must be nonzero")
        if float(np.linalg.norm(c)) >= 1e-6 * nt:
            raise ValueError("companion cycle period is not negligible against |T|")
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "companion", c)


def companion_cycle_vertices(lam):
    """The circle through -1/(2 lam) and 1.5 lam, as 256 chords closed exactly
    (last vertex = first): it encloses exactly 0 and lam, and crosses the
    axis at least half a gap from every branch point."""
    lv = as_lambda(lam).value
    center = 0.75 * lv - 0.25 / lv
    radius = 0.75 * lv + 0.25 / lv
    verts = center + radius * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 257))
    verts[-1] = verts[0]
    return verts


def translation_cycle_vertices(lam):
    """The circle through lam/2 and -1.5/lam, counterclockwise as 128 chords
    from and back to exactly lam/2: it encloses exactly 0 and -1/lam, and
    crosses the axis at least half a gap from every branch point.  Its lift
    from the principal root at lam/2 closes, with real period T."""
    lv = as_lambda(lam).value
    center = 0.25 * lv - 0.75 / lv
    radius = 0.25 * lv + 0.75 / lv
    verts = center + radius * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 129))
    verts[0] = verts[-1] = 0.5 * lv
    return verts


def cycle_real_period(vertices, lam, norm: Normalization):
    """Real period of the lift of a closed polyline from the principal root at
    its first vertex; verifies that the lift closes.

    The chord sum of Re sigma_k (flip_k Psi_k+1 - Psi_k), sigma_k+1 = flip_k
    sigma_k, telescopes to Re (sigma_n Psi_n - sigma_0 Psi_0), one _ray call
    at the two ends, plus sigma_k J for each chord k across the cut (0, lam).
    A lift that does not close (odd number of branch points enclosed) raises
    QuadratureFailure, a chord that ends, or crosses the axis, in a guard disk
    BranchTooClose (_crossings), and a vertex not finite, or no vertex,
    ValueError (_finite_moduli).
    """
    lam = _matched_lambda(lam, norm)
    verts = np.asarray(vertices, dtype=complex)
    if len(verts) == 0:
        raise ValueError(f"lam = {lam.value!r}: a cycle needs at least one vertex, not none")
    _finite_moduli(verts, lam, "cycle point")

    def where(k) -> str:
        return f"lam = {lam.value!r}, cycle chord {verts[k]} -> {verts[k + 1]}"

    flip, cut = _crossings(verts[:-1], verts[1:], lam, where)
    roots, psi = _ray(verts[[0, -1]], lam, norm)
    seed = 1.0 if (principal_w(verts[0], lam) * roots[0].conjugate()).real >= 0.0 else -1.0
    sign = np.cumprod(np.concatenate(([seed], flip)))
    closure = abs(sign[-1] * roots[-1] - sign[0] * roots[0])
    if closure > 1e-7 * (1.0 + abs(roots[0])):
        raise QuadratureFailure(
            f"lam = {lam.value!r}: cycle lift failed to close "
            f"(|w_end - w_start| = {closure:.3e}); "
            "the cycle encloses an odd number of branch points"
        )
    return (sign[-1] * psi[1] - sign[0] * psi[0]).real + (sign[:-1] @ cut) * _lam_terms(norm)[1]


@functools.lru_cache(maxsize=256)
def _period_vectors_cached(norm: Normalization) -> PeriodVector:
    t1, t3 = _raw_periods(norm.lam.value)
    s = normalization_scale(norm)
    t = np.array([s * t1, 0.0, s * t3])
    cycle = companion_cycle_vertices(norm.lam)
    c = cycle_real_period(cycle, norm.lam, norm)
    if np.linalg.norm(c) >= 1e-6 * np.linalg.norm(t):
        raise QuadratureFailure(
            f"lam = {norm.lam.value!r}: companion cycle period is "
            f"{np.linalg.norm(c) / np.linalg.norm(t):.2e} |T|, not below 1e-6 |T| "
            f"(cycle of {len(cycle) - 1} chords about 0 and lam from {cycle[0]})")
    return PeriodVector(t, c)


def period_vectors(lam, norm: Normalization) -> PeriodVector:
    """The translation period T in closed form (the lift of a circle
    enclosing the branch points 0 and -1/lam) and the companion cycle's real
    period, its 256 chords telescoped by cycle_real_period to the cycle's
    two ends.  A companion period not below 1e-6 |T| raises QuadratureFailure."""
    _matched_lambda(lam, norm)
    return _period_vectors_cached(norm)


def vertical_end_spacing(lam, norm: Normalization) -> float:
    """Vertical distance between adjacent planar ends, s T3 / 2.

    x3 is constant on the real intervals (0, lam) and (-inf, -1/lam), which
    run into the planar ends z = 0 and z = infinity; their heights differ by
    half the vertical period.
    """
    return normalization_scale(norm) * 0.5 * _raw_periods(_matched_lambda(lam, norm).value)[1]


# ---------------------------------------------------------------------------
# grid immersion (shared by sweeps and meshing)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridImmersion:
    """Immersion of a log-polar grid on one sheet of the cover.

    Every vertex is on the lift of the grid path from the base point: the
    stem to vertex (0, 0), north up the western column, then east along its
    row (winding 0 for open grids).  `angles` holds the continued angle of
    each column, so angles[j] is also the correct helicoid branch argument
    for column j.
    """

    lam: Lambda
    norm: Normalization
    sheet_sign: int
    radii: np.ndarray
    angles: np.ndarray
    z: np.ndarray
    w: np.ndarray
    positions: np.ndarray
    closed: bool

    @property
    def n_rad(self) -> int:
        return len(self.radii)

    @property
    def n_col(self) -> int:
        return len(self.angles)

    @property
    def sheet_partner(self) -> "GridImmersion":
        """The other sheet's grid, by the deck involution w -> -w: roots -w
        and positions C - positions, with C the sheet_connection."""
        w, pos = -self.w, sheet_connection(self.lam, self.norm) - self.positions
        w.setflags(write=False)
        pos.setflags(write=False)
        return dataclasses.replace(self, sheet_sign=-self.sheet_sign, w=w, positions=pos)

    def flat_points(self):
        """(z, position) pairs flattened, excluding the duplicated seam column."""
        stop = self.n_col - 1 if self.closed else self.n_col
        return self.z[:, :stop].ravel(), self.positions[:, :stop].reshape(-1, 3)


def _half_offset_radii(r_min: float, r_max: float, n_rad: int, n_ang: int, lam: Lambda):
    step = (math.log(r_max) - math.log(r_min)) / n_rad
    radii = np.exp(math.log(r_min) + (np.arange(n_rad) + 0.5) * step)
    # shift the rings out until each is max(0.02 step, 4 GUARD_RATIO) in log r
    # from lam and 1/lam, and its chords cross the axis 4 guard radii from each
    # branch point; a ring past the largest float is inf, for _finite_moduli
    moduli, guards = np.abs(branch_points(lam).finite), 4.0 * np.array(delta_branch(lam))
    clear, chord = max(0.02 * step, 4.0 * GUARD_RATIO), math.cos(math.pi / n_ang)
    for _ in range(4):
        if (np.min(np.abs(np.log(radii)[:, None] - np.log(moduli[1:]))) >= clear
                and np.all(np.abs(chord * radii[:, None] - moduli) >= guards)):
            return radii
        with np.errstate(over="ignore"):
            radii = radii * math.exp(0.137 * step)
    raise PathBlocked(f"lam = {lam.value!r}: could not place grid rings clear of the branch "
                      f"points, r_min = {r_min!r}, r_max = {r_max!r}")


def _north_then_east(steps, ufunc):
    """Accumulate, in place, per-vertex steps on a grid (each on the edge into
    its vertex) north up the western column, then east along every row."""
    ufunc.accumulate(steps[:, 0], axis=0, out=steps[:, 0])
    return ufunc.accumulate(steps, axis=1, out=steps)


def _grid_lift(lam: Lambda, zs, sheet_sign: int):
    """Root signs sigma and signed crossing counts j, each of shape
    (n_rad, n_col), of the lifts of the grid paths to the vertices zs: the
    stem, a chord below the axis from the base point to vertex (0, 0), then
    north up the western column and east along a row.  Vertex v of sheet +1
    lies on the root sigma_v W_v at Re sigma_v Psi_v - Re Psi(1) + j_v J: flips
    multiply, and sigma_before adds, per crossing of the cut (0, lam)
    (_crossings), along the paths (_north_then_east).  Errors from an edge
    name lam, sheet_sign, the edge, the branch point and its guard radius."""
    n_rad, n_col = zs.shape
    # the stem, then the grid edges: the western column, then row by row
    idx = np.arange(n_rad * n_col).reshape(n_rad, n_col)
    a = np.concatenate((idx[:-1, 0], idx[:, :-1].ravel()))
    b = np.concatenate((idx[1:, 0], idx[:, 1:].ravel()))

    def where(k) -> str:
        head = f"lam = {lam.value!r}, sheet {sheet_sign:+d}, "
        if k == 0:
            return head + "stem to grid vertex (0, 0)"
        (i, j), (i2, j2) = divmod(int(a[k - 1]), n_col), divmod(int(b[k - 1]), n_col)
        kind = "radial" if j == j2 else "angular"
        return head + f"{kind} grid edge ({i}, {j}) -> ({i2}, {j2})"

    z, ends = zs.ravel(), np.concatenate(([0], b))     # ends[k]: the vertex edge k leads to
    flip, cut = _crossings(np.concatenate(([BASE_POINT], z[a])), z[ends], lam, where)
    sigma = np.empty(n_rad * n_col)
    sigma[ends] = flip
    sigma = _north_then_east(sigma.reshape(n_rad, n_col), np.multiply)
    j = np.empty(n_rad * n_col)         # sigma_before on a crossing of (0, lam), else 0
    j[ends] = sigma.flat[ends] * flip * cut
    return sigma, _north_then_east(j.reshape(n_rad, n_col), np.add)


def immerse_grid(lam, norm: Normalization, *, r_min: float, r_max: float,
                 n_rad: int, n_ang: int, sheet_sign: int = +1,
                 closed: bool = False) -> GridImmersion:
    """Immerse a half-offset log-polar grid on the lifts of its grid paths.

    The grid avoids the real axis (angles are offset by half a step) and the
    branch points (radii are shifted if a ring lands on a branch modulus, or
    the axis crossing of its chords on a branch point, else PathBlocked names
    lam and both radii).  The angles of the lower half are the exact
    negatives of the upper half's, and its z are built as conjugates.  With
    closed=True an extra seam column at western angle + 2 pi is appended;
    for parameter bands where the full circuit is a translation period the
    seam column sits exactly one period from the first column.  The radii
    must be finite with 0 < r_min < r_max, and every ring's curve polynomial
    finite (_finite_moduli), or ValueError names lam and both radii.

    Each vertex takes its root sign and its count of cut crossings from the
    lift of its grid path (_grid_lift).  One _ray call evaluates the base
    point, the upper half and the seam; the data have real coefficients, so
    the lower half takes conj W and _mirror(Psi) of the upper half.  Only
    sheet +1 is computed; sheet -1 is its sheet_partner.  A sheet_sign other
    than +1 or -1 raises ValueError.  Errors from an edge name lam, the
    requested sheet, the edge, the branch point and its guard radius.
    """
    lam = _matched_lambda(lam, norm)
    sheet_sign = _sheet(lam, sheet_sign)
    if n_ang % 2 != 0 or n_ang < 8 or n_rad < 2:
        raise ValueError("need even n_ang >= 8 and n_rad >= 2")
    refusal = (f"grid radii need finite 0 < r_min < r_max and rings with a finite curve "
               f"polynomial, not r_min = {r_min!r}, r_max = {r_max!r} (lam = {lam.value!r})")
    if not (math.isfinite(r_min) and math.isfinite(r_max) and 0.0 < r_min < r_max):
        raise ValueError(refusal)
    radii = _half_offset_radii(r_min, r_max, n_rad, n_ang, lam)
    _finite_moduli(radii, lam, "ring", refusal)
    half, dtheta = n_ang // 2, 2.0 * math.pi / n_ang
    angles = -math.pi + (np.arange(n_ang + (1 if closed else 0)) + 0.5) * dtheta
    angles[:half] = -angles[n_ang - 1:half - 1:-1]
    upper = radii[:, None] * np.exp(1j * angles[None, half:])    # with the seam, if closed
    zs = np.concatenate((np.conj(upper[:, half - 1::-1]), upper), axis=1)

    sign, jumps = _grid_lift(lam, zs, sheet_sign)
    ws, psi = _ray(np.concatenate(([BASE_POINT], upper.ravel())), lam, norm)
    ws, base, psi = ws[1:].reshape(n_rad, -1), psi[0].real, psi[1:].reshape(n_rad, -1, 3)
    ws = sign * np.concatenate((np.conj(ws[:, half - 1::-1]), ws), axis=1)
    psi = np.concatenate((_mirror(psi[:, half - 1::-1]), psi), axis=1)
    psi *= sign[..., None]
    pos = psi.real - base + jumps[..., None] * _lam_terms(norm)[1]
    for arr in (radii, angles, zs, ws, pos):
        arr.setflags(write=False)
    grid = GridImmersion(lam=lam, norm=norm, sheet_sign=+1, radii=radii,
                         angles=angles, z=zs, w=ws, positions=pos, closed=closed)
    return grid if sheet_sign > 0 else grid.sheet_partner


@dataclass(frozen=True)
class RadialEdgeAlignment:
    """Continuation-aligned upper neighbour of every radial grid edge of a
    pair of sheet grids, numbered as one: the sheet +1 block, then the sheet
    -1 block, each row-major.

    Continuing from vertex (i, j) of block s to the next ring lands on vertex
    `upper[s, i, j]`, which is (i+1, j) of either block, translated by
    `period_k[s, i, j]` periods.  Where the sign sigma of the root w = sigma W
    is the same at (i, j) and (i+1, j), this is (i+1, j) of block s itself.
    """

    upper: np.ndarray
    period_k: np.ndarray


def radial_edge_alignment(grid: GridImmersion) -> RadialEdgeAlignment:
    """Radial-edge alignment for a sheet +1 grid and its sheet_partner (roots
    -w, positions C - x), read off the lifts of the grid paths (_grid_lift).

    Vertex v of sheet +1 is on the root sigma_v W_v at Re sigma_v Psi_v -
    Re Psi(1) + j_v J.  A radial edge a -> b at a half-offset angle never
    meets the real axis, so it keeps sigma_a and ends at Re sigma_a Psi_b -
    Re Psi(1) + j_a J.  That is the lift over b with root sign sigma_a: sheet
    +1's own vertex b if sigma_b = sigma_a, else its partner (-w[b], C -
    pos[b]), whose count is 1 - j_b, since C = J - 2 Re Psi(1).  With J = -T
    the edge lands k = j_land - j_a periods away.  By the deck involution,
    sheet -1's edge lands on the other block, -k periods away.  A sheet -1
    grid raises ValueError.
    """
    if grid.sheet_sign < 0:
        raise ValueError("radial_edge_alignment takes a sheet +1 grid, not its sheet_partner")
    sigma, j = _grid_lift(grid.lam, grid.z, +1)
    n_rad, n_col = grid.z.shape
    block = n_rad * n_col
    same = sigma[1:] == sigma[:-1]
    b = np.arange(n_col, block).reshape(n_rad - 1, n_col)
    up = np.where(same, b, b + block)
    k = (np.where(same, j[1:], 1.0 - j[1:]) - j[:-1]).astype(int)
    return RadialEdgeAlignment(upper=np.stack((up, np.where(same, b + block, b))),
                               period_k=np.stack((k, -k)))
