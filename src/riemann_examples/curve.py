"""The branched double cover  w^2 = z (z - lam) (z + 1/lam).

For each family parameter lam > 0 this curve is a twice-punctured torus
presented as a two-sheeted cover of the punctured z-plane, branched at
0, lam, -1/lam (and at infinity).  The immersion follows w along its
paths by the branch-cut bookkeeping of its closed form (weierstrass); this
module's deterministic analytic continuation of w along polylines in the
z-plane, nearest-root selection with adaptive bisection, serves the
reference quadrature and the paths it integrates.

The package's one branch guard (near_branch) and one snap (at_branch) live
here, as fixed fractions of the gap from each branch point to the nearest;
_branch_guards finds both in one pass.  So do the torus's elliptic
integrals, Carlson's R_F and R_D (_carlson, on which the closed-form
immersion rests), and its uniformisation by Jacobi's sn (_curve_at), on the
AGM of its modulus (_agm), which the periods share.
"""

from __future__ import annotations

import cmath
import functools
import math
import types
from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousSheet, BranchTooClose

#: |w^2 - rhs| <= CURVE_TOL * (1 + |z|)(lam + |z|)(1/lam + |z|), the size of
#: the terms of the curve polynomial ((1 + |z|)^3 at lam = 1), is required of
#: every curve point.
CURVE_TOL = 1e-10

#: Depth cap for the sign-disambiguating bisection in continue_sheet.
MAX_BISECTION_DEPTH = 40


@dataclass(frozen=True)
class Lambda:
    """Family parameter, a finite positive real."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"family parameter must be finite and > 0, got {self.value!r}")
        object.__setattr__(self, "value", v)

    @property
    def reciprocal(self) -> "Lambda":
        return Lambda(1.0 / self.value)


def as_lambda(lam) -> Lambda:
    return lam if isinstance(lam, Lambda) else Lambda(float(lam))


def curve_rhs(z, lam):
    """Right-hand side z (z - lam) (z + 1/lam); accepts scalars or arrays."""
    lv = as_lambda(lam).value
    return z * (z - lv) * (z + 1.0 / lv)


def curve_residual(z, w, lam):
    """Relative residual of w^2 = z (z - lam)(z + 1/lam); scalars or arrays."""
    lam = as_lambda(lam)
    lv, a = lam.value, abs(z)
    return abs(w * w - curve_rhs(z, lam)) / ((1.0 + a) * (lv + a) * (1.0 / lv + a))


def curve_rhs_derivative(z, lam):
    """d/dz of the right-hand side, used to seed departures from branch points."""
    lv = as_lambda(lam).value
    c = lv - 1.0 / lv
    return 3.0 * z * z - 2.0 * c * z - 1.0


@dataclass(frozen=True)
class BranchPoints:
    """Finite branch points, the gap from each to its nearest neighbour, and a
    flag for the odd-order point at infinity."""

    finite: tuple
    gaps: tuple
    at_infinity: bool = True

    def nearest(self, z) -> int:
        """Index of the finite branch point nearest the point z."""
        return min(range(len(self.finite)), key=lambda k: abs(z - self.finite[k]))


def branch_points(lam) -> BranchPoints:
    return _branch_points(as_lambda(lam).value)


@functools.lru_cache(maxsize=256)
def _branch_points(lv: float) -> BranchPoints:
    return BranchPoints(finite=(0.0 + 0.0j, complex(lv), complex(-1.0 / lv)),
                        gaps=(min(lv, 1.0 / lv), lv, 1.0 / lv))


#: Guard radius of a finite branch point, as a fraction of its gap.
GUARD_RATIO = 1e-6

#: Snapping tolerance of a finite branch point, as a fraction of its gap.
SNAP_RATIO = 1e-12


def delta_branch(lam) -> tuple:
    """Guard radius of each finite branch point: GUARD_RATIO times its gap."""
    return tuple(GUARD_RATIO * g for g in branch_points(lam).gaps)


def near_branch(z, lam):
    """Mask of the points inside the guard disk of a finite branch point, the
    one branch guard of paths, routes, grids and cycles."""
    return _branch_guards(z, lam)[0]


def at_branch(z, lam):
    """Mask of the points within the snapping tolerance of a finite branch
    point: such a point is taken to be the branch point itself."""
    return _branch_guards(z, lam)[1]


def _branch_guards(z, lam) -> tuple:
    """The masks near_branch(z, lam) and at_branch(z, lam), in one pass of one
    distance |z - b| per finite branch point."""
    bp = branch_points(lam)
    near, at = np.zeros(np.shape(z), dtype=bool), np.zeros(np.shape(z), dtype=bool)
    for b, gap, delta in zip(bp.finite, bp.gaps, delta_branch(lam)):
        d = np.abs(z - b)
        near |= d < delta
        at |= d <= SNAP_RATIO * gap
    return near, at


def guard_disk(z, lam) -> str:
    """Names, for errors, the guard disk of the finite branch point nearest z."""
    bp = branch_points(lam)
    k = bp.nearest(z)
    return f"the guard disk of branch point {bp.finite[k]} (radius {delta_branch(lam)[k]:.2e})"


def principal_w(z, lam):
    """Principal square root of the curve polynomial.

    Used only to seed a sheet at a base point; everywhere else the sheet is
    defined by continuation.
    """
    rhs = curve_rhs(z, lam)
    if np.ndim(rhs) == 0:
        return cmath.sqrt(rhs)
    return np.sqrt(rhs.astype(complex))


#: Largest batch that _carlson evaluates point by point (see there).
_SMALL_BATCH = 16

#: What _carlson_body takes from numpy, for one Python complex.
_COMPLEX_OPS = types.SimpleNamespace(sqrt=cmath.sqrt, maximum=max, all=bool)


def _carlson(x, y, z):
    """Carlson's R_F(x, y, z) and R_D(x, y, z), elementwise, by duplication
    (DLMF 19.36(i); B. C. Carlson, Numer. Algorithms 10 (1995)).

    One _carlson_body runs over the arrays, or, for batches of at most
    _SMALL_BATCH points, one per point over Python complex numbers with
    cmath's roots: numpy's fixed cost of about 130 us per call outweighs
    the arithmetic of a few points.  On a 2-core x86-64 machine one point
    took 10 us that way and 16 points 117 us, against 127 and 137 us
    through numpy, which was faster from about 20 points on.  The two
    paths agree to a few ulp, not bitwise; every batch of more points is
    bitwise what one array body gives.
    """
    x, y, z = np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in (x, y, z)))
    if x.size > _SMALL_BATCH:
        return _carlson_body(x, y, z, np)
    out = np.array([_carlson_body(*p, _COMPLEX_OPS) for p in
                    zip(x.ravel().tolist(), y.ravel().tolist(), z.ravel().tolist())],
                   dtype=complex).reshape(x.shape + (2,))
    return out[..., 0], out[..., 1]


def _carlson_body(x, y, z, xp):
    """R_F(x, y, z) and R_D(x, y, z), with sqrt, maximum and all from xp:
    numpy over arrays, _COMPLEX_OPS over Python complex numbers (whose **
    can raise OverflowError, so the cube is a product).

    Both share the duplicated arguments x_m, y_m, z_m; R_F(x_0) = R_F(x_m)
    and R_D(x_0) = 4^-m R_D(x_m) + 3 sum_k 4^-k / (sqrt(z_k) (z_k + lm_k)),
    with lm_k = sqrt(x_k y_k) + sqrt(y_k z_k) + sqrt(z_k x_k) (principal roots).
    The loop stops once every argument lies within 1e-3 |mf| of the mean mf
    of x, y and z (so within 1.6e-3 |md| of the mean md of x, y, 3z), where
    the fifth-order series below are exact to roundoff; a step quarters that
    distance, so it is taken once.  Arguments on the negative real axis with
    imaginary part +0.0 give the limit from above.
    """
    tail, scale, mf = 0.0, 1.0, (x + y + z) / 3.0
    dev = xp.maximum(xp.maximum(abs(x - mf), abs(y - mf)), abs(z - mf))
    for _ in range(100):
        if xp.all(dev <= 1e-3 * abs(mf)):
            break
        sx, sy, sz = xp.sqrt(x), xp.sqrt(y), xp.sqrt(z)
        lm = sx * sy + sy * sz + sz * sx
        tail = tail + scale / (sz * (z + lm))
        scale *= 0.25
        x, y, z = 0.25 * (x + lm), 0.25 * (y + lm), 0.25 * (z + lm)
        mf, dev = (x + y + z) / 3.0, 0.25 * dev
    a, b = 1.0 - x / mf, 1.0 - y / mf
    c = -a - b
    e2, e3 = a * b - c * c, a * b * c
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / xp.sqrt(mf)
    md = (x + y + 3.0 * z) / 5.0
    a, b = 1.0 - x / md, 1.0 - y / md
    c = -(a + b) / 3.0
    e2, e3 = a * b - 6.0 * c * c, (3.0 * a * b - 8.0 * c * c) * c
    e4, e5 = 3.0 * (a * b - c * c) * c * c, a * b * (c * c * c)
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return rf, scale * series / (md * xp.sqrt(md)) + 3.0 * tail


def _agm(lam_value: float) -> list:
    """The triples (a_n, b_n, c_n) of the AGM of 1 and k' = lam/sqrt(1 + lam^2),
    k^2 = 1/(1 + lam^2), until c_n <= 1e-17 a_n (DLMF 19.8.1).  Seeding k'
    directly and taking c_n = c_(n-1)^2 / (4 a_n) keeps every term to full
    relative precision for lam in [1e-6, 1e6]."""
    h = math.hypot(1.0, lam_value)
    a, b, c = 1.0, lam_value / h, 1.0 / h
    seq = [(a, b, c)]
    while c > 1e-17 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        c = 0.25 * c * c / a
        seq.append((a, b, c))
    return seq


def _jacobi(u, lam_value: float):
    """sn, cn and dn of real u at m = 1/(1 + lam^2).

    u is reduced to t in [0, K/2] by the antiperiod 2K of sn and cn, parity
    and the quarter-period shift (sn, cn, dn)(K - t) = (cd, k' sd, k' nd)(t)
    (DLMF 22.4.3).  The descending Landen transformation (DLMF 22.7(i)) then
    runs along the AGM of _agm, with moduli k_n = c_n/a_n and
    1 - k_n = b_(n-1)/a_n, from (sin, cos, 1) at a_N t.  It uses products,
    quotients and sums of positive terms only, so no digits are lost as
    k -> 1; the arcsin recurrence of DLMF 22.20(ii) loses up to 8e-12 at
    lam = 1e-6.
    """
    seq = _agm(lam_value)
    quarter = 0.5 * math.pi / seq[-1][0]
    n = np.rint(u / (2.0 * quarter))
    r = u - 2.0 * quarter * n
    near = np.abs(r) > 0.5 * quarter
    t = np.where(near, quarter - np.abs(r), np.abs(r))
    s, c, d = np.sin(seq[-1][0] * t), np.cos(seq[-1][0] * t), 1.0
    for (_, b, _), (a1, _, c1) in zip(seq[-2::-1], seq[:0:-1]):
        ss, k = s * s, c1 / a1
        den = 1.0 + k * ss
        s, c, d = (1.0 + k) * s / den, c * d / den, (c * c + (b / a1) * ss) / den
    kc, sign = seq[0][1], 1.0 - 2.0 * (n % 2)
    return (sign * np.copysign(np.where(near, c / d, s), r), sign * np.where(near, kc * s / d, c),
            np.where(near, kc / d, d))


def _curve_at(a, y, lam_value: float):
    """The curve point (z, w) at the torus coordinate v = a + i y, for real a, y.

    v = sqrt(lam + 1/lam) A / 2, with A = 2 R_F the integral of dt/W from z to
    +inf, inverts to z = (lam + 1/lam) dn^2/sn^2 and w = -dz/dA =
    (lam + 1/lam)^(3/2) cn dn / sn^3 at (v | m), m = 1/(1 + lam^2), periods 2K
    and 2 i K'.  sn, cn and dn of v come from _jacobi at (a | m) and
    (y | 1 - m), the latter as m(1/lam), by the addition theorems with
    Jacobi's imaginary transformation (DLMF 22.8(i), 22.6(iv)).  The form
    -1/lam + (lam + 1/lam)/sn^2 of z would cancel digits as lam -> 0.
    """
    s, c, d = _jacobi(a, lam_value)
    s1, c1, d1 = _jacobi(y, 1.0 / lam_value)
    m = 1.0 / (1.0 + lam_value * lam_value)
    sn = s * d1 + 1j * c * d * s1 * c1
    cn = c * c1 - 1j * s * d * s1 * d1
    dn = d * c1 * d1 - 1j * m * s * c * s1
    den, scale = c1 * c1 + m * s * s * s1 * s1, lam_value + 1.0 / lam_value
    return scale * (dn / sn) ** 2, scale ** 1.5 * den * cn * dn / sn ** 3


@dataclass(frozen=True)
class CurvePoint:
    """A point (z, w) on the cover with its family parameter."""

    z: complex
    w: complex
    lam: Lambda

    def __post_init__(self):
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "w", complex(self.w))
        object.__setattr__(self, "lam", as_lambda(self.lam))
        resid = curve_residual(self.z, self.w, self.lam)
        if not resid <= CURVE_TOL:
            raise ValueError(
                f"(z, w) = ({self.z}, {self.w}) is not on the curve for "
                f"lam = {self.lam.value} (relative residual {resid:.3e})"
            )

    @property
    def sheet_partner(self) -> "CurvePoint":
        return CurvePoint(self.z, -self.w, self.lam)


@dataclass(frozen=True)
class SheetedPath:
    """A polyline in the z-plane with a continuously continued w per vertex.

    Consecutive (z, w) pairs always satisfy the strict sign-separation
    |w_{i+1} - w_i| < |w_{i+1} + w_i|, so the sheet is unambiguous along
    every segment.
    """

    vertices: np.ndarray
    w_values: np.ndarray
    lam: Lambda

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=complex)
        w = np.asarray(self.w_values, dtype=complex)
        if v.shape != w.shape or v.ndim != 1 or v.size < 1:
            raise ValueError("vertices and w_values must be equal-length 1-d arrays")
        v.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "w_values", w)
        object.__setattr__(self, "lam", as_lambda(self.lam))

    def reversed(self) -> "SheetedPath":
        return SheetedPath(self.vertices[::-1].copy(), self.w_values[::-1].copy(), self.lam)


def _nearest_root(w_ref: complex, rhs_root: complex) -> complex:
    """Of the two square roots +-rhs_root, the one closer to w_ref."""
    return rhs_root if abs(rhs_root - w_ref) <= abs(-rhs_root - w_ref) else -rhs_root


def _continue_segment(z0, w0, z1, lam, depth, out_z, out_w, guard):
    """Append the continuation of (z0, w0) to z1, bisecting while the sign
    choice is not clearly separated (|dw| < 0.5 |w0 + w1|); guard([zm])
    checks each bisection point zm."""
    if depth > MAX_BISECTION_DEPTH:
        raise AmbiguousSheet(
            f"sign choice unresolved after {MAX_BISECTION_DEPTH} bisections near z = {z1}"
        )
    w1 = _nearest_root(w0, cmath.sqrt(curve_rhs(z1, lam)))
    if abs(w1 - w0) < 0.5 * abs(w1 + w0):
        out_z.append(z1)
        out_w.append(w1)
        return w1
    zm = 0.5 * (z0 + z1)
    guard([zm])
    wm = _continue_segment(z0, w0, zm, lam, depth + 1, out_z, out_w, guard)
    return _continue_segment(zm, wm, z1, lam, depth + 1, out_z, out_w, guard)


def continue_sheet(path_vertices, w_start, lam) -> SheetedPath:
    """Analytically continue w along a polyline by nearest-root selection.

    Segments are subdivided adaptively until each step's sign choice is
    unambiguous; the returned path contains the refined vertex list.

    Raises BranchTooClose if any (refined) vertex falls inside the guard
    disk of a finite branch point (near_branch), and AmbiguousSheet if the
    bisection depth cap is hit.
    """
    lam = as_lambda(lam)
    verts = [complex(v) for v in np.asarray(path_vertices, dtype=complex)]
    if len(verts) < 1:
        raise ValueError("path must contain at least one vertex")
    w0 = CurvePoint(verts[0], w_start, lam).w       # ValueError unless on the curve

    def guard(zs):
        near = np.flatnonzero(near_branch(np.asarray(zs), lam))
        if near.size:
            z = zs[near[0]]
            raise BranchTooClose(f"lam = {lam.value!r}: vertex {z} lies in {guard_disk(z, lam)}")

    guard(verts)
    out_z = [verts[0]]
    out_w = [w0]
    w = w0
    for z_prev, z_next in zip(verts[:-1], verts[1:]):
        if z_next == z_prev:
            continue
        w = _continue_segment(z_prev, w, z_next, lam, 0, out_z, out_w, guard)
    return SheetedPath(np.array(out_z), np.array(out_w), lam)


@dataclass(frozen=True)
class BranchDeparture:
    """Germ of w on a punctured neighbourhood of a finite branch point.

    Near a finite branch point b the curve behaves like
    w ~ sign * sqrt(p'(b)) * sqrt(z - b), both square roots principal, which
    fixes one continuous sheet germ for every departure direction (the only
    seam of the convention is the half-line where z - b is a negative real,
    pinned by the principal branch).  `sign` selects between the two sheets
    meeting at b.
    """

    branch_point: complex
    lam: Lambda = field(repr=False)
    sign: int = +1

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")

    def germ_reference(self, z: complex) -> complex:
        return self.sign * cmath.sqrt(
            curve_rhs_derivative(self.branch_point, self.lam)
        ) * cmath.sqrt(z - self.branch_point)

    def w_at(self, z: complex) -> complex:
        """The root selected by the germ, valid while the linearisation of
        the curve polynomial dominates (|z - b| << branch gap)."""
        return _nearest_root(self.germ_reference(z), cmath.sqrt(curve_rhs(z, self.lam)))


def sheeted_path_from_branch(path_vertices, departure: BranchDeparture) -> SheetedPath:
    """Continuation of a path whose first vertex *is* a finite branch point.

    The first step is seeded by the departure germ; w = 0 is recorded at the
    branch vertex itself.  The remainder of the path is continued normally.
    """
    lam = departure.lam
    verts = [complex(v) for v in np.asarray(path_vertices, dtype=complex)]
    if len(verts) < 2:
        raise ValueError("a branch-seeded path needs at least two vertices")
    b = complex(departure.branch_point)
    bp = branch_points(lam)
    gap = bp.gaps[bp.nearest(b)]
    if abs(verts[0] - b) > SNAP_RATIO * gap:
        raise ValueError("first vertex must coincide with the departure branch point")
    # Walk in toward the branch point so the germ's linearisation is valid.
    step = verts[1] - b
    t = min(1.0, 0.01 * gap / abs(step))
    z_near = b + t * step
    w_near = departure.w_at(z_near)
    tail = continue_sheet([z_near] + verts[1:], w_near, lam)
    verts_out = np.concatenate(([b], tail.vertices))
    w_out = np.concatenate(([0.0j], tail.w_values))
    return SheetedPath(verts_out, w_out, lam)
