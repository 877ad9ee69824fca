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
integrated along its cycle, in one batch of chords, as an independent check.

Only sheet +1 is ever integrated.  The deck involution w -> -w negates Phi,
so sheet -1 is the point reflection x(z, -w) = C - x(z, w), with C = 2 x(lam)
from the segment [1, lam] (sheet_connection).

Point targets, grids, the sheet connection and period cycles are immersed
by one chain immersion, _immerse_chains: a tree of straight edges hanging
off its root (the base point, or a cycle's first vertex), continued from
principal roots and integrated by the quadrature module's one edge
primitive, integrate_edges, in one batch.  The routes of one immerse call
form one tree: their positive real runs lie on a lattice of radii, so they
share that trunk vertex for vertex and each target adds only its own chain.
The scalar make_sheeted_path and path_integral (re-exported here) remain
for edges at a branch point and for reference computations.
"""

from __future__ import annotations

import cmath
import dataclasses
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .curve import (
    BranchDeparture,
    CurvePoint,
    Lambda,
    SheetedPath,
    as_lambda,
    branch_points,
    continue_sheet,
    delta_branch,
    principal_w,
    sheeted_path_from_branch,
)
from .errors import BranchTooClose, PathBlocked, QuadratureFailure, SingularPoint
from .quadrature import (
    TOL_PER_UNIT,
    integrate_edges,
    located,
    near_branch,
    path_integral,
)

#: Base point of every immersion.
BASE_POINT = 1.0 + 0.0j

#: Ratio of the lattice of radii TRUNK_RATIO**k that holds the vertices of
#: every route's positive real run.  One GK15 panel meets the tolerance on
#: a lattice edge away from lam.  The ratio is below 9/8, an eighth being the
#: detour radius about lam = 1, so at lam = 1 the route of every target off
#: the positive real axis leaves the base point through the radius
#: TRUNK_RATIO or 1/TRUNK_RATIO.
TRUNK_RATIO = 2.0 ** 0.125

#: No lattice radius lies at or below TRUNK_FLOOR.  Inside it the integrand
#: grows like 1/|z|^2 or faster, and a lattice edge's share of the tolerance
#: (TOL_PER_UNIT times its length) would fall below the roundoff of its
#: integral; a run that ends inside takes one edge from the last radius.
TRUNK_FLOOR = TRUNK_RATIO ** -48


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


def _raw_periods(lam_value: float) -> tuple:
    """Raw translation period components (T1, T3), in closed form (T2 = 0).

    With e1 = lam, e3 = -1/lam, k^2 = 1/(1 + lam^2) and r = 2/sqrt(lam + 1/lam),
    T3 = 4 r K(k) and T1 = -4 r (e3 K + (e1 - e3)(K - E)).  K = pi / (2 M) with
    M the arithmetic-geometric mean of 1 and k' (DLMF 19.8.1), and
    K - E = K sum 2^(n-1) c_n^2 (DLMF 19.8.2).  Seeding k' = lam/sqrt(1 + lam^2)
    directly, taking c_n = c_(n-1)^2 / (4 a_n) and summing K - E rather than
    subtracting E from K keeps full relative precision for lam in [1e-6, 1e6].
    """
    lv = lam_value
    h = math.hypot(1.0, lv)
    a, b, c = 1.0, lv / h, 1.0 / h
    weight, tail = 0.5, 0.5 * c * c
    while c > 1e-17 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        c = 0.25 * c * c / a
        weight *= 2.0
        tail += weight * c * c
    k = 0.5 * math.pi / a
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


def integrate(path: SheetedPath, norm: Normalization, *,
              singular_start: bool = False, singular_end: bool = False) -> np.ndarray:
    """Real part of the Weierstrass contour integral along the path."""
    val = path_integral(path, weierstrass_integrand(norm),
                        singular_start=singular_start, singular_end=singular_end)
    return val.real.copy()


# ---------------------------------------------------------------------------
# path construction
# ---------------------------------------------------------------------------

def make_sheeted_path(vertices, lam):
    """Build a SheetedPath on sheet +1, detecting branch-point endpoints.

    Returns (path, singular_start, singular_end).  A first vertex at a finite
    branch point is seeded by the +1 departure germ, any other by the
    principal root; a last vertex at a branch point is stored with w = 0 and
    must be integrated with the singular_end flag.
    """
    lam = as_lambda(lam)
    verts = np.asarray(vertices, dtype=complex)
    keep = np.ones(len(verts), dtype=bool)
    keep[1:] = verts[1:] != verts[:-1]
    verts = verts[keep]
    bset = branch_points(lam).finite

    def branch_at(z):
        return min(bset, key=lambda b: abs(z - b)) if _at_branch(z, lam) else None

    b_start = branch_at(verts[0]) if len(verts) > 1 else None
    b_end = branch_at(verts[-1]) if len(verts) > 1 else None
    if len(verts) == 2 and b_start is not None and b_start == b_end:
        # both ends snap to the same branch point: the path is that point
        return SheetedPath([b_start], [0.0j], lam), False, False

    body = verts[:-1] if b_end is not None else verts
    if b_start is not None:
        path = sheeted_path_from_branch(body, BranchDeparture(b_start, lam))
    else:
        path = continue_sheet(body, principal_w(verts[0], lam), lam)
    if b_end is not None:
        path = SheetedPath(np.append(path.vertices, b_end),
                           np.append(path.w_values, 0.0j), lam)
    return path, b_start is not None, b_end is not None


def _detour_radius(b: complex, lam: Lambda) -> float:
    """An eighth of the gap from the branch point b to the nearest other one."""
    return min(abs(b - p) for p in branch_points(lam).finite if p != b) / 8.0


def _safe_detour_radius(b: complex, lam: Lambda) -> float:
    """The detour radius about b, for a route that passes b; PathBlocked if
    the detour would come within 4 guard radii of b."""
    r = _detour_radius(b, lam)
    if r < 4.0 * delta_branch(lam):
        raise PathBlocked(f"branch points too crowded near {b} for a safe detour")
    return r


def _radial_leg(r_from: float, r_to: float, angle: float, lam: Lambda):
    """Vertices (excluding the start) of a radial run at a fixed angle,
    detouring over any branch point sitting strictly inside the run.

    Detour entry and exit points may overshoot the run's endpoints; the leg
    then returns to its endpoint along the ray, which no longer crosses the
    branch point.
    """
    if r_from == r_to:
        return []
    direction = cmath.exp(1j * angle)
    lo, hi = sorted((r_from, r_to))
    eps = delta_branch(lam)
    crossings = []
    for b in branch_points(lam).finite:
        if abs(b) == 0.0:
            continue
        if abs(cmath.exp(1j * cmath.phase(b)) - direction) > 1e-9:
            continue
        rb = abs(b)
        if lo + eps < rb < hi - eps:
            crossings.append((rb, _safe_detour_radius(b, lam)))
    crossings.sort(reverse=bool(r_from > r_to))
    out = []
    sgn = 1.0 if r_to > r_from else -1.0
    for rb, rdet in crossings:
        out.append((rb - sgn * rdet) * direction)
        taus = np.linspace(0.0, math.pi, 9) if sgn < 0 else np.linspace(math.pi, 0.0, 9)
        for tau in taus[1:-1]:
            out.append(rb * direction + rdet * direction * cmath.exp(1j * tau))
        out.append((rb + sgn * rdet) * direction)
    out.append(r_to * direction)
    return out


def _lattice_radii(a: float, b: float, lam: Lambda):
    """The lattice radii TRUNK_RATIO**k strictly between a and b, from a to b,
    above TRUNK_FLOOR and outside the detour radius of lam.

    Near lam the integrand is near-singular and one panel cannot integrate
    an edge; a lattice radius there would only shorten the edge next to lam,
    squeezing its share of the tolerance toward roundoff.  The exception is
    lam = 1, where the base point is the branch point: the edges to the
    radii TRUNK_RATIO**(+-1) are then the shared singular departures.
    """
    lo, hi = sorted((a, b))
    lv = lam.value
    gap = 0.0 if _at_branch(BASE_POINT, lam) else _detour_radius(complex(lv), lam)
    log_q = math.log(TRUNK_RATIO)
    ks = range(math.floor(math.log(lo) / log_q), math.ceil(math.log(hi) / log_q) + 1)
    radii = [complex(r) for r in (TRUNK_RATIO ** k for k in ks)
             if max(lo, TRUNK_FLOOR) < r < hi and abs(r - lv) >= gap]
    return radii if a < b else radii[::-1]


def _lattice_run(r_from: float, r_to: float, lam: Lambda):
    """_radial_leg along the positive real axis, its straight stretches split
    at the lattice radii inside them; the detour over lam and the run's own
    endpoint stay vertices.  Two stretches stay one edge: one that ends at a
    branch point (a target at lam), and the one leaving the base point when
    the base point lies within the detour radius of lam but not at it.
    Split, the edge next to lam would be too short for its share of the
    tolerance to stay above the integrand's roundoff."""
    lv = lam.value
    base_near_lam = (not _at_branch(BASE_POINT, lam)
                     and abs(1.0 - lv) < _detour_radius(complex(lv), lam))
    out, prev = [], complex(r_from)
    for z in _radial_leg(r_from, r_to, 0.0, lam):
        if (prev.imag == 0.0 and z.imag == 0.0 and not near_branch(z, lam)
                and not (base_near_lam and prev == BASE_POINT)):
            out += _lattice_radii(prev.real, z.real, lam)
        out.append(z)
        prev = z
    return out


def _angular_leg(radius: float, a_from: float, a_to: float, lam: Lambda):
    """Chords of at most pi/32 on the circle |z| = radius from a_from to a_to
    (excluding start)."""
    if a_from == a_to:
        return []
    max_step = math.pi / 32.0
    n = max(1, math.ceil(abs(a_to - a_from) / max_step))
    angles = np.linspace(a_from, a_to, n + 1)[1:]
    pts = [radius * cmath.exp(1j * a) for a in angles]
    guard = 2.0 * delta_branch(lam)
    for b in branch_points(lam).finite:
        if abs(abs(b) - radius) < guard:
            ab = cmath.phase(b)
            crossings = [a for a in angles if min(abs(a - ab), abs(a - ab - 2 * math.pi),
                                                  abs(a - ab + 2 * math.pi)) < max_step]
            if crossings and min(abs(radius * cmath.exp(1j * a) - b) for a in crossings) < guard:
                raise PathBlocked(f"angular leg at radius {radius} passes branch point {b}")
    return pts


def route_vertices(target: complex, lam, *, winding: int = 0):
    """Deterministic polyline from the base point to the target.

    Radial run along the positive real axis, then an angular sweep at the
    target radius; optional extra full circuits about the origin are inserted
    at a branch-safe radius.  The winding about the origin of the returned
    route is exactly `winding`.

    The positive real runs put their vertices on the lattice of radii
    TRUNK_RATIO**k, keeping the detour over lam and the run's endpoint, so
    the routes of different targets share their runs vertex for vertex and
    one GK15 panel integrates each lattice edge.  If the sweep would pass
    within a detour radius of lam it runs at a redirected radius on the side
    of the base point, and a radial leg at the target's angle finishes the
    route; only a route that detours around a branch point (or is redirected
    past one) raises PathBlocked when the branch points crowd too closely.
    """
    lam = as_lambda(lam)
    target = complex(target)
    rho = abs(target)
    if rho == 0.0:
        raise SingularPoint("targets at the puncture z = 0 are not immersible")
    dmin = min(abs(target - b) for b in branch_points(lam).finite)
    if not _at_branch(target, lam) and dmin < delta_branch(lam):
        raise PathBlocked(f"target {target} inside the branch guard disk")
    phi_t = cmath.phase(target)
    rho_mid = rho
    if phi_t != 0.0:
        for b in branch_points(lam).finite:
            rb = abs(b)
            if rb == 0.0 or abs(cmath.phase(b)) > 1e-9:
                continue
            if abs(rho - rb) < _detour_radius(b, lam):
                side = 1.0 if 1.0 >= rb else -1.0
                rho_mid = rb + side * 1.5 * _safe_detour_radius(b, lam)
    verts = [BASE_POINT]
    if winding != 0:
        # insert |winding| circuits of the translation cycle: it encloses the
        # two branch points 0 and -1/lam, so the lift closes and each circuit
        # shifts the image by exactly one period
        lv = lam.value
        center = -0.5 / lv
        radius = 0.5 * (lv + 1.0 / lv)
        verts += _lattice_run(1.0, 0.5 * lv, lam)
        sgn = 1.0 if winding > 0 else -1.0
        taus = np.linspace(0.0, sgn * 2.0 * math.pi, 129)[1:]
        for _ in range(abs(winding)):
            verts += [center + radius * cmath.exp(1j * t) for t in taus]
        verts += _lattice_run(0.5 * lv, rho_mid, lam)
    else:
        verts += _lattice_run(1.0, rho_mid, lam)
    verts += _angular_leg(rho_mid, 0.0, phi_t, lam)
    if rho_mid != rho:
        verts += _radial_leg(rho_mid, rho, phi_t, lam)
    verts[-1] = target
    return verts


class _Chains:
    """A tree of straight edges given as chains.

    Vertex 0 is the root.  `chains` holds (anchor, vertices) pairs: each chain
    hangs off the earlier vertex `anchor` and is numbered after the chains
    before it, so every vertex k > 0 has its parent[k] < k.  A cycle is one
    chain rooted at its first vertex.
    """

    def __init__(self, root: complex, chains):
        self.anchors = np.array([anchor for anchor, _ in chains], dtype=int)
        runs = [np.asarray(verts, dtype=complex) for _, verts in chains]
        self.lens = np.array([len(run) for run in runs], dtype=int)
        self.starts = 1 + np.cumsum(self.lens) - self.lens
        self.z = np.concatenate([[root]] + runs)
        self.parent = np.arange(-1, len(self.z) - 1)
        self.parent[self.starts[self.lens > 0]] = self.anchors[self.lens > 0]

    def accumulate(self, steps, ufunc=np.add):
        """steps[0] at the root, then ufunc-accumulated along every chain of
        the per-edge steps[k] (on the edge into vertex k)."""
        out = steps.copy()
        for anchor, start, stop in zip(self.anchors, self.starts, self.starts + self.lens):
            out[start:stop] = ufunc.accumulate(
                np.concatenate((out[anchor][None], steps[start:stop])), axis=0)[1:]
        return out

    def edges(self, fn, w, lam: Lambda, where, branch_path):
        """End roots and real integrals of fn(z, w) dz on the edge into every
        vertex k > 0, continued from the root w[parent[k]] at its start.

        Edges with no end at a finite branch point go through one
        integrate_edges batch.  For the others branch_path(a, k) builds the
        sheeted path of the edge from vertex a to vertex k, with its
        singular-start and singular-end flags, for path_integral's
        square-root substitution.  `where(k)` names the edge into vertex k
        in errors.
        """
        z, parent = self.z, self.parent
        at = _at_branch(z, lam)
        special = at[1:] | at[parent[1:]]
        regular = 1 + np.flatnonzero(~special)
        w_end = w.copy()
        vals = np.zeros((len(z), 3))
        w_end[regular], vals[regular] = integrate_edges(
            fn, z[parent[regular]], w[parent[regular]], z[regular], lam,
            lambda j: where(regular[j]))
        for k in 1 + np.flatnonzero(special):
            with located(where(k)):
                path, ss, se = branch_path(parent[k], k)
                vals[k] = path_integral(path, fn, singular_start=ss, singular_end=se).real
            w_end[k] = path.w_values[-1]
        return w_end, vals

    def integrals(self, fn, w, lam: Lambda, where):
        """Real integrals of fn(z, w) dz from the root to every vertex, each
        edge continued from the roots w already known at both its ends; fn
        need not be odd in w."""
        at = _at_branch(self.z, lam)

        def branch_path(a, k):
            path = SheetedPath([self.z[a], self.z[k]],
                               [0j if at[a] else w[a], 0j if at[k] else w[k]], lam)
            return path, at[a], at[k]

        return self.accumulate(self.edges(fn, w, lam, where, branch_path)[1])


def _at_branch(z, lam: Lambda):
    """Mask of the points within the snapping tolerance of a finite branch
    point: make_sheeted_path snaps such an end to the branch point, and
    route_vertices lets such a target into the guard disk."""
    tol0 = 1e-12 * max(1.0, lam.value, 1.0 / lam.value)
    return np.min([np.abs(z - b) for b in branch_points(lam).finite], axis=0) <= tol0


def _immerse_chains(lam: Lambda, norm: Normalization, tree: _Chains, where):
    """Roots and sheet +1 positions of the vertices of a tree of straight
    edges, rooted at the principal root of its vertex 0 (the base point, or
    a cycle's first vertex).  Returns the flat arrays w and positions.

    Every edge is continued from the principal root at its start, all in one
    integrate_edges batch.  The nearest-root choice and Phi are odd in w, so
    a vertex's sheet sign is the product of the per-edge flips from the root,
    and an edge integral from the signed root is the sign times the one from
    the principal root.  Positions are cumulative sums in chain order.  An
    edge with an end at a finite branch point (leaving the base point at
    lam = 1, or ending on a branch point) is built by make_sheeted_path and
    integrated with the square-root substitution.  `where(k)` names the edge
    into vertex k in errors.
    """
    z, parent = tree.z, tree.parent
    roots = principal_w(z, lam)
    w_end, vals = tree.edges(weierstrass_integrand(norm), roots, lam, where,
                             lambda a, k: make_sheeted_path([z[a], z[k]], lam))
    flip = np.where(np.abs(w_end - roots) <= np.abs(w_end + roots), 1.0, -1.0)
    sign = tree.accumulate(flip, np.multiply)
    steps = sign[parent, None] * vals
    steps[0] = 0.0
    return sign * roots, tree.accumulate(steps)


def _route_tree(routes) -> tuple:
    """The union of routes from the base point as chains: (tree, ends, offsets).

    A route follows the vertices that an earlier route already put in the
    tree for as long as they match exactly (the shared trunk of lattice
    radii, the detour over lam, the translation circuits), and its remaining
    vertices form its chain, from route index offsets[c], hanging off the
    last shared one.  ends[c] is the vertex where route c ends.
    """
    index, chains, ends, offsets = {}, [], [], []
    n = 1
    for route in routes:
        node, i = 0, 1
        while i < len(route) and (node, route[i]) in index:
            node, i = index[node, route[i]], i + 1
        chains.append((node, route[i:]))
        offsets.append(i)
        for z in route[i:]:
            index[node, z] = n
            node, n = n, n + 1
        ends.append(node)
    return _Chains(BASE_POINT, chains), np.array(ends, dtype=int), np.array(offsets, dtype=int)


@functools.lru_cache(maxsize=256)
def _sheet_connection_cached(norm: Normalization) -> tuple:
    return tuple(2.0 * immerse(norm.lam, norm, [norm.lam.value])[0].position)


def sheet_connection(lam, norm: Normalization) -> np.ndarray:
    """The point reflection C of the deck involution: x(z, -w) = C - x(z, w).

    w -> -w negates Phi, and C is the image of the second base-point lift
    (1, -w0).  The segment [1, lam] holds no other branch point; out to lam
    and back on the other sheet, it joins the two lifts in two equal halves,
    so C = 2 x(lam).  At lam = 1 both lifts are the branch point and C = 0.
    """
    lam = as_lambda(lam)
    if norm.lam != lam:
        raise ValueError("normalization was built for a different family parameter")
    return np.array(_sheet_connection_cached(norm))


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


def _immerse_routes(lam: Lambda, norm: Normalization, targets, winding: int):
    """The route tree of the targets, immersed on sheet +1: (tree, w, positions,
    ends, where), with target c at vertex ends[c] of the tree.  where(k) names
    the edge into vertex k by lam, the first target whose route holds it, the
    winding, the edge and its quadrature tolerance."""
    routes = [route_vertices(t, lam, winding=winding) for t in targets]
    tree, ends, offsets = _route_tree(routes)
    stops = tree.starts + tree.lens

    def where(k) -> str:
        c = int(np.searchsorted(stops, k, side="right"))
        i = offsets[c] + k - tree.starts[c]
        za, zb = routes[c][i - 1], routes[c][i]
        return (f"lam = {lam.value!r}, target {targets[c]}, winding {winding}, route edge "
                f"{za} -> {zb} (quadrature tolerance {TOL_PER_UNIT * abs(zb - za):.2e})")

    w, pos = _immerse_chains(lam, norm, tree, where)
    return tree, w, pos, ends, where


def immerse(lam, norm: Normalization, targets, *, sheet_sign: int = +1,
            winding: int = 0) -> list[SurfacePoint]:
    """Immerse targets by integrating from the base point z0 = 1.

    The routes of all targets (route_vertices, winding number `winding`
    about the origin) form one tree for one _immerse_chains call: each route
    follows the shared trunk (its positive real run on the lattice of radii,
    the detour over lam and the translation circuits) as far as its vertices
    match, and its own chain (spur to the sweep radius, angular leg, final
    radial leg) hangs off its last shared vertex.  Every tree edge is an edge
    of some target's route, integrated once per call.  Sheet +1 is seeded by
    the principal root at z0 (by the +1 departure germ at lam = 1, where z0
    is a branch point; the base point itself is then (1, 0), with image 0).
    At lam = 1 the routes leave the base point along the two lattice edges
    [1, TRUNK_RATIO] and [1, 1/TRUNK_RATIO], except that of a positive real
    target strictly within one lattice step of 1, so a call integrates at
    most two singular departures plus one per such target.  Sheet -1 is not
    integrated: it returns the sheet partners (z, -w) at C - x, C the
    sheet_connection.  Errors from a route edge name lam, the target, the
    winding, the edge and its quadrature tolerance.
    """
    lam = as_lambda(lam)
    targets = [complex(t) for t in targets]
    tree, w, pos, ends, _ = _immerse_routes(lam, norm, targets, winding)
    if sheet_sign < 0:
        pos, w = sheet_connection(lam, norm) - pos, -w
    return [SurfacePoint(pos[k], CurvePoint(tree.z[k], w[k], lam)) for k in ends]


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
    """Circle about lam/2 of radius (lam + 1/lam)/2, as 256 chords: encloses
    exactly 0 and lam."""
    lv = as_lambda(lam).value
    center = 0.5 * lv
    radius = 0.5 * (lv + 1.0 / lv)
    taus = np.linspace(0.0, 2.0 * math.pi, 257)
    return center + radius * np.exp(1j * taus)


def cycle_real_period(vertices, lam, norm: Normalization):
    """Real period of the lift of a closed polyline from the principal root at
    its first vertex; verifies that the lift closes.

    The chords are one chain of _immerse_chains rooted at the first vertex:
    one batched nearest-root step and GK15 panel per chord, the scalar
    continue_sheet and adaptive path_integral only for a chord that needs
    bisection or refinement.  A lift that does not close (the cycle encloses
    an odd number of branch points) raises QuadratureFailure.
    """
    lam = as_lambda(lam)
    verts = np.asarray(vertices, dtype=complex)
    near = np.flatnonzero(near_branch(verts, lam))
    if near.size:
        raise BranchTooClose(f"lam = {lam.value!r}: cycle vertex {verts[near[0]]} lies in "
                             f"a branch guard disk (radius {delta_branch(lam):.2e})")

    def where(k) -> str:
        za, zb = verts[k - 1], verts[k]
        return (f"lam = {lam.value!r}, cycle chord {za} -> {zb} "
                f"(quadrature tolerance {TOL_PER_UNIT * abs(zb - za):.2e})")

    w, pos = _immerse_chains(lam, norm, _Chains(verts[0], [(0, verts[1:])]), where)
    closure = abs(w[-1] - w[0])
    if closure > 1e-7 * (1.0 + abs(w[0])):
        raise QuadratureFailure(
            f"cycle lift failed to close (|w_end - w_start| = {closure:.3e}); "
            "the cycle encloses an odd number of branch points"
        )
    return pos[-1]


@functools.lru_cache(maxsize=256)
def _period_vectors_cached(norm: Normalization) -> PeriodVector:
    t1, t3 = _raw_periods(norm.lam.value)
    s = normalization_scale(norm)
    c = cycle_real_period(companion_cycle_vertices(norm.lam), norm.lam, norm)
    return PeriodVector(np.array([s * t1, 0.0, s * t3]), c)


def period_vectors(lam, norm: Normalization) -> PeriodVector:
    """The translation period T in closed form (the lift of the circle about
    -1/(2 lam) through the branch points 0 and -1/lam) and the companion
    cycle's real period, integrated along the cycle's 256 chords in one
    batch by cycle_real_period."""
    lam = as_lambda(lam)
    if norm.lam != lam:
        raise ValueError("normalization was built for a different family parameter")
    return _period_vectors_cached(norm)


def vertical_end_spacing(lam, norm: Normalization) -> float:
    """Vertical distance between adjacent planar ends, s T3 / 2.

    x3 is constant on the real intervals (0, lam) and (-inf, -1/lam), which
    run into the planar ends z = 0 and z = infinity; their heights differ by
    half the vertical period.
    """
    return normalization_scale(norm) * 0.5 * _raw_periods(as_lambda(lam).value)[1]


# ---------------------------------------------------------------------------
# grid immersion (shared by sweeps, foliation slicing, meshing)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridImmersion:
    """Immersion of a log-polar grid on one sheet of the cover.

    Rows are angular chains continued eastward from the column at the most
    western angle; every vertex position is the Weierstrass integral along
    the chain path from the base point (winding 0 for open grids).  `angles`
    holds the continued angle of each column, so angles[j] is also the
    correct helicoid branch argument for column j.
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


def _half_offset_radii(r_min: float, r_max: float, n_rad: int, lam: Lambda):
    step = (math.log(r_max) - math.log(r_min)) / n_rad
    radii = np.exp(math.log(r_min) + (np.arange(n_rad) + 0.5) * step)
    # keep every ring clear of the branch moduli lam and 1/lam
    for _ in range(4):
        bad = False
        for m in (lam.value, 1.0 / lam.value):
            if np.min(np.abs(radii - m)) < max(0.02 * step * m, 4.0 * delta_branch(lam)):
                bad = True
        if not bad:
            return radii
        radii = radii * math.exp(0.137 * step)
    raise PathBlocked("could not place grid radii clear of the branch moduli")


def _edge_locator(lam: Lambda, sheet_sign: int, z, a, b):
    """Describe edge k, from flat vertex a[k] to b[k] of the grid z."""
    n_col = z.shape[1]
    zf = z.ravel()

    def where(k) -> str:
        (i, j), (i2, j2) = divmod(int(a[k]), n_col), divmod(int(b[k]), n_col)
        kind = "radial" if j == j2 else "angular"
        tol = TOL_PER_UNIT * abs(zf[b[k]] - zf[a[k]])
        return (f"lam = {lam.value!r}, sheet {sheet_sign:+d}, {kind} grid edge "
                f"({i}, {j}) -> ({i2}, {j2}) (edge quadrature tolerance {tol:.2e}, "
                f"branch guard {delta_branch(lam):.2e})")
    return where


def immerse_grid(lam, norm: Normalization, *, r_min: float, r_max: float,
                 n_rad: int, n_ang: int, sheet_sign: int = +1,
                 closed: bool = False) -> GridImmersion:
    """Immerse a half-offset log-polar grid by continuation along grid chains.

    The grid avoids the real axis (angles are offset by half a step) and the
    branch moduli (radii are shifted if a ring lands on one).  With
    closed=True an extra seam column at western angle + 2 pi is appended;
    for parameter bands where the full circuit is a translation period the
    seam column sits exactly one period from the first column.

    The stem (base point -> radius 1 at the western angle -> vertex (0, 0)),
    the western column (radial edges, northward) and every row (angular
    edges, eastward) are the chains of one _immerse_chains call: one batched
    nearest-root step and GK15 panel per edge, with the scalar continue_sheet
    and adaptive path_integral only for the few edges whose step needs
    bisection or whose panel misses the tolerance.  Only sheet +1 is
    integrated; sheet -1 is its sheet_partner.  Errors from an edge name
    lam, the requested sheet, the edge and its tolerance.
    """
    lam = as_lambda(lam)
    if n_ang % 2 != 0 or n_ang < 8 or n_rad < 2:
        raise ValueError("need even n_ang >= 8 and n_rad >= 2")
    radii = _half_offset_radii(r_min, r_max, n_rad, lam)
    dtheta = 2.0 * math.pi / n_ang
    angles = -math.pi + (np.arange(n_ang + (1 if closed else 0)) + 0.5) * dtheta
    n_col = len(angles)
    zs = radii[:, None] * np.exp(1j * angles[None, :])

    stem = _angular_leg(1.0, 0.0, angles[0], lam) + _radial_leg(1.0, radii[0], angles[0], lam)
    stem[-1] = zs[0, 0]
    m = len(stem)
    chains = [(0, stem), (m, zs[1:, 0])] + [(m + i, zs[i, 1:]) for i in range(n_rad)]
    # grid edges in chain order; the far vertex of edge e is chain vertex m + 1 + e
    idx = np.arange(n_rad * n_col).reshape(n_rad, n_col)
    a = np.concatenate((idx[:-1, 0], idx[:, :-1].ravel()))
    b = np.concatenate((idx[1:, 0], idx[:, 1:].ravel()))
    edge = _edge_locator(lam, sheet_sign, zs, a, b)
    at = np.empty(n_rad * n_col, dtype=int)
    at[0], at[b] = m, m + 1 + np.arange(len(b))

    def where(k) -> str:
        if k <= m:
            return f"lam = {lam.value!r}, sheet {sheet_sign:+d}, stem to grid vertex (0, 0)"
        return edge(k - m - 1)

    w, pos = _immerse_chains(lam, norm, _Chains(BASE_POINT, chains), where)
    ws, pos = w[at].reshape(n_rad, n_col), pos[at].reshape(n_rad, n_col, 3)
    for arr in (radii, angles, zs, ws, pos):
        arr.setflags(write=False)
    grid = GridImmersion(lam=lam, norm=norm, sheet_sign=+1, radii=radii,
                         angles=angles, z=zs, w=ws, positions=pos, closed=closed)
    return grid if sheet_sign > 0 else grid.sheet_partner


@dataclass(frozen=True)
class RadialEdgeAlignment:
    """Continuation-aligned upper neighbour of every radial grid edge.

    Continuing from vertex (i, j) of the grid with sheet sign s to the next
    ring lands on vertex (i+1, j) of the grid with sheet sign `sheet[s][i, j]`
    translated by `period_k[s][i, j]` periods.  Away from the (at most two)
    ring pairs that straddle a branch modulus the alignment is trivial: the
    own grid with no period offset.
    """

    sheet: dict
    period_k: dict


def radial_edge_alignment(grid_plus: GridImmersion,
                          grid_minus: GridImmersion) -> RadialEdgeAlignment:
    """Empirical radial-edge alignment for a pair of sheet grids.

    Rows whose radius interval straddles a branch modulus have their edges
    continued and integrated by immerse_grid's batched edge primitive and
    matched (by root value and by position modulo the translation period)
    against both grids; a failed match raises.
    """
    grids = {+1: grid_plus, -1: grid_minus}
    lam = grid_plus.lam
    t_vec = period_vectors(lam, grid_plus.norm).translation
    radii = grid_plus.radii
    bands = [i for i in range(len(radii) - 1)
             if any(radii[i] < m < radii[i + 1]
                    for m in (lam.value, 1.0 / lam.value))]
    sheet = {s: np.full((g.n_rad - 1, g.n_col), s, dtype=int)
             for s, g in grids.items()}
    period_k = {s: np.zeros((g.n_rad - 1, g.n_col), dtype=int)
                for s, g in grids.items()}
    fn = weierstrass_integrand(grid_plus.norm)
    n_col = grid_plus.n_col
    a = (np.array(bands, dtype=int)[:, None] * n_col + np.arange(n_col)).ravel()
    b = a + n_col
    for s, g in grids.items():
        zf, wf = g.z.ravel(), g.w.ravel()
        where = _edge_locator(lam, s, g.z, a, b)
        w_end, vals = integrate_edges(fn, zf[a], wf[a], zf[b], lam, where)
        end = g.positions.reshape(-1, 3)[a] + vals
        tol = 1e-6 * np.maximum(1.0, np.linalg.norm(end, axis=1))
        hit_s = np.zeros(len(a), dtype=int)
        hit_k = np.zeros(len(a), dtype=int)
        for s2, g2 in grids.items():
            w_ok = np.abs(g2.w.ravel()[b] - w_end) <= 1e-6 * (1.0 + np.abs(w_end))
            for k in range(-2, 3):
                gap = np.linalg.norm(end - (g2.positions.reshape(-1, 3)[b] + k * t_vec), axis=1)
                hit = w_ok & (gap < tol)
                hit_s[hit], hit_k[hit] = s2, k
        missed = np.flatnonzero(hit_s == 0)
        if missed.size:
            k = missed[0]
            raise QuadratureFailure(
                f"{where(k)}: continued end matched no grid vertex within "
                f"{tol[k]:.1e} (root and position modulo the period)"
            )
        sheet[s][bands] = hit_s.reshape(len(bands), n_col)
        period_k[s][bands] = hit_k.reshape(len(bands), n_col)
    return RadialEdgeAlignment(sheet=sheet, period_k=period_k)
