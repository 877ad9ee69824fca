"""Degeneration of the normalized family: catenoid and helicoid limits.

For lam < 1 the normalized immersion splits as catenoid plus a correction
whose integrand carries the factor

    f0(z) = z / (sqrt(lam) w(z)) - 1
          = sqrt(z)/sqrt((z - lam)(lam z + 1)) - 1   (matched branches),

and for lam > 1 as helicoid plus a correction with

    f_inf(z) = 1 - i sqrt(lam) z / w(z)
             = 1 - sqrt(z)/sqrt((1 - z/lam)(z + 1/lam)).

Writing the factors through the continued curve root w fixes their branches
by continuation from z = 1, where both vanish as lam degenerates; w is the
root of immerse's point at z.  f0 and f_inf take a scalar or an array of z,
immersed in one closed-form call.  Both factors tend to zero uniformly on a
fixed annulus, which drives the sup deviation sweeps implemented here; each
sweep samples sheet +1 of the annulus on its open log-polar grid (sheet -1
is the point reflection C - x of sheet +1).  The sweeps also report each
member's end spacing s T3 / 2 (weierstrass.vertical_end_spacing,
re-exported here as end_spacing): it tends to 2 pi along the helicoid limit
and grows like 4 log(4/lam) along the catenoid limit.  The decomposition
identities integrate their correction integrands, which have no closed
form here, by the reference quadrature along each target's route_vertices,
whose lift immerse places in closed form.

The lam <-> 1/lam conjugacy check, conjugate_check and its ConjugacyReport,
lives in analysis with the other `verify` checks, so that
`import riemann_examples` need not load this module; both are re-exported
here as the same objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import ConjugacyReport, conjugate_check, plane_fit
from .curve import Lambda, as_lambda, at_branch
from .errors import BranchAmbiguity, PathBlocked, SingularPoint
from .reference import (
    ReferenceKind,
    catenoid_integrand,
    catenoid_point,
    helicoid_integrand,
    helicoid_point_continued,
)
from .weierstrass import (
    GridImmersion,
    Normalization,
    _immerse,
    immerse,
    immerse_grid,
    make_sheeted_path,
    normalization_scale,
    path_integral,
    route_vertices,
    unit_normal,
    vertical_end_spacing as end_spacing,
)


# ---------------------------------------------------------------------------
# correction factors
# ---------------------------------------------------------------------------

def _continued_w(z, lam: Lambda):
    """Curve roots at z (any shape) on the lifts of their routes from the
    principal seed at the base point: the roots of immerse's points at z."""
    if at_branch(1.0, lam):
        raise BranchAmbiguity("correction factors are undefined at lam = 1")
    z = np.asarray(z, dtype=complex)
    return _immerse(lam, Normalization.raw(lam), z.ravel())[1].reshape(z.shape)


def _f0_of_root(z, w, lv: float):
    return z / (math.sqrt(lv) * w) - 1.0


def _f_inf_of_root(z, w, lv: float):
    return 1.0 - 1j * math.sqrt(lv) * z / w


def _correction_factor(of_root, z, lam: Lambda):
    """of_root at z and its continued roots.  A finite branch point, where
    the root vanishes and the factor has a pole, raises SingularPoint."""
    z = np.asarray(z, dtype=complex)
    w = _continued_w(z, lam)
    if np.any(w == 0):
        raise SingularPoint(f"lam = {lam.value!r}: the correction factors have a pole at "
                            f"the branch point z = {complex(z[w == 0].flat[0])}")
    return of_root(z, w, lam.value)


def f0(z, lam):
    """Catenoid-side correction factor at z (a scalar or an array), branch
    continued from z = 1."""
    lam = as_lambda(lam)
    if lam.value >= 1.0:
        raise ValueError("f0 is the lam < 1 correction factor")
    return _correction_factor(_f0_of_root, z, lam)


def f_inf(z, lam):
    """Helicoid-side correction factor at z (a scalar or an array), branch
    continued from z = 1."""
    lam = as_lambda(lam)
    if lam.value <= 1.0:
        raise ValueError("f_inf is the lam > 1 correction factor")
    return _correction_factor(_f_inf_of_root, z, lam)


# ---------------------------------------------------------------------------
# domains and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Annulus:
    """The ring 1/L < |z| < L with a sampling resolution."""

    L: float
    n_rad: int = 24
    n_ang: int = 48

    def __post_init__(self):
        if not (math.isfinite(self.L) and self.L > 1.0):
            raise ValueError(f"annulus parameter L must be a finite number > 1, not {self.L!r}")
        if self.n_rad < 8 or self.n_ang < 8:
            raise ValueError("annulus resolutions must be at least 8")

    def grid(self, lam, norm: Normalization) -> GridImmersion:
        """The open sheet +1 grid of the ring."""
        return immerse_grid(lam, norm, r_min=1.0 / self.L, r_max=self.L,
                            n_rad=self.n_rad, n_ang=self.n_ang)


@dataclass(frozen=True)
class ClipRegion:
    """Ball about the origin or horizontal slab |x3| <= r."""

    kind: str
    r: float

    def __post_init__(self):
        if self.kind not in ("ball", "slab"):
            raise ValueError("clip kind must be 'ball' or 'slab'")
        if not self.r > 0:
            raise ValueError("clip radius must be positive")

    def contains(self, positions) -> np.ndarray:
        p = np.asarray(positions, dtype=float)
        if self.kind == "ball":
            return np.linalg.norm(p, axis=-1) <= self.r
        return np.abs(p[..., 2]) <= self.r


@dataclass(frozen=True)
class ConvergenceReport:
    lambdas: tuple
    deviations: tuple
    reference: str
    annulus: Annulus
    clip: ClipRegion
    extras: dict = field(default_factory=dict)

    def is_strictly_decreasing(self) -> bool:
        d = self.deviations
        return all(b < a for a, b in zip(d[:-1], d[1:]))


# ---------------------------------------------------------------------------
# convergence sweeps
# ---------------------------------------------------------------------------

def _clipped(mask, values):
    if not np.any(mask):
        raise PathBlocked("clip region contains no sampled surface points")
    return values[mask]


def _limit_sweep(lambdas: tuple, annulus: Annulus, clip: ClipRegion,
                 reference: ReferenceKind, reference_points) -> ConvergenceReport:
    """Sup deviation of the paper-normalized immersion from the reference
    surface, per lam, over the sheet +1 component of the annulus preimage;
    positions are clipped before the sup is taken.  reference_points(grid, z)
    gives the reference positions of the grid's flattened parameters z."""
    deviations, spacings = [], []
    for lv in lambdas:
        lam = Lambda(lv)
        norm = Normalization.paper(lam)
        grid = annulus.grid(lam, norm)
        z, pos = grid.flat_points()
        mask = clip.contains(pos)
        dev = np.linalg.norm(pos - reference_points(grid, z), axis=-1)
        deviations.append(float(np.max(_clipped(mask, dev))))
        spacings.append(end_spacing(lam, norm))
    return ConvergenceReport(lambdas=lambdas, deviations=tuple(deviations),
                             reference=reference.value, annulus=annulus, clip=clip,
                             extras={"end_spacing": tuple(spacings)})


def catenoid_limit_sweep(lambdas, annulus: Annulus, clip: ClipRegion) -> ConvergenceReport:
    """Sup deviation of the normalized immersion from the catenoid, per lam."""
    lambdas = tuple(float(x) for x in lambdas)
    if any(x >= 1.0 for x in lambdas):
        raise ValueError("catenoid sweeps take lam < 1")
    return _limit_sweep(lambdas, annulus, clip, ReferenceKind.CATENOID,
                        lambda grid, z: catenoid_point(z))


def helicoid_limit_sweep(lambdas, annulus: Annulus, clip: ClipRegion) -> ConvergenceReport:
    """Sup deviation from the helicoid, with the helicoid branch matched to
    each sample's continued path argument: its grid column's angle, in
    (-pi, pi) on the open annulus grid."""
    lambdas = tuple(float(x) for x in lambdas)
    if any(x <= 1.0 for x in lambdas):
        raise ValueError("helicoid sweeps take lam > 1")
    return _limit_sweep(
        lambdas, annulus, clip, ReferenceKind.HELICOID,
        lambda grid, z: helicoid_point_continued(z, np.tile(grid.angles, grid.n_rad)))


# ---------------------------------------------------------------------------
# decomposition identities
# ---------------------------------------------------------------------------

def _decomposition_residuals(lam: Lambda, targets, factor, integrand, reference) -> np.ndarray:
    """|immersion - (reference(target) + correction integral)| per target.

    The immersion is immerse's.  The correction integrand, factor(z, w, lam)
    times the reference integrand, has no closed form here: it is integrated
    by path_integral along each target's route, continued by
    make_sheeted_path from the principal root at the base point, the sheet
    immerse continues.
    """
    norm = Normalization.paper(lam)

    def corr(z, w):
        return factor(z, w, lam.value) * integrand(z)

    targets = [complex(t) for t in targets]
    pos = np.array([p.position for p in immerse(lam, norm, targets)])
    rhs = []
    for t in targets:
        path = make_sheeted_path(route_vertices(t, lam), lam)
        rhs.append(reference(t) + path_integral(path, corr).real)
    return np.linalg.norm(pos - np.array(rhs), axis=1)


def catenoid_decomposition_residuals(lam, targets) -> np.ndarray:
    """|immersion - (catenoid + f0 correction integral)| per target, lam < 1."""
    lam = as_lambda(lam)
    if lam.value >= 1.0:
        raise ValueError("the catenoid decomposition applies for lam < 1")
    return _decomposition_residuals(lam, targets, _f0_of_root, catenoid_integrand,
                                    catenoid_point)


def helicoid_decomposition_residuals(lam, targets) -> np.ndarray:
    """|immersion - (helicoid + f_inf correction integral)| per target, lam > 1."""
    lam = as_lambda(lam)
    if lam.value <= 1.0:
        raise ValueError("the helicoid decomposition applies for lam > 1")
    return _decomposition_residuals(
        lam, targets, _f_inf_of_root, helicoid_integrand,
        lambda z: helicoid_point_continued(z, np.angle(z)))


# ---------------------------------------------------------------------------
# plane-limit experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneLimitReport:
    lambdas: tuple
    plane_deviations: tuple          # distance to best free plane, clipped
    horizontal_deviations: tuple     # distance to best horizontal plane, off-neck
    vertical_normal_fractions: tuple
    waist_radii: tuple
    clip: ClipRegion
    extras: dict = field(default_factory=dict)

    def is_strictly_decreasing(self) -> bool:
        d = self.plane_deviations
        return all(b < a for a, b in zip(d[:-1], d[1:]))


def plane_limit_experiment(lambdas, annulus: Annulus | None = None,
                           clip: ClipRegion | None = None) -> PlaneLimitReport:
    """Planarity trends of the spacing-normalized family along lam -> 0.

    With the vertical end spacing pinned to 2*pi the surface in a fixed
    ambient ball flattens onto a single plane; the report carries the sup
    distance to the best-fit plane over the clipped sample, the distance to
    the best horizontal plane away from the waist, the fraction of clipped
    samples with a near-vertical normal, and the waist radius.
    """
    annulus = annulus or Annulus(L=10.0, n_rad=24, n_ang=48)
    clip = clip or ClipRegion("ball", 4.0 * math.pi)
    lambdas = tuple(float(x) for x in lambdas)
    if any(x >= 1.0 for x in lambdas):
        raise ValueError("the plane-limit sweep runs lam -> 0")

    plane_devs, horiz_devs, vert_fracs, waists = [], [], [], []
    for lv in lambdas:
        lam = Lambda(lv)
        norm = Normalization.spacing(lam)

        # the piece of surface inside the fixed clip ball shrinks in the
        # parameter plane as the spacing normalization blows up; sample a
        # base-point window sized so its image just fills the ball
        def reach(rho: float) -> float:
            sp = immerse(lam, norm, [complex(1.0 + rho)])[0]
            return float(np.linalg.norm(sp.position))

        rho_max = 0.4
        while rho_max > 1e-8 and reach(rho_max) > clip.r:
            rho_max *= 0.5
        rhos = rho_max * np.exp(np.linspace(math.log(0.02), 0.0, 10))
        thetas = np.linspace(0.0, 2.0 * math.pi, 17)[:-1] + 0.05
        targets = (1.0 + rhos[:, None] * np.exp(1j * thetas[None, :])).ravel()
        pts = immerse(lam, norm, targets)
        pos = np.array([p.position for p in pts])
        mask = clip.contains(pos)
        if mask.sum() < 8:
            raise PathBlocked(f"too few clipped samples at lam = {lv}")
        _, _, dev = plane_fit(pos[mask])
        plane_devs.append(dev)

        normals = unit_normal(targets[mask])
        vert = np.minimum(np.linalg.norm(normals - np.array([0, 0, 1.0]), axis=-1),
                          np.linalg.norm(normals + np.array([0, 0, 1.0]), axis=-1))
        vert_fracs.append(float(np.mean(vert < 1e-2)))

        # global quantities over the full annulus
        grid = annulus.grid(lam, norm)
        z, gpos = grid.flat_points()
        off_neck = np.abs(np.log(np.abs(z))) > 0.5
        sel = gpos[off_neck]
        h = float(np.median(sel[:, 2]))
        horiz_devs.append(float(np.max(np.abs(sel[:, 2] - h))))

        rows = grid.positions[..., :2]
        centroids = rows.mean(axis=1, keepdims=True)
        waists.append(float(np.min(np.linalg.norm(rows - centroids, axis=-1).mean(axis=1))))
    return PlaneLimitReport(
        lambdas=lambdas, plane_deviations=tuple(plane_devs),
        horizontal_deviations=tuple(horiz_devs),
        vertical_normal_fractions=tuple(vert_fracs),
        waist_radii=tuple(waists), clip=clip,
        extras={"normalization": "spacing",
                "spacing_scales": tuple(normalization_scale(Normalization.spacing(Lambda(x)))
                                        for x in lambdas)},
    )
