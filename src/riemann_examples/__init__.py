"""Riemann minimal examples from their Weierstrass representation.

The family is indexed by a positive parameter; each member is a singly
periodic embedded minimal surface foliated by circles and lines in
horizontal planes, built as the real contour integral of the Weierstrass
data g = z, eta = s dz/(z w) on the double cover w^2 = z(z - lam)(z + 1/lam).
"""

__version__ = "0.1.0"

from .curve import (
    BranchDeparture,
    BranchPoints,
    CurvePoint,
    Lambda,
    SheetedPath,
    branch_points,
    continue_sheet,
    curve_rhs,
    principal_w,
)
from .errors import (
    AmbiguousSheet,
    BranchAmbiguity,
    BranchTooClose,
    InsufficientSlicePoints,
    PathBlocked,
    QuadratureFailure,
    RiemannFamilyError,
    SingularPoint,
)
from .weierstrass import (
    Normalization,
    NormalizationKind,
    PeriodVector,
    PhiValue,
    SurfacePoint,
    gauss_map,
    immerse,
    immerse_grid,
    integrate,
    metric_factor,
    period_vectors,
    phi,
)
from .reference import ReferenceSurface, catenoid_point, deviation_field, helicoid_point
from .analysis import (
    CurvatureGrid,
    abs_gauss_curvature,
    check_symmetries,
    foliation_slices,
    general_curvature,
    max_abs_curvature,
    verify_curvature_bound,
)
from .limits import (
    Annulus,
    ClipRegion,
    ConvergenceReport,
    catenoid_limit_sweep,
    conjugate_check,
    end_spacing,
    f0,
    f_inf,
    helicoid_limit_sweep,
    plane_limit_experiment,
)
from .mesh import SurfaceMesh, build_mesh, export
