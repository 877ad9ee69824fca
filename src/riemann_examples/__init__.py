"""Riemann minimal examples from their Weierstrass representation.

The family is indexed by a positive parameter; each member is a singly
periodic embedded minimal surface foliated by circles and lines in
horizontal planes, built as the real contour integral of the Weierstrass
data g = z, eta = s dz/(z w) on the double cover w^2 = z(z - lam)(z + 1/lam).

The names of `limits` (the catenoid, helicoid and plane limits as lam -> 0
or infinity) and of `reference` (the surfaces they are compared with) load
on first use (PEP 562): the `mesh` and `verify` work never calls them, so
`import riemann_examples` does not compile them.  Star imports and dir()
still offer every name.
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
from .weierstrass import vertical_end_spacing as end_spacing
from .analysis import (
    CurvatureGrid,
    abs_gauss_curvature,
    check_symmetries,
    conjugate_check,
    foliation_slices,
    general_curvature,
    max_abs_curvature,
    verify_curvature_bound,
)
from .mesh import SurfaceMesh, build_mesh, export

#: The names resolved on first use, each with the submodule that defines it.
_LAZY = {
    "limits": "limits",
    "Annulus": "limits",
    "ClipRegion": "limits",
    "ConvergenceReport": "limits",
    "catenoid_limit_sweep": "limits",
    "helicoid_limit_sweep": "limits",
    "plane_limit_experiment": "limits",
    "f0": "limits",
    "f_inf": "limits",
    "reference": "reference",
    "ReferenceSurface": "reference",
    "catenoid_point": "reference",
    "deviation_field": "reference",
    "helicoid_point": "reference",
}

# every public name bound above, the submodules included, and the lazy ones
__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_LAZY))


def __getattr__(name: str):
    """Import the submodule of a lazy name, bind the name here and return it."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
