"""What `import riemann_examples` loads, and the names it offers.

The limit sweeps (`limits`) and the reference surfaces (`reference`) load on
first use of one of their names; everything `mesh` and `verify` run is
imported eagerly.  The import checks run in fresh interpreters, because the
test session has long since imported every submodule.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import riemann_examples
from riemann_examples import analysis, limits, weierstrass

LAZY = {
    "limits": ("Annulus", "ClipRegion", "ConvergenceReport", "catenoid_limit_sweep",
               "helicoid_limit_sweep", "plane_limit_experiment", "f0", "f_inf"),
    "reference": ("ReferenceSurface", "catenoid_point", "deviation_field", "helicoid_point"),
}

#: `from riemann_examples import *` before any name loaded lazily.
STAR_NAMES = [
    "AmbiguousSheet", "Annulus", "BranchAmbiguity", "BranchDeparture", "BranchPoints",
    "BranchTooClose", "ClipRegion", "ConvergenceReport", "CurvatureGrid", "CurvePoint",
    "InsufficientSlicePoints", "Lambda", "Normalization", "NormalizationKind", "PathBlocked",
    "PeriodVector", "PhiValue", "QuadratureFailure", "ReferenceSurface", "RiemannFamilyError",
    "SheetedPath", "SingularPoint", "SurfaceMesh", "SurfacePoint", "abs_gauss_curvature",
    "analysis", "branch_points", "build_mesh", "catenoid_limit_sweep", "catenoid_point",
    "check_symmetries", "conjugate_check", "continue_sheet", "curve", "curve_rhs",
    "deviation_field", "end_spacing", "errors", "export", "f0", "f_inf", "foliation_slices",
    "gauss_map", "general_curvature", "helicoid_limit_sweep", "helicoid_point", "immerse",
    "immerse_grid", "integrate", "limits", "max_abs_curvature", "mesh", "metric_factor",
    "period_vectors", "phi", "plane_limit_experiment", "principal_w", "quadrature",
    "reference", "verify_curvature_bound", "weierstrass",
]


def _fresh(code: str):
    """Run `code` in a new interpreter and return the JSON it prints."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_LOADED = ("[m for m in ('riemann_examples.limits', 'riemann_examples.reference') "
           "if m in sys.modules]")


def test_import_and_verify_names_load_neither_limits_nor_reference():
    out = _fresh(f"""
import json, sys
import riemann_examples as rx
loaded = {{"import": {_LOADED}}}
lam = rx.Lambda(0.5)
rx.conjugate_check(lam, [0.3 + 0.7j, -1.5 + 0.2j])
rx.end_spacing(lam, rx.Normalization.paper(lam))
loaded["calls"] = {_LOADED}
missing = hasattr(rx, "no_such_name")
try:
    rx.no_such_name
except AttributeError as exc:
    message = str(exc)
loaded["hasattr"] = {_LOADED}
print(json.dumps({{"loaded": loaded, "missing": missing, "message": message}}))
""")
    assert out["loaded"] == {"import": [], "calls": [], "hasattr": []}
    assert out["missing"] is False
    assert out["message"] == "module 'riemann_examples' has no attribute 'no_such_name'"


def test_every_lazy_name_resolves_to_its_modules_own_object():
    out = _fresh(f"""
import importlib, json, sys
import riemann_examples as rx
lazy = {LAZY!r}
before = {_LOADED}
same, bound = {{}}, {{}}
for module, names in lazy.items():
    for name in names:
        ns = {{}}
        exec(f"from riemann_examples import {{name}}", ns)
        own = getattr(importlib.import_module("riemann_examples." + module), name)
        same[name] = ns[name] is own and getattr(rx, name) is own
        bound[name] = vars(rx).get(name) is own
print(json.dumps({{"before": before, "same": same, "bound": bound,
                  "modules": [getattr(rx, m) is sys.modules["riemann_examples." + m]
                              for m in lazy]}}))
""")
    names = [n for names in LAZY.values() for n in names]
    assert out["before"] == []
    assert out["same"] == dict.fromkeys(names, True)
    assert out["bound"] == dict.fromkeys(names, True)
    assert out["modules"] == [True, True]


def test_star_import_and_dir_offer_every_public_name():
    out = _fresh("""
import json
import riemann_examples as rx
public = [k for k in dir(rx) if not k.startswith("_")]
ns = {}
exec("from riemann_examples import *", ns)
print(json.dumps({"star": sorted(k for k in ns if k != "__builtins__"), "dir": public}))
""")
    assert out["star"] == sorted(STAR_NAMES)
    assert out["dir"] == sorted(STAR_NAMES)


def test_moved_conjugacy_check_is_one_object_everywhere():
    assert limits.conjugate_check is analysis.conjugate_check
    assert riemann_examples.conjugate_check is analysis.conjugate_check
    assert limits.ConjugacyReport is analysis.ConjugacyReport
    assert analysis.conjugate_check.__module__ == "riemann_examples.analysis"
    assert limits.end_spacing is weierstrass.vertical_end_spacing
    assert riemann_examples.end_spacing is weierstrass.vertical_end_spacing
