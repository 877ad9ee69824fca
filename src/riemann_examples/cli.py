"""Command-line front end: mesh export, verification suites, limit sweeps.

All reports are JSON on stdout (schema 1) with the resolved configuration
embedded; sweeps can additionally emit a flat CSV.  Exit codes: 0 success,
1 failed checks or broken monotonicity, 2 bad flags, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import __version__
from .analysis import (
    abs_gauss_curvature,
    check_symmetries,
    foliation_slices,
    line_fit_residual,
    max_abs_curvature,
    plane_fit,
    verify_curvature_bound,
)
from .curve import CurvePoint, Lambda, principal_w
from .errors import RiemannFamilyError
from .limits import (
    Annulus,
    ClipRegion,
    catenoid_limit_sweep,
    conjugate_check,
    end_spacing,
    helicoid_limit_sweep,
    plane_limit_experiment,
)
from .mesh import build_mesh, export
from .weierstrass import (Normalization, cycle_real_period, immerse, period_vectors,
                          translation_cycle_vertices)

SCHEMA = 1

_NORMS = {"raw": Normalization.raw, "paper": Normalization.paper,
          "spacing": Normalization.spacing}


def _checked(convert, ok, requirement: str):
    """An argparse type: `convert` the text, and refuse a value that fails
    `ok`, naming the `requirement`."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{requirement}, not {text!r}")
    return parse


_positive_lambda = _checked(float, lambda v: math.isfinite(v) and v > 0,
                            "the family parameter must be a finite number > 0")
_copies = _checked(int, lambda v: v >= 1, "copies must be an integer >= 1")
_seed = _checked(int, lambda v: v >= 0, "the seed must be an integer >= 0")
_annulus_L = _checked(float, lambda v: math.isfinite(v) and v > 1,
                      "the annulus parameter L must be a finite number > 1")
_clip_r = _checked(float, lambda v: v > 0, "the clip radius must be a number > 0")
_lambda_csv = _checked(lambda text: tuple(_positive_lambda(t) for t in text.split(",") if t),
                       bool, "need at least one comma-separated lambda")
_resolution = _checked(lambda text: tuple(int(n) for n in text.lower().split("x")),
                       lambda ra: len(ra) == 2 and ra[0] >= 2 and ra[1] >= 8 and ra[1] % 2 == 0,
                       "resolution must look like 48x96: rings >= 2, an even angle count >= 8")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _config(args: argparse.Namespace, **extra) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg.update(extra)
    cfg["version"] = __version__
    return cfg


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------

def cmd_mesh(args) -> int:
    lam = Lambda(args.lam)
    norm = _NORMS[args.normalization](lam)
    n_rad, n_ang = args.resolution
    mesh = build_mesh(lam, norm, n_rad=n_rad, n_ang=n_ang, copies=args.copies)
    export(mesh, args.format, args.out)
    periods = period_vectors(lam, norm)
    _emit({
        "schema": SCHEMA,
        "config": _config(args, sheet_convention=mesh.provenance.sheet_convention),
        "vertices": mesh.n_vertices,
        "triangles": mesh.n_triangles,
        "max_abs_curvature": float(mesh.abs_curvature.max()),
        "translation_period": [float(x) for x in periods.translation],
        "out": str(args.out),
    })
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _sample_points(lam: Lambda, rng, n: int = 24):
    pts = []
    while len(pts) < n:
        rho = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        ang = rng.uniform(-0.94 * math.pi, 0.94 * math.pi)
        z = rho * complex(math.cos(ang), math.sin(ang))
        if min(abs(z - b) for b in (0, lam.value, -1 / lam.value)) < 1e-2:
            continue
        if abs(abs(z) - 1.0) < 1e-2 or abs(z.imag) < 1e-3:
            continue
        w = principal_w(z, lam) * (1 if rng.random() < 0.5 else -1)
        pts.append(CurvePoint(z, w, lam))
    return pts


def _suite_curvature(lam: Lambda, rng) -> list:
    checks = []
    raw = Normalization.raw(lam)
    val = abs_gauss_curvature(1j, lam, raw)
    expect = lam.value + 1.0 / lam.value
    checks.append({"name": "curvature-at-i", "lambda": lam.value,
                   "residual": abs(val - expect) / expect, "tolerance": 1e-10,
                   "passed": bool(abs(val - expect) / expect < 1e-10)})
    report = verify_curvature_bound(lam)
    checks.append({"name": "curvature-universal-bound", "lambda": lam.value,
                   "residual": max(report.max_abs_k - 4.0, 0.0), "tolerance": 0.0,
                   "value": report.max_abs_k,
                   "passed": bool(report.max_abs_k <= 4.0)})
    checks.append({"name": "curvature-sharp-bound", "lambda": lam.value,
                   "residual": max(report.refined_max - 2.0, 0.0), "tolerance": 1e-3,
                   "value": report.refined_max, "argmax_locus": report.argmax_locus,
                   "passed": bool(report.refined_max <= 2.0 + 1e-3)})
    return checks


def _suite_periods(lam: Lambda, rng) -> list:
    norm = Normalization.paper(lam)
    pv = period_vectors(lam, norm)
    ratio = float(np.linalg.norm(pv.companion) / np.linalg.norm(pv.translation))
    checks = [{"name": "companion-period-vanishes", "lambda": lam.value,
               "residual": ratio, "tolerance": 1e-6, "passed": bool(ratio < 1e-6)}]
    # the translation cycle's lift, telescoped to its two ends plus the jump
    # 2 Re Psi(lam) of its crossing of the cut (0, lam), against the AGM T,
    # relative to |T|: both round off in proportion to |T|
    t = cycle_real_period(translation_cycle_vertices(lam), lam, norm)
    gap = float(np.linalg.norm(t - pv.translation) / np.linalg.norm(pv.translation))
    checks.append({"name": "winding-adds-translation", "lambda": lam.value,
                   "residual": gap, "tolerance": 1e-12, "passed": bool(gap < 1e-12)})
    return checks


def _suite_symmetry(lam: Lambda, rng) -> list:
    norm = Normalization.paper(lam)
    report = check_symmetries(lam, norm, _sample_points(lam, rng, n=8))
    checks = [{"name": "symmetry-residuals", "lambda": lam.value,
               "residual": report.max_residual, "tolerance": report.tolerance,
               "passed": bool(report.passed)}]
    ts = np.linspace(0.15, 0.95, 7) * min(lam.value, 1.0)
    pts = [sp.position for sp in immerse(lam, norm, ts.astype(complex))]
    res = line_fit_residual(pts)
    checks.append({"name": "line-interval-colinear", "lambda": lam.value,
                   "residual": res, "tolerance": 1e-7, "passed": bool(res < 1e-7)})
    tg = np.linspace(1.3, 3.0, 7) * max(lam.value, 1.0)
    pts = np.array([sp.position for sp in immerse(lam, norm, tg.astype(complex))])
    normal, _, dev = plane_fit(pts)
    span = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    geo_res = max(dev / span, abs(abs(normal[1]) - 1.0))
    checks.append({"name": "planar-geodesic-coplanar", "lambda": lam.value,
                   "residual": geo_res, "tolerance": 1e-7,
                   "passed": bool(geo_res < 1e-7)})
    return checks


def _suite_conjugate(lam: Lambda, rng) -> list:
    report = conjugate_check(lam, _sample_points(lam, rng, n=100))
    return [{"name": "conjugacy-identity", "lambda": lam.value,
             "residual": report.max_residual, "tolerance": 1e-10,
             "passed": bool(report.max_residual < 1e-10)}]


def _suite_foliation(lam: Lambda, rng) -> list:
    norm = Normalization.paper(lam)
    spacing = end_spacing(lam, norm)
    base = float(immerse(lam, norm, [complex(min(lam.value, 1.0) * 0.5)])[0].position[2])
    heights = base + spacing * np.linspace(0.25, 0.75, 8)
    slices = foliation_slices(norm, heights)
    worst = max((s.residual / s.radius if s.kind == "circle" else math.inf)
                for s in slices)
    return [{"name": "level-circle-fit", "lambda": lam.value,
             "residual": worst, "tolerance": 1e-6,
             "kinds": [s.kind for s in slices],
             "passed": bool(worst < 1e-6)}]


_SUITES = {
    "curvature": _suite_curvature,
    "periods": _suite_periods,
    "symmetry": _suite_symmetry,
    "conjugate": _suite_conjugate,
    "foliation": _suite_foliation,
}


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for lv in args.lambda_set:
        lam = Lambda(lv)
        for name in names:
            checks.extend(_SUITES[name](lam, rng))
    passed = all(c["passed"] for c in checks)
    _emit({"schema": SCHEMA, "config": _config(args), "checks": checks,
           "passed": passed})
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------

def cmd_limits(args) -> int:
    annulus = Annulus(L=args.annulus_L)
    clip = ClipRegion("ball", args.clip_r)
    lambdas = args.lambda_schedule
    if args.target == "planes":
        report = plane_limit_experiment(lambdas, annulus, clip)
        deviations, norm_of = report.plane_deviations, Normalization.spacing
        spacings = tuple(2.0 * math.pi for _ in lambdas)
        extra = {"vertical_normal_fractions": report.vertical_normal_fractions,
                 "waist_radii": report.waist_radii,
                 "horizontal_deviations": report.horizontal_deviations}
    else:
        sweep = catenoid_limit_sweep if args.target == "catenoid" else helicoid_limit_sweep
        report = sweep(lambdas, annulus, clip)
        deviations, norm_of = report.deviations, Normalization.paper
        spacings, extra = report.extras["end_spacing"], {}
    # the annulus 1/L < |z| < L (L > 1) contains +-i, where the supremum lies
    max_k = tuple(max_abs_curvature(Lambda(lv), norm_of(Lambda(lv))) for lv in lambdas)

    monotone = report.is_strictly_decreasing()
    payload = {"schema": SCHEMA,
               "config": _config(args, sheet_sign=1,
                                 sheet_convention="principal root at z0 = 1"),
               "target": args.target,
               "lambdas": list(lambdas), "deviations": list(deviations),
               "end_spacing": list(spacings), "max_abs_curvature": list(max_k),
               "monotone_decreasing": monotone}
    payload.update(extra)
    _emit(payload)

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda", "deviation", "end_spacing", "max_absK"])
            for row in zip(lambdas, deviations, spacings, max_k):
                writer.writerow([repr(float(x)) for x in row])
    return 0 if monotone else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riemann-examples",
        description="Riemann minimal examples: meshes, verification, limit sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mesh = sub.add_parser("mesh", help="export a triangulated surface mesh")
    p_mesh.add_argument("--lambda", dest="lam", type=_positive_lambda, required=True)
    p_mesh.add_argument("--normalization", choices=sorted(_NORMS), default="paper")
    p_mesh.add_argument("--copies", type=_copies, default=1)
    p_mesh.add_argument("--resolution", type=_resolution, default=(48, 96))
    p_mesh.add_argument("--format", choices=["obj", "ply"], default="obj")
    p_mesh.add_argument("--out", required=True)
    p_mesh.set_defaults(func=cmd_mesh)

    p_ver = sub.add_parser("verify", help="run invariant verification suites")
    p_ver.add_argument("--suite", choices=sorted(_SUITES) + ["all"], required=True)
    p_ver.add_argument("--lambda-set", dest="lambda_set", type=_lambda_csv,
                       default=(1.0,))
    p_ver.add_argument("--seed", type=_seed, default=0)
    p_ver.set_defaults(func=cmd_verify)

    p_lim = sub.add_parser("limits", help="run a degeneration sweep")
    p_lim.add_argument("--target", choices=["catenoid", "helicoid", "planes"],
                       required=True)
    p_lim.add_argument("--lambda-schedule", dest="lambda_schedule",
                       type=_lambda_csv, required=True)
    p_lim.add_argument("--annulus-L", dest="annulus_L", type=_annulus_L, default=10.0)
    p_lim.add_argument("--clip-r", dest="clip_r", type=_clip_r, default=5.0)
    p_lim.add_argument("--csv", default=None)
    p_lim.set_defaults(func=cmd_limits)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "limits":
        above = args.target == "helicoid"    # the catenoid and plane sweeps take lam < 1
        if any(lv == 1.0 or (lv > 1.0) != above for lv in args.lambda_schedule):
            parser.error(f"argument --lambda-schedule: the {args.target} sweep takes "
                         f"lam {'>' if above else '<'} 1")
    try:
        return args.func(args)
    except RiemannFamilyError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
