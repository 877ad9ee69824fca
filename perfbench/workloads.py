"""Seeded inputs and the operation lists of the benchmark workloads.

`make_inputs` runs in run.py and needs nothing but numpy: every random
choice of a run is drawn here from the seed and written into the run's
output, so a run can be replayed.  `build_ops` runs in the worker and turns
the inputs into operations on the imported package.  Each operation is one
timed call (`run`) plus a `check` of its result that runs outside the timed
region and returns the observables run.py judges.

The operations mirror the CLI commands (`mesh`, `verify --suite all`,
`limits`) call for call, because `riemann_examples.cli` does not import.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracles

WORKLOADS = ("mesh", "verify", "limits", "envelope")

MESH_RESOLUTION = (48, 96)
MESH_COPIES = 2
VERIFY_LAMBDAS = (0.5, 1.0, 2.0)
VERIFY_SUITES = ("curvature", "periods", "symmetry", "conjugate", "foliation")
LIMIT_SCHEDULES = {
    "catenoid": (0.1, 0.01, 0.001),
    "helicoid": (10.0, 100.0, 1000.0),
    "planes": (0.1, 0.03, 0.01),
}
ANNULUS_L = 10.0
CLIP_R = 5.0

#: Envelope parameters: both ends of [1e-6, 1e6], both sides of 1 at 1e-6,
#: and the singular base point lam = 1 exactly.  The bands (2e-3, 1e-2) and
#: (2e2, 7e2), where periods and meshes run into the 65536-panel cap at
#: 8-10 s per call, are left to one probe each in ENVELOPE_CAP_PROBES.
ENVELOPE_LAMBDAS = (1e-6, 1e-5, 1e-4, 1e-3, 0.03, 0.2, 0.5, "1-1e-6", 1.0, "1+1e-6",
                    2.0, 5.0, 50.0, 1e3, 1e4, 1e5, 1e6)
#: One probe per failure class that hits the panel cap: (operation, lam, |target|).
ENVELOPE_CAP_PROBES = (("immerse+1", 2.0, 1e-3), ("period_vectors", 5e-3, None),
                       ("period_vectors", 3e2, None))


# ---------------------------------------------------------------------------
# seeded inputs (run.py side)
# ---------------------------------------------------------------------------

def _jitter(rng, value: float, decades: float) -> float:
    return float(value * 10.0 ** rng.uniform(-decades, decades))


def _sample_points(lam: float, rng, n: int) -> list:
    """The CLI's verify sample points: (Re z, Im z, root sign) triples, drawn
    from the shared generator in the CLI's order."""
    pts = []
    while len(pts) < n:
        rho = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        ang = rng.uniform(-0.94 * math.pi, 0.94 * math.pi)
        z = rho * complex(math.cos(ang), math.sin(ang))
        if min(abs(z - b) for b in (0, lam, -1 / lam)) < 1e-2:
            continue
        if abs(abs(z) - 1.0) < 1e-2 or abs(z.imag) < 1e-3:
            continue
        sign = 1 if rng.random() < 0.5 else -1
        pts.append([z.real, z.imag, sign])
    return pts


def make_inputs(workload: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    if workload == "mesh":
        lams = [float(rng.uniform(0.2, 0.5)), 1.0, float(rng.uniform(2.0, 5.0))]
        return {"lambdas": lams, "resolution": list(MESH_RESOLUTION), "copies": MESH_COPIES}
    if workload == "verify":
        points = {}
        for lv in VERIFY_LAMBDAS:
            points[repr(lv)] = {"symmetry": _sample_points(lv, rng, 8),
                                "conjugate": _sample_points(lv, rng, 100)}
        return {"lambdas": list(VERIFY_LAMBDAS), "suites": list(VERIFY_SUITES),
                "seed": seed, "points": points}
    if workload == "limits":
        return {"schedules": {k: [_jitter(rng, v, 0.02) for v in sched]
                              for k, sched in LIMIT_SCHEDULES.items()},
                "annulus_L": ANNULUS_L, "clip_r": CLIP_R}
    if workload == "envelope":
        lams = []
        for v in ENVELOPE_LAMBDAS:
            if v == 1.0:
                lams.append(1.0)
            elif isinstance(v, str):
                lams.append(1.0 + float(v[1:]) * rng.uniform(0.5, 1.5))
            else:
                lams.append(_jitter(rng, v, 0.02))
        per_lam = []
        for lv in lams:
            far = 1e3 * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            mid = math.exp(rng.uniform(math.log(0.3), math.log(3.0))) * \
                cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            per_lam.append({"lam": lv, "targets": [[far.real, far.imag], [mid.real, mid.imag]]})
        probes = []
        for op, lv, radius in ENVELOPE_CAP_PROBES:
            probe = {"op": op, "lam": _jitter(rng, lv, 0.02)}
            if radius is not None:
                t = radius * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
                probe["targets"] = [[t.real, t.imag]]
            probes.append(probe)
        return {"per_lambda": per_lam, "cap_probes": probes,
                "mesh_resolution": [8, 16]}
    raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")


# ---------------------------------------------------------------------------
# operations (worker side)
# ---------------------------------------------------------------------------

@dataclass
class Op:
    name: str
    lam: float
    args: dict
    run: object
    check: object
    needs: object = None         # an earlier Op whose result this one uses
    result: object = field(default=None, repr=False)


class Observations:
    """What a check hands to run.py: named pass/fail checks, oracle
    inputs and a digest of every computed position."""

    def __init__(self, digest):
        self.checks = []
        self.x2_err = []
        self.periods = []
        self.spacings = []
        self._digest = digest

    def check(self, name: str, residual: float, tolerance: float, passed: bool):
        self.checks.append([name, float(residual), float(tolerance), bool(passed)])

    def positions(self, arr) -> None:
        self._digest.update(np.ascontiguousarray(np.asarray(arr, dtype=float)).tobytes())

    def as_dict(self) -> dict:
        return {"checks": self.checks, "x2_err": self.x2_err, "periods": self.periods,
                "spacings": self.spacings}


def _period_obs(obs: Observations, lam: float, pv, s: float) -> None:
    t = np.asarray(pv.translation)
    obs.positions(t)
    obs.periods.append({"lam": lam, "s": s, "T1": float(t[0]), "T2": float(t[1]),
                        "T3": float(t[2])})


def _points_x2(obs: Observations, lam: float, s: float, surface_points) -> None:
    pos = np.array([sp.position for sp in surface_points]).reshape(-1, 3)
    obs.positions(pos)
    z = [sp.source.z for sp in surface_points]
    w = [sp.source.w for sp in surface_points]
    obs.x2_err.append(oracles.x2_error(pos[:, 1], z, w, lam, s))


def _mesh_checks(obs: Observations, lam: float, s: float, mesh) -> None:
    obs.positions(mesh.vertices)
    obs.x2_err.append(oracles.mesh_x2_error(mesh.vertices, mesh.normals, lam, s))
    finite = bool(np.all(np.isfinite(mesh.vertices)))
    obs.check("mesh-finite", 0.0 if finite else 1.0, 0.0, finite and mesh.n_triangles > 0)


def _export_check(obs: Observations, mesh, fmt: str, path: str) -> None:
    """Stream the written file back and require every vertex coordinate to
    round-trip exactly, and the element counts to match."""
    verts = mesh.vertices
    nv = nn = nf = 0
    worst = 0.0
    with open(path, "r", encoding="ascii") as fh:
        if fmt == "obj":
            for line in fh:
                tag = line[:2]
                if tag == "v ":
                    x = [float(t) for t in line.split()[1:4]]
                    worst = max(worst, float(np.max(np.abs(np.subtract(x, verts[nv])))))
                    nv += 1
                elif tag == "vn":
                    nn += 1
                elif tag == "f ":
                    nf += 1
        else:
            header = True
            for line in fh:
                if header:
                    header = line.strip() != "end_header"
                    continue
                parts = line.split()
                if nv < len(verts):
                    x = [float(t) for t in parts[0:3]]
                    worst = max(worst, float(np.max(np.abs(np.subtract(x, verts[nv])))))
                    nv += 1
                    nn += 1
                else:
                    nf += 1
    counts_ok = nv == len(verts) and nn == len(mesh.normals) and nf == mesh.n_triangles
    obs.check(f"export-{fmt}-roundtrip", worst, 0.0, counts_ok and worst == 0.0)
    os.remove(path)


def build_ops(workload: str, inputs: dict, rx, workdir: str) -> list:
    """Operations of one pass of `workload` against the imported package `rx`."""
    return {"mesh": _mesh_ops, "verify": _verify_ops, "limits": _limits_ops,
            "envelope": _envelope_ops}[workload](inputs, rx, workdir)


def _mesh_ops(inputs, rx, workdir):
    n_rad, n_ang = inputs["resolution"]
    copies = inputs["copies"]
    ops = []
    for lv in inputs["lambdas"]:
        s = oracles.paper_scale(lv)

        def run_build(lv=lv):
            lam = rx.Lambda(lv)
            norm = rx.Normalization.paper(lam)
            mesh = rx.build_mesh(lam, norm, n_rad=n_rad, n_ang=n_ang, copies=copies)
            return mesh, rx.period_vectors(lam, norm)

        def check_build(obs, res, lv=lv, s=s):
            mesh, pv = res
            _mesh_checks(obs, lv, s, mesh)
            _period_obs(obs, lv, pv, s)

        build = Op("build_mesh", lv, {"n_rad": n_rad, "n_ang": n_ang, "copies": copies},
                   run_build, check_build)
        ops.append(build)
        for fmt in ("obj", "ply"):
            path = os.path.join(workdir, f"mesh_{os.getpid()}_{len(ops)}.{fmt}")

            def run_export(build=build, fmt=fmt, path=path):
                rx.export(build.result[0], fmt, path)

            def check_export(obs, res, build=build, fmt=fmt, path=path):
                _export_check(obs, build.result[0], fmt, path)

            ops.append(Op("export_" + fmt, lv, {"format": fmt}, run_export, check_export,
                          needs=build))
    return ops


def _verify_ops(inputs, rx, workdir):
    from riemann_examples import analysis

    ops = []
    for lv in inputs["lambdas"]:
        pts = inputs["points"][repr(lv)]
        s = oracles.paper_scale(lv)
        for suite in inputs["suites"]:
            run, check = _VERIFY_SUITES[suite](rx, analysis, lv, s, pts)
            ops.append(Op(suite, lv, {"suite": suite}, run, check))
    return ops


def _curve_points(rx, lam, triples):
    return [rx.CurvePoint(complex(x, y), sign * rx.principal_w(complex(x, y), lam), lam)
            for x, y, sign in triples]


def _suite_curvature(rx, analysis, lv, s, pts):
    def run():
        lam = rx.Lambda(lv)
        val = rx.abs_gauss_curvature(1j, lam, rx.Normalization.raw(lam))
        return val, rx.verify_curvature_bound(lam)

    def check(obs, res):
        val, report = res
        expect = lv + 1.0 / lv
        r = abs(val - expect) / expect
        obs.check("curvature-at-i", r, 1e-10, r < 1e-10)
        obs.check("curvature-universal-bound", max(report.max_abs_k - 4.0, 0.0), 0.0,
                  report.max_abs_k <= 4.0)
        obs.check("curvature-sharp-bound", max(report.refined_max - 2.0, 0.0), 1e-3,
                  report.refined_max <= 2.0 + 1e-3)
    return run, check


def _suite_periods(rx, analysis, lv, s, pts):
    target = 2.0 * complex(math.cos(1.0), math.sin(1.0))

    def run():
        lam = rx.Lambda(lv)
        norm = rx.Normalization.paper(lam)
        pv = rx.period_vectors(lam, norm)
        p0 = rx.immerse(lam, norm, [target])[0]
        p1 = rx.immerse(lam, norm, [target], winding=1)[0]
        return pv, p0, p1

    def check(obs, res):
        pv, p0, p1 = res
        ratio = float(np.linalg.norm(pv.companion) / np.linalg.norm(pv.translation))
        obs.check("companion-period-vanishes", ratio, 1e-6, ratio < 1e-6)
        gap = float(np.linalg.norm((p1.position - p0.position) - pv.translation))
        obs.check("winding-adds-translation", gap, 1e-8, gap < 1e-8)
        _period_obs(obs, lv, pv, s)
        _points_x2(obs, lv, s, [p0, p1])
    return run, check


def _suite_symmetry(rx, analysis, lv, s, pts):
    def run():
        lam = rx.Lambda(lv)
        norm = rx.Normalization.paper(lam)
        report = rx.check_symmetries(lam, norm, _curve_points(rx, lam, pts["symmetry"]))
        ts = np.linspace(0.15, 0.95, 7) * min(lv, 1.0)
        line = rx.immerse(lam, norm, ts.astype(complex))
        tg = np.linspace(1.3, 3.0, 7) * max(lv, 1.0)
        geo = rx.immerse(lam, norm, tg.astype(complex))
        return report, line, geo

    def check(obs, res):
        report, line, geo = res
        obs.check("symmetry-residuals", report.max_residual, report.tolerance, report.passed)
        res_line = analysis.line_fit_residual([sp.position for sp in line])
        obs.check("line-interval-colinear", res_line, 1e-7, res_line < 1e-7)
        gpts = np.array([sp.position for sp in geo])
        normal, _, dev = analysis.plane_fit(gpts)
        span = float(np.linalg.norm(gpts.max(axis=0) - gpts.min(axis=0)))
        geo_res = max(dev / span, abs(abs(normal[1]) - 1.0))
        obs.check("planar-geodesic-coplanar", geo_res, 1e-7, geo_res < 1e-7)
        _points_x2(obs, lv, s, list(line) + list(geo))
    return run, check


def _suite_conjugate(rx, analysis, lv, s, pts):
    def run():
        lam = rx.Lambda(lv)
        return rx.conjugate_check(lam, _curve_points(rx, lam, pts["conjugate"]))

    def check(obs, report):
        obs.check("conjugacy-identity", report.max_residual, 1e-10, report.max_residual < 1e-10)
    return run, check


def _suite_foliation(rx, analysis, lv, s, pts):
    def run():
        lam = rx.Lambda(lv)
        norm = rx.Normalization.paper(lam)
        grids = [rx.immerse_grid(lam, norm, r_min=0.1, r_max=10.0, n_rad=24, n_ang=48,
                                 sheet_sign=sg, closed=True) for sg in (+1, -1)]
        spacing = rx.end_spacing(lam, norm)
        base = float(rx.immerse(lam, norm, [complex(min(lv, 1.0) * 0.5)])[0].position[2])
        heights = base + spacing * np.linspace(0.25, 0.75, 8)
        return grids, rx.foliation_slices(grids, heights)

    def check(obs, res):
        grids, slices = res
        for g in grids:
            obs.positions(g.positions)
            obs.x2_err.append(oracles.x2_error(g.positions[..., 1].ravel(), g.z.ravel(),
                                               g.w.ravel(), lv, s))
        worst = max((sl.residual / sl.radius if sl.kind == "circle" else math.inf)
                    for sl in slices)
        obs.check("level-circle-fit", worst, 1e-6, worst < 1e-6)
    return run, check


_VERIFY_SUITES = {
    "curvature": _suite_curvature,
    "periods": _suite_periods,
    "symmetry": _suite_symmetry,
    "conjugate": _suite_conjugate,
    "foliation": _suite_foliation,
}


def _max_curvature_on_annulus(rx, lam, norm, L: float) -> float:
    """The annulus curvature maximum that `limits` reports per lam."""
    logr = np.linspace(-math.log(L), math.log(L), 96)
    theta = np.linspace(-math.pi, math.pi, 96, endpoint=False)
    z = np.exp(logr[:, None] + 1j * theta[None, :])
    return float(np.max(rx.abs_gauss_curvature(z, lam, norm)))


def _limits_ops(inputs, rx, workdir):
    from riemann_examples.weierstrass import normalization_scale

    L = inputs["annulus_L"]
    clip_r = inputs["clip_r"]
    ops = []
    for target, sched in inputs["schedules"].items():
        for lv in sched:
            def run(target=target, lv=lv):
                annulus = rx.Annulus(L=L)
                clip = rx.ClipRegion("ball", clip_r)
                lam = rx.Lambda(lv)
                if target == "catenoid":
                    report = rx.catenoid_limit_sweep([lv], annulus, clip)
                    norm = rx.Normalization.paper(lam)
                elif target == "helicoid":
                    report = rx.helicoid_limit_sweep([lv], annulus, clip)
                    norm = rx.Normalization.paper(lam)
                else:
                    report = rx.plane_limit_experiment([lv], annulus, clip)
                    norm = rx.Normalization.spacing(lam)
                return report, norm, _max_curvature_on_annulus(rx, lam, norm, L)

            def check(obs, res, target=target, lv=lv):
                report, norm, kmax = res
                if target == "planes":
                    dev = report.plane_deviations[0]
                    # the spacing normalization reports the end gap as 2 pi
                    spacing, s = 2.0 * math.pi, normalization_scale(norm)
                else:
                    dev = report.deviations[0]
                    spacing, s = report.extras["end_spacing"][0], oracles.paper_scale(lv)
                obs.check("deviation-finite", 0.0, 0.0, math.isfinite(dev))
                obs.check("annulus-curvature-bound", max(kmax - 4.0, 0.0), 0.0, kmax <= 4.0)
                obs.spacings.append({"lam": lv, "s": float(s), "value": float(spacing)})
            ops.append(Op(target, lv, {"sweep": target, "annulus_L": L, "clip_r": clip_r},
                          run, check))
    return ops


def _envelope_op(rx, op: str, lv: float, targets, mesh_res):
    s = oracles.paper_scale(lv)

    def setup():
        lam = rx.Lambda(lv)
        return lam, rx.Normalization.paper(lam)

    if op == "period_vectors":
        def run():
            return rx.period_vectors(*setup())

        def check(obs, pv):
            _period_obs(obs, lv, pv, s)
    elif op == "end_spacing":
        def run():
            return rx.end_spacing(*setup())

        def check(obs, value):
            obs.spacings.append({"lam": lv, "s": s, "value": float(value)})
    elif op.startswith("immerse"):
        sign = +1 if op.endswith("+1") else -1
        zs = [complex(x, y) for x, y in targets]

        def run():
            lam, norm = setup()
            return rx.immerse(lam, norm, zs, sheet_sign=sign)

        def check(obs, pts):
            _points_x2(obs, lv, s, pts)
    elif op == "build_mesh":
        def run():
            lam, norm = setup()
            return rx.build_mesh(lam, norm, n_rad=mesh_res[0], n_ang=mesh_res[1])

        def check(obs, mesh):
            _mesh_checks(obs, lv, s, mesh)
    elif op == "curvature_bound":
        def run():
            return rx.verify_curvature_bound(rx.Lambda(lv))

        def check(obs, report):
            obs.check("curvature-universal-bound", max(report.max_abs_k - 4.0, 0.0), 0.0,
                      report.max_abs_k <= 4.0)
            obs.check("curvature-sharp-bound", max(report.refined_max - 2.0, 0.0), 1e-3,
                      report.refined_max <= 2.0 + 1e-3)
    else:
        raise ValueError(f"unknown envelope operation {op!r}")
    args = {"targets": targets} if targets else {}
    return Op(op, lv, args, run, check)


ENVELOPE_OPS = ("period_vectors", "end_spacing", "immerse+1", "immerse-1", "build_mesh",
                "curvature_bound")


def _envelope_ops(inputs, rx, workdir):
    res = inputs["mesh_resolution"]
    ops = [_envelope_op(rx, op, entry["lam"],
                        entry["targets"] if op.startswith("immerse") else None, res)
           for entry in inputs["per_lambda"] for op in ENVELOPE_OPS]
    ops += [_envelope_op(rx, p["op"], p["lam"], p.get("targets"), res)
            for p in inputs["cap_probes"]]
    return ops
