"""Spans and counters recorded around the package's public functions.

Nothing in the package changes: `install` replaces each traced function at
every module attribute that is bound to it (callers resolve module globals
at call time, so e.g. `weierstrass.continue_sheet` and `curve.continue_sheet`
are both caught) and `uninstall` puts the originals back.

Each span is [name, start, end, parent index]; a span's self time is its
duration minus the durations of its direct children.  GK panels are counted
with a bare counter on `weierstrass.phi_components`, which runs once per
GK15 panel of the Weierstrass integrand: a span per panel would double the
cost of a mesh.
"""

from __future__ import annotations

import os
import sys
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self._patched = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def span(self, original, name: str, after=None) -> None:
        """Record a span named `name` around every call of `original`;
        `after(tracer, args, kwargs, result)` adds counts once it returns."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            idx = len(tracer.spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            tracer.spans.append(rec)
            stack.append(idx)
            rec[1] = _clock()
            try:
                out = original(*args, **kwargs)
            finally:
                rec[2] = _clock()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        self._replace(original, wrapper, _package_modules())

    def counter(self, module, attr: str, name: str) -> None:
        """Count calls made through one module attribute only."""
        original = getattr(module, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, total duration and self time (seconds).

        A span nested inside another span of the same name counts as a call
        but adds nothing to the total, which would count it twice.
        """
        bits = {}
        above = [0] * len(self.spans)   # bit mask of the names on the path above
        child = [0.0] * len(self.spans)
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += t1 - t0
                pname = self.spans[parent][0]
                above[i] = above[parent] | bits.setdefault(pname, 1 << len(bits))
        out = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            outer = not above[i] & bits.get(name, 0)
            out[name] = (calls + 1, total + (t1 - t0) * outer, self_s + (t1 - t0 - child[i]))
        return out

    def calls_under(self, name: str, ancestor: str, stop=()) -> int:
        """Spans called `name` whose nearest ancestor among {ancestor, *stop}
        is `ancestor`."""
        stops = set(stop) | {ancestor}
        n = 0
        for rec in self.spans:
            if rec[0] != name:
                continue
            p = rec[3]
            while p >= 0 and self.spans[p][0] not in stops:
                p = self.spans[p][3]
            if p >= 0 and self.spans[p][0] == ancestor:
                n += 1
        return n


def _package_modules():
    return [m for k, m in sys.modules.items()
            if m is not None and (k == "riemann_examples" or k.startswith("riemann_examples."))]


# -- count hooks ---------------------------------------------------------------

def _bisections(tracer, args, kwargs, path):
    # every bisection of a segment adds exactly one vertex to the output
    v = list(args[0] if args else kwargs["path_vertices"])
    segments = sum(bool(a != b) for a, b in zip(v, v[1:]))
    tracer.count("curve.continue_sheet.bisections", len(path.vertices) - 1 - segments)


def _grid_edges(tracer, args, kwargs, grid):
    n_rad, n_col = grid.z.shape
    tracer.count("weierstrass.immerse_grid.edges", (n_rad - 1) + n_rad * (n_col - 1))


def _immerse_points(tracer, args, kwargs, out):
    tracer.count("weierstrass.immerse.points", len(out))


def _crossings(tracer, args, kwargs, slices):
    tracer.count("analysis.foliation_slices.crossings", sum(s.n_points for s in slices))


def _export_bytes(tracer, args, kwargs, out):
    path = args[2] if len(args) > 2 else kwargs["path"]
    tracer.count("mesh.export.bytes", os.path.getsize(path))


def install() -> Tracer:
    """Wrap the layers of the imported package in a new Tracer."""
    from riemann_examples import analysis, curve, limits, mesh, weierstrass

    t = Tracer()
    # the panel counter goes first so that only the integrand's own binding
    # (resolved by weierstrass_integrand) is counted, not direct callers
    t.counter(weierstrass, "phi_components", "weierstrass.gk_panels")
    t.span(curve.continue_sheet, "curve.continue_sheet", _bisections)
    t.span(weierstrass.path_integral, "weierstrass.path_integral")
    t.span(weierstrass.immerse_grid, "weierstrass.immerse_grid", _grid_edges)
    t.span(weierstrass.radial_edge_alignment, "weierstrass.radial_edge_alignment")
    t.span(weierstrass.immerse, "weierstrass.immerse", _immerse_points)
    t.span(weierstrass.period_vectors, "weierstrass.period_vectors")
    t.span(weierstrass.vertical_end_spacing, "weierstrass.end_spacing")
    t.span(analysis.foliation_slices, "analysis.foliation_slices", _crossings)
    t.span(analysis.check_symmetries, "analysis.check_symmetries")
    t.span(analysis.verify_curvature_bound, "analysis.verify_curvature_bound")
    t.span(mesh.build_mesh, "mesh.build_mesh")
    t.span(mesh.export, "mesh.export", _export_bytes)
    for fn in (limits.catenoid_limit_sweep, limits.helicoid_limit_sweep,
               limits.plane_limit_experiment, limits.conjugate_check):
        t.span(fn, "limits." + fn.__name__)
    return t


def layer_metrics(t: Tracer, wall_s: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) of one traced pass whose
    operations took `wall_s` seconds.  A `.share` is a layer's time over
    `wall_s`: it reads 0, not a constant time, on workloads that skip it."""
    tot = t.totals()
    c = t.counts

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    panels = c.get("weierstrass.gk_panels", 0)
    edges = c.get("weierstrass.immerse_grid.edges", 0)
    points = c.get("weierstrass.immerse.points", 0)
    crossings = c.get("analysis.foliation_slices.crossings", 0)
    slicing_continuations = t.calls_under(
        "curve.continue_sheet", "analysis.foliation_slices",
        stop=("weierstrass.radial_edge_alignment", "weierstrass.period_vectors",
              "weierstrass.immerse"))
    return {
        "curve.continue_sheet.calls": (calls("curve.continue_sheet"), "count"),
        "curve.continue_sheet.self_s": (self_s("curve.continue_sheet"), "s"),
        "curve.continue_sheet.bisections": (c.get("curve.continue_sheet.bisections", 0), "count"),
        "weierstrass.gk_panels": (panels, "count"),
        "weierstrass.path_integral.calls": (calls("weierstrass.path_integral"), "count"),
        "weierstrass.path_integral.self_s": (self_s("weierstrass.path_integral"), "s"),
        "weierstrass.panels_per_integral": (ratio(panels, calls("weierstrass.path_integral")), "ratio"),
        "weierstrass.us_per_panel": (1e6 * ratio(total("weierstrass.path_integral"), panels), "us"),
        "weierstrass.immerse_grid.edges": (edges, "count"),
        "weierstrass.immerse_grid.s": (total("weierstrass.immerse_grid"), "s"),
        "weierstrass.immerse_grid.us_per_edge": (1e6 * ratio(total("weierstrass.immerse_grid"), edges), "us"),
        "weierstrass.radial_edge_alignment.s": (total("weierstrass.radial_edge_alignment"), "s"),
        "analysis.foliation_slices.s": (total("analysis.foliation_slices"), "s"),
        "analysis.foliation_slices.crossings": (crossings, "count"),
        "analysis.continuations_per_crossing": (ratio(slicing_continuations, crossings), "ratio"),
        "weierstrass.immerse.points": (points, "count"),
        "weierstrass.immerse.ms_per_point": (1e3 * ratio(total("weierstrass.immerse"), points), "ms"),
        "analysis.check_symmetries.s": (total("analysis.check_symmetries"), "s"),
        "weierstrass.period_vectors.s": (total("weierstrass.period_vectors"), "s"),
        "weierstrass.end_spacing.s": (total("weierstrass.end_spacing"), "s"),
        "analysis.verify_curvature_bound.s": (total("analysis.verify_curvature_bound"), "s"),
        "mesh.build_mesh.self_s": (self_s("mesh.build_mesh"), "s"),
        "mesh.export.s": (total("mesh.export"), "s"),
        "mesh.export.bytes": (c.get("mesh.export.bytes", 0), "bytes"),
        "limits.catenoid_limit_sweep.s": (total("limits.catenoid_limit_sweep"), "s"),
        "limits.helicoid_limit_sweep.s": (total("limits.helicoid_limit_sweep"), "s"),
        "limits.plane_limit_experiment.s": (total("limits.plane_limit_experiment"), "s"),
        "limits.conjugate_check.s": (total("limits.conjugate_check"), "s"),
        "analysis.foliation_slices.share": (ratio(total("analysis.foliation_slices"), wall_s), "ratio"),
        "analysis.check_symmetries.share": (ratio(total("analysis.check_symmetries"), wall_s), "ratio"),
        "analysis.verify_curvature_bound.share": (
            ratio(total("analysis.verify_curvature_bound"), wall_s), "ratio"),
        "weierstrass.immerse.share": (ratio(total("weierstrass.immerse"), wall_s), "ratio"),
        "mesh.build_mesh.self_share": (ratio(self_s("mesh.build_mesh"), wall_s), "ratio"),
        "mesh.export.share": (ratio(total("mesh.export"), wall_s), "ratio"),
    }


#: Metrics of `layer_metrics` that are exact counts and must repeat across runs.
COUNT_METRICS = (
    "curve.continue_sheet.calls", "curve.continue_sheet.bisections",
    "weierstrass.gk_panels", "weierstrass.path_integral.calls",
    "weierstrass.immerse_grid.edges", "analysis.foliation_slices.crossings",
    "weierstrass.immerse.points", "mesh.export.bytes",
)
