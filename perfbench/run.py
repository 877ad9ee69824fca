"""Benchmark of riemann_examples: mesh, verify, limits and envelope workloads.

    python3 perfbench/run.py --workload mesh --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  run.py draws the workload's inputs
from the seed, times `import riemann_examples` in fresh interpreters
(setup_s), then runs passes of the workload, each in a fresh worker process
with BLAS threads pinned to 1, until --seconds have been spent in passes.
Every result is judged against oracles that share no code with the package
(perfbench/oracles.py), evaluated outside the timed regions.

stdout carries one JSON report line (inputs, every operation's outcome,
all metrics with units, the failing operations) and, last, the result line
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the result
metrics are the end-to-end ones; with --trace 1 the workers alternate
untraced and traced passes and the result metrics are the per-layer ones.

The CLI is not called: `riemann_examples.cli` fails to import, so the
workloads make the same library calls its commands make.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import COUNT_METRICS  # noqa: E402

#: Result metrics of a run with --trace 0, with their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
    "oracle_digits": "digits",
}

#: Result metrics of a run with --trace 1.  Layer times that a workload can
#: skip entirely are given as shares of the pass's wall time, so they read 0
#: there rather than a constant number of seconds.
PER_LAYER = (
    "curve.continue_sheet.calls", "curve.continue_sheet.self_s",
    "curve.continue_sheet.bisections",
    "weierstrass.gk_panels", "weierstrass.path_integral.calls",
    "weierstrass.path_integral.self_s", "weierstrass.panels_per_integral",
    "weierstrass.us_per_panel",
    "weierstrass.immerse_grid.edges", "weierstrass.immerse_grid.s",
    "weierstrass.immerse_grid.us_per_edge", "weierstrass.radial_edge_alignment.s",
    "weierstrass.period_vectors.s",
    "analysis.foliation_slices.share", "analysis.foliation_slices.crossings",
    "analysis.continuations_per_crossing",
    "weierstrass.immerse.points", "weierstrass.immerse.share",
    "analysis.check_symmetries.share", "analysis.verify_curvature_bound.share",
    "mesh.build_mesh.self_share", "mesh.export.share", "mesh.export.bytes",
    "trace.overhead_frac",
)

SETUP_REPEATS = 5
#: Every run must end within 180 s; no pass starts after this many seconds.
PASS_DEADLINE_S = 150.0
RUN_DEADLINE_S = 170.0


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to an operation failing)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict, timeout: float) -> float:
    """Seconds from spawning a fresh interpreter until `import riemann_examples`
    returns in it (CLOCK_MONOTONIC is shared by all processes on Linux).
    The oracles are not imported there; their cost is not set-up."""
    code = "import time, riemann_examples; print(repr(time.monotonic()))"
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise HarnessError("importing riemann_examples failed:\n" + proc.stderr[-2000:])
    return float(proc.stdout) - t0


def run_worker(spec: dict, env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise HarnessError("worker failed:\n" + proc.stderr[-2000:])
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# judging operations against their checks and oracles
# ---------------------------------------------------------------------------

class PeriodOracle:
    """mpmath periods of the raw family, computed once per lam in a run."""

    def __init__(self):
        self.cache = {}

    def __call__(self, lam: float) -> tuple:
        if lam not in self.cache:
            self.cache[lam] = oracles.raw_periods(lam)
        return self.cache[lam]


def judge(rec: dict, periods: PeriodOracle) -> None:
    """Set rec["outcome"] (ok / error / exception / wrong), rec["failure"]
    (the class of a failure) and rec["oracle_err"] (largest relative
    deviation from an oracle)."""
    rec["oracle_err"] = None
    if rec["error"] is not None:
        cls, family_error, _ = rec["error"]
        rec["outcome"] = "error" if family_error else "exception"
        rec["failure"] = cls
        return
    obs = rec["obs"]
    misses = [c[0] for c in obs["checks"] if not c[3]]
    errs = [("x2", e, oracles.POSITION_TOL) for e in obs["x2_err"]]
    for p in obs["periods"]:
        t1, t3 = periods(p["lam"])
        s = p["s"]
        errs += [("T1", oracles.rel_err(p["T1"], s * t1), oracles.PERIOD_TOL),
                 ("T2", abs(p["T2"]) / abs(s * t3), oracles.PERIOD_TOL),
                 ("T3", oracles.rel_err(p["T3"], s * t3), oracles.PERIOD_TOL)]
    for sp in obs["spacings"]:
        _, t3 = periods(sp["lam"])
        errs.append(("end_spacing=T3/2", oracles.rel_err(sp["value"], sp["s"] * t3 / 2),
                     oracles.PERIOD_TOL))
    misses += [f"{name} (rel. err {e:.3g} > {tol:g})" for name, e, tol in errs
               if not e <= tol]
    if errs:
        rec["oracle_err"] = max(e for _, e, _ in errs)
    rec["outcome"] = "wrong" if misses else "ok"
    rec["failure"] = "wrong: " + "; ".join(misses) if misses else None


def summarize(rec: dict) -> dict:
    out = {k: rec[k] for k in ("op", "lam", "args", "s", "scaled_s", "outcome", "failure",
                               "oracle_err")}
    if rec["error"] is not None:
        out["message"] = rec["error"][2]
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "riemann_examples" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'riemann_examples'}", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed)
    # one CPU for this process and every process it starts, so that the speed
    # measured here is that of the CPU the interpreters start on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    try:
        return _run(args, inputs, env, workdir, started)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark harness failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, inputs, env, workdir, started) -> int:
    def remaining() -> float:
        return RUN_DEADLINE_S - (time.monotonic() - started)

    setup, setup_scaled = [], []
    it = speed.iteration_seconds()

    def sample_setup():
        nonlocal it
        setup.append(measure_setup(env, remaining()))
        before, it = it, speed.iteration_seconds()
        setup_scaled.append(speed.scale(setup[-1], [before, it]))

    # the first import in a checkout compiles bytecode; users pay that once
    measure_setup(env, remaining())
    for _ in range(SETUP_REPEATS):
        sample_setup()

    spec = {"workload": args.workload, "inputs": inputs, "workdir": str(workdir)}
    plain, traced = [], []
    spent = 0.0
    while True:
        want_trace = bool(args.trace) and len(traced) < len(plain)
        t0 = time.monotonic()
        res = run_worker(dict(spec, trace=want_trace), env, remaining())
        spent += time.monotonic() - t0
        (traced if want_trace else plain).append(res)
        # more set-up samples, spread over the run like the passes
        sample_setup()
        sample_setup()
        if spent >= args.seconds and (traced or not args.trace):
            break
        mean_pass = spent / (len(plain) + len(traced))
        if time.monotonic() - started + mean_pass > PASS_DEADLINE_S:
            break

    periods = PeriodOracle()
    passes = plain + traced
    for res in passes:
        for rec in res["records"]:
            judge(rec, periods)
    first = passes[0]["records"]
    notes = []
    signature = [(r["op"], r["lam"], r["outcome"], r["failure"]) for r in first]
    if any([(r["op"], r["lam"], r["outcome"], r["failure"]) for r in p["records"]] != signature
           for p in passes[1:]):
        notes.append("operation outcomes differ between passes of the same inputs")
    if len({p["digest"] for p in passes}) != 1:
        notes.append("computed positions differ between passes (traced or not)")

    attempted = sum(len(p["records"]) for p in passes)
    failed = sum(r["outcome"] != "ok" for p in passes for r in p["records"])
    ok_errs = [r["oracle_err"] for r in first if r["outcome"] == "ok" and r["oracle_err"] is not None]
    oracle_err_max = max(ok_errs) if ok_errs else None
    failing = [r for r in first if r["outcome"] != "ok"]
    by_class = {}
    for r in failing:
        cls = "wrong" if r["outcome"] == "wrong" else r["failure"]
        by_class[cls] = by_class.get(cls, 0) + 1

    walls = [p["wall_s"] for p in plain]
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "setup_s_raw": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["scaled_wall_s"] for p in plain), "s"),
        "wall_s_raw": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
        "ops_failed_frac": (len(failing) / len(first), "ratio"),
        "ops_ok_frac": (1.0 - len(failing) / len(first), "ratio"),
        "oracle_err_max": (oracle_err_max, "rel."),
        # digits of agreement with the oracles; 0 when nothing could be compared
        "oracle_digits": (-math.log10(max(oracle_err_max, 1e-17)) if ok_errs else 0.0, "digits"),
        "envelope.failure_s_max": (max((r["s"] for r in failing), default=0.0), "s"),
    }
    for cls, n in sorted(by_class.items()):
        metrics[f"envelope.failed_by_class.{cls}"] = (n, "count")
    if traced:
        layers = {}
        for name, (value, unit) in traced[0]["layers"].items():
            if name not in COUNT_METRICS:
                value = statistics.median(p["layers"][name][0] for p in traced)
            layers[name] = (value, unit)
        if any(p["layers"][k][0] != traced[0]["layers"][k][0]
               for p in traced[1:] for k in COUNT_METRICS):
            notes.append("work counts differ between traced passes")
        layers["trace.overhead_frac"] = (
            statistics.median(p["scaled_wall_s"] for p in traced)
            / statistics.median(p["scaled_wall_s"] for p in plain) - 1.0,
            "ratio")
        metrics.update(layers)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inputs,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "samples": {"setup_s": setup, "setup_s_scaled": setup_scaled, "wall_s": walls,
                    "wall_s_scaled": [p["scaled_wall_s"] for p in plain],
                    "op_s": [[r["s"] for r in p["records"]] for p in plain],
                    "op_s_scaled": [[r["scaled_s"] for r in p["records"]] for p in plain],
                    "traced_wall_s": [p["wall_s"] for p in traced]},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "operations": [summarize(r) for r in first],
        "failing": [summarize(r) for r in failing],
        "notes": notes,
    }
    print(json.dumps({"report": report}))

    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not failed and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
