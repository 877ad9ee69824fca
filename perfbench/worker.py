"""One pass of one workload in a fresh interpreter.

Reads {"workload", "inputs", "trace", "workdir"} as JSON on stdin and writes
one JSON object on stdout: a record per operation (its seconds, the error
it raised, the observations of its check), the pass's wall time (the sum of
the operations' timed calls), the same sum with each call scaled to the
nominal machine speed (speed.py), the peak RSS seen right after the calls,
a digest of every computed position and, when traced, the per-layer metrics.

run.py starts a new worker for every pass, so the package's lru_caches
start empty each time, as they do for every CLI call.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import speed  # noqa: E402
import workloads  # noqa: E402


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(spec: dict) -> dict:
    import riemann_examples as rx
    import spans

    ops = workloads.build_ops(spec["workload"], spec["inputs"], rx, spec["workdir"])
    tracer = spans.install() if spec["trace"] else None
    digest = hashlib.sha256()
    records = []
    wall = scaled_wall = 0.0
    peak = _rss_mb()
    it = speed.iteration_seconds()
    last_use = {id(op.needs): i for i, op in enumerate(ops) if op.needs is not None}
    try:
        for i, op in enumerate(ops):
            rec = {"op": op.name, "lam": op.lam, "args": op.args, "s": 0.0, "scaled_s": 0.0,
                   "error": None, "obs": None}
            records.append(rec)
            if op.needs is not None and op.needs.result is None:
                rec["error"] = ["DependencyFailed", False, f"{op.needs.name} did not return"]
                continue
            timed = speed.Timed(it)
            try:
                with timed:
                    op.result = op.run()
            except Exception as exc:  # recorded per operation, the pass goes on
                rec["error"] = [type(exc).__name__, isinstance(exc, rx.RiemannFamilyError),
                                str(exc)[:300]]
            peak = max(peak, _rss_mb())
            it = speed.iteration_seconds()
            rec["s"] = timed.elapsed
            rec["scaled_s"] = timed.scaled(it)
            wall += rec["s"]
            scaled_wall += rec["scaled_s"]
            if rec["error"] is None:
                obs = workloads.Observations(digest)
                try:
                    op.check(obs, op.result)
                except Exception:
                    rec["error"] = ["CheckRaised", False, traceback.format_exc(limit=3)[-300:]]
                rec["obs"] = obs.as_dict()
            # drop results nobody needs any more, so peak RSS is one mesh's
            if id(op) not in last_use:
                op.result = None
            if op.needs is not None and last_use[id(op.needs)] == i:
                op.needs.result = None
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"records": records, "wall_s": wall, "scaled_wall_s": scaled_wall,
           "peak_rss_mb": peak, "digest": digest.hexdigest()}
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer, wall)
    return out


if __name__ == "__main__":
    json.dump(run_pass(json.load(sys.stdin)), sys.stdout)
