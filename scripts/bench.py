#!/usr/bin/env python3
"""Run the benchmark workloads and write a BENCH file.

    python3 scripts/bench.py BENCH_10.json

For each workload listed in BENCHMARK.json and each seed 1, 2, 3 this runs
perfbench/run.py twice, untraced (--trace 0: the end-to-end metrics) and
traced (--trace 1: the per-layer counters and times), for the run length
BENCHMARK.json sets.  The output file holds, per
workload and metric, the unit, the median and quartiles over the seeds and
every seed's value, with the operations attempted and failed, and the
same summary of each operation's scaled seconds (the median over the
untraced run's passes, keyed "op@k" with k the index of the operation's
lam in the pass: the seeds draw different lams).  The ungated
workloads of UNGATED run untraced at the same seeds, for the same run
length; for them it records per seed the operations attempted and failed,
ops_ok_frac and oracle_digits, and the distinct failing operations of the
run's report line (operation, lam, failure class and the head of the
message).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
#: Workloads perfbench runs that BENCHMARK.json does not gate: they track
#: correctness over the family (limit sweeps, the parameter envelope).
UNGATED = ("limits", "envelope")
#: Characters of a failure message kept in the list of failing operations.
MESSAGE_HEAD = 160


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """The report line (its "report" object) and the result line of one
    perfbench run."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    report, result = out.strip().splitlines()[-2:]
    return json.loads(report)["report"], json.loads(result)


def failing_ops(report: dict, seed: int) -> list:
    """The distinct failing operations of a report: seed, operation, lam,
    failure class and the head of the message."""
    out = []
    for r in report["failing"]:
        op = {"seed": seed, "op": r["op"], "lam": r["lam"], "failure": r["failure"],
              "message": (r.get("message") or "")[:MESSAGE_HEAD]}
        if op not in out:
            out.append(op)
    return out


def op_seconds(report: dict) -> dict:
    """Median over a report's untraced passes of each operation's scaled
    seconds, keyed "op@k" with k the index of the operation's lam among the
    pass's lams in order of first use; repeats of a key in a pass add up."""
    lams = list(dict.fromkeys(r["lam"] for r in report["operations"]))
    keys = [f"{r['op']}@{lams.index(r['lam'])}" for r in report["operations"]]
    passes = report["samples"]["op_s_scaled"]
    return {k: statistics.median(sum(s for key, s in zip(keys, p) if key == k) for p in passes)
            for k in dict.fromkeys(keys)}


def summarize(runs: list) -> dict:
    """Unit, median, quartiles and per-seed values of every metric of the runs."""
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"unit": first["unit"], "median": statistics.median(values),
                     "q1": q1, "q3": q3, "values": values}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path, help="BENCH file to write")
    args = ap.parse_args(argv)

    result = {
        "command": " ".join(spec["command"]),
        "seeds": list(SEEDS),
        "seconds": spec["run_seconds"],
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "system": platform.system(), "processor": platform.machine()},
        "workloads": {},
        "ungated": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {trace: [] for trace in (0, 1)}
        op_s = []
        for seed in SEEDS:
            for trace in (0, 1):
                report, run = run_once(workload, seed, spec["run_seconds"], trace)
                runs[trace].append(run)
                if trace == 0:
                    op_s.append({"metrics": {k: {"value": v, "unit": "s"}
                                             for k, v in op_seconds(report).items()}})
                print(f"{workload} seed {seed} trace {trace}: done", file=sys.stderr)
        result["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs[0]],
            "failed": [r["failed"] for r in runs[0]],
            "correct": [r["correct"] for r in runs[0] + runs[1]],
            "end_to_end": summarize(runs[0]),
            "layers": summarize(runs[1]),
            "op_s_scaled": summarize(op_s),
        }
    for workload in UNGATED:
        out = {"seeds": list(SEEDS), "attempted": [], "failed": [], "ops_ok_frac": [],
               "oracle_digits": [], "failing": []}
        for seed in SEEDS:
            report, run = run_once(workload, seed, spec["run_seconds"], 0)
            print(f"{workload} seed {seed} trace 0: done", file=sys.stderr)
            out["attempted"].append(run["attempted"])
            out["failed"].append(run["failed"])
            for name in ("ops_ok_frac", "oracle_digits"):
                out[name].append(run["metrics"][name]["value"])
            out["failing"] += failing_ops(report, seed)
        result["ungated"][workload] = out
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
