"""The benchmark's gated workloads, run in-process against the package.

`perfbench/worker.py` runs one pass of a workload and records, per
operation, the error it raised and the checks of its result; the benchmark
counts an operation with either as failed (ops_ok_frac).  A change of a
name, a signature or a result that the workloads use must fail here.  The
worker and its modules are loaded read-only from perfbench/.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))     # the worker imports speed and workloads
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("_perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in set(sys.modules) - before:
        if (getattr(sys.modules[name], "__file__", None) or "").startswith(str(PERFBENCH)):
            del sys.modules[name]


@pytest.mark.parametrize("workload", ["mesh", "verify"])
def test_every_operation_returns_and_passes_its_checks(worker, tmp_path, workload):
    workloads = sys.modules["workloads"]
    inputs = workloads.make_inputs(workload, 1)
    if workload == "mesh":
        inputs["resolution"] = [12, 24]
    out = worker.run_pass({"workload": workload, "inputs": inputs, "trace": 0,
                           "workdir": str(tmp_path)})
    assert out["records"]
    for rec in out["records"]:
        assert rec["error"] is None, (rec["op"], rec["lam"], rec["error"])
        assert all(passed for *_, passed in rec["obs"]["checks"]), (rec["op"], rec["obs"])
        assert all(e <= workloads.oracles.POSITION_TOL for e in rec["obs"]["x2_err"]), rec["op"]
