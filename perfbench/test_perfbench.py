"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _worker(spec: dict) -> dict:
    return run.run_worker(spec, run.child_env(), timeout=170)


@pytest.fixture(scope="module")
def small_spec(tmp_path_factory):
    """A short pass that still crosses every counted layer: a small mesh and
    the periods, symmetry and foliation checks at one lam."""
    mesh = workloads.make_inputs("mesh", 5)
    mesh.update(lambdas=mesh["lambdas"][2:], resolution=[12, 24])
    verify = workloads.make_inputs("verify", 5)
    verify.update(lambdas=[2.0], suites=["periods", "symmetry", "foliation"])
    workdir = str(tmp_path_factory.mktemp("work"))
    return [{"workload": "mesh", "inputs": mesh, "workdir": workdir},
            {"workload": "verify", "inputs": verify, "workdir": workdir}]


def test_metric_names_are_well_formed_and_match_benchmark_json():
    bench = _bench_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    layer_units = {k: u for k, (_, u) in spans.layer_metrics(spans.Tracer(), 1.0).items()}
    layer_units["trace.overhead_frac"] = "ratio"
    for m in bench["per_layer"]:
        assert layer_units[m["name"]] == m["unit"]
    names = [w["name"] for w in bench["workloads"]] + list(run.END_TO_END) + list(layer_units)
    names += ["ops_failed_frac", "oracle_err_max", "envelope.failure_s_max"]
    for name in names:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)


def test_traced_runs_repeat_their_counts(small_spec):
    for spec in small_spec:
        a = _worker(dict(spec, trace=True))["layers"]
        b = _worker(dict(spec, trace=True))["layers"]
        assert {k: a[k] for k in spans.COUNT_METRICS} == {k: b[k] for k in spans.COUNT_METRICS}
    assert a["weierstrass.gk_panels"][0] > 0
    assert a["analysis.foliation_slices.crossings"][0] > 0
    assert a["curve.continue_sheet.bisections"][0] > 0


def test_wrapping_leaves_positions_bitwise_equal(small_spec):
    for spec in small_spec:
        plain = _worker(dict(spec, trace=False))
        traced = _worker(dict(spec, trace=True))
        assert plain["digest"] == traced["digest"]
        assert all(r["error"] is None for r in plain["records"] + traced["records"])


def test_oracles_share_no_code_with_the_package():
    source = Path(oracles.__file__).read_text()
    assert not re.search(r"^\s*(from|import)\s+(riemann_examples|workloads|spans)", source, re.M)


def test_end_spacing_oracle_at_lambda_one():
    """At lam = 1 both the package's semicircle spacing and T3/2 are right."""
    sys.path.insert(0, str(run.ROOT / "src"))
    import riemann_examples as rx

    lam = rx.Lambda(1.0)
    norm = rx.Normalization.paper(lam)
    t1, t3 = oracles.raw_periods(1.0)
    assert oracles.rel_err(rx.end_spacing(lam, norm), t3 / 2) < 1e-12
    pv = rx.period_vectors(lam, norm)
    assert oracles.rel_err(pv.translation[2], t3) < 1e-12
    assert oracles.rel_err(pv.translation[0], t1) < 1e-12


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mesh",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
