import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from riemann_examples import Lambda, Normalization
from riemann_examples.cli import main
from riemann_examples.limits import Annulus, ClipRegion, plane_limit_experiment
from riemann_examples.mesh import build_mesh, export


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_mesh_command(tmp_path, capsys):
    out_path = tmp_path / "r1.obj"
    code, out = run_cli(capsys, "mesh", "--lambda", "1.0", "--copies", "3",
                        "--out", str(out_path))
    assert code == 0
    assert out_path.exists()
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["max_abs_curvature"] == pytest.approx(2.0, abs=0.1)
    assert payload["triangles"] == 2 * 47 * 96 * 2 * 3
    assert len(payload["translation_period"]) == 3


def test_mesh_ply_quality_channel(tmp_path, capsys):
    out_path = tmp_path / "r5.ply"
    code, _ = run_cli(capsys, "mesh", "--lambda", "5", "--format", "ply",
                      "--resolution", "8x16", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert "property double quality" in text
    header_end = text.splitlines().index("end_header")
    first_vertex = text.splitlines()[header_end + 1].split()
    assert len(first_vertex) == 7
    assert float(first_vertex[6]) >= 0.0


@pytest.mark.parametrize("fmt", ["obj", "ply"])
def test_mesh_file_equals_export_of_build_mesh(tmp_path, capsys, fmt):
    cli_path = tmp_path / f"cli.{fmt}"
    code, _ = run_cli(capsys, "mesh", "--lambda", "2.5", "--copies", "2",
                      "--format", fmt, "--out", str(cli_path))
    assert code == 0
    lam = Lambda(2.5)
    direct = tmp_path / f"direct.{fmt}"
    export(build_mesh(lam, Normalization.paper(lam), copies=2), fmt, direct)
    assert cli_path.read_bytes() == direct.read_bytes()


def test_invalid_lambda_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["mesh", "--lambda", "0", "--out", str(tmp_path / "x.obj")])
    assert exc.value.code == 2


def test_unknown_suite_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_verify_periods_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "periods",
                        "--lambda-set", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    names = {c["name"] for c in payload["checks"]}
    assert "companion-period-vanishes" in names
    assert "winding-adds-translation" in names


def test_verify_conjugate_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "conjugate",
                        "--lambda-set", "0.3,1,3")
    assert code == 0
    payload = json.loads(out)
    assert all(c["residual"] < 1e-10 for c in payload["checks"])


def test_verify_foliation_suite_at_small_lambda(capsys):
    # heights below the 0.1 < |z| < 10 grid window are closed-form slices
    # like any other: every one is a circle
    code, out = run_cli(capsys, "verify", "--suite", "foliation",
                        "--lambda-set", "1e-6,1e-3")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] and len(payload["checks"]) == 2
    assert all(set(c["kinds"]) == {"circle"} for c in payload["checks"])


def test_limits_catenoid_monotone(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code, out = run_cli(capsys, "limits", "--target", "catenoid",
                        "--lambda-schedule", "0.1,0.01",
                        "--csv", str(csv_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["monotone_decreasing"]
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "lambda,deviation,end_spacing,max_absK"
    assert len(lines) == 3


def test_limits_planes_reports_the_plane_limit_experiment(capsys):
    code, out = run_cli(capsys, "limits", "--target", "planes",
                        "--lambda-schedule", "0.1,0.03")
    assert code == 0
    payload = json.loads(out)
    report = plane_limit_experiment([0.1, 0.03], Annulus(L=10.0), ClipRegion("ball", 5.0))
    assert payload["deviations"] == list(report.plane_deviations)
    assert payload["end_spacing"] == [2.0 * math.pi] * 2
    for key in ("vertical_normal_fractions", "waist_radii", "horizontal_deviations"):
        assert payload[key] == list(getattr(report, key))
    assert payload["config"]["sheet_sign"] == 1


def test_limits_singleton_schedule_trivially_monotone(capsys):
    code, out = run_cli(capsys, "limits", "--target", "helicoid",
                        "--lambda-schedule", "100")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["deviations"]) == 1


def test_limits_non_monotone_schedule_exits_one(capsys):
    code, out = run_cli(capsys, "limits", "--target", "catenoid",
                        "--lambda-schedule", "0.01,0.1")
    assert code == 1


def test_verify_all_suites(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "all", "--lambda-set", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    names = {c["name"] for c in payload["checks"]}
    assert {"curvature-at-i", "companion-period-vanishes", "symmetry-residuals",
            "conjugacy-identity", "level-circle-fit"} <= names
    assert payload["config"]["version"]


def test_verify_all_suites_at_the_ends_of_the_family_and_near_one(capsys):
    # the base point 1 sits within 1e-6 of the branch point lam, and the
    # translation sums at 1e-6 and 1e6 are judged relative to |T|
    code, out = run_cli(capsys, "verify", "--suite", "all", "--lambda-set",
                        "1e-6,0.9999999,1.000000000001,1.000001,1e6")
    assert code == 0
    assert json.loads(out)["passed"]


def test_reports_are_deterministic(tmp_path, capsys):
    outs = []
    meshes = []
    for name in ("a.ply", "b.ply"):
        p = tmp_path / name
        code, out = run_cli(capsys, "mesh", "--lambda", "2.0", "--format", "ply",
                            "--resolution", "8x16", "--out", str(p))
        assert code == 0
        outs.append(out.replace(name, "OUT"))
        meshes.append(p.read_bytes())
    assert outs[0] == outs[1]
    assert meshes[0] == meshes[1]


def test_module_entry_point_help():
    """`python -m riemann_examples.cli --help` in a fresh interpreter: covers
    the module-level import and the `__main__` path that `main()` calls skip."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "riemann_examples.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


@pytest.mark.parametrize("argv, flag", [
    (["mesh", "--lambda", "1", "--copies", "0"], "--copies"),
    (["mesh", "--lambda", "1", "--resolution", "4x7"], "--resolution"),
    (["mesh", "--lambda", "1", "--resolution", "1x8"], "--resolution"),
    (["verify", "--suite", "periods", "--lambda-set", ","], "--lambda-set"),
    (["verify", "--suite", "periods", "--seed", "-1"], "--seed"),
    (["limits", "--target", "catenoid", "--lambda-schedule", ","], "--lambda-schedule"),
    (["limits", "--target", "catenoid", "--lambda-schedule", "0.1", "--annulus-L", "0.5"],
     "--annulus-L"),
    (["limits", "--target", "catenoid", "--lambda-schedule", "0.1", "--clip-r", "-1"],
     "--clip-r"),
    (["limits", "--target", "catenoid", "--lambda-schedule", "0.1,1"], "--lambda-schedule"),
    (["limits", "--target", "helicoid", "--lambda-schedule", "10,1"], "--lambda-schedule"),
    (["limits", "--target", "planes", "--lambda-schedule", "2"], "--lambda-schedule"),
], ids=["copies-0", "resolution-4x7", "resolution-1x8", "empty-lambda-set", "seed-negative",
        "empty-schedule", "annulus-L-0.5", "clip-r-negative", "catenoid-lambda-1",
        "helicoid-lambda-1", "planes-lambda-2"])
def test_bad_flag_exits_two_naming_the_flag(tmp_path, capsys, argv, flag):
    out_path = tmp_path / "x.obj"
    if argv[0] == "mesh":
        argv = argv + ["--out", str(out_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: " in captured.err
    assert captured.out == ""
    assert not out_path.exists()
