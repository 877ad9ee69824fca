"""The tracing hooks of perfbench/spans.py against the package.

`perfbench/run.py --trace 1` wraps the package's layers by name.  A rename
of a traced function must fail here, and uninstalling the hooks must leave
every module attribute as it was.
"""

import importlib.util
import sys
from pathlib import Path

import riemann_examples.cli  # noqa: F401  (its bindings are wrapped too)
import riemann_examples.limits  # noqa: F401


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_traced_layer_and_uninstall_restores_it():
    spans = _load_spans()
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "riemann_examples" or name.startswith("riemann_examples.")}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    tracer = spans.install()
    try:
        patched = list(tracer._patched)
        for mod, attr, original in patched:
            assert getattr(mod, attr) is not original
        wrapped = {(mod.__name__.rpartition(".")[2], attr) for mod, attr, _ in patched}
    finally:
        tracer.uninstall()
    assert {("weierstrass", "radial_edge_alignment"), ("weierstrass", "phi_components"),
            ("weierstrass", "path_integral"), ("curve", "continue_sheet"),
            ("weierstrass", "immerse_grid"), ("analysis", "foliation_slices"),
            ("mesh", "build_mesh"), ("mesh", "export")} <= wrapped
    for name, mod in modules.items():
        after = vars(mod)
        assert after.keys() == before[name].keys(), name
        assert all(after[k] is v for k, v in before[name].items()), name
