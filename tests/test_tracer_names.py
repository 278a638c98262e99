"""The names the benchmark tracer (perfbench/tracer.py) patches must resolve.

The tracer looks functions and methods up by name; a rename in ``tpds``
would otherwise surface only as a failed or silently emptier traced run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_names_resolve():
    tracer = load_tracer()
    layers = {layer: importlib.import_module(f"tpds.{layer}") for layer in tracer.LAYERS}
    for layer, methods in tracer.METHODS.items():
        for cls_name, meth in methods:
            assert inspect.isfunction(vars(getattr(layers[layer], cls_name)).get(meth)), (
                f"{layer}.{cls_name}.{meth}"
            )
    for layer, names in tracer.PRIVATE.items():
        for name in names:
            assert inspect.isfunction(getattr(layers[layer], name, None)), f"{layer}.{name}"
    for layer, name in tracer._HOOKS:
        owner = layers[layer]
        *cls_name, attr = name.split(".")
        if cls_name:
            owner = getattr(owner, cls_name[0])
        assert inspect.isfunction(getattr(owner, attr, None)), f"{layer}.{name}"


def test_traced_linear_run_counts_layers():
    import tpds

    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        sys = tpds.random_tpds_system(3, rng=0)
        tracer.enabled = True
        tracer.verdict("compound_transition")
        tpds.compound_transition(sys, 2, 0.0, np.pi / 8, step=np.pi / 80)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["systems.A_evals"] > 0
    assert summary["exprlang.evals"] > 0  # the stacked A calls, through compile_fn's function
    assert summary["compound.calls"] > 0
    assert summary["integrate.calls"] == 1
    assert tpds.compound_transition.__module__ == "tpds.integrate"
    assert not hasattr(tpds.compound_transition, "__wrapped__")


def test_traced_nonlinear_run_counts_layers():
    import tpds

    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        demo = tpds.shipped("entrain_demo").system  # loaded as the benchmark worker does, after install
        tracer.enabled = True
        tracer.verdict("simulate_nonlinear")
        tpds.simulate_nonlinear(demo, [0.5, -0.5, 1.0], np.linspace(0.0, 2.0, 21))
        tracer.verdict("poincare_analysis")
        tpds.poincare_analysis(demo, [0.5, -0.5, 1.0], step=0.05)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["nonlinear.f_evals"] > 0
    assert summary["nonlinear.jac_evals"] > 0
    assert summary["nonlinear.poincare_iterates"] > 0
    assert summary["exprlang.evals"] > 0  # the stacked f and J calls
