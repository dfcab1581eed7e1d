"""The benchmark in ``perfbench/`` still finds what it uses in the package.

``perfbench/tracing.py`` wraps the public functions of each layer and
refuses to run when a name its metrics read (``REQUIRED``) is missing;
``perfbench/workloads.py`` imports the package's public names.  These
tests read both files, so deleting or renaming such a name fails here
and not only in a benchmark run.  Nothing is wrapped or run.
"""

import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_public_functions():
    tracing = _load("tracing")
    layers = dict(zip(tracing.LAYER_NAMES, tracing.LAYERS))
    for name in tracing.REQUIRED:
        layer, attr = name.split(".")
        module = layers[layer]
        fn = vars(module).get(attr)
        if fn is None and layer == "quality":
            # The tracer wraps QualityModel's own methods under this layer.
            fn = vars(module.QualityModel).get(attr)
        else:
            assert getattr(fn, "__module__", None) == module.__name__, name
        assert not attr.startswith("_") and inspect.isfunction(fn), name


def test_workloads_import():
    workloads = _load("workloads")
    assert workloads.WORKLOADS
