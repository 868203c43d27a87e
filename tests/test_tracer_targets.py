"""The benchmark's tracer (``perfbench/tracer.py``) patches library functions
and methods that it names by string.  Each name must exist, so that renaming
or deleting one fails here and not only in the benchmark's self-test."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = load_tracer()
    assert tracer.FUNCTIONS and tracer.METHODS
    for _, module_name, attr in tracer.FUNCTIONS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    for _, module_name, cls_name, attr in tracer.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert attr in cls.__dict__, f"{module_name}.{cls_name}.{attr}"
