"""The benchmark's tracer (``perfbench/tracer.py``) patches library functions
and methods that it names by string.  Each name must exist, so that renaming
or deleting one fails here and not only in the benchmark's self-test."""

import importlib
import importlib.util
import sys
from pathlib import Path

import conormal.cli  # noqa: F401 -- the tracer patches every loaded conormal module
from conormal import germs
from conormal.forms import parse_form
from conormal.poly import PolynomialRing

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



def test_tracer_installs_records_and_uninstalls():
    tracer_module = load_tracer()
    owners = [m for key, m in sys.modules.items() if key.split(".")[0] == "conormal"]
    owners += [
        getattr(importlib.import_module(module_name), cls_name)
        for _, module_name, cls_name, _ in tracer_module.METHODS
    ]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        ring = PolynomialRing(["x", "y", "z"])
        x, y, z = ring.gens()
        germ = germs.Germ(ring, [z**2 - x * y**2])
        # Deciding makes no wedge; reading the witness makes it.
        str(germs.is_conormal(parse_form("dx", ring)[0], germ))
    finally:
        tracer.uninstall()
    assert {"germs.Germ.init", "germs.is_conormal", "forms.wedge"} <= {s[0] for s in tracer.spans}
    for owner, attributes in zip(owners, before):
        after = vars(owner)
        assert all(after[key] is value for key, value in attributes.items()), owner
