"""The README's library example runs as documented, in a fresh interpreter,
and the private names its module table cites exist."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    [code] = re.findall(r"```python\n(.*?)```", readme, re.S)
    path = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("CertifiedYes:")
    assert lines[-1] == "False"


def _private_names_by_row() -> list:
    """(module, names) per row of the README's module table: the backticked
    dotted names of the row that have a private part, such as ``_cut``,
    ``_expr.mixed_mul`` or ``Polynomial.__pow__``."""
    readme = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| `(conormal\.\w+)` \|(.*)$", readme, re.M)
    dotted = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
    return [
        (module, {name for name in re.findall(r"`([^`]+)`", row)
                  if dotted.fullmatch(name) and any(p.startswith("_") for p in name.split("."))})
        for module, row in rows
    ]


def _resolve(module: str, name: str):
    """``name`` in ``module``, or, when its first part is a sibling module of
    the package (``_expr.mixed_mul`` in the ``conormal.forms`` row), in that
    module."""
    first, *rest = name.split(".")
    home = importlib.import_module(module)
    if not hasattr(home, first):
        home = importlib.import_module(f"conormal.{first}")
        first, *rest = rest
    value = getattr(home, first)
    for part in rest:
        value = getattr(value, part)
    return value


def test_private_names_in_the_module_table_exist():
    rows = _private_names_by_row()
    checked = set().union(*(names for _, names in rows))
    assert {"_cut", "_s_terms", "_expr.mixed_mul"} <= checked
    missing = []
    for module, names in rows:
        for name in sorted(names):
            try:
                _resolve(module, name)
            except (AttributeError, ImportError, ValueError):
                missing.append(f"{module}: {name}")
    assert not missing, missing
