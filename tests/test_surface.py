"""The library defines only what it uses, what the paper names, or what the
benchmark's tracer patches.

An AST scan of ``src/conormal``, without ``__init__.py`` (which only
re-exports), collects every function, class and non-dunder method, and
every name that an ``ast.Name`` or ``ast.Attribute`` node reads.  A
definition that no node reads is code that only tests call: delete it and
move its tests onto the code the library runs.  Two lists are exempt: the
paper's concepts below, public for a germ-file user or a caller even though
no library code calls them, and the functions that ``perfbench/tracer.py``
patches by name, read from its ``FUNCTIONS`` here so that a name leaves
this list when the tracer stops naming it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "conormal"
TRACER = ROOT / "perfbench" / "tracer.py"

# Qualified name (module, class if any, name) -> why it stays public.
CONCEPTS = {
    "groebner.intersection": "the intersection of two ideals, one colon of _colon",
    "groebner.quotient": "the ideal quotient (I : g); f lies in I at the origin iff some"
                         " generator of (I : f) has a nonzero constant term",
    "groebner.Ideal.same_ideal": "equality of two ideals, the primality check J = I",
    "forms.vector_field_to_form": "the paper's map from vector fields to (n-1)-forms",
    "forms.form_to_vector_field": "its inverse, from (n-1)-forms to vector fields",
    "poly.partial_derivative": "the partial derivative df/dx_i, the entries of the Jacobian",
    "forms.volume_coefficient": "the coefficient of an n-form on dx_1 ^ ... ^ dx_n, which"
                                " states the correspondence's identity w ^ dg = V(g) vol",
}


def traced_functions() -> set:
    """``module.attribute`` of each entry of the tracer's ``FUNCTIONS``."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["FUNCTIONS"]:
            return {f"{module.split('.')[-1]}.{attr}"
                    for _, module, attr in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracer.py has no FUNCTIONS list")


def definitions(node: ast.AST, prefix: str):
    """(qualified name, bare name) of each function, class and non-dunder
    method under ``node``, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (child.name.startswith("__") and child.name.endswith("__")):
                yield f"{prefix}.{child.name}", child.name
            yield from definitions(child, f"{prefix}.{child.name}")
        else:
            yield from definitions(child, prefix)


def unreferenced() -> list:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(qualified for module, tree in trees.items()
                  for qualified, name in definitions(tree, module) if name not in read)


def test_every_definition_is_used_or_listed():
    exempt = CONCEPTS.keys() | traced_functions()
    dead = [name for name in unreferenced() if name not in exempt]
    assert not dead, "no library code reads these definitions: " + ", ".join(dead)


def test_every_listed_concept_is_still_defined_and_unused():
    # A concept that library code now calls needs no entry; one that is gone
    # must leave the list.
    assert sorted(CONCEPTS) == [name for name in unreferenced() if name in CONCEPTS]
