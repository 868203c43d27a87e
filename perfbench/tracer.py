"""Outside-in tracer: wraps public functions of the ``conormal`` modules.

Nothing inside the library is changed.  ``Tracer.install`` replaces each
traced function in every ``conormal.*`` namespace that binds it (``germs``
and ``geometry`` import ``radical_membership``, ``krull_dimension`` and
``wedge`` by name, so patching ``groebner`` alone would miss calls) and
patches methods at class level; ``uninstall`` puts the originals back.

Each call records a span (name, start, end, parent).  Spans are kept in
memory until ``fold`` turns them into per-name counts, inclusive time and
self time (duration minus the time covered by child spans) and clears them,
so memory stays bounded by the spans of one op.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span name, module, attribute) for module-level functions.
FUNCTIONS = [
    ("groebner.buchberger", "conormal.groebner", "buchberger"),
    ("groebner.s_polynomial", "conormal.groebner", "s_polynomial"),
    ("groebner.reduce", "conormal.groebner", "reduce"),
    ("groebner.radical_membership", "conormal.groebner", "radical_membership"),
    ("groebner.krull_dimension", "conormal.groebner", "krull_dimension"),
    ("groebner.module_buchberger", "conormal.groebner", "module_buchberger"),
    ("groebner.module_reduce", "conormal.groebner", "module_reduce"),
    ("geometry.jacobian_ideal", "conormal.geometry", "jacobian_ideal"),
    ("geometry.hyperplane_section", "conormal.geometry", "hyperplane_section"),
    ("geometry.bertini_check", "conormal.geometry", "bertini_check"),
    ("forms.wedge", "conormal.forms", "wedge"),
    ("forms.exterior_derivative", "conormal.forms", "exterior_derivative"),
    ("germs.is_conormal", "conormal.germs", "is_conormal"),
    ("germs.is_tangential", "conormal.germs", "is_tangential"),
    ("germs.is_trivial_form", "conormal.germs", "is_trivial_form"),
    ("germs.trivial_form_generators", "conormal.germs", "trivial_form_generators"),
    ("cli.parse_germ_text", "conormal.cli", "parse_germ_text"),
]
# (span name, module, class, method) for methods, patched on the class.
METHODS = [
    ("groebner.ideal_basis", "conormal.groebner", "Ideal", "groebner_basis"),
    ("poly.mul", "conormal.poly", "Polynomial", "__mul__"),
    ("poly.substitute", "conormal.poly", "Polynomial", "substitute"),
    ("germs.Germ.init", "conormal.germs", "Germ", "__init__"),
]
ZERO_RESULT = {"groebner.reduce"}  # spans that also record whether the result was 0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, result was zero]
        self._stack = [-1]
        self._patches = []  # (owner, attribute, original)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.s_reduce = 0  # reductions of S-polynomials in buchberger
        self.s_reduce_zero = 0  # ... that gave 0
        self.basis_requests = 0
        self.basis_hits = 0

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        record_zero = name in ZERO_RESULT

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1], False]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if record_zero:
                span[4] = not result
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "conormal" or key.startswith("conormal.")]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for name, module_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            wrapper = self._wrap(name, original)
            for key, value in list(vars(cls).items()):
                if value is original:  # also catches aliases such as __rmul__
                    self._patch(cls, key, wrapper)

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def fold(self):
        """Add the recorded spans to the per-name totals and clear them."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        has_buchberger_child = [False] * len(spans)
        last_child = {}  # parent index -> name of its latest child span so far
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "groebner.buchberger":
                    has_buchberger_child[parent] = True
        for i, (name, start, end, parent, zero) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - child_time[i]
            # buchberger reduces each S-polynomial right after building it;
            # the reductions of _autoreduce (untraced) follow no s_polynomial.
            if (name == "groebner.reduce" and parent >= 0 and spans[parent][0] == "groebner.buchberger"
                    and last_child.get(parent) == "groebner.s_polynomial"):
                self.s_reduce += 1
                self.s_reduce_zero += zero
            elif name == "groebner.ideal_basis":
                self.basis_requests += 1
                self.basis_hits += not has_buchberger_child[i]
            last_child[parent] = name
        spans.clear()
