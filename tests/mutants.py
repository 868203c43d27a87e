"""Mutants of the decision core, each run against the tests that must kill it.

    python tests/mutants.py

Each mutant replaces one piece of text in one file of ``src/conormal`` with
another.  It is applied to a temporary copy of ``src/`` and ``tests/``,
never to the checkout, and the copy runs ``pytest -x -q`` on the mutant's
test subset.  A mutant is killed when that run fails.  An equivalent mutant
changes no answer and no pinned work, so no test can kill it; it is listed
with the reason and run too, and a killed equivalent mutant is a failure,
because its equivalence claim is then stale.

The subsets run first unmutated, so a failing suite cannot pass for killed
mutants.  The script exits 1 if a subset fails unmutated, if a mutant's old
text is not found exactly once, if a mutant that is not equivalent
survives, or if an equivalent mutant is killed.  It needs only the standard library and the test dependencies of
the package.  This file is not a test module, so pytest does not collect
it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120  # seconds per pytest run; a mutant that hangs its subset is killed


class Mutant(NamedTuple):
    name: str
    file: str  # under src/conormal
    old: str
    new: str
    reason: str  # what the mutant breaks, or why it is equivalent
    tests: tuple  # the pytest subset that must kill it
    equivalent: bool = False


MUTANTS = [
    Mutant(
        "autoreduce-lead-without-mult", "groebner.py",
        "r[lm] = a * mult", "r[lm] = a",
        "the reduced tail is mult times its normal form, so the lead must be too",
        ("tests/test_groebner.py::TestIntegerPairLoop",),
    ),
    Mutant(
        "autoreduce-keeps-non-minimal", "groebner.py",
        "        if lm not in seen and not any((room - e[0]) & guards == guards and e[0] != lm\n"
        "                                      for e in rivals[lm & positions]):",
        "        if lm not in seen:",
        "a record whose lead another lead divides does not belong to the reduced basis",
        ("tests/test_groebner.py::TestTrivialModuleWork",),
    ),
    Mutant(
        "chain-criterion-off", "groebner.py",
        "        if ik not in pending and jk not in pending:\n            return True",
        "        if ik not in pending and jk not in pending:\n            return False",
        "changes only work: more S-pairs, pinned per corpus germ",
        ("tests/test_groebner.py::TestPairCriteria",),
    ),
    Mutant(
        "coprime-skip-off", "groebner.py",
        "            continue  # coprime leads: S-polynomial reduces to zero",
        "            pass",
        "changes only work: more S-pairs, pinned per corpus germ",
        ("tests/test_groebner.py::TestPairCriteria",),
    ),
    Mutant(
        "rabinowitsch-known-0", "groebner.py",
        "_complete(records, ext, order, len(known)) is None",
        "_complete(records, ext, order, 0) is None",
        "changes only work: pairs inside the cached basis are queued again",
        ("tests/test_groebner.py::TestRadicalMembership",),
    ),
    Mutant(
        "rabinowitsch-is-not-none", "groebner.py",
        "len(known)) is None", "len(known)) is not None",
        "the pair loop returns None exactly when I + (1 - t*g) is the unit ideal",
        ("tests/test_groebner.py::TestRadicalMembership",),
    ),
    Mutant(
        "normal-form-undivided", "groebner.py",
        "tuple((t, _div(v, mult)) for t, v in remainder.items())",
        "tuple((t, v) for t, v in remainder.items())",
        "the kernel's remainder is mult times the normal form of the word, and entries"
        " with different multipliers must cancel",
        ("tests/test_groebner.py::TestNormalFormTable",),
    ),
    Mutant(
        "normal-form-table-shared", "groebner.py",
        "        self._normal = {}", "        self._normal = _remainder.__dict__",
        "a word has a different normal form modulo each ideal",
        ("tests/test_groebner.py::TestNormalFormTable",),
    ),
    Mutant(
        "normal-form-sum-keeps-cancelled", "groebner.py",
        "            s = total.get(t, 0) + c * v\n"
        "            if s:\n"
        "                total[t] = s\n"
        "            elif t in total:\n"
        "                del total[t]",
        "            total[t] = total.get(t, 0) + c * v",
        "f is a member when its normal forms cancel, so a cancelled word must leave the sum",
        ("tests/test_groebner.py::TestNormalFormTable",),
    ),
    Mutant(
        "normal-form-table-under-lex", "groebner.py",
        '    if order.kind not in ("grevlex", "top"):', "    if False:",
        "under lex a word's normal form may pass MAX_DEGREE where f's terms cancel",
        ("tests/test_groebner.py::TestNormalFormTable::test_lex_divides_the_whole_polynomial",),
    ),
    Mutant(
        "wedge-shuffle-sign-plus", "_expr.py",
        "    sign = -1 if inversions % 2 else 1", "    sign = 1",
        "dx_s ^ dx_t is the parity of the shuffle times dx_merged",
        ("tests/test_forms.py::TestWedge",),
    ),
    Mutant(
        "accumulate-keeps-cancelled-key", "_expr.py",
        "    if not _add_into(out.setdefault(key, {}), terms, negate):\n        del out[key]",
        "    _add_into(out.setdefault(key, {}), terms, negate)",
        "a form stores no zero coefficient, so a form whose terms cancel is the zero form",
        ("tests/test_forms.py::TestExteriorDerivative",),
    ),
    Mutant(
        "d-drops-dx-idx", "forms.py",
        "(mixed_mul(dc, {idx: {0: 1}}, ring.limit) if idx else dc)", "dc",
        "d(c dx_I) is dc ^ dx_I, not dc",
        ("tests/test_forms.py::TestExteriorDerivative",),
    ),
    Mutant(
        "vector-field-unsigned", "forms.py",
        "_add_into({}, terms, sign < 0)", "_add_into({}, terms)",
        "V_i is s_i*a_i, with s_i the sign of dx_{[n] minus i} ^ dx_i",
        ("tests/test_forms.py::TestVectorFieldMap",),
    ),
    Mutant(
        "coefficients-unsorted", "forms.py",
        "for idx in sorted(terms)]", "for idx in terms]",
        "coefficients() reads in index order, not in the order the raw form was built",
        ("tests/test_forms.py::TestRawRepresentation"
         "::test_polynomials_are_made_only_when_a_coefficient_is_read",),
    ),
    Mutant(
        "form-eq-keys-only", "forms.py",
        "            and self._terms == other._terms",
        "            and self._terms.keys() == other._terms.keys()",
        "equal forms have equal coefficients, not only the same index tuples",
        ("tests/test_forms.py::TestSmallMethods",),
    ),
    Mutant(
        "form-degree-zero-drops-raw", "forms.py",
        "        return Polynomial(ring, raw[()], _clean=True) if raw else ring.zero",
        "        return ring.zero",
        "a degree-0 result is the polynomial of its raw form's () coefficient",
        ("tests/test_forms.py::TestVectorFieldMap",),
    ),
    Mutant(
        "form-add-into-operand", "forms.py",
        "        out: dict = {}\n        for x in (self, other):",
        "        out = dict(self._terms)\n        for x in (other,):",
        "a sum adds into fresh term dicts: the summands' dicts may be a polynomial's",
        ("tests/test_forms.py::TestRawRepresentation::test_shared_term_dicts_are_never_changed",),
    ),
    Mutant(
        "form-degree-float-accepted", "forms.py",
        "        if not isinstance(degree, int):", "        if False:",
        "a form's degree is an int",
        ("tests/test_forms.py::TestInputChecks",),
    ),
    Mutant(
        "coefficient-unchecked", "forms.py",
        "            _index(idx, self.degree, self.ring)\n", "",
        "an index tuple the constructor refuses must not read as a zero coefficient",
        ("tests/test_forms.py::TestInputChecks",),
    ),
    Mutant(
        "order-kind-unchecked", "poly.py",
        '        if self.kind not in ("lex", "grevlex", "block", "top", "pot"):',
        "        if False:",
        "an unknown order kind would fall through to the block key",
        ("tests/test_poly.py::TestInputChecks",),
    ),
    Mutant(
        "trivial-false-above-top-degree", "germs.py",
        "        return True  # only the zero form", "        return False  # only the zero form",
        "a form of degree above n is the zero form, which is trivial",
        ("tests/test_germs.py::TestTrivialForms::test_forms_above_the_top_degree_are_trivial",),
    ),
    Mutant(
        "witness-off-the-hyperplane", "geometry.py",
        "        if sum(h * x for h, x in zip(normal, point)):\n            continue\n", "",
        "a tangency witness must lie on H",
        ("tests/test_geometry.py::TestBertiniCheck::test_parametrized_witnesses_are_tangency_points",),
    ),
    Mutant(
        "krull-dimension-below-n", "groebner.py",
        "    for size in range(n, 0, -1):", "    for size in range(n - 1, 0, -1):",
        "the zero ideal, whose basis has no lead, has dimension n at the loop's first size",
        ("tests/test_groebner.py::TestKrullDimension::test_zero_ideal_is_everything",),
    ),
    Mutant(
        "radical-germ-le", "germs.py",
        "self.singular_dimension < self.dimension", "self.singular_dimension <= self.dimension",
        "a complete intersection is radical only if Sing X has a lower dimension than X;"
        " a non-reduced germ must be decided on its reduced generator",
        ("tests/test_germs.py::TestReducedGerm",),
    ),
    Mutant(
        "decide-refusal-before-refutation", "germs.py",
        "    if any(a is False or isinstance(a, Verdict) and a.is_certified_no for a in answers):\n"
        "        return Decision(VerdictStatus.CERTIFIED_NO, source, kept, question=question)\n"
        "    if reason is not None:\n"
        "        return Decision(None, \"refused\", kept, reason, question)\n",
        "    if reason is not None:\n"
        "        return Decision(None, \"refused\", kept, reason, question)\n"
        "    if any(a is False or isinstance(a, Verdict) and a.is_certified_no for a in answers):\n"
        "        return Decision(VerdictStatus.CERTIFIED_NO, source, kept, question=question)\n",
        "one refuted part refutes the claim, even if another part is refused",
        ("tests/test_germs.py::TestDecide::test_refuted_part_beats_refused_part",),
    ),
    Mutant(
        "bertini-cut-above-sing", "geometry.py",
        "        if dim_cut >= dim_sing:", "        if dim_cut > dim_sing:",
        "Sing X inside H makes dim (Sing X on H) equal to dim Sing X, never larger",
        ("tests/test_geometry.py::TestBertiniCheck::test_y_zero_contains_singular_locus",),
    ),
    Mutant(
        "cut-pivot-image-unsigned", "geometry.py",
        "_div(-h, normal[pivot])", "_div(h, normal[pivot])",
        "on H the pivot is -sum_i (h_i/h_p)*y_i, with the minus sign",
        ("tests/test_geometry.py::TestHyperplaneSection::test_umbrella_generic_form",),
    ),
    Mutant(
        "embedding-unmoved", "poly.py",
        "    return lambda m: ((m & fields) << up) | (m >> shift << to)", "    return lambda m: m",
        "a word keeps its exponents in the larger ring, but its total degree moves to"
        " that ring's degree field (the Rabinowitsch step lifts the cached basis so)",
        ("tests/test_groebner.py::TestRadicalMembership::test_square_among_generators",),
    ),
    Mutant(
        "embedding-shift-unmoved", "poly.py",
        "        return up.__rlshift__", "        return lambda m: m",
        "a submodule's encoding moves each word past the position variables",
        ("tests/test_groebner.py::TestModuleMembership",),
    ),
    Mutant(
        "primitive-lead-negative", "poly.py",
        "    if lc < 0:\n        k = -k\n", "",
        "the primitive integer associate of a divisor record has a positive lead",
        ("tests/test_poly.py::TestCoefficientTypes"
         "::test_divisor_record_is_the_primitive_integer_associate",),
    ),
    Mutant(
        "read-int-unbounded", "poly.py",
        "    if value is None or value.bit_length() > MAX_POWER_BITS:", "    if value is None:",
        "a literal of more than MAX_POWER_BITS bits is refused, as a literal's power is",
        ("tests/test_poly.py::TestHugeNumbers",),
    ),
    Mutant(
        "substitute-unscaled", "poly.py",
        "                if d > 1:\n                    c *= d ** (top - e)\n", "",
        "an image with denominators is raised as its integer multiple d*image, so a term"
        " of exponent e is scaled by d^(top - e) before the sum is divided by d^top",
        ("tests/test_poly.py::TestSubstitute",),
    ),
    Mutant(
        "usage-error-exit-one", "cli.py",
        "return 0 if e.code in (0, None) else 2", "return 0 if e.code in (0, None) else 1",
        "a usage error exits 2, a refuted claim 1",
        ("tests/test_cli.py::TestDispatch::test_unknown_command_exit_two",),
    ),
    Mutant(
        "decide-exit-zero-when-not-yes", "cli.py",
        "    if decision.status is not _YES:\n        return 1",
        "    if decision.status is not _YES:\n        return 0",
        "a claim that is not certified yes exits 1",
        ("tests/test_cli.py::TestDispatch::test_check_refuted",),
    ),
    Mutant(
        "verify-examples-counts-every-check", "cli.py",
        "passed += got == value", "passed += 1",
        "a check passes only when its answer is the expected one",
        ("tests/test_cli.py::TestGermFiles::test_flipped_expectation_fails",),
    ),
    Mutant(
        "duplicate-form-accepted", "cli.py",
        "        if name in forms:", "        if False:",
        "a germ file names each form once",
        ("tests/test_cli.py::TestGermFiles::test_error_messages_carry_source_and_line",),
    ),
    Mutant(
        "affine-hyperplane-accepted", "cli.py",
        "        if m not in ring.units:", "        if False:",
        "a hyperplane is a linear form through the origin: a word that is not a"
        " variable is refused with its own message",
        ("tests/test_cli.py::TestDispatch::test_bertini_rejects_affine_hyperplane",),
    ),
]


def run_pytest(copy: Path, tests) -> subprocess.CompletedProcess | None:
    """The run of ``pytest -x -q`` on ``tests`` in ``copy``; None on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None


def fresh_copy(into: Path) -> Path:
    """A copy of the checkout's ``src/``, ``tests/`` and ``pyproject.toml``
    (the pytest settings) under ``into``."""
    copy = into / "checkout"
    shutil.rmtree(copy, ignore_errors=True)
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", copy)
    return copy


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory(prefix="conormal-mutants-") as tmp:
        subsets = sorted({t for m in MUTANTS for t in m.tests})
        run = run_pytest(fresh_copy(Path(tmp)), subsets)
        if run is None or run.returncode:
            print("the unmutated test subsets fail:", file=sys.stderr)
            print(run.stdout[-3000:] if run else "timed out", file=sys.stderr)
            return 1
        for m in MUTANTS:
            copy = fresh_copy(Path(tmp))
            path = copy / "src" / "conormal" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"STALE    {m.name}: its old text is in {m.file} "
                      f"{text.count(m.old)} times, not once", flush=True)
                failed.append(m.name)
                continue
            path.write_text(text.replace(m.old, m.new))
            run = run_pytest(copy, m.tests)
            killed = run is None or run.returncode != 0
            if m.equivalent:
                status = "NOT EQUIVALENT (update its entry)" if killed else "equivalent"
            elif killed:
                status = "killed" + (" (timeout)" if run is None else "")
            else:
                status = "SURVIVED"
            print(f"{status:<10} {m.name}: {m.reason}", flush=True)
            if killed == m.equivalent:
                failed.append(m.name)
    if failed:
        print(f"{len(failed)} mutant(s) with the wrong outcome: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
