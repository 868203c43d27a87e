"""Command-line interface, germ file format, and the bundled example corpus.

Exit codes: 0 when the queried claim is certified/confirmed, 1 when it is
refuted or lacks a polynomial certificate (the report line disambiguates),
2 on input errors.

Germ files are UTF-8 and line-oriented; ``#`` starts a comment::

    ring x y z
    gen z^2 - x*y^2
    form omega1 y*z*dx + 2*x*z*dy - 2*x*y*dz
    param u v -> u^2, v, u*v
    expect check omega1 CertifiedYes
    expect tangent 0, -y, -z CertifiedYes
    expect regular 1 no

Optional ``flag hypersurface`` / ``flag complete_intersection`` lines are
assertions: both properties are derived from the generators, and a file
whose flag does not hold is rejected.

An ``expect <kind> <argument> <value>`` line records a result that
``verify_examples`` checks.  The argument is a form or form name (kinds
``check``, ``trivial``, ``oracle``, ``vanishes``), a vector field ``p1, ..., pn``
(``tangent``) or a non-negative integer codimension (``regular``); ``check``
and ``tangent`` expect a verdict status, the others ``yes`` or ``no``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from ._expr import ParseError
from .forms import (
    Hyperplane,
    NotClosedError,
    VectorField,
    evaluate_form,
    exterior_derivative,
    form_degree,
    format_form_parts,
    parse_form,
    radial_potential,
)
from .germs import (
    Germ,
    Parametrization,
    VerdictStatus,
    is_conormal,
    is_tangential,
    is_trivial_form,
    oracle_conormal_on_parametrization,
    vanishes_on_singular_locus,
)
from .geometry import (
    BertiniVerdict,
    bertini_check,
    jacobian_ideal,
    random_hyperplane,
    regular_in_codimension,
)
from .groebner import ideal_membership
from .poly import PolynomialRing, parse_polynomial


@dataclass
class GermFile:
    """Parsed contents of a germ file."""

    germ: Germ
    forms: dict = field(default_factory=dict)  # name -> list of homogeneous parts
    parametrization: Optional[Parametrization] = None
    expects: list = field(default_factory=list)  # (kind, argument, value) triples

    def render(self) -> str:
        """Canonical text (parses back to equal data)."""
        lines = ["ring " + " ".join(self.germ.ring.variables)]
        lines += [f"gen {g}" for g in self.germ.generators]
        for name in self.forms:
            lines.append(f"form {name} {format_form_parts(self.forms[name])}")
        if self.parametrization is not None:
            par = self.parametrization
            lines.append(
                "param "
                + " ".join(par.ring.variables)
                + " -> "
                + ", ".join(str(p) for p in par.components)
            )
        lines += [f"expect {kind} {arg} {value}" for kind, arg, value in self.expects]
        return "\n".join(lines) + "\n"


class GermFileError(ValueError):
    pass


def parse_germ_text(text: str, source: str = "<string>") -> GermFile:
    ring = None
    gens = []
    flags = set()
    raw_forms = []
    raw_param = None
    raw_expects = []

    def fail(lineno, message):
        raise GermFileError(f"{source}:{lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "ring":
            if ring is not None:
                fail(lineno, "duplicate ring declaration")
            try:
                ring = PolynomialRing(rest.split())
            except ValueError as e:
                fail(lineno, str(e))
            continue
        if ring is None:
            fail(lineno, "the ring must be declared before any other directive")
        if head == "gen":
            try:
                gens.append(parse_polynomial(rest, ring))
            except ParseError as e:
                fail(lineno, f"bad generator: {e}")
        elif head == "flag":
            if rest not in ("hypersurface", "complete_intersection"):
                fail(lineno, f"unknown flag {rest!r}")
            flags.add(rest)
        elif head == "form":
            name, _, expr = rest.partition(" ")
            if not name or not expr.strip():
                fail(lineno, "expected: form <name> <expression>")
            try:
                raw_forms.append((lineno, name, parse_form(expr.strip(), ring)))
            except ParseError as e:
                fail(lineno, f"bad form {name!r}: {e}")
        elif head == "param":
            left, arrow, right = rest.partition("->")
            if not arrow:
                fail(lineno, "expected: param <variables> -> <polynomials>")
            try:
                pring = PolynomialRing(left.split())
                comps = [parse_polynomial(chunk, pring) for chunk in right.split(",")]
            except (ParseError, ValueError) as e:
                fail(lineno, f"bad parametrization: {e}")
            if raw_param is not None:
                fail(lineno, "duplicate parametrization")
            raw_param = (lineno, pring, comps)
        elif head == "expect":
            kind, _, claim = rest.partition(" ")
            argument, _, value = claim.rpartition(" ")
            if kind not in _EXPECT_KINDS:
                fail(lineno, f"unknown expect kind {kind!r}")
            allowed = _EXPECT_KINDS[kind][0]
            argument = argument.strip()
            if not argument or value not in allowed:
                fail(lineno, f"expected: expect {kind} <argument> <{'|'.join(allowed)}>")
            if kind == "regular" and not argument.isdecimal():
                fail(lineno, f"expect regular needs a non-negative integer, not {argument!r}")
            raw_expects.append((lineno, kind, argument, value))
        else:
            fail(lineno, f"unknown directive {head!r}")

    if ring is None:
        raise GermFileError(f"{source}: missing ring declaration")
    if not gens:
        raise GermFileError(f"{source}: missing generators")
    try:
        germ = Germ(ring, gens)
    except ValueError as e:
        raise GermFileError(f"{source}: {e}") from None
    if "hypersurface" in flags and not germ.hypersurface:
        raise GermFileError(
            f"{source}: hypersurface flag rejected: {len(gens)} generators, expected 1"
        )
    if "complete_intersection" in flags and not germ.complete_intersection:
        raise GermFileError(
            f"{source}: complete-intersection flag rejected: dimension is "
            f"{germ.dimension}, expected {ring.nvars - len(gens)}"
        )

    forms = {}
    for lineno, name, parts in raw_forms:
        if name in forms:
            raise GermFileError(f"{source}:{lineno}: duplicate form name {name!r}")
        forms[name] = parts
    par = None
    if raw_param is not None:
        lineno, pring, comps = raw_param
        try:
            par = Parametrization(germ, pring, comps)
        except ValueError as e:
            raise GermFileError(f"{source}:{lineno}: {e}") from None
    for lineno, kind, _, _ in raw_expects:
        if kind == "oracle" and par is None:
            raise GermFileError(f"{source}:{lineno}: an oracle expectation needs a param line")
    return GermFile(germ, forms, par, [e[1:] for e in raw_expects])


def corpus_path(name: str) -> Path:
    return Path(str(resources.files("conormal").joinpath("corpus", name)))


def corpus_names() -> list:
    root = resources.files("conormal").joinpath("corpus")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".germ"))


def load_germ_file(path: str) -> GermFile:
    """Load a germ file from disk, falling back to the bundled corpus for
    bare file names of it."""
    p = Path(path)
    if not p.exists() and p.name == path and path in corpus_names():
        p = corpus_path(path)
    if not p.exists():
        raise GermFileError(f"no such germ file: {path}")
    return parse_germ_text(p.read_text(encoding="utf-8"), source=str(path))


def _resolve_form(gf: GermFile, text: str) -> list:
    if text in gf.forms:
        return gf.forms[text]
    return parse_form(text, gf.germ.ring)


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def _aggregate(verdicts) -> VerdictStatus:
    statuses = {v.status for v in verdicts}
    if VerdictStatus.CERTIFIED_NO in statuses:
        return VerdictStatus.CERTIFIED_NO
    if VerdictStatus.NO_CERTIFICATE in statuses:
        return VerdictStatus.NO_CERTIFICATE
    return VerdictStatus.CERTIFIED_YES


def _cmd_check(args) -> int:
    gf = load_germ_file(args.germ)
    parts = _resolve_form(gf, args.form)
    print(f"form: {format_form_parts(parts)}")
    print(f"germ: {gf.germ}")
    if not parts:
        print("verdict: CONORMAL (certified)")
        print("witness: the zero form is conormal to every germ")
        return 0
    if gf.germ.complete_intersection:
        verdicts = []
        for part in parts:
            v = is_conormal(part, gf.germ)
            print(f"degree {form_degree(part)} part: {v}")
            verdicts.append(v)
        status = _aggregate(verdicts)
        if status is VerdictStatus.CERTIFIED_YES:
            print("verdict: CONORMAL (certified)")
            ring = gf.germ.ring
            origin = (0,) * ring.nvars
            for part in parts:
                if form_degree(part) == ring.nvars - 1 and evaluate_form(part, origin):
                    print(
                        "note: Rossi decomposition applies (a conormal (n-1)-form "
                        "does not vanish at 0): the germ splits off a (C, 0) factor"
                    )
                    break
            return 0
        if status is VerdictStatus.CERTIFIED_NO:
            print("verdict: NOT CONORMAL (refuted)")
        else:
            print("verdict: NO CERTIFICATE (no polynomial certificate; germ-level status open)")
        return 1
    if gf.parametrization is None:
        print(
            "verdict: NO CERTIFICATE (germ is not a complete intersection "
            "and has no parametrization)"
        )
        return 1
    if not gf.parametrization.covers:
        print("verdict: NO CERTIFICATE (the parametrization covers only part of X)")
        return 1
    ok = all(oracle_conormal_on_parametrization(part, gf.parametrization) for part in parts)
    if ok:
        print("verdict: CONORMAL (parametrization oracle: pullback vanishes)")
        return 0
    print("verdict: NOT CONORMAL (parametrization oracle: nonzero pullback)")
    return 1


def _parse_field(text: str, ring: PolynomialRing) -> VectorField:
    chunks = text.split(",")
    if len(chunks) != ring.nvars:
        raise GermFileError(
            f"a vector field needs {ring.nvars} comma-separated components for {ring}"
        )
    return VectorField(ring, [parse_polynomial(c, ring) for c in chunks])


def _cmd_tangent(args) -> int:
    gf = load_germ_file(args.germ)
    field_ = _parse_field(args.field, gf.germ.ring)
    print(f"germ: {gf.germ}")
    print(f"field: {field_}")
    verdict = is_tangential(field_, gf.germ)
    print(f"status: {verdict}")
    if verdict.is_certified_yes:
        print("verdict: TANGENTIAL (certified)")
        return 0
    if verdict.is_certified_no:
        print("verdict: NOT TANGENTIAL (refuted)")
    else:
        print("verdict: NO CERTIFICATE")
    return 1


def _cmd_trivial(args) -> int:
    gf = load_germ_file(args.germ)
    parts = _resolve_form(gf, args.form)
    print(f"form: {format_form_parts(parts)}")
    print(f"germ: {gf.germ}")
    trivial = True
    for part in parts:
        ok = is_trivial_form(part, gf.germ)
        print(f"degree {form_degree(part)} part trivial: {_yes_no(ok)}")
        trivial = trivial and ok
    if trivial:
        print("verdict: TRIVIAL (inside the differential ideal generated by the germ ideal)")
        return 0
    print("verdict: NON-TRIVIAL (outside the module generated by the trivial forms)")
    return 1


def _cmd_singular(args) -> int:
    gf = load_germ_file(args.germ)
    print(f"germ: {gf.germ}")
    jac = jacobian_ideal(gf.germ)
    print("jacobian ideal: " + "; ".join(str(g) for g in jac.generators))
    dim_x = gf.germ.dimension
    dim_sing = gf.germ.singular_dimension
    print(f"dim X = {dim_x}")
    print(f"dim Sing X = {dim_sing}" + (" (empty)" if dim_sing < 0 else ""))
    for k in range(0, dim_x + 1):
        flag = regular_in_codimension(gf.germ, k)
        print(f"regular in codimension {k}: {_yes_no(flag)}")
    return 0


def _parse_hyperplane(text: str, ring: PolynomialRing) -> Hyperplane:
    p = parse_polynomial(text, ring)
    normal = [0] * ring.nvars
    for exps, c in p.terms.items():
        if sum(exps) != 1:
            raise GermFileError(
                "a hyperplane must be a homogeneous linear form through the origin"
            )
        normal[exps.index(1)] = c
    return Hyperplane(ring, normal)


def _cmd_bertini(args) -> int:
    gf = load_germ_file(args.germ)
    print(f"germ: {gf.germ}")
    par = gf.parametrization
    if args.hyperplane is not None:
        hyperplanes = [(None, _parse_hyperplane(args.hyperplane, gf.germ.ring))]
    else:
        hyperplanes = [
            (i, random_hyperplane(gf.germ.ring, args.seed + i, args.bound))
            for i in range(args.trials)
        ]
    violations = 0
    for index, hyperplane in hyperplanes:
        report = bertini_check(gf.germ, hyperplane, par)
        label = "check" if index is None else f"trial {index:02d}"
        notes = f" [{'; '.join(report.diagnostics)}]" if report.diagnostics else ""
        print(
            f"{label}: H: {report.hyperplane} | "
            f"section reduced: {_yes_no(report.section_reduced)} | "
            f"loci equal: {_yes_no(report.singular_loci_equal)} | {report.verdict.value}{notes}"
        )
        if report.verdict is BertiniVerdict.VIOLATION:
            violations += 1
    print(f"violations: {violations}")
    return 0 if violations == 0 else 1


def _cmd_potential(args) -> int:
    gf = load_germ_file(args.germ)
    parts = _resolve_form(gf, args.form)
    print(f"germ: {gf.germ}")
    print(f"form: {format_form_parts(parts)}")
    if len(parts) != 1 or form_degree(parts[0]) != 1:
        raise GermFileError("the potential command expects a homogeneous 1-form")
    g = radial_potential(parts[0])
    print(f"potential: {g}")
    back = exterior_derivative(g)
    print(f"d(potential) equals the form: {_yes_no(back == parts[0])}")
    member = ideal_membership(g, gf.germ.ideal)
    print(f"potential in the germ ideal: {_yes_no(member)}")
    return 0 if member else 1


def _every_part(test) -> tuple:
    """A yes/no kind: whether ``test(part, germ_file)`` holds for each part."""
    return ("yes", "no"), lambda gf, arg: _yes_no(all(test(p, gf) for p in _resolve_form(gf, arg)))


_STATUSES = tuple(status.value for status in VerdictStatus)

# expect kind -> (allowed values, value shown by a germ file for an argument)
_EXPECT_KINDS = {
    "check": (_STATUSES, lambda gf, arg: _aggregate(
        is_conormal(p, gf.germ) for p in _resolve_form(gf, arg)).value),
    "trivial": _every_part(lambda p, gf: is_trivial_form(p, gf.germ)),
    "tangent": (_STATUSES, lambda gf, arg: is_tangential(
        _parse_field(arg, gf.germ.ring), gf.germ).status.value),
    "oracle": _every_part(lambda p, gf: oracle_conormal_on_parametrization(p, gf.parametrization)),
    "vanishes": _every_part(lambda p, gf: vanishes_on_singular_locus(p, gf.germ)),
    "regular": (("yes", "no"), lambda gf, arg: _yes_no(regular_in_codimension(gf.germ, int(arg)))),
}


def verify_examples(files: Optional[dict] = None) -> tuple:
    """Check the ``expect`` lines of germ files given as {label: GermFile},
    by default of the bundled corpus; returns (report lines, all passed).

    A line whose claim cannot be evaluated (a ``ValueError``, such as an
    unknown form name or a germ the test is not defined for) fails with the
    error as its report, and the other lines are still checked."""
    if files is None:
        files = {
            name.removesuffix(".germ"): parse_germ_text(
                corpus_path(name).read_text(encoding="utf-8"), source=name
            )
            for name in corpus_names()
        }
    lines, passed = [], 0
    for label, gf in files.items():
        for kind, argument, value in gf.expects:
            try:
                got = _EXPECT_KINDS[kind][1](gf, argument)
            except ValueError as e:
                outcome = f"FAIL (error: {e})"
            else:
                passed += got == value
                outcome = "PASS" if got == value else f"FAIL (got {got})"
            lines.append(f"[{label}] {kind} {argument} {value}: {outcome}")
    total = len(lines)
    lines.append(f"summary: {passed}/{total} checks passed")
    return lines, passed == total


def _cmd_verify_examples(args) -> int:
    lines, ok = verify_examples()
    print("\n".join(lines))
    return 0 if ok else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_BERTINI_DEFAULTS = {"trials": 20, "seed": 0, "bound": 10}


def _bertini_defaults(args) -> None:
    """Reject random-trial options next to --hyperplane through the bertini
    subparser, else fill in defaults."""
    given = ["--" + name for name in _BERTINI_DEFAULTS if getattr(args, name) is not None]
    if args.hyperplane is not None and given:
        args.subparser.error("--hyperplane cannot be combined with " + ", ".join(given))
    for name, value in _BERTINI_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conormal",
        description="Decide conormality, triviality and singular-locus behaviour "
        "of polynomial differential forms on embedded affine germs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def germ_arg(p):
        p.add_argument("--germ", required=True, help="germ file (bundled corpus names work)")

    p = sub.add_parser("check", help="decide conormality of a form")
    germ_arg(p)
    p.add_argument("--form", required=True, help="form expression or a named form")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("tangent", help="decide tangency of a vector field")
    germ_arg(p)
    p.add_argument("--field", required=True, help="comma-separated components p1, ..., pn")
    p.set_defaults(func=_cmd_tangent)

    p = sub.add_parser("trivial", help="test membership in the trivial conormal forms")
    germ_arg(p)
    p.add_argument("--form", required=True, help="form expression or a named form")
    p.set_defaults(func=_cmd_trivial)

    p = sub.add_parser("singular", help="jacobian ideal, its dimension, regularity table")
    germ_arg(p)
    p.set_defaults(func=_cmd_singular)

    p = sub.add_parser("bertini", help="randomized hyperplane-section harness")
    germ_arg(p)
    # The random-trial options default to None so that combining them with
    # --hyperplane can be rejected; _bertini_defaults fills them in.
    d = _BERTINI_DEFAULTS
    p.add_argument("--trials", type=_positive_int, help=f"random hyperplanes (default {d['trials']})")
    p.add_argument("--seed", type=int, help=f"seed of the first trial (default {d['seed']})")
    p.add_argument("--bound", type=int, help=f"bound on the normal entries (default {d['bound']})")
    p.add_argument("--hyperplane", help="check one explicit hyperplane (linear form) instead")
    p.set_defaults(func=_cmd_bertini, subparser=p)

    p = sub.add_parser("potential", help="radial potential of a closed 1-form")
    germ_arg(p)
    p.add_argument("--form", required=True, help="closed 1-form expression or named form")
    p.set_defaults(func=_cmd_potential)

    p = sub.add_parser("verify-examples", help="run the bundled example corpus end-to-end")
    p.set_defaults(func=_cmd_verify_examples)
    return parser


def dispatch(argv) -> int:
    """Run one command; returns the exit code instead of raising SystemExit."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "bertini":
            _bertini_defaults(args)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except NotClosedError as e:
        print(f"error: NotClosed: {e}")
        return 2
    except (GermFileError, ParseError, ValueError) as e:
        print(f"error: {e}")
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
