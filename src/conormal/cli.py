"""Command-line interface, germ file format, and the bundled example corpus.

Exit codes: 0 when the queried claim is certified/confirmed, 1 when it is
refuted or refused (the verdict line says which, and gives a refusal's
reason), 2 on input errors only.  ``bertini`` and ``singular`` report and
exit 0 on every germ they apply to; a germ outside their scope exits 2
with the reason: ``singular`` needs a complete intersection, ``bertini`` a
hypersurface in at least 3 variables.  Every claim is decided on the reduced
germ: a non-reduced hypersurface's claims are decided on the germ of the
squarefree part of its generator, which the witness names.

``check``, ``tangent`` and ``trivial`` print one record, the ``Decision``
that ``germs.decide`` returns for their question (conormal, tangent,
trivial): the claim, one line per part with its answer, and the verdict
line that ``_VERDICTS`` gives for the question, what decided and the
status.

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
``verify_examples`` checks.  Every kind but ``regular`` reads
``germs.decide`` on its question, as the matching command does, and maps
its status to the file's value; a refusal fails the line with its reason.
The argument is a form or form name (kinds ``check``, ``trivial``,
``oracle``, ``vanishes``), a vector field ``p1, ..., pn`` (``tangent``) or a
non-negative integer codimension (``regular``, read from the table of
``conormal singular``); ``check`` and ``tangent`` expect a verdict status,
the others ``yes`` or ``no``.
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
from .germs import Germ, Parametrization, VerdictStatus, decide
from .geometry import bertini_check, random_hyperplane, regular_in_codimension
from .groebner import ideal_membership
from .poly import PolynomialRing, _read_int, parse_polynomial


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
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise GermFileError(f"cannot read germ file {path}: {e.strerror}") from None
    return parse_germ_text(text, source=str(path))


def _resolve_form(gf: GermFile, text: str) -> list:
    if text in gf.forms:
        return gf.forms[text]
    return parse_form(text, gf.germ.ring)


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def _claim(gf: GermFile, question: str, text: str) -> list:
    """The parts ``germs.decide`` asks ``question`` of: the one vector field
    ``p1, ..., pn`` of a tangency claim, else the homogeneous parts of a form
    or form name."""
    if question != "tangent":
        return _resolve_form(gf, text)
    ring = gf.germ.ring
    chunks = text.split(",")
    if len(chunks) != ring.nvars:
        raise GermFileError(
            f"a vector field needs {ring.nvars} comma-separated components for {ring}"
        )
    return [VectorField(ring, [parse_polynomial(c, ring) for c in chunks])]


# (question, what decided, status) -> verdict line; {} is a refusal's reason
_YES, _NO = VerdictStatus.CERTIFIED_YES, VerdictStatus.CERTIFIED_NO
_VERDICTS = {
    ("conormal", "criterion", _YES): "CONORMAL (certified)",
    ("conormal", "criterion", _NO): "NOT CONORMAL (refuted)",
    ("conormal", "oracle", _YES): "CONORMAL (parametrization oracle: pullback vanishes)",
    ("conormal", "oracle", _NO): "NOT CONORMAL (parametrization oracle: nonzero pullback)",
    ("conormal", "refused", None): "REFUSED ({})",
    ("tangent", "criterion", _YES): "TANGENTIAL (certified)",
    ("tangent", "criterion", _NO): "NOT TANGENTIAL (refuted)",
    ("tangent", "refused", None): "REFUSED ({})",
    ("trivial", "criterion", _YES):
        "TRIVIAL (inside the differential ideal generated by the germ ideal)",
    ("trivial", "criterion", _NO):
        "NON-TRIVIAL (outside the module generated by the trivial forms)",
}


def _cmd_decide(args) -> int:
    """``check``, ``tangent`` and ``trivial``: the claim, one line per part
    with its answer, and the verdict line of the ``germs.decide`` record."""
    gf = load_germ_file(args.germ)
    question = args.question
    parts = _claim(gf, question, args.field if question == "tangent" else args.form)
    if question == "tangent":
        print(f"germ: {gf.germ}")
        print(f"field: {parts[0]}")
        labels = ["status"]
    else:
        print(f"form: {format_form_parts(parts)}")
        print(f"germ: {gf.germ}")
        of = " trivial" if question == "trivial" else ""
        labels = [f"degree {form_degree(part)} part{of}" for part in parts]
    decision = decide(parts, gf.germ, gf.parametrization, question)
    for label, answer in zip(labels, decision.verdicts):
        shown = _yes_no(answer) if isinstance(answer, bool) else answer or "refused"
        print(f"{label}: {shown}")
    verdict = _VERDICTS[decision.question, decision.source, decision.status]
    print("verdict:", verdict.format(decision.reason))
    if decision.status is not _YES:
        return 1
    n = gf.germ.ring.nvars
    if question == "conormal" and not parts:
        print("witness: the zero form is conormal to every germ")
    elif question == "conormal" and decision.source == "criterion" and any(
        form_degree(part) == n - 1 and evaluate_form(part, (0,) * n) for part in parts
    ):
        print("note: Rossi decomposition applies (a conormal (n-1)-form does not vanish at 0): "
              "the germ splits off a (C, 0) factor")
    return 0


def _cmd_singular(args) -> int:
    gf = load_germ_file(args.germ)
    print(f"germ: {gf.germ}")
    jac = gf.germ.jacobian
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
    for m, c in p._terms.items():
        if m not in ring.units:
            raise GermFileError(
                "a hyperplane must be a homogeneous linear form through the origin"
            )
        normal[ring.units.index(m)] = c
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
    for index, hyperplane in hyperplanes:
        report = bertini_check(gf.germ, hyperplane, par)
        label = "check" if index is None else f"trial {index:02d}"
        notes = f" [{'; '.join(report.diagnostics)}]" if report.diagnostics else ""
        print(
            f"{label}: H: {report.hyperplane} | "
            f"section reduced: {_yes_no(report.section_reduced)} | "
            f"loci equal: {_yes_no(report.singular_loci_equal)} | {report.verdict.value}{notes}"
        )
    return 0


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


_STATUSES = tuple(status.value for status in VerdictStatus)


def _decided(question: str, values: tuple = ("yes", "no")) -> tuple:
    """An expect kind that ``germs.decide`` answers: the value of its
    status, ``values`` being those of CertifiedYes and CertifiedNo; a
    refusal raises with its reason."""

    def value(gf: GermFile, arg: str) -> str:
        decision = decide(_claim(gf, question, arg), gf.germ, gf.parametrization, question)
        if decision.reason is not None:
            raise ValueError(decision.reason)
        return dict(zip(VerdictStatus, values))[decision.status]

    return values, value


# expect kind -> (allowed values, value shown by a germ file for an argument)
_EXPECT_KINDS = {
    "check": _decided("conormal", _STATUSES),
    "trivial": _decided("trivial"),
    "tangent": _decided("tangent", _STATUSES),
    "oracle": _decided("oracle"),
    "vanishes": _decided("vanishes"),
    "regular": (
        ("yes", "no"),
        lambda gf, arg: _yes_no(regular_in_codimension(gf.germ, _read_int(arg))),
    ),
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
    p.set_defaults(func=_cmd_decide, question="conormal")

    p = sub.add_parser("tangent", help="decide tangency of a vector field")
    germ_arg(p)
    p.add_argument("--field", required=True, help="comma-separated components p1, ..., pn")
    p.set_defaults(func=_cmd_decide, question="tangent")

    p = sub.add_parser("trivial", help="test membership in the trivial conormal forms")
    germ_arg(p)
    p.add_argument("--form", required=True, help="form expression or a named form")
    p.set_defaults(func=_cmd_decide, question="trivial")

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
    p.add_argument("--bound", type=_positive_int,
                   help=f"bound on the normal entries (default {d['bound']})")
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
    except ValueError as e:
        print(f"error: {e}")
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
