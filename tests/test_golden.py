"""Golden CLI transcript: the stdout and exit code of a fixed command list
must match ``tests/golden/cli.txt`` byte for byte.

After an intended change of output, regenerate the file with
``PYTHONPATH=src python tests/test_golden.py`` and review its diff.
"""

import contextlib
import io
import os
import shlex
import tempfile
from pathlib import Path

from conormal.cli import _EXPECT_KINDS, _claim, dispatch, load_germ_file
from conormal.germs import VerdictStatus, decide

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"

# Germ files written next to the commands.  V(x^2) is not radical, so with
# the corpus it reaches every witness phrase (2 statuses x polynomial, form
# and vector field, decided by the given generator or on the reduced germ
# V(x)); V(x) carries a conormal 2-form not vanishing at 0.  V(x^2, y) is a
# non-reduced complete intersection but no hypersurface: a polynomial is
# decided by radical membership, and a claim in positive degree that the
# radical test leaves open is refused.
# V(x*y, x*z), the plane x = 0 and the x-axis, is not a complete
# intersection, so ``check`` falls back on the parametrization oracle, or
# says that there is none; its curve in the plane covers only part of X.
# ``singular`` needs the Jacobian ideal, so on it exits 2.
# The twisted cubic cone, not a complete intersection either, is covered by
# its parametrization, so the oracle decides.
LOCAL_FILES = {
    "double_line.germ": "ring x y\ngen x^2\n",
    "cylinder.germ": "ring x y z\ngen x\n",
    "double_axis.germ": "ring x y z\ngen x^2\ngen y\n",
    "plane_line.germ": "ring x y z\ngen x*y\ngen x*z\nparam s -> 0, s, s^2\n",
    "plane_line_bare.germ": "ring x y z\ngen x*y\ngen x*z\n",
    "twisted_cubic.germ": (
        "ring x y z w\ngen x*z - y^2\ngen y*w - z^2\ngen x*w - y*z\n"
        "param s t -> s^3, s^2*t, s*t^2, t^3\n"
    ),
}

# germ -> forms for check, trivial and potential (named forms first)
FORMS = {
    "coordinate_subspace.germ": ["dx1", "x1*dx3", "x3*dx1 + x1*dx3", "dx3", "x1 + dx1*dx2", "0"],
    "cusp3.germ": ["omega2", "3*x^2*dx - z*dy - y*dz", "dx", "x*dy*dz"],
    "segre.germ": ["omega3", "z*dx + x*dz - t*dy - y*dt", "dx*dy"],
    "umbrella.germ": ["omega1", "omega2", "dx", "x*dy", "y*dz"],
    "double_line.germ": ["x", "y", "x^2*y", "dx", "dy", "x*dy", "dx*dy", "x + dy", "x - dy"],
    "cylinder.germ": ["dx*dy", "dy*dz"],
}

FIELDS = {
    "umbrella.germ": ["0, -y, -z", "2*x, 0, z", "1, 0, 0", "0, 1"],
    "double_line.germ": ["0, 1", "x, y", "1, 0", "y, 0"],
    "double_axis.germ": ["1, 0, 0"],
}

BERTINI = [
    ["--germ", "umbrella.germ", "--trials", "5"],
    ["--germ", "cusp3.germ", "--trials", "5"],
    ["--germ", "segre.germ", "--trials", "5"],
    ["--germ", "umbrella.germ", "--trials", "3", "--seed", "7", "--bound", "2"],
    ["--germ", "umbrella.germ", "--hyperplane", "x - y"],
    ["--germ", "umbrella.germ", "--hyperplane", "y"],
    ["--germ", "umbrella.germ", "--hyperplane", "z"],
    ["--germ", "cusp3.germ", "--hyperplane", "1/2*x - 1/3*y + z"],
    ["--germ", "segre.germ", "--hyperplane", "x - t"],
    ["--germ", "umbrella.germ", "--hyperplane", "x^2"],
    ["--germ", "umbrella.germ", "--hyperplane", "x", "--trials", "3"],
    ["--germ", "umbrella.germ", "--hyperplane", "x"],
    ["--germ", "coordinate_subspace.germ", "--trials", "5"],
    ["--germ", "double_line.germ", "--trials", "5"],
]


def commands() -> list:
    out = []
    for germ, forms in FORMS.items():
        for cmd in ("check", "trivial", "potential"):
            out += [[cmd, "--germ", germ, "--form", f] for f in forms]
        out.append(["singular", "--germ", germ])
    for germ, fields in FIELDS.items():
        out += [["tangent", "--germ", germ, "--field", f] for f in fields]
    out += [["bertini"] + args for args in BERTINI]
    out += [
        ["check", "--germ", "double_axis.germ", "--form", "dz"],
        ["check", "--germ", "double_axis.germ", "--form", "x"],
        ["check", "--germ", "double_axis.germ", "--form", "z"],
        ["check", "--germ", "plane_line.germ", "--form", "dx"],
        ["check", "--germ", "plane_line.germ", "--form", "dy"],
        ["check", "--germ", "plane_line_bare.germ", "--form", "dx"],
        ["singular", "--germ", "plane_line_bare.germ"],
        ["check", "--germ", "twisted_cubic.germ", "--form", "dx"],
        ["check", "--germ", "twisted_cubic.germ", "--form", "z*dx - 2*y*dy + x*dz"],
        ["check", "--germ", "missing.germ", "--form", "dx"],
        ["check", "--germ", "umbrella.germ", "--form", "dq"],
        ["verify-examples"],
    ]
    return out


def transcript(directory: Path) -> str:
    """Run every command in ``directory`` and return the transcript."""
    for name, text in LOCAL_FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        chunks = []
        for argv in commands():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = dispatch(argv)
            chunks.append(f"$ conormal {shlex.join(argv)}\n{buf.getvalue()}[exit {code}]\n")
    finally:
        os.chdir(cwd)
    return "\n".join(chunks)


def test_cli_transcript_matches_golden(tmp_path):
    assert transcript(tmp_path) == GOLDEN.read_text(encoding="utf-8")


# (expect kind, value) -> start of the verdict line its command prints
VERDICT_LINES = {
    ("check", "CertifiedYes"): "verdict: CONORMAL (",
    ("check", "CertifiedNo"): "verdict: NOT CONORMAL (",
    ("tangent", "CertifiedYes"): "verdict: TANGENTIAL (",
    ("tangent", "CertifiedNo"): "verdict: NOT TANGENTIAL (",
    ("trivial", "yes"): "verdict: TRIVIAL (",
    ("trivial", "no"): "verdict: NON-TRIVIAL (",
}

# command -> the question it asks ``decide``; each has the expect kind of its name
QUESTIONS = {"check": "conormal", "tangent": "tangent", "trivial": "trivial"}

# One more claim per command, outside the transcript: a refuted part beats
# a refused one, a field is refuted on a germ whose reduced germ is not
# computed, and a form is trivial on a germ that is not a complete
# intersection.
MORE_CLAIMS = [
    ["check", "--germ", "double_axis.germ", "--form", "z + dz"],
    ["tangent", "--germ", "double_axis.germ", "--field", "0, 1, 0"],
    ["trivial", "--germ", "plane_line.germ", "--form", "x*z*dy + x^2*dz"],
]


def test_check_command_and_expect_check_agree(tmp_path, monkeypatch, capsys):
    """Every ``check``, ``tangent`` and ``trivial`` command exits 0 exactly
    when ``decide`` certifies and 1 when it refutes or refuses, and the
    ``expect`` kind of the command on the same germ file and claim gives the
    value the command prints, or fails exactly when the command prints a
    refusal, with the refusal's reason."""
    for name, text in LOCAL_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    sources, kinds = set(), set()
    for argv in commands() + MORE_CLAIMS:
        kind = argv[0]
        if kind not in QUESTIONS:
            continue
        code = dispatch(argv)
        out = capsys.readouterr().out
        germ, claim = argv[2], argv[4]
        try:
            gf = load_germ_file(germ)
            parts = _claim(gf, QUESTIONS[kind], claim)
        except ValueError:
            assert code == 2, argv
            continue
        decision = decide(parts, gf.germ, gf.parametrization, QUESTIONS[kind])
        sources.add(decision.source)
        kinds.add((kind, decision.source))
        assert code == (0 if decision.status is VerdictStatus.CERTIFIED_YES else 1), argv
        [verdict] = [line for line in out.splitlines() if line.startswith("verdict: ")]
        try:
            value = _EXPECT_KINDS[kind][1](gf, claim)
        except ValueError as e:
            assert decision.source == "refused", argv
            assert verdict == f"verdict: REFUSED ({e})", argv
        else:
            assert (value in ("CertifiedYes", "yes")) == (code == 0), argv
            assert verdict.startswith(VERDICT_LINES[kind, value]), argv
    assert sources == {"criterion", "oracle", "refused"}
    assert {"check", "tangent", "trivial"} == {kind for kind, _ in kinds}
    assert ("tangent", "refused") in kinds


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(transcript(Path(scratch)), encoding="utf-8")
