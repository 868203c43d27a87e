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

from conormal.cli import _EXPECT_KINDS, _resolve_form, dispatch, load_germ_file
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


# expect check status -> start of the verdict line ``conormal check`` prints
VERDICT_LINES = {
    "CertifiedYes": "verdict: CONORMAL (",
    "CertifiedNo": "verdict: NOT CONORMAL (",
}


def test_check_command_and_expect_check_agree(tmp_path, monkeypatch, capsys):
    """Every ``check`` command of the transcript exits 0 exactly when
    ``decide`` certifies, and ``expect check`` on the same germ file and form
    gives the status the command prints, or fails exactly when the command
    prints a refusal, with the refusal's reason."""
    for name, text in LOCAL_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    expect_check = _EXPECT_KINDS["check"][1]
    sources = set()
    for argv in commands():
        if argv[0] != "check":
            continue
        code = dispatch(argv)
        out = capsys.readouterr().out
        germ, form = argv[2], argv[4]
        try:
            gf = load_germ_file(germ)
            parts = _resolve_form(gf, form)
        except ValueError:
            assert code == 2, argv
            continue
        decision = decide(parts, gf.germ, gf.parametrization)
        sources.add(decision.source)
        assert (code == 0) == (decision.status is VerdictStatus.CERTIFIED_YES), argv
        [verdict] = [line for line in out.splitlines() if line.startswith("verdict: ")]
        try:
            status = expect_check(gf, form)
        except ValueError as e:
            assert verdict == f"verdict: REFUSED ({e})", argv
        else:
            assert status == decision.status.value, argv
            assert verdict.startswith(VERDICT_LINES[status]), argv
    assert sources == {"criterion", "oracle", "refused"}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(transcript(Path(scratch)), encoding="utf-8")
