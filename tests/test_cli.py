"""Command dispatch, exit codes, germ file round-trips, report determinism."""

from decimal import Decimal, localcontext

import sys

import pytest

from conormal.cli import (
    GermFileError,
    corpus_names,
    dispatch,
    load_germ_file,
    main,
    parse_germ_text,
    verify_examples,
)


def run(capsys, *argv):
    code = dispatch(list(argv))
    return code, capsys.readouterr().out


class TestGermFiles:
    def test_corpus_complete(self):
        assert corpus_names() == [
            "coordinate_subspace.germ",
            "cusp3.germ",
            "segre.germ",
            "umbrella.germ",
        ]

    def test_corpus_files_roundtrip(self):
        files = [load_germ_file(name) for name in corpus_names()]
        # A mixed form whose higher part is negative renders as "x - dy".
        files.append(parse_germ_text("ring x y\ngen x^2\nform w x - dy\n"))
        assert "form w x - dy\n" in files[-1].render()
        for gf in files:
            again = parse_germ_text(gf.render())
            assert again.germ.generators == gf.germ.generators
            assert again.germ.hypersurface == gf.germ.hypersurface
            assert again.germ.complete_intersection == gf.germ.complete_intersection
            assert again.forms == gf.forms
            assert again.expects == gf.expects
            if gf.parametrization is None:
                assert again.parametrization is None
            else:
                assert again.parametrization.components == gf.parametrization.components

    def test_every_corpus_file_has_expectations(self):
        for name in corpus_names():
            assert load_germ_file(name).expects, name

    def test_bad_expect_lines_carry_source_and_line(self):
        for line in (
            "expect shiny dx yes",
            "expect check dx",
            "expect check",
            "expect trivial dx CertifiedYes",
            "expect oracle dx yes",
            "expect regular abc yes",
            "expect regular -1 no",
        ):
            with pytest.raises(GermFileError, match="^cusp.germ:3: "):
                parse_germ_text(f"ring x y z\ngen x^3 - y*z\n{line}\n", source="cusp.germ")

    def test_flipped_expectation_fails(self):
        text = load_germ_file("cusp3.germ").render() + "expect trivial omega2 yes\n"
        lines, ok = verify_examples({"cusp3": parse_germ_text(text)})
        assert not ok
        assert "[cusp3] trivial omega2 yes: FAIL (got no)" in lines
        assert lines[-1] == "summary: 3/4 checks passed"

    def test_unanswerable_expect_line_fails_alone(self):
        # Each bad line is valid syntax but cannot be evaluated; it must fail
        # with its error while the line after it is still checked.
        cusp = "ring x y z\ngen x^3 - y*z\n"
        texts = {
            "not_ci": ("ring x y\ngen x\ngen x*y\n", "check dx CertifiedYes", "trivial dx yes"),
            "curve": ("ring x y z\ngen x\ngen y\n", "vanishes dz yes", "check dx CertifiedYes"),
            "too_big": (cusp, "regular 7 no", "regular 1 yes"),
            "arity": (
                "ring x y z\ngen z^2 - x*y^2\n",
                "tangent 0, -y CertifiedYes",
                "tangent 0, -y, -z CertifiedYes",
            ),
            "unknown_name": (cusp, "trivial omega9 no", "regular 1 yes"),
        }
        files = {
            label: parse_germ_text(f"{head}expect {bad}\nexpect {good}\n")
            for label, (head, bad, good) in texts.items()
        }
        lines, ok = verify_examples(files)
        assert not ok
        for label, (_, bad, good) in texts.items():
            assert any(line.startswith(f"[{label}] {bad}: FAIL (error: ") for line in lines)
            assert f"[{label}] {good}: PASS" in lines
        assert not any("--field" in line for line in lines)
        assert lines[-1] == "summary: 5/10 checks passed"

    def test_expect_regular_past_the_int_string_limit(self):
        # A codimension of 5000 digits passes the syntax check and is read
        # whatever sys.get_int_max_str_digits() is; the line fails with the
        # range check of regular_in_codimension.
        big = "1" * 5000
        gf = parse_germ_text(f"ring x y z\ngen x^3 - y*z\nexpect regular {big} no\n")
        lines, ok = verify_examples({"big": gf})
        assert not ok
        assert lines == [
            f"[big] regular {big} no: FAIL (error: codimension must be between 0 and dim X = 2)",
            "summary: 0/1 checks passed",
        ]

    def test_check_lines_on_a_germ_that_is_not_a_complete_intersection(self):
        # The twisted cubic cone is decided by the oracle on its covering
        # parametrization; a curve in the plane of V(x*y, x*z) (the plane
        # x = 0 and the x-axis) covers only part of X, so that check fails.
        twisted_cubic = parse_germ_text(
            "ring x y z w\ngen x*z - y^2\ngen y*w - z^2\ngen x*w - y*z\n"
            "param s t -> s^3, s^2*t, s*t^2, t^3\n"
            "expect check dx CertifiedNo\n"
            "expect check z*dx - 2*y*dy + x*dz CertifiedYes\n"
        )
        plane_line = parse_germ_text(
            "ring x y z\ngen x*y\ngen x*z\nparam s -> 0, s, s^2\nexpect check dx CertifiedNo\n"
        )
        lines, ok = verify_examples({"twisted_cubic": twisted_cubic, "plane_line": plane_line})
        assert lines == [
            "[twisted_cubic] check dx CertifiedNo: PASS",
            "[twisted_cubic] check z*dx - 2*y*dy + x*dz CertifiedYes: PASS",
            "[plane_line] check dx CertifiedNo: "
            "FAIL (error: the parametrization covers only part of X)",
            "summary: 2/3 checks passed",
        ]
        assert not ok

    def test_ring_must_come_first(self):
        with pytest.raises(GermFileError):
            parse_germ_text("gen x\nring x y\n")

    def test_differential_variable_name_fails_with_line(self):
        with pytest.raises(GermFileError, match=r"^bad\.germ:2: variable name 'dx'"):
            parse_germ_text("# comment\nring x dx\ngen x\n", source="bad.germ")

    def test_unknown_directive(self):
        with pytest.raises(GermFileError) as err:
            parse_germ_text("ring x y\nbogus stuff\n")
        assert "bogus" in str(err.value)

    def test_bad_flag(self):
        with pytest.raises(GermFileError):
            parse_germ_text("ring x y\ngen x\nflag shiny\n")

    def test_true_flags_are_accepted(self):
        gf = parse_germ_text("ring x y\ngen x*y\nflag hypersurface\nflag complete_intersection\n")
        assert gf.germ.hypersurface and gf.germ.complete_intersection
        assert "flag" not in gf.render()

    def test_false_complete_intersection_flag(self):
        with pytest.raises(GermFileError, match="dimension is 2, expected 1"):
            parse_germ_text("ring x y z\ngen x\ngen x*y\nflag complete_intersection\n")

    def test_false_hypersurface_flag(self):
        with pytest.raises(GermFileError, match="hypersurface"):
            parse_germ_text("ring x y z\ngen x\ngen y\nflag hypersurface\n")

    def test_duplicate_parametrization(self):
        text = "ring x y z\ngen x\nparam s t -> 0, s, t\nparam s t -> 0, t, s\n"
        with pytest.raises(GermFileError, match="4: duplicate parametrization"):
            parse_germ_text(text)

    def test_generator_must_vanish_at_origin(self):
        with pytest.raises(GermFileError):
            parse_germ_text("ring x y\ngen x + 1\n")

    def test_missing_file(self):
        with pytest.raises(GermFileError):
            load_germ_file("no_such_file.germ")

    @pytest.mark.parametrize("text, message", [
        ("ring x y\nring x y\n", "g.germ:2: duplicate ring declaration"),
        ("ring x y\ngen x +\n", "g.germ:2: bad generator: unexpected end of input (at position 3)"),
        ("ring x y\ngen x\nform w\n", "g.germ:3: expected: form <name> <expression>"),
        ("ring x y\ngen x\nform w dz\n",
         "g.germ:3: bad form 'w': unknown variable 'dz' (at position 0)"),
        ("ring x y z\ngen x*y\nparam s t x, y\n",
         "g.germ:3: expected: param <variables> -> <polynomials>"),
        ("ring x y z\ngen x*y\nparam s -> s, t, 0\n",
         "g.germ:3: bad parametrization: unknown variable 't' (at position 1)"),
        ("ring x y z\ngen x*y\nparam s -> s, s, 0\n",
         "g.germ:3: parametrization does not satisfy generator x*y"),
        ("# only a comment\n", "g.germ: missing ring declaration"),
        ("ring x y\n", "g.germ: missing generators"),
        ("ring x y\ngen x\nform w dx\nform w dy\n", "g.germ:4: duplicate form name 'w'"),
    ])
    def test_error_messages_carry_source_and_line(self, text, message):
        with pytest.raises(GermFileError) as err:
            parse_germ_text(text, source="g.germ")
        assert str(err.value) == message


class TestDispatch:
    def test_check_certified(self, capsys):
        code, out = run(
            capsys, "check", "--germ", "umbrella.germ",
            "--form", "y*z*dx + 2*x*z*dy - 2*x*y*dz",
        )
        assert code == 0
        assert "CONORMAL (certified)" in out

    def test_check_named_form(self, capsys):
        code, out = run(capsys, "check", "--germ", "cusp3.germ", "--form", "omega2")
        assert code == 0
        assert "CONORMAL (certified)" in out
        assert "(3*x^3 - 3*y*z)*dx*dy*dz" in out

    def test_check_refuted(self, capsys):
        code, out = run(capsys, "check", "--germ", "umbrella.germ", "--form", "dx")
        assert code == 1
        assert "NOT CONORMAL" in out

    def test_check_prints_a_coefficient_past_the_int_string_limit(self, capsys):
        # 2^65536 has 19729 digits, past Python's default limit of 4300 for
        # converting an int to a string.
        code, out = run(capsys, "check", "--germ", "umbrella.germ", "--form", "2^65536*dx")
        assert code in (0, 1)
        with localcontext() as context:
            context.prec = 20000
            digits = str(Decimal(2) ** 65536)
        assert out.splitlines()[0] == f"form: {digits}*dx"
        assert "verdict: NOT CONORMAL (refuted)" in out

    def test_check_reports_splitting_hypothesis(self, capsys, tmp_path):
        # a cylinder germ carries a conormal (n-1)-form not vanishing at 0
        path = tmp_path / "cylinder.germ"
        path.write_text(
            "ring x y z\ngen x\nflag hypersurface\nflag complete_intersection\n"
        )
        code, out = run(capsys, "check", "--germ", str(path), "--form", "dx*dy")
        assert code == 0
        assert "Rossi decomposition applies" in out

    def test_check_no_splitting_note_for_vanishing_form(self, capsys):
        code, out = run(capsys, "check", "--germ", "umbrella.germ", "--form", "omega2")
        assert code == 0
        assert "Rossi" not in out

    def test_tangent(self, capsys):
        code, out = run(
            capsys, "tangent", "--germ", "umbrella.germ", "--field", "0, -y, -z"
        )
        assert code == 0
        assert "TANGENTIAL (certified)" in out

    def test_trivial_nontrivial_exit_one(self, capsys):
        code, out = run(capsys, "trivial", "--germ", "cusp3.germ", "--form", "omega2")
        assert code == 1
        assert "NON-TRIVIAL" in out

    def test_trivial_exit_zero(self, capsys):
        code, out = run(
            capsys, "trivial", "--germ", "cusp3.germ", "--form", "(x^3 - y*z)*dy"
        )
        assert code == 0
        assert "TRIVIAL" in out

    def test_singular_table(self, capsys):
        code, out = run(capsys, "singular", "--germ", "cusp3.germ")
        assert code == 0
        assert "regular in codimension 1: yes" in out
        assert "regular in codimension 2: no" in out
        assert "dim Sing X = 0" in out

    def test_bertini_summary(self, capsys):
        code, out = run(
            capsys, "bertini", "--germ", "umbrella.germ",
            "--trials", "5", "--seed", "7", "--bound", "10",
        )
        assert code == 0
        assert out.count("trial") == 5

    def test_bertini_rejects_nonpositive_trials(self, capsys):
        for trials in ("0", "-3"):
            code, out = run(capsys, "bertini", "--germ", "umbrella.germ", "--trials", trials)
            assert code == 2
            assert "trial" not in out and "check:" not in out

    @pytest.mark.parametrize("argv, printed", [
        (["bertini", "--germ", "umbrella.germ", "--bound", "0"], ""),
        (["check", "--germ", "{dir}", "--form", "dx"],
         "error: cannot read germ file {dir}: Is a directory\n"),
    ], ids=["bertini-bound-0", "germ-directory"])
    def test_input_errors_exit_2_before_any_output(self, capsys, tmp_path, argv, printed):
        code, out = run(capsys, *(a.format(dir=tmp_path) for a in argv))
        assert (code, out) == (2, printed.format(dir=tmp_path))

    def test_bertini_explicit_hyperplane(self, capsys):
        code, out = run(
            capsys, "bertini", "--germ", "umbrella.germ", "--hyperplane", "y"
        )
        assert code == 0
        assert "TransversalityFails" in out and "contains Sing X" in out

    def test_bertini_hyperplane_rejects_trial_options(self, capsys):
        for extra in (["--trials", "5"], ["--seed", "3"], ["--bound", "4"]):
            code, out = run(
                capsys, "bertini", "--germ", "umbrella.germ", "--hyperplane", "y", *extra
            )
            assert code == 2
            assert "trial" not in out and "check:" not in out

    def test_bertini_hyperplane_conflict_shows_bertini_usage(self, capsys):
        code = dispatch(["bertini", "--germ", "umbrella.germ", "--hyperplane", "y", "--seed", "3"])
        err = capsys.readouterr().err
        assert code == 2
        assert "usage: conormal bertini" in err
        assert "--hyperplane cannot be combined with --seed" in err

    def test_bertini_rejects_affine_hyperplane(self, capsys):
        code, out = run(
            capsys, "bertini", "--germ", "umbrella.germ", "--hyperplane", "x + 1"
        )
        assert code == 2
        assert "error: a hyperplane must be a homogeneous linear form through the origin" in out

    def test_potential(self, capsys):
        code, out = run(
            capsys, "potential", "--germ", "umbrella.germ",
            "--form", "2*z*dz - y^2*dx - 2*x*y*dy",
        )
        assert code == 0
        assert "potential in the germ ideal: yes" in out

    def test_potential_not_closed(self, capsys):
        code, out = run(
            capsys, "potential", "--germ", "umbrella.germ", "--form", "y*dx - x*dy"
        )
        assert code == 2
        assert "NotClosed" in out

    def test_verify_examples(self, capsys):
        code, out = run(capsys, "verify-examples")
        expects = sum(len(load_germ_file(name).expects) for name in corpus_names())
        assert code == 0
        assert "FAIL" not in out
        assert expects >= 24
        assert out.splitlines()[-1] == f"summary: {expects}/{expects} checks passed"

    def test_verify_examples_ignores_files_in_the_working_directory(
        self, capsys, monkeypatch, tmp_path
    ):
        (tmp_path / "umbrella.germ").write_text("ring x y z\ngen x\n")
        monkeypatch.chdir(tmp_path)
        code, out = run(capsys, "verify-examples")
        assert code == 0
        assert "[umbrella] check omega1 CertifiedYes: PASS" in out

    def test_unknown_command_exit_two(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv, code", [
        (["check", "--germ", "umbrella.germ", "--form", "omega1"], 0),
        (["check", "--germ", "umbrella.germ", "--form", "dx"], 1),  # a refuted claim
        (["frobnicate"], 2),
    ])
    def test_main_exits_with_the_dispatch_code(self, capsys, monkeypatch, argv, code):
        # The console script and python -m conormal hand dispatch's code to sys.exit.
        monkeypatch.setattr(sys, "argv", ["conormal", *argv])
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code == code

    def test_unknown_flag_exit_two(self, capsys):
        assert dispatch(["singular", "--germ", "cusp3.germ", "--wat"]) == 2

    def test_parse_error_exit_two(self, capsys):
        code, out = run(capsys, "check", "--germ", "cusp3.germ", "--form", "x +")
        assert code == 2
        assert "error" in out

    def test_deterministic_reports(self, capsys):
        argv = ["bertini", "--germ", "umbrella.germ", "--trials", "6", "--seed", "3"]
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)
        assert (code1, out1) == (code2, out2)

        argv = ["check", "--germ", "segre.germ", "--form", "omega3"]
        code1, out1 = run(capsys, *argv)
        code2, out2 = run(capsys, *argv)
        assert (code1, out1) == (code2, out2)
