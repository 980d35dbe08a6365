"""Tests for the command-line front end: file format, dispatch, exit codes."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import relrep
from relrep import cli
from relrep.cli import (
    EXIT_EQUIVALENCE,
    EXIT_FALSE,
    EXIT_HYPOTHESIS,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    AlgebraFile,
    FileFormatError,
    load_algebra,
    main,
    parse_algebra_file,
)
from relrep.path_algebra import InternalError

M1 = "P(1)+P(2)+P(3)+S(1)+P(3)/rad^2"
M2 = "P(1)+P(2)+P(3)+S(1)+P(1)/rad^2"
ALG = "builtin:cyclic3"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMaxOrtho:
    def test_positive_verdict(self, capsys):
        code, out, _ = run(capsys, ["check-maxortho", ALG, M1, "--l", "2"])
        assert code == EXIT_OK
        assert "## verdict = true" in out
        assert "## clause.generator-cogenerator = pass" in out
        assert "## clause.selforthogonality = pass" in out
        assert "## clause.endomorphism-gldim = pass" in out

    def test_enumeration_mode_agrees(self, capsys):
        code, out, _ = run(
            capsys, ["check-maxortho", ALG, M1, "--l", "2", "--mode", "enumeration"]
        )
        assert code == EXIT_OK
        assert "## clause.right-perp-equals-add = pass" in out
        assert "## clause.left-perp-equals-add = pass" in out

    def test_simple_module_flags_generation_clause(self, capsys):
        code, out, _ = run(capsys, ["check-maxortho", ALG, "S(1)", "--l", "1"])
        assert code == EXIT_FALSE
        assert "## verdict = false" in out
        assert "## clause.generator-cogenerator = fail" in out

    def test_malformed_expression_is_a_parse_error(self, capsys):
        code, _, err = run(capsys, ["check-maxortho", ALG, "Q(1)", "--l", "1"])
        assert code == EXIT_PARSE
        assert "malformed atom" in err


class TestExt:
    def test_projective_first_argument_vanishes(self, capsys):
        code, out, _ = run(capsys, ["ext", ALG, "P(1)", "S(2)", "--max-degree", "3"])
        assert code == EXIT_OK
        for i in (1, 2, 3):
            assert f"## ext[{i}] = 0" in out

    def test_nonsplit_pair_has_a_class(self, capsys):
        code, out, _ = run(
            capsys, ["ext", ALG, "P(1)/rad^2", "P(3)/rad^2", "--max-degree", "1"]
        )
        assert code == EXIT_OK
        assert "## ext[1] = 1" in out

    def test_relative_dimensions_vanish_for_main_pair(self, capsys):
        code, out, _ = run(
            capsys,
            ["ext", ALG, M1, M1, "--max-degree", "4", "--functor", f"FM:{M2}"],
        )
        assert code == EXIT_OK
        for i in (1, 2, 3, 4):
            assert f"## ext[{i}] = 0" in out

    def test_bad_functor_prefix_is_a_parse_error(self, capsys):
        code, _, err = run(
            capsys, ["ext", ALG, M1, M1, "--max-degree", "1", "--functor", f"G:{M2}"]
        )
        assert code == EXIT_PARSE
        assert "functor" in err

    def test_zero_degree_rejected(self, capsys):
        code, _, _ = run(capsys, ["ext", ALG, "P(1)", "P(1)", "--max-degree", "0"])
        assert code == EXIT_PARSE


class TestVerifyTheorem:
    def test_main_pair_exits_zero_with_four_true_flags(self, capsys):
        code, out, _ = run(capsys, ["verify-theorem", ALG, M1, M2, "--l", "2"])
        assert code == EXIT_OK
        for key in "abcd":
            assert f"## condition.{key} = true" in out
        assert "## agree = true" in out
        assert "## verdict = true" in out

    def test_missing_summand_fails_a_hypothesis(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify-theorem", ALG, M1, "P(1)+P(2)+P(3)+P(1)/rad^2", "--l", "2"],
        )
        assert code == EXIT_HYPOTHESIS
        assert "## hypotheses = fail" in out
        assert "## hypothesis.m2-endomorphism-gldim-<=-4 = fail" in out
        assert "## condition.a" not in out


def test_the_parser_is_built_once_and_reused_unchanged(capsys):
    assert cli.build_parser() is cli.build_parser()
    argv = ["verify-theorem", ALG, M1, M2, "--l", "2"]
    first = run(capsys, argv)
    # a call with other options in between leaves no default behind
    run(capsys, ["ext", ALG, "P(1)", "S(1)", "--max-degree", "2", "--functor", "FM:S(1)"])
    assert run(capsys, argv) == first
    assert first[0] == EXIT_OK


class TestExchange:
    BASE = "P(1)+P(2)+P(3)+S(1)"

    def test_success_prints_terms_and_conditions(self, capsys):
        code, out, _ = run(
            capsys,
            ["exchange", ALG, self.BASE, "P(3)/rad^2", "P(1)/rad^2", "--max-len", "1"],
        )
        assert code == EXIT_OK
        assert "## term[0] = (1, 1, 0)" in out
        assert "## term[1] = (3, 2, 1)" in out
        assert "## term[2] = (3, 1, 2)" in out
        assert "## term[3] = (1, 0, 1)" in out
        assert "## length = 2" in out
        assert "## condition.exactness = true" in out
        assert "## condition.exact-for-Hom(-,m1) = true" in out
        assert "## condition.exact-for-Hom(m2,-) = true" in out

    def test_failure_within_bound(self, capsys):
        code, out, _ = run(
            capsys,
            ["exchange", ALG, "P(1)+P(2)+P(3)", "P(3)/rad^2", "P(1)/rad^2", "--max-len", "1"],
        )
        assert code == EXIT_FALSE
        assert "## found = false" in out
        assert "## reason = not found within bound" in out

    def test_trivial_when_complements_agree(self, capsys):
        code, out, _ = run(
            capsys,
            ["exchange", ALG, self.BASE, "P(3)/rad^2", "P(3)/rad^2", "--max-len", "1"],
        )
        assert code == EXIT_OK
        assert "## trivial = true" in out

    def test_internal_error_exits_five_and_names_its_layer(self, capsys, monkeypatch):
        def broken(g, n):
            raise InternalError("endo", "projective cover construction is not onto")

        monkeypatch.setattr(cli, "gldim_le", broken)
        code, out, err = run(capsys, ["gldim-endo", ALG, "S(1)", "--bound", "0"])
        assert code == EXIT_INTERNAL == 5
        assert err.strip() == "internal error in endo: projective cover construction is not onto"
        assert "hypothesis failure" not in err
        assert "## verdict" not in out

    @pytest.mark.parametrize("error", [MemoryError(), RecursionError("maximum recursion depth exceeded")])
    def test_resource_error_exits_six_not_false(self, capsys, monkeypatch, error):
        def exhausted(g, n):
            raise error

        monkeypatch.setattr(cli, "gldim_le", exhausted)
        code, out, err = run(capsys, ["gldim-endo", ALG, "S(1)", "--bound", "0"])
        # running out is not a verdict: not exit 1 ("false"), not exit 4
        assert code == EXIT_RESOURCE == 6
        assert len(err.splitlines()) == 1
        assert err.startswith(f"resource limit: {type(error).__name__}")
        assert "Traceback" not in out + err
        assert "## verdict" not in out

    def test_precondition_failure_exits_four(self, capsys):
        code, _, err = run(
            capsys,
            ["exchange", ALG, "S(1)", "P(3)/rad^2", "P(1)/rad^2", "--max-len", "1"],
        )
        assert code == EXIT_HYPOTHESIS
        assert "generator-cogenerator" in err

    @pytest.mark.parametrize("x2", ["P(1)/rad^2+S(2)", "P(1)/rad^2+P(1)/rad^2"])
    def test_a_decomposable_endpoint_exits_four_not_false(self, capsys, x2):
        code, out, err = run(capsys, ["exchange", ALG, self.BASE, "P(3)/rad^2", x2, "--max-len", "3"])
        assert code == EXIT_HYPOTHESIS
        assert err.strip() == "hypothesis failure: x2 must be indecomposable"
        assert "## found" not in out


class TestSmallCommands:
    def test_translate_directions(self, capsys):
        code, out, _ = run(capsys, ["dtr", ALG, "P(3)/rad^2"])
        assert code == EXIT_OK
        assert "## dims = (1, 1, 0)" in out
        code, out, _ = run(capsys, ["dtr", ALG, "P(3)/rad^2", "--inverse"])
        assert code == EXIT_OK
        assert "## dims = (0, 1, 1)" in out

    def test_gldim_endo_verdicts(self, capsys):
        code, out, _ = run(capsys, ["gldim-endo", ALG, M1, "--bound", "4"])
        assert code == EXIT_OK
        assert "## end-dim = 24" in out
        code, out, _ = run(capsys, ["gldim-endo", ALG, M1, "--bound", "3"])
        assert code == EXIT_FALSE

    def test_relexact_split_class_is_exact(self, capsys):
        code, out, _ = run(
            capsys,
            ["relexact", ALG, "P(3)/rad^2", "P(1)/rad^2", "--functor", f"F^M:{M1}"],
        )
        assert code == EXIT_OK
        assert "## ext1-dim = 1" in out
        assert "## subgroup-dim = 1" in out
        assert "## f-exact = true" in out

    def test_relexact_nonsplit_class_outside_subgroup(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "relexact", ALG, "P(1)/rad^2", "P(3)/rad^2",
                "--functor", f"FM:{M2}", "--class", "1",
            ],
        )
        assert code == EXIT_FALSE
        assert "## subgroup-dim = 0" in out
        assert "## f-exact = false" in out

    def test_relexact_class_length_mismatch(self, capsys):
        code, _, err = run(
            capsys,
            [
                "relexact", ALG, "P(1)/rad^2", "P(3)/rad^2",
                "--functor", f"FM:{M2}", "--class", "1,2",
            ],
        )
        assert code == EXIT_PARSE
        assert "class coordinates" in err

    def test_prop_gldim_agreement(self, capsys):
        code, out, _ = run(capsys, ["prop-gldim", ALG, M1, "--l", "2"])
        assert code == EXIT_OK
        assert "## endo-bound = true" in out
        assert "## covariant-bound = true" in out
        assert "## contravariant-bound = true" in out
        assert "## agree = true" in out

    def test_prop_gldim_hypothesis_failure(self, capsys):
        code, out, _ = run(capsys, ["prop-gldim", ALG, "S(1)", "--l", "1"])
        assert code == EXIT_HYPOTHESIS
        assert "## generator-cogenerator = false" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["check-maxortho", ALG, M1, "--l", "2"],
        ["verify-theorem", ALG, M1, M2, "--l", "2"],
        ["exchange", ALG, "P(1)+P(2)+P(3)+S(1)", "P(3)/rad^2", "P(1)/rad^2", "--max-len", "1"],
        ["prop-gldim", ALG, "S(1)", "--l", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_seed_flag_is_accepted_and_changes_nothing(capsys, argv):
    assert run(capsys, argv + ["--seed", "7"]) == run(capsys, argv)


class TestAlgebraFiles:
    def test_builtin_round_trip(self, capsys, tmp_path):
        code, text, _ = run(capsys, ["show-algebra", ALG])
        assert code == EXIT_OK
        again = parse_algebra_file(text, origin="emitted")
        assert again.emit() == text
        built = again.build()
        assert built.name == "cyclic3"
        assert built.dim == 15
        assert built.quiver.vertex_count == 3

    def test_file_path_is_accepted(self, capsys, tmp_path):
        code, text, _ = run(capsys, ["show-algebra", ALG])
        path = tmp_path / "copy.alg"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, ["dtr", str(path), "S(1)"])
        assert code == EXIT_OK
        assert "## dims = " in out

    def test_explicit_relations_build_and_round_trip(self, tmp_path):
        text = (
            "# two-arrow line with the composite killed\n"
            "[quiver]\n"
            "vertices = 3\n"
            "b0: 1 -> 2\n"
            "b1: 2 -> 3\n"
            "[relations]\n"
            "bound = 2\n"
            "rel = 1*b0.b1\n"
            "[meta]\n"
            "name = line3\n"
        )
        parsed = parse_algebra_file(text, origin="inline")
        algebra = parsed.build()
        # three vertices and two arrows survive; the length-2 path dies
        assert algebra.dim == 5
        again = parse_algebra_file(parsed.emit(), origin="re-emitted")
        assert again == parsed
        assert again.build().dim == 5

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("[bogus]\n", "unknown section"),
            ("vertices = 2\n", "before the first section"),
            ("[quiver]\na0: 1 -> 2\n", "before the vertices count"),
            ("[quiver]\nvertices = 2\na0: 1 -> 5\n", "out of range"),
            ("[quiver]\nvertices = x\n", "must be an integer"),
            ("[quiver]\nvertices = 2\nnot an arrow\n", "expected"),
            (
                "[quiver]\nvertices = 2\na0: 1 -> 2\n[relations]\n"
                "truncate = 2\nrel = 1*a0.a0\n",
                "not both",
            ),
            (
                "[quiver]\nvertices = 2\na0: 1 -> 2\n[relations]\nrel = 1*a0.a0\n",
                "need a `bound = N` line",
            ),
            ("[quiver]\nvertices = 2\na0: 1 -> 2\n", "missing relations"),
            (
                "[quiver]\nvertices = 2\na0: 1 -> 2\n[relations]\n"
                "bound = 2\nrel = 1*zz\n",
                "unknown arrow",
            ),
            (
                "[quiver]\nvertices = 2\na0: 1 -> 2\n[relations]\n"
                "bound = 3\nrel = 1*a0.a0\n",
                "do not compose",
            ),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(FileFormatError, match=fragment):
            parse_algebra_file(text, origin="inline")

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, ["show-algebra", "builtin:nope"])
        assert code == EXIT_PARSE
        assert "no bundled algebra" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["show-algebra", "no-such-file.alg"])
        assert code == EXIT_PARSE
        assert "cannot read" in err


@pytest.mark.skipif(shutil.which("relrep") is None, reason="console script not installed")
def test_console_script_smoke():
    proc = subprocess.run(
        ["relrep", "dtr", ALG, "P(3)/rad^2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "## dims = (1, 1, 0)" in proc.stdout


def test_module_entry_point_runs_the_cli():
    src = str(Path(relrep.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-m", "relrep", "dtr", ALG, "P(3)/rad^2"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "## dims = (1, 1, 0)" in proc.stdout
