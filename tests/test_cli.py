"""Exit codes and report text for every subcommand, over the fixture corpus.

The contract under test: exit 0 when all checks pass, 1 on a failed
verification or precondition, 2 on unreadable or unparseable input, and
byte-identical reports for identical invocations.
"""

import os
import pathlib
import resource
import subprocess
import sys
import time

import pytest

from radform.cli import DEFAULT_MAX_DEGREE, build_parser, cmd_verify, main
from radform.formula import parse

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
REFUTED_LEVEL1 = "level 1: nonpower attestation refuted: p_0 = (s1)^2\n"


def false_level1_tower(tmp_path):
    """fixtures/degree2.tower with p_0 = s1^2, a square, still attested."""
    text = (FIXTURES / "degree2.tower").read_text()
    path = tmp_path / "false_level1.tower"
    path.write_text(text.replace("p 0 = s1^2 - 4*s2", "p 0 = s1^2"))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """The environment of a child that imports the same checkout as this
    process."""
    src = str(FIXTURES.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


def run_bounded(*argv, seconds=5, memory=1 << 30):
    """(exit code, stdout, stderr) of `python -m radform.cli argv` in a child
    process that is killed after `seconds` of wall clock (the test fails
    with TimeoutExpired) and whose address space is capped at `memory`
    bytes, so a hang or a runaway allocation fails instead of stalling."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    result = subprocess.run(
        [sys.executable, "-m", "radform.cli", *map(str, argv)],
        capture_output=True, text=True, env=child_env(), timeout=seconds,
        preexec_fn=cap_memory,
    )
    return result.returncode, result.stdout, result.stderr


class TestVerify:
    def test_degree2_passes(self, capsys):
        code, out, _ = run(capsys, "verify", FIXTURES / "degree2.poly")
        assert code == 0
        assert "PASS  witness_1^2 = p_0(sigma, witnesses)" in out
        assert "FAIL" not in out

    def test_broken_fixture_names_first_failure(self, capsys):
        code, out, _ = run(capsys, "verify", FIXTURES / "degree2_broken.poly")
        assert code == 1
        assert "FAIL  witness_1^2 = p_0(sigma, witnesses)" in out
        assert "leading term" in out

    def test_malformed_file_reports_position(self, capsys):
        code, _, err = run(capsys, "verify", FIXTURES / "bad_syntax.poly")
        assert code == 2
        assert "line 3" in err and "column" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", FIXTURES / "absent.poly")
        assert code == 2
        assert "absent.poly" in err

    def test_tower_documents_verify_via_derived_witnesses(self, capsys):
        for name in ("degree2.tower", "degree3.tower"):
            code, out, _ = run(capsys, "verify", FIXTURES / name)
            assert code == 0, name
            assert "x_1 = target(sigma, witnesses)" in out

    def test_deterministic_output(self, capsys):
        first = run(capsys, "verify", FIXTURES / "degree3.poly")
        second = run(capsys, "verify", FIXTURES / "degree3.poly")
        assert first == second


    def test_false_level1_attestation_is_refuted(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", false_level1_tower(tmp_path))
        assert (code, out, err) == (1, "", REFUTED_LEVEL1)

    @pytest.mark.parametrize("command", ["verify", "abelize"])
    def test_attestation_refuted_by_a_gauss_sum_root(self, capsys, tmp_path, command):
        # 2*s1^2 = (sqrt(2)*s1)^2, with sqrt(2) = w(8) - w(8)^3
        path = tmp_path / "gauss.tower"
        path.write_text("towerformula n=2 s=1\nk 2\np 0 = 2*s1^2\ntarget = s1\n"
                        "assert-nonpower 1\n")
        code, out, err = run(capsys, command, path)
        assert (code, out, err) == (
            1, "", "level 1: nonpower attestation refuted: p_0 = ((w(8) - w(8)^3)*s1)^2\n")


class TestObstruct:
    def test_low_degree_refused(self, capsys):
        code, _, err = run(capsys, "obstruct", FIXTURES / "degree3.poly")
        assert code == 1
        assert "at least 5" in err

    def test_candidate_is_refuted(self, capsys):
        code, out, _ = run(capsys, "obstruct", FIXTURES / "degree5_candidate.poly")
        assert code == 0
        assert "refuted" in out

    def test_tower_input_rejected(self, capsys):
        code, _, err = run(capsys, "obstruct", FIXTURES / "degree2.tower")
        assert code == 2
        assert "polyformula" in err


class TestCharacter:
    def test_resolvent_table(self, capsys):
        code, out, _ = run(
            capsys,
            "character", "x1 + w(3)*x2 + w(3)^2*x3", "3", "(1 2 3)", "(1 3 2)",
        )
        assert code == 0
        assert out.splitlines() == [
            "chi((1 2 3)) = w(3)",
            "chi((1 3 2)) = w(3)^2",
        ]

    def test_order_six_coefficients_print_w3(self, capsys):
        code, out, _ = run(
            capsys,
            "character", "w(6)*(x1 + w(3)*x2 + w(3)^2*x3)", "3", "(1 2 3)", "(1 3 2)",
        )
        assert code == 0
        assert out.splitlines() == [
            "chi((1 2 3)) = w(3)",
            "chi((1 3 2)) = w(3)^2",
        ]

    def test_order_twelve_coefficients_print_w3(self, capsys):
        code, out, _ = run(
            capsys, "character", "x1 + w(12)^4*x2 + w(12)^8*x3", "3", "(1 2 3)"
        )
        assert code == 0
        assert out.splitlines() == ["chi((1 2 3)) = w(3)"]

    def test_symmetric_polynomial_is_trivial(self, capsys):
        code, out, _ = run(capsys, "character", "x1*x2*x3", "5", "(1 2 3)")
        assert code == 0
        assert out.strip() == "chi((1 2 3)) = 1"

    def test_odd_permutation_refused(self, capsys):
        code, _, err = run(capsys, "character", "x1*x2", "2", "(1 2)")
        assert code == 1
        assert "odd" in err

    def test_bad_cycle_string(self, capsys):
        code, _, err = run(capsys, "character", "x1*x2", "2", "1 2)")
        assert code == 2
        assert "cycle" in err

    @pytest.mark.parametrize("q", [["0"], ["--", "-1"]], ids=["zero", "negative"])
    def test_nonpositive_q_refused(self, capsys, q):
        code, out, err = run(capsys, "character", "x1*x2*x3", *q, "(1 2 3)")
        assert code == 2
        assert out == ""
        assert err.strip().splitlines() == [f"q must be a positive integer, got {q[-1]}"]


class TestSymmetrize:
    def test_power_sum(self, capsys):
        code, out, _ = run(capsys, "symmetrize", "x1^2 + x2^2")
        assert code == 0
        assert out.strip() == "s1^2 - 2*s2"

    def test_not_symmetric(self, capsys):
        code, _, err = run(capsys, "symmetrize", "x1^2 + x2")
        assert code == 1
        assert "not symmetric" in err

    def test_no_variables(self, capsys):
        code, _, err = run(capsys, "symmetrize", "3 + 4")
        assert code == 2
        assert "no x-variables" in err

    def test_degree_cap(self, capsys):
        code, _, err = run(
            capsys, "symmetrize", "x1^4*x2^4 + x1^4*x2^4", "--max-degree", "3"
        )
        assert code == 1
        assert "cap" in err

    @pytest.mark.parametrize("command", [
        ["symmetrize", "(x1+x2+x3+x4)^30"],
        ["symmetrize", "(x1+x2+x3+x4)^30 - (x1+x2+x3+x4)^30 + x1+x2+x3+x4"],
        ["character", "(x1+x2+x3+x4)^30", "2", "(1 2 3)"],
    ])
    def test_degree_cap_applies_before_expansion(self, capsys, command):
        start = time.perf_counter()
        code, out, err = run(capsys, *command)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "cap" in err

    def test_exponent_overflow_is_one_line(self, capsys):
        code, out, err = run(
            capsys, "symmetrize", "x1^4294967296", "--max-degree", "9999999999"
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "x1" in err

    @pytest.mark.parametrize("expr", [
        "x1 + x2 + w(3)",
        "x1 + x2 + w(3) + w(5) - w(5)",
        "x1 + x2 + w(12)^4",
        "x1 + x2 + w(9)^3 + w(4)^2 + 1",
    ])
    def test_equal_inputs_print_alike_at_the_smallest_order(self, capsys, expr):
        code, out, _ = run(capsys, "symmetrize", expr)
        assert (code, out) == (0, "s1 + w(3)\n")


class TestBuiltin:
    def test_degree2_matches_fixture(self, capsys):
        code, out, _ = run(capsys, "builtin", "degree2")
        assert code == 0
        assert out == (FIXTURES / "degree2.poly").read_text()

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "builtin", "degree9")
        assert code == 2
        assert "degree9" in err


class TestAbelize:
    def test_degree2_tower(self, capsys, tmp_path):
        out_path = tmp_path / "out.poly"
        code, _, _ = run(
            capsys, "abelize", FIXTURES / "degree2.tower", "--output", out_path
        )
        assert code == 0
        text = out_path.read_text()
        assert "witness 1 = 1/2*x1 - 1/2*x2" in text
        assert "# level 1: extracted root times w(2)^0" in text
        code, out, _ = run(capsys, "verify", out_path)
        assert code == 0
        assert "FAIL" not in out

    def test_degree3_tower(self, capsys, tmp_path):
        out_path = tmp_path / "out.poly"
        code, _, _ = run(
            capsys, "abelize", FIXTURES / "degree3.tower", "--output", out_path
        )
        assert code == 0
        text = out_path.read_text()
        document = parse(text)
        assert (document.n, document.s) == (3, 3)
        # the witnesses lie in Q(w_3) and print there, not in Q(w_12)
        assert "w(12)" not in text and "witness 2 = x1 + w(3)*x2 + (-1 - w(3))*x3" in text
        code, _, _ = run(capsys, "verify", out_path)
        assert code == 0

    def test_false_level1_attestation_is_refuted(self, capsys, tmp_path):
        code, out, err = run(capsys, "abelize", false_level1_tower(tmp_path))
        assert (code, out, err) == (1, "", REFUTED_LEVEL1)

    def test_poly_input_rejected(self, capsys):
        code, _, err = run(capsys, "abelize", FIXTURES / "degree2.poly")
        assert code == 2
        assert "towerformula" in err

    @pytest.mark.parametrize("name", ["degree2.tower", "degree3.tower"])
    def test_missing_attestation_is_one_line(self, capsys, tmp_path, name):
        text = (FIXTURES / name).read_text()
        unattested = "".join(
            line for line in text.splitlines(keepends=True)
            if not line.startswith("assert-nonpower")
        )
        assert unattested != text
        path = tmp_path / name
        path.write_text(unattested)
        code, out, err = run(capsys, "abelize", path)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "nonpower attestation" in err


class TestConfig:
    def test_defaults(self):
        args = build_parser().parse_args(["verify", "doc.tower"])
        assert args.max_degree == DEFAULT_MAX_DEGREE
        assert args.output is None
        assert args.input == "doc.tower" and args.run is cmd_verify

    def test_console_script_round_trip(self):
        result = subprocess.run(
            [sys.executable, "-m", "radform.cli", "verify",
             str(FIXTURES / "degree2.poly")],
            capture_output=True, text=True, env=child_env(),
        )
        assert result.returncode == 0
        assert "PASS" in result.stdout


def huge_order_document(tmp_path):
    """fixtures/degree5_candidate.poly with w(9999999999) added to p_0."""
    text = (FIXTURES / "degree5_candidate.poly").read_text()
    path = tmp_path / "huge_order.poly"
    path.write_text(text.replace("p 0 = s1^2", "p 0 = s1^2 + w(9999999999)"))
    return path


ONES = "1" * 4301


class TestBoundedInputs:
    """Inputs that once hung: each ends within seconds, with exit 0, 1 or 2
    and at most one line on stderr."""

    @pytest.mark.parametrize("argv, code, out", [
        (["symmetrize", "x1+x2+w(9999999999)"], 2, ""),
        (["character", "x1+x2+x3", "25", "(1 2 3)"], 0, "chi((1 2 3)) = 1\n"),
        (["character", "x1+x2+x3", "9999999999", "(1 2 3)"], 2, ""),
        (["character", "1", "9999999999", "(1 2 3)"], 2, ""),
        (["character", "1", "2", "(1 2 3000)"], 0, "chi((1 2 3000)) = 1\n"),
        (["character", "1", "2", "(1 2 30000)"], 0, "chi((1 2 30000)) = 1\n"),
        (["symmetrize", "x1+x2+w(7)*w(11)*w(13)"], 2, ""),
        (["symmetrize", "x1+x2+w(7)*w(11)"], 0, "s1 + w(77)^18\n"),
    ], ids=["huge-w", "q-past-max-degree", "huge-q", "huge-q-constant", "long-cycle",
            "longer-cycle", "order-lcm-past-cap", "order-lcm-under-cap"])
    def test_inline_inputs(self, argv, code, out):
        status, stdout, err = run_bounded(*argv)
        assert (status, stdout) == (code, out)
        assert err.count("\n") == (code != 0) and "Traceback" not in err
        assert code == 0 or "cap" in err

    @pytest.mark.parametrize("command", ["verify", "obstruct"])
    @pytest.mark.parametrize("p0, witness, code, where", [
        ("s1^2 + w(7)*w(11)*w(13)", "x5", 2, " (line 3, column 24)"),
        ("s1^2 + w(7)*w(11)", "x5 + w(13)", 1, ""),
    ], ids=["one-line", "across-lines"])
    def test_order_lcm_past_the_cap_in_a_document(self, command, p0, witness, code, where,
                                                  tmp_path):
        # within a line the parser refuses the operator; across lines the
        # identity check refuses the arithmetic, as an exponent overflow
        text = (FIXTURES / "degree5_candidate.poly").read_text()
        path = tmp_path / "order_lcm.poly"
        path.write_text(text.replace("s1^2", p0).replace("x5", witness))
        status, out, err = run_bounded(command, path)
        assert (status, out) == (code, "")
        assert err == f"root-of-unity order 1001 exceeds the cap 100{where}\n"

    @pytest.mark.parametrize("argv, where", [
        (["symmetrize", "x1+x2+" + ONES], " (line 1, column 7)"),
        (["symmetrize", f"x{ONES} + x1"], " (line 1, column 2)"),
        (["symmetrize", f"x1^{ONES} + x2"], " (line 1, column 4)"),
        (["symmetrize", f"x1*w({ONES}) + x2"], " (line 1, column 6)"),
        (["character", "x1", "2", f"(1 2 {ONES})"], ""),
        (["verify", ("n=2", f"n={ONES}")], " (line 1, column 15)"),
        (["verify", ("k 2", f"k {ONES}")], " (line 2, column 3)"),
        (["verify", ("4*s2", f"{ONES}*s2")], " (line 3, column 14)"),
    ], ids=["literal", "name-index", "exponent", "root-order", "cycle-entry",
            "header-n", "k-value", "p-literal"])
    def test_oversized_integer(self, argv, where, tmp_path):
        # one digit past Python's default int string-conversion limit
        if isinstance(argv[-1], tuple):
            path = tmp_path / "oversized.poly"
            path.write_text((FIXTURES / "degree2.poly").read_text().replace(*argv[-1]))
            argv = [argv[0], path]
        status, out, err = run_bounded(*argv)
        assert (status, out) == (2, "")
        assert err == f"integer of 4301 digits exceeds the limit of 4300 digits{where}\n"

    @pytest.mark.parametrize("kind", ["scheme", "polyformula", "towerformula"])
    def test_missing_k_line_under_a_huge_s(self, kind, tmp_path):
        # only the k line's length bounds s, so its absence is reported
        # before any work that grows with s
        path = tmp_path / "huge_s.doc"
        path.write_text(f"{kind} n=2 s={10**12}\n")
        assert run_bounded("verify", path) == (2, "", "missing k line\n")

    def test_missing_k_line_after_a_high_p_line(self, tmp_path):
        # the radicals z1..z99999999 that the p line may name are resolved
        # by rule, never listed
        path = tmp_path / "high_p.doc"
        path.write_text("scheme n=2 s=100000000\np 99999999 = 1\n")
        assert run_bounded("verify", path, seconds=1) == (2, "", "missing k line\n")

    def test_unknown_name_on_a_high_p_line(self, tmp_path):
        # the message gives the ranges of the names, never a list of them
        path = tmp_path / "high_p_unknown.doc"
        path.write_text("scheme n=2 s=100000000\np 99999999 = q\n")
        assert run_bounded("verify", path, seconds=1) == (
            2, "", "unknown variable 'q' in p 99999999 (expected a0..a1 or z1..z99999999)"
            " (line 2, column 14)\n")

    @pytest.mark.parametrize("command", ["verify", "abelize"])
    def test_square_root_past_the_order_cap(self, command, tmp_path):
        # trial division for the Gauss sums stops at the order cap, so a
        # 31-digit prime is refused without being factored
        prime = 10 ** 30 + 57
        path = tmp_path / "big_prime.tower"
        path.write_text(f"towerformula n=2 s=1\nk 2\np 0 = {prime}*s1^2\ntarget = s1\n")
        prefix = "witness derivation failed: " if command == "verify" else ""
        assert run_bounded(command, path, seconds=1) == (
            1, "", f"{prefix}root-of-unity order {prime} exceeds the cap 100\n")

    def test_coefficient_past_the_digit_limit(self):
        assert run_bounded("symmetrize", "x1+x2+10^5000") == (
            1, "", "coefficient of 5001 digits is too long to print\n")

    @pytest.mark.parametrize("command", ["verify", "obstruct"])
    def test_huge_order_in_a_document(self, command, tmp_path):
        code, out, err = run_bounded(command, huge_order_document(tmp_path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "line 3, column 16" in err
        assert "cap" in err and "Traceback" not in err
