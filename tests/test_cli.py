"""Command-line interface: requests, output formats, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from powerstruct import LimitError, parsing
from powerstruct.cli import _COMMANDS, CommandRequest, main, run_command


def run(command, params=None, order=10, fmt="text"):
    return run_command(CommandRequest(command, params or {}, order, fmt))


class TestCoreCommands:
    def test_pow_example(self):
        code, text = run("pow", {"base": "1+t", "exponent": "1+L"}, order=6)
        assert code == 0
        assert "(L^4 - L^2)*t^4" in text

    def test_pow_algorithms_match(self):
        base = {"base": "1+t", "exponent": "1+L"}
        _, fact = run("pow", dict(base, algorithm="factorize"), order=6)
        _, prod = run("pow", dict(base, algorithm="product"), order=6)
        assert fact == prod

    def test_irr_euler(self):
        code, text = run("irr", {"vars": 2, "degree": 1, "target": "euler"})
        assert code == 0 and text == "2"

    def test_lambda(self):
        code, text = run("lambda", {"element": "L"}, order=3)
        assert code == 0
        assert text == "1 + L*t + L^2*t^2 + L^3*t^3 + O(t^4)"

    def test_adams_leading_constant_term_is_bare(self):
        assert run("adams", {"element": "L + p[1]", "k": 2}, order=3) == (0, "L^2 + p[2]")

    def test_factorize(self):
        code, text = run("factorize", {"series": "1+t"}, order=4)
        assert code == 0
        assert text.splitlines() == ["b_1 = 1", "b_2 = -1", "b_3 = 0", "b_4 = 0"]

    def test_adams(self):
        code, text = run("adams", {"element": "L^3+1", "k": 2})
        assert code == 0 and text == "L^6 + 1"

    def test_plethysm(self):
        code, text = run("plethysm", {"f": "h[2]", "x": "L"})
        assert code == 0 and text == "L^2"

    def test_schur(self):
        code, text = run("schur", {"f": "p[1,1]"})
        assert code == 0 and text == "s[1,1] + s[2]"

    @pytest.mark.parametrize("f, order", [("p[1]^11", 10), ("p[1]^3", 2), ("p[1]^3+L*p[2,1]", 2)])
    def test_schur_weight_above_order(self, f, order):
        """The expansion does not depend on the generator bound of the input."""
        code, text = run("schur", {"f": f}, order=order)
        assert code == 0
        assert text == run("schur", {"f": f}, order=12)[1]

    def test_schur_weight_above_order_value(self):
        assert run("schur", {"f": "p[1]^3"}, order=2) == (0, "s[1,1,1] + 2*s[2,1] + s[3]")

    def test_specialize(self):
        code, text = run("specialize", {"f": "1/2*p[1,1]+1/2*p[2]", "mode": "ordered"})
        assert code == 0 and text == "1"

    def test_hyperelliptic(self):
        code, text = run("hyperelliptic", {"genus": 3})
        assert code == 0 and text == "L^5"

    def test_harer_zagier(self):
        code, text = run("harer-zagier", {"genus": 2, "points": 0})
        assert code == 0 and text == "-1/240"

    def test_moduli_g2(self):
        code, text = run("moduli-g2", order=2)
        assert code == 0
        assert text == "1 + 2*p[1]*t + p[1,1]*t^2 + O(t^3)"

    def test_config_with_specialization(self):
        code, text = run("config", {"x_class": "2", "specialize": "ordered"}, order=3)
        assert code == 0
        assert text == "1 + 2*t + 2*t^2 + O(t^4)"

    def test_quotient_inline_json(self):
        action = json.dumps(
            {
                "group_order": 2,
                "classes": [
                    {"size": 1, "identity": True, "orbit_euler": {"1": 2}},
                    {"size": 1, "orbit_euler": {"1": 2, "2": 0}},
                ],
            }
        )
        code, text = run("quotient", {"action": action}, order=3)
        assert code == 0
        assert text == "1 + 2*p[1]*t + p[1,1]*t^2 + O(t^4)"

    def test_quotient_egf_from_file(self, tmp_path):
        path = tmp_path / "action.json"
        path.write_text(
            json.dumps(
                {
                    "group_order": 1,
                    "classes": [{"size": 1, "identity": True, "orbit_euler": {"1": 2}}],
                }
            )
        )
        code, text = run("quotient", {"action": str(path), "egf": True}, order=3)
        assert code == 0
        assert text == "1 + 2*t + t^2 + O(t^4)"


def action_json(*classes):
    return json.dumps({"group_order": 1, "classes": list(classes)})


class TestExitCodes:
    def test_verify_pass_is_zero(self):
        code, _ = run("verify", {"identity": "exp_moebius"}, order=12)
        assert code == 0

    def test_verify_failure_is_three(self):
        code, text = run("verify", {"identity": "gcd_product"}, order=6)
        assert code == 3
        assert "x^2*y" in text

    def test_unknown_command_is_two(self):
        code, _ = run("frobnicate")
        assert code == 2

    def test_unknown_param_is_two(self):
        code, _ = run("pow", {"base": "1+t", "exponent": "1", "bogus": 1})
        assert code == 2

    def test_missing_param_is_two(self):
        code, _ = run("pow", {"base": "1+t"})
        assert code == 2

    def test_domain_error_is_one_via_main(self, capsys):
        assert main(["irr", "--vars", "0", "--degree", "1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_is_one_via_main(self, capsys):
        assert main(["pow", "--base", "1+{t", "--exponent", "1"]) == 1

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["factorize", "--series", "0/p[1]", "--order", "4"], "p[1]"),
            (["adams", "--element", "p[1]/e[2]", "--k", "2"], "p[2]"),
            (["quotient", "--action", "{}"], "'classes'"),
            (
                ["quotient", "--action", action_json({"size": 1})],
                "class 0 has no 'orbit_euler'",
            ),
            (
                ["quotient", "--action", action_json({"size": 1.5, "orbit_euler": {"1": 0}})],
                "class 0 field 'size'",
            ),
        ],
    )
    def test_domain_errors_are_one_line(self, capsys, argv, names):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert names in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["adams", "--element", "1/0", "--k", "2"],
            ["pow", "--base", "1/0", "--exponent", "2"],
            ["pow", "--base", "1+t", "--exponent", "1/0"],
            ["schur", "--f", "1/0"],
            ["lambda", "--element", "1/(2-2)"],
        ],
    )
    def test_rational_division_by_zero_is_one_line(self, capsys, argv):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: division by zero at position 1\n"

    @pytest.mark.parametrize("key", ["1_0", " 1", "1 ", "x", "0", "01", "+1", "-1", "1.0", "", "\u0661"])
    def test_orbit_length_keys_are_decimal(self, capsys, key):
        action = action_json({"size": 1, "identity": True, "orbit_euler": {key: 0}})
        assert main(["quotient", "--action", action]) == 1
        err = capsys.readouterr().err
        assert err == f"error: class 0 orbit_euler key {key!r} must be a positive integer in decimal\n"

    @pytest.mark.parametrize("identity", ["false", "no", [0], 1, None])
    def test_non_bool_identity_is_one_line(self, capsys, identity):
        action = action_json({"size": 1, "identity": identity, "orbit_euler": {"1": 2}})
        assert main(["quotient", "--action", action, "--order", "3"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: class 0 field 'identity' must be a boolean, got {identity!r}\n"

    def test_identity_true_false_or_absent(self):
        def quotient(second):
            action = {
                "group_order": 2,
                "classes": [{"size": 1, "identity": True, "orbit_euler": {"1": 2}}, second],
            }
            return run("quotient", {"action": json.dumps(action)}, order=3)

        absent = quotient({"size": 1, "orbit_euler": {"1": 2, "2": 0}})
        assert absent[0] == 0
        assert quotient({"size": 1, "identity": False, "orbit_euler": {"1": 2, "2": 0}}) == absent

    def test_usage_error_is_two_via_main(self):
        with pytest.raises(SystemExit) as exc:
            main(["pow", "--no-such-flag"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, option",
        [
            (command, option)
            for command, spec in _COMMANDS.items()
            for option in ["order", "output_format", *(["input"] if spec.takes_input else []),
                           *(n for n, o in spec.options.items() if o.get("action") != "store_true")]
        ],
    )
    def test_value_option_given_only_dashes(self, capsys, command, option):
        """``--f=--`` leaves argparse an empty list; it is refused as
        argparse refuses ``--f --``."""
        argv = [command]
        for name, spec in _COMMANDS[command].options.items():
            if spec.get("required") and name != option:
                value = spec["choices"][0] if "choices" in spec else "1"
                argv.append(f"--{name.replace('_', '-')}={value}")
        flag = "--" + option.replace("_", "-")
        assert main([*argv, f"{flag}=--"]) == 2
        assert capsys.readouterr().err == f"argument {flag}: expected one argument\n"

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["pow", "--base", "2+t", "--exponent", "1"], "error: power needs constant term 1, got 2\n"),
            (["factorize", "--series", "t"], "error: factorize needs constant term 1, got 0\n"),
            (["schur", "--f", "L + p[1]"], "error: L + p[1] is not homogeneous: weights [0, 1]\n"),
            (
                ["specialize", "--f", "L + p[1]", "--mode", "ordered"],
                "error: L + p[1] is not homogeneous: weights [0, 1]\n",
            ),
        ],
    )
    def test_domain_error_text(self, capsys, argv, err):
        assert main(argv) == 1
        assert capsys.readouterr().err == err


def main_streams(argv):
    """(exit code, stdout, stderr) of main, also when argparse exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestErrorOrder:
    """Of two malformed values, the error of the first option wins.  ``pow``
    reads both of its texts into trees before it builds either value, so a
    syntax error of the exponent comes before an error the base meets only
    when it is built; ``plethysm`` builds f before it reads x."""

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["pow", "--base", "1+{t", "--exponent", "1+"], 1,
             "error: unexpected character '{' at position 2"),
            (["pow", "--base", "2/(1-1)", "--exponent", "1 + 1/0"], 1,
             "error: division by zero at position 1"),
            (["pow", "--base", "1+t+h[41]", "--exponent", "(1+L)^1001"], 2,
             "weight 41 of h[...] at position 4 exceeds the limit 40"),
            (["pow", "--base", "1/0", "--exponent", "1+"], 1,
             "error: unexpected end of expression"),
            (["plethysm", "--f", "p[1", "--x", "L)"], 1, "error: unexpected end of expression"),
            (["plethysm", "--f", "1/(1-1)", "--x", "{"], 1,
             "error: division by zero at position 1"),
            (["plethysm", "--f", "h[41]", "--x", "L^1001", "--order", "41"], 2,
             "weight 41 of h[...] at position 0 exceeds the limit 40"),
            (["plethysm", "--f", "p[1]", "--x", "L^1001 + p[9]", "--order", "3"], 2,
             "exponent 1001 at position 2 exceeds the limit 1000"),
        ],
    )
    def test_first_error_wins(self, argv, code, err):
        assert main_streams(argv) == (code, "", err + "\n")


class TestNesting:
    """A value nested deeper than the recursion of the parser, the size
    pass or the evaluation allows is refused with one line."""

    FORMS = ["(", "2*(", "1-(", "-("]

    @pytest.mark.parametrize("depth", [220, 1000, 10000])
    @pytest.mark.parametrize("opening", FORMS)
    @pytest.mark.parametrize(
        "argv",
        [["adams", "--k", "1", "--element"], ["pow", "--base", "1+t", "--exponent"],
         ["pow", "--exponent", "1", "--base"], ["schur", "--order", "1", "--f"]],
    )
    def test_too_deep_is_one_line(self, argv, opening, depth):
        value = opening * depth + "1" + ")" * depth
        assert main_streams([*argv, value]) == (1, "", "error: expression nested too deeply\n")

    @pytest.mark.parametrize(
        "opening, value", [("(", "1"), ("2*(", str(2**150)), ("1-(", "1"), ("-(", "1")]
    )
    def test_150_levels_read(self, opening, value):
        text = opening * 150 + "1" + ")" * 150
        assert main_streams(["adams", "--element", text, "--k", "1"]) == (0, value + "\n", "")

    def test_long_runs_read(self):
        """600 signs in a row, one recursion step each, and parentheses
        round an exponent, which the parser counts in a loop, read."""
        assert main_streams(["adams", "--element=" + "-" * 600 + "L", "--k", "1"]) == (0, "L\n", "")
        exponent = "(" * 5000 + "-2" + ")" * 5000
        argv = ["adams", "--element", "L^" + exponent, "--k", "1"]
        assert main_streams(argv) == (0, "L^-2\n", "")


class TestDashValues:
    """A separate word that starts with ``-`` and is no option is the value
    of the value option before it, as in the ``--option=value`` form."""

    @pytest.mark.parametrize(
        "argv, option, value",
        [
            (["pow", "--base", "1+t", "--order", "4"], "--exponent", "-3/4"),
            (["pow", "--base", "1+L*t", "--order", "4"], "--exponent", "-L"),
            (["pow", "--base", "1+u*t", "--order", "3"], "--exponent", "-u*v"),
            (["pow", "--exponent", "2", "--order", "3"], "--base", "-(1+t)^-1*(-1)"),
            (["lambda", "--order", "3"], "--element", "-L^2"),
            (["adams", "--k", "2"], "--element", "-L^-1"),
            (["plethysm", "--f", "h[2]"], "--x", "-L"),
            (["lambda", "--element", "L"], "--order", "-1"),
        ],
    )
    def test_separate_word_equals_joined_form(self, argv, option, value):
        joined = main_streams([*argv, f"{option}={value}"])
        assert main_streams([*argv, option, value]) == joined
        assert main_streams([argv[0], option, value, *argv[1:]]) == joined

    def test_negative_exponent_value(self):
        code, out, err = main_streams(["pow", "--base", "1+t", "--exponent", "-3/4", "--order", "2"])
        assert (code, out, err) == (0, "1 - 3/4*t + 21/32*t^2 + O(t^3)\n", "")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["schur", "--f", "--"], "--f"),
            (["pow", "--base", "1+t", "--exponent", "-h"], "--exponent"),
            (["pow", "--base", "1+t", "--exponent", "--order", "2"], "--exponent"),
            (["pow", "--base", "1+t", "--exponent", "--bogus"], "--exponent"),
        ],
    )
    def test_options_are_not_values(self, argv, flag):
        code, out, err = main_streams(argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(f"error: argument {flag}: expected one argument")

    def test_only_dashes_joined_form(self):
        assert main_streams(["schur", "--f=--"]) == (2, "", "argument --f: expected one argument\n")


class TestCaps:
    """Sizes over a documented cap exit 2 with one line before any work;
    only the refusal is run here, never the huge computation."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        from powerstruct import cli

        def refuse(*args):
            raise AssertionError("work started past a cap")

        for name in ("power_op", "lambda_t", "adams", "factorize_op"):
            monkeypatch.setattr(cli, name, refuse)
        for name in ("irreducible_class", "irreducible_specialize", "hyperelliptic_class", "harer_zagier"):
            monkeypatch.setattr(cli.applications, name, refuse)
        monkeypatch.setattr(cli.reproduce, "run_all", refuse)
        monkeypatch.setattr(cli.parsing, "basis_in_p", refuse)
        monkeypatch.setattr(cli, "p_to_schur", refuse)

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["lambda", "--element", "L", "--order", "257"], "order must be <= 256, got 257"),
            (["pow", "--base", "1+t", "--exponent", "L", "--order", "100000000000000000000"],
             "order must be <= 256, got 100000000000000000000"),
            (["adams", "--element", "L", "--k", "99999999999999999999"],
             "argument --k: must be <= 1000, got 99999999999999999999"),
            (["adams", "--element", "L", "--k", "1001"], "argument --k: must be <= 1000, got 1001"),
            (["lambda", "--element", "(1+L)^1001"], "exponent 1001 at position 6 exceeds the limit 1000"),
            (["pow", "--base", "1+t", "--exponent", "L^(-100000)"],
             "exponent 100000 at position 4 exceeds the limit 1000"),
            (["pow", "--base", "(1 + t)^99999999", "--exponent", "2", "--order", "3"],
             "exponent 99999999 at position 8 exceeds the limit 1000"),
            (["irr", "--vars", "7", "--degree", "1"], "argument --vars: must be <= 6, got 7"),
            (["irr", "--vars", "2", "--degree", "100000", "--target", "euler"],
             "argument --degree: must be <= 16, got 100000"),
            (["hyperelliptic", "--genus", "128"], "argument --genus: must be <= 127, got 128"),
            (["harer-zagier", "--genus", "10000", "--points", "0"], "argument --genus: must be <= 127, got 10000"),
            (["harer-zagier", "--genus", "2", "--points", "1001"], "argument --points: must be <= 1000, got 1001"),
            (["reproduce", "--axiom-cases", "1001"], "argument --axiom-cases: must be <= 1000, got 1001"),
            (["reproduce", "--axiom-cases", "-1"], "argument --axiom-cases: must be >= 1, got -1"),
            (["reproduce", "--axiom-cases=0"], "argument --axiom-cases: must be >= 1, got 0"),
            (["schur", "--f", "h[41]", "--order", "41"], "weight 41 of h[...] at position 0 exceeds the limit 40"),
            (["lambda", "--element", "L + e[99999999999999999999]"],
             "weight 99999999999999999999 of e[...] at position 4 exceeds the limit 40"),
            (["schur", "--f", "2*s[11,10,10,10]", "--order", "64"], "weight 41 of s[...] at position 2 exceeds the limit 40"),
            (["plethysm", "--f", "s[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]",
              "--x", "L", "--order", "50"], "weight 41 of s[...] at position 0 exceeds the limit 40"),
        ],
    )
    def test_over_cap_is_two_and_one_line(self, argv, err):
        assert main_streams(argv) == (2, "", err + "\n")

    @pytest.fixture
    def p_atoms(self, monkeypatch):
        """Power-sum atoms parse; the Schur expansion stays refused."""
        from powerstruct import cli, symfunc

        monkeypatch.setattr(cli.parsing, "basis_in_p", symfunc.basis_in_p)

    @pytest.mark.parametrize(
        "f, order, weight",
        [("p[19]", 19, 19), ("p[41]", 41, 41), ("p[1]^20 - 3*p[2]^10", 20, 20), ("p[1] + p[19]", 19, 19)],
    )
    def test_schur_weight_over_cap(self, p_atoms, f, order, weight):
        assert main_streams(["schur", "--f", f, "--order", str(order)]) == (
            2, "", f"weight {weight} of the schur input exceeds the limit 18\n")

    def test_schur_weight_over_cap_by_request_and_file(self, p_atoms, tmp_path):
        with pytest.raises(LimitError, match="^weight 19 of the schur input exceeds the limit 18$"):
            run("schur", {"f": "p[1]*p[18]"}, order=19)
        one = {"vars": [], "terms": [{"e": [], "c": "1"}]}
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"bound": 19, "vars": [], "terms": [{"p": [10, 9], "c": one}]}))
        assert main_streams(["schur", "--f", f"@{path}", "--order", "19"]) == (
            2, "", "weight 19 of the schur input exceeds the limit 18\n")

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["adams", "--element", "(L^1000)^1000", "--k", "1"], "power of degree 1000000 at position 8 exceeds the limit 1000"),
            (["lambda", "--element", "(1 + L^2)^501"], "power of degree 1002 at position 9 exceeds the limit 1000"),
            (["pow", "--base", "1 + ((L^1000)^1000 + 1)*t", "--exponent", "L", "--order", "3"],
             "power of degree 1000000 at position 13 exceeds the limit 1000"),
            (["pow", "--base", "(1 + L^-2*t)^501", "--exponent", "1", "--order", "3"],
             "power of degree 1002 at position 12 exceeds the limit 1000"),
            (["plethysm", "--f", "(L^3*p[1])^334", "--x", "L", "--order", "3"],
             "power of degree 1002 at position 10 exceeds the limit 1000"),
        ],
    )
    def test_nested_power_over_degree_cap(self, p_atoms, monkeypatch, argv, err):
        """A ``^`` whose result would hold an exponent past the cap is
        refused before the power is computed; only the powers of one
        variable inside the operand run."""
        from powerstruct import LaurentPoly, SymFunc, TruncSeries

        plain = LaurentPoly.__pow__

        def of_a_variable_only(self, n):
            if len(self.terms) != 1 or any(abs(e) > 1 for exps in self.terms for e in exps):
                raise AssertionError("work started past a cap")
            return plain(self, n)

        def refuse(self, n):
            raise AssertionError("work started past a cap")

        monkeypatch.setattr(LaurentPoly, "__pow__", of_a_variable_only)
        monkeypatch.setattr(SymFunc, "__pow__", refuse)
        monkeypatch.setattr(TruncSeries, "__pow__", refuse)
        assert main_streams(argv) == (2, "", err + "\n")

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["adams", "--element", "(p[1]+p[2]+p[3])^160", "--k", "1", "--order", "3"],
             "power of weight 480 at position 16 exceeds the limit 30"),
            (["adams", "--element", "(p[1]+p[2]+p[3])^11", "--k", "1", "--order", "3"],
             "power of weight 33 at position 16 exceeds the limit 30"),
            (["lambda", "--element", "h[16]*(h[0]+h[1]+h[2]+h[3]+h[4]+h[5]+h[6]+h[7]+h[8]+h[9]+h[10]+h[11]+h[12]+h[13]+h[14]+h[15])",
              "--order", "16"], "product of weight 31 at position 5 exceeds the limit 30"),
            (["schur", "--f", "h[20]*e[11]", "--order", "31"], "product of weight 31 at position 5 exceeds the limit 30"),
            (["pow", "--base", "(1+(p[1]+p[2]+p[3])*t)^11", "--exponent", "1", "--order", "11"],
             "power of weight 33 at position 22 exceeds the limit 30"),
            (["pow", "--base", "(1 + h[20]*t)*(1 + h[11]*t)", "--exponent", "1", "--order", "20"],
             "product of weight 31 at position 13 exceeds the limit 30"),
        ],
    )
    def test_product_and_power_over_weight_cap(self, p_atoms, monkeypatch, argv, err):
        """A ``*`` of two symmetric functions or a ``^`` that would build a
        term past the weight cap is refused before any symmetric-function
        product or power is computed."""
        from powerstruct import SymFunc, TruncSeries

        plain = SymFunc.__mul__

        def by_a_scalar_only(self, other):
            if isinstance(other, SymFunc):
                raise AssertionError("work started past a cap")
            return plain(self, other)

        def refuse(self, n):
            raise AssertionError("work started past a cap")

        monkeypatch.setattr(SymFunc, "__mul__", by_a_scalar_only)
        monkeypatch.setattr(SymFunc, "__rmul__", by_a_scalar_only)
        monkeypatch.setattr(SymFunc, "__pow__", refuse)
        monkeypatch.setattr(TruncSeries, "__pow__", refuse)
        assert main_streams(argv) == (2, "", err + "\n")

    @pytest.mark.parametrize(
        "base, order, work, position",
        [
            ("(1+(h[0]+h[1]+h[2]+h[3]+h[4]+h[5])*t)^1000", 6, 12294064, 37),
            ("(1+(h[0]+h[1]+h[2]+h[3]+h[4]+h[5])*t)^1000", 5, 2171259, 37),
            ("(1 + (L + 1)*t)^1000", 66, 1016474, 15),
            ("(1 + (L + 1)*t)^-1000", 128, 10277600, 15),
            ("(1 + (u + v + w)*t)^1000", 32, 32447045, 19),
        ],
    )
    def test_series_power_over_work_cap(self, p_atoms, monkeypatch, base, order, work, position):
        """A series ``^`` whose estimated work exceeds the cap is refused
        before any series product."""
        from powerstruct import TruncSeries

        def refuse(*args):
            raise AssertionError("work started past a cap")

        monkeypatch.setattr(TruncSeries, "__pow__", refuse)
        monkeypatch.setattr(TruncSeries, "__mul__", refuse)
        argv = ["pow", "--base", base, "--exponent", "1", "--order", str(order)]
        assert main_streams(argv) == (
            2, "", f"series power of work {work} at position {position} exceeds the limit 1000000\n")

    @pytest.mark.parametrize(
        "base, order, work, position",
        [
            ("1/(1-(h[0]+h[1]+h[2]+h[3]+h[4]+h[5])*t)", 8, 1381710, 1),
            ("1/(1-(p[1]+p[2]+p[3])*t)", 128, 1805570, 1),
            ("(1 + L*t)/(1 - (p[1]+p[2]+p[3]+p[4])*t)", 48, 1541050, 9),
        ],
    )
    def test_series_division_over_work_cap(self, p_atoms, monkeypatch, base, order, work, position):
        """A ``/`` by a series whose estimated work exceeds the cap is
        refused before the division starts."""
        from powerstruct import TruncSeries

        def refuse(*args):
            raise AssertionError("work started past a cap")

        monkeypatch.setattr(TruncSeries, "__truediv__", refuse)
        monkeypatch.setattr(TruncSeries, "__rtruediv__", refuse)
        argv = ["pow", "--base", base, "--exponent", "1", "--order", str(order)]
        assert main_streams(argv) == (
            2, "", f"series division of work {work} at position {position} exceeds the limit 1000000\n")

    @pytest.mark.parametrize(
        "argv, err",
        [
            # The over-cap examples of the README cap table.
            (["lambda", "--element", "L", "--order", "300"], "order must be <= 256, got 300"),
            (["adams", "--element", "L", "--k", "5000"], "argument --k: must be <= 1000, got 5000"),
            (["lambda", "--element", "(1+L)^5000"], "exponent 5000 at position 6 exceeds the limit 1000"),
            (["adams", "--element", "(L^1000)^1000", "--k", "1"], "power of degree 1000000 at position 8 exceeds the limit 1000"),
            (["schur", "--f", "h[41]", "--order", "41"], "weight 41 of h[...] at position 0 exceeds the limit 40"),
            (["adams", "--element", "(p[1]+p[2]+p[3])^11", "--k", "1", "--order", "3"],
             "power of weight 33 at position 16 exceeds the limit 30"),
            (["schur", "--f", "h[20]*h[11]", "--order", "31"], "product of weight 31 at position 5 exceeds the limit 30"),
            (["pow", "--base", "(1+(h[0]+h[1]+h[2]+h[3]+h[4]+h[5])*t)^1000", "--exponent", "1", "--order", "5"],
             "series power of work 2171259 at position 37 exceeds the limit 1000000"),
            (["pow", "--base", "1/(1-(p[1]+p[2]+p[3])*t)", "--exponent", "1", "--order", "128"],
             "series division of work 1805570 at position 1 exceeds the limit 1000000"),
            (["schur", "--f", "p[19]", "--order", "19"], "weight 19 of the schur input exceeds the limit 18"),
            (["irr", "--vars", "7", "--degree", "1"], "argument --vars: must be <= 6, got 7"),
            (["irr", "--vars", "2", "--degree", "17"], "argument --degree: must be <= 16, got 17"),
            (["hyperelliptic", "--genus", "128"], "argument --genus: must be <= 127, got 128"),
            (["harer-zagier", "--genus", "2", "--points", "1001"], "argument --points: must be <= 1000, got 1001"),
            (["reproduce", "--axiom-cases", "1001"], "argument --axiom-cases: must be <= 1000, got 1001"),
            # Products and powers of the heaviest atoms, and their series.
            (["schur", "--f", "s[7,7,7,7,6,6]*p[1]^5", "--order", "45"],
             "product of weight 45 at position 14 exceeds the limit 30"),
            (["schur", "--f", "h[40]*h[40]", "--order", "40"], "product of weight 80 at position 5 exceeds the limit 30"),
            (["schur", "--f", "(h[40]+p[1])^2", "--order", "40"], "power of weight 80 at position 12 exceeds the limit 30"),
            (["adams", "--element", "(L^1000+h[40])^2", "--k", "1", "--order", "40"],
             "power of degree 2000 at position 14 exceeds the limit 1000"),
            (["pow", "--base", "(1+h[40]*t)^1000", "--exponent", "1", "--order", "2"],
             "power of weight 80 at position 11 exceeds the limit 30"),
            (["schur", "--f", "s[7,7,7,7,6,6]", "--order", "40"], "weight 40 of the schur input exceeds the limit 18"),
            # The digits of an exponent as written.
            (["lambda", "--element", "(1+L)^05000"], "exponent 05000 at position 6 exceeds the limit 1000"),
            # An exact quotient by two terms holds 1000 terms: sized by the
            # dividend's exponent box, not by the product of the counts.
            (["pow", "--base", "1/(1-(u^1000-v^1000)/(u-v)*t)", "--exponent", "1", "--order", "40"],
             "series division of work 20623890411817773 at position 1 exceeds the limit 1000000"),
        ],
    )
    def test_refused_before_any_value_is_built(self, monkeypatch, argv, err):
        """Every cap is decided on sizes: no atom is expanded and no
        polynomial, symmetric-function or series product, quotient or power
        starts."""
        from powerstruct import LaurentPoly, SymFunc, TruncSeries, parsing

        def refuse(*args):
            raise AssertionError("a value was built past a cap")

        monkeypatch.setattr(parsing, "basis_in_p", refuse)
        for cls, names in ((LaurentPoly, ("__mul__", "__rmul__", "__truediv__", "__rtruediv__")),
                           (SymFunc, ("__mul__", "__rmul__")),
                           (TruncSeries, ("__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__"))):
            for name in names:
                monkeypatch.setattr(cls, name, refuse)
        assert main_streams(argv) == (2, "", err + "\n")

    def test_division_refused_before_its_divisor_is_built(self, monkeypatch):
        """1/(1-h[40]*t) at order 256 is refused on the estimate of its
        divisor's sizes, before h[40] is expanded."""
        from powerstruct import TruncSeries, parsing

        def refuse(*args):
            raise AssertionError("a value was built past a cap")

        monkeypatch.setattr(parsing, "basis_in_p", refuse)
        monkeypatch.setattr(TruncSeries, "__truediv__", refuse)
        monkeypatch.setattr(TruncSeries, "__rtruediv__", refuse)
        code, out, err = main_streams(["pow", "--base", "1/(1-h[40]*t)", "--exponent", "1", "--order", "256"])
        assert (code, out) == (2, "")
        assert err.startswith("series division of work ") and err.endswith(" at position 1 exceeds the limit 1000000\n")

    def test_over_cap_by_request_and_input(self, tmp_path, monkeypatch):
        assert run("adams", {"element": "L", "k": 1001}) == (2, "argument --k: must be <= 1000, got 1001")
        assert run("lambda", {"element": "L"}, order=257) == (2, "order must be <= 256, got 257")
        assert run("irr", {"vars": 2, "degree": 17}) == (2, "argument --degree: must be <= 16, got 17")
        assert run("harer-zagier", {"genus": 128, "points": 0}) == (2, "argument --genus: must be <= 127, got 128")
        assert run("reproduce", {"axiom_cases": 10**20}) == (
            2, "argument --axiom-cases: must be <= 1000, got 100000000000000000000")
        assert run("reproduce", {"axiom_cases": -1}) == (2, "argument --axiom-cases: must be >= 1, got -1")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "params.json").write_text(json.dumps({"element": "(1+L)^1001"}))
        assert main_streams(["lambda", "--input", "params.json"]) == (
            2, "", "exponent 1001 at position 6 exceeds the limit 1000\n")

    @pytest.mark.parametrize(
        "argv, exponent",
        [(["pow", "--exponent", "1", "--order", "2", "--base"], 200000), (["adams", "--k", "2", "--element"], -1001)],
    )
    def test_json_exponent_over_cap(self, tmp_path, argv, exponent):
        """A polynomial read from JSON has the exponent cap of ``^``."""
        poly = {"vars": ["L"], "terms": [{"e": [exponent], "c": "1"}, {"e": [0], "c": "1"}]}
        data = {"order": 2, "coeffs": ["1", poly, "0"]} if argv[0] == "pow" else poly
        path = tmp_path / "value.json"
        path.write_text(json.dumps(data))
        assert main_streams([*argv, f"@{path}"]) == (
            2, "", f"exponent {exponent} of a polynomial term exceeds the limit 1000\n")


TRIVIAL_ACTION = {
    "group_order": 1,
    "classes": [{"size": 1, "identity": True, "orbit_euler": {"1": 0}}],
}
ONE_TERM = [{"p": [], "c": {"vars": [], "terms": [{"e": [], "c": "1"}]}}]


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write fails."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    """A reader that closes stdout early ends the run with exit code 1, no
    traceback and nothing more written."""

    @pytest.mark.parametrize(
        "argv",
        [["lambda", "--element", "L", "--order", "3"], ["reproduce", "--order", "2", "--axiom-cases", "1"]],
    )
    def test_write_raising_broken_pipe(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(ClosedPipe()), contextlib.redirect_stderr(err):
            assert main(argv) == 1
        assert err.getvalue() == ""

    def test_closed_pipe_on_the_command_line(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        with subprocess.Popen(
            [sys.executable, "-m", "powerstruct.cli", "lambda", "--element", "L", "--order", "3"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            proc.stdout.close()  # long before the interpreter has started
            stderr = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert stderr == b""


def symfunc_json(bound, terms=()):
    return {"bound": bound, "vars": [], "terms": list(terms)}


class TestJsonOutput:
    def test_poly_json(self):
        code, text = run("adams", {"element": "L^3+1", "k": 2}, fmt="json")
        assert code == 0
        assert json.loads(text) == {
            "vars": ["L"],
            "terms": [{"e": [6], "c": "1"}, {"e": [0], "c": "1"}],
        }

    def test_series_json(self):
        code, text = run("pow", {"base": "1+t", "exponent": "L"}, order=2, fmt="json")
        data = json.loads(text)
        assert data["order"] == 2
        assert data["coeffs"][0]["terms"] == [{"e": [0], "c": "1"}]

    def test_verify_json(self):
        code, text = run("verify", {"identity": "gcd_product"}, order=6, fmt="json")
        data = json.loads(text)
        assert data["holds"] is False
        assert data["first_discrepancy"]["term"] == "x^2*y"

    @pytest.mark.parametrize(
        "command, params, order, expected",
        [
            ("moduli-g2", {}, 0, [symfunc_json(1, ONE_TERM)]),
            (
                "quotient",
                {"action": json.dumps(TRIVIAL_ACTION)},
                2,
                [symfunc_json(2, ONE_TERM), symfunc_json(2), symfunc_json(2)],
            ),
            (
                "pow",
                {"base": "1+t", "exponent": "0*L"},
                2,
                [{"vars": ["L"], "terms": [{"e": [0], "c": "1"}]}] + [{"vars": ["L"], "terms": []}] * 2,
            ),
            (
                "lambda",
                {"element": "L"},
                1,
                [
                    {"vars": ["L"], "terms": [{"e": [0], "c": "1"}]},
                    {"vars": ["L"], "terms": [{"e": [1], "c": "1"}]},
                ],
            ),
        ],
        ids=["moduli-g2-order-0", "quotient-trivial", "pow-zero-exponent", "lambda"],
    )
    def test_series_json_ring(self, command, params, order, expected):
        """A printed series has the widest coefficient ring present."""
        code, text = run(command, params, order=order, fmt="json")
        assert code == 0
        assert json.loads(text) == {"order": order, "coeffs": expected}

    def test_factorize_json(self):
        code, text = run("factorize", {"series": "1+t"}, order=3, fmt="json")
        assert json.loads(text) == {"order": 3, "exponents": ["1", "-1", "0"]}


POLY_FORM = {"vars": ["L"], "terms": [{"e": [1], "c": "1/2"}, {"e": [0], "c": "1"}]}
# A well-formed JSON value of each kind, and a request that reads it from
# the @file given last.
JSON_FORMS = {
    "series": ({"order": 2, "coeffs": ["1", POLY_FORM, "0"]}, ["pow", "--exponent", "1", "--order", "2", "--base"]),
    "polynomial": (POLY_FORM, ["adams", "--k", "2", "--element"]),
    "symfunc": (
        {"bound": 2, "vars": ["L"], "terms": [{"p": [1], "c": POLY_FORM}, {"p": [], "c": POLY_FORM}]},
        ["adams", "--k", "2", "--order", "2", "--element"],
    ),
}
WRONG_JSON = [None, True, 2.5, 7, "x", [], {}]
DELETE = object()


def json_positions(value, path=()):
    """The path to every entry of every object and array inside value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield path + (key,)
        yield from json_positions(inner, path + (key,))


@st.composite
def malformed_json_values(draw):
    """(argv, JSON data): a well-formed value with one entry deleted or
    given another JSON type, or a series whose order does not match its
    coefficients."""
    kind = draw(st.sampled_from(sorted(JSON_FORMS)))
    form, argv = JSON_FORMS[kind]
    data = json.loads(json.dumps(form))
    *parents, key = draw(st.sampled_from(list(json_positions(data))))
    owner = data
    for step in parents:
        owner = owner[step]
    choices = [w for w in WRONG_JSON if type(w) is not type(owner[key])]
    if isinstance(owner, dict):
        choices.append(DELETE)
    if kind == "series" and key == "order" and not parents:
        choices += [-1, 1, 3]
    mutation = draw(st.sampled_from(choices))
    if mutation is DELETE:
        del owner[key]
    else:
        owner[key] = mutation
    return argv, data


class TestJsonValues:
    """A JSON value read through @file has the shape value_to_json writes,
    or the request exits 1 with one line naming the field."""

    def at_file(self, tmp_path, argv, data):
        path = tmp_path / "value.json"
        path.write_text(json.dumps(data))
        return main_streams([*argv, f"@{path}"])

    @pytest.mark.parametrize("kind", sorted(JSON_FORMS))
    def test_well_formed(self, tmp_path, kind):
        form, argv = JSON_FORMS[kind]
        assert self.at_file(tmp_path, argv, form)[0] == 0

    @pytest.mark.parametrize(
        "data, err",
        [
            ({"order": 4, "coeffs": ["1", "1"]}, "series field 'coeffs' must have order + 1 = 5 entries, got 2"),
            ({"order": 2, "coeffs": ["1", "1", "0", "0", "1"]},
             "series field 'coeffs' must have order + 1 = 3 entries, got 5"),
            ({"order": 2.9, "coeffs": ["1", "1", "0"]}, "series field 'order' must be an integer, got 2.9"),
            ({"order": True, "coeffs": ["1", "1"]}, "series field 'order' must be an integer, got True"),
            ({"order": -1, "coeffs": []}, "series field 'order' must be >= 0, got -1"),
            ({"order": 2, "coeffs": 5}, "series field 'coeffs' must be an array, got 5"),
            ({"order": None, "coeffs": ["1"]}, "series field 'order' must be an integer, got None"),
            ({"order": 0, "coeffs": [{"order": 0, "coeffs": ["1"]}]},
             "series field 'coeffs' must hold ring elements, not series"),
            ({"vars": ["L"], "terms": 5}, "polynomial field 'terms' must be an array, got 5"),
            ({"vars": "L", "terms": []}, "polynomial field 'vars' must be an array of strings, got 'L'"),
            ({"vars": ["L"], "terms": [{"e": [True], "c": "1"}]},
             "polynomial term field 'e' must be an array of integers, got [True]"),
            ({"vars": ["L"], "terms": [{"e": [1], "c": 1}]}, "polynomial term field 'c' must be a string, got 1"),
            ({"bound": "2", "vars": [], "terms": []}, "symmetric function field 'bound' must be an integer, got '2'"),
            ({"bound": 2, "vars": [], "terms": [{"p": [1.5], "c": POLY_FORM}]},
             "symmetric function term field 'p' must be an array of integers, got [1.5]"),
            ({"vars": ["L"], "terms": [{"e": [1], "c": " 1.5e1 "}]},
             "polynomial term field 'c' must be a rational num or num/den, got ' 1.5e1 '"),
            ({"order": 2, "coeffs": ["1", "2.5", "0"]},
             "series field 'coeffs' entry must be a rational num or num/den, got '2.5'"),
        ],
        ids=["padded", "truncated", "float-order", "bool-order", "negative-order", "int-coeffs", "null-order",
             "series-coeff", "int-terms", "str-vars", "bool-exponent", "int-coeff", "str-bound", "float-part",
             "decimal-coeff", "decimal-entry"],
    )
    def test_malformed_names_the_field(self, tmp_path, data, err):
        argv = ["pow", "--exponent", "1", "--order", "2", "--base"]
        assert self.at_file(tmp_path, argv, data) == (1, "", f"error: {err}\n")

    @pytest.mark.parametrize(
        "text", [" 1.5e1 ", "2.5", "1e3", "+1", "1 / 2", "1/0", "-1/00", "0x10", "1_000", "inf", "nan", "\u0663", "", "/2"]
    )
    def test_rational_outside_num_den_is_refused(self, tmp_path, text):
        argv = ["pow", "--base", "1+t", "--order", "2", "--exponent"]
        assert self.at_file(tmp_path, argv, text) == (
            1, "", f"error: JSON value must be a rational num or num/den, got {text!r}\n")

    @pytest.mark.parametrize("text, value", [("-3/4", "-3/4"), ("7", "7"), ("-0", "0"), ("2/4", "1/2")])
    def test_num_den_rationals_read(self, tmp_path, text, value):
        argv = ["adams", "--k", "1", "--element"]
        assert self.at_file(tmp_path, argv, text) == (0, f"{value}\n", "")

    @pytest.mark.parametrize(
        "argv, data, coeffs",
        [
            (["pow", "--exponent", "1", "--base"],
             {"order": 2, "coeffs": [{"vars": [], "terms": [{"e": [], "c": "1"}]}, "2", "0"]}, ["1", "2", "0"]),
            (["lambda", "--element"], {"vars": [], "terms": [{"e": [], "c": "3"}]}, ["1", "3", "6"]),
            # Exponents over no variable, through the power recurrence.
            (["pow", "--base", "1+t", "--algorithm", "product", "--exponent"],
             {"vars": [], "terms": [{"e": [], "c": "2"}]}, ["1", "2", "1"]),
            (["config", "--specialize", "ordered", "--x-class"],
             {"vars": [], "terms": [{"e": [], "c": "2"}]}, ["1", "2", "2"]),
        ],
    )
    def test_series_over_the_empty_alphabet_is_over_q(self, tmp_path, argv, data, coeffs):
        """A series whose coefficients are polynomials over no variable, or
        that is a power by such a polynomial, holds rationals, and writes
        them as the Q form does."""
        code, out, err = self.at_file(tmp_path, [*argv[:-1], "--order", "2", "--output-format", "json", argv[-1]], data)
        assert (code, err, json.loads(out)) == (0, "", {"order": 2, "coeffs": coeffs})
        argv = ["config", "--x-class", "3", "--specialize", "invariants", "--order", "2", "--output-format", "json"]
        assert json.loads(main_streams(argv)[1]) == {"order": 2, "coeffs": ["1", "3", "3"]}

    @given(malformed_json_values())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_malformed_fuzz(self, tmp_path, drawn):
        code, out, err = self.at_file(tmp_path, *drawn)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestDeterminism:
    def test_identical_requests_identical_bytes(self):
        first = run("moduli-g2", order=4, fmt="json")
        second = run("moduli-g2", order=4, fmt="json")
        assert first == second
        third = run("pow", {"base": "1+t", "exponent": "1+L"}, order=8)
        fourth = run("pow", {"base": "1+t", "exponent": "1+L"}, order=8)
        assert third == fourth


class TestFileInputs:
    def test_at_file_value(self, tmp_path):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({"vars": ["L"], "terms": [{"e": [1], "c": "1"}]}))
        code, text = run("adams", {"element": f"@{path}", "k": 3})
        assert code == 0 and text == "L^3"

    def test_config_class_file(self, tmp_path, capsys):
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"vars": ["q"], "terms": [{"e": [0], "c": "1"}, {"e": [1], "c": "1"}]}))
        assert run("config", {"x_class": f"@{poly}"}, order=4) == run("config", {"x_class": "1+q"}, order=4)
        sym = tmp_path / "sym.json"
        sym.write_text(json.dumps(symfunc_json(4, [{"p": [2], "c": ONE_TERM[0]["c"]}])))
        assert main(["config", "--x-class", f"@{sym}"]) == 1
        assert capsys.readouterr().err == "error: expected a polynomial, got SymFunc\n"

    @pytest.mark.parametrize("raw", ["p[1]", "@{}"])
    def test_config_class_symfunc_refused_alike(self, tmp_path, capsys, raw):
        """A symmetric function where a polynomial is expected gets one
        message, whether it is given as text or as a file."""
        sym = tmp_path / "sym.json"
        sym.write_text(json.dumps(symfunc_json(3, [{"p": [1], "c": ONE_TERM[0]["c"]}])))
        assert main(["config", "--x-class", raw.format(sym), "--order", "3"]) == 1
        assert capsys.readouterr().err == "error: expected a polynomial, got SymFunc\n"

    @pytest.mark.parametrize("raw", ["1+t", "@{}", "1+t+O(t^3)", "L+O(t^3)"])
    def test_config_class_series_refused_alike(self, tmp_path, capsys, raw):
        """A series where a polynomial is expected gets one message, whether
        it is a text in t, a file, or a text with an O(t^M) tail."""
        series = tmp_path / "series.json"
        series.write_text(main_capture(["lambda", "--element", "L", "--order", "2", "--output-format", "json"])[1])
        assert main(["config", "--x-class", raw.format(series), "--order", "3"]) == 1
        assert capsys.readouterr().err == "error: expected a polynomial, got TruncSeries\n"

    @pytest.mark.parametrize("raw", ["1+t", "1+t+O(t^3)", "L+O(t^3)", "@{}"], ids=["t", "t-tail", "tail", "file"])
    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["lambda", "--element"], "a ring element"),
            (["adams", "--k", "2", "--element"], "a ring element"),
            (["pow", "--base", "1+t", "--exponent"], "a ring element"),
            (["plethysm", "--f", "p[1]", "--x"], "a ring element"),
            (["plethysm", "--x", "L", "--f"], "a symmetric function"),
            (["specialize", "--mode", "sign", "--f"], "a symmetric function"),
            (["schur", "--f"], "a symmetric function"),
        ],
        ids=["lambda-element", "adams-element", "pow-exponent", "plethysm-x", "plethysm-f", "specialize-f", "schur-f"],
    )
    def test_series_refused_alike(self, tmp_path, argv, kind, raw):
        """A series where an option needs no series gets one message, the
        same for every option of a kind, whether it is a text in t, a text
        with an O(t^M) tail, which makes any text a series, or a file.  The
        polynomial option --x-class has the same routes in
        test_config_class_series_refused_alike, and a symmetric function
        in its place in test_config_class_symfunc_refused_alike."""
        series = tmp_path / "series.json"
        series.write_text(main_capture(["lambda", "--element", "L", "--order", "2", "--output-format", "json"])[1])
        argv = [*argv, raw.format(series), "--order", "3"]
        assert main_streams(argv) == (1, "", f"error: expected {kind}, got TruncSeries\n")

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["schur", "--f", "h[2]*t"], "a symmetric function, got TruncSeries"),
            (["adams", "--k", "1", "--element", "(1 + s[2,1]*t)^2"], "a ring element, got TruncSeries"),
            (["plethysm", "--x", "L", "--f", "e[3] + O(t^2)"], "a symmetric function, got TruncSeries"),
            (["config", "--x-class", "1 + h[3]"], "a polynomial, got SymFunc"),
            (["config", "--x-class", "(1 + p[1]*t)^3"], "a polynomial, got TruncSeries"),
        ],
    )
    def test_wrong_kind_refused_before_it_is_built(self, monkeypatch, argv, err):
        """A text of the wrong kind is refused on its sizes: no atom and no
        power of t in it is built."""

        def refuse(*args):
            raise AssertionError("a part of a refused value was built")

        monkeypatch.setattr(parsing, "basis_in_p", refuse)
        monkeypatch.setattr(parsing._Sizes, "t_power", refuse)
        with pytest.raises(AssertionError):
            main(["pow", "--base", "1 + h[2]*t", "--exponent", "1", "--order", "3"])
        assert main_streams([*argv, "--order", "3"]) == (1, "", f"error: expected {err}\n")

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["adams", "--k", "1", "--element", "(1+h[5]*t)^1000"], 2,
             "power of weight 95 at position 10 exceeds the limit 30"),
            (["config", "--x-class", "h[41] + O(t^2)"], 2, "weight 41 of h[...] at position 0 exceeds the limit 40"),
            (["schur", "--f", "p[1]^19*t"], 1, "error: expected a symmetric function, got TruncSeries"),
            (["schur", "--f", "p[1]^19 + O(t^2)"], 1, "error: expected a symmetric function, got TruncSeries"),
            (["schur", "--f", "p[1]^19"], 2, "weight 19 of the schur input exceeds the limit 18"),
        ],
    )
    def test_caps_then_kind_then_schur_weight(self, argv, code, err):
        """A value's size caps are checked before its kind, and its kind
        before the schur weight cap."""
        assert main_streams([*argv, "--order", "19"]) == (code, "", err + "\n")

    @pytest.mark.parametrize(
        "argv, data",
        [
            (["adams", "--k", "1", "--element", "@{}"], "[" * 100000 + "]" * 100000),
            (["lambda", "--input", "{}"], '{"a":' * 50000 + "1" + "}" * 50000),
            (["quotient", "--action", "{}"], '{"a":' * 50000 + "1" + "}" * 50000),
        ],
        ids=["at-file", "input", "action"],
    )
    def test_json_nested_too_deeply(self, tmp_path, argv, data):
        """JSON nested deeper than its reader can recurse is refused with
        one line, as a text nested too deeply is."""
        path = tmp_path / "deep.json"
        path.write_text(data)
        argv = [arg.format(path) for arg in argv]
        assert main_streams(argv) == (1, "", "error: JSON value nested too deeply\n")

    @pytest.mark.parametrize(
        "terms", [[([19], "1")], [([10, 9], "1"), ([1], "2")], [([1] * 19, "-1/3"), ([2] * 9, "1")]]
    )
    def test_schur_file_over_cap_refused_before_expansion(self, tmp_path, monkeypatch, terms):
        """A JSON schur input is checked on its weight once it is loaded,
        before p_to_schur starts."""
        from powerstruct import cli

        def refuse(*args):
            raise AssertionError("p_to_schur ran past the weight cap")

        monkeypatch.setattr(cli, "p_to_schur", refuse)
        one = lambda c: {"vars": [], "terms": [{"e": [], "c": c}]}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(symfunc_json(19, [{"p": p, "c": one(c)} for p, c in terms])))
        assert main_streams(["schur", "--f", f"@{path}", "--order", "19"]) == (
            2, "", "weight 19 of the schur input exceeds the limit 18\n")

    @pytest.mark.parametrize("source", ["text", "file"])
    def test_schur_weight_checked_once(self, tmp_path, monkeypatch, source):
        from powerstruct import cli

        weights = []
        monkeypatch.setattr(cli, "_check_schur_weight", weights.append)
        f = "p[1]^3 - 2*p[2]*p[1]"
        if source == "file":
            path = tmp_path / "f.json"
            path.write_text(json.dumps(parsing.parse_expression(f, bound=3).to_json_dict()))
            f = f"@{path}"
        expansion = "3*s[1,1,1] + 2*s[2,1] - s[3]\n"
        assert main_streams(["schur", "--f", f, "--order", "3"]) == (0, expansion, "")
        assert weights == [3]

    @pytest.mark.parametrize(
        "command, params",
        [("schur", {}), ("specialize", {"mode": "ordered"}), ("plethysm", {"x": "1+L"})],
    )
    def test_symfunc_file(self, tmp_path, command, params):
        text = "1/2*p[1,1] - 3*p[2] + e[2]"
        path = tmp_path / "f.json"
        path.write_text(json.dumps(parsing.parse_expression(text, bound=10).to_json_dict()))
        expected = run(command, {"f": text, **params})
        assert expected[0] == 0
        assert run(command, {"f": f"@{path}", **params}) == expected

    def test_input_parameter_file(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"base": "1+t", "exponent": "1+L"}))
        code, text = main_capture(["pow", "--input", str(path), "--order", "4"])
        assert code == 0
        assert "(L^3 - L)*t^3" in text

    def test_pow_accepts_series_file(self, tmp_path):
        # a user-supplied coefficient series (e.g. local punctual classes)
        path = tmp_path / "series.json"
        path.write_text(
            json.dumps(
                {
                    "order": 4,
                    "coeffs": [
                        "1",
                        {"vars": ["L"], "terms": [{"e": [0], "c": "1"}]},
                        {"vars": ["L"], "terms": [{"e": [1], "c": "1"}]},
                        {"vars": ["L"], "terms": []},
                        {"vars": ["L"], "terms": []},
                    ],
                }
            )
        )
        code, text = run("pow", {"base": f"@{path}", "exponent": "L"}, order=4)
        assert code == 0
        assert text.startswith("1 + L*t")

    def test_input_egf(self, tmp_path):
        action = tmp_path / "action.json"
        action.write_text(
            json.dumps(
                {
                    "group_order": 1,
                    "classes": [{"size": 1, "identity": True, "orbit_euler": {"1": 2}}],
                }
            )
        )
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"egf": True, "action": str(action)}))
        code, text = main_capture(["quotient", "--input", str(path), "--order", "3"])
        assert code == 0
        assert text == "1 + 2*t + t^2 + O(t^4)\n"

    def test_input_integer_value(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"base": "1+t", "exponent": 3}))
        assert main_capture(["pow", "--input", str(path), "--order", "3"]) == (
            0,
            "1 + 3*t + 3*t^2 + t^3 + O(t^4)\n",
        )

    @pytest.mark.parametrize(
        "argv, data, names",
        [
            (["pow"], {"base": [1], "exponent": "L"}, "--base"),
            (["pow"], {"base": "1+t", "exponent": {"a": 1}}, "--exponent"),
            (["pow"], {"base": "1+t", "exponent": "L", "algorithm": "bogus"}, "--algorithm"),
            (["lambda"], {"element": {"a": 1}}, "--element"),
            (["lambda"], {"element": True}, "--element"),
            (["quotient"], [1], "--input"),
            (["quotient"], {"action": "{}", "egf": "yes"}, "--egf"),
            (["config"], {"x_class": "1+q", "specialize": "bogus"}, "--specialize"),
        ],
    )
    def test_input_values_checked_like_flags(self, tmp_path, capsys, argv, data, names):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(data))
        assert main([*argv, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and names in err

    @pytest.mark.parametrize(
        "command, params, names",
        [
            ("adams", {"element": "L", "k": "2"}, "--k"),
            ("adams", {"element": "L", "k": True}, "--k"),
            ("irr", {"vars": 2.0, "degree": 1}, "--vars"),
            ("reproduce", {"seed": "1"}, "--seed"),
            ("verify", {"identity": "nope"}, "--identity"),
            ("quotient", {"action": "{}", "egf": 1}, "--egf"),
        ],
    )
    def test_request_values_checked_like_flags(self, command, params, names):
        code, text = run(command, params)
        assert code == 2 and names in text and "\n" not in text

    def test_printed_series_reads_back(self):
        printed = main_capture(["lambda", "--element", "L", "--order", "3"])[1].strip()
        argv = ["pow", "--base", printed, "--exponent", "1", "--order", "3"]
        assert main_capture(argv) == (0, printed + "\n")

    def test_printed_series_tail_is_not_a_variable(self):
        code, text = run("pow", {"base": "1 + L*t + O(t^3)", "exponent": "1"}, order=2, fmt="json")
        assert code == 0
        assert [c["vars"] for c in json.loads(text)["coeffs"]] == [["L"]] * 3
        code, text = run("pow", {"base": "1+O*t+O(t^3)", "exponent": "1"}, order=2)
        assert (code, text) == (0, "1 + O*t + O(t^3)")

    @pytest.mark.parametrize("order", [0, 2, 3])
    def test_printed_series_truncated(self, order):
        code, text = run("pow", {"base": "1+t+O(t^4)", "exponent": "L"}, order=order)
        assert (code, text) == run("pow", {"base": "1+t", "exponent": "L"}, order=order)

    @pytest.mark.parametrize("order", [4, 5])
    def test_printed_series_order_checked(self, capsys, order):
        argv = ["pow", "--base", "1+t+O(t^4)", "--exponent", "L", "--order", str(order)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: input series has order 3, need {order}\n"

    def test_reproduce_smoke(self):
        code, text = run("reproduce", {"axiom_cases": 2})
        assert code == 0
        lines = text.splitlines()
        assert len(lines) == 12
        assert sum(1 for line in lines if line.startswith("PASS")) == 11
        assert lines[-1].startswith("INFO gcd-product-diagnostic")


def main_capture(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


INPUT_COMMANDS = sorted(name for name, command in _COMMANDS.items() if command.takes_input)
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
    | st.text(alphabet="1tLp[]+-*/^()@{}", max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


@st.composite
def input_requests(draw):
    command = draw(st.sampled_from(INPUT_COMMANDS))
    keys = st.sampled_from([*_COMMANDS[command].options, "bogus"])
    data = draw(st.dictionaries(keys, JSON_VALUES, max_size=4))
    return command, data, draw(st.integers(0, 3))


class TestInputFuzz:
    @given(input_requests())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_input_contract(self, tmp_path, monkeypatch, request_data):
        """Any --input object ends in exit code 0-3, never a traceback, and a
        nonzero code writes exactly one line to stderr."""
        command, data, order = request_data
        monkeypatch.chdir(tmp_path)
        (tmp_path / "params.json").write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--input", "params.json", "--order", str(order)])
        assert code in (0, 1, 2, 3)
        if code:
            assert err.getvalue().count("\n") == 1


# Grammar fuzzer over flag values.  Structured expressions carry their total
# degree (power-sum weight plus the degrees in t and the polynomial
# variables) and are kept at degree <= 4; token soup uses atoms of weight
# <= 2 and exponents |k| <= 2 in at most 6 tokens.  Either way no value
# reaches a Schur expansion or a plethysm large enough to run unbounded.
DEGREE_CAP = 4
ATOMS = [
    ("0", 0), ("1", 0), ("2", 0), ("1/2", 0), ("-3", 0), ("/0", None),
    ("L", 1), ("u", 1), ("q", 1), ("t", 1),
    ("p[1]", 1), ("p[2]", 2), ("p[1,1]", 2), ("p[]", 0), ("p[0]", 0),
    ("h[2]", 2), ("e[2]", 2), ("e[0]", 0), ("s[2,1]", 3), ("s[]", 0), ("h[5]", 5),
]


def _combine(pair):
    (a, da), (b, db) = pair
    return st.sampled_from([
        (f"{a} + {b}", max(da, db)),
        (f"{a} - {b}", max(da, db)),
        (f"{a}*{b}", da + db),
        (f"({a})/({b})", da + db),
        (f"-({a})", da),
    ])


def _atom(item):
    text, degree = item
    if degree is None:  # "/0": a zero divisor after a number
        return st.just(("1/0", 0))
    return st.integers(-4, 4).map(
        lambda k: (text, degree) if k == 1 else (f"{text}^{k}" if k >= 0 else f"{text}^({k})", degree * abs(k))
    )


EXPRESSIONS = st.recursive(
    st.sampled_from(ATOMS).flatmap(_atom),
    lambda inner: st.tuples(inner, inner).flatmap(_combine),
    max_leaves=4,
).filter(lambda value: value[1] <= DEGREE_CAP).map(lambda value: value[0])
SOUP = st.lists(
    st.sampled_from(
        ["1", "0", "2", "L", "u", "t", "p[1]", "p[2]", "h[2]", "(", ")", "+", "-", "*",
         "/", "^2", "^-1", "^0", "/0", "[", "]", ",", "$", "@x", "t^-2", "O(t^2)"]
    ),
    min_size=1,
    max_size=6,
).map("".join)
VALUES = EXPRESSIONS | SOUP
UNIT_SERIES = VALUES | EXPRESSIONS.map(lambda e: f"1 + ({e})*t")


def int_values(command, spec):
    """Small integers, and for a capped option values past its bounds;
    reproduce takes a second even at one case, so only its refusals run."""
    if "max" not in spec:
        return st.integers(-1, 6)
    past = st.integers(spec["max"] + 1, 10**30)
    if "min" in spec:
        past = past | st.integers(-(10**30), spec["min"] - 1)
    return past if command == "reproduce" else st.integers(-1, 6) | past


@st.composite
def flag_requests(draw):
    command = draw(st.sampled_from(
        ["pow", "factorize", "adams", "lambda", "plethysm", "schur",
         "irr", "hyperelliptic", "harer-zagier", "reproduce"]))
    argv = [command, f"--order={draw(st.integers(0, 4))}"]
    argv.append(f"--output-format={draw(st.sampled_from(['text', 'json']))}")
    for name, spec in _COMMANDS[command].options.items():
        flag = "--" + name.replace("_", "-")
        if "choices" in spec:
            if draw(st.booleans()):
                argv.append(f"{flag}={draw(st.sampled_from(spec['choices']))}")
        elif spec.get("type") is int:
            if spec.get("required") or draw(st.booleans()) or name == "axiom_cases":
                argv.append(f"{flag}={draw(int_values(command, spec))}")
        else:
            values = UNIT_SERIES if name in ("base", "series") else VALUES
            argv.append(f"{flag}={draw(values)}")
    return argv


class TestGrammarFuzz:
    @given(flag_requests())
    @settings(max_examples=300, deadline=None)
    def test_flag_contract(self, argv):
        """Any flag value in the grammar's alphabet ends in exit code 0-3,
        never a traceback, and a nonzero code writes exactly one line to
        stderr."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        if code:
            assert err.getvalue().count("\n") == 1


def test_series_power_under_the_weight_cap_at_its_order():
    """A series power counts the weight of the coefficients it keeps."""
    argv = ["pow", "--base", "(1 + p[1]^11*t)^3", "--exponent", "1"]
    assert main_streams([*argv, "--order", "1"]) == (0, "1 + 3*p[1,1,1,1,1,1,1,1,1,1,1]*t + O(t^2)\n", "")
    assert main_streams([*argv, "--order", "3"]) == (2, "", "power of weight 33 at position 15 exceeds the limit 30\n")
