"""Command-line interface: requests, output formats, exit codes."""

import json

import pytest

from powerstruct.cli import CommandRequest, main, run_command


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

    def test_usage_error_is_two_via_main(self):
        with pytest.raises(SystemExit) as exc:
            main(["pow", "--no-such-flag"])
        assert exc.value.code == 2


TRIVIAL_ACTION = {
    "group_order": 1,
    "classes": [{"size": 1, "identity": True, "orbit_euler": {"1": 0}}],
}
ONE_TERM = [{"p": [], "c": {"vars": [], "terms": [{"e": [], "c": "1"}]}}]


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
            ("pow", {"base": "1+t", "exponent": "0*L"}, 2, ["1", "0", "0"]),
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

    def test_reproduce_smoke(self):
        code, text = run("reproduce", {"axiom_cases": 2})
        assert code == 0
        lines = text.splitlines()
        assert len(lines) == 12
        assert sum(1 for line in lines if line.startswith("PASS")) == 11
        assert lines[-1].startswith("INFO gcd-product-diagnostic")


def main_capture(argv):
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()
