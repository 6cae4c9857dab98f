"""Batch command-line interface.

Every operation is exposed as a subcommand with text or JSON output.  Exit
codes: 0 success, 1 domain error, 2 usage error, 3 identity-verification
failure.  Output is deterministic: identical requests produce identical
bytes.

Values are written in the grammar of :mod:`powerstruct.parsing`; any
value-taking option also accepts ``@file.json`` to load the JSON form, and
the data-heavy commands take ``--input file.json`` holding a JSON object of
parameters keyed by option name (explicit flags win).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import applications, parsing, reproduce
from .power import (
    IDENTITY_NAMES,
    factorize as factorize_op,
    lambda_t,
    power as power_op,
    verify_identity,
)
from .errors import PowerStructError
from .rings import SCALAR_TYPES, LaurentPoly, adams, format_rational, parse_rational
from .series import TruncSeries
from .symfunc import (
    SpecializationMode,
    SymFunc,
    p_to_schur,
    plethysm_apply,
    schur_expansion_str,
    specialize,
)

DEFAULT_ORDER = 10


@dataclass
class CommandRequest:
    command: str
    params: dict = field(default_factory=dict)
    order: int = DEFAULT_ORDER
    output_format: str = "text"


# -- value rendering -------------------------------------------------------------


def value_to_json(value):
    if isinstance(value, SCALAR_TYPES):
        return format_rational(value)
    if isinstance(value, (LaurentPoly, SymFunc)):
        return value.to_json_dict()
    if isinstance(value, TruncSeries):
        return {"order": value.order, "coeffs": [value_to_json(c) for c in value.coeffs]}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def value_from_json(data):
    if isinstance(data, str):
        return parse_rational(data)
    if isinstance(data, dict) and "coeffs" in data:
        return TruncSeries([value_from_json(c) for c in data["coeffs"]], int(data["order"]))
    if isinstance(data, dict) and "bound" in data:
        return SymFunc.from_json_dict(data)
    if isinstance(data, dict) and "vars" in data:
        return LaurentPoly.from_json_dict(data)
    raise PowerStructError(f"unrecognized JSON value: {data!r}")


def value_to_text(value) -> str:
    return str(value)


def _emit(value, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(value_to_json(value), indent=2)
    return value_to_text(value)


# -- parameter plumbing ------------------------------------------------------------


def _load_at_value(raw: str):
    """Values starting with @ name a JSON file holding the value."""
    if isinstance(raw, str) and raw.startswith("@"):
        data = json.loads(Path(raw[1:]).read_text())
        return value_from_json(data)
    return raw


def _parse_element(raw, order: int, vars: tuple[str, ...] | None = None):
    """An exponent-like value: rational, polynomial or symmetric function."""
    loaded = _load_at_value(raw)
    if not isinstance(loaded, str):
        return loaded
    return parsing.parse_expression(loaded, order=None, bound=order, vars=vars)


def _parse_series_arg(raw, order: int, vars: tuple[str, ...] | None = None) -> TruncSeries:
    loaded = _load_at_value(raw)
    if isinstance(loaded, TruncSeries):
        if loaded.order < order:
            raise PowerStructError(
                f"input series has order {loaded.order}, need {order}"
            )
        return loaded.truncate(order)
    if not isinstance(loaded, str):
        return TruncSeries.constant(loaded, order)
    return parsing.parse_series(loaded, order, bound=order, vars=vars)


def _shared_vars(*texts) -> tuple[str, ...]:
    names: set[str] = set()
    for text in texts:
        if isinstance(text, str) and not text.startswith("@"):
            names.update(parsing.scan_variables(text))
    return tuple(sorted(names))


# -- command handlers ---------------------------------------------------------------


def _cmd_lambda(params, order, fmt):
    element = _parse_element(params["element"], order)
    return 0, _emit(lambda_t(element, order), fmt)


def _cmd_pow(params, order, fmt):
    vars = _shared_vars(params["base"], params["exponent"])
    base = _parse_series_arg(params["base"], order, vars)
    exponent = _parse_element(params["exponent"], order, vars)
    result = power_op(base, exponent, params.get("algorithm", "factorize"))
    return 0, _emit(result, fmt)


def _cmd_factorize(params, order, fmt):
    series = _parse_series_arg(params["series"], order)
    result = factorize_op(series, params.get("algorithm", "moebius"))
    if fmt == "json":
        payload = {"order": order, "exponents": [value_to_json(b) for b in result]}
        return 0, json.dumps(payload, indent=2)
    lines = [
        f"b_{k} = {value_to_text(b)}" for k, b in enumerate(result, start=1)
    ]
    return 0, "\n".join(lines)


def _cmd_adams(params, order, fmt):
    element = _parse_element(params["element"], order)
    return 0, _emit(adams(element, int(params["k"])), fmt)


def _cmd_plethysm(params, order, fmt):
    f = parsing.parse_symfunc(str(params["f"]), bound=order)
    x = _parse_element(params["x"], order)
    return 0, _emit(plethysm_apply(f, x), fmt)


def _cmd_schur(params, order, fmt):
    f = parsing.parse_symfunc(str(params["f"]), bound=order)
    expansion = p_to_schur(f)
    if fmt == "json":
        payload = [
            {"s": list(partition), "c": value_to_json(coeff)}
            for partition, coeff in sorted(expansion.items(), key=lambda i: (sum(i[0]), i[0]))
        ]
        return 0, json.dumps(payload, indent=2)
    return 0, schur_expansion_str(expansion)


def _cmd_specialize(params, order, fmt):
    f = parsing.parse_symfunc(str(params["f"]), bound=order)
    mode = SpecializationMode(params["mode"])
    return 0, _emit(specialize(f, mode), fmt)


def _cmd_irr(params, order, fmt):
    n_vars = int(params["vars"])
    degree = int(params["degree"])
    target = params.get("target", "class")
    if target == "class":
        result = applications.irreducible_class(n_vars, degree)
    else:
        result = applications.irreducible_specialize(n_vars, degree, target)
    return 0, _emit(result, fmt)


def _cmd_config(params, order, fmt):
    x_class = parsing.parse_poly(str(_load_at_value(params["x_class"])))
    series = applications.config_space_series(x_class, order)
    mode = params.get("specialize")
    if mode:
        series = series.map_coeffs(
            lambda c: specialize(c, SpecializationMode(mode))
        )
    return 0, _emit(series, fmt)


def _load_action(raw: str) -> applications.GroupActionData:
    text = raw
    if not raw.lstrip().startswith("{"):
        text = Path(raw).read_text()
    return applications.GroupActionData.from_json_dict(json.loads(text))


def _cmd_quotient(params, order, fmt):
    action = _load_action(str(params["action"]))
    if params.get("egf"):
        result = applications.quotient_euler_egf(action, order)
    else:
        result = applications.quotient_euler_series(action, order)
    return 0, _emit(result, fmt)


def _cmd_hyperelliptic(params, order, fmt):
    result = applications.hyperelliptic_class(
        int(params["genus"]), params.get("target", "class")
    )
    return 0, _emit(result, fmt)


def _cmd_moduli_g2(params, order, fmt):
    return 0, _emit(applications.moduli_g2_series(order), fmt)


def _cmd_harer_zagier(params, order, fmt):
    value = applications.harer_zagier(int(params["genus"]), int(params["points"]))
    return 0, _emit(value, fmt)


def _cmd_verify(params, order, fmt):
    report = verify_identity(str(params["identity"]), order)
    if fmt == "json":
        payload = {
            "identity": report.name,
            "order": report.order,
            "holds": report.holds,
            "first_discrepancy": report.first_discrepancy,
        }
        text = json.dumps(payload, indent=2)
    else:
        text = report.summary()
    return (0 if report.holds else 3), text


def _cmd_reproduce(params, order, fmt):
    results = reproduce.run_all(
        order=order,
        axiom_cases=int(params.get("axiom_cases", 100)),
        seed=int(params.get("seed", 20240811)),
    )
    if fmt == "json":
        payload = [
            {
                "name": r.name,
                "passed": r.passed,
                "required": r.required,
                "detail": r.detail,
            }
            for r in results
        ]
        text = json.dumps(payload, indent=2)
    else:
        text = "\n".join(r.line() for r in results)
    return (0 if reproduce.all_required_pass(results) else 3), text


_HANDLERS = {
    "lambda": (_cmd_lambda, {"element"}, {"element"}),
    "pow": (_cmd_pow, {"base", "exponent", "algorithm"}, {"base", "exponent"}),
    "factorize": (_cmd_factorize, {"series", "algorithm"}, {"series"}),
    "adams": (_cmd_adams, {"element", "k"}, {"element", "k"}),
    "plethysm": (_cmd_plethysm, {"f", "x"}, {"f", "x"}),
    "schur": (_cmd_schur, {"f"}, {"f"}),
    "specialize": (_cmd_specialize, {"f", "mode"}, {"f", "mode"}),
    "irr": (_cmd_irr, {"vars", "degree", "target"}, {"vars", "degree"}),
    "config": (_cmd_config, {"x_class", "specialize"}, {"x_class"}),
    "quotient": (_cmd_quotient, {"action", "egf"}, {"action"}),
    "hyperelliptic": (_cmd_hyperelliptic, {"genus", "target"}, {"genus"}),
    "moduli-g2": (_cmd_moduli_g2, set(), set()),
    "harer-zagier": (_cmd_harer_zagier, {"genus", "points"}, {"genus", "points"}),
    "verify": (_cmd_verify, {"identity"}, {"identity"}),
    "reproduce": (_cmd_reproduce, {"axiom_cases", "seed"}, set()),
}


def run_command(request: CommandRequest) -> tuple[int, str]:
    """Execute one request; returns (exit code, output text)."""
    if request.command not in _HANDLERS:
        return 2, f"unknown command {request.command!r}"
    handler, allowed, required = _HANDLERS[request.command]
    params = {k: v for k, v in request.params.items() if v is not None}
    unknown = set(params) - allowed
    if unknown:
        return 2, f"unknown parameters for {request.command}: {sorted(unknown)}"
    missing = required - set(params)
    if missing:
        return 2, f"missing parameters for {request.command}: {sorted(missing)}"
    if request.output_format not in ("text", "json"):
        return 2, f"unknown output format {request.output_format!r}"
    if request.order < 0:
        return 2, f"order must be >= 0, got {request.order}"
    return handler(params, request.order, request.output_format)


# -- argparse front end ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerstruct",
        description="Exact power-structure computations over lambda-rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, with_input=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--order", type=int, default=DEFAULT_ORDER, help="truncation order (default 10)")
        p.add_argument("--output-format", choices=("text", "json"), default="text")
        if with_input:
            p.add_argument("--input", help="JSON file with parameters keyed by option name")
        return p

    p = add("lambda", "(1 - t)^(-X) for a ring element X", with_input=True)
    p.add_argument("--element", help="ring element, e.g. 'L^2+L'")

    p = add("pow", "power-structure value A(t)^X", with_input=True)
    p.add_argument("--base", help="series with constant term 1, e.g. '1+t'")
    p.add_argument("--exponent", help="ring element, e.g. '1+L'")
    p.add_argument("--algorithm", choices=("factorize", "product"))

    p = add("factorize", "Euler-product exponents of a series", with_input=True)
    p.add_argument("--series", help="series with constant term 1")
    p.add_argument("--algorithm", choices=("moebius", "iterative"))

    p = add("adams", "k-th Adams operation")
    p.add_argument("--element", required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("plethysm", "plethysm f o x for constant-coefficient f")
    p.add_argument("--f", required=True, help="symmetric function, e.g. 'h[2]'")
    p.add_argument("--x", required=True, help="lambda-ring element, e.g. 'L'")

    p = add("schur", "Schur expansion of a homogeneous symmetric function")
    p.add_argument("--f", required=True)

    p = add("specialize", "character specialization of a symmetric function")
    p.add_argument("--f", required=True)
    p.add_argument("--mode", required=True, choices=[m.value for m in SpecializationMode])

    p = add("irr", "class of the irreducible-polynomial variety")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--target", choices=("class", "euler", "hodge_deligne"))

    p = add("config", "equivariant configuration-space series (1 + p1 t)^X", with_input=True)
    p.add_argument("--x-class", dest="x_class", help="class polynomial, e.g. '1+q'")
    p.add_argument("--specialize", choices=[m.value for m in SpecializationMode])

    p = add("quotient", "equivariant Euler series of configurations modulo a finite action", with_input=True)
    p.add_argument("--action", help="group-action JSON (inline or a file path)")
    p.add_argument("--egf", action="store_true", help="exponential generating function instead")

    p = add("hyperelliptic", "class of the genus-g hyperelliptic moduli space")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--target", choices=("class", "hodge_deligne"))

    add("moduli-g2", "equivariant Euler series of genus-2 moduli with marked points")

    p = add("harer-zagier", "orbifold Euler characteristic of moduli of curves")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--points", type=int, required=True)

    p = add("verify", "check a named series identity exactly")
    p.add_argument("--identity", required=True, choices=IDENTITY_NAMES)

    p = add("reproduce", "run the full reproduction suite")
    p.add_argument("--axiom-cases", dest="axiom_cases", type=int, default=100)
    p.add_argument("--seed", type=int, default=20240811)

    return parser


def _request_from_args(args: argparse.Namespace) -> CommandRequest:
    params = dict(vars(args))
    command = params.pop("command")
    order = params.pop("order")
    output_format = params.pop("output_format")
    input_file = params.pop("input", None)
    if input_file:
        loaded = json.loads(Path(input_file).read_text())
        for key, value in loaded.items():
            key = key.replace("-", "_")
            if params.get(key) is None:
                params[key] = value
    if params.get("egf") is False:
        params["egf"] = None
    return CommandRequest(command, params, order, output_format)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    request = _request_from_args(args)
    try:
        code, text = run_command(request)
    except PowerStructError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if code == 2:
        print(text, file=sys.stderr)
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
