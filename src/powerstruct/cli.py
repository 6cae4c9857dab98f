"""Batch command-line interface.

Every operation is exposed as a subcommand with text or JSON output.  Exit
codes: 0 success, 1 domain error, 2 usage error, 3 identity-verification
failure.  Output is deterministic: identical requests produce identical
bytes.  Sizes are capped before the work they bound starts: ``--order``
at :data:`MAX_ORDER`, ``adams --k`` at :data:`MAX_ADAMS_K`, ``irr --vars``
and ``--degree`` at :data:`MAX_IRR_VARS` and :data:`MAX_IRR_DEGREE`, a genus
at :data:`MAX_GENUS`, ``harer-zagier --points`` at :data:`MAX_POINTS`,
``reproduce --axiom-cases`` at :data:`MAX_AXIOM_CASES` (and at least 1),
an integer exponent of ``^`` or of a polynomial term read from JSON at
:data:`rings.MAX_EXPONENT` (also the degree a nested ``^`` would build),
the weight of an ``h``, ``e`` or ``s`` atom at
:data:`parsing.MAX_ATOM_WEIGHT`, the weight a ``*`` of two symmetric
functions or a ``^`` would build at :data:`parsing.MAX_WEIGHT`, the work a
series ``^`` or ``/`` would do at :data:`parsing.MAX_POWER_WORK` and the
weight of the ``schur`` input at :data:`MAX_SCHUR_WEIGHT`; a value out of
range exits 2 with one line.

Every value an option holds is read by one reader, :func:`_read`, to the
kind its command needs: a series of the request's order, a ring element, a
symmetric function with generator bound ``--order``, or a polynomial.  The
value is a text in the grammar of :mod:`powerstruct.parsing` (it may keep
the ``+ O(t^M)`` tail of printed output, which makes it a series known
through t^(M-1)), the tree :func:`parsing.parse_tree` made of a text
(``pow`` parses both of its texts first, so that they share one alphabet),
or ``@file.json`` naming a file with the JSON form, used as loaded.  One
rule, :func:`_judge`, decides whether a value fits its kind: on a text's
sizes, before any part of it is built, or on a JSON value as loaded; the
``schur`` weight cap runs there too.  Every route checks syntax, then the
grammar's caps, then the kind, then the ``schur`` weight, and only then
builds the value.  The data-heavy commands take ``--input
file.json`` holding a JSON object of parameters keyed by option name
(explicit flags win).  Values from ``--input`` or a
:class:`CommandRequest` are checked as flags are: the type and the choices
of the option in the command table.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple

from . import applications, parsing, reproduce
from .power import (
    IDENTITY_NAMES,
    factorize as factorize_op,
    lambda_t,
    power as power_op,
    verify_identity,
)
from .errors import LimitError, ParseError, PowerStructError, json_field
from .rings import SCALAR_TYPES, LaurentPoly, adams, format_rational, parse_rational
from .series import TruncSeries
from .symfunc import (
    SpecializationMode,
    SymFunc,
    by_weight,
    coefficient_json,
    p_to_schur,
    plethysm_apply,
    schur_expansion_str,
    specialize,
)

DEFAULT_ORDER = 10
# Caps rule out unbounded runs, not slow ones: 256 is four times the
# largest order the performance goals name (pow at order 64).
MAX_ORDER = 256
# adams on a polynomial only scales its exponents; on a symmetric function
# --k is bounded by the generator bound (the order) anyway.
MAX_ADAMS_K = 1000
# The class of irr has C(vars + degree, vars) terms at most: at the caps,
# 74584 terms in ~90 s and ~92 MB on a 2-core machine.
MAX_IRR_VARS = 6
MAX_IRR_DEGREE = 16
# hyperelliptic works at series order 2g + 2, within MAX_ORDER up to g = 127;
# harer-zagier needs the Bernoulli number B_2g, ~0.2 s at g = 127.
MAX_GENUS = 127
MAX_POINTS = 1000
# The default of 100 cases takes ~15 s; the cost grows linearly.  Fewer
# than one case would check nothing.
MAX_AXIOM_CASES = 1000
# schur expands one Jacobi-Trudi determinant per conjugate pair of
# partitions of its input's weight n that has, for some mu in the support,
# every part of mu among its hook lengths.  On a 2-core machine p[18] takes
# ~0.2 s and p[9,5] ~0.1 s, but a full support gains nothing: p[1]^16
# takes ~0.9 s and p[1]^18 3-4.5 s; 18 stays below the ~9 s of the slowest
# atom under parsing.MAX_ATOM_WEIGHT.
MAX_SCHUR_WEIGHT = 18


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


def value_from_json(data, where: str = "JSON value"):
    """The value of a JSON form of :func:`value_to_json`; a malformed form
    raises ValueError naming the field."""
    if isinstance(data, str):
        return parse_rational(data, where)
    if isinstance(data, dict) and "coeffs" in data:
        order = json_field(data, "order", "series", int)
        coeffs = json_field(data, "coeffs", "series", list)
        if order < 0:
            raise ValueError(f"series field 'order' must be >= 0, got {order}")
        if len(coeffs) != order + 1:
            raise ValueError(
                f"series field 'coeffs' must have order + 1 = {order + 1} entries, got {len(coeffs)}"
            )
        values = [value_from_json(c, "series field 'coeffs' entry") for c in coeffs]
        if any(isinstance(c, TruncSeries) for c in values):
            raise ValueError("series field 'coeffs' must hold ring elements, not series")
        return TruncSeries(values, order)
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


# -- reading values ----------------------------------------------------------------

# The tail of a printed series, "1 + t + O(t^4)": known through t^(M-1).
_ORDER_TAIL = re.compile(r"\+\s*O\(\s*t\s*\^\s*([1-9][0-9]*)\s*\)\s*$")

# The one rule on kinds: what an option of each kind is called, and the
# values it refuses.  A series option takes anything.
_KINDS = {"series": ("a series", ()), "element": ("a ring element", (TruncSeries,)),
          "symfunc": ("a symmetric function", (TruncSeries,)), "poly": ("a polynomial", (TruncSeries, SymFunc))}


def _load_json(text: str, convert: Callable = lambda data: data):
    """What ``convert`` makes of the JSON value in ``text``; one nested deeper
    than the reader or ``convert`` can recurse is refused as a text is."""
    try:
        return convert(json.loads(text))
    except RecursionError:
        raise ParseError("JSON value nested too deeply") from None


def _tree(raw: str, order: int):
    """An ``@file.json`` value as it is; any other text as what
    :func:`parsing.parse_tree` makes of it, with the order through which
    its ``+ O(t^M)`` tail knows it, M - 1 if lower than ``order``, or None
    for a text without a tail."""
    if raw.startswith("@"):
        return raw
    tail = _ORDER_TAIL.search(raw)
    if tail is None:
        return parsing.parse_tree(raw), None
    return parsing.parse_tree(raw[: tail.start()]), min(int(tail.group(1)) - 1, order)


def _judge(kind: str, got: type, weight: int, check_weight) -> None:
    """Refuse a value of type ``got`` that an option of ``kind`` does not take,
    then run ``check_weight`` on ``weight``, the largest it may hold."""
    name, refused = _KINDS[kind]
    if got in refused:
        raise ParseError(f"expected {name}, got {got.__name__}")
    if check_weight is not None:
        check_weight(weight)


def _read(raw, kind: str, order: int, vars: tuple[str, ...] | None = None, check_weight=None):
    """An option's value as the kind its command needs: ``series``, a series
    of order ``order``; ``element``, a ring element; ``symfunc``, a
    symmetric function with generator bound ``order``; or ``poly``, a
    polynomial.  ``raw`` is a text, what :func:`_tree` made of one, or
    ``@file.json``; a text's variables are ``vars`` or the names it holds.
    :func:`_judge` decides whether the value fits, with ``check_weight``:
    on a text's sizes, before it is built, or on a JSON value as loaded."""
    if isinstance(raw, str):
        raw = _tree(raw, order)
    if isinstance(raw, str):
        value, known = _load_json(Path(raw[1:]).read_text(), value_from_json), order
        weight = max(map(sum, value.terms), default=0) if isinstance(value, SymFunc) else 0
        _judge(kind, type(value), weight, check_weight)
    else:
        parsed, tail = raw
        known = order if tail is None else tail

        def check(size):
            # A text is a series if it has a tail or holds t.
            series = tail is not None or size[0] is not None
            got = TruncSeries if series else SymFunc if size[1] == parsing._SYM else object
            _judge(kind, got, parsing._heaviest(size), check_weight)

        value = parsing.parse_expression(parsed, known, order, vars, check)
    if kind == "series":
        if not isinstance(value, TruncSeries):
            value = TruncSeries.constant(value, known)
        if value.order < order:
            raise PowerStructError(f"input series has order {value.order}, need {order}")
        return value.truncate(order)
    if kind == "poly" and isinstance(value, SCALAR_TYPES):
        return LaurentPoly.constant(value, ())
    if kind == "symfunc" and not isinstance(value, SymFunc):
        return SymFunc.constant(value, order, getattr(value, "vars", ()))
    return value


# -- command handlers ---------------------------------------------------------------


def _cmd_lambda(params, order, fmt):
    element = _read(params["element"], "element", order)
    return 0, _emit(lambda_t(element, order), fmt)


def _cmd_pow(params, order, fmt):
    # Each text is parsed once: the alphabet the two values share comes
    # from the names their trees hold (_tree gives ((tree, names), tail)).
    base = _tree(params["base"], order)
    exponent = _tree(params["exponent"], order)
    vars = tuple(sorted(set().union(*(v[0][1] for v in (base, exponent) if isinstance(v, tuple)))))
    base, exponent = _read(base, "series", order, vars), _read(exponent, "element", order, vars)
    result = power_op(base, exponent, params.get("algorithm", "factorize"))
    return 0, _emit(result, fmt)


def _cmd_factorize(params, order, fmt):
    series = _read(params["series"], "series", order)
    result = factorize_op(series, params.get("algorithm", "moebius"))
    if fmt == "json":
        payload = {"order": order, "exponents": [value_to_json(b) for b in result]}
        return 0, json.dumps(payload, indent=2)
    lines = [
        f"b_{k} = {value_to_text(b)}" for k, b in enumerate(result, start=1)
    ]
    return 0, "\n".join(lines)


def _cmd_adams(params, order, fmt):
    element = _read(params["element"], "element", order)
    return 0, _emit(adams(element, params["k"]), fmt)


def _cmd_plethysm(params, order, fmt):
    f = _read(params["f"], "symfunc", order)
    x = _read(params["x"], "element", order)
    return 0, _emit(plethysm_apply(f, x), fmt)


def _check_schur_weight(weight: int) -> None:
    if weight > MAX_SCHUR_WEIGHT:
        raise LimitError(f"weight {weight} of the schur input exceeds the limit {MAX_SCHUR_WEIGHT}")


def _cmd_schur(params, order, fmt):
    f = _read(params["f"], "symfunc", order, check_weight=_check_schur_weight)
    expansion = p_to_schur(f)
    if fmt == "json":
        payload = [
            {"s": list(partition), "c": coefficient_json(coeff)}
            for partition, coeff in by_weight(expansion.items())
        ]
        return 0, json.dumps(payload, indent=2)
    return 0, schur_expansion_str(expansion)


def _cmd_specialize(params, order, fmt):
    f = _read(params["f"], "symfunc", order)
    mode = SpecializationMode(params["mode"])
    return 0, _emit(specialize(f, mode), fmt)


def _cmd_irr(params, order, fmt):
    target = params.get("target", "class")
    if target == "class":
        result = applications.irreducible_class(params["vars"], params["degree"])
    else:
        result = applications.irreducible_specialize(params["vars"], params["degree"], target)
    return 0, _emit(result, fmt)


def _cmd_config(params, order, fmt):
    x_class = _read(params["x_class"], "poly", order)
    mode = params.get("specialize")
    if mode:
        return 0, _emit(applications.config_specialization(x_class, order, mode), fmt)
    return 0, _emit(applications.config_space_series(x_class, order), fmt)


def _cmd_quotient(params, order, fmt):
    text = params["action"]
    if not text.lstrip().startswith("{"):
        text = Path(text).read_text()
    action = applications.GroupActionData.from_json_dict(_load_json(text))
    if params.get("egf"):
        result = applications.quotient_euler_egf(action, order)
    else:
        result = applications.quotient_euler_series(action, order)
    return 0, _emit(result, fmt)


def _cmd_hyperelliptic(params, order, fmt):
    return 0, _emit(applications.hyperelliptic_class(**params), fmt)


def _cmd_moduli_g2(params, order, fmt):
    return 0, _emit(applications.moduli_g2_series(order), fmt)


def _cmd_harer_zagier(params, order, fmt):
    value = applications.harer_zagier(params["genus"], params["points"])
    return 0, _emit(value, fmt)


def _cmd_verify(params, order, fmt):
    report = verify_identity(params["identity"], order)
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
    results = reproduce.run_all(order, **params)
    if fmt == "json":
        text = json.dumps([asdict(r) for r in results], indent=2)
    else:
        text = "\n".join(r.line() for r in results)
    return (0 if reproduce.all_required_pass(results) else 3), text


class _Command(NamedTuple):
    handler: Callable
    help: str
    takes_input: bool
    # parameter name -> argparse keywords; the flag is the name with dashes.
    # A required option is required by argparse only when the command takes
    # no --input, which may supply it instead.
    options: dict[str, dict]


_MODES = tuple(m.value for m in SpecializationMode)

_COMMANDS = {
    "lambda": _Command(_cmd_lambda, "(1 - t)^(-X) for a ring element X", True, {
        "element": dict(required=True, help="ring element, e.g. 'L^2+L'")}),
    "pow": _Command(_cmd_pow, "power-structure value A(t)^X", True, {
        "base": dict(required=True, help="series with constant term 1, e.g. '1+t'"),
        "exponent": dict(required=True, help="ring element, e.g. '1+L'"),
        "algorithm": dict(choices=("factorize", "product"))}),
    "factorize": _Command(_cmd_factorize, "Euler-product exponents of a series", True, {
        "series": dict(required=True, help="series with constant term 1"),
        "algorithm": dict(choices=("moebius", "iterative"))}),
    "adams": _Command(_cmd_adams, "k-th Adams operation", False, {
        "element": dict(required=True),
        "k": dict(type=int, required=True, max=MAX_ADAMS_K)}),
    "plethysm": _Command(_cmd_plethysm, "plethysm f o x for constant-coefficient f", False, {
        "f": dict(required=True, help="symmetric function, e.g. 'h[2]'"),
        "x": dict(required=True, help="lambda-ring element, e.g. 'L'")}),
    "schur": _Command(_cmd_schur, "Schur expansion of a homogeneous symmetric function", False, {
        "f": dict(required=True)}),
    "specialize": _Command(_cmd_specialize, "character specialization of a symmetric function", False, {
        "f": dict(required=True),
        "mode": dict(required=True, choices=_MODES)}),
    "irr": _Command(_cmd_irr, "class of the irreducible-polynomial variety", False, {
        "vars": dict(type=int, required=True, max=MAX_IRR_VARS),
        "degree": dict(type=int, required=True, max=MAX_IRR_DEGREE),
        "target": dict(choices=("class", "euler", "hodge_deligne"))}),
    "config": _Command(_cmd_config, "equivariant configuration-space series (1 + p1 t)^X", True, {
        "x_class": dict(required=True, help="class polynomial, e.g. '1+q'"),
        "specialize": dict(choices=_MODES)}),
    "quotient": _Command(
        _cmd_quotient, "equivariant Euler series of configurations modulo a finite action", True, {
            "action": dict(required=True, help="group-action JSON (inline or a file path)"),
            "egf": dict(action="store_true", default=None, help="exponential generating function instead")}),
    "hyperelliptic": _Command(_cmd_hyperelliptic, "class of the genus-g hyperelliptic moduli space", False, {
        "genus": dict(type=int, required=True, max=MAX_GENUS),
        "target": dict(choices=("class", "hodge_deligne"))}),
    "moduli-g2": _Command(_cmd_moduli_g2, "equivariant Euler series of genus-2 moduli with marked points", False, {}),
    "harer-zagier": _Command(_cmd_harer_zagier, "orbifold Euler characteristic of moduli of curves", False, {
        "genus": dict(type=int, required=True, max=MAX_GENUS),
        "points": dict(type=int, required=True, max=MAX_POINTS)}),
    "verify": _Command(_cmd_verify, "check a named series identity exactly", False, {
        "identity": dict(required=True, choices=IDENTITY_NAMES)}),
    "reproduce": _Command(_cmd_reproduce, "run the full reproduction suite", False, {
        "axiom_cases": dict(type=int, min=1, max=MAX_AXIOM_CASES),
        "seed": dict(type=int)}),
}


class _UsageError(Exception):
    """A malformed request for a known command (exit code 2)."""


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _checked_value(name: str, spec: dict, value):
    """A parameter value checked as argparse checks its flag, wherever it
    came from; a JSON integer given for a value option becomes its text."""
    expected = bool if spec.get("action") == "store_true" else spec.get("type", str)
    if expected is str and type(value) is int:
        value = str(value)
    if type(value) is not expected:
        raise _UsageError(f"argument {_flag(name)}: expected {expected.__name__}, got {value!r}")
    if "choices" in spec and value not in spec["choices"]:
        raise _UsageError(f"argument {_flag(name)}: invalid choice {value!r}, not in {list(spec['choices'])}")
    if "min" in spec and value < spec["min"]:
        raise _UsageError(f"argument {_flag(name)}: must be >= {spec['min']}, got {value}")
    if "max" in spec and value > spec["max"]:
        raise _UsageError(f"argument {_flag(name)}: must be <= {spec['max']}, got {value}")
    return value


def run_command(request: CommandRequest) -> tuple[int, str]:
    """Execute one request; returns (exit code, output text)."""
    command = _COMMANDS.get(request.command)
    if command is None:
        return 2, f"unknown command {request.command!r}"
    params = {k: v for k, v in request.params.items() if v is not None}
    unknown = set(params) - command.options.keys()
    if unknown:
        return 2, f"unknown parameters for {request.command}: {sorted(unknown)}"
    missing = {n for n, spec in command.options.items() if spec.get("required") and n not in params}
    if missing:
        return 2, f"missing parameters for {request.command}: {sorted(missing)}"
    try:
        params = {n: _checked_value(n, command.options[n], v) for n, v in params.items()}
    except _UsageError as exc:
        return 2, str(exc)
    if request.output_format not in ("text", "json"):
        return 2, f"unknown output format {request.output_format!r}"
    if request.order < 0:
        return 2, f"order must be >= 0, got {request.order}"
    if request.order > MAX_ORDER:
        return 2, f"order must be <= {MAX_ORDER}, got {request.order}"
    return command.handler(params, request.order, request.output_format)


# -- argparse front end ---------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argparse front end for ``_COMMANDS``, built once per process."""
    parser = argparse.ArgumentParser(
        prog="powerstruct",
        description="Exact power-structure computations over lambda-rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument(
            "--order", type=int, default=DEFAULT_ORDER,
            help=f"truncation order (default {DEFAULT_ORDER}, at most {MAX_ORDER})",
        )
        p.add_argument("--output-format", choices=("text", "json"), default="text")
        if command.takes_input:
            p.add_argument("--input", help="JSON file with parameters keyed by option name")
        for option, spec in command.options.items():
            required = spec.get("required", False) and not command.takes_input
            keywords = {k: v for k, v in spec.items() if k not in ("min", "max")}
            p.add_argument(_flag(option), dest=option, **{**keywords, "required": required})
    return parser


def _join_dash_values(argv: list[str]) -> list[str]:
    """argv with each word that follows a value option, starts with a single
    ``-`` and is no option (``--exponent -3/4``) joined to that option as
    ``--exponent=-3/4``: argparse would take the word for an unknown option.
    ``--`` and everything after it, ``--word`` and ``-h`` stay as they are."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return argv
    takes_value = {"--order", "--output-format", *(["--input"] if command.takes_input else [])}
    takes_value.update(_flag(n) for n, spec in command.options.items() if spec.get("action") != "store_true")
    out = argv[:1]
    for word in argv[1:]:
        joins = word.startswith("-") and not word.startswith("--") and word != "-h"
        if joins and out[-1] in takes_value and "--" not in out:
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def _request_from_args(args: argparse.Namespace) -> CommandRequest:
    params = dict(vars(args))
    # "--f=--" reaches here as the empty list argparse leaves once it drops "--".
    for name, value in params.items():
        if isinstance(value, list):
            raise _UsageError(f"argument {_flag(name)}: expected one argument")
    command = params.pop("command")
    order = params.pop("order")
    output_format = params.pop("output_format")
    input_file = params.pop("input", None)
    if input_file:
        loaded = _load_json(Path(input_file).read_text())
        if not isinstance(loaded, dict):
            raise _UsageError(f"argument --input: {input_file} does not hold a JSON object")
        for key, value in loaded.items():
            key = key.replace("-", "_")
            if params.get(key) is None:
                params[key] = value
    return CommandRequest(command, params, order, output_format)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_join_dash_values(argv))
    try:
        code, text = run_command(_request_from_args(args))
        stream = sys.stderr if code == 2 else sys.stdout
    except (_UsageError, LimitError) as exc:
        code, text, stream = 2, str(exc), sys.stderr
    except (PowerStructError, ValueError, ZeroDivisionError, KeyError, OSError) as exc:
        code, text, stream = 1, f"error: {exc}", sys.stderr
    try:
        print(text, file=stream)
        stream.flush()
    except BrokenPipeError:
        # The reader has gone (``powerstruct reproduce | head -1``): write
        # nothing more.  The interpreter flushes the stream again at exit,
        # so its descriptor is pointed at the null device.
        try:
            fd = stream.fileno()
        except (AttributeError, OSError):
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
