"""Text grammar for ring elements and series.

One grammar covers every value the command line accepts:

* rationals: ``3``, ``1/2``, ``-7/3``
* polynomial variables: any identifier (``L``, ``u``, ``v``, ``q``, ...);
  all variables appearing in one expression share one alphabet
* power sums and friends: ``p[2]``, ``p[1,1]``, ``h[3]``, ``e[2]``, ``s[3,1]``;
  an ``h``, ``e`` or ``s`` atom has weight at most :data:`MAX_ATOM_WEIGHT`
* the series variable ``t`` (meaningful only when an order is supplied)
* operators ``+ - * / ^`` and parentheses; ``^`` takes an integer exponent
  of magnitude at most :data:`MAX_EXPONENT`, and no power may build a
  polynomial exponent beyond it: ``(L^1000)^1000`` and ``(1 + L^2)^501``
  are refused before they are computed
* no ``*`` of two symmetric functions and no ``^`` may build a term of
  weight beyond :data:`MAX_WEIGHT`, through series coefficients too:
  ``(p[1]+p[2]+p[3])^11`` and ``h[20]*h[11]`` are refused before they are
  computed, while ``2*h[40]`` parses; a series power counts only the
  coefficients it keeps, so ``(1 + p[1]^11*t)^3`` parses at order 1.
  Series division is not capped

so ``1/2*p[1,1] + 1/2*p[2]``, ``L^5 - L^2``, ``1/(1 - L*t)`` and
``(1 + t)^3`` all parse.  The name ``t`` is reserved, and ``p``/``h``/``e``/
``s`` are special only when directly followed by ``[``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import LimitError, ParseError
from .rings import MAX_EXPONENT, SCALAR_TYPES, LaurentPoly, Rational
from .series import TruncSeries
from .symfunc import SymFunc, basis_in_p

_TOKEN_RE = re.compile(
    r"(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()\[\],])"
)

_BASIS_NAMES = ("p", "h", "e", "s")

# Largest weight of an h[k], e[k] or s[...] atom.  At 40, h[40] has 37338
# terms (0.24 s, 58 MB) and the slowest s[...] atoms, s[7,7,7,7,6,6] and
# s[7,7,7,7,7,5], take ~12 s and 74 MB, both on a 2-core machine; h[45]
# already takes 147 MB.  A heavier atom is refused before it is expanded.
MAX_ATOM_WEIGHT = 40
# Largest weight a ``*`` of two symmetric functions or a ``^`` may build.
# The slowest accepted product squares a dense sum of all partitions up to
# half the cap: on a 2-core machine (h[0]+...+h[m])^2 takes 1.9 s at m = 13,
# 6.8 s (43 MB) at m = 15 and 13.3 s (57 MB) at m = 16, and
# (h[0]+...+h[10])^3 6.7 s.  At 30 the slowest takes about half the ~12 s
# of the slowest atom, which leaves room for the machine's speed drift.
MAX_WEIGHT = 30


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        kind = match.lastgroup
        tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    return tokens


def _degree(value) -> int:
    """Largest exponent magnitude of a polynomial variable in value, through
    symmetric-function and series coefficients."""
    if isinstance(value, LaurentPoly):
        return max((abs(e) for exps in value.terms for e in exps), default=0)
    if isinstance(value, SymFunc):
        return max(map(_degree, value.terms.values()), default=0)
    if isinstance(value, TruncSeries):
        return max(map(_degree, value.coeffs), default=0)
    return 0


def _weight(value) -> int:
    """Largest weight of a symmetric-function term in value, through series
    coefficients; a series over Q or Q[L] answers from its zero."""
    if isinstance(value, TruncSeries):
        return max(map(_weight, value.coeffs)) if isinstance(value._zero, SymFunc) else 0
    if isinstance(value, SymFunc):
        return max(map(sum, value.terms), default=0)
    return 0


def _check_weight(weight: int, what: str, position: int) -> None:
    if weight > MAX_WEIGHT:
        raise LimitError(f"{what} of weight {weight} at position {position} exceeds the limit {MAX_WEIGHT}")


class _Parser:
    def __init__(
        self,
        tokens: list[_Token],
        order: int | None,
        bound: int | None,
        vars: tuple[str, ...],
    ):
        self.tokens = tokens
        self.index = 0
        self.order = order
        self.bound = bound
        self.vars = vars

    def peek(self) -> _Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of expression")
        self.index += 1
        return token

    def expect_op(self, op: str) -> None:
        token = self.next()
        if token.kind != "op" or token.text != op:
            raise ParseError(f"expected {op!r} at position {token.position}")

    def at_op(self, *ops: str) -> bool:
        token = self.peek()
        return token is not None and token.kind == "op" and token.text in ops

    # precedence: sum < product < unary < power < primary

    def parse_sum(self):
        value = self.parse_product()
        while self.at_op("+", "-"):
            op = self.next().text
            rhs = self.parse_product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_product(self):
        value = self.parse_unary()
        while self.at_op("*", "/"):
            op = self.next()
            rhs = self.parse_unary()
            if op.text == "*":
                weights = _weight(value), _weight(rhs)
                if min(weights) > 0:
                    _check_weight(sum(weights), "product", op.position)
                value = value * rhs
            elif isinstance(rhs, SCALAR_TYPES) and not rhs:
                raise ParseError(f"division by zero at position {op.position}")
            else:
                value = value / rhs
        return value

    def parse_unary(self):
        if self.at_op("-"):
            self.next()
            return -self.parse_unary()
        if self.at_op("+"):
            self.next()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_primary()
        if self.at_op("^"):
            op = self.next()
            exponent = self.parse_int_exponent()
            if exponent < 0 and isinstance(base, SCALAR_TYPES) and not base:
                raise ParseError(f"division by zero at position {op.position}")
            degree = _degree(base) * abs(exponent)
            if degree > MAX_EXPONENT:
                raise LimitError(
                    f"power of degree {degree} at position {op.position} exceeds the limit {MAX_EXPONENT}"
                )
            # A kept coefficient of a series power with a weight-0 constant
            # term multiplies at most min(n, order) coefficients of positive
            # weight; a negative power divides and keeps the plain bound.
            times = abs(exponent)
            if isinstance(base, TruncSeries) and exponent >= 0 and not _weight(base.coeffs[0]):
                times = min(exponent, base.order)
            _check_weight(_weight(base) * times, "power", op.position)
            return base ** exponent
        return base

    def parse_int_exponent(self) -> int:
        if self.at_op("("):
            self.next()
            value = self.parse_int_exponent()
            self.expect_op(")")
            return value
        sign = 1
        if self.at_op("-"):
            self.next()
            sign = -1
        token = self.next()
        if token.kind != "int":
            raise ParseError(f"expected an integer exponent at position {token.position}")
        if int(token.text) > MAX_EXPONENT:
            raise LimitError(
                f"exponent {token.text} at position {token.position} exceeds the limit {MAX_EXPONENT}"
            )
        return sign * int(token.text)

    def parse_int_list(self) -> list[int]:
        parts: list[int] = []
        self.expect_op("[")
        if self.at_op("]"):
            self.next()
            return parts
        while True:
            token = self.next()
            if token.kind != "int":
                raise ParseError(f"expected an integer at position {token.position}")
            parts.append(int(token.text))
            if self.at_op("]"):
                self.next()
                return parts
            self.expect_op(",")

    def parse_primary(self):
        token = self.next()
        if token.kind == "int":
            return Rational(int(token.text))
        if token.kind == "op" and token.text == "(":
            value = self.parse_sum()
            self.expect_op(")")
            return value
        if token.kind == "name":
            name = token.text
            if name in _BASIS_NAMES and self.at_op("["):
                return self._basis_atom(name, token.position)
            if name == "t":
                if self.order is None:
                    raise ParseError("the series variable t needs a truncation order")
                return TruncSeries.t_var(self.order)
            if name not in self.vars:
                raise ParseError(f"unknown variable {name!r}")
            return LaurentPoly.var(name, self.vars)
        raise ParseError(f"unexpected token {token.text!r} at position {token.position}")

    def _basis_atom(self, name: str, position: int):
        if self.bound is None:
            raise ParseError(
                f"symmetric-function atom {name}[...] needs a generator bound"
            )
        parts = self.parse_int_list()
        if name in ("h", "e") and len(parts) != 1:
            raise ParseError(
                f"{name}[...] takes exactly one index (position {position})"
            )
        if name != "p" and sum(parts) > MAX_ATOM_WEIGHT:
            raise LimitError(
                f"weight {sum(parts)} of {name}[...] at position {position} exceeds the limit {MAX_ATOM_WEIGHT}"
            )
        return basis_in_p(name, parts[0] if name in ("h", "e") else tuple(parts), self.bound)


def scan_variables(text: str) -> tuple[str, ...]:
    """Variable names used by an expression (excluding t and basis atoms)."""
    tokens = _tokenize(text)
    names = set()
    for i, token in enumerate(tokens):
        if token.kind != "name" or token.text == "t":
            continue
        follows_bracket = (
            i + 1 < len(tokens)
            and tokens[i + 1].kind == "op"
            and tokens[i + 1].text == "["
        )
        if token.text in _BASIS_NAMES and follows_bracket:
            continue
        names.add(token.text)
    return tuple(sorted(names))


def parse_expression(
    text: str,
    order: int | None = None,
    bound: int | None = None,
    vars: tuple[str, ...] | None = None,
):
    """Parse and evaluate; the result is a Fraction, LaurentPoly, SymFunc or
    TruncSeries depending on which atoms appear."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    if vars is None:
        vars = scan_variables(text)
    if bound is None:
        bound = order
    parser = _Parser(tokens, order, bound, tuple(vars))
    value = parser.parse_sum()
    if parser.peek() is not None:
        token = parser.peek()
        raise ParseError(f"trailing input {token.text!r} at position {token.position}")
    return value


def parse_poly(text: str, vars: tuple[str, ...] | None = None) -> LaurentPoly:
    """Parse a Laurent polynomial (a bare rational becomes a constant)."""
    return as_poly(parse_expression(text, vars=vars), vars)


def as_poly(value, vars: tuple[str, ...] | None = None) -> LaurentPoly:
    """A parsed or loaded value as a Laurent polynomial."""
    if isinstance(value, SCALAR_TYPES):
        return LaurentPoly.constant(value, vars or ())
    if isinstance(value, LaurentPoly):
        return value
    raise ParseError(f"expected a polynomial, got {type(value).__name__}")


def parse_symfunc(
    text: str, bound: int, vars: tuple[str, ...] | None = None
) -> SymFunc:
    """Parse a symmetric function with the given generator bound."""
    return as_symfunc(parse_expression(text, bound=bound, vars=vars), bound)


def as_symfunc(value, bound: int) -> SymFunc:
    """A parsed or loaded value as a symmetric function; a rational or a
    polynomial becomes a constant with generator bound ``bound``."""
    if isinstance(value, SCALAR_TYPES) or isinstance(value, LaurentPoly):
        return SymFunc.constant(value, bound, getattr(value, "vars", ()))
    if isinstance(value, SymFunc):
        return value
    raise ParseError(f"expected a symmetric function, got {type(value).__name__}")


def parse_series(
    text: str,
    order: int,
    bound: int | None = None,
    vars: tuple[str, ...] | None = None,
) -> TruncSeries:
    """Parse a truncated series; non-series values become constant series."""
    value = parse_expression(text, order=order, bound=bound, vars=vars)
    if isinstance(value, TruncSeries):
        return value
    return TruncSeries.constant(value, order)
