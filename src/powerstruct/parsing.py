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
  coefficients it keeps, so ``(1 + p[1]^11*t)^3`` parses at order 1
* no series ``^`` may do more work than :data:`MAX_POWER_WORK` term
  products, estimated from the terms its coefficients can reach:
  ``(1 + (h[0]+...+h[5])*t)^1000`` at order 5 is refused before its first
  product, while ``(1 + t)^1000`` parses at order 256; a ``/`` by a series
  is held to the same cap, with the estimate of the divisor's ``^(-1)``:
  ``1/(1 - (p[1]+p[2]+p[3])*t)`` is refused from order 106 on, while
  ``1/(1 - p[1]*t)`` parses at order 256

so ``1/2*p[1,1] + 1/2*p[2]``, ``L^5 - L^2``, ``1/(1 - L*t)`` and
``(1 + t)^3`` all parse.  The name ``t`` is reserved, and ``p``/``h``/``e``/
``s`` are special only when directly followed by ``[``.
"""

from __future__ import annotations

import re
from itertools import accumulate
from operator import add

from .errors import LimitError, ParseError
from .rings import _ONE, _ZERO, MAX_EXPONENT, SCALAR_TYPES, LaurentPoly, Rational, _coefficient
from .series import TruncSeries, _invert_leading
from .symfunc import SymFunc, basis_in_p

# One token after any whitespace; a character no token starts with is
# matched alone as "bad", so the scan never skips one.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()\[\],])|(?P<bad>\S))"
)

_BASIS_NAMES = ("p", "h", "e", "s")

# Largest weight of an h[k], e[k] or s[...] atom.  At 40, h[40] has 37338
# terms (0.24 s, 58 MB) and the slowest s[...] atoms, s[7,7,7,7,6,6] and
# s[7,7,7,7,7,5], take ~9 s and 38 MB, both on a 2-core machine; h[45]
# already takes 147 MB.  A heavier atom is refused before it is expanded.
MAX_ATOM_WEIGHT = 40
# Largest weight a ``*`` of two symmetric functions or a ``^`` may build.
# The slowest accepted product squares a dense sum of all partitions up to
# half the cap: on a 2-core machine (h[0]+...+h[m])^2 takes 1.9 s at m = 13,
# 6.8 s (43 MB) at m = 15 and 13.3 s (57 MB) at m = 16, and
# (h[0]+...+h[10])^3 6.7 s.  At 30 the slowest takes about half the ~12 s
# of the slowest atom, which leaves room for the machine's speed drift.
MAX_WEIGHT = 30
# Largest estimated work of a series ``^`` or ``/``, in term products (see
# _power_work).  On a 2-core machine one symmetric-function term product
# takes 10-17 us and a polynomial one 2-8 us.  Near the cap,
# (1 + (h[0]+...+h[15])*t)^3 at order 2 (work 966000) takes 15.7 s,
# (1 + (h[0]+...+h[5])*t)^31 at order 5 (921000) 9.7 s,
# (1 + (L+1)*t)^1000 at order 64 (935000) 5 s and
# 1/(1 - (p[1]+p[2]+p[3])*t) at order 104 (976000) 16 s and 229 MB; refused,
# (1 + (h[0]+...+h[5])*t)^1000 took 32 s at order 5 (2170000) and 124 s
# at order 6 (12300000).
MAX_POWER_WORK = 10**6


Token = tuple[str, str, int]


def tokenize(text: str) -> list[Token]:
    """The (kind, text, position) of each integer, name and operator of an
    expression, in one pass; kind is ``int``, ``name`` or ``op``."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        position = match.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {text[position]!r} at position {position}")
        tokens.append((kind, match[kind], position))
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


def _check_work(work: int, what: str, position: int) -> None:
    if work > MAX_POWER_WORK:
        raise LimitError(f"{what} of work {work} at position {position} exceeds the limit {MAX_POWER_WORK}")


def _terms(value) -> list[tuple[int, tuple[int, ...]]]:
    """(weight, exponents) of each term of a coefficient."""
    if isinstance(value, SymFunc):
        return [(sum(p) + w, exps) for p, c in value.terms.items() for w, exps in _terms(c)]
    if isinstance(value, LaurentPoly):
        return [(0, exps) for exps in value.terms]
    return [(0, ())] if value else []


def _partition_counts(weight: int, bound: int) -> list[int]:
    """For each w <= weight, the partitions of weight at most w with parts
    at most bound."""
    counts = [1] + [0] * weight
    for part in range(1, min(weight, bound) + 1):
        # counts[w] += counts[w - part] for w >= part, one residue class at a time
        for residue in range(part):
            counts[residue::part] = accumulate(counts[residue::part])
    return list(accumulate(counts))


def _multisets(counts: list[int], order: int) -> list[int]:
    """For k <= order, the multisets of terms whose t-degrees add up to k,
    with counts[j] terms of t-degree j >= 1: the t^k coefficients of the
    product over j of (1 - t^j)^(-counts[j]).  Each factor is folded in one
    step with its coefficients C(c + m - 1, m) at t^(jm), so the cost does
    not grow with the number of terms."""
    multisets = [1] + [0] * order
    for j, c in enumerate(counts[1 : order + 1], start=1):
        if c:
            folded = multisets[:]
            binomial = 1
            for m in range(1, order // j + 1):
                binomial = binomial * (c + m - 1) // m
                shift = m * j
                scaled = map(binomial.__mul__, multisets[: order + 1 - shift])
                folded[shift:] = map(add, folded[shift:], scaled)
            multisets = folded
    return multisets


def _power_work(base: TruncSeries, n: int, weight: int) -> int:
    """An upper estimate of the term products that ``base ** n`` makes: for
    a negative n, first the division recurrence of 1 / base, one product of
    base and its inverse; then, by binary powering, over its series
    products, the term products of coefficients holding every term they can
    reach.

    With a constant term c, the t^k coefficient of base ** a (or of a power
    of the inverse that a negative n raises) sums c-multiples of products
    of f <= k terms of a_1, ..., a_k whose t-degrees add up to k, f <= a
    for n >= 0.  So it has no more terms than there are such multisets,
    nor than fit in the weights and exponents that f terms reach: weights
    up to ``weight``, the grammar's bound, for n >= 0, and up to k times
    the heaviest term of base for n < 0.  With any other constant term,
    f = a (a + k for n < 0); an inverse needs a unit, one term, so both
    bounds still hold for n < 0, but only the second for n >= 0.  A
    product of one-variable polynomials is counted as the sum of their
    terms (it packs them into integers), any other as the product."""
    order, zero = base.order, base._zero
    per_index = [_terms(c) for c in base.coeffs]
    constant = per_index[0] == [(0, (0,) * len(getattr(zero, "vars", ())))]
    everything = [term for terms in per_index for term in terms]
    spans = [max(e) - min(e) for e in zip(*(exps for _, exps in everything))]
    top = max((w for w, _ in everything), default=0)
    if n < 0:
        weight = top * order
    partitions = _partition_counts(weight, zero.bound) if isinstance(zero, SymFunc) else None
    multisets = _multisets([len(terms) for terms in per_index], order)

    def reach(a: int) -> list[int]:
        if a == 1 and n > 0:
            return [len(terms) for terms in per_index]
        out = []
        for k in range(order + 1):
            if constant:
                f = min(a, k) if n > 0 else k
            else:
                f = a if n > 0 else a + k
            terms = 1
            for span in spans:
                terms *= f * span + 1
            if partitions is not None:
                terms *= partitions[min(weight, top * f)]
            out.append(min(terms, multisets[k]) if constant or n < 0 else terms)
        return out

    packed = isinstance(zero, LaurentPoly) and len(zero.vars) == 1

    def product(x: list[int], y: list[int]) -> int:
        if packed:
            x_count = list(accumulate(1 if c else 0 for c in x))
            y_count = list(accumulate(1 if c else 0 for c in y))
            return sum(c * y_count[order - i] for i, c in enumerate(x)) + sum(
                c * x_count[order - j] for j, c in enumerate(y)
            )
        y_sum = list(accumulate(y))
        return sum(c * y_sum[order - i] for i, c in enumerate(x))

    # 1 / base for a negative n, then the steps of arith.binary_power:
    # result = base ** done, power = base ** a.
    work, m = 0, abs(n)
    if n < 0:
        work = product([len(terms) for terms in per_index], reach(1))
    result, done = [1] + [0] * order, 0
    power, a = reach(1), 1
    while m:
        if m & 1:
            work += product(result, power)
            done += a
            result = reach(done)
        if m > 1:
            work += product(power, power)
            a *= 2
            power = reach(a)
        m >>= 1
    return work


class _Parser:
    def __init__(
        self,
        tokens: list[Token],
        order: int | None,
        bound: int | None,
        vars: tuple[str, ...],
    ):
        self.tokens = tokens
        self.index = 0
        self.order = order
        self.bound = bound
        self.vars = vars
        # t and its powers are built over the alphabet's ring, so that a
        # polynomial coefficient scales them without a promotion.
        self.zero, self.one = _coefficient(_ZERO, vars), _coefficient(_ONE, vars)

    def peek(self) -> Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of expression")
        self.index += 1
        return token

    def expect_op(self, op: str) -> None:
        kind, text, position = self.next()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r} at position {position}")

    def at_op(self, *ops: str) -> bool:
        # Only an operator token has an operator's text.
        token = self.peek()
        return token is not None and token[1] in ops

    # precedence: sum < product < unary < power < primary

    def parse_sum(self):
        value = self.parse_product()
        while self.at_op("+", "-"):
            op = self.next()[1]
            rhs = self.parse_product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_product(self):
        value = self.parse_unary()
        while self.at_op("*", "/"):
            _, op, position = self.next()
            rhs = self.parse_unary()
            if op == "*":
                weights = _weight(value), _weight(rhs)
                if min(weights) > 0:
                    _check_weight(sum(weights), "product", position)
                value = value * rhs
            elif isinstance(rhs, SCALAR_TYPES) and not rhs:
                raise ParseError(f"division by zero at position {position}")
            else:
                if isinstance(rhs, TruncSeries):
                    # A divisor that is not a unit fails as the division would.
                    _invert_leading(rhs.coeffs[0])
                    _check_work(_power_work(rhs, -1, _weight(rhs)), "series division", position)
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
        start = self.index
        base = self.parse_primary()
        if not self.at_op("^"):
            return base
        # One name token read: the base is t or a variable.
        literal = self.index == start + 1 and self.tokens[start][0] == "name"
        position = self.next()[2]
        exponent = self.parse_int_exponent()
        if exponent < 0 and isinstance(base, SCALAR_TYPES) and not base:
            raise ParseError(f"division by zero at position {position}")
        degree = _degree(base) * abs(exponent)
        if degree > MAX_EXPONENT:
            raise LimitError(
                f"power of degree {degree} at position {position} exceeds the limit {MAX_EXPONENT}"
            )
        # A kept coefficient of a series power with a weight-0 constant
        # term multiplies at most min(n, order) coefficients of positive
        # weight; a negative power divides and keeps the plain bound.
        times = abs(exponent)
        if isinstance(base, TruncSeries) and exponent >= 0 and not _weight(base.coeffs[0]):
            times = min(exponent, base.order)
        weight = _weight(base) * times
        _check_weight(weight, "power", position)
        if isinstance(base, TruncSeries) and not literal:
            _check_work(_power_work(base, exponent, weight), "series power", position)
        if literal:
            name = self.tokens[start][1]
            if name != "t":
                return self._monomial(name, exponent)
            if exponent >= 0:
                return self._t_power(exponent)
        return base ** exponent

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
        kind, text, position = self.next()
        if kind != "int":
            raise ParseError(f"expected an integer exponent at position {position}")
        if int(text) > MAX_EXPONENT:
            raise LimitError(
                f"exponent {text} at position {position} exceeds the limit {MAX_EXPONENT}"
            )
        return sign * int(text)

    def parse_int_list(self) -> list[int]:
        parts: list[int] = []
        self.expect_op("[")
        if self.at_op("]"):
            self.next()
            return parts
        while True:
            kind, text, position = self.next()
            if kind != "int":
                raise ParseError(f"expected an integer at position {position}")
            parts.append(int(text))
            if self.at_op("]"):
                self.next()
                return parts
            self.expect_op(",")

    def parse_primary(self):
        kind, text, position = self.next()
        if kind == "int":
            return Rational(int(text))
        if text == "(":
            value = self.parse_sum()
            self.expect_op(")")
            return value
        if kind == "name":
            if text in _BASIS_NAMES and self.at_op("["):
                return self._basis_atom(text, position)
            if text == "t":
                if self.order is None:
                    raise ParseError("the series variable t needs a truncation order")
                return self._t_power(1)
            if text not in self.vars:
                raise ParseError(f"unknown variable {text!r}")
            return self._monomial(text, 1)
        raise ParseError(f"unexpected token {text!r} at position {position}")

    def _t_power(self, k: int) -> TruncSeries:
        """t^k for k >= 0: one coefficient 1, none past the order."""
        coeffs = [self.zero] * (self.order + 1)
        if k <= self.order:
            coeffs[k] = self.one
        return TruncSeries._raw(coeffs, self.order, self.zero)

    def _monomial(self, name: str, k: int) -> LaurentPoly:
        """name^k as a one-term polynomial over the alphabet."""
        exps = [0] * len(self.vars)
        exps[self.vars.index(name)] = k
        return LaurentPoly._raw(self.vars, {tuple(exps): _ONE})

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


def variables(*token_lists: list[Token]) -> tuple[str, ...]:
    """The sorted variable names of expressions given by their tokens: every
    name but t and a p, h, e or s directly followed by ``[``."""
    names = set()
    for tokens in token_lists:
        for i, (kind, text, _) in enumerate(tokens):
            if kind != "name" or text == "t":
                continue
            if text in _BASIS_NAMES and i + 1 < len(tokens) and tokens[i + 1][1] == "[":
                continue
            names.add(text)
    return tuple(sorted(names))


def parse_expression(
    text: str | list[Token],
    order: int | None = None,
    bound: int | None = None,
    vars: tuple[str, ...] | None = None,
):
    """Parse and evaluate an expression, given as text or as the tokens
    :func:`tokenize` made of it; the result is a Fraction, LaurentPoly,
    SymFunc or TruncSeries depending on which atoms appear."""
    tokens = tokenize(text) if isinstance(text, str) else text
    if not tokens:
        raise ParseError("empty expression")
    if vars is None:
        vars = variables(tokens)
    if bound is None:
        bound = order
    parser = _Parser(tokens, order, bound, tuple(vars))
    value = parser.parse_sum()
    if parser.peek() is not None:
        _, text, position = parser.peek()
        raise ParseError(f"trailing input {text!r} at position {position}")
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
