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
  are refused
* no ``*`` of two symmetric functions and no ``^`` may build a term of
  weight beyond :data:`MAX_WEIGHT`, through series coefficients too:
  ``(p[1]+p[2]+p[3])^11`` and ``h[20]*h[11]`` are refused, while
  ``2*h[40]`` parses; a series power counts only the coefficients it
  keeps, so ``(1 + p[1]^11*t)^3`` parses at order 1
* no series ``^`` may do more work than :data:`MAX_POWER_WORK` term
  products, estimated from the terms its coefficients can reach:
  ``(1 + (h[0]+...+h[5])*t)^1000`` at order 5 is refused, while
  ``(1 + t)^1000`` parses at order 256; a ``/`` by a series is held to the
  same cap, with the estimate of the divisor's ``^(-1)``:
  ``1/(1 - (p[1]+p[2]+p[3])*t)`` is refused from order 106 on, while
  ``1/(1 - p[1]*t)`` parses at order 256

so ``1/2*p[1,1] + 1/2*p[2]``, ``L^5 - L^2``, ``1/(1 - L*t)`` and
``(1 + t)^3`` all parse.  The name ``t`` is reserved, and ``p``/``h``/``e``/
``s`` are special only when directly followed by ``[``.

A value nested deeper than the recursion of the parser, the size pass or
the evaluation allows, such as about 190 levels of parentheses, is refused
with a ParseError, ``expression nested too deeply``.

An expression is read into a tree first, which raises every syntax error.
A size pass then bounds the terms, weights and exponents of each node per
t-degree and checks every cap on these bounds, in the order evaluation
meets them.  Only then is the tree evaluated, so a value over a cap is
refused before any part of it is built.
"""

from __future__ import annotations

import re
from functools import partial, reduce
from itertools import accumulate
from math import comb, prod
from operator import add, mul, sub, truediv
from typing import Callable

from .errors import LimitError, ParseError
from .rings import _ONE, _ZERO, MAX_EXPONENT, SCALAR_TYPES, LaurentPoly, Rational, _coefficient
from .series import TruncSeries
from .symfunc import basis_in_p

# One token after any whitespace; a character no token starts with is
# matched alone as "bad", so the scan never skips one.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()\[\],])|(?P<bad>\S))"
)

_BASIS_NAMES = ("p", "h", "e", "s")
_OPERATORS = {"+": add, "-": sub, "*": mul, "/": truediv, "^": pow}

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
# A cell bounds the terms of one t-degree: (number of terms, largest weight,
# lowest and highest exponent of each variable of the alphabet).
Cell = tuple[int, int, tuple[int, ...], tuple[int, ...]]
# A size is (order, ring, cells): order None for a value that is no series,
# the ring _Q, _POLY or _SYM (symmetric functions), and a cell for each
# t-degree that may hold terms (only 0 outside a series).
Size = tuple[int | None, int, dict[int, Cell]]
_Q, _POLY, _SYM = range(3)


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


def _check(amount: int, limit: int, what: str, position: int | None) -> None:
    """Refuse an amount past its limit; ``{}`` in ``what`` stands for it."""
    if amount > limit:
        raise LimitError(f"{what.format(amount)} at position {position} exceeds the limit {limit}")


def _heaviest(size: Size) -> int:
    return max((cell[1] for cell in size[2].values()), default=0)


def _widest(size: Size) -> int:
    return max((abs(e) for cell in size[2].values() for e in cell[2] + cell[3]), default=0)


def _add_cells(x: Cell | None, y: Cell | None) -> Cell | None:
    if x is None or y is None:
        return y or x
    return (x[0] + y[0], max(x[1], y[1]), tuple(map(min, x[2], y[2])), tuple(map(max, x[3], y[3])))


def _box(lo: tuple[int, ...], hi: tuple[int, ...]) -> int:
    """The exponent vectors between lo and hi."""
    return prod(h - l + 1 for l, h in zip(lo, hi))


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


def _power_work(base: Size, n: int, weight: int, bound: int) -> tuple[int, dict[int, Cell]]:
    """An upper estimate of the term products that ``base ** n`` makes,
    and the cells of ``base ** n``, for the size of a series base: for a
    negative n, first the division recurrence of 1 / base, one product of
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
    order, ring, cells = base
    counts = [cells[k][0] if k in cells else 0 for k in range(order + 1)]
    constant = cells.get(0, ())[:2] == (1, 0) and not any(cells[0][2] + cells[0][3])
    _, top, lo, hi = reduce(_add_cells, cells.values(), None) or (0, 0, (), ())
    spans = [h - l for l, h in zip(lo, hi)]
    if n < 0:
        weight = top * order
    partitions = _partition_counts(weight, bound) if ring == _SYM else None
    multisets = _multisets(counts, order)

    def factors(a: int) -> list[int]:
        if constant:
            return [min(a, k) if n > 0 else k for k in range(order + 1)]
        return [a if n > 0 else a + k for k in range(order + 1)]

    def reach(a: int) -> list[int]:
        if a == 1 and n > 0:
            return counts
        out = []
        for k, f in enumerate(factors(a)):
            terms = prod(f * span + 1 for span in spans)
            if partitions is not None:
                terms *= partitions[min(weight, top * f)]
            out.append(min(terms, multisets[k]) if constant or n < 0 else terms)
        return out

    def pairs(x: list[int], y: list[int]) -> int:
        y_sum = list(accumulate(y))
        return sum(c * y_sum[order - i] for i, c in enumerate(x))

    def product(x: list[int], y: list[int]) -> int:
        if ring == _POLY and len(lo) == 1:
            # Packed into integers, a term meets whole coefficients of the other.
            return pairs(x, map(bool, y)) + pairs(map(bool, x), y)
        return pairs(x, y)

    # 1 / base for a negative n, then the steps of arith.binary_power:
    # result = base ** done, power = base ** a.
    work, m = 0, abs(n)
    if n < 0:
        work = product(counts, reach(1))
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
    if n < 0 and not constant:
        # The inverse of a unit c x^e holds powers of x^-e.
        lo, hi = [min(l, -h) for l, h in zip(lo, hi)], [max(h, -l) for l, h in zip(lo, hi)]
    return work, {
        k: (count, min(weight, top * f), tuple(f * e for e in lo), tuple(f * e for e in hi))
        for k, (count, f) in enumerate(zip(result, factors(done))) if count
    }


class _Parser:
    """Builds the tree of an expression, whose nodes are tuples: ("num", n),
    ("t",), ("var", name), ("atom", name, parts, position), ("power", node,
    n, exponent digits, exponent position, position) and ("sum" or
    "product", node, [(op, node, position), ...]); -x is read as 0 - x."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0
        self.names: set[str] = set()

    def peek(self) -> Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> Token:
        # No call to peek: the deepest frame of the recursion is this one,
        # and each frame less lets a value nest one step deeper.
        if self.index == len(self.tokens):
            raise ParseError("unexpected end of expression")
        self.index += 1
        return self.tokens[self.index - 1]

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
        node, rest = self.parse_product(), []
        while self.at_op("+", "-"):
            _, op, position = self.next()
            rest.append((op, self.parse_product(), position))
        return ("sum", node, rest) if rest else node

    def parse_product(self):
        node, rest = self.parse_unary(), []
        while self.at_op("*", "/"):
            _, op, position = self.next()
            rest.append((op, self.parse_unary(), position))
        return ("product", node, rest) if rest else node

    def parse_unary(self):
        if not self.at_op("-", "+"):
            return self.parse_power()
        sign, node = self.next()[1], self.parse_unary()
        return ("sum", ("num", 0), [("-", node, None)]) if sign == "-" else node

    def parse_power(self):
        base = self.parse_primary()
        if not self.at_op("^"):
            return base
        position = self.next()[2]
        return ("power", base, *self.parse_int_exponent(), position)

    def parse_int_exponent(self) -> tuple[int, str, int]:
        """The exponent, its digits and their position."""
        opened = 0
        while self.at_op("("):
            self.next()
            opened += 1
        sign = -1 if self.at_op("-") else 1
        if sign < 0:
            self.next()
        kind, text, position = self.next()
        if kind != "int":
            raise ParseError(f"expected an integer exponent at position {position}")
        for _ in range(opened):
            self.expect_op(")")
        return sign * int(text), text, position

    def parse_int_list(self) -> list[int]:
        self.expect_op("[")
        parts: list[int] = []
        while parts or not self.at_op("]"):
            kind, text, position = self.next()
            if kind != "int":
                raise ParseError(f"expected an integer at position {position}")
            parts.append(int(text))
            if self.at_op("]"):
                break
            self.expect_op(",")
        self.next()
        return parts

    def parse_primary(self):
        kind, text, position = self.next()
        if kind == "int":
            return ("num", int(text))
        if text == "(":
            node = self.parse_sum()
            self.expect_op(")")
            return node
        if kind != "name":
            raise ParseError(f"unexpected token {text!r} at position {position}")
        if text in _BASIS_NAMES and self.at_op("["):
            parts = self.parse_int_list()
            if text in ("h", "e") and len(parts) != 1:
                raise ParseError(f"{text}[...] takes exactly one index (position {position})")
            return ("atom", text, tuple(parts), position)
        if text == "t":
            return ("t",)
        self.names.add(text)
        return ("var", text)


class _Sizes:
    """The size pass over a tree, for one order, bound and alphabet: each
    node kind names the method that gives a node's size, once its caps hold
    in the order evaluation meets them, and a function that builds it."""

    def __init__(self, order: int | None, bound: int | None, vars: tuple[str, ...]):
        self.order, self.bound, self.vars = order, bound, vars
        # t and its powers are built over the alphabet's ring, so that a
        # polynomial coefficient scales them without a promotion.
        self.zero, self.one = _coefficient(_ZERO, vars), _coefficient(_ONE, vars)
        origin = (0,) * len(vars)
        self.unit: Cell = (1, 0, origin, origin)

    def walk(self, node) -> tuple[Size, Callable]:
        if node[0] not in ("sum", "product"):
            return getattr(self, node[0])(*node[1:])
        size, build = self.walk(node[1])
        steps = []
        for op, rhs, position in node[2]:
            rhs_size, build_rhs = self.walk(rhs)
            size = self.combine(op, size, rhs_size, position)
            steps.append((op, build_rhs, position))
        return size, partial(_chain, build, steps)

    def num(self, n: int):
        return (None, _Q, {0: self.unit} if n else {}), partial(Rational, n)

    def t(self, k: int = 1):
        if self.order is None:
            raise ParseError("the series variable t needs a truncation order")
        cells = {k: self.unit} if 0 <= k <= self.order else {}
        return (self.order, _POLY if self.vars else _Q, cells), partial(self.t_power, k)

    def t_power(self, k: int) -> TruncSeries:
        """t^k for k >= 0: one coefficient 1, none past the order."""
        coeffs = [self.one if j == k else self.zero for j in range(self.order + 1)]
        return TruncSeries._raw(coeffs, self.order, self.zero)

    def var(self, name: str, k: int = 1):
        if name not in self.vars:
            raise ParseError(f"unknown variable {name!r}")
        exps = tuple(k * (v == name) for v in self.vars)
        size = None, _POLY, {0: (1, 0, exps, exps)}
        return size, lambda: LaurentPoly._raw(self.vars, {exps: _ONE})

    def atom(self, name: str, parts: tuple[int, ...], position: int):
        if self.bound is None:
            raise ParseError(f"symmetric-function atom {name}[...] needs a generator bound")
        weight = sum(parts)
        if name != "p":
            _check(weight, MAX_ATOM_WEIGHT, f"weight {{}} of {name}[...]", position)
        # An h, e or s atom of weight k has at most one term per partition of k.
        counts = [0, 1] if name == "p" else _partition_counts(weight, weight)
        count = counts[-1] - (counts[-2] if weight else 0)
        size = None, _SYM, {0: (count, weight, *self.unit[2:])}
        index = parts[0] if name in ("h", "e") else parts
        return size, partial(basis_in_p, name, index, self.bound)

    def power(self, node, n: int, digits: str, exponent_position: int, position: int):
        base, build = self.walk(node)
        order, ring, cells = base
        _check(abs(n), MAX_EXPONENT, f"exponent {digits}", exponent_position)
        _check(_widest(base) * abs(n), MAX_EXPONENT, "power of degree {}", position)
        # A kept coefficient of a series power with a weight-0 constant
        # term multiplies at most min(n, order) coefficients of positive
        # weight; a negative power divides and keeps the plain bound.
        kept = order is not None and n >= 0 and not cells.get(0, self.unit)[1]
        weight = _heaviest(base) * (min(n, order) if kept else abs(n))
        _check(weight, MAX_WEIGHT, "power of weight {}", position)
        # A variable to a power, or t to a power k >= 0, is one term.
        if node[0] == "var" or node[0] == "t" and n >= 0:
            return getattr(self, node[0])(*node[1:], n)
        if not (cells and n):
            cells = {} if n else {0: self.unit}
        elif order is None:
            cells = {0: _power_cell(cells[0], n, ring)}
        else:
            work, cells = _power_work(base, n, weight, self.bound)
            _check(work, MAX_POWER_WORK, "series power of work {}", position)
        return (order, ring, cells), partial(_chain, build, [("^", partial(int, n), position)])

    def combine(self, op: str, size: Size, rhs: Size, position: int) -> Size:
        order, ring = size[0] if size[0] is not None else rhs[0], max(size[1], rhs[1])
        cells, other, exact = size[2], rhs[2], False
        if op in ("+", "-"):
            keys = cells.keys() | other.keys()
            return order, ring, {k: _add_cells(cells.get(k), other.get(k)) for k in keys}
        if op == "/" and rhs[0] is not None:
            work, other = _power_work(rhs, -1, _heaviest(rhs), self.bound)
            # A divisor without a constant term fails as the division would.
            if 0 in rhs[2]:
                _check(work, MAX_POWER_WORK, "series division of work {}", position)
        elif op == "/":
            # A quotient by a unit c x^e is a product by its inverse.  Only
            # a polynomial divides by more terms, and its exact quotient
            # may hold more terms than the product of the counts, as
            # (u^1000 - v^1000)/(u - v) does; each variable's exponents
            # span the dividend's less the divisor's, so no more than the
            # dividend's exponent box.
            exact = order is None and ring != _SYM and other.get(0, self.unit)[0] > 1
            other = {0: _power_cell(cell, -1, ring) for cell in other.values()}
        elif min(_heaviest(size), _heaviest(rhs)) > 0:
            _check(_heaviest(size) + _heaviest(rhs), MAX_WEIGHT, "product of weight {}", position)
        out: dict[int, Cell] = {}
        for i, x in cells.items():
            for j, y in other.items():
                if i + j <= (order or 0):
                    lo, hi = tuple(map(add, x[2], y[2])), tuple(map(add, x[3], y[3]))
                    box = x[0] * y[0] if ring == _SYM else _box(lo, hi)
                    count = _box(x[2], x[3]) if exact else min(x[0] * y[0], box)
                    out[i + j] = _add_cells(out.get(i + j), (count, x[1] + y[1], lo, hi))
        return order, ring, out


def _power_cell(cell: Cell, n: int, ring: int) -> Cell:
    """The cell of x ** n for a value x that is no series: at most one term
    per multiset of |n| terms of x."""
    count, weight, lo, hi = cell
    scaled = tuple(n * e for e in lo), tuple(n * e for e in hi)
    lo, hi = scaled if n > 0 else scaled[::-1]
    count = comb(count + abs(n) - 1, abs(n))
    return count if ring == _SYM else min(count, _box(lo, hi)), weight * abs(n), lo, hi


def _chain(build: Callable, steps: list) -> object:
    """The value of a sum, a product or a power, one operand at a time."""
    value = build()
    for op, build_rhs, position in steps:
        rhs = build_rhs()
        # x / 0 and 0 ^ -n divide by a rational zero; a power's step is n.
        divisor = rhs if op == "/" else value if op == "^" and rhs < 0 else 1
        if isinstance(divisor, SCALAR_TYPES) and not divisor:
            raise ParseError(f"division by zero at position {position}")
        value = _OPERATORS[op](value, rhs)
    return value


# The parser, the size pass and the evaluation recurse once per level of a
# value's nesting, so a value nested deeper than the interpreter's stack
# allows is refused with this one error where its recursion overflows:
# about 190 levels of parentheses, or about 980 signs in a row.  The
# parentheses round an exponent are counted in a loop and do not recurse.
_TOO_DEEP = "expression nested too deeply"


def parse_tree(text: str) -> tuple[tuple, set[str]]:
    """The tree of an expression and the variable names it holds, once it
    has no syntax error."""
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    parser = _Parser(tokens)
    try:
        tree = parser.parse_sum()
    except RecursionError:
        raise ParseError(_TOO_DEEP) from None
    if parser.peek() is not None:
        _, text, position = parser.peek()
        raise ParseError(f"trailing input {text!r} at position {position}")
    return tree, parser.names


def parse_expression(
    text: str | tuple[tuple, set[str]],
    order: int | None = None,
    bound: int | None = None,
    vars: tuple[str, ...] | None = None,
    check: Callable[[Size], None] | None = None,
):
    """Parse an expression, given as text or as what :func:`parse_tree` made
    of it, and build its Fraction, LaurentPoly, SymFunc or TruncSeries once
    every cap holds and ``check``, if given, has passed the size of the
    whole value."""
    if bound is None:
        bound = order
    tree, names = parse_tree(text) if isinstance(text, str) else text
    vars = tuple(sorted(names) if vars is None else vars)
    try:
        size, build = _Sizes(order, bound, vars).walk(tree)
        if check is not None:
            check(size)
        return build()
    except RecursionError:
        raise ParseError(_TOO_DEEP) from None
