"""The expression grammar."""

import re
from fractions import Fraction
from math import comb
from operator import le

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from powerstruct import (
    ConstantTermError, LaurentPoly, LimitError, ParseError, PowerStructError, SymFunc, TruncSeries, basis_in_p, partitions_of,
)
from powerstruct import parsing
from powerstruct.cli import _read, main
from powerstruct.parsing import parse_expression, parse_tree, tokenize

L = LaurentPoly.var("L")


class TestPolyGrammar:
    def test_simple(self):
        assert parse_expression("L^5 - L^2") == L**5 - L**2
        assert parse_expression("1+L") == 1 + L

    def test_rational_coefficients(self):
        assert parse_expression("1/2*L + 1") == Fraction(1, 2) * L + 1

    def test_negative_exponents(self):
        assert parse_expression("L^-1 + L^(-2)") == L**-1 + L**-2

    def test_multivariate(self):
        p = parse_expression("u^2*v - 3")
        u = LaurentPoly.var("u", ("u", "v"))
        v = LaurentPoly.var("v", ("u", "v"))
        assert p == u**2 * v - 3

    def test_parentheses_and_unary(self):
        assert parse_expression("-(L - 1)^2") == -(L**2) + 2 * L - 1

    def test_poly_division(self):
        assert parse_expression("(L^2 - L)/(L - 1)") == L

    def test_round_trip_canonical_text(self):
        for p in (L**5 - L**2, Fraction(1, 2) * L + 1, L**-1, LaurentPoly.zero(("L",))):
            assert parse_expression(str(p)) == p


class TestSymFuncGrammar:
    def test_power_sums(self):
        f = parse_expression("1/2*p[1,1] + 1/2*p[2]", bound=4)
        assert f == basis_in_p("h", 2, 4)

    def test_basis_atoms(self):
        assert parse_expression("h[2]", bound=4) == basis_in_p("h", 2, 4)
        assert parse_expression("e[2]", bound=4) == basis_in_p("e", 2, 4)
        assert parse_expression("s[2,1]", bound=4) == basis_in_p("s", (2, 1), 4)

    def test_polynomial_coefficients(self):
        f = parse_expression("u*p[1]", bound=3)
        u = LaurentPoly.var("u")
        assert f == u * SymFunc.p(1, 3, ("u",))

    def test_round_trip_canonical_text(self):
        f = basis_in_p("h", 3, 6) - 2 * SymFunc.p(1, 6)
        assert parse_expression(str(f), bound=6) == f


class TestSeriesGrammar:
    """Series values, read as the command line reads a series option."""

    def test_polynomial_series(self):
        assert _read("1+t", "series", 4) == TruncSeries([1, 1], 4)

    def test_rational_function(self):
        geom = _read("1/(1 - L*t)", "series", 3)
        assert geom == TruncSeries([1, L, L**2, L**3], 3)

    def test_power(self):
        assert _read("(1+t)^3", "series", 4) == TruncSeries([1, 3, 3, 1, 0], 4)

    def test_symfunc_coefficients(self):
        series = _read("1 + p[1]*t", "series", 3)
        assert series.coeffs[1] == SymFunc.p(1, 3)

    def test_constant_promoted(self):
        assert _read("5", "series", 2) == TruncSeries.constant(Fraction(5), 2)


class TestErrors:
    def test_unknown_character(self):
        with pytest.raises(ParseError):
            parse_expression("1 { 2")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_expression("1 2")

    def test_t_needs_order(self):
        with pytest.raises(ParseError):
            parse_expression("1+t")

    def test_t_with_a_bound_needs_order(self):
        """t asks for the order with a generator bound as without one."""
        with pytest.raises(ParseError, match="^the series variable t needs a truncation order$"):
            parse_expression("1+t", bound=3)

    def test_basis_needs_bound(self):
        with pytest.raises(ParseError, match=r"^symmetric-function atom h\[\.\.\.\] needs a generator bound$"):
            parse_expression("L + h[2]")

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError):
            parse_expression("L^L")

    def test_unknown_variable_with_fixed_alphabet(self):
        with pytest.raises(ParseError):
            parse_expression("x + y", vars=("x",))

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_expression("   ")

    def test_expected_type(self):
        with pytest.raises(ParseError, match="^expected a polynomial, got SymFunc$"):
            _read("p[1]", "poly", 3)

    @pytest.mark.parametrize(
        "text, position",
        [("1/0", 1), ("L + 3/(1-1)", 5), ("(1+t)/0", 5), ("2*0^-1", 3), ("(2-2)^(-3)", 5)],
    )
    def test_rational_division_by_zero(self, text, position):
        with pytest.raises(ParseError, match=f"^division by zero at position {position}$"):
            parse_expression(text, order=3)

    @pytest.mark.parametrize(
        "text, degree, position",
        [("(L^1000)^1000", 1000000, 8), ("(1 + L^2)^501", 1002, 9), ("(L^-3 + 1)^-334", 1002, 10)],
    )
    def test_power_past_the_exponent_cap(self, text, degree, position):
        with pytest.raises(LimitError, match=f"^power of degree {degree} at position {position} exceeds the limit 1000$"):
            parse_expression(text)

    def test_power_at_the_exponent_cap(self):
        assert parse_expression("(L^2)^500") == L**1000

    @pytest.mark.parametrize(
        "text, what, weight, position",
        [
            ("(p[1]+p[2]+p[3])^-11", "power", 33, 16),
            ("h[20]*h[11]", "product", 31, 5),
            ("(p[1]+p[2]+p[3])^10*(p[1]+p[2]+p[3])^2", "product", 36, 19),
            ("(1 + p[20]*t)^-2", "power", 40, 13),
        ],
    )
    def test_past_the_weight_cap(self, text, what, weight, position):
        with pytest.raises(LimitError, match=f"^{what} of weight {weight} at position {position} exceeds the limit 30$"):
            parse_expression(text, order=3, bound=40)

    def test_series_power_counts_the_kept_coefficients(self):
        """A series power with a weight-0 constant term builds coefficients
        of weight at most min(n, order) times the base's."""
        p1 = SymFunc.p(1, 11)
        assert parse_expression("(1 + p[1]^11*t)^3", order=1) == TruncSeries([1, 3 * p1**11], 1)
        assert parse_expression("(1 + p[1]^10*t)^3", order=3, bound=30) == TruncSeries(
            [1, 3 * p1**10, 3 * p1**20, p1**30], 3
        )

    @pytest.mark.parametrize(
        "text, order, position",
        [
            ("(1 + p[1]^11*t)^3", 3, 15),  # min(3, 3) * 11
            ("(1 + p[1]^11*t)^-3", 1, 15),  # a negative power keeps the plain bound
            ("(p[1]^11 + t)^3", 1, 13),  # so does a constant term of positive weight
        ],
    )
    def test_series_power_past_the_weight_cap(self, text, order, position):
        with pytest.raises(LimitError, match=f"^power of weight 33 at position {position} exceeds the limit 30$"):
            parse_expression(text, order=order, bound=33)

    def test_degree_cap_is_checked_before_the_weight_cap(self):
        with pytest.raises(LimitError, match="^power of degree 1100 at position 12 exceeds the limit 1000$"):
            parse_expression("(L^100*p[3])^11", bound=3)

    @pytest.mark.parametrize(
        "text",
        ["(p[1]+p[2]+p[3])^10", "p[15]*p[15]", "2*h[40]", "h[31]*2", "h[31]*L", "h[31]*(1 + t)", "h[31]/3 + p[31]"],
    )
    def test_at_the_weight_cap(self, text):
        parse_expression(text, order=3, bound=40)

    def test_zero_polynomial_divisor_keeps_its_message(self):
        with pytest.raises(ZeroDivisionError, match="^division by the zero polynomial$"):
            parse_expression("L/(L-L)")

    @pytest.mark.parametrize(
        "text", ["(" * 2000 + "1" + ")" * 2000, "2*(" * 2000 + "L" + ")" * 2000, "-" * 2000 + "L"]
    )
    def test_nesting_past_the_stack(self, text):
        with pytest.raises(ParseError, match="^expression nested too deeply$"):
            parse_expression(text)

    def test_tree_past_the_stack(self):
        """A tree made without the parser overflows in the size pass."""
        tree = ("var", "L")
        for _ in range(5000):
            tree = ("sum", ("num", 0), [("-", tree, None)])
        with pytest.raises(ParseError, match="^expression nested too deeply$"):
            parse_expression((tree, {"L"}))

    @pytest.mark.parametrize(
        "text, n", [("L^((((-3))))", -3), ("L^" + "(" * 3000 + "2" + ")" * 3000, 2)]
    )
    def test_parenthesised_exponent(self, text, n):
        assert parse_expression(text) == L**n

    @pytest.mark.parametrize(
        "text, err",
        [
            ("L^((2)", "unexpected end of expression"),
            ("L^(-(2))", "expected an integer exponent at position 4"),
            ("L^((2))))", "trailing input ')' at position 7"),
        ],
    )
    def test_parenthesised_exponent_errors(self, text, err):
        with pytest.raises(ParseError, match=f"^{re.escape(err)}$"):
            parse_expression(text)


def test_scan_variables():
    assert parse_tree("1/2*p[1,1] + u*t + L")[1] == {"L", "u"}
    assert parse_tree("h[2] + e[3] + s[1]")[1] == set()


# -- differential tests of the one-pass hot path ---------------------------------

_OLD_TOKEN_RE = re.compile(r"(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()\[\],])")


def reference_tokens(text):
    """The character-by-character tokenizer the one-pattern scan replaced."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _OLD_TOKEN_RE.match(text, pos)
        if not match:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        tokens.append((match.lastgroup, match.group(), pos))
        pos = match.end()
    return tokens


def ring_of(value):
    """What a parse result's ring is made of: class, alphabet and bound."""
    if isinstance(value, TruncSeries):
        return ("series", value.order, *ring_of(value._zero))
    return (type(value).__name__, getattr(value, "vars", None), getattr(value, "bound", None))


class Node:
    """A generated expression: its text, the variables it names, and its
    value built through the ring API over a given alphabet."""

    def __init__(self, text, names, build):
        self.text, self.names, self.build = text, frozenset(names), build

    def __repr__(self):
        return repr(self.text)


VARIABLES = ["L", "u", "v", "p", "e", "s", "pq"]


@st.composite
def leaves(draw, order, bound):
    kind = draw(st.sampled_from(["int", "var", "var_power", "t", "t_power", "atom", "int_power"]))
    space = draw(st.sampled_from(["", " "]))
    if kind == "int":
        n = draw(st.integers(0, 5))
        return Node(str(n), (), lambda vars: Fraction(n))
    if kind == "int_power":
        n, k = draw(st.integers(1, 3)), draw(st.integers(0, 3))
        return Node(f"({n}){space}^{space}{k}", (), lambda vars: Fraction(n) ** k)
    if kind in ("var", "var_power"):
        x = draw(st.sampled_from(VARIABLES))
        if kind == "var":
            return Node(x, {x}, lambda vars: LaurentPoly.var(x, vars))
        k = draw(st.integers(-4, 4))
        exponent = draw(st.sampled_from([str(k), f"({k})"]))
        return Node(f"{x}{space}^{space}{exponent}", {x}, lambda vars: LaurentPoly.var(x, vars) ** k)
    if kind == "t":
        return Node("t", (), lambda vars: TruncSeries.t_var(order))
    if kind == "t_power":
        k = draw(st.integers(0, order + 2))
        return Node(f"t{space}^{space}{k}", (), lambda vars: TruncSeries.t_var(order) ** k)
    name = draw(st.sampled_from(["p", "h", "e", "s"]))
    parts = (draw(st.integers(1, 2)),) if name in "he" else tuple(draw(st.sampled_from([(1,), (2,), (1, 1), (2, 1)])))
    index = ",".join(map(str, parts))
    key = parts[0] if name in "he" else parts
    return Node(f"{name}{space}[{index}]", (), lambda vars: basis_in_p(name, key, bound))


def combine(children):
    def join(pair, op):
        a, b = pair
        names = a.names | b.names
        if op == "+":
            return Node(f"{a.text} + {b.text}", names, lambda vars: a.build(vars) + b.build(vars))
        if op == "-":
            return Node(f"{a.text} - ({b.text})", names, lambda vars: a.build(vars) - b.build(vars))
        return Node(f"({a.text})*({b.text})", names, lambda vars: a.build(vars) * b.build(vars))

    def divide(node, n):
        return Node(f"({node.text})/{n}", node.names, lambda vars: node.build(vars) / Fraction(n))

    return st.one_of(
        st.builds(join, st.tuples(children, children), st.sampled_from(["+", "-", "*"])),
        st.builds(divide, children, st.integers(1, 4)),
    )


@st.composite
def expressions(draw, symmetric=True):
    order = draw(st.integers(0, 6))
    bound = 3
    leaf = leaves(order, bound)
    if not symmetric:
        leaf = leaf.filter(lambda node: "[" not in node.text)
    node = draw(st.recursive(leaf, combine, max_leaves=5))
    return node, order, bound


class TestOnePass:
    """The one-pass hot path against the values the ring API builds and the
    tokens of the character-by-character scan."""

    @given(expressions())
    @settings(max_examples=300, deadline=None)
    def test_value_and_ring(self, case):
        node, order, bound = case
        expected = node.build(tuple(sorted(node.names)))
        value = parse_expression(node.text, order=order, bound=bound)
        assert value == expected, node.text
        assert ring_of(value) == ring_of(expected), node.text

    @given(expressions(symmetric=False), st.sampled_from([("L",), ("L", "u"), ("e", "p", "pq", "s", "u", "v")]))
    @settings(max_examples=150, deadline=None)
    def test_value_over_a_wider_alphabet(self, case, extra):
        """Over an alphabet given by the caller (the one pow shares between
        base and exponent), t is built over the polynomials of that alphabet."""
        node, order, bound = case
        vars = tuple(sorted(node.names | set(extra)))
        value = parse_expression(node.text, order=order, bound=bound, vars=vars)
        assert value == node.build(vars), node.text
        if isinstance(value, TruncSeries):
            assert ring_of(value._zero) == ("LaurentPoly", vars, None), node.text

    @given(st.text(alphabet="tLp0123 \t^*+-/()[],$é _x", max_size=20))
    @settings(max_examples=500, deadline=None)
    def test_tokens(self, text):
        try:
            expected = reference_tokens(text)
        except ParseError as exc:
            with pytest.raises(ParseError, match=f"^{re.escape(str(exc))}$"):
                tokenize(text)
        else:
            assert tokenize(text) == expected

    @pytest.mark.parametrize(
        "text, order, k",
        [("t^0", 3, 0), ("t ^ 3", 3, 3), ("t^4", 3, None), ("t^9", 8, None), ("t^0", 0, 0), ("t^1", 0, None)],
    )
    def test_t_power(self, text, order, k):
        value = parse_expression(text, order=order)
        assert value.coeffs == tuple(Fraction(int(j == k)) for j in range(order + 1))

    @pytest.mark.parametrize("text, exps", [("x^0", (0,)), ("x^-3", (-3,)), ("x ^ (-2)", (-2,)), ("(x)^2", (2,))])
    def test_variable_power(self, text, exps):
        assert parse_expression(text).terms == {exps: 1}

    @pytest.mark.parametrize(
        "text, order, error, message",
        [
            ("1 +", 3, ParseError, "unexpected end of expression"),
            ("t ^ x", 3, ParseError, "expected an integer exponent at position 4"),
            ("p [2", 3, ParseError, "unexpected end of expression"),
            ("L^", None, ParseError, "unexpected end of expression"),
            ("t ^ 1001", 3, LimitError, "exponent 1001 at position 4 exceeds the limit 1000"),
            ("t^2", None, ParseError, "the series variable t needs a truncation order"),
            ("1 $ 2", None, ParseError, "unexpected character '$' at position 2"),
            ("1 2", None, ParseError, "trailing input '2' at position 2"),
            (")", None, ParseError, "unexpected token ')' at position 0"),
            ("h [1, 2]", 3, ParseError, "h[...] takes exactly one index (position 0)"),
            ("t ^ -1", 2, ConstantTermError, "leading coefficient 0 is not invertible"),
            ("x ^ ( - 3", None, ParseError, "unexpected end of expression"),
            ("p [2] ^ 1001", 3, LimitError, "exponent 1001 at position 8 exceeds the limit 1000"),
            ("e[1,]", 3, ParseError, "expected an integer at position 4"),
            ("2 ^ t", 2, ParseError, "expected an integer exponent at position 4"),
            ("L ^ 2 ^ 3", None, ParseError, "trailing input '^' at position 6"),
            ("  ", None, ParseError, "empty expression"),
            ("é", None, ParseError, "unexpected character 'é' at position 0"),
        ],
    )
    def test_malformed(self, text, order, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            parse_expression(text, order=order)

    @pytest.mark.parametrize("digit", ["\u0663", "\u0969", "\uff13", "\U0001d7db"])
    def test_integers_are_ascii(self, digit, capsys):
        """Only 0-9 are digits: an Arabic-Indic, Devanagari, fullwidth or
        mathematical 3 is an unexpected character, in a value and in the
        O(t^k) tail of a series argument."""
        for text, position in ((f"L^{digit} + 2", 2), (f"1 + {digit}*L", 4), (f"p[1{digit}]", 3)):
            with pytest.raises(ParseError, match=f"^unexpected character '{digit}' at position {position}$"):
                parse_expression(text, order=3)
        assert main(["pow", "--base", f"1+t + O(t^1{digit})", "--exponent", "1"]) == 1
        assert capsys.readouterr() == ("", f"error: unexpected character '{digit}' at position 11\n")

    @pytest.mark.parametrize("order", [8, 64, 256])
    def test_sparse_division_at_any_order(self, order):
        """A quotient with one term per coefficient stays under the work
        cap of series division up to the order cap."""
        p1 = SymFunc.p(1, order)
        value = parse_expression("1/(1-p[1]*t)", order=order)
        assert value.coeffs == tuple(p1**k for k in range(order + 1))

    def test_variables_come_from_the_tokens(self):
        parsed = parse_tree("p*t + e [2] + s^2 - pq")
        assert parsed[1] == {"p", "pq", "s"}
        assert parsed[1] | parse_tree("u + h[1]")[1] == {"p", "pq", "s", "u"}
        assert parse_expression(parsed, order=2, bound=2) == parse_expression("p*t + e [2] + s^2 - pq", order=2, bound=2)


def reference_multisets(counts, order):
    """The multiset count one base term at a time: the loop that
    parsing._multisets folds per t-degree, kept as its reference."""
    multisets = [1] + [0] * order
    for j, c in enumerate(counts[1:], start=1):
        for _ in range(c):
            for k in range(j, order + 1):
                multisets[k] += multisets[k - j]
    return multisets


def reference_partition_counts(weight, bound):
    """Partitions of weight at most w with parts at most bound, one weight
    at a time."""
    counts = [1] + [0] * weight
    for part in range(1, min(weight, bound) + 1):
        for w in range(part, weight + 1):
            counts[w] += counts[w - part]
    for w in range(1, weight + 1):
        counts[w] += counts[w - 1]
    return counts


@st.composite
def work_bases(draw):
    """A series base for parsing._power_work: over Q, Q[L], Q[u,v] or
    symmetric functions, with a constant term 1 or not, and zero runs."""
    ring = draw(st.sampled_from(["Q", "L", "uv", "sym"]))
    order = draw(st.integers(1 if ring == "sym" else 0, 12))
    small = st.fractions(-3, 3, max_denominator=2).filter(bool)
    if ring == "Q":
        coeff = small
    elif ring == "sym":
        partitions = [p for n in range(1, 5) for p in partitions_of(n) if max(p) <= order]
        coeff = st.dictionaries(st.sampled_from(partitions), small, max_size=4).map(
            lambda terms: SymFunc(terms, order))
    else:
        vars = ("L",) if ring == "L" else ("u", "v")
        exps = st.tuples(*[st.integers(-2, 3)] * len(vars))
        coeff = st.dictionaries(exps, small, max_size=5).map(lambda terms: LaurentPoly(vars, terms))
    zero = {"Q": Fraction(0), "sym": SymFunc.zero(order), "L": LaurentPoly.zero(("L",)),
            "uv": LaurentPoly.zero(("u", "v"))}[ring]
    constant = draw(st.sampled_from([1, 2, "any"]))
    c0 = draw(coeff) if constant == "any" else constant + zero
    rest = draw(st.lists(st.one_of(st.just(zero), coeff), min_size=order, max_size=order))
    return TruncSeries([c0, *rest], order, zero)


def reference_degree(value) -> int:
    """Largest exponent magnitude of a polynomial variable in value, through
    symmetric-function and series coefficients: the walk over built values
    that the size pass replaced."""
    if isinstance(value, LaurentPoly):
        return max((abs(e) for exps in value.terms for e in exps), default=0)
    if isinstance(value, SymFunc):
        return max(map(reference_degree, value.terms.values()), default=0)
    if isinstance(value, TruncSeries):
        return max(map(reference_degree, value.coeffs), default=0)
    return 0


def reference_weight(value) -> int:
    """Largest weight of a symmetric-function term in value, through series
    coefficients; a series over Q or Q[L] answers from its zero."""
    if isinstance(value, TruncSeries):
        return max(map(reference_weight, value.coeffs)) if isinstance(value._zero, SymFunc) else 0
    if isinstance(value, SymFunc):
        return max(map(sum, value.terms), default=0)
    return 0


def reference_terms(value) -> list[tuple[int, tuple[int, ...]]]:
    """(weight, exponents) of each term of a coefficient."""
    if isinstance(value, SymFunc):
        return [(sum(p) + w, exps) for p, c in value.terms.items() for w, exps in reference_terms(c)]
    if isinstance(value, LaurentPoly):
        return [(0, exps) for exps in value.terms]
    return [(0, ())] if value else []


def size_of(value):
    """The size of a built value read off its terms: exact, where the size
    pass gives upper bounds."""
    coeffs, order, zero = [value], None, value
    if isinstance(value, TruncSeries):
        coeffs, order, zero = value.coeffs, value.order, value._zero
    ring = parsing._SYM if isinstance(zero, SymFunc) else parsing._POLY if isinstance(zero, LaurentPoly) else parsing._Q
    cells = {}
    for k, coeff in enumerate(coeffs):
        terms = reference_terms(coeff)
        if terms:
            exps = list(zip(*(e for _, e in terms)))
            cells[k] = (len(terms), max(w for w, _ in terms), tuple(map(min, exps)), tuple(map(max, exps)))
    return order, ring, cells


def subtrees(node):
    """Every node of a tree, with each prefix of a sum or product chain."""
    yield node
    if node[0] == "power":
        yield from subtrees(node[1])
    elif node[0] in ("sum", "product"):
        yield from subtrees(node[1])
        for i, (_, operand, *_) in enumerate(node[2]):
            yield from subtrees(operand)
            yield (node[0], node[1], node[2][: i + 1])


@st.composite
def grammar_expressions(draw):
    """Random expression text over Q, Q[L] or Q[u,v], with p, h, e and s
    atoms of weight <= 8, t, + - * / and ^ with |n| <= 4, and an order 0-8."""
    names = draw(st.sampled_from([(), ("L",), ("u", "v")]))
    order = draw(st.integers(0, 8))
    atoms = [f"{b}[{k}]" for b in "he" for k in range(9)] + [
        f"{b}[{','.join(map(str, p))}]" for b in "ps" for n in range(1, 9) for p in partitions_of(n)]
    leaf = st.one_of(
        st.integers(0, 3).map(str), st.sampled_from(["t", "1/2"] + list(names)), st.sampled_from(atoms))

    def extend(children):
        binary = st.tuples(children, st.sampled_from(["+", "-", "*", "/"]), children).map(
            lambda x: f"({x[0]}){x[1]}({x[2]})")
        return st.one_of(binary, st.tuples(children, st.integers(-4, 4)).map(lambda x: f"({x[0]})^{x[1]}"),
                         children.map(lambda x: f"-({x})"))

    return draw(st.recursive(leaf, extend, max_leaves=6)), order


class TestSizes:
    """The size pass against the values it describes."""

    @given(grammar_expressions())
    @settings(max_examples=300, deadline=None)
    def test_sizes_bound_the_values(self, case):
        self.check_every_node(*case)

    @pytest.mark.parametrize(
        "text, order",
        [("1/(L + t)", 4), ("(L^2 - u*t)^(-2)", 3), ("(u*v^-1 + t - u*t^2)^(-1)*v", 5), ("(1 + p[1]*t^2)^3", 5),
         ("(L^5 - 1)/(L - 1)", 0), ("(u^6 - v^6)/(u - v)", 0), ("(L^2*u - u^3)/(L*u^-1 + 1)", 0),
         ("1/(1 - (u^4 - v^4)/(u - v)*t)", 3), ("(1 + t)*(L^3 + 1)/(L + 1)", 2), ("(p[1] + p[2])/(1 + 1)", 0)],
    )
    def test_sizes_bound_inverses_of_monomial_units(self, text, order):
        """A unit c*x^e as constant term puts powers of x^-e in the inverse,
        and an exact quotient by more than one term can hold more terms
        than its operands together: (L^5 - 1)/(L - 1) has 5.  Random
        divisors of more than one term are almost never exact."""
        self.check_every_node(text, order)

    def check_every_node(self, text, order):
        tree, names = parse_tree(text)
        vars = tuple(sorted(names))
        for node in subtrees(tree):
            try:
                size, build = parsing._Sizes(order, 8, vars).walk(node)
                value = build()
            except (PowerStructError, ArithmeticError, ValueError):
                continue
            exact = size_of(value)
            assert (size[0], size[1]) == (exact[0], exact[1]), text
            assert reference_degree(value) <= parsing._widest(size), text
            assert reference_weight(value) <= parsing._heaviest(size), text
            for k, (count, weight, lo, hi) in exact[2].items():
                bound = size[2][k]
                assert count <= bound[0] and weight <= bound[1], text
                if lo:
                    assert all(map(le, bound[2], lo)) and all(map(le, hi, bound[3])), text


@st.composite
def exact_bases(draw):
    """A series base whose coefficients are sums of distinct monomials with
    positive coefficients, or a single h or e atom: nothing cancels, and the
    size pass counts every term exactly."""
    ring = draw(st.sampled_from(["Q", "L", "uv", "sym"]))
    order = draw(st.integers(1, 8))
    if ring == "Q":
        monomials = ["1"]
    elif ring == "sym":
        monomials = [f"p[{','.join(map(str, p))}]" for n in range(1, 4) for p in partitions_of(n)] + ["1"]
    else:
        monomials = [f"L^{e}" for e in range(-2, 4)] if ring == "L" else [
            f"u^{a}*v^{b}" for a in range(-1, 2) for b in range(0, 3)]
    coeff = st.lists(st.sampled_from(monomials), min_size=1, max_size=4, unique=True).flatmap(
        lambda terms: st.lists(st.integers(1, 3), min_size=len(terms), max_size=len(terms)).map(
            lambda cs: " + ".join(f"{c}*{m}" for c, m in zip(cs, terms))))
    if ring == "sym":
        coeff = st.one_of(coeff, st.sampled_from([f"{b}[{k}]" for b in "he" for k in range(1, 5)]))
    constant = draw(st.sampled_from(["1", "2"]) if ring == "Q" else st.one_of(st.just("1"), coeff))
    rest = draw(st.lists(st.one_of(st.none(), coeff), min_size=order, max_size=order))
    terms = [f"({constant})", "0*t"] + [f"({c})*t^{k}" for k, c in enumerate(rest, start=1) if c]
    return " + ".join(terms), order


class TestPowerWork:
    """The work estimate of a series power with its multisets folded per
    t-degree, against the loop over base terms."""

    @given(st.integers(0, 40).flatmap(
        lambda order: st.lists(st.integers(0, 30), min_size=order + 1, max_size=order + 1)))
    @settings(max_examples=200, deadline=None)
    def test_multisets(self, counts):
        assert parsing._multisets(counts, len(counts) - 1) == reference_multisets(counts, len(counts) - 1)

    @given(st.integers(0, 200), st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_partition_counts(self, weight, bound):
        assert parsing._partition_counts(weight, bound) == reference_partition_counts(weight, bound)

    @given(work_bases(), st.integers(-6, 40), st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_power_work(self, base, n, weight):
        if n < 0 and base.coeffs[0] == 0:
            n = -n
        bound = getattr(base._zero, "bound", None)
        estimate = parsing._power_work(size_of(base), n, weight, bound)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parsing, "_multisets", reference_multisets)
            patch.setattr(parsing, "_partition_counts", reference_partition_counts)
            assert estimate == parsing._power_work(size_of(base), n, weight, bound)

    @given(exact_bases(), st.integers(-6, 40), st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_power_work_from_sizes(self, case, n, weight):
        """Where nothing cancels, the size pass gives the exact size of a
        base, so the estimate is the one read off the built value."""
        text, order = case
        tree, names = parse_tree(text)
        size = parsing._Sizes(order, 4, tuple(sorted(names))).walk(tree)[0]
        value = parse_expression(text, order=order, bound=4)
        assert size == size_of(value), text
        work = parsing._power_work(size, n, weight, 4)[0]
        assert work == parsing._power_work(size_of(value), n, weight, 4)[0], text

    @pytest.mark.parametrize(
        "text, order", [("1 - (u^30 - v^30)/(u - v)*t", 4), ("1 - (L^5 - 1)/(L - 1)*t - L*t^2", 16)])
    @pytest.mark.parametrize("n", [-1, 3])
    def test_power_work_from_sizes_of_exact_quotients(self, text, order, n):
        """A quotient's size holds more terms than the built value: the
        estimate is no lower than the one read off the value."""
        tree, names = parse_tree(text)
        size = parsing._Sizes(order, None, tuple(sorted(names))).walk(tree)[0]
        value = parse_expression(text, order=order)
        work = parsing._power_work(size, n, 0, None)[0]
        assert work >= parsing._power_work(size_of(value), n, 0, None)[0], text

    def test_many_terms_of_one_degree(self):
        """37338 terms of t-degree 1, as h[40]*t has: C(c + k - 1, k)
        multisets at t^k, without a pass per term."""
        c = len(partitions_of(40))
        assert parsing._multisets([1, c] + [0] * 255, 256) == [comb(c + k - 1, k) for k in range(257)]
