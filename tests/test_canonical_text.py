"""Canonical text reads back: parsing what a value prints, through the parser
the command line uses, gives the value again and prints the same bytes."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
import hypothesis.strategies as st

from powerstruct import LaurentPoly, ParseError, SymFunc, TruncSeries, p_to_schur, partitions_of
from powerstruct.cli import _read, value_to_json
from powerstruct.symfunc import schur_expansion_str

L = LaurentPoly.var("L")
# A magnitude of 1 printed before a monomial, at the start of a term.
SPELLED_ONE = re.compile(r"(?:^|[ (])-?1\*")

rationals = st.sampled_from([Fraction(1), Fraction(-1)]) | st.fractions(-7, 7, max_denominator=6).filter(bool)


@st.composite
def polys(draw, vars=None):
    """Laurent polynomials in one or two variables with negative exponents,
    coefficients +-1 and fractions, and terms that may cancel to 0."""
    vars = draw(st.sampled_from([("L",), ("u", "v")])) if vars is None else vars
    exps = st.tuples(*[st.integers(-3, 3)] * len(vars))
    terms = draw(st.lists(st.tuples(exps, rationals), max_size=4))
    cancelled = draw(st.integers(0, len(terms)))
    poly = LaurentPoly.zero(vars)
    for e, c in terms + [(e, -c) for e, c in terms[:cancelled]]:
        poly = poly + LaurentPoly(vars, {e: c})
    return poly


@st.composite
def coefficients(draw, vars):
    """A rational, or over ("L",) a possibly non-constant polynomial."""
    return draw(polys(vars)) if vars and draw(st.booleans()) else draw(rationals)


@st.composite
def symfuncs(draw, bound, weight=None):
    """Symmetric functions with coefficients in Q or Q[L]; homogeneous of
    the given weight when one is given."""
    vars = draw(st.sampled_from([(), ("L",)]))
    if weight is None:
        support = [p for n in range(5) for p in partitions_of(n) if not p or p[0] <= bound]
    else:
        support = list(partitions_of(weight))
    partitions = draw(st.lists(st.sampled_from(support), max_size=4, unique=True))
    return SymFunc({p: draw(coefficients(vars)) for p in partitions}, bound, vars)


@st.composite
def series(draw):
    """Series over Q, Q[L] or symmetric functions, with zero coefficients
    (a zero constant term, all zeros) and negative leading terms."""
    order = draw(st.integers(0, 5))
    ring = draw(st.sampled_from(["Q", "L", "sym"]))
    if ring == "Q":
        value = st.just(Fraction(0)) | rationals
    elif ring == "L":
        value = st.just(Fraction(0)) | polys(("L",))
    else:
        value = st.just(Fraction(0)) | symfuncs(order)
    coeffs = draw(st.lists(value, min_size=order + 1, max_size=order + 1))
    return TruncSeries(coeffs, order)


def check_text(text, read):
    assert not SPELLED_ONE.search(text), text
    value = read(text)
    assert str(value) == text
    return value


@given(polys())
@settings(max_examples=150, deadline=None)
def test_laurent_poly_round_trip(x):
    assert check_text(str(x), lambda text: _read(text, "element", 0, x.vars)) == x


@given(st.integers(0, 4).flatmap(symfuncs))
@settings(max_examples=150, deadline=None)
def test_symfunc_round_trip(f):
    read = lambda text: _read(text, "symfunc", f.bound, f.vars)
    assert check_text(str(f), read) == f


@given(series())
@example(TruncSeries([SymFunc.constant(L, 0), SymFunc.constant(1 - L, 0)], 1))
@settings(max_examples=150, deadline=None)
def test_series_round_trip_through_order_tail(x):
    vars = ("L",) if any(getattr(c, "vars", ()) for c in x.coeffs) else ()
    read = lambda text: _read(text, "series", x.order, vars)
    value = read(str(x))
    assert value == x
    # Text does not name the coefficient ring: a series over symmetric
    # functions with no p[...] term reads back over Q or Q[L], which prints
    # without the parentheses a symmetric function puts round a non-constant
    # coefficient ("(L) + O(t^1)" reads back as "L + O(t^1)").
    if isinstance(x.coeffs[0], SymFunc) and all(set(c.terms) <= {()} for c in x.coeffs):
        x = value
    assert check_text(str(x), read) == x


@given(st.integers(0, 5).flatmap(lambda n: symfuncs(n, weight=n)))
@settings(max_examples=60, deadline=None)
def test_schur_expansion_round_trip(f):
    n = f.weight()
    expansion = p_to_schur(f)
    read = lambda text: p_to_schur(_read(text, "symfunc", n, f.vars))
    assert not SPELLED_ONE.search(schur_expansion_str(expansion))
    back = read(schur_expansion_str(expansion))
    assert back == expansion
    assert schur_expansion_str(back) == schur_expansion_str(expansion)


@st.composite
def ring_values(draw, bound):
    """A value over Q, Q[L] or Q[u,v], or a symmetric function with
    generator bound ``bound`` over Q or Q[L]."""
    ring = draw(st.sampled_from(["Q", "Q[L]", "Q[u,v]", "sym"]))
    if ring == "Q":
        return draw(st.just(Fraction(0)) | rationals)
    if ring == "sym":
        return draw(symfuncs(bound))
    return draw(polys(("L",) if ring == "Q[L]" else ("u", "v")))


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), ring_values(n))))
@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_text_and_file_read_alike(tmp_path, drawn):
    """For each kind a value is read as, its canonical text (a series text
    with its + O(t^M) tail) and an @file holding its JSON form read to equal
    values.  A text's generator bound is the order it is read at, so a
    series over symmetric functions is read at its own order only.  Read as
    a polynomial, a symmetric function is refused with one message, as a
    file and as a text that holds an atom; a constant one's text is its
    coefficient."""
    order, x = drawn
    vars = getattr(x, "vars", ())
    path = tmp_path / "value.json"

    def read(value, kind, order=order):
        path.write_text(json.dumps(value_to_json(value)))
        return [_read(raw, kind, order, vars) for raw in (str(value), f"@{path}")]

    assert read(x, "element") == [x, x]
    s = TruncSeries([Fraction(1)] + [k * x for k in range(1, order + 1)], order)
    assert str(s).endswith(f" + O(t^{order + 1})")
    assert read(s, "series") == [s, s]
    f = x if isinstance(x, SymFunc) else SymFunc.constant(x, order, vars)
    assert read(x, "symfunc") == [f, f]
    if not isinstance(x, SymFunc):
        low = s.truncate(order - 1)
        assert read(s, "series", order - 1) == [low, low]
        poly = x if isinstance(x, LaurentPoly) else LaurentPoly.constant(x, ())
        assert read(x, "poly") == [poly] * 2
    else:
        path.write_text(json.dumps(value_to_json(x)))
        refused = [f"@{path}"] + ([str(x)] if set(x.terms) - {()} else [])
        for raw in refused:
            with pytest.raises(ParseError, match=r"^expected a polynomial, got SymFunc$"):
                _read(raw, "poly", order, vars)
        if len(refused) == 1:
            assert _read(str(x), "poly", order, vars) == x.terms.get((), Fraction(0))
