"""Laurent polynomials, graded elements, Adams operations."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from powerstruct import (
    AlphabetMismatchError,
    GradedAdamsElement,
    InexactDivisionError,
    LaurentPoly,
    SubstitutionError,
    TruncSeries,
    adams,
)
from powerstruct.rings import (
    _KRONECKER_MAX_SPAN,
    _KRONECKER_MIN_TERMS,
    Rational,
    _add_terms,
    _dense_integers,
    _kronecker_applies,
    _mul_dict,
)

L = LaurentPoly.var("L")
U = LaurentPoly.var("u", ("u", "v"))
V = LaurentPoly.var("v", ("u", "v"))


def laurent_polys(vars=("L",), min_exp=-3, max_exp=3, max_terms=4):
    exps = st.tuples(*(st.integers(min_exp, max_exp) for _ in vars))
    coeff = st.integers(-5, 5).map(Fraction)
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda terms: LaurentPoly(vars, terms)
    )


class TestArithmetic:
    def test_pgl2_class(self):
        assert (L**3 + L**2 + L + 1) - (1 + 2 * L + L**2) == L**3 - L

    def test_exact_div_factor(self):
        assert (L**2 - L).exact_div(L - 1) == L

    def test_exact_div_non_divisor(self):
        with pytest.raises(InexactDivisionError):
            (L**2 - 1).exact_div(L + 2)

    def test_exact_div_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            L.exact_div(LaurentPoly.zero(("L",)))

    def test_negative_exponents_allowed(self):
        inv = L**-1
        assert inv * L == 1
        assert (L - 1).exact_div(L) == 1 - L**-1

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            L + U

    def test_constant_promotes(self):
        assert LaurentPoly.constant(3) + L == L + 3

    def test_scalar_division(self):
        assert (L + 1) / 2 == Fraction(1, 2) * L + Fraction(1, 2)

    def test_non_monomial_inverse_rejected(self):
        with pytest.raises(InexactDivisionError):
            (L + 1) ** -1


class TestSubstitute:
    def test_monomial_substitution(self):
        p = L**2 + L
        assert p.substitute({"L": L**3}) == L**6 + L**3

    def test_hodge_deligne_image(self):
        # class L^(2g-1) at g = 2
        p = L**3
        assert p.substitute({"L": U * V}) == U**3 * V**3

    def test_euler_specialization(self):
        # oracle: direct term sum
        p = L**2 + L
        assert p.substitute({"L": 1}) == 2

    def test_negative_exponent_needs_unit(self):
        p = L**-1
        with pytest.raises(SubstitutionError):
            p.substitute({"L": L + 1})
        assert p.substitute({"L": 2 * L}) == Fraction(1, 2) * L**-1

    def test_missing_variable(self):
        with pytest.raises(SubstitutionError):
            L.substitute({})


class TestAdams:
    def test_poly_example(self):
        assert adams(L**3 + 1, 2) == L**6 + 1

    def test_identity(self):
        p = L**2 - 3 * L
        assert adams(p, 1) == p

    def test_two_variables(self):
        assert adams(U + V, 2) == U**2 + V**2

    def test_rational_trivial(self):
        assert adams(Fraction(2, 3), 5) == Fraction(2, 3)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            adams(L, 0)

    @given(laurent_polys(), laurent_polys(), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=60)
    def test_adams_homomorphism(self, a, b, k, m):
        assert adams(a + b, k) == adams(a, k) + adams(b, k)
        assert adams(a * b, k) == adams(a, k) * adams(b, k)
        assert adams(adams(a, k), m) == adams(a, k * m)


class TestGraded:
    def test_degree_scaling(self):
        x = GradedAdamsElement({2: 1})
        assert adams(x, 3) == GradedAdamsElement({2: 9})

    def test_identity(self):
        x = GradedAdamsElement({0: 2, 3: Fraction(1, 2)})
        assert adams(x, 1) == x

    def test_composition(self):
        x = GradedAdamsElement({1: 1})
        assert adams(adams(x, 3), 2) == GradedAdamsElement({1: 6})

    def test_ring_structure(self):
        x = GradedAdamsElement({1: 1})
        y = GradedAdamsElement({2: 3})
        assert x * y == GradedAdamsElement({3: 3})
        assert x + 1 == GradedAdamsElement({0: 1, 1: 1})
        k = 4
        assert adams(x * y, k) == adams(x, k) * adams(y, k)

    @pytest.mark.parametrize("value", [0, 1, -3, Fraction(1, 2)])
    def test_hash_of_a_degree_zero_element_is_its_rationals(self, value):
        """An element with nothing above degree 0 equals its rational, so it
        hashes as one and finds the rational's dictionary entry."""
        x = GradedAdamsElement({0: value})
        assert x == value and hash(x) == hash(value)
        assert {value: "a"}.get(x) == "a"
        assert hash(GradedAdamsElement({1: 1})) == hash(GradedAdamsElement({1: 1}))


class TestCanonicalForm:
    def test_text_form(self):
        assert str(L**5 - L**2) == "L^5 - L^2"
        assert str(LaurentPoly.zero(("L",))) == "0"
        assert str(Fraction(1, 2) * L + 1) == "1/2*L + 1"
        assert str(U**2 * V - 3) == "u^2*v - 3"
        assert str(L**-1) == "L^-1"

    def test_json_form(self):
        assert (L**5 - L**2).to_json_dict() == {
            "vars": ["L"],
            "terms": [{"e": [5], "c": "1"}, {"e": [2], "c": "-1"}],
        }

    @given(laurent_polys(vars=("L",)))
    @settings(max_examples=60)
    def test_json_round_trip(self, p):
        assert LaurentPoly.from_json_dict(p.to_json_dict()) == p

    @given(laurent_polys(vars=("u", "v"), max_terms=3))
    @settings(max_examples=40)
    def test_json_round_trip_two_vars(self, p):
        assert LaurentPoly.from_json_dict(p.to_json_dict()) == p

    def test_json_repeated_term_adds(self):
        """A term repeated in a JSON term list adds, as the constructor adds
        one exponent given twice; a repeat that cancels leaves no term."""
        data = {"vars": ["L"], "terms": [{"e": [1], "c": "1"}, {"e": [0], "c": "1"}, {"e": [1], "c": "2"}]}
        assert LaurentPoly.from_json_dict(data) == 3 * L + 1
        data["terms"].append({"e": [0], "c": "-1"})
        assert LaurentPoly.from_json_dict(data).terms == {(1,): 3}

    def test_no_zero_terms_stored(self):
        p = L - L
        assert p.terms == {}


@given(laurent_polys(), laurent_polys())
@settings(max_examples=60)
def test_exact_div_inverts_multiplication(a, b):
    if not b:
        return
    assert (a * b).exact_div(b) == a


_NUMERATORS = st.integers(1, 2**200).flatmap(lambda m: st.integers(-m, m)).filter(bool)


@st.composite
def kronecker_operands(draw, sizes=st.integers(_KRONECKER_MIN_TERMS, _KRONECKER_MIN_TERMS + 8)):
    """Univariate term maps the Kronecker kernel takes: enough terms,
    exponents (negative ones too) within the density guard, numerators up
    to 200 bits of either sign, mixed denominators."""
    size = draw(sizes)
    lo = draw(st.integers(-30, 30))
    span = st.integers(lo, lo + _KRONECKER_MAX_SPAN * size - 1)
    exps = draw(st.lists(span, min_size=size, max_size=size, unique=True))
    dens = st.sampled_from([1, 1, 1, 2, 3, 12, 2**61 - 1])
    return {(e,): Rational(draw(_NUMERATORS), draw(dens)) for e in exps}


def kronecker_product(a, b):
    """The terms of the product of two univariate term maps that the
    Kronecker path of ``LaurentPoly.__mul__`` takes."""
    assert _kronecker_applies(a, b)
    return (LaurentPoly(("L",), a) * LaurentPoly(("L",), b)).terms


class TestMulKernels:
    """The Kronecker kernel against the term-by-term loop it bypasses."""

    def check(self, a, b):
        product = kronecker_product(a, b)
        assert product == _mul_dict(a, b)
        assert all(c != 0 for c in product.values())
        assert all(type(c) is type(Rational(1)) for c in product.values())

    @given(kronecker_operands(), kronecker_operands())
    @settings(max_examples=200)
    @example((L - 1).terms, (L + 1).terms)
    @example((1 + L + L**2).terms, (1 - L).terms)
    @example((L**-3 - L**-1).terms, (L**-3 + L**-1).terms)
    # every slot product at its largest: the widest coefficient the slot holds
    @example({(e,): Rational(2**64 - 1) for e in range(3)}, {(e,): Rational(2**64 - 1) for e in range(3)})
    @example({(e,): Rational(2**64 - 1) for e in range(3)}, {(e,): Rational(1 - 2**64) for e in range(3)})
    def test_kronecker_matches_dict_loop(self, a, b):
        self.check(a, b)

    @given(kronecker_operands(st.just(_KRONECKER_MIN_TERMS)), kronecker_operands())
    @settings(max_examples=60)
    def test_threshold_size_operand(self, a, b):
        self.check(a, b)
        self.check(a, a)

    @given(kronecker_operands())
    @settings(max_examples=60)
    def test_cancelling_product(self, a):
        # a(L) * a(-L) is even in L: every odd coefficient cancels
        b = {(e,): c if e % 2 == 0 else -c for (e,), c in a.items()}
        self.check(a, b)
        assert all(e % 2 == 0 for (e,) in kronecker_product(a, b))

    def test_path_choice(self):
        dense = L**4 + 2 * L**3 - L + 5
        # 5 terms spread over 10^6 exponents would pack ~10^6 empty slots
        sparse = 1 + L**250_000 + L**500_000 + L**750_000 + L**1_000_000
        assert _kronecker_applies(dense.terms, dense.terms)
        assert not _kronecker_applies(sparse.terms, dense.terms)
        assert not _kronecker_applies(dense.terms, sparse.terms)
        assert (dense * sparse).terms == _mul_dict(dense.terms, sparse.terms)
        # a monomial takes the term-by-term loop
        assert not _kronecker_applies((L**2).terms, dense.terms)


# -- the integer form a one-variable value computes once ----------------------


@st.composite
def univariate_polys(draw):
    """One-variable polynomials with denominators, negative exponents and a
    content other than 1, single terms among them, and sums and products
    whose terms cancel, some down to zero."""
    coeffs = st.fractions(-9, 9, max_denominator=12).filter(bool)
    terms = draw(st.dictionaries(st.integers(-6, 6), coeffs, min_size=1, max_size=7))
    p = LaurentPoly(("L",), {(e,): c for e, c in terms.items()})
    p = p * draw(st.sampled_from([1, 6, Fraction(-5, 4), Fraction(1, 30)]))
    shape = draw(st.sampled_from(["plain", "sum", "product"]))
    if shape == "sum":
        # less some of its own terms: down to one term, or to zero
        kept = draw(st.integers(0, len(p.terms)))
        p = p - LaurentPoly(("L",), dict(list(p.terms.items())[kept:]))
    elif shape == "product":
        # p(L) p(-L) loses every term of odd degree; p (p - p) is zero
        reflected = LaurentPoly(("L",), {(e,): c if e % 2 == 0 else -c for (e,), c in p.terms.items()})
        p = p * draw(st.sampled_from([reflected, p - p]))
    return p


def cached_forms(values):
    """The integer form each polynomial of ``values`` holds, None if none."""
    return [getattr(x, "_form", None) for x in values]


class TestIntegerForm:
    """The integer form a one-variable polynomial computes on first use and
    keeps, against a fresh conversion and the term-by-term loop."""

    @given(univariate_polys())
    @settings(max_examples=200)
    @example(LaurentPoly(("L",), {(-3,): Fraction(6, 5), (2,): Fraction(-4, 15)}))
    @example(Fraction(1, 7) * L**-2)
    def test_cached_form_is_the_fresh_form(self, p):
        if not p:
            return
        form = p._integer_form()
        assert form == _dense_integers(p.terms) and type(form[2]) is tuple
        assert p._integer_form() is form
        # the form takes no part in equality, hash, text or JSON
        fresh = LaurentPoly(p.vars, p.terms)
        assert cached_forms([fresh]) == [None]
        assert fresh == p and hash(fresh) == hash(p)
        assert str(fresh) == str(p) and fresh.to_json_dict() == p.to_json_dict()

    @given(univariate_polys(), univariate_polys())
    @settings(max_examples=200)
    @example(1 + L + L**2, 1 - L)
    @example(L**-3 - L**-1, L**-3 + L**-1)
    def test_products_match_the_dict_loop(self, p, q):
        for a, b in ((p, q), (q, p), (p, p)):
            assert (a * b).terms == _mul_dict(a.terms, b.terms)
            if _kronecker_applies(a.terms, b.terms):
                assert cached_forms([a, b]) == [_dense_integers(a.terms), _dense_integers(b.terms)]

    @given(
        st.lists(univariate_polys(), min_size=1, max_size=6),
        st.sampled_from([Fraction(1), Fraction(-2, 3), 3 * L**-1]),
        st.lists(univariate_polys(), max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_repeated_runs_agree_and_keep_forms(self, xs, lead, ys):
        """A product, a Q[L] series quotient (by a series whose leading
        coefficient is a unit) and a Q[L] exp run twice from the same
        values: the second run gives the same values and bytes and changes
        no form that the first run cached."""
        order = len(xs) - 1
        zero = LaurentPoly.zero(("L",))

        def run():
            quotient = TruncSeries(xs, order) / TruncSeries([lead] + ys, order)
            exp = TruncSeries([zero] + xs[1:], order).exp()
            return xs[0] * xs[-1], quotient, exp

        first = run()
        held = xs + ys + [first[0], *first[1].coeffs, *first[2].coeffs]
        forms = cached_forms(held)
        second = run()
        assert first == second and list(map(str, first)) == list(map(str, second))
        assert cached_forms(held) == forms
        assert all(f is None or f == _dense_integers(x.terms) for x, f in zip(held, forms))


# -- scalar and one-term operands against the schoolbook term loop -------------

ALPHABETS = [(), ("L",), ("u", "v")]
SCALARS = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)), st.just(Fraction(0))
)


def schoolbook(a_terms, b_terms):
    """The product (or, with one operand constant, the sum) of two term maps
    by the plain loop: every pair, then the zero terms dropped."""
    out = {}
    for ea, ca in a_terms.items():
        for eb, cb in b_terms.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            out[exps] = out.get(exps, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def schoolbook_sum(a_terms, b_terms):
    out = dict(a_terms)
    for e, c in b_terms.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


@st.composite
def poly_and_scalar(draw):
    """A polynomial over one of ALPHABETS and a scalar, which is sometimes
    minus its constant term so that a sum cancels it."""
    vars = draw(st.sampled_from(ALPHABETS))
    p = draw(laurent_polys(vars, max_terms=5))
    scalar = draw(st.one_of(SCALARS, st.just(-p.constant_term())))
    return p, scalar


def same_poly(got, vars, terms):
    assert got.vars == vars
    assert got.terms == terms
    assert all(type(c) is type(Rational(1)) for c in got.terms.values())


class TestSmallOperands:
    """Scalar sums and products and one-term products give the schoolbook
    loop's terms: no zero coefficient kept, rationals throughout."""

    @given(poly_and_scalar())
    @settings(max_examples=300)
    @example((L + Fraction(1, 2), Fraction(-1, 2)))
    @example((L**-2 - 3, 3))
    @example((U * V - 1, 1))
    @example((LaurentPoly.constant(2), -2))
    def test_scalar_sum(self, drawn):
        p, s = drawn
        constant = {(0,) * len(p.vars): Fraction(s)}
        for got in (p + s, s + p):
            same_poly(got, p.vars, schoolbook_sum(p.terms, constant))
        same_poly(p - s, p.vars, schoolbook_sum(p.terms, {e: -c for e, c in constant.items()}))
        same_poly(s - p, p.vars, schoolbook_sum({e: -c for e, c in p.terms.items()}, constant))

    @given(poly_and_scalar())
    @settings(max_examples=300)
    @example((L + 1, 0))
    @example((U**2 * V - U, Fraction(-2, 3)))
    def test_scalar_product(self, drawn):
        p, s = drawn
        expected = schoolbook(p.terms, {(0,) * len(p.vars): Fraction(s)})
        for got in (p * s, s * p):
            same_poly(got, p.vars, expected)

    @given(
        st.sampled_from(ALPHABETS).flatmap(
            lambda vars: st.tuples(laurent_polys(vars, max_terms=1).filter(bool), laurent_polys(vars, max_terms=6))
        )
    )
    @settings(max_examples=300)
    @example((L**-2, 1 + L))
    @example((U**2 * V, U - V))
    @example((LaurentPoly.constant(Fraction(-1, 2)), LaurentPoly.constant(4)))
    def test_one_term_product(self, pair):
        m, q = pair
        expected = schoolbook(m.terms, q.terms)
        for got in (m * q, q * m):
            same_poly(got, m.vars, expected)
        assert _mul_dict(m.terms, q.terms) == _mul_dict(q.terms, m.terms) == expected


# -- the one zero-dropping sum, against schoolbook references -----------------

RATIONAL = type(Rational(1))


def rational_terms(terms):
    """No zero coefficient stored, and every coefficient a Rational."""
    return all(c != 0 and type(c) is RATIONAL for c in terms.values())


def reference_division(a_terms, b_terms):
    """The quotient of a by a nonzero b by plain long division, or None when
    b does not divide a: each step takes the remainder's leading term, and a
    step whose quotient exponent leaves the window that the extreme
    exponents of a and b allow shows that b does not divide a."""
    if not a_terms:
        return {}
    width = len(next(iter(b_terms)))
    lo = [min(e[i] for e in a_terms) - min(e[i] for e in b_terms) for i in range(width)]
    hi = [max(e[i] for e in a_terms) - max(e[i] for e in b_terms) for i in range(width)]
    lead_b = max(b_terms)
    remainder, quotient = dict(a_terms), {}
    while remainder:
        lead = max(remainder)
        exps = tuple(x - y for x, y in zip(lead, lead_b))
        if not all(l <= e <= h for e, l, h in zip(exps, lo, hi)):
            return None
        quotient[exps] = remainder[lead] / b_terms[lead_b]
        step = schoolbook({exps: -quotient[exps]}, b_terms)
        remainder = schoolbook_sum(remainder, step)
    return quotient


@st.composite
def cancelling_pairs(draw, alphabets=(("u", "v"), ("u", "v", "w"))):
    """Two polynomials over two or three variables whose product has
    colliding terms: small exponents, and half of the time the pair
    p (x + y), q (x - y), whose cross terms cancel (y = 1 over one variable)."""
    vars = draw(st.sampled_from(alphabets))
    p = draw(laurent_polys(vars, min_exp=0, max_exp=2, max_terms=4))
    q = draw(laurent_polys(vars, min_exp=-1, max_exp=2, max_terms=4))
    if draw(st.booleans()):
        x = LaurentPoly.var(vars[0], vars)
        y = LaurentPoly.var(vars[1], vars) if len(vars) > 1 else 1
        p, q = p * (x + y), q * (x - y)
    return p, q


class TestAddTerms:
    def test_sums_drop_zeros_and_keep_new_coefficients(self):
        one, half = Rational(1), Rational(1, 2)
        terms = _add_terms({(1,): one}, [((1,), -one), ((2,), half), ((3,), Rational(0))])
        assert terms == {(2,): half} and terms[(2,)] is half
        assert _add_terms(terms, [((2,), half), ((2,), -one)]) == {}

    @given(cancelling_pairs())
    @settings(max_examples=300)
    @example((U + V, U - V))
    @example(((U + V) * (U - V), U * U + V * V))
    def test_mul_dict_matches_schoolbook(self, pair):
        p, q = pair
        expected = schoolbook(p.terms, q.terms)
        assert _mul_dict(p.terms, q.terms) == _mul_dict(q.terms, p.terms) == expected
        same_poly(p * q, p.vars, expected)
        assert rational_terms(expected)

    @given(cancelling_pairs(alphabets=(("L",), ("u", "v"))), st.booleans())
    @settings(max_examples=300)
    @example((L + 1, L - 1), True)
    @example((L**2 - 1, L + 2), False)
    @example((U - V, U + V), False)
    def test_exact_div_matches_long_division(self, pair, divisible):
        a, b = pair
        if not b:
            return
        if divisible:
            a = LaurentPoly(b.vars, schoolbook(a.terms, b.terms))
        expected = reference_division(a.terms, b.terms)
        if expected is None:
            with pytest.raises(InexactDivisionError):
                a.exact_div(b)
            return
        quotient = a.exact_div(b)
        same_poly(quotient, a.vars, expected)
        assert quotient * b == a
        assert schoolbook(quotient.terms, b.terms) == a.terms

    @given(
        st.sampled_from(ALPHABETS).flatmap(
            lambda vars: st.tuples(laurent_polys(vars, max_terms=5), laurent_polys(vars, max_terms=5))
        ),
        st.booleans(),
    )
    @settings(max_examples=300)
    def test_sum_matches_schoolbook(self, pair, cancel):
        p, q = pair
        if cancel:
            # q takes minus some of p's terms, which cancel in the sum
            q = q - LaurentPoly(p.vars, dict(list(p.terms.items())[::2]))
        expected = schoolbook_sum(p.terms, q.terms)
        for got in (p + q, q + p):
            same_poly(got, p.vars, expected)
        same_poly(p - q, p.vars, schoolbook_sum(p.terms, {e: -c for e, c in q.terms.items()}))

    @given(
        st.sampled_from(ALPHABETS).flatmap(
            lambda vars: st.tuples(
                st.just(vars),
                st.lists(
                    st.tuples(
                        st.tuples(*(st.integers(-1, 1) for _ in vars)),
                        st.fractions(-2, 2, max_denominator=2),
                    ),
                    max_size=8,
                ),
            )
        )
    )
    @settings(max_examples=300)
    @example((("L",), [((1,), Fraction(1)), ((1,), Fraction(-1))]))
    @example((("u", "v"), [((0, 1), Fraction(1, 2)), ((0, 1), Fraction(-1, 2)), ((0, 1), Fraction(2))]))
    def test_json_repeated_terms(self, drawn):
        vars, pairs = drawn
        data = {"vars": list(vars), "terms": [{"e": list(e), "c": str(c)} for e, c in pairs]}
        expected = {}
        for e, c in pairs:
            expected[e] = expected.get(e, 0) + c
        same_poly(LaurentPoly.from_json_dict(data), vars, {e: c for e, c in expected.items() if c})

    def test_json_cancelling_term_is_still_checked(self):
        """A term whose repeats cancel is still checked against the
        alphabet: a JSON polynomial is read as the constructor reads it."""
        data = {"vars": ["L"], "terms": [{"e": [1, 2], "c": "1"}, {"e": [1, 2], "c": "-1"}]}
        with pytest.raises(ValueError, match=re.escape("exponent tuple (1, 2) does not match alphabet ('L',)")):
            LaurentPoly.from_json_dict(data)


def graded_elements(max_degree=4):
    return st.dictionaries(st.integers(0, max_degree), st.integers(-3, 3).map(Fraction), max_size=4).map(
        GradedAdamsElement
    )


def as_exponents(components):
    return {(d,): c for d, c in components.items()}


class TestGradedSums:
    """Graded sums and products against the schoolbook loops over their
    degree maps: no zero stored, rationals throughout."""

    @given(graded_elements(), graded_elements(), st.booleans())
    @settings(max_examples=300)
    @example(GradedAdamsElement({0: 1, 1: 1}), GradedAdamsElement({1: -1}), False)
    @example(GradedAdamsElement({0: 1, 1: 1}), GradedAdamsElement({0: 1, 1: -1}), False)
    def test_sum_and_product(self, a, b, cancel):
        if cancel:
            b = b - GradedAdamsElement(dict(list(a.components.items())[::2]))
        x, y = as_exponents(a.components), as_exponents(b.components)
        for got, expected in ((a + b, schoolbook_sum(x, y)), (b + a, schoolbook_sum(x, y)), (a * b, schoolbook(x, y))):
            assert as_exponents(got.components) == expected
            assert rational_terms(got.components)
        assert (a - a).components == {}


class TestKeyTypes:
    """Every key entry of a term map is an int; a float, a bool or any other
    value is refused by name rather than truncated, merged or kept."""

    @pytest.mark.parametrize("exps", [(1.5,), (1.0,), (True,), ("1",), (Fraction(1),)])
    def test_polynomial_exponent(self, exps):
        with pytest.raises(TypeError, match=re.escape(f"polynomial exponent must be an int, got {exps[0]!r}")):
            LaurentPoly(("L",), {exps: 1})

    @pytest.mark.parametrize("degree", [1.5, 1.0, True, False, "1"])
    def test_graded_degree(self, degree):
        with pytest.raises(TypeError, match=re.escape(f"degree must be an int, got {degree!r}")):
            GradedAdamsElement({degree: 3})

    def test_first_offending_term_decides(self):
        with pytest.raises(ValueError, match="does not match alphabet"):
            LaurentPoly(("L",), {(1, 2): "x", (1,): 1})
        with pytest.raises(TypeError, match="expected an exact rational"):
            LaurentPoly(("L",), {(1,): "x", (1, 2): 1})
        with pytest.raises(TypeError, match="polynomial exponent"):
            LaurentPoly(("L",), {(1.5,): 1, (1,): "x"})
        with pytest.raises(ValueError, match="negative degree -1"):
            GradedAdamsElement({-1: 1, 2: "x"})
        with pytest.raises(TypeError, match="expected an exact rational"):
            GradedAdamsElement({2: "x", -1: 1})


class TestGradedText:
    """Graded elements print as signed sums, degree 0 bare."""

    @pytest.mark.parametrize(
        "components, text",
        [
            ({}, "0"),
            ({0: 1, 2: -1}, "1 - deg[2]"),
            ({0: -3}, "-3"),
            ({2: 1, 0: Fraction(-1, 2)}, "-1/2 + deg[2]"),
            ({1: Fraction(1, 2), 3: -2}, "1/2*deg[1] - 2*deg[3]"),
            ({1: -1}, "-deg[1]"),
        ],
    )
    def test_text(self, components, text):
        assert str(GradedAdamsElement(components)) == text

    def test_series_text(self):
        coeffs = [GradedAdamsElement({0: 1}), GradedAdamsElement({1: -1, 2: 1})]
        series = TruncSeries(coeffs, 1, GradedAdamsElement({}))
        assert str(series) == "1 + (-deg[1] + deg[2])*t + O(t^2)"

    def test_repr_is_the_degree_map(self):
        assert repr(GradedAdamsElement({2: -1, 0: 1})) == (
            "GradedAdamsElement({0: Fraction(1, 1), 2: Fraction(-1, 1)})"
        )
