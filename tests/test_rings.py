"""Laurent polynomials, graded elements, Adams operations."""

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
    adams,
)
from powerstruct.rings import (
    _KRONECKER_MAX_SPAN,
    _KRONECKER_MIN_TERMS,
    Rational,
    _kronecker_applies,
    _mul_dict,
    _mul_kronecker,
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


class TestMulKernels:
    """The Kronecker kernel against the term-by-term loop it bypasses."""

    def check(self, a, b):
        assert _kronecker_applies(a, b)
        product = _mul_kronecker(a, b)
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
        assert all(e % 2 == 0 for (e,) in _mul_kronecker(a, b))

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
