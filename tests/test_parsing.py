"""The expression grammar."""

from fractions import Fraction

import pytest

from powerstruct import LaurentPoly, LimitError, ParseError, SymFunc, TruncSeries, basis_in_p
from powerstruct.parsing import (
    parse_expression,
    parse_poly,
    parse_series,
    parse_symfunc,
    scan_variables,
)

L = LaurentPoly.var("L")


class TestPolyGrammar:
    def test_simple(self):
        assert parse_poly("L^5 - L^2") == L**5 - L**2
        assert parse_poly("1+L") == 1 + L

    def test_rational_coefficients(self):
        assert parse_poly("1/2*L + 1") == Fraction(1, 2) * L + 1

    def test_negative_exponents(self):
        assert parse_poly("L^-1 + L^(-2)") == L**-1 + L**-2

    def test_multivariate(self):
        p = parse_poly("u^2*v - 3")
        u = LaurentPoly.var("u", ("u", "v"))
        v = LaurentPoly.var("v", ("u", "v"))
        assert p == u**2 * v - 3

    def test_parentheses_and_unary(self):
        assert parse_poly("-(L - 1)^2") == -(L**2) + 2 * L - 1

    def test_poly_division(self):
        assert parse_poly("(L^2 - L)/(L - 1)") == L

    def test_round_trip_canonical_text(self):
        for p in (L**5 - L**2, Fraction(1, 2) * L + 1, L**-1, LaurentPoly.zero(("L",))):
            assert parse_poly(str(p)) == p


class TestSymFuncGrammar:
    def test_power_sums(self):
        f = parse_symfunc("1/2*p[1,1] + 1/2*p[2]", bound=4)
        assert f == basis_in_p("h", 2, 4)

    def test_basis_atoms(self):
        assert parse_symfunc("h[2]", bound=4) == basis_in_p("h", 2, 4)
        assert parse_symfunc("e[2]", bound=4) == basis_in_p("e", 2, 4)
        assert parse_symfunc("s[2,1]", bound=4) == basis_in_p("s", (2, 1), 4)

    def test_polynomial_coefficients(self):
        f = parse_symfunc("u*p[1]", bound=3)
        u = LaurentPoly.var("u")
        assert f == u * SymFunc.p(1, 3, ("u",))

    def test_round_trip_canonical_text(self):
        f = basis_in_p("h", 3, 6) - 2 * SymFunc.p(1, 6)
        assert parse_symfunc(str(f), bound=6) == f


class TestSeriesGrammar:
    def test_polynomial_series(self):
        assert parse_series("1+t", 4) == TruncSeries([1, 1], 4)

    def test_rational_function(self):
        geom = parse_series("1/(1 - L*t)", 3)
        assert geom == TruncSeries([1, L, L**2, L**3], 3)

    def test_power(self):
        assert parse_series("(1+t)^3", 4) == TruncSeries([1, 3, 3, 1, 0], 4)

    def test_symfunc_coefficients(self):
        series = parse_series("1 + p[1]*t", 3)
        assert series.coeffs[1] == SymFunc.p(1, 3)

    def test_constant_promoted(self):
        assert parse_series("5", 2) == TruncSeries.constant(Fraction(5), 2)


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

    def test_basis_needs_bound(self):
        with pytest.raises(ParseError):
            parse_expression("p[1]")

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
        with pytest.raises(ParseError):
            parse_poly("p[1]")

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
        assert parse_poly("(L^2)^500") == L**1000

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


def test_scan_variables():
    assert scan_variables("1/2*p[1,1] + u*t + L") == ("L", "u")
    assert scan_variables("h[2] + e[3] + s[1]") == ()
