"""Truncated series arithmetic and calculus."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from powerstruct import (
    AlphabetMismatchError,
    ConstantTermError,
    GradedAdamsElement,
    LaurentPoly,
    SymFunc,
    TruncSeries,
    binomial_series,
    lambda_t,
)
from powerstruct import series as series_module

L = LaurentPoly.var("L")


def unit_series(order=8):
    coeff = st.integers(-4, 4).map(Fraction)
    return st.lists(coeff, min_size=order, max_size=order).map(
        lambda tail: TruncSeries([Fraction(1)] + tail, order)
    )


def zero_head_series(order=8):
    coeff = st.integers(-4, 4).map(Fraction)
    return st.lists(coeff, min_size=order, max_size=order).map(
        lambda tail: TruncSeries([Fraction(0)] + tail, order)
    )


def exp_log_power(a, e):
    """a^e as exp(e log a): the route usual_power took before its
    recurrence, kept as the reference for it."""
    return a.log().scale(e).exp()


class TestArithmetic:
    def test_product(self):
        one_plus = TruncSeries([1, 1], 3)
        one_minus = TruncSeries([1, -1], 3)
        assert one_plus * one_minus == TruncSeries([1, 0, -1, 0], 3)

    def test_geometric_series(self):
        geom = TruncSeries.one(3) / TruncSeries([1, -L], 3)
        assert geom == TruncSeries([1, L, L**2, L**3], 3)

    def test_zero_leading_coefficient_division(self):
        with pytest.raises(ConstantTermError):
            TruncSeries.one(3) / TruncSeries([0, 1], 3)

    def test_mixed_orders_truncate(self):
        a = TruncSeries([1, 1, 1], 2)
        b = TruncSeries([1, 2], 1)
        assert (a * b).order == 1

    def test_integer_powers(self):
        s = TruncSeries([1, 1], 4)
        assert s**3 == TruncSeries([1, 3, 3, 1, 0], 4)
        assert s**-1 == TruncSeries([1, -1, 1, -1, 1], 4)

    @given(unit_series(), unit_series())
    @settings(max_examples=50)
    def test_mul_div_inverse(self, a, b):
        assert (a * b) / b == a
        assert (a / b) * b == a


class TestLogExp:
    def test_log_geometric(self):
        s = TruncSeries.one(4) / TruncSeries([1, -1], 4)
        expected = TruncSeries(
            [0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)], 4
        )
        assert s.log() == expected

    def test_log_with_ring_coefficients(self):
        # oracle: termwise expansion of -log(1 - L t) = sum (L t)^n / n
        s = TruncSeries.one(3) / TruncSeries([1, -L], 3)
        assert s.log() == TruncSeries(
            [LaurentPoly.zero(("L",)), L, Fraction(1, 2) * L**2, Fraction(1, 3) * L**3],
            3,
        )

    def test_wrong_constant_terms(self):
        with pytest.raises(ConstantTermError):
            TruncSeries([2, 1], 2).log()
        with pytest.raises(ConstantTermError):
            TruncSeries([1, 1], 2).exp()

    @given(unit_series())
    @settings(max_examples=50)
    def test_exp_log_inverse(self, a):
        assert a.log().exp() == a

    @given(zero_head_series())
    @settings(max_examples=50)
    def test_log_exp_inverse(self, b):
        assert b.exp().log() == b


class TestLogDerivative:
    def test_linear_factor(self):
        # A = 1 + a t has C_j = -(-a)^j
        a = L + 2
        series = TruncSeries([LaurentPoly.constant(1, ("L",)), a], 6)
        expected = [-((-a) ** j) for j in range(1, 7)]
        assert series.log_derivative() == expected

    def test_exponential(self):
        # A = exp(3t) has C_1 = 3 and C_j = 0 for j > 1
        series = TruncSeries.t_var(5).scale(Fraction(3)).exp()
        log_deriv = series.log_derivative()
        assert log_deriv[0] == 3
        assert all(c == 0 for c in log_deriv[1:])

    def test_constant_one(self):
        assert TruncSeries.one(5).log_derivative() == [Fraction(0)] * 5

    @given(unit_series(), unit_series())
    @settings(max_examples=50)
    def test_additive_under_product(self, a, b):
        lhs = (a * b).log_derivative()
        rhs = [x + y for x, y in zip(a.log_derivative(), b.log_derivative())]
        assert lhs == rhs


class TestSubstituteTk:
    def test_basic(self):
        s = TruncSeries([1, 1], 4)
        assert s.substitute_tk(2, 4) == TruncSeries([1, 0, 1, 0, 0], 4)

    def test_identity(self):
        s = TruncSeries([1, 2, 3], 2)
        assert s.substitute_tk(1) == s

    def test_truncation_drops_high_positions(self):
        s = TruncSeries([1, 1, 1], 5)
        assert s.substitute_tk(3, 5) == TruncSeries([1, 0, 0, 1, 0, 0], 5)

    def test_default_order_is_exactness_limit(self):
        s = TruncSeries([1, 1], 1)
        assert s.substitute_tk(3).order == 5

    def test_refuses_to_pretend_precision(self):
        s = TruncSeries([1, 1], 1)
        with pytest.raises(ValueError):
            s.substitute_tk(2, 10)

    @given(unit_series(order=4), unit_series(order=4), st.integers(1, 3))
    @settings(max_examples=50)
    def test_multiplicative(self, a, b, k):
        lhs = (a * b).substitute_tk(k)
        rhs = a.substitute_tk(k) * b.substitute_tk(k)
        assert lhs == rhs


BOUND = 4


def ring_scalars():
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def ring_polys():
    coeffs = st.integers(-2, 2).map(Fraction)
    return st.dictionaries(st.integers(0, 2).map(lambda e: (e,)), coeffs, max_size=3).map(
        lambda terms: LaurentPoly(("L",), terms)
    )


class TestBinomialSeries:
    """binomial_series is the two-term power, against the exp-log route."""

    @given(
        st.one_of(
            ring_scalars(),
            ring_polys(),
            st.builds(
                lambda q, j: q * SymFunc.p(j, BOUND), ring_scalars(), st.integers(1, 2)
            ),
        ),
        st.one_of(
            ring_scalars(),
            ring_polys(),
            ring_scalars().map(lambda q: SymFunc.constant(q, BOUND)),
        ),
        st.integers(1, 4),
        st.integers(0, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_usual_power(self, c, e, k, order):
        two_term = TruncSeries([1] + [0] * (k - 1) + [c], order)
        assert binomial_series(c, k, e, order) == exp_log_power(two_term, e)

    def test_negative_integer_exponent_is_geometric(self):
        assert binomial_series(-L, 1, -1, 3) == TruncSeries([1, L, L**2, L**3], 3)

    def test_ring_joins_base_and_exponent(self):
        series = binomial_series(SymFunc.p(2, BOUND), 2, L, 1)
        assert all(isinstance(c, SymFunc) and c.vars == ("L",) for c in series.coeffs)


def ring_of(value):
    return type(value), getattr(value, "vars", None), getattr(value, "bound", None)


class TestOneRing:
    def test_scalar_constant_term_is_promoted(self):
        series = TruncSeries([1, L], 3)
        assert {ring_of(c) for c in series.coeffs} == {ring_of(L)}

    def test_widest_ring_wins(self):
        p1 = SymFunc.p(1, 3)
        series = TruncSeries([Fraction(1), L, p1], 2)
        assert {ring_of(c) for c in series.coeffs} == {(SymFunc, ("L",), 3)}

    def test_explicit_ring_covers_padding_and_constants(self):
        series = TruncSeries([1], 2, SymFunc.zero(2))
        assert series == TruncSeries([1, 0, 0], 2)
        assert {ring_of(c) for c in series.coeffs} == {(SymFunc, (), 2)}

    def test_integer_coefficients_become_rationals(self):
        assert {ring_of(c) for c in TruncSeries([1, 2], 3).coeffs} == {ring_of(Fraction(0))}

    def test_derived_series_keep_the_ring(self):
        series = TruncSeries([LaurentPoly.constant(1, ("L",)), L], 0)
        for derived in (series.log(), series.log().exp(), series**0, series.derivative()):
            assert {ring_of(c) for c in derived.coeffs} == {ring_of(L)}


# -- sparse recurrences against the schoolbook loops ------------------------------
#
# The oracles below are the dense O(N^2) loops that TruncSeries used before
# its recurrences skipped zero coefficients: every coefficient pair is
# multiplied, zeros included.


def dense_mul(a, b):
    n = min(a.order, b.order)
    x, y = a.coeffs, b.coeffs
    out = []
    for m in range(n + 1):
        acc = x[0] * y[m]
        for k in range(1, m + 1):
            acc = acc + x[k] * y[m - k]
        out.append(acc)
    return TruncSeries(out, n, a._zero)


def dense_div(a, b):
    n = min(a.order, b.order)
    inv = 1 / b.coeffs[0] if isinstance(b.coeffs[0], Fraction) else b.coeffs[0].invert_unit()
    x, y = a.coeffs, b.coeffs
    out = [x[0] * inv]
    for m in range(1, n + 1):
        acc = x[m]
        for k in range(1, m + 1):
            acc = acc - y[k] * out[m - k]
        out.append(acc * inv)
    return TruncSeries(out, n, a._zero)


def dense_exp(b):
    out = [Fraction(1)]
    x = b.coeffs
    for n in range(1, b.order + 1):
        acc = x[1] * out[n - 1]
        for k in range(2, n + 1):
            acc = acc + (k * x[k]) * out[n - k]
        out.append(Fraction(1, n) * acc)
    return TruncSeries(out, b.order, b._zero)


def dense_log(a):
    out = [Fraction(0)]
    if a.order:
        ratio = dense_div(a.derivative(), a.truncate(a.order - 1))
        out += [Fraction(1, n) * c for n, c in enumerate(ratio.coeffs, start=1)]
    return TruncSeries(out, a.order, a._zero)


def dense_scale(a, factor):
    return TruncSeries([factor * c for c in a.coeffs], a.order, a._zero)


def same_series(got, expected):
    """Equal coefficients, and every coefficient and the zero in one ring."""
    assert got == expected
    assert ring_of(got._zero) == ring_of(expected._zero)
    assert {ring_of(c) for c in got.coeffs} == {ring_of(got._zero)}


SYM_BOUND = 3
SYM_PARTS = [(), (1,), (2,), (1, 1), (3,)]


def q_value(nonzero=False):
    value = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return value.filter(bool) if nonzero else value


def ql_value(nonzero=False):
    terms = st.dictionaries(
        st.integers(-1, 2).map(lambda e: (e,)), q_value(True), min_size=int(nonzero), max_size=3
    )
    return terms.map(lambda t: LaurentPoly(("L",), t))


def sym_value(nonzero=False):
    terms = st.dictionaries(
        st.sampled_from(SYM_PARTS), ql_value(True), min_size=int(nonzero), max_size=3
    )
    return terms.map(lambda t: SymFunc(t, SYM_BOUND, ("L",)))


# name -> (zero, coefficient strategy, unit strategy)
RINGS = {
    "Q": (Fraction(0), q_value, q_value(True)),
    "Q[L]": (
        LaurentPoly.zero(("L",)),
        ql_value,
        st.tuples(q_value(True), st.integers(-1, 2)).map(
            lambda ce: LaurentPoly(("L",), {(ce[1],): ce[0]})
        ),
    ),
    "SymFunc": (
        SymFunc.zero(SYM_BOUND, ("L",)),
        sym_value,
        q_value(True).map(lambda q: SymFunc.constant(q, SYM_BOUND, ("L",))),
    ),
}


@st.composite
def ring_series(draw, head=None, rings=RINGS, ring=None):
    """A series of order 0-12 over one of rings (the named ring if given)
    with a random zero pattern: dense, sparse, all zero or a single term.
    head fixes the constant term ("zero", "one" or "unit")."""
    zero, value, unit = rings[ring or draw(st.sampled_from(sorted(rings)))]
    order = draw(st.integers(0, 12))
    pattern = draw(st.sampled_from(["dense", "sparse", "zero", "single"]))
    if pattern == "dense":
        coeffs = draw(st.lists(value(), min_size=order + 1, max_size=order + 1))
    elif pattern == "sparse":
        coeffs = [
            draw(value(True)) if draw(st.integers(0, 3)) == 0 else zero for _ in range(order + 1)
        ]
    else:
        coeffs = [zero] * (order + 1)
        if pattern == "single":
            coeffs[draw(st.integers(0, order))] = draw(value(True))
    if head == "zero":
        coeffs[0] = zero
    elif head == "one":
        coeffs[0] = Fraction(1)
    elif head == "unit":
        coeffs[0] = draw(unit)
    return TruncSeries(coeffs, order, zero)


RING_ELEMENTS = st.sampled_from(sorted(RINGS)).flatmap(lambda name: RINGS[name][1]())


class TestSparseRecurrences:
    """Each sparse recurrence gives the schoolbook loop's coefficients in
    the schoolbook loop's ring, over Q, Q[L] and SymFunc coefficients."""

    @given(ring_series(), ring_series())
    @settings(max_examples=150, deadline=None)
    def test_mul(self, a, b):
        same_series(a * b, dense_mul(a, b))

    @given(ring_series(), ring_series(head="unit"))
    @settings(max_examples=150, deadline=None)
    def test_div(self, a, b):
        same_series(a / b, dense_div(a, b))

    @given(ring_series(head="zero"))
    @settings(max_examples=100, deadline=None)
    def test_exp(self, b):
        same_series(b.exp(), dense_exp(b))

    @given(ring_series(head="one"))
    @settings(max_examples=100, deadline=None)
    def test_log(self, a):
        same_series(a.log(), dense_log(a))

    @given(ring_series(), st.one_of(RING_ELEMENTS, st.just(Fraction(0)), st.just(0)))
    @settings(max_examples=150, deadline=None)
    def test_scale(self, a, factor):
        same_series(a.scale(factor), dense_scale(a, factor))
        same_series(factor * a, dense_scale(a, factor))

    @pytest.mark.parametrize("ring", sorted(RINGS))
    def test_all_zero_product_keeps_the_joined_ring(self, ring):
        zero = RINGS[ring][0]
        for a, b in [(TruncSeries([], 3), TruncSeries([], 3, zero)),
                     (TruncSeries([], 3, zero), TruncSeries([], 3))]:
            same_series(a * b, dense_mul(a, b))
            assert ring_of((a * b)._zero) == ring_of(zero)
        same_series(TruncSeries([], 3).scale(zero), dense_scale(TruncSeries([], 3), zero))

    def test_t_powers(self):
        """t^k for k = 0..30 at orders 0..12, by binary powering through the
        sparse product, against the same powering through the dense one."""
        for order in range(13):
            t = TruncSeries.t_var(order)
            dense = TruncSeries.one(order)
            for k in range(31):
                expected = TruncSeries([0] * k + [1], order) if k <= order else TruncSeries([], order)
                same_series(t**k, expected)
                same_series(dense, expected)
                dense = dense_mul(dense, t)

    @given(ring_series(), st.integers(0, 30))
    @settings(max_examples=100, deadline=None)
    def test_t_power_times_series(self, a, k):
        tk = TruncSeries.t_var(a.order) ** k
        same_series(tk * a, dense_mul(tk, a))
        same_series(a * tk, dense_mul(a, tk))


# -- the integer division kernel against the schoolbook loop -------------------
#
# Quotients over Q and one-variable Q[L] run on packed integers; dense_div,
# ring arithmetic coefficient by coefficient, stays the oracle.

# A numerator of 2^200 or more outgrows any slot width the small
# coefficients before it need, so the kernel widens mid-recurrence.
HUGE = st.builds(lambda n, sign: sign * n, st.integers(2**200, 2**210), st.sampled_from([1, -1]))


def kernel_q(nonzero=False, huge=False):
    numerator = st.one_of(st.integers(-5, 5), HUGE) if huge else st.integers(-5, 5)
    value = st.builds(Fraction, numerator, st.integers(1, 6))
    return value.filter(bool) if nonzero else value


def kernel_ql(nonzero=False, huge=False):
    terms = st.dictionaries(
        st.integers(-3, 3).map(lambda e: (e,)),
        kernel_q(True, huge),
        min_size=int(nonzero),
        max_size=4,
    )
    return terms.map(lambda t: LaurentPoly(("L",), t))


def kernel_unit(ring):
    """c or c L^e: the units the kernel divides by."""
    if ring == "Q":
        return kernel_q(True)
    return st.tuples(kernel_q(True), st.integers(-3, 3)).map(
        lambda ce: LaurentPoly(("L",), {(ce[1],): ce[0]})
    )


@st.composite
def kernel_series(draw, ring=None, head=None, huge=False):
    """A series over Q or Q[L] of order 0-12, dense, sparse or all zero, with
    denominators and negative exponents; head="unit" makes the constant
    term c or c L^e."""
    ring = ring or draw(st.sampled_from(["Q", "Q[L]"]))
    value = kernel_q if ring == "Q" else kernel_ql
    zero = Fraction(0) if ring == "Q" else LaurentPoly.zero(("L",))
    order = draw(st.integers(0, 12))
    pattern = draw(st.sampled_from(["dense", "sparse", "zero"]))
    if pattern == "dense":
        coeffs = draw(st.lists(value(huge=huge), min_size=order + 1, max_size=order + 1))
    elif pattern == "sparse":
        coeffs = [
            draw(value(True, huge)) if draw(st.integers(0, 3)) == 0 else zero
            for _ in range(order + 1)
        ]
    else:
        coeffs = [zero] * (order + 1)
    if head == "unit":
        coeffs[0] = draw(kernel_unit(ring))
    return TruncSeries(coeffs, order, zero)


@st.composite
def t_power_divisor(draw):
    """(1 - t^k)^(-c) as the iterative factorize divides by it, or a unit
    plus terms at multiples of k only."""
    order, k = draw(st.integers(0, 12)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        c = draw(st.one_of(kernel_q(True), kernel_ql(True)))
        return lambda_t(c, order // k).substitute_tk(k, order)
    ring = draw(st.sampled_from(["Q", "Q[L]"]))
    coeffs = [draw(kernel_unit(ring))] + [0] * order
    for j in range(k, order + 1, k):
        coeffs[j] = draw(kernel_q() if ring == "Q" else kernel_ql())
    return TruncSeries(coeffs, order)


class TestDenseDivision:
    """a / b over Q and Q[L] gives the schoolbook quotient's coefficients in
    its ring; other rings never reach the integer kernel."""

    @given(kernel_series(), kernel_series(head="unit"))
    @settings(max_examples=300, deadline=None)
    def test_div(self, a, b):
        same_series(a / b, dense_div(a, b))

    @given(kernel_series(huge=True), kernel_series(head="unit", huge=True))
    @settings(max_examples=100, deadline=None)
    def test_div_huge_numerators(self, a, b):
        same_series(a / b, dense_div(a, b))

    @given(
        st.integers(1, 12).flatmap(
            lambda order: st.tuples(
                st.lists(kernel_ql(), min_size=order + 1, max_size=order + 1),
                st.integers(1, order),
                kernel_ql(True, huge=True),
            )
        ),
        kernel_series(ring="Q[L]", head="unit"),
    )
    @settings(max_examples=100, deadline=None)
    def test_width_grows_mid_recurrence(self, drawn, b):
        """Small coefficients, then one of 2^200 or more at position m >= 1."""
        coeffs, m, huge = drawn
        coeffs[m] = huge
        a = TruncSeries(coeffs, len(coeffs) - 1, LaurentPoly.zero(("L",)))
        same_series(a / b, dense_div(a, b))

    @given(kernel_series(), t_power_divisor())
    @settings(max_examples=150, deadline=None)
    def test_sparse_t_power_divisors(self, a, b):
        same_series(a / b, dense_div(a, b))

    @given(
        kernel_series(ring="Q"),
        kernel_series(ring="Q", head="unit"),
        kernel_series(ring="Q[L]"),
        kernel_series(ring="Q[L]", head="unit"),
    )
    @settings(max_examples=100, deadline=None)
    def test_empty_alphabet_operands(self, a, b, c, d):
        """Series over Laurent polynomials in no variable divide on the
        kernel beside a Q[L] operand."""
        no_vars = LaurentPoly.zero(())
        a, b = (TruncSeries(s.coeffs, s.order, no_vars) for s in (a, b))
        same_series(a / d, dense_div(a, d))
        same_series(c / b, dense_div(c, b))

    @given(kernel_series(head="unit"), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_reciprocal_and_negative_power(self, b, n):
        one = TruncSeries.one(b.order)
        inverse = dense_div(one, b)
        same_series(1 / b, inverse)
        power = inverse
        for _ in range(n - 1):
            power = dense_mul(power, inverse)
        same_series(b**-n, power)

    def test_other_rings_take_the_generic_loop(self, monkeypatch):
        calls = []
        kernel = series_module._dense_quotient
        monkeypatch.setattr(
            series_module, "_dense_quotient", lambda *args: calls.append(1) or kernel(*args)
        )
        u, v = LaurentPoly.var("u", ("u", "v")), LaurentPoly.var("v", ("u", "v"))
        p1 = SymFunc.p(1, SYM_BOUND, ("L",))
        for a, b in [
            (TruncSeries([1, p1, L], 4), TruncSeries([1, -p1], 4)),
            (TruncSeries([1, u, v], 4), TruncSeries([1, u - v], 4)),
            (TruncSeries([1, 2], 4), TruncSeries([GradedAdamsElement({0: 2}), 1], 4)),
        ]:
            same_series(a / b, dense_div(a, b))
        assert calls == []
        same_series(TruncSeries([1, L], 4) / TruncSeries([2, 1], 4),
                    dense_div(TruncSeries([1, L], 4), TruncSeries([2, 1], 4)))
        assert calls == [1]


# -- sums -----------------------------------------------------------------------


def dense_add(a, b, sign=1):
    n = min(a.order, b.order)
    x, y = a.coeffs[: n + 1], b.coeffs[: n + 1]
    return TruncSeries([p + q if sign > 0 else p - q for p, q in zip(x, y)], n, a._zero)


class TestSums:
    """A sum that keeps the nonzero operand of a zero pair gives the
    coefficient-wise sum in the joined ring."""

    @given(ring_series(), ring_series())
    @settings(max_examples=300, deadline=None)
    def test_add_and_sub(self, a, b):
        same_series(a + b, dense_add(a, b))
        same_series(a - b, dense_add(a, b, -1))

    @pytest.mark.parametrize("left", sorted(RINGS))
    @pytest.mark.parametrize("right", sorted(RINGS))
    def test_all_zero_operands_join_the_rings(self, left, right):
        x = TruncSeries([1, 0, L if left != "Q" else 2], 3, RINGS[left][0])
        zero = TruncSeries([], 3, RINGS[right][0])
        for a, b in [(x, zero), (zero, x), (zero, zero)]:
            same_series(a + b, dense_add(a, b))
            same_series(a - b, dense_add(a, b, -1))


# Operands of the value rules: rationals, Laurent polynomials, symmetric
# functions over Q and Q[L], graded elements and series over each of RINGS.
VALUES = st.one_of(
    q_value(),
    ql_value(),
    sym_value(),
    st.dictionaries(st.sampled_from(SYM_PARTS), q_value(True), max_size=3).map(
        lambda t: SymFunc(t, SYM_BOUND)
    ),
    st.dictionaries(st.integers(0, 3), q_value(True), max_size=3).map(GradedAdamsElement),
    ring_series(),
)


class TestValueRules:
    """Rules every value type shares: subtraction is addition of the
    negative, and no attribute can be set after construction."""

    @given(VALUES, VALUES)
    @settings(max_examples=300, deadline=None)
    def test_subtraction_adds_the_negative(self, x, y):
        try:
            expected = x + (-y)
        except TypeError:
            # No sum, so no difference either.
            with pytest.raises(TypeError):
                x - y
            return
        assert x - y == expected
        assert y - x == -x + y

    @pytest.mark.parametrize(
        "value",
        [
            L,
            GradedAdamsElement({1: 2}),
            SymFunc.p(1, SYM_BOUND),
            TruncSeries([1, L], 2),
        ],
        ids=lambda value: type(value).__name__,
    )
    @pytest.mark.parametrize("name", ["terms", "vars", "order", "coeffs", "components", "other"])
    def test_immutable(self, value, name):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            setattr(value, name, None)


# -- derived series built without the promoting constructor -----------------------
#
# Negation, truncation, derivative, t -> t^k, exp, log, scaling by a scalar,
# and sums and products of two series over one ring build their result with
# TruncSeries._raw.  Each is checked against the same coefficients passed
# through the promoting constructor: equal values, and the zero and every
# coefficient in the constructor's ring.


def quv_value(nonzero=False):
    terms = st.dictionaries(
        st.tuples(st.integers(-1, 2), st.integers(0, 2)), q_value(True), min_size=int(nonzero), max_size=3
    )
    return terms.map(lambda t: LaurentPoly(("u", "v"), t))


RAW_RINGS = {
    **RINGS,
    "Q[u,v]": (
        LaurentPoly.zero(("u", "v")),
        quv_value,
        q_value(True).map(lambda q: LaurentPoly.constant(q, ("u", "v"))),
    ),
}
# Pairs of rings with a join: Q[u,v] does not join Q[L] or SymFunc over L.
RING_PAIRS = [
    (x, y) for x in sorted(RAW_RINGS) for y in sorted(RAW_RINGS)
    if "Q[u,v]" not in (x, y) or {x, y} <= {"Q", "Q[u,v]"}
]


def raw_series(ring=None, head=None):
    return ring_series(head=head, rings=RAW_RINGS, ring=ring)


class TestTrustedConstructor:
    """Every TruncSeries._raw site against the promoting constructor, over
    Q, Q[L], Q[u,v] and SymFunc coefficients at orders 0-12."""

    @given(raw_series())
    @settings(max_examples=150, deadline=None)
    def test_neg(self, a):
        same_series(-a, TruncSeries([-c for c in a.coeffs], a.order, a._zero))

    @given(raw_series(), st.integers(0, 12))
    @settings(max_examples=150, deadline=None)
    def test_truncate(self, a, order):
        order = min(order, a.order)
        same_series(a.truncate(order), TruncSeries(a.coeffs[: order + 1], order, a._zero))

    @given(raw_series())
    @settings(max_examples=150, deadline=None)
    def test_derivative(self, a):
        coeffs = [k * a.coeffs[k] for k in range(1, a.order + 1)]
        same_series(a.derivative(), TruncSeries(coeffs, max(a.order - 1, 0), a._zero))

    @given(raw_series(), st.integers(1, 3), st.integers(0, 12))
    @settings(max_examples=150, deadline=None)
    def test_substitute_tk(self, a, k, order):
        order = min(order, (a.order + 1) * k - 1)
        coeffs = [a.coeffs[j // k] if j % k == 0 else a._zero for j in range(order + 1)]
        same_series(a.substitute_tk(k, order), TruncSeries(coeffs, order, a._zero))

    @given(raw_series(head="zero"))
    @settings(max_examples=100, deadline=None)
    def test_exp(self, b):
        same_series(b.exp(), dense_exp(b))

    @given(raw_series(head="one"))
    @settings(max_examples=100, deadline=None)
    def test_log(self, a):
        same_series(a.log(), dense_log(a))

    @given(raw_series(), st.one_of(q_value(), st.integers(-3, 3), st.just(Fraction(0)), st.just(0)))
    @settings(max_examples=150, deadline=None)
    def test_scale_by_a_scalar(self, a, factor):
        expected = TruncSeries([factor * c for c in a.coeffs], a.order, a._zero)
        same_series(a.scale(factor), expected)
        same_series(factor * a, expected)
        same_series(a * factor, expected)

    @given(st.sampled_from(RING_PAIRS).flatmap(lambda p: st.tuples(raw_series(p[0]), raw_series(p[1]))))
    @settings(max_examples=300, deadline=None)
    def test_mul_and_add(self, pair):
        """One ring takes _raw, two rings the constructor; both give the
        constructor's coefficients in the joined ring."""
        a, b = pair
        n, zero = min(a.order, b.order), a._zero + b._zero
        x, y = a.coeffs, b.coeffs
        products = [sum((x[k] * y[m - k] for k in range(m + 1)), zero) for m in range(n + 1)]
        same_series(a * b, TruncSeries(products, n, zero))
        same_series(a + b, TruncSeries([p + q for p, q in zip(x[: n + 1], y[: n + 1])], n, zero))

    def test_mixed_rings_keep_the_promoting_constructor(self):
        q = TruncSeries([1, 2, 0], 2)
        ql = TruncSeries([1, L], 2)
        for got in (q * ql, ql * q, q + ql, ql + q):
            same_series(got, TruncSeries(got.coeffs, 2, L * 0))


class TestUsualPower:
    def test_inverse_geometric(self):
        s = TruncSeries([1, -1], 3).usual_power(Fraction(-1))
        assert s == TruncSeries([1, 1, 1, 1], 3)

    def test_square_root(self):
        root = TruncSeries([1, 1], 8).usual_power(Fraction(1, 2))
        assert root * root == TruncSeries([1, 1], 8)

    def test_binomial_with_symfunc_base(self):
        from powerstruct import SymFunc

        p1 = SymFunc.p(1, 2)
        base = TruncSeries([SymFunc.constant(1, 2), p1], 2)
        assert base.usual_power(2) == TruncSeries(
            [SymFunc.constant(1, 2), 2 * p1, p1 * p1], 2
        )

    @given(unit_series(), st.integers(1, 5).map(lambda n: Fraction(1, n)))
    @settings(max_examples=40)
    def test_power_inverse_pair(self, a, e):
        assert a.usual_power(e).usual_power(1 / e) == a

    @given(
        st.sampled_from(RING_PAIRS).flatmap(
            lambda pair: st.tuples(
                raw_series(pair[0], head="one"),
                st.one_of(
                    st.just(0),
                    st.integers(-3, 3),
                    q_value(),
                    RAW_RINGS[pair[1]][1](),
                    q_value().map(lambda q: LaurentPoly.constant(q, ())),
                ),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_exp_log(self, case):
        """Over Q, Q[L], Q[u,v] and SymFunc at orders 0-12, with zero,
        integer, rational, ring-element and empty-alphabet exponents: the
        exp-log route's coefficients in its ring."""
        a, e = case
        same_series(a.usual_power(e), exp_log_power(a, e))

    def test_rings_that_do_not_join(self):
        u = LaurentPoly.var("u", ("u", "v"))
        with pytest.raises(AlphabetMismatchError, match=r"^cannot combine alphabets \('u', 'v'\) and \('L',\)$"):
            TruncSeries([1, L], 3).usual_power(u)


# -- plain powers on the integer kernel against the coefficient loop -------------
#
# Over Q and Q[L], usual_power runs Miller's recurrence on packed integers and
# on B(t) = A(t^(1/g)) for the gcd g of A's support; generic_usual_power, the
# coefficient loop over every n, stays the oracle.


def generic_usual_power(a, e):
    """Miller's recurrence on ring elements at every n = 1..N: the loop
    usual_power keeps for the other rings."""
    a._require_constant(1, "log")
    zero = series_module._ring_zero((e,), a._zero)
    out = [1 + zero]
    support = [(k, c, k * (e + 1)) for k, c in enumerate(a.coeffs) if k and c]
    for n in range(1, a.order + 1):
        terms = [(ke - n) * Fraction(1, n) * c * out[n - k] for k, c, ke in support if k <= n and out[n - k]]
        out.append(sum(terms, zero))
    return TruncSeries(out, a.order, zero)


def huge_value(ring):
    """A value with a coefficient of 2^200 or more."""
    if ring == "Q":
        return st.builds(Fraction, HUGE, st.integers(1, 6))
    return st.tuples(kernel_ql(), HUGE, st.integers(-3, 3)).map(
        lambda p: p[0] + LaurentPoly(("L",), {(p[2],): p[1]})
    )


@st.composite
def strided_unit_series(draw, ring=None, huge=False):
    """A constant-term-1 series over Q or Q[L] of order 0-12 whose nonzero
    terms sit at multiples of a stride 1-4, so that their indices may share
    a gcd > 1, with denominators, negative exponents and runs of zeros;
    huge=True puts a coefficient of 2^200 or more after small ones, so the
    slot width grows mid-recurrence."""
    ring = ring or draw(st.sampled_from(["Q", "Q[L]"]))
    value = kernel_q if ring == "Q" else kernel_ql
    zero = Fraction(0) if ring == "Q" else LaurentPoly.zero(("L",))
    order, stride = draw(st.integers(0, 12)), draw(st.integers(1, 4))
    coeffs = [Fraction(1)] + [zero] * order
    for j in range(stride, order + 1, stride):
        coeffs[j] = draw(st.one_of(st.just(zero), value(True)))
    if huge and order >= 2 * stride:
        coeffs[draw(st.sampled_from(range(2 * stride, order + 1, stride)))] = draw(huge_value(ring))
    return TruncSeries(coeffs, order, zero)


POWER_EXPONENTS = st.one_of(
    st.sampled_from([0, -1, Fraction(-1), L**-1 + 2, L - L - 1]),
    st.integers(-3, 3),
    kernel_q(),
    kernel_ql(),
    kernel_q().map(lambda q: LaurentPoly.constant(q, ())),
)


class TestUsualPowerKernel:
    @given(st.booleans().flatmap(lambda huge: strided_unit_series(huge=huge)), POWER_EXPONENTS)
    @settings(max_examples=250, deadline=None)
    def test_matches_the_coefficient_loop_and_exp_log(self, a, e):
        """Exponents 0, -1 (e + 1 = 0), ints, rationals, Laurent and
        empty-alphabet ones, over strided supports: values and the ring, the
        join of the series' and the exponent's rings (Q for an exponent over
        no variable)."""
        got = a.usual_power(e)
        same_series(got, generic_usual_power(a, e))
        same_series(got, exp_log_power(a, e))

    def test_strided_support_takes_order_over_gcd_steps(self, monkeypatch):
        """1 + c t^12 - t^18 runs the recurrence on 1 + c t^2 - t^3 to order
        N // 6; binomial_series(c, k, e, N) on 1 + c t to order N // k."""
        orders = []
        kernel = series_module._dense_power
        monkeypatch.setattr(series_module, "_dense_power", lambda a, e, n: orders.append(n) or kernel(a, e, n))
        a = TruncSeries([1] + [0] * 11 + [L] + [0] * 5 + [-1], 24)
        same_series(a.usual_power(Fraction(-1, 3)), generic_usual_power(a, Fraction(-1, 3)))
        binomial = binomial_series(Fraction(-1), 12, Fraction(-1, 3), 24)
        assert orders == [4, 2]
        same_series(binomial, generic_usual_power(TruncSeries([1] + [0] * 11 + [-1], 24), Fraction(-1, 3)))
