"""The worked generating-function computations."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from powerstruct import (
    ConjugacyClassData,
    GroupActionData,
    IntegralityError,
    LaurentPoly,
    SpecializationMode,
    SymFunc,
    TruncSeries,
    binomial_power,
    config_space_series,
    config_specialization,
    harer_zagier,
    hyperelliptic_class,
    irreducible_class,
    irreducible_specialize,
    lambda_t,
    moduli_g2_series,
    poly_space_class,
    poly_space_series,
    power,
    quotient_euler_egf,
    quotient_euler_series,
    recompose,
    factorize,
    specialize,
    unordered_config_product,
)
from powerstruct.applications import _cycle_index_series
from powerstruct.rings import Rational


def exp_log_power(a, e):
    """a^e as exp(e log a): the route usual_power took before its recurrence,
    kept as the reference for the series that now run that recurrence."""
    return a.log().scale(e).exp()


L = LaurentPoly.var("L")
Q = LaurentPoly.var("q")
U = LaurentPoly.var("u", ("u", "v"))
V = LaurentPoly.var("v", ("u", "v"))


class TestPolySpaceClass:
    def test_one_variable_is_monomial(self):
        # oracle: direct expansion of (L^(N+1) - L^N)/(L - 1)
        for degree in range(1, 6):
            assert poly_space_class(1, degree) == L**degree

    def test_two_variables(self):
        # oracles: exact polynomial division
        assert poly_space_class(2, 1) == L**2 + L
        assert poly_space_class(2, 2) == L**5 + L**4 + L**3

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            poly_space_class(0, 1)


class TestIrreducibleClass:
    def test_one_variable(self):
        assert irreducible_class(1, 1) == L
        for degree in range(2, 7):
            assert irreducible_class(1, degree) == LaurentPoly.zero(("L",))

    def test_degree_one_is_whole_space(self):
        assert irreducible_class(2, 1) == poly_space_class(2, 1)

    def test_degree_two_set_difference_oracle(self):
        # [Irr_2] = [P_2] - [S^2 Irr_1]; the symmetric square comes from the
        # lambda series of [Irr_1]
        sym_square = lambda_t(irreducible_class(2, 1), 2).coeffs[2]
        assert irreducible_class(2, 2) == poly_space_class(2, 2) - sym_square
        assert irreducible_class(2, 2) == L**5 - L**2

    @pytest.mark.parametrize("n_vars", [1, 2, 3])
    def test_euler_factorization_consistency(self, n_vars):
        # the polynomial-space series factors with exponents [Irr_k]
        order = 5
        series = poly_space_series(n_vars, order)
        exponents = factorize(series)
        assert recompose(exponents, order) == series
        for k in range(1, order + 1):
            assert exponents[k - 1] == irreducible_class(n_vars, k)

    @pytest.mark.parametrize("n_vars", [1, 2, 3])
    def test_integrality(self, n_vars):
        for degree in range(1, 6):
            cls = irreducible_class(n_vars, degree)
            assert cls.is_integral()

    def test_non_integral_exponent_is_refused(self, monkeypatch):
        from powerstruct import applications

        half = L**3 * Fraction(1, 2) + L
        monkeypatch.setattr(applications, "factorize", lambda series: (L, half))
        with pytest.raises(IntegralityError) as info:
            irreducible_class(2, 2)
        assert str(info.value) == "Moebius sum for degree 2 is not divisible by 2 at L^3 (coefficient 1)"


class TestIrreducibleSpecialize:
    def test_euler_characteristics(self):
        for n_vars in (1, 2, 3):
            assert irreducible_specialize(n_vars, 1, "euler") == n_vars
            for degree in range(2, 7):
                assert irreducible_specialize(n_vars, degree, "euler") == 0

    def test_hodge_deligne(self):
        u = LaurentPoly.var("u", ("u", "v"))
        v = LaurentPoly.var("v", ("u", "v"))
        assert irreducible_specialize(1, 1, "hodge_deligne") == u * v
        assert irreducible_specialize(2, 2, "hodge_deligne") == u**5 * v**5 - u**2 * v**2

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            irreducible_specialize(1, 1, "betti")


class TestConfigSpace:
    def test_point_has_no_multi_configurations(self):
        series = config_space_series(LaurentPoly.constant(1), 4)
        assert series.coeffs[0] == 1
        assert series.coeffs[1] == SymFunc.p(1, 4)
        assert all(series.coeffs[n] == SymFunc.zero(4) for n in range(2, 5))

    def test_specializations(self):
        order = 6
        x_class = 1 + Q
        series = config_space_series(x_class, order)
        one = LaurentPoly.constant(1, ("q",))
        invariants = power(TruncSeries([one, one], order), x_class)
        signed = power(TruncSeries([one, -one], order), x_class)
        ordered = exp_log_power(TruncSeries([Fraction(1), Fraction(1)], order), x_class)
        for n in range(order + 1):
            coeff = series.coeffs[n]
            assert specialize(coeff, SpecializationMode.INVARIANTS) == invariants.coeffs[n]
            sign = 1 if n % 2 == 0 else -1
            assert specialize(coeff, SpecializationMode.SIGN) == sign * signed.coeffs[n]
            assert specialize(coeff, SpecializationMode.ORDERED) == factorial(n) * ordered.coeffs[n]


class TestUnorderedConfig:
    def test_cross_checked_product(self):
        # both routes are asserted equal inside; the power route is returned
        series = unordered_config_product([1, 0, 1], 6)
        expected = power(
            TruncSeries([LaurentPoly.constant(1, ("q",))] * 2, 6), 1 + Q**2
        )
        zero = LaurentPoly.zero(("q",))
        assert series == expected.map_coeffs(lambda c: c + zero)

    def test_point(self):
        series = unordered_config_product([1], 4)
        assert series.coeffs[0] == 1 and series.coeffs[1] == 1
        assert all(c == 0 for c in series.coeffs[2:])

    def test_sign_variant_point(self):
        series = unordered_config_product([1], 4, signed=True)
        assert series.coeffs[0] == 1 and series.coeffs[1] == 1
        assert all(c == 0 for c in series.coeffs[2:])

    def test_sign_variant_cross_check(self):
        # the internal equality assertion is the real content; smoke a case
        series = unordered_config_product([1, 2, 1], 5, signed=True)
        assert series.coeffs[0] == 1


def z2_on_sphere() -> GroupActionData:
    """An involution with two fixed points on a sphere-like space."""
    return GroupActionData(
        group_order=2,
        classes=(
            ConjugacyClassData(size=1, orbit_euler={1: 2}, identity=True),
            ConjugacyClassData(size=1, orbit_euler={1: 2, 2: 0}),
        ),
    )


class TestQuotientEuler:
    def test_trivial_group(self):
        action = GroupActionData(
            group_order=1,
            classes=(ConjugacyClassData(size=1, orbit_euler={1: 3}, identity=True),),
        )
        series = quotient_euler_series(action, 4)
        p1 = SymFunc.p(1, 4)
        base = TruncSeries([SymFunc.constant(1, 4), p1], 4)
        expected = exp_log_power(base, Fraction(3))
        assert series == expected.map_coeffs(lambda c: c + SymFunc.zero(4))
        # a trivial action is just the configuration series of the space
        assert series == config_space_series(LaurentPoly.constant(3), 4)

    def test_involution_example(self):
        # both classes contribute (1 + p1 t)^2, so the average is the same
        series = quotient_euler_series(z2_on_sphere(), 4)
        p1 = SymFunc.p(1, 4)
        assert series.coeffs[0] == 1
        assert series.coeffs[1] == 2 * p1
        assert series.coeffs[2] == p1 * p1
        assert series.coeffs[3] == SymFunc.zero(4)

    def test_constant_term_is_one(self):
        action = GroupActionData(
            group_order=6,
            classes=(
                ConjugacyClassData(size=1, orbit_euler={1: 4}, identity=True),
                ConjugacyClassData(size=3, orbit_euler={1: 2, 2: 1}),
                ConjugacyClassData(size=2, orbit_euler={1: 1, 3: 1}),
            ),
        )
        assert quotient_euler_series(action, 5).coeffs[0] == 1

    def test_egf(self):
        series = quotient_euler_egf(z2_on_sphere(), 4)
        expected = exp_log_power(TruncSeries([Fraction(1), Fraction(1)], 4), Fraction(2))
        assert series == expected

    def test_egf_trivial(self):
        action = GroupActionData(
            group_order=1,
            classes=(ConjugacyClassData(size=1, orbit_euler={1: 5}, identity=True),),
        )
        expected = exp_log_power(TruncSeries([Fraction(1), Fraction(1)], 6), Fraction(5))
        assert quotient_euler_egf(action, 6) == expected

    def test_ordered_specialization_matches_egf(self):
        action = GroupActionData(
            group_order=2,
            classes=(
                ConjugacyClassData(size=1, orbit_euler={1: 3}, identity=True),
                ConjugacyClassData(size=1, orbit_euler={1: 1, 2: 1}),
            ),
        )
        order = 5
        series = quotient_euler_series(action, order)
        egf = quotient_euler_egf(action, order)
        for n in range(order + 1):
            lhs = specialize(series.coeffs[n], SpecializationMode.ORDERED)
            assert lhs == factorial(n) * egf.coeffs[n]

    def test_validation(self):
        with pytest.raises(ValueError):
            GroupActionData(group_order=3, classes=(
                ConjugacyClassData(size=1, orbit_euler={1: 1}, identity=True),
            ))
        with pytest.raises(ValueError):
            GroupActionData(group_order=1, classes=(
                ConjugacyClassData(size=1, orbit_euler={1: 1}),
            ))
        with pytest.raises(ValueError):
            ConjugacyClassData(size=2, orbit_euler={1: 1}, identity=True)
        with pytest.raises(ValueError):
            ConjugacyClassData(size=1, orbit_euler={2: 5}, identity=True)

    @pytest.mark.parametrize(
        "size, orbit_euler, field",
        [
            (1, {2.7: 1.9}, "orbit length"),
            (1, {"1_0": True}, "orbit length"),
            (1, {10: True}, "orbit_euler value of orbit length 10"),
            (1, {2: 1.9}, "orbit_euler value of orbit length 2"),
            (1, {True: 1}, "orbit length"),
            (1.0, {1: 1}, "class size"),
            (True, {1: 1}, "class size"),
        ],
    )
    def test_non_int_fields_refused(self, size, orbit_euler, field):
        # int() would read {2.7: 1.9} as {2: 1} and {"1_0": True} as {10: 1}
        with pytest.raises(TypeError, match=f"^{field} must be an int"):
            ConjugacyClassData(size=size, orbit_euler=orbit_euler)

    @pytest.mark.parametrize("identity", ["false", "no", [0], 1, None])
    def test_non_bool_identity_refused(self, identity):
        # bool() would read "false", "no" and [0] as marking the identity
        with pytest.raises(TypeError, match="^identity must be a bool"):
            ConjugacyClassData(size=1, orbit_euler={1: 2}, identity=identity)

    @pytest.mark.parametrize("identity", [True, False])
    def test_bool_identity_accepted(self, identity):
        assert ConjugacyClassData(size=1, orbit_euler={1: 2}, identity=identity).identity is identity
        assert ConjugacyClassData(size=1, orbit_euler={1: 2}).identity is False

    def test_json_round_trip(self):
        action = z2_on_sphere()
        data = action.to_json_dict()
        assert data == {
            "group_order": 2,
            "classes": [
                {"size": 1, "identity": True, "orbit_euler": {"1": 2}},
                {"size": 1, "orbit_euler": {"1": 2, "2": 0}},
            ],
        }
        assert GroupActionData.from_json_dict(data) == action


    @pytest.mark.parametrize("key, length", [("1", 1), ("2", 2), ("10", 10), ("12", 12)])
    def test_orbit_length_keys(self, key, length):
        data = {
            "group_order": 2,
            "classes": [
                {"size": 1, "identity": True, "orbit_euler": {"1": 2}},
                {"size": 1, "orbit_euler": {key: 3}},
            ],
        }
        assert GroupActionData.from_json_dict(data).classes[1].orbit_euler == {length: 3}

class TestHyperelliptic:
    def test_classes(self):
        for genus in range(2, 7):
            assert hyperelliptic_class(genus) == L ** (2 * genus - 1)

    def test_hodge_deligne_image(self):
        u = LaurentPoly.var("u", ("u", "v"))
        v = LaurentPoly.var("v", ("u", "v"))
        assert hyperelliptic_class(2, "hodge_deligne") == (u * v) ** 3

    def test_needs_genus_two(self):
        with pytest.raises(ValueError):
            hyperelliptic_class(1)


class TestModuliG2:
    def test_low_order_coefficients(self):
        series = moduli_g2_series(4)
        p1 = SymFunc.p(1, 4)
        p3 = SymFunc.p(3, 4)
        p4 = SymFunc.p(4, 4)
        assert series.coeffs[0] == 1
        assert series.coeffs[1] == 2 * p1
        assert series.coeffs[2] == p1 * p1
        assert series.coeffs[3] == SymFunc.zero(4)
        assert series.coeffs[4] == (
            Fraction(1, 2) * p4 + Fraction(2, 3) * p1 * p3 - Fraction(1, 6) * p1**4
        )

    def test_prefactors_sum_to_one(self):
        from powerstruct import GENUS2_STRATA

        assert sum(s.prefactor for s in GENUS2_STRATA) == 1
        assert len(GENUS2_STRATA) == 10

    def test_order_zero(self):
        assert moduli_g2_series(0).coeffs[0] == 1


class TestHarerZagier:
    def test_genus_two_unmarked(self):
        assert harer_zagier(2, 0) == Fraction(-1, 240)

    def test_direct_evaluations(self):
        # (-1)^1 * (0! * 1 / 2!) * B_2 with B_2 = 1/6
        assert harer_zagier(1, 1) == Fraction(-1, 12)
        # (-1)^1 * (2! * 3 / 4!) * B_4 with B_4 = -1/30
        assert harer_zagier(2, 1) == Fraction(1, 120)
        # one more marked point: (-1)^2 * (3! * 3 / 4!) * (-1/30)
        assert harer_zagier(2, 2) == Fraction(-1, 40)

    def test_fibration_recursion(self):
        # chi(M_{g,n+1}) = (2 - 2g - n) chi(M_{g,n})
        for genus in (1, 2, 3):
            for marked in range(2, 5):
                assert harer_zagier(genus, marked + 1) == (
                    2 - 2 * genus - marked
                ) * harer_zagier(genus, marked)

    def test_domain(self):
        with pytest.raises(ValueError):
            harer_zagier(1, 0)
        with pytest.raises(ValueError):
            harer_zagier(0, 5)


TRIVIAL_ACTION = GroupActionData(
    group_order=1,
    classes=(ConjugacyClassData(size=1, orbit_euler={1: 0}, identity=True),),
)
BASE = TruncSeries([1, L, 1 - L, L**2], 3)

# Each entry builds a series from one library entry point, degenerate inputs
# (zero exponents, order 0, an action fixing nothing) included.
ONE_RING_CASES = {
    "power-factorize": lambda: power(BASE, 1 + L),
    "power-product": lambda: power(BASE, 1 + L, "product"),
    "power-zero-exponent": lambda: power(TruncSeries([1, 1], 2), 0 * L),
    "power-product-zero-exponent": lambda: power(BASE, 0 * L, "product"),
    "power-symfunc": lambda: power(TruncSeries([1, SymFunc.p(1, 3)], 3), L),
    "lambda_t": lambda: lambda_t(L, 4),
    "lambda_t-order-0": lambda: lambda_t(L, 0),
    "config": lambda: config_space_series(1 + Q, 4),
    "config-zero-class": lambda: config_space_series(0 * Q, 3),
    "config-order-0": lambda: config_space_series(1 + Q, 0),
    "unordered": lambda: unordered_config_product([1, 0, 1], 4),
    "unordered-signed": lambda: unordered_config_product([1, 2], 4, signed=True),
    "unordered-zero-class": lambda: unordered_config_product([0], 3),
    "unordered-order-0": lambda: unordered_config_product([1, 0, 1], 0),
    "quotient": lambda: quotient_euler_series(z2_on_sphere(), 4),
    "quotient-trivial": lambda: quotient_euler_series(TRIVIAL_ACTION, 2),
    "quotient-order-0": lambda: quotient_euler_series(z2_on_sphere(), 0),
    "moduli-g2": lambda: moduli_g2_series(6),
    "moduli-g2-order-0": lambda: moduli_g2_series(0),
}


@pytest.mark.parametrize("build", ONE_RING_CASES.values(), ids=ONE_RING_CASES.keys())
def test_every_coefficient_shares_one_ring(build):
    series = build()
    rings = {
        (type(c), getattr(c, "vars", None), getattr(c, "bound", None))
        for c in series.coeffs
    }
    assert len(rings) == 1, rings


# -- the cycle-index closed form -------------------------------------------------


def ring_of(value):
    return (type(value), getattr(value, "vars", None), getattr(value, "bound", None))


def assert_coefficient_ring(coeff, vars):
    """A symmetric-function coefficient is a Rational (never an int) over Q,
    and a LaurentPoly of Rationals over exactly vars otherwise."""
    rational = type(Rational(1))
    if vars:
        assert type(coeff) is LaurentPoly and coeff.vars == vars, coeff
        assert all(type(c) is rational for c in coeff.terms.values()), coeff
    else:
        assert type(coeff) is rational, coeff


def same_series(got, expected):
    """Equal coefficients, and every coefficient and the zero in one ring."""
    assert got == expected
    assert ring_of(got._zero) == ring_of(expected._zero)
    assert {ring_of(c) for c in got.coeffs} == {ring_of(got._zero)}


def binomial_product_sum(terms, order, bound, vars=()):
    """sum of prefactor * prod_k (1 + p_k t^k)^exponent as products of
    exp-log powers over symmetric functions: the reference for the closed
    form of ``_cycle_index_series``."""
    total = TruncSeries([], order, SymFunc.zero(bound, vars))
    for prefactor, factors in terms:
        product = TruncSeries.one(order)
        for k, exponent in factors:
            if exponent and k <= order:
                two_term = TruncSeries([1] + [0] * (k - 1) + [SymFunc.p(k, bound, vars)], order)
                product = product * exp_log_power(two_term, exponent)
        total = total + product.scale(prefactor)
    return total


RATIONALS = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
QL_POLYS = st.dictionaries(st.integers(-2, 3).map(lambda e: (e,)), RATIONALS.filter(bool), max_size=3).map(
    lambda terms: LaurentPoly(("L",), terms)
)


@st.composite
def cycle_index_terms(draw):
    """(terms, order, vars): up to three rational or integer prefactors, each
    with up to four factors; rational, integer (negative or not) and, over
    Q[L], polynomial exponents, zeros included; indices k up to 12, repeated
    or past the order."""
    vars = draw(st.sampled_from([(), ("L",)]))
    exponents = st.one_of(st.just(0), RATIONALS, st.integers(-4, 4), *([QL_POLYS] if vars else []))
    factors = st.lists(st.tuples(st.one_of(st.integers(1, 3), st.integers(1, 12)), exponents), max_size=4)
    terms = draw(st.lists(st.tuples(st.one_of(RATIONALS, st.integers(-3, 3)), factors), min_size=1, max_size=3))
    return terms, draw(st.integers(0, 10)), vars


UV_POLYS = st.dictionaries(
    st.tuples(st.integers(-1, 2), st.integers(-1, 2)), RATIONALS.filter(bool), max_size=3
).map(lambda terms: LaurentPoly(("u", "v"), terms))
# Classes over Q, Q[L] (negative exponents and denominators) and Q[u,v];
# the empty dictionaries give the zero class of each alphabet.
X_CLASSES = st.one_of(RATIONALS.map(LaurentPoly.constant), QL_POLYS, UV_POLYS)
MODES = st.sampled_from(list(SpecializationMode))


@st.composite
def group_actions(draw):
    identity = ConjugacyClassData(size=1, orbit_euler={1: draw(st.integers(-3, 4))}, identity=True)
    orbits = st.dictionaries(st.integers(1, 6), st.integers(-3, 3), max_size=3)
    others = draw(st.lists(st.builds(ConjugacyClassData, st.integers(1, 3), orbits), max_size=3))
    return GroupActionData(1 + sum(c.size for c in others), (identity, *others))


class TestCycleIndexClosedForm:
    @given(cycle_index_terms())
    @settings(max_examples=150, deadline=None)
    def test_matches_binomial_products(self, case):
        terms, order, vars = case
        bound = max(order, 1)
        series = _cycle_index_series(terms, order, bound, vars)
        same_series(series, binomial_product_sum(terms, order, bound, vars))
        # Built without the normalising constructor: already canonical, with
        # every coefficient nonzero and in the ring of vars.
        for c in series.coeffs:
            assert c.terms == SymFunc(c.terms, bound, vars).terms
            for coeff in c.terms.values():
                assert_coefficient_ring(coeff, tuple(vars))
                assert coeff

    @pytest.mark.parametrize("x_class", [1 + L, LaurentPoly.constant(2), U * V - 1])
    def test_integer_prefactor_is_a_rational(self, x_class):
        """config's prefactor is the int 1; it enters the t^0 coefficient,
        and every other one, as a Rational over Q or a LaurentPoly of
        Rationals over the class's alphabet."""
        series = config_space_series(x_class, 6)
        assert series.coeffs[0] == 1
        for c in series.coeffs:
            for coeff in c.terms.values():
                assert_coefficient_ring(coeff, x_class.vars)

    @given(st.integers(0, 8), st.one_of(QL_POLYS, st.sampled_from([U * V - 1, U**2 * V - 3 * U + Fraction(1, 3)])))
    @settings(max_examples=40, deadline=None)
    def test_config_matches_power_and_binomial_power(self, order, x_class):
        p1 = SymFunc.p(1, max(order, 1), x_class.vars)
        series = config_space_series(x_class, order)
        same_series(series, power(TruncSeries([1, p1], order, 0 * p1), x_class))
        assert series == binomial_power(p1, x_class, order)

    @given(X_CLASSES, st.integers(0, 10), MODES)
    @settings(max_examples=120, deadline=None)
    def test_config_specialization_matches_the_specialized_series(self, x_class, order, mode):
        """The power-structure route against the specialized symmetric-function
        series, kept here as the reference."""
        reference = config_space_series(x_class, order).map_coeffs(lambda c: specialize(c, mode))
        same_series(config_specialization(x_class, order, mode), reference)
        same_series(config_specialization(x_class, order, mode.value), reference)

    @pytest.mark.parametrize("mode", [m.value for m in SpecializationMode])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_config_specialize_builds_no_symmetric_function(self, monkeypatch, mode, fmt):
        from powerstruct import applications, cli

        request = cli.CommandRequest("config", {"x_class": "L^2 - 3*L + 1/2", "specialize": mode}, 12, fmt)
        expected = cli.run_command(request)
        assert expected[0] == 0

        def refuse(*args, **kwargs):
            raise AssertionError("config --specialize built a symmetric function")

        monkeypatch.setattr(SymFunc, "__init__", refuse)
        monkeypatch.setattr(applications, "config_space_series", refuse)
        assert cli.run_command(request) == expected

    @given(group_actions(), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_quotient_ordered_part_is_the_egf(self, action, order):
        series = quotient_euler_series(action, order)
        egf = quotient_euler_egf(action, order)
        for n in range(order + 1):
            assert series.coeffs[n].coefficient((1,) * n) == egf.coeffs[n]
