"""Symmetric functions: arithmetic, bases, plethysm, specializations."""

import gc
import json
import re
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from powerstruct import (
    AlphabetMismatchError,
    GeneratorBoundError,
    HomogeneityError,
    InexactDivisionError,
    LaurentPoly,
    SpecializationMode,
    SymFunc,
    TruncSeries,
    adams,
    basis_in_p,
    lambda_t,
    p_to_schur,
    partitions_of,
    plethysm_apply,
    specialize,
    z_value,
)
from powerstruct.reproduce import character_table
from powerstruct.rings import Rational, format_sum, format_term
from powerstruct.symfunc import (
    _conjugate,
    _hook_lengths,
    _omega,
    _schur_rational,
    by_weight,
    coefficient_json,
    normalize_partition,
)


def full_product_character_table(n):
    """chi^lambda(mu) as the coefficient of x^(lambda + delta) in the full
    product prod_{i<j}(x_i - x_j) * p_mu(x) over n variables."""
    names = tuple(f"x{i}" for i in range(n))
    gens = [LaurentPoly.var(name, names) for name in names]
    vandermonde = LaurentPoly.constant(1, names)
    for i in range(n):
        for j in range(i + 1, n):
            vandermonde = vandermonde * (gens[i] - gens[j])
    delta = tuple(n - 1 - i for i in range(n))
    table = {}
    for mu in partitions_of(n):
        product = vandermonde
        for part in mu:
            product = product * sum((g**part for g in gens), LaurentPoly.zero(names))
        for lam in partitions_of(n):
            target = tuple(p + d for p, d in zip(tuple(lam) + (0,) * (n - len(lam)), delta))
            coeff = product.terms.get(target, Fraction(0))
            if coeff:
                table[(lam, mu)] = int(coeff)
    return table

L = LaurentPoly.var("L")
U = LaurentPoly.var("u", ("u", "v"))


def sym_funcs(bound=6, max_weight=4):
    partitions = [p for n in range(max_weight + 1) for p in partitions_of(n)]
    coeff = st.integers(-4, 4).map(Fraction)
    return st.dictionaries(st.sampled_from(partitions), coeff, max_size=4).map(
        lambda terms: SymFunc(terms, bound)
    )


@st.composite
def homogeneous_sym_funcs(draw, max_weight=7, min_weight=0):
    """A homogeneous f of weight min_weight..max_weight with 1-4
    p-monomials, its coefficients in Q or in Q[L], and a generator bound >=
    the weight."""
    n = draw(st.integers(min_weight, max_weight))
    vars = draw(st.sampled_from([(), ("L",)]))
    rational = st.fractions(-5, 5, max_denominator=6).filter(bool)
    coeff = rational if not vars else st.lists(rational, min_size=1, max_size=3).map(
        lambda cs: sum((c * L**e for e, c in enumerate(cs)), LaurentPoly.zero(vars))
    )
    partitions = draw(st.lists(st.sampled_from(partitions_of(n)), min_size=1, max_size=4, unique=True))
    bound = draw(st.integers(n, n + 3))
    return SymFunc({mu: draw(coeff) for mu in partitions}, bound, vars)


def laplace_schur(partition, bound, signed):
    """s_lambda as det(h_{lambda_i - i + j}), or as det(e_{lambda'_i - i + j})
    when signed, by a Laplace expansion over SymFunc entries memoized on the
    surviving columns: the SymFunc-valued form that symfunc used before its
    rational one, kept here as the reference.  Unlike the library it takes
    the side it is told, not the shorter one."""
    rows = _conjugate(partition) if signed else partition
    size = len(rows)
    zero = SymFunc.zero(bound)

    def expand(k):
        if k < 0:
            return zero
        return SymFunc(
            {part: Fraction((-1) ** (k - len(part)) if signed else 1, z_value(part)) for part in partitions_of(k)},
            bound,
        )

    matrix = [[expand(rows[i] - i + j) for j in range(size)] for i in range(size)]
    memo = {}

    def minor(columns):
        if not columns:
            return SymFunc.constant(1, bound)
        if columns in memo:
            return memo[columns]
        row = size - len(columns)
        total = zero
        for position, column in enumerate(columns):
            entry = matrix[row][column]
            if not entry:
                continue
            term = entry * minor(columns[:position] + columns[position + 1 :])
            total = total + (term if position % 2 == 0 else -term)
        memo[columns] = total
        return total

    return minor(tuple(range(size)))


def reference_p_rational(k, signed):
    """h_k = sum over partitions lambda of k of p_lambda / z_lambda, or e_k
    when signed, each coefficient times (-1)^(k - length(lambda)): the map
    symfunc built before e_k was read as omega(h_k), kept as the reference."""
    return {
        part: Fraction((-1) ** (k - len(part)) if signed else 1, z_value(part))
        for part in partitions_of(k)
    }


def reference_sign(f):
    """The sign specialization term by term, p_mu -> (-1)^(|mu| - length(mu)):
    the loop symfunc ran before sign was read as invariants after omega,
    kept as the reference."""
    total = LaurentPoly.zero(f.vars)
    for partition, coeff in f.terms.items():
        sign = (-1) ** (sum(partition) - len(partition))
        total = total + (coeff if sign > 0 else -coeff)
    return total


@lru_cache(maxsize=None)
def reference_characters(partition):
    """chi^lambda(mu) = z_mu [p_mu] s_lambda for every mu, from the
    reference determinant on the shorter side."""
    s_lam = laplace_schur(partition, sum(partition), len(_conjugate(partition)) < len(partition))
    for coeff in s_lam.terms.values():
        assert_coefficient_ring(coeff, ())
    return {mu: z_value(mu) * coeff for mu, coeff in s_lam.terms.items()}


def reference_p_to_schur(f):
    """p_to_schur through the reference characters."""
    expansion = {}
    for lam in partitions_of(f.weight()):
        chi = reference_characters(lam)
        c = LaurentPoly.zero(f.vars)
        for mu, f_mu in f.terms.items():
            c = c + chi.get(mu, 0) * f_mu
        if c:
            expansion[lam] = c
    return expansion


def expand_in_variables(f: SymFunc, n_vars: int = 3) -> LaurentPoly:
    """Evaluate by substituting p_m -> x_1^m + ... + x_{n_vars}^m; coefficient
    variables ride along.  Independent of any Adams/plethysm code paths."""
    names = tuple(f.vars) + tuple(f"x{i}" for i in range(n_vars))
    gens = [LaurentPoly.var(f"x{i}", names) for i in range(n_vars)]
    total = LaurentPoly.zero(names)
    for partition, coeff in f.terms.items():
        term = _widen(coeff, names) if f.vars else LaurentPoly.constant(coeff, names)
        for part in partition:
            power_sum = LaurentPoly.zero(names)
            for g in gens:
                power_sum = power_sum + g**part
            term = term * power_sum
        total = total + term
    return total


def _widen(poly: LaurentPoly, names) -> LaurentPoly:
    pad = len(names) - len(poly.vars)
    return LaurentPoly(
        names, {exps + (0,) * pad: c for exps, c in poly.terms.items()}
    )


class TestArithmetic:
    def test_product_partitions(self):
        p1 = SymFunc.p(1, 4)
        assert (p1 * p1).terms.keys() == {(1, 1)}

    def test_cancellation(self):
        p1, p2 = SymFunc.p(1, 4), SymFunc.p(2, 4)
        assert (p1 + p2) - p2 == p1

    def test_bound_violation_on_construction(self):
        with pytest.raises(GeneratorBoundError):
            SymFunc.p(3, 2)

    def test_bound_violation_on_product(self):
        f = SymFunc.p(3, 4)
        g = SymFunc.p(2, 2)
        with pytest.raises(GeneratorBoundError):
            f * g

    def test_product_within_bound(self):
        f = SymFunc.p(3, 4) * SymFunc.p(2, 4)
        assert f.terms.keys() == {(3, 2)}

    def test_polynomial_coefficients(self):
        f = U * SymFunc.p(1, 3, ("u", "v"))
        assert f.coefficient((1,)) == U


@st.composite
def bounded_sym_funcs(draw, bound, vars):
    """A SymFunc at generator bound ``bound`` over ``vars`` (Q or Q[L]
    coefficients), its terms of weight <= 6 with parts <= ``bound``."""
    rational = st.fractions(-3, 3, max_denominator=4)
    coeff = rational if not vars else st.lists(rational, min_size=1, max_size=3).map(
        lambda cs: sum((c * L**e for e, c in enumerate(cs)), LaurentPoly.zero(vars))
    )
    partitions = [p for n in range(7) for p in partitions_of(n) if not p or p[0] <= bound]
    terms = draw(st.dictionaries(st.sampled_from(partitions), coeff, max_size=5))
    return SymFunc(terms, bound, vars)


RATIONAL = type(Rational(1))


def assert_coefficient_ring(coeff, vars):
    """The one coefficient rule: a Rational (never an int) over Q, and over
    Q[vars] a LaurentPoly over exactly vars whose coefficients are Rationals."""
    if vars:
        assert type(coeff) is LaurentPoly and coeff.vars == vars, coeff
        assert all(type(c) is RATIONAL for c in coeff.terms.values()), coeff
    else:
        assert type(coeff) is RATIONAL, coeff


def assert_canonical(f: SymFunc):
    """f's term map is the one the public constructor makes of it: sorted
    positive partitions within the bound, nonzero coefficients in the ring
    of f's own alphabet."""
    assert f.terms == SymFunc(f.terms, f.bound, f.vars).terms
    for partition, coeff in f.terms.items():
        assert partition == tuple(sorted(partition, reverse=True))
        assert not partition or 1 <= partition[-1] and partition[0] <= f.bound
        assert_coefficient_ring(coeff, f.vars)
        assert coeff


class TestCanonicalArithmetic:
    """Sums, negations and products build their results without the
    constructor's checks; these hold what those checks would."""

    @given(st.data(), st.integers(3, 6), st.integers(3, 6), st.sampled_from([(), ("L",)]))
    @settings(max_examples=150, deadline=None)
    def test_results_are_canonical(self, data, bound_a, bound_b, vars):
        a = data.draw(bounded_sym_funcs(bound_a, vars))
        b = data.draw(bounded_sym_funcs(bound_b, vars))
        bound = min(bound_a, bound_b)
        if max(a.max_index(), b.max_index()) > bound:
            for op in (lambda: a + b, lambda: a * b, lambda: b * a):
                with pytest.raises(GeneratorBoundError):
                    op()
            return
        for f in (a + b, a - b, -a, a * b, b * a, a * a, a + 2, 3 * a):
            assert_canonical(f)
        for f in (a + b, a * b):
            assert f.bound == bound and f.vars == vars
        assert (a + b) - b == a
        assert -(-a) == a
        assert a * (b + 1) == a * b + a
        zero = a + (-a)
        assert zero.terms == {} and zero.bound == a.bound and zero.vars == vars
        assert (a * SymFunc.zero(bound, vars)).terms == {}

    @given(st.data(), st.integers(3, 6))
    @settings(max_examples=50, deadline=None)
    def test_scalar_and_alphabet_promotion(self, data, bound):
        """A Q[L] operand lifts a Q one (and a polynomial scalar) to its
        alphabet before the result is built."""
        a = data.draw(bounded_sym_funcs(bound, ()))
        b = data.draw(bounded_sym_funcs(bound, ("L",)))
        for f in (a + b, b + a, a * b, b * a, a + L, L * a, a * L):
            assert_canonical(f)
            assert f.vars == ("L",)


class TestAdams:
    def test_p1_to_pk(self):
        assert adams(SymFunc.p(1, 6), 3) == SymFunc.p(3, 6)

    def test_identity(self):
        f = SymFunc.p(2, 6) + 3 * SymFunc.p(1, 6)
        assert adams(f, 1) == f

    def test_coefficient_action(self):
        f = U * SymFunc.p(2, 4, ("u", "v"))
        expected = U**2 * SymFunc.p(4, 4, ("u", "v"))
        assert adams(f, 2) == expected

    def test_coefficient_action_oracle(self):
        # both sides as honest polynomials in u, x1..x3: applying adams must
        # agree with substituting x_i -> x_i^k, u -> u^k in the expansion
        f = U * SymFunc.p(2, 4, ("u", "v")) + SymFunc.p(1, 4, ("u", "v"))
        expanded = expand_in_variables(f)
        substituted = expanded.substitute(
            {name: LaurentPoly.var(name, expanded.vars) ** 2 for name in expanded.vars}
        )
        assert expand_in_variables(adams(f, 2)) == substituted

    def test_bound_exceeded(self):
        with pytest.raises(GeneratorBoundError):
            adams(SymFunc.p(2, 4), 3)

    @given(sym_funcs(bound=18, max_weight=3), st.integers(1, 3), st.integers(1, 2))
    @settings(max_examples=40)
    def test_adams_identities(self, f, i, j):
        assert adams(adams(f, i), j) == adams(f, i * j)

    @given(
        sym_funcs(bound=18, max_weight=3),
        sym_funcs(bound=18, max_weight=3),
        st.integers(1, 3),
    )
    @settings(max_examples=40)
    def test_adams_ring_map(self, f, g, k):
        assert adams(f + g, k) == adams(f, k) + adams(g, k)
        assert adams(f * g, k) == adams(f, k) * adams(g, k)


class TestBases:
    def test_h2(self):
        # oracle: z_(2) = 2, z_(1,1) = 2
        assert z_value((2,)) == 2 and z_value((1, 1)) == 2
        expected = SymFunc(
            {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}, 5
        )
        assert basis_in_p("h", 2, 5) == expected

    def test_h1_is_p1(self):
        assert basis_in_p("h", 1, 5) == SymFunc.p(1, 5)

    def test_h0_e0_s_empty(self):
        one = SymFunc.constant(1, 5)
        assert basis_in_p("h", 0, 5) == one
        assert basis_in_p("e", 0, 5) == one
        assert basis_in_p("s", (), 5) == one

    def test_jacobi_trudi_degenerate(self):
        for n in range(1, 6):
            assert basis_in_p("s", (n,), 6) == basis_in_p("h", n, 6)
            assert basis_in_p("s", (1,) * n, 6) == basis_in_p("e", n, 6)

    def test_e2(self):
        expected = SymFunc({(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}, 5)
        assert basis_in_p("e", 2, 5) == expected

    @pytest.mark.parametrize("k", range(21))
    def test_h_and_e_match_the_reference(self, k):
        """h_k from its (lambda, 1/z_lambda) terms and e_k = omega(h_k)
        against the signed and unsigned reference maps."""
        for basis, signed in (("h", False), ("e", True)):
            f = basis_in_p(basis, k, k + 1)
            assert_canonical(f)
            assert f.bound == k + 1 and f.vars == ()
            assert f.terms == reference_p_rational(k, signed)

    @pytest.mark.parametrize(
        "basis, index, bound, error, message",
        [
            ("h", 4, 3, GeneratorBoundError, "weight 4 exceeds the bound 3"),
            ("e", 3, 2, GeneratorBoundError, "weight 3 exceeds the bound 2"),
            ("s", (2, 2), 3, GeneratorBoundError, "weight 4 exceeds the bound 3"),
            ("p", (4,), 3, GeneratorBoundError, "p_4 exceeds the generator bound 3"),
            ("e", -1, 3, ValueError, "index must be >= 0"),
            ("h", (2,), 3, TypeError, "basis 'h' takes an integer index"),
            ("s", (2, 0), 3, ValueError, "partition parts must be positive"),
            ("q", 1, 3, ValueError, "unknown basis 'q'"),
        ],
    )
    def test_invalid_atoms(self, basis, index, bound, error, message):
        with pytest.raises(error, match=re.escape(message)):
            basis_in_p(basis, index, bound)


class TestSchur:
    def test_p1_squared(self):
        # oracle: S_2 characters chi^(2) = (1, 1), chi^(1,1) = (1, -1)
        expansion = p_to_schur(SymFunc.p_monomial((1, 1), 3))
        assert expansion == {(2,): LaurentPoly.constant(1), (1, 1): LaurentPoly.constant(1)}

    def test_p2(self):
        expansion = p_to_schur(SymFunc.p(2, 3))
        assert expansion == {(2,): LaurentPoly.constant(1), (1, 1): LaurentPoly.constant(-1)}

    def test_p1(self):
        assert p_to_schur(SymFunc.p(1, 3)) == {(1,): LaurentPoly.constant(1)}

    def test_rejects_non_homogeneous(self):
        with pytest.raises(HomogeneityError):
            p_to_schur(SymFunc.p(1, 4) + SymFunc.p(2, 4))

    @given(sym_funcs(bound=6, max_weight=0))
    @settings(max_examples=10)
    def test_weight_zero(self, f):
        expansion = p_to_schur(f)
        back = SymFunc.zero(f.bound)
        for lam, coeff in expansion.items():
            back = back + coeff * basis_in_p("s", lam, f.bound)
        assert back == f

    @pytest.mark.parametrize("weight", range(1, 7))
    def test_round_trip_all_weights(self, weight):
        import random

        rng = random.Random(weight)
        terms = {
            p: Fraction(rng.randint(-4, 4)) for p in partitions_of(weight)
        }
        f = SymFunc(terms, weight)
        expansion = p_to_schur(f)
        back = SymFunc.zero(weight)
        for lam, coeff in expansion.items():
            back = back + coeff * basis_in_p("s", lam, weight)
        assert back == f

    @pytest.mark.parametrize("n", range(1, 6))
    def test_alternant_table_by_coefficient_extraction(self, n):
        """character_table reads chi^lambda(mu) off p_mu alone; the full
        product a_delta * p_mu gives the same table."""
        assert character_table(n) == full_product_character_table(n)

    def test_characters_match_the_alternant_table(self):
        """p_to_schur(p_mu) = sum_lambda chi^lambda(mu) s_lambda for every
        lambda, mu of weight <= 7, against the alternant oracle; the weights
        include partitions expanded by det(h) and by det(e)."""
        forms = set()
        for n in range(1, 8):
            table = character_table(n)
            for lam in partitions_of(n):
                forms.add(len(_conjugate(lam)) < len(lam))
            for mu in partitions_of(n):
                expected = {
                    lam: LaurentPoly.constant(table[lam, mu])
                    for lam in partitions_of(n)
                    if (lam, mu) in table
                }
                assert p_to_schur(SymFunc.p_monomial(mu, n)) == expected, (n, mu)
        assert forms == {False, True}

    @given(homogeneous_sym_funcs())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_through_jacobi_trudi(self, f):
        """sum_lambda c_lambda s_lambda == f: the characters read off the
        Jacobi-Trudi expansions are column-orthogonal."""
        back = SymFunc.zero(f.bound, f.vars)
        for lam, coeff in p_to_schur(f).items():
            back = back + coeff * basis_in_p("s", lam, f.bound)
        assert back == f


class TestRationalJacobiTrudi:
    """The determinants expanded on {partition: rational} maps against the
    SymFunc-valued reference expansion.  The library expands det(h) only and
    reads a lambda longer than its conjugate through omega; the reference
    expands det(h) and det(e) as it is told, so det(e) is an independent
    oracle of the omega path."""

    @pytest.mark.parametrize("weight", range(12))
    def test_every_schur_function_on_both_sides(self, weight):
        """basis_in_p('s', lambda), which builds full maps and so takes the
        Laplace loop without the hook-length skip, equals both reference
        determinants."""
        expansions = {}
        for lam in partitions_of(weight):
            s_lam = basis_in_p("s", lam, weight)
            rational = _schur_rational(lam, {})
            assert _schur_rational(lam, expansions) == rational, lam
            for signed in (False, True):
                reference = laplace_schur(lam, weight, signed)
                assert_canonical(reference)
                assert rational == reference.terms, (lam, signed)
                assert s_lam == reference, (lam, signed)
            assert_canonical(s_lam)
            assert s_lam.vars == () and s_lam.terms == rational
        assert set(expansions) <= set(range(weight + 1)), "h_k entries only, keyed by k"

    @given(homogeneous_sym_funcs(max_weight=9, min_weight=1))
    @settings(max_examples=60, deadline=None)
    def test_p_to_schur_matches_the_reference(self, f):
        expansion = p_to_schur(f)
        assert expansion == reference_p_to_schur(f)
        for c in expansion.values():
            assert_coefficient_ring(c, f.vars)

    @given(st.sampled_from([3, 6, 8, 9, 10]).flatmap(lambda n: homogeneous_sym_funcs(max_weight=n, min_weight=n)))
    @settings(max_examples=40, deadline=None)
    def test_p_to_schur_with_self_conjugate_partitions(self, f):
        """Weights whose partitions include self-conjugate ones, which the
        omega path writes once from one map."""
        assert any(lam == _conjugate(lam) for lam in partitions_of(f.weight()))
        expansion = p_to_schur(f)
        assert expansion == reference_p_to_schur(f)
        for c in expansion.values():
            assert_coefficient_ring(c, f.vars)

    @pytest.mark.parametrize("lam", [(2, 1), (3, 2, 1), (4, 2, 1, 1), (3, 3, 2), (4, 3, 2, 1)])
    def test_self_conjugate_schur_functions_round_trip(self, lam):
        n = sum(lam)
        assert lam == _conjugate(lam)
        assert p_to_schur(basis_in_p("s", lam, n)) == {lam: LaurentPoly.constant(1)}

    def test_memo_is_freed_on_return(self):
        """A determinant's memo leaves no reference cycle behind: with the
        cycle collector off, the collector then finds nothing to free."""
        gc.collect()
        gc.disable()
        try:
            _schur_rational((4, 3, 2, 1), {})
            assert gc.collect() == 0
        finally:
            gc.enable()


@st.composite
def large_part_partitions(draw, n):
    """A partition of n drawn part by part, each part about half the time
    all that is left or nearly so: sparse supports with large parts, which
    the hook-length test acts on."""
    parts, rest = [], n
    while rest:
        parts.append(draw(st.integers(max(1, rest - 2), rest) | st.integers(1, rest)))
        rest -= parts[-1]
    return normalize_partition(parts)


@st.composite
def sparse_sym_funcs(draw):
    """A homogeneous f of weight 1-12 with 1-4 p-monomials of large parts
    over Q or Q[L]; its coefficients are often +-1 or +-L, so that the sums
    c_lambda = sum_mu chi^lambda(mu) f_mu often cancel."""
    n = draw(st.integers(1, 12))
    vars = draw(st.sampled_from([(), ("L",)]))
    scalar = st.sampled_from([1, -1]) | st.fractions(-5, 5, max_denominator=6).filter(bool)
    coeff = scalar.map(Fraction) if not vars else st.tuples(scalar, st.integers(0, 1)).map(lambda ce: ce[0] * L ** ce[1])
    partitions = draw(st.lists(large_part_partitions(n), min_size=1, max_size=4, unique=True))
    return SymFunc({mu: draw(coeff) for mu in partitions}, n, vars)


class TestHookLengthSkip:
    """p_to_schur expands only the lambda with every part of some mu in the
    support among their hook lengths (the first step of the
    Murnaghan-Nakayama rule)."""

    @staticmethod
    def cell_hooks(lam):
        """Hook lengths by counting the cells right of and below each cell."""
        cells = {(i, j) for i, part in enumerate(lam) for j in range(part)}
        return {
            1 + sum((i, k) in cells for k in range(j + 1, lam[0])) + sum((k, j) in cells for k in range(i + 1, len(lam)))
            for i, j in cells
        }

    def test_nonzero_characters_pass_the_hook_test(self):
        """Every nonzero chi^lambda(mu) of weight <= 10 has all parts of mu
        among lambda's hook lengths; the test also catches zero characters."""
        caught = 0
        for n in range(1, 11):
            for lam in partitions_of(n):
                hooks = _hook_lengths(lam)
                assert hooks == self.cell_hooks(lam) == _hook_lengths(_conjugate(lam)), lam
                chi = reference_characters(lam)
                for mu in partitions_of(n):
                    if mu in chi:
                        assert chi[mu] and set(mu) <= hooks, (lam, mu)
                    elif not set(mu) <= hooks:
                        caught += 1
        assert caught > 0

    @given(sparse_sym_funcs())
    @example(SymFunc({(2,): 1, (1, 1): 1}, 2))
    @example(SymFunc({(12,): 1, (11, 1): 1, (10, 2): -1}, 12))
    @example(SymFunc({(6, 6): L, (12,): -L, (5, 5, 1, 1): 1}, 12, ("L",)))
    @settings(max_examples=80, deadline=None)
    def test_p_to_schur_on_sparse_supports(self, f):
        expansion = p_to_schur(f)
        assert expansion == reference_p_to_schur(f)
        for c in expansion.values():
            assert_coefficient_ring(c, f.vars)


class TestPlethysm:
    def test_p3_on_monomial(self):
        assert plethysm_apply(SymFunc.p(3, 4), L**2) == L**6

    def test_h2_on_line_class(self):
        # oracle: coefficient of t^2 in (1 - Lt)^(-1) is L^2
        assert plethysm_apply(basis_in_p("h", 2, 4), L) == L**2

    def test_multiplicativity(self):
        f = SymFunc.p_monomial((1, 1), 4)
        x = L**2 + 3 * L
        p1x = plethysm_apply(SymFunc.p(1, 4), x)
        assert plethysm_apply(f, x) == p1x * p1x

    def test_rejects_non_constant_coefficients(self):
        f = U * SymFunc.p(1, 3, ("u", "v"))
        with pytest.raises(ValueError):
            plethysm_apply(f, L)

    @given(st.integers(-3, 3), st.integers(0, 3))
    @settings(max_examples=30)
    def test_lambda_series_match(self, c0, c1):
        x = c0 + c1 * L
        order = 6
        series = TruncSeries(
            [plethysm_apply(basis_in_p("h", k, order), x) for k in range(order + 1)],
            order,
        )
        assert series == lambda_t(x, order)


class TestSpecialize:
    def test_invariants_of_h2(self):
        # dimension of the S_2-invariants of the trivial representation
        assert specialize(basis_in_p("h", 2, 3), SpecializationMode.INVARIANTS) == 1

    def test_sign_multiplicities(self):
        h2 = basis_in_p("h", 2, 3)
        e2 = basis_in_p("e", 2, 3)
        assert specialize(h2, SpecializationMode.SIGN) == 0
        assert specialize(e2, SpecializationMode.SIGN) == 1

    def test_ordered_dimension(self):
        assert specialize(basis_in_p("h", 2, 3), SpecializationMode.ORDERED) == 1

    def test_ordered_needs_homogeneous(self):
        with pytest.raises(HomogeneityError):
            specialize(
                SymFunc.p(1, 3) + SymFunc.p_monomial((1, 1), 3),
                SpecializationMode.ORDERED,
            )

    @given(st.data(), st.integers(3, 6), st.sampled_from([(), ("L",)]))
    @settings(max_examples=150, deadline=None)
    def test_sign_matches_the_reference(self, data, bound, vars):
        """Sign read as invariants after omega against the term-by-term
        loop, on Q and Q[L] functions of mixed weights."""
        f = data.draw(bounded_sym_funcs(bound, vars))
        assert specialize(f, SpecializationMode.SIGN) == reference_sign(f)
        assert specialize(f, SpecializationMode.SIGN).vars == vars

    @given(st.data(), st.integers(3, 6), st.sampled_from([(), ("L",)]))
    @settings(max_examples=60, deadline=None)
    def test_omega_is_an_involution(self, data, bound, vars):
        f = data.draw(bounded_sym_funcs(bound, vars))
        assert dict(_omega(_omega(f.terms.items()))) == f.terms

    @given(sym_funcs(), sym_funcs())
    @settings(max_examples=40)
    def test_invariants_is_ring_map(self, f, g):
        mode = SpecializationMode.INVARIANTS
        assert specialize(f * g, mode) == specialize(f, mode) * specialize(g, mode)
        assert specialize(f + g, mode) == specialize(f, mode) + specialize(g, mode)


class TestSerialization:
    def test_text_form(self):
        f = basis_in_p("h", 2, 4)
        assert str(f) == "1/2*p[1,1] + 1/2*p[2]"

    @pytest.mark.parametrize(
        "terms, text",
        [
            ({(): L}, "L"),
            ({(): L - 1, (1,): 1}, "L - 1 + p[1]"),
            ({(): -L, (1,): L}, "-L + (L)*p[1]"),
            ({(): 2, (2,): -L}, "2 + (-L)*p[2]"),
        ],
    )
    def test_leading_constant_term_is_bare(self, terms, text):
        """A constant term leads and is never parenthesised; the other
        non-constant coefficients are."""
        assert str(SymFunc(terms, 2, ("L",))) == text

    def test_json_round_trip(self):
        f = U * SymFunc.p(2, 4, ("u", "v")) - SymFunc.constant(3, 4, ("u", "v"))
        assert SymFunc.from_json_dict(f.to_json_dict()) == f

    def test_json_repeated_term_adds(self):
        """A partition repeated in a JSON term list adds, in either order of
        its parts, as the constructor adds one partition written twice."""
        def term(p, c, vars=()):
            return {"p": p, "c": {"vars": list(vars), "terms": [{"e": [1] * len(vars), "c": c}]}}

        data = {"bound": 3, "vars": [], "terms": [term([2, 1], "1"), term([1, 2], "1"), term([2, 1], "5")]}
        assert SymFunc.from_json_dict(data) == 7 * SymFunc.p_monomial((2, 1), 3)
        data = {"bound": 2, "vars": ["L"], "terms": [term([1], "1", "L"), term([1], "2", "L"), term([1], "-3", "L")]}
        assert SymFunc.from_json_dict(data).terms == {}
        data["terms"].append(term([1], "1", "u"))
        with pytest.raises(AlphabetMismatchError):
            SymFunc.from_json_dict(data)


# -- the one zero-dropping sum, against schoolbook references -----------------


def schoolbook_terms(pairs):
    """The term map of (partition, coefficient) pairs by the plain loop:
    every pair added at its sorted partition, then the zero sums dropped."""
    out = {}
    for partition, coeff in pairs:
        key = tuple(sorted(partition, reverse=True))
        out[key] = out[key] + coeff if key in out else coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def assert_rational_coefficients(f: SymFunc):
    """f is canonical: every coefficient is a Rational over Q, and a
    LaurentPoly over f's alphabet of Rationals over Q[L]."""
    assert_canonical(f)
    for coeff in f.terms.values():
        assert all(type(c) is RATIONAL for c in (coeff.terms.values() if f.vars else [coeff]))


@st.composite
def cancelling_sym_pairs(draw):
    """Two symmetric functions over Q or Q[L] at one bound; half of the
    time the pair x + y, x - y, whose product's cross terms cancel, and
    otherwise b with minus some of a's terms, which cancel in the sum."""
    vars = draw(st.sampled_from([(), ("L",)]))
    x, y = draw(bounded_sym_funcs(4, vars)), draw(bounded_sym_funcs(4, vars))
    if draw(st.booleans()):
        return x + y, x - y
    return x, y - SymFunc(dict(list(x.terms.items())[::2]), 4, vars)


class TestSumsAgainstSchoolbook:
    @given(cancelling_sym_pairs())
    @settings(max_examples=200, deadline=None)
    @example((SymFunc.p(1, 4) + SymFunc.p(2, 4), SymFunc.p(1, 4) - SymFunc.p(2, 4)))
    @example((L * SymFunc.p(1, 4) + 1, SymFunc.p(1, 4) * (L - 1)))
    def test_sum_and_product(self, pair):
        a, b = pair
        sums = schoolbook_terms([*a.terms.items(), *b.terms.items()])
        products = schoolbook_terms(
            (pa + pb, ca * cb) for pa, ca in a.terms.items() for pb, cb in b.terms.items()
        )
        for got, expected in ((a + b, sums), (b + a, sums), (a * b, products), (b * a, products)):
            assert got.terms == expected
            assert_rational_coefficients(got)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([p for n in range(1, 5) for p in partitions_of(n)]).flatmap(st.permutations),
                st.fractions(-2, 2, max_denominator=2),
            ),
            max_size=8,
        ),
        st.sampled_from([(), ("L",)]),
    )
    @settings(max_examples=200, deadline=None)
    @example([((2, 1), Fraction(1)), ((1, 2), Fraction(-1))], ())
    def test_constructor_and_json_read(self, pairs, vars):
        """Partitions given in any order add at their sorted form, in the
        constructor and in a JSON read, and terms that cancel leave none."""
        coeffs = [(tuple(p), c * L if vars else LaurentPoly.constant(c)) for p, c in pairs]
        data = {"bound": 4, "vars": list(vars), "terms": [{"p": list(p), "c": c.to_json_dict()} for p, c in coeffs]}
        read = SymFunc.from_json_dict(data)
        assert read.terms == schoolbook_terms(coeffs)
        assert_rational_coefficients(read)
        terms = dict(coeffs)  # a partition written twice in one order keeps its last coefficient
        built = SymFunc(terms, 4, vars)
        assert built.terms == schoolbook_terms(terms.items())
        assert_rational_coefficients(built)

    def test_json_cancelling_term_is_still_checked(self):
        """A partition whose repeats cancel is still checked against the
        bound: a JSON value is read as the constructor reads it."""
        term = lambda c: {"p": [2], "c": {"vars": [], "terms": [{"e": [], "c": c}]}}
        data = {"bound": 1, "vars": [], "terms": [term("1"), term("-1")]}
        with pytest.raises(GeneratorBoundError, match="p_2 exceeds the generator bound 1"):
            SymFunc.from_json_dict(data)


class TestPartitionKeys:
    """Every part of a partition key is an int; a float, a bool or any
    other value is refused by name rather than truncated."""

    @pytest.mark.parametrize("parts", [(1.5, 2), (2.7,), (2, 1.0), (True,), ("2",), (Fraction(2),)])
    def test_refused(self, parts):
        bad = next(part for part in parts if type(part) is not int)
        message = re.escape(f"partition part must be an int, got {bad!r}")
        for build in (lambda: SymFunc({parts: 1}, 3), lambda: SymFunc.p_monomial(parts, 3)):
            with pytest.raises(TypeError, match=message):
                build()
        with pytest.raises(TypeError, match=message):
            normalize_partition(parts)


def reference_z_value(partition):
    """z_lambda by counting each distinct part over the whole partition."""
    z = 1
    for part in set(partition):
        mult = partition.count(part)
        z *= part**mult * factorial(mult)
    return z


def test_z_value_matches_counting_every_part():
    for n in range(21):
        for partition in partitions_of(n):
            assert z_value(partition) == reference_z_value(partition)


# -- one coefficient ring, against polynomial coefficients ---------------------


def as_polynomials(terms):
    """A term map with every coefficient a LaurentPoly, a rational as one
    over the empty alphabet: the form symfunc held before its coefficients
    over Q became rationals, kept as the reference."""
    return {p: c if isinstance(c, LaurentPoly) else LaurentPoly.constant(c) for p, c in terms.items()}


def reference_text(terms):
    """The text symfunc wrote of a term map of LaurentPoly coefficients: a
    non-constant coefficient is parenthesised before a monomial."""
    out = []
    for partition, coeff in by_weight(terms.items()):
        monomial = f"p[{','.join(map(str, partition))}]" if partition else ""
        out.append(format_term(str(coeff) if coeff.is_constant() or not monomial else f"({coeff})", monomial))
    return format_sum(out)


def reference_json(terms, bound, vars):
    """The JSON symfunc wrote of a term map of LaurentPoly coefficients."""
    return {
        "bound": bound,
        "vars": list(vars),
        "terms": [{"p": list(p), "c": c.to_json_dict()} for p, c in by_weight(terms.items())],
    }


def reference_specialization(terms, vars, mode):
    """The three specializations on LaurentPoly coefficients, term by term."""
    zero = LaurentPoly.zero(vars)
    if mode is SpecializationMode.INVARIANTS:
        return sum(terms.values(), zero)
    if mode is SpecializationMode.SIGN:
        return sum(((-c if (sum(p) - len(p)) % 2 else c) for p, c in terms.items()), zero)
    (n,) = {sum(p) for p in terms} or {0}
    return factorial(n) * terms.get((1,) * n, zero)


UNITS = st.one_of(
    st.fractions(-5, 5, max_denominator=6).filter(bool),
    st.tuples(st.fractions(-5, 5, max_denominator=6).filter(bool), st.integers(-3, 3)).map(
        lambda ce: LaurentPoly(("L",), {(ce[1],): ce[0]})
    ),
)


class TestCoefficientRing:
    """Over Q a coefficient is a Rational, over Q[vars] a LaurentPoly over
    vars: every operation against the same operation on LaurentPoly
    coefficients, with the coefficient types asserted."""

    @given(st.data(), st.integers(3, 6), st.sampled_from([(), ("L",)]))
    @settings(max_examples=200, deadline=None)
    def test_against_polynomial_coefficients(self, data, bound, vars):
        self.check(data.draw(bounded_sym_funcs(bound, vars)), data.draw(bounded_sym_funcs(bound, vars)))

    def test_an_atom_against_polynomial_coefficients(self):
        self.check(basis_in_p("h", 2, 3) + 3, SymFunc({(1,): Fraction(1, 2), (2, 1): -2}, 3))

    @staticmethod
    def check(a, b):
        bound, vars = a.bound, a.vars
        pa, pb = as_polynomials(a.terms), as_polynomials(b.terms)
        results = [
            (a + b, schoolbook_terms([*pa.items(), *pb.items()])),
            (a - b, schoolbook_terms([*pa.items(), *((p, -c) for p, c in pb.items())])),
            (a * b, schoolbook_terms((p + q, c * d) for p, c in pa.items() for q, d in pb.items())),
            (a * 3, schoolbook_terms((p, 3 * c) for p, c in pa.items())),
            (a / 2, schoolbook_terms((p, c / 2) for p, c in pa.items())),
        ]
        for k in (1, 2, 3):
            if k * a.max_index() <= bound:
                results.append((a.adams(k), {tuple(k * part for part in p): c.adams(k) for p, c in pa.items()}))
        for got, expected in results:
            assert_canonical(got)
            assert got.vars == vars
            assert as_polynomials(got.terms) == expected
        for partition in [*a.terms, (1,), (2, 1), (3, 3)]:
            coeff = a.coefficient(partition)
            assert_coefficient_ring(coeff, vars)
            assert coeff == pa.get(partition, LaurentPoly.zero(vars))
        assert str(a) == reference_text(pa)
        assert a.to_json_dict() == reference_json(pa, bound, vars)
        back = SymFunc.from_json_dict(json.loads(json.dumps(a.to_json_dict())))
        assert back.terms == a.terms and back.bound == bound and back.vars == vars
        assert_canonical(back)
        for mode in SpecializationMode:
            if mode is SpecializationMode.ORDERED and len({sum(p) for p in a.terms}) > 1:
                continue
            got = specialize(a, mode)
            assert type(got) is LaurentPoly and got.vars == vars
            assert got == reference_specialization(pa, vars, mode)

    @given(UNITS, st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_invert_unit(self, unit, bound):
        vars = getattr(unit, "vars", ())
        f = SymFunc.constant(unit, bound, vars)
        inverse = f.invert_unit()
        assert_canonical(inverse)
        reference = as_polynomials({(): unit})[()].invert_unit()
        assert as_polynomials(inverse.terms) == {(): reference}
        assert (f * inverse).terms == SymFunc.constant(1, bound, vars).terms

    def test_invert_unit_errors(self):
        with pytest.raises(ValueError, match=re.escape("p[1] is not a constant unit")):
            SymFunc.p(1, 3).invert_unit()
        with pytest.raises(ZeroDivisionError, match="cannot invert 0"):
            SymFunc.zero(3).invert_unit()
        with pytest.raises(InexactDivisionError, match=re.escape("L + 1 is not an invertible monomial")):
            SymFunc.constant(L + 1, 3).invert_unit()

    def test_constructor_coerces_into_the_ring(self):
        """Ints, Fractions and empty-alphabet polynomials become Rationals
        over Q and constants over Q[L]; another alphabet, and a value that
        is no coefficient at all, is refused."""
        for vars in ((), ("L",)):
            f = SymFunc({(): 2, (1,): Fraction(1, 2), (2,): LaurentPoly.constant(3)}, 3, vars)
            assert_canonical(f)
            assert f.terms == {(): 2, (1,): Fraction(1, 2), (2,): 3}
        with pytest.raises(ValueError, match=re.escape("coefficient alphabet ('L',) does not match ()")):
            SymFunc({(1,): L}, 3)
        with pytest.raises(ValueError, match=re.escape("coefficient alphabet ('u', 'v') does not match ('L',)")):
            SymFunc({(1,): U}, 3, ("L",))
        for bad in (1.5, "1", SymFunc.p(1, 3)):
            with pytest.raises(TypeError, match=re.escape(f"expected an exact rational, got {bad!r}")):
                SymFunc({(): bad}, 3)

    def test_coefficient_json_is_a_polynomial_object(self):
        assert coefficient_json(Rational(-3, 2)) == {"vars": [], "terms": [{"e": [], "c": "-3/2"}]}
        assert coefficient_json(L - 1) == (L - 1).to_json_dict()

    def test_plethysm_reads_constant_polynomials(self):
        x = L**2 + 3 * L
        for f in (basis_in_p("h", 2, 4), SymFunc(basis_in_p("h", 2, 4).terms, 4, ("L",))):
            assert plethysm_apply(f, x) == plethysm_apply(basis_in_p("h", 2, 4), x)
        with pytest.raises(ValueError, match=re.escape("plethysm needs constant coefficients, found L at p[1]")):
            plethysm_apply(L * SymFunc.p(1, 3, ("L",)), x)


class TestEqualityAndHash:
    def test_an_index_past_the_common_bound_is_unequal(self):
        """== compares at the smaller bound; a side that cannot live there
        is unequal to the other, where + and * still refuse the pair."""
        a, b = SymFunc.p(5, 6), SymFunc.p(1, 3)
        assert not a == b and a != b and not b == a and b != a
        assert a not in [b] and b not in [a]
        assert SymFunc.p(1, 6) == b
        for op in (lambda: a + b, lambda: a * b, lambda: b * a):
            with pytest.raises(GeneratorBoundError, match="p_5 exceeds the generator bound 3"):
                op()

    def test_a_promoted_value_hashes_as_its_original(self):
        a, b = SymFunc.p(1, 3), SymFunc.p(1, 3, ("L",))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert hash(SymFunc.constant(Fraction(2, 3), 3)) == hash(Fraction(2, 3))

    @given(st.data(), st.integers(1, 5), st.fractions(-3, 3, max_denominator=4))
    @settings(max_examples=150, deadline=None)
    def test_equal_values_hash_alike(self, data, bound, q):
        """a == b implies hash(a) == hash(b) over Q / Q[L] pairs at two
        bounds and for scalars."""
        a = data.draw(bounded_sym_funcs(bound, ()))
        wider = bound + data.draw(st.integers(0, 2))
        b = data.draw(bounded_sym_funcs(bound, ("L",)))
        values = [
            a, b, a + b, SymFunc(a.terms, wider), SymFunc(a.terms, bound, ("L",)), SymFunc(a.terms, wider, ("L",)),
            SymFunc({p: c.constant_term() for p, c in b.terms.items() if c.is_constant()}, bound),
            SymFunc.constant(q, bound), SymFunc.constant(q, wider, ("L",)),
            q, LaurentPoly.constant(q), LaurentPoly.constant(q, ("L",)),
        ]
        for x in values:
            for y in values:
                if x == y:
                    assert hash(x) == hash(y), (x, y)
        assert a == SymFunc(a.terms, bound, ("L",)) == SymFunc(a.terms, wider)
