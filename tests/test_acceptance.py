"""Acceptance suite: one test per criterion, exact equality throughout.

Every expected value is either pinned from an independent derivation or
recomputed here through an oracle that shares no code with the path under
test (the character oracle below uses raw dict arithmetic, not the package's
polynomial classes).  Run with ``pytest -s tests/test_acceptance.py`` to see
one PASS/FAIL line per criterion; ``powerstruct reproduce`` prints the same
checks from the installed package.
"""

import random
from fractions import Fraction

from powerstruct import (
    GradedAdamsElement,
    LaurentPoly,
    SymFunc,
    TruncSeries,
    adams,
    basis_in_p,
    config_space_series,
    factorize,
    harer_zagier,
    hyperelliptic_class,
    irreducible_class,
    irreducible_specialize,
    lambda_t,
    moduli_g2_series,
    p_to_schur,
    partitions_of,
    plethysm_apply,
    poly_space_class,
    power,
    recompose,
    specialize,
    verify_identity,
    SpecializationMode,
)
from powerstruct.arith import moebius

L = LaurentPoly.var("L")
Q = LaurentPoly.var("q")
SEED = 987123


def _report(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    assert ok, name


def _random_poly(rng, max_degree=2, coeff=2):
    terms = {}
    for e in range(max_degree + 1):
        c = rng.randint(-coeff, coeff)
        if c:
            terms[(e,)] = Fraction(c)
    return LaurentPoly(("L",), terms)


def _random_unit_series(rng, order):
    return TruncSeries(
        [LaurentPoly.constant(1, ("L",))] + [_random_poly(rng) for _ in range(order)],
        order,
    )


def test_criterion_01_exp_moebius_factorization():
    order = 12
    series = TruncSeries.t_var(order).exp()
    expected = tuple(Fraction(moebius(n), n) for n in range(1, order + 1))
    ok = tuple(factorize(series, "moebius")) == expected
    ok = ok and tuple(factorize(series, "iterative")) == expected
    ok = ok and recompose(expected, order) == series
    _report("criterion-01 exp(t) Euler-product exponents mu(n)/n", ok)


def test_criterion_02_euler_phi_product():
    report = verify_identity("euler_phi", 12)
    _report("criterion-02 totient product equals exp(t/(1-t))", report.holds)


def test_criterion_03_binomial_chain():
    order = 12
    series = power(TruncSeries([Fraction(1), Fraction(1)], order), 1 + L)
    ok = all(series.coeffs[k] == L**k - L ** (k - 2) for k in range(4, order + 1))
    for genus in range(2, 7):
        ok = ok and hyperelliptic_class(genus) == L ** (2 * genus - 1)
    _report("criterion-03 (1+t)^(1+L) chain and hyperelliptic classes", ok)


def test_criterion_04_irreducible_classes():
    ok = True
    for n_vars in (1, 2, 3):
        ok = ok and irreducible_specialize(n_vars, 1, "euler") == n_vars
        for degree in range(2, 7):
            ok = ok and irreducible_specialize(n_vars, degree, "euler") == 0
    for degree in range(2, 7):
        ok = ok and irreducible_class(1, degree) == LaurentPoly.zero(("L",))
    symmetric_square = lambda_t(irreducible_class(2, 1), 2).coeffs[2]
    oracle = poly_space_class(2, 2) - symmetric_square
    ok = ok and irreducible_class(2, 2) == L**5 - L**2
    ok = ok and irreducible_class(2, 2) == oracle
    _report("criterion-04 irreducible-class Euler values and set-difference oracle", ok)


def test_criterion_05_genus2_series():
    series = moduli_g2_series(4)
    p1, p3, p4 = SymFunc.p(1, 4), SymFunc.p(3, 4), SymFunc.p(4, 4)
    ok = series.coeffs[0] == 1
    ok = ok and series.coeffs[1] == 2 * p1
    ok = ok and series.coeffs[2] == p1 * p1
    ok = ok and series.coeffs[3] == SymFunc.zero(4)
    ok = ok and series.coeffs[4] == (
        Fraction(1, 2) * p4 + Fraction(2, 3) * p1 * p3 - Fraction(1, 6) * p1**4
    )
    _report("criterion-05 genus-2 equivariant series through t^4", ok)


def test_criterion_06_harer_zagier():
    _report("criterion-06 orbifold Euler characteristic -1/240", harer_zagier(2, 0) == Fraction(-1, 240))


def test_criterion_07_power_structure_axioms():
    rng = random.Random(SEED)
    order = 8
    one = TruncSeries.one(order)
    ok = True
    for _ in range(100):
        a = _random_unit_series(rng, order)
        b = _random_unit_series(rng, order)
        m = _random_poly(rng)
        n = _random_poly(rng)
        ok = ok and power(a, LaurentPoly.zero(("L",))) == one
        ok = ok and power(a, LaurentPoly.constant(1, ("L",))) == a
        ok = ok and power(a * b, m) == power(a, m) * power(b, m)
        ok = ok and power(a, m + n) == power(a, m) * power(a, n)
        ok = ok and power(a, m * n) == power(power(a, n), m)
        ok = ok and power(TruncSeries([Fraction(1), Fraction(1)], order), m).coeffs[1] == m
        short = a.truncate(3)
        k = rng.choice((2, 3))
        ok = ok and power(short.substitute_tk(k), m) == power(short, m).substitute_tk(k)
        ok = ok and power(a, m, "product") == power(a, m, "factorize")
        ok = ok and tuple(factorize(a, "moebius")) == tuple(factorize(a, "iterative"))
        if not ok:
            break
    _report("criterion-07 seven axioms and algorithm agreement on 100 cases", ok)


def test_criterion_08_adams_lambda_coherence():
    rng = random.Random(SEED + 1)
    order = 10
    ok = True
    for _ in range(20):
        x = _random_poly(rng)
        y = _random_poly(rng)
        ok = ok and lambda_t(x, order).log_derivative() == [
            adams(x, n) for n in range(1, order + 1)
        ]
        ok = ok and lambda_t(x + y, order) == lambda_t(x, order) * lambda_t(y, order)
    # Adams identities on every implemented ring
    samples = [
        Fraction(3, 7),
        L**2 - 2 * L,
        GradedAdamsElement({1: 2, 3: Fraction(1, 2)}),
        SymFunc.p(2, 24) + 3 * SymFunc.p(1, 24),
    ]
    partners = [
        Fraction(-2, 5),
        1 + L,
        GradedAdamsElement({2: 1}),
        SymFunc.p(1, 24) - 1,
    ]
    for x, y in zip(samples, partners):
        for i in (2, 3):
            for j in (2, 3):
                ok = ok and adams(adams(x, i), j) == adams(x, i * j)
            ok = ok and adams(x * y, i) == adams(x, i) * adams(y, i)
            ok = ok and adams(x + y, i) == adams(x, i) + adams(y, i)
    _report("criterion-08 lambda/Adams coherence on all rings", ok)


def test_criterion_09_configuration_specializations():
    order = 8
    x_class = 1 + Q
    series = config_space_series(x_class, order)
    one = LaurentPoly.constant(1, ("q",))
    invariants = power(TruncSeries([one, one], order), x_class)
    signed = power(TruncSeries([one, -one], order), x_class)
    # Ordered configurations count the falling factorial X(X-1)...(X-n+1).
    falling = x_class**0
    ok = True
    for n in range(order + 1):
        coeff = series.coeffs[n]
        ok = ok and specialize(coeff, SpecializationMode.INVARIANTS) == invariants.coeffs[n]
        sign = 1 if n % 2 == 0 else -1
        ok = ok and specialize(coeff, SpecializationMode.SIGN) == sign * signed.coeffs[n]
        ok = ok and specialize(coeff, SpecializationMode.ORDERED) == falling
        falling = falling * (x_class - n)
    _report("criterion-09 invariants/sign/ordered configuration counts", ok)


def test_criterion_10_plethysm_lambda_series():
    rng = random.Random(SEED + 2)
    order = 8
    h_elements = [basis_in_p("h", k, order) for k in range(order + 1)]
    ok = True
    for _ in range(20):
        x = _random_poly(rng, max_degree=3)
        series = TruncSeries([plethysm_apply(h, x) for h in h_elements], order)
        ok = ok and series == lambda_t(x, order)
    _report("criterion-10 homogeneous plethysm reproduces the lambda series", ok)


def _oracle_character_table(n):
    """chi^lambda(mu) from the alternant formula, in raw dict arithmetic.

    Polynomials are dicts mapping exponent tuples (one slot per variable) to
    integers; chi^lambda(mu) is the coefficient of x^(lambda + delta) in
    prod_{i<j}(x_i - x_j) * p_mu(x).  No package code is involved.
    """

    def multiply(p, q):
        out = {}
        for ea, ca in p.items():
            for eb, cb in q.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return {e: c for e, c in out.items() if c}

    def variable(i, exponent=1):
        exps = [0] * n
        exps[i] = exponent
        return {tuple(exps): 1}

    vandermonde = {(0,) * n: 1}
    for i in range(n):
        for j in range(i + 1, n):
            diff = dict(variable(i))
            ej = tuple(1 if k == j else 0 for k in range(n))
            diff[ej] = diff.get(ej, 0) - 1
            vandermonde = multiply(vandermonde, diff)
    delta = tuple(n - 1 - i for i in range(n))
    table = {}
    for mu in partitions_of(n):
        product = vandermonde
        for part in mu:
            power_sum = {}
            for i in range(n):
                power_sum.update(variable(i, part))
            product = multiply(product, power_sum)
        for lam in partitions_of(n):
            padded = tuple(lam) + (0,) * (n - len(lam))
            target = tuple(p + d for p, d in zip(padded, delta))
            value = product.get(target, 0)
            if value:
                table[(lam, mu)] = value
    return table


def test_criterion_11_schur_character_oracle():
    ok = True
    for n in range(1, 6):
        table = _oracle_character_table(n)
        for mu in partitions_of(n):
            expansion = p_to_schur(SymFunc.p_monomial(mu, n))
            expected = {
                lam: LaurentPoly.constant(table[(lam, mu)])
                for lam in partitions_of(n)
                if (lam, mu) in table
            }
            ok = ok and expansion == expected
    _report("criterion-11 Schur conversion matches the character oracle", ok)


def test_criterion_12_gcd_product_diagnostic():
    report = verify_identity("gcd_product", 6)
    structured = (
        report.first_discrepancy is not None
        and {"term", "lhs", "rhs"} <= set(report.first_discrepancy)
    )
    # excluded from pass/fail by design: the check must terminate and report
    _report("criterion-12 coprime-product diagnostic emits a structured report", structured)
