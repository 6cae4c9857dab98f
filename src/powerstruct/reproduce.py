"""The end-to-end reproduction suite behind ``powerstruct reproduce``.

Each criterion recomputes a pinned result from scratch and compares exactly
(rational/polynomial equality, no tolerances).  Randomized criteria use a
seeded generator so output is byte-identical between runs.

The symmetric-group character oracle here is deliberately independent of the
Jacobi-Trudi route used by :func:`powerstruct.symfunc.p_to_schur`, which
expands det(h) on {partition: rational} maps, once per conjugate pair
through the involution omega: characters
come from coefficient extraction in the alternant product
prod_{i<j}(x_i - x_j) * p_mu(x), which uses nothing but honest polynomial
arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .applications import (
    hyperelliptic_class,
    harer_zagier,
    irreducible_class,
    irreducible_specialize,
    moduli_g2_series,
    poly_space_class,
    config_space_series,
)
from .power import factorize, lambda_t, power, recompose, verify_identity
from .arith import moebius
from .rings import LaurentPoly, adams
from .series import TruncSeries
from .symfunc import (
    SpecializationMode,
    SymFunc,
    basis_in_p,
    p_to_schur,
    partitions_of,
    plethysm_apply,
    specialize,
)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    required: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if not self.required:
            status = "INFO"
        return f"{status} {self.name}: {self.detail}"


_L = LaurentPoly.var("L")


def _random_poly(rng: random.Random, vars=("L",), max_degree=2, coeff_bound=2) -> LaurentPoly:
    terms = {}
    for e in range(max_degree + 1):
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            terms[(e,)] = Fraction(c)
    return LaurentPoly(vars, terms)


def _random_unit_series(rng: random.Random, order: int) -> TruncSeries:
    coeffs = [LaurentPoly.constant(1, ("L",))]
    for _ in range(order):
        coeffs.append(_random_poly(rng))
    return TruncSeries(coeffs, order)


# -- criteria -------------------------------------------------------------------


def _crit_exp_factorization() -> tuple[bool, str]:
    order = 12
    series = TruncSeries.t_var(order).exp()
    moebius_route = factorize(series, "moebius")
    iterative_route = factorize(series, "iterative")
    expected = tuple(Fraction(moebius(n), n) for n in range(1, order + 1))
    ok = (
        tuple(moebius_route) == expected
        and tuple(iterative_route) == expected
        and recompose(moebius_route, order) == series
    )
    return ok, f"exp(t) = prod (1-t^n)^(-mu(n)/n) to order {order}, both algorithms"


def _crit_euler_phi() -> tuple[bool, str]:
    report = verify_identity("euler_phi", 12)
    return report.holds, "prod (1-t^k)^(-phi(k)/k) = exp(t/(1-t)) to order 12"


def _crit_binomial_chain() -> tuple[bool, str]:
    order = 12
    series = power(TruncSeries([Fraction(1), Fraction(1)], order), 1 + _L)
    ok = all(series.coeffs[k] == _L**k - _L ** (k - 2) for k in range(4, order + 1))
    for genus in range(2, 7):
        ok = ok and hyperelliptic_class(genus) == _L ** (2 * genus - 1)
    return ok, "(1+t)^(1+L) coefficients L^k - L^(k-2), hyperelliptic classes L^(2g-1)"


def _crit_irreducible() -> tuple[bool, str]:
    ok = True
    for n_vars in (1, 2, 3):
        ok = ok and irreducible_specialize(n_vars, 1, "euler") == n_vars
        for degree in range(2, 7):
            ok = ok and irreducible_specialize(n_vars, degree, "euler") == 0
    for degree in range(2, 7):
        ok = ok and irreducible_class(1, degree) == LaurentPoly.zero(("L",))
    # set-difference oracle: [Irr_2] = [P_2] - [S^2 Irr_1] for two variables
    sym_square = lambda_t(irreducible_class(2, 1), 2).coeffs[2]
    oracle = poly_space_class(2, 2) - sym_square
    ok = ok and irreducible_class(2, 2) == _L**5 - _L**2 == oracle
    return ok, "Euler specializations and [Irr_2] = L^5 - L^2 (set-difference oracle)"


def _crit_moduli_g2() -> tuple[bool, str]:
    series = moduli_g2_series(4)
    bound = 4
    p1 = SymFunc.p(1, bound)
    p3 = SymFunc.p(3, bound)
    p4 = SymFunc.p(4, bound)
    expected_t4 = (
        Fraction(1, 2) * p4
        + Fraction(2, 3) * p1 * p3
        - Fraction(1, 6) * p1**4
    )
    ok = (
        series.coeffs[0] == 1
        and series.coeffs[1] == 2 * p1
        and series.coeffs[2] == p1**2
        and series.coeffs[3] == SymFunc.zero(bound)
        and series.coeffs[4] == expected_t4
    )
    return ok, "genus-2 series = 1 + 2p1 t + p1^2 t^2 + 0 t^3 + (p4/2 + 2p1p3/3 - p1^4/6) t^4"


def _crit_harer_zagier() -> tuple[bool, str]:
    return harer_zagier(2, 0) == Fraction(-1, 240), "chi_orb of the genus-2 moduli = -1/240"


def _crit_axioms(cases: int, seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    order = 8
    one = TruncSeries.one(order)
    failures = 0
    for _ in range(cases):
        a = _random_unit_series(rng, order)
        b = _random_unit_series(rng, order)
        m = _random_poly(rng)
        n = _random_poly(rng)
        checks = [
            power(a, LaurentPoly.zero(("L",))) == one,
            power(a, LaurentPoly.constant(1, ("L",))) == a,
            power(a * b, m) == power(a, m) * power(b, m),
            power(a, m + n) == power(a, m) * power(a, n),
            power(a, m * n) == power(power(a, n), m),
            power(TruncSeries([Fraction(1), Fraction(1)], order), m).coeffs[1] == m,
        ]
        # substitution axiom on a shorter series (the result order grows by k)
        short = a.truncate(3)
        k = rng.choice((2, 3))
        checks.append(
            power(short.substitute_tk(k), m) == power(short, m).substitute_tk(k)
        )
        # the two power algorithms and the two factorize algorithms agree
        checks.append(power(a, m, "product") == power(a, m, "factorize"))
        checks.append(
            tuple(factorize(a, "moebius")) == tuple(factorize(a, "iterative"))
        )
        if not all(checks):
            failures += 1
    return failures == 0, f"all seven power-structure axioms on {cases} random cases at order {order}"


def _crit_adams_coherence(order: int, seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    ok = True
    for _ in range(20):
        x = _random_poly(rng)
        y = _random_poly(rng)
        expected = [adams(x, i) for i in range(1, order + 1)]
        ok = ok and lambda_t(x, order).log_derivative() == expected
        ok = ok and lambda_t(x + y, order) == lambda_t(x, order) * lambda_t(y, order)
        for i in (2, 3):
            for j in (2, 3):
                ok = ok and adams(adams(x, i), j) == adams(x, i * j)
            ok = ok and adams(x * y, i) == adams(x, i) * adams(y, i)
    return ok, f"log-derivative of lambda_t, additivity, and Adams identities at order {order}"


def _crit_config_specializations() -> tuple[bool, str]:
    order = 8
    q = LaurentPoly.var("q")
    x_class = 1 + q
    cfg = config_space_series(x_class, order)
    over_q = LaurentPoly.zero(("q",))
    invariants_route = power(TruncSeries([1, 1], order, over_q), x_class)
    signed = power(TruncSeries([1, -1], order, over_q), x_class)
    # Ordered configurations count X(X-1)...(X-n+1), with no series code.
    falling = x_class**0
    ok = True
    for n in range(order + 1):
        coeff = cfg.coeffs[n]
        ok = ok and specialize(coeff, SpecializationMode.INVARIANTS) == invariants_route.coeffs[n]
        sign = 1 if n % 2 == 0 else -1
        ok = ok and specialize(coeff, SpecializationMode.SIGN) == sign * signed.coeffs[n]
        ok = ok and specialize(coeff, SpecializationMode.ORDERED) == falling
        falling = falling * (x_class - n)
    return ok, "invariants/sign/ordered specializations of (1 + p1 t)^(1+q) at order 8"


def _crit_plethysm(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    order = 8
    h_basis = [basis_in_p("h", k, order) for k in range(order + 1)]
    ok = True
    for _ in range(20):
        x = _random_poly(rng, max_degree=3)
        series = TruncSeries([plethysm_apply(h, x) for h in h_basis], order)
        ok = ok and series == lambda_t(x, order)
    return ok, "sum_k (h_k o X) t^k = (1-t)^(-X) at order 8 for 20 random X"


def character_table(n: int) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """Irreducible symmetric-group characters chi^lambda(mu) for weight n.

    chi^lambda(mu) is the coefficient of x^(lambda + delta) in
    a_delta * p_mu(x) over n variables, delta = (n-1, ..., 0), where
    a_delta = prod_{i<j}(x_i - x_j) = sum_sigma sgn(sigma) x^(sigma delta).
    Only p_mu is expanded: each of its terms c x^alpha adds c sgn(sigma)
    where lambda + delta - alpha is a permutation sigma of delta.  Plain
    polynomial arithmetic; independent of any basis-conversion code.
    """
    names = tuple(f"x{i}" for i in range(n))
    gens = [LaurentPoly.var(name, names) for name in names]
    delta = tuple(n - 1 - i for i in range(n))
    table: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for mu in partitions_of(n):
        p_mu = LaurentPoly.constant(1, names)
        for part in mu:
            power_sum = LaurentPoly.zero(names)
            for g in gens:
                power_sum = power_sum + g**part
            p_mu = p_mu * power_sum
        for lam in partitions_of(n):
            padded = tuple(lam) + (0,) * (n - len(lam))
            target = tuple(p + d for p, d in zip(padded, delta))
            total = Fraction(0)
            for alpha, coeff in p_mu.terms.items():
                sign = _alternant_sign(tuple(x - a for x, a in zip(target, alpha)), delta)
                if sign:
                    total += sign * coeff
            if total:
                table[(lam, mu)] = int(total)
    return table


def _alternant_sign(beta: tuple[int, ...], delta: tuple[int, ...]) -> int:
    """sgn(sigma) when beta = sigma delta for a permutation sigma, else 0;
    delta is strictly decreasing, so sigma's inversions are beta's
    ascents."""
    if sorted(beta, reverse=True) != list(delta):
        return 0
    ascents = sum(beta[i] < beta[j] for i in range(len(beta)) for j in range(i + 1, len(beta)))
    return -1 if ascents % 2 else 1


def _crit_schur_oracle() -> tuple[bool, str]:
    ok = True
    for n in range(1, 6):
        table = character_table(n)
        for mu in partitions_of(n):
            expansion = p_to_schur(SymFunc.p_monomial(mu, n))
            expected = {lam: table[(lam, mu)] for lam in partitions_of(n) if (lam, mu) in table}
            ok = ok and expansion == expected
    return ok, "p_to_schur matches the alternant character oracle for weights <= 5"


def _crit_gcd_product() -> tuple[bool, str]:
    report = verify_identity("gcd_product", 6)
    return True, f"diagnostic only -- {report.summary()}"


def run_all(order: int = 10, axiom_cases: int = 100, seed: int = 20240811) -> list[CriterionResult]:
    """Run every criterion; randomized ones use the given seed."""
    results = []

    def add(name: str, outcome: tuple[bool, str], required: bool = True):
        passed, detail = outcome
        results.append(CriterionResult(name, passed, required, detail))

    add("exp-moebius-factorization", _crit_exp_factorization())
    add("euler-phi-product", _crit_euler_phi())
    add("binomial-hyperelliptic-chain", _crit_binomial_chain())
    add("irreducible-classes", _crit_irreducible())
    add("genus2-series-low-orders", _crit_moduli_g2())
    add("harer-zagier-value", _crit_harer_zagier())
    add("power-structure-axioms", _crit_axioms(axiom_cases, seed))
    add("adams-lambda-coherence", _crit_adams_coherence(max(order, 10), seed + 1))
    add("configuration-specializations", _crit_config_specializations())
    add("plethysm-lambda-series", _crit_plethysm(seed + 2))
    add("schur-character-oracle", _crit_schur_oracle())
    add("gcd-product-diagnostic", _crit_gcd_product(), required=False)
    return results


def all_required_pass(results: list[CriterionResult]) -> bool:
    return all(r.passed for r in results if r.required)
