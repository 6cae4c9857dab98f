"""Power structures over lambda-rings.

The central objects are series A(t) = 1 + a_1 t + ... with coefficients in a
lambda-ring R, together with the rule (A, x) -> A^x for x in R.  Everything
rests on the lambda-series

    lambda_t(x) = (1 - t)^{-x} = exp(sum_{n>=1} adams(x, n) t^n / n),

the unique series with constant term 1 whose logarithmic derivative is
sum_n adams(x, n) t^{n-1}.  Given lambda_t, any series with constant term 1
decomposes uniquely as an Euler product

    1 + a_1 t + a_2 t^2 + ... = prod_{k>=1} (1 - t^k)^{-b_k},

and the general power is A^x = prod_k (1 - t^k)^{-b_k x}.

Two independent algorithms compute the decomposition exponents b_k:

* ``iterative`` -- strip factors order by order, dividing by
  (1 - t^k)^{-b_k} as soon as b_k becomes visible;
* ``moebius`` -- the closed inversion formula
  n b_n = sum_{d | n} mu(d) adams(c_{n/d}, d), where c_j are the
  logarithmic-derivative coefficients of the input.

Likewise ``power`` has a ``factorize`` route (through the Euler product) and
a ``product`` route, the termwise formula

    A^x = prod_{n>=1} (1 + adams(a_1, n) t^n + adams(a_2, n) t^{2n} + ...)
             ^ { (1/n) sum_{m | n} mu(n/m) adams(x, m) },

whose right-hand powers are plain Q-algebra powers by J. C. P. Miller's
recurrence, so that it shares no log, division or exponential with
``factorize``.  The two must agree exactly on every input; the test suite
pins this.  Over Q and one-variable Q[L] both routes run on packed integers
(``rings._Packing``), up to ``factorize``'s exponential, which stays generic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Sequence

from .arith import divisors, euler_phi, moebius
from .errors import PowerStructError
from .rings import (
    _ONE_FORM,
    LaurentPoly,
    Rational,
    _dense,
    _dense_adams_sum,
    _dense_product,
    _dense_power,
    _dense_quotient,
    _dense_ring,
    _dense_series_product,
    _from_dense,
    adams,
    format_monomial,
)
from .series import TruncSeries, _ring_zero, _support, binomial_series

_ZERO = Rational(0)
_ONE = Rational(1)


def lambda_t(x, order: int) -> TruncSeries:
    """The series (1 - t)^{-x} truncated at the given order, over x's ring:
    the one-factor Euler product :func:`recompose` of [x]."""
    return recompose([x], order)


def moebius_exponent(x, n: int):
    """(1/n) sum_{m | n} mu(n/m) adams(x, m), the n-th product exponent."""
    acc = _ZERO
    for m in divisors(n):
        mu = moebius(n // m)
        if mu:
            acc = acc + mu * adams(x, m)
    return Rational(1, n) * acc


def _moebius_weight(n: int, d: int) -> int:
    return moebius(d)


def _divisor_weight(n: int, d: int) -> int:
    return n // d


def _adams_sums(values: Sequence, order: int, weight: Callable[[int, int], int], zero=None) -> list:
    """s_n = (1/n) sum_{d | n} weight(n, d) adams(v_(n/d), d) for n = 1..order
    over the nonzero v_1, v_2, ... of ``values``: the Moebius sum of
    :func:`factorize` (weight mu(d)) and the log of :func:`recompose`
    (weight n/d).

    With ``zero`` the values are ring elements and an empty sum is zero;
    without it they are dense forms (None for 0), summed on integers by
    ``rings._dense_adams_sum``.
    """
    sums = []
    for n in range(1, order + 1):
        terms = []
        for d in divisors(n):
            if n // d <= len(values) and values[n // d - 1]:
                w = weight(n, d)
                if w:
                    terms.append((w, d, values[n // d - 1]))
        if zero is None:
            sums.append(_dense_adams_sum(terms, n))
        elif terms:
            acc = _ZERO
            for w, d, v in terms:
                acc = acc + w * adams(v, d)
            sums.append(Rational(1, n) * acc)
        else:
            sums.append(zero)
    return sums


def _dense_exponents(series: TruncSeries) -> list:
    """The Euler-product exponents of a constant-term-1 series over Q or a
    one-variable Q[L] as dense forms (None for 0): the Moebius sum over the
    log-derivative coefficients as the division kernel leaves them."""
    log_deriv = _dense_quotient(series.derivative().coeffs, series.coeffs, series.order - 1, _ONE)
    return _adams_sums(log_deriv, series.order, _moebius_weight)


def _dense_recompose(forms: list, order: int, zero) -> TruncSeries:
    """:func:`recompose` of exponents given as dense forms (None for 0),
    with its log converted once into zero's ring."""
    logs = _adams_sums(forms, order, _divisor_weight)
    return TruncSeries([zero] + [_from_dense(c, zero) for c in logs], order, zero).exp()


def factorize(series: TruncSeries, algorithm: str = "moebius") -> tuple:
    """Decompose a constant-term-1 series into prod (1 - t^k)^{-b_k},
    returning the exponents (b_1, ..., b_N).

    ``moebius`` uses the closed inversion formula (valid because every ring
    here has multiplicative Adams operations with adams_i o adams_j =
    adams_{ij}); ``iterative`` strips one factor per order.  Division by n in
    the Moebius route happens in the ambient Q-algebra, so exponents may be
    rational even when the input is integral.  Over Q and one-variable Q[L]
    the Moebius route runs on dense integer forms.
    """
    series._require_constant(1, "factorize")
    order = series.order
    if algorithm == "moebius":
        zero = series._zero
        if _dense_ring(zero):
            return tuple(_from_dense(b, zero) for b in _dense_exponents(series))
        return tuple(_adams_sums(series.log_derivative(), order, _moebius_weight, zero))
    if algorithm == "iterative":
        remaining = series
        exponents = []
        for k in range(1, order + 1):
            b_k = remaining.coeffs[k]
            exponents.append(b_k)
            if b_k == 0:
                continue
            factor = lambda_t(b_k, order // k).substitute_tk(k, order)
            remaining = remaining / factor
        return tuple(exponents)
    raise ValueError(f"unknown factorize algorithm {algorithm!r}")


def recompose(exponents: Sequence, order: int, zero=_ZERO) -> TruncSeries:
    """Multiply out prod_k (1 - t^k)^{-b_k} to the given order through one
    exponential: log of the product is
    sum_n t^n (1/n) sum_{k | n} k adams(b_k, n/k),
    over the join of zero's ring and the rings of all the b_k, those that
    are zero or lie past the order included.
    """
    zero = _ring_zero(exponents, zero)
    exponents = exponents[:order]
    if _dense_ring(zero):
        return _dense_recompose([_dense(b) if b else None for b in exponents], order, zero)
    return TruncSeries([zero] + _adams_sums(exponents, order, _divisor_weight, zero), order, zero).exp()


def _dense_product_power(base: TruncSeries, exponent, zero) -> TruncSeries:
    """The ``product`` route of :func:`power` over Q or a one-variable Q[L] on
    dense forms: adams(a_j, n) strides a_j's integer form, and the n-th factor's
    plain power, at order N // n, multiplies the running product at t^(jn)."""
    order = base.order
    a = _support(base.coeffs, order)[1:]
    x = _dense(exponent) if exponent else None
    result = [_ONE_FORM] + [None] * order
    # An exponent 0 has no factors.
    for n in range(1, order + 1 if x else 1):
        terms = [(moebius(n // m), m, x) for m in divisors(n) if moebius(n // m)]
        if _dense_adams_sum(terms, n):
            # (1/n) (sum_m mu(n/m) adams(x, m) + n) is the n-th exponent plus 1.
            e_plus_1 = _dense_adams_sum(terms + [(n, 1, _ONE_FORM)], n)
            twisted = [(k, _dense_adams_sum([(1, n, _dense(c))], 1)) for k, c in a if k * n <= order]
            factor = [None] * (order + 1)
            factor[::n] = _dense_power(twisted, e_plus_1, order // n)
            result = _dense_series_product(result, factor, order)
    return TruncSeries([_from_dense(f, zero) for f in result], order, zero)


def power(base: TruncSeries, exponent, algorithm: str = "factorize") -> TruncSeries:
    """The power-structure value base^exponent.

    ``factorize`` (default) scales the Euler-product exponents of the base
    by the exponent and multiplies them out with :func:`recompose`;
    ``product`` evaluates the termwise Moebius-exponent product with plain
    powers by usual_power.  Both give identical results, ring included, a series
    over the join of the base's and the exponent's rings, except over
    symmetric functions with a p_k at a power of t below k: there
    ``factorize`` may raise GeneratorBoundError, as on 1 + p_3 t at order 3,
    where ``product`` answers.  Over Q and one-variable Q[L] both keep every
    coefficient in dense integer form, ``factorize`` up to the exponential.
    """
    base._require_constant(1, "power")
    order = base.order
    zero = _ring_zero((exponent,), base._zero)
    if algorithm == "factorize":
        if _dense_ring(zero):
            x = _dense(exponent) if exponent else None
            products = [_dense_product(b, x) if b and x else None for b in _dense_exponents(base)]
            return _dense_recompose(products, order, zero)
        return recompose([b_k * exponent for b_k in factorize(base, "moebius")], order, zero)
    if algorithm == "product":
        if _dense_ring(zero):
            return _dense_product_power(base, exponent, zero)
        result = TruncSeries([_ONE], order, zero)
        for n in range(1, order + 1):
            exp_n = moebius_exponent(exponent, n)
            if exp_n == 0:
                continue
            # Only the coefficients surviving t -> t^n are twisted; applying
            # adams to the rest could overrun a symmetric-function bound.
            twisted = TruncSeries(
                [adams(c, n) for j, c in enumerate(base.coeffs) if j * n <= order],
                order // n,
            )
            result = result * twisted.usual_power(exp_n).substitute_tk(n, order)
        return result
    raise ValueError(f"unknown power algorithm {algorithm!r}")


def binomial_power(a, exponent, order: int) -> TruncSeries:
    """(1 + a t)^exponent by the ``product`` route of :func:`power`, the
    two-term product

    prod_{n>=1} (1 + adams(a, n) t^n)^{(1/n) sum_{m|n} mu(n/m) adams(x, m)},

    over power's ring, the join of the base's and the exponent's rings.
    Must equal power(1 + a t, exponent) exactly.
    """
    return power(TruncSeries([1, a], order), exponent, "product")


# -- named identity checks -----------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one named identity check, compared exactly to the order."""

    name: str
    order: int
    holds: bool
    first_discrepancy: dict | None

    def summary(self) -> str:
        if self.holds:
            return f"{self.name}: holds to order {self.order}"
        d = self.first_discrepancy
        return (
            f"{self.name}: FAILS at {d['term']} "
            f"(lhs {d['lhs']}, rhs {d['rhs']}) at order {self.order}"
        )


def _first_discrepancy(lhs: TruncSeries, rhs: TruncSeries, var: str) -> dict | None:
    """The lowest power of the series variable ``var`` where the two sides
    differ; for polynomial coefficients, the lowest monomial where they
    differ there, with the rationals of both sides at it."""
    for n in range(min(lhs.order, rhs.order) + 1):
        left, right = lhs.coeffs[n], rhs.coeffs[n]
        if left == right:
            continue
        term = format_monomial((var,), (n,)) or "1"
        if isinstance(left, LaurentPoly):
            exps = min((left - right).terms)
            term += "*" + (format_monomial(left.vars, exps) or "1")
            left, right = (c.terms.get(exps, _ZERO) for c in (left, right))
        return {"term": term, "lhs": str(left), "rhs": str(right)}
    return None


def _check_exp_moebius(order: int) -> tuple[TruncSeries, TruncSeries]:
    lhs = TruncSeries.t_var(order).exp()
    rhs = TruncSeries.one(order)
    for n in range(1, order + 1):
        mu = moebius(n)
        if mu:
            rhs = rhs * binomial_series(-1, n, Rational(-mu, n), order)
    return lhs, rhs


def _check_euler_phi(order: int) -> tuple[TruncSeries, TruncSeries]:
    lhs = TruncSeries.one(order)
    for k in range(1, order + 1):
        lhs = lhs * binomial_series(-1, k, Rational(-euler_phi(k), k), order)
    # t/(1-t) = t + t^2 + ...
    rhs = TruncSeries([_ZERO] + [_ONE] * order, order).exp()
    return lhs, rhs


def _check_gcd_product(order: int) -> tuple[TruncSeries, TruncSeries]:
    """Literal reading of the coprime-pair product identity.

    Left: prod over coprime (k, m) of (1 - x^k y^m)^{1/k} with rational
    exp/log powers.  Right: (1 - x)^{y/(1-y)} under the polynomial power
    structure, which multiplies out to prod_{k>=1} (1 - x y^k).  Both sides
    are computed as series in x over polynomials in y, truncated at the
    given order in each variable.  This check is a diagnostic: the two sides
    are NOT equal (first difference at x^2*y), and the report says where.
    """

    def trunc_y(poly: LaurentPoly) -> LaurentPoly:
        kept = {e: c for e, c in poly.terms.items() if e[0] <= order}
        return LaurentPoly(poly.vars, kept)

    y = LaurentPoly.var("y")
    one = LaurentPoly.constant(1, ("y",))
    lhs = TruncSeries.constant(one, order)
    for k in range(1, order + 1):
        for m in range(1, order + 1):
            if gcd(k, m) != 1:
                continue
            factor = binomial_series(-(y**m), k, Rational(1, k), order)
            lhs = (lhs * factor).map_coeffs(trunc_y)
    rhs = TruncSeries.constant(one, order)
    for k in range(1, order + 1):
        factor = TruncSeries([one, -(y**k)], order)
        rhs = (rhs * factor).map_coeffs(trunc_y)
    return lhs, rhs


# name -> (both sides at an order, the series variable)
_IDENTITY_CHECKS: dict[str, tuple[Callable[[int], tuple[TruncSeries, TruncSeries]], str]] = {
    "exp_moebius": (_check_exp_moebius, "t"),
    "euler_phi": (_check_euler_phi, "t"),
    "gcd_product": (_check_gcd_product, "x"),
}

IDENTITY_NAMES: tuple[str, ...] = tuple(sorted(_IDENTITY_CHECKS))


def verify_identity(name: str, order: int) -> IdentityReport:
    """Compute both sides of a registered identity and compare exactly."""
    if name not in _IDENTITY_CHECKS:
        raise PowerStructError(
            f"unknown identity {name!r}; known: {', '.join(IDENTITY_NAMES)}"
        )
    check, var = _IDENTITY_CHECKS[name]
    discrepancy = _first_discrepancy(*check(order), var)
    return IdentityReport(name, order, discrepancy is None, discrepancy)
