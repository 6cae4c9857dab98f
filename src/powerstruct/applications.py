"""Worked computations built on the power-structure core.

Everything here is a generating-function computation over the polynomial
images of geometric classes: varieties enter only through polynomials in the
affine-line class L (or in the Hodge variables u, v), never as geometry.

* irreducible polynomials: the projectivized space of degree-N polynomials in
  a fixed number of variables factors as an Euler product over the
  irreducible classes, so the exponents of :func:`power.factorize` recover
  [Irr_n] exactly;
* configuration spaces: the equivariant character series of ordered
  point-tuples on X is (1 + p_1 t)^{e_X}, and its three character
  specializations give unordered, sign-twisted and ordered counts.  The
  power structure commutes with them, so they come straight from
  :func:`power.power` and :func:`series.binomial_series` over the ring of
  e_X, with no symmetric function built;
* finite quotients: averaging twisted products over conjugacy classes gives
  the equivariant Euler characteristics of configuration spaces modulo a
  finite group action, with the ten built-in strata of the genus-2 moduli
  computation as the flagship instance;
* the orbifold Euler characteristic of the moduli of genus-g curves with n
  marked points, from Bernoulli numbers.

The configuration, quotient and genus-2 series are cycle-index products
sum_i c_i prod_k (1 + p_k t^k)^{e_ik}, with (1 + p_1 t)^X =
prod_k (1 + p_k t^k)^{M_k(X)} (M_k from :func:`power.moebius_exponent`).  The
p_k are independent, so [p_lambda t^n] = sum_i c_i prod_k C(e_ik, m_k(lambda))
in closed form, m_k(lambda) counting the parts equal to k (Getzler, Duke Math.
J. 96 (1999); Gusein-Zade, Luengo and Melle-Hernandez, Math. Res. Lett. 11
(2004)): no series product or exponential over symmetric functions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Mapping, Sequence

from .arith import bernoulli
from .errors import IntegralityError, PowerStructError, _require_int, json_field
from .power import factorize, moebius_exponent, power
from .rings import LaurentPoly, _add_terms, _coefficient
from .series import TruncSeries, binomial_series
from .symfunc import SpecializationMode, SymFunc

_L = LaurentPoly.var("L")
_UV = LaurentPoly.var("u", ("u", "v")) * LaurentPoly.var("v", ("u", "v"))


def poly_space_class(n_vars: int, degree: int) -> LaurentPoly:
    """Class of the projectivized space of degree-``degree`` polynomials in
    ``n_vars`` variables: (L^D(N) - L^D(N-1)) / (L - 1), where D(M) is the
    dimension C(n_vars + M, n_vars) of the space of polynomials of degree
    at most M."""
    if n_vars < 1 or degree < 1:
        raise ValueError("poly_space_class needs n_vars >= 1 and degree >= 1")

    def dim(m: int) -> int:
        return comb(n_vars + m, n_vars)

    numerator = _L ** dim(degree) - _L ** dim(degree - 1)
    return numerator.exact_div(_L - 1)


def poly_space_series(n_vars: int, order: int) -> TruncSeries:
    """1 + sum_N [space of degree-N polynomials] t^N, truncated."""
    coeffs = [LaurentPoly.constant(1, ("L",))]
    for n in range(1, order + 1):
        coeffs.append(poly_space_class(n_vars, n))
    return TruncSeries(coeffs, order)


def irreducible_class(n_vars: int, degree: int) -> LaurentPoly:
    """Class of the projectivized variety of irreducible degree-``degree``
    polynomials in ``n_vars`` variables: the full polynomial-space series is
    an Euler product over the irreducible classes, so [Irr_n] is its exponent
    b_n under :func:`factorize`.  The Moebius sum n b_n must be exactly
    divisible by n; anything else raises IntegralityError."""
    if n_vars < 1 or degree < 1:
        raise ValueError("irreducible_class needs n_vars >= 1 and degree >= 1")
    cls = factorize(poly_space_series(n_vars, degree))[degree - 1]
    for exps, coeff in cls.terms.items():
        if coeff.denominator != 1:
            raise IntegralityError(
                f"Moebius sum for degree {degree} is not divisible by {degree} "
                f"at L^{exps[0]} (coefficient {coeff * degree})"
            )
    return cls


def irreducible_specialize(n_vars: int, degree: int, target: str) -> LaurentPoly:
    """Specialized irreducible class: ``hodge_deligne`` maps L -> uv,
    ``euler`` maps L -> 1."""
    cls = irreducible_class(n_vars, degree)
    if target == "hodge_deligne":
        return cls.substitute({"L": _UV})
    if target == "euler":
        return cls.substitute({"L": 1})
    raise ValueError(f"unknown target {target!r}; use 'hodge_deligne' or 'euler'")


def config_space_series(x_class: LaurentPoly, order: int) -> TruncSeries:
    """(1 + p_1 t)^{x_class}, the equivariant character series of ordered
    point configurations on a space with the given class, as the cycle index
    prod_k (1 + p_k t^k)^{moebius_exponent(x_class, k)}.  The t^n coefficient
    is a symmetric function of weight n whose character specializations
    count unordered (invariants), sign-twisted (sign) and ordered (ordered)
    configurations; :func:`config_specialization` computes them directly."""
    factors = [(k, moebius_exponent(x_class, k)) for k in range(1, order + 1)]
    return _cycle_index_series([(1, factors)], order, max(order, 1), x_class.vars)


def config_specialization(x_class: LaurentPoly, order: int, mode: SpecializationMode | str) -> TruncSeries:
    """One character specialization of :func:`config_space_series`, taken
    through the power structure without building a symmetric function:
    invariants is (1 + t)^X, sign is (1 - t)^X with t -> -t, and ordered is
    n! C(X, n) at t^n; every series is over the ring of X."""
    mode = SpecializationMode(mode)
    if mode is SpecializationMode.ORDERED:
        series = binomial_series(1, 1, x_class, order)
        return TruncSeries([factorial(n) * c for n, c in enumerate(series.coeffs)], order, series._zero)
    series = power(TruncSeries([1, 1 if mode is SpecializationMode.INVARIANTS else -1], order), x_class)
    if mode is SpecializationMode.SIGN:
        series = TruncSeries([-c if n % 2 else c for n, c in enumerate(series.coeffs)], order, series._zero)
    return series


def unordered_config_product(
    betti: Sequence[int], order: int, signed: bool = False
) -> TruncSeries:
    """Unordered-configuration series of a space with the given Betti numbers,
    computed two ways and cross-checked.

    The class is P = sum_k (-1)^k b_k q^k.  Unsigned: (1 + t)^P under the
    power structure, equal to the explicit product
    prod_k ((1 - t^2 q^k)/(1 - t q^k))^{(-1)^k b_k}.  Signed: (1 - u)^P with
    u -> -t, equal to prod_k (1 + t q^k)^{(-1)^k b_k}.  The power-structure
    route is :func:`config_specialization` (invariants or sign); a mismatch
    between the two routes raises (it would mean an internal inconsistency).
    """
    q = LaurentPoly.var("q")
    one = LaurentPoly.constant(1, ("q",))
    zero = LaurentPoly.zero(("q",))
    p_class = zero
    for k, b in enumerate(betti):
        p_class = p_class + ((-1) ** k * b) * q**k

    route_power = config_specialization(p_class, order, "sign" if signed else "invariants")
    route_product = TruncSeries.constant(one, order)
    for k, b in enumerate(betti):
        s = (-1) ** k * b
        if s == 0:
            continue
        if signed:
            route_product = route_product * TruncSeries([one, q**k], order) ** s
        else:
            two_t = TruncSeries([one, zero, -(q**k)], order)
            one_t = TruncSeries([one, -(q**k)], order)
            route_product = route_product * two_t**s * one_t ** (-s)
    if route_power != route_product:
        raise PowerStructError(
            "power-structure and explicit-product routes disagree (internal bug)"
        )
    return route_power


# -- finite group actions ------------------------------------------------------


@dataclass(frozen=True)
class ConjugacyClassData:
    """One conjugacy class of the acting group.

    ``orbit_euler`` maps an orbit length k to the Euler characteristic of the
    locus of points whose orbit under a representative has exactly k points.
    ``size``, the orbit lengths and the Euler characteristics must be ints
    (not bools), and ``identity`` a bool; anything else raises ``TypeError``
    naming the field.
    """

    size: int
    orbit_euler: Mapping[int, int]
    identity: bool = False

    def __post_init__(self):
        _require_int(self.size, "class size")
        if not isinstance(self.identity, bool):
            raise TypeError(f"identity must be a bool, got {self.identity!r}")
        if self.size < 1:
            raise ValueError(f"class size must be >= 1, got {self.size}")
        cleaned = {}
        for k, chi in self.orbit_euler.items():
            _require_int(k, "orbit length")
            if k < 1:
                raise ValueError(f"orbit length must be >= 1, got {k}")
            _require_int(chi, f"orbit_euler value of orbit length {k}")
            cleaned[k] = chi
        object.__setattr__(self, "orbit_euler", cleaned)
        if self.identity:
            if self.size != 1:
                raise ValueError("the identity class must have size 1")
            if set(k for k, chi in cleaned.items() if chi) - {1}:
                raise ValueError(
                    "the identity fixes everything: its orbit_euler must be "
                    "supported at k = 1"
                )


@dataclass(frozen=True)
class GroupActionData:
    """Summary of a finite group action: per conjugacy class, the Euler
    characteristics of the orbit-length strata."""

    group_order: int
    classes: tuple[ConjugacyClassData, ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if self.group_order < 1:
            raise ValueError(f"group order must be >= 1, got {self.group_order}")
        if not self.classes:
            raise ValueError("an action needs at least one conjugacy class")
        if sum(c.size for c in self.classes) != self.group_order:
            raise ValueError(
                f"class sizes {[c.size for c in self.classes]} do not add up "
                f"to the group order {self.group_order}"
            )
        if sum(1 for c in self.classes if c.identity) != 1:
            raise ValueError("exactly one class must be marked as the identity")

    def to_json_dict(self) -> dict:
        out_classes = []
        for c in self.classes:
            entry: dict = {"size": c.size}
            if c.identity:
                entry["identity"] = True
            entry["orbit_euler"] = {
                str(k): chi for k, chi in sorted(c.orbit_euler.items())
            }
            out_classes.append(entry)
        return {"group_order": self.group_order, "classes": out_classes}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "GroupActionData":
        classes = []
        for i, entry in enumerate(json_field(data, "classes", "group action", list)):
            where = f"class {i}"
            orbit_euler = json_field(entry, "orbit_euler", where, dict)
            classes.append(
                ConjugacyClassData(
                    size=json_field(entry, "size", where, int),
                    orbit_euler={
                        _orbit_length(k, where): json_field(orbit_euler, k, f"{where} orbit_euler", int)
                        for k in orbit_euler
                    },
                    identity="identity" in entry and json_field(entry, "identity", where, bool),
                )
            )
        return cls(json_field(data, "group_order", "group action", int), tuple(classes))


def _orbit_length(key: str, where: str) -> int:
    """An orbit_euler key: the canonical decimal text of a positive integer."""
    if not (isinstance(key, str) and re.fullmatch("[1-9][0-9]*", key)):
        raise ValueError(f"{where} orbit_euler key {key!r} must be a positive integer in decimal")
    return int(key)


def _cycle_index_series(terms, order: int, bound: int, vars=()) -> TruncSeries:
    """sum of prefactor * prod_k (1 + p_k t^k)^exponent over (prefactor,
    [(k, exponent), ...]) pairs in closed form: the p_k are independent, so
    [p_lambda t^n] is sum prefactor * prod_k C(exponent_k, m_k(lambda))."""
    # m_k(lambda) counts the parts of lambda equal to k.  Each term grows its
    # partitions factor by factor in descending k, so a partition stays
    # sorted and repeated k accumulate; C(exponent, m) for m <= order // k
    # is one column per factor.  Each coefficient is coerced once into the
    # ring of ``vars`` as it goes into its SymFunc.
    weights = [{} for _ in range(order + 1)]
    for prefactor, factors in terms:
        grown = {(): prefactor}
        for k, exponent in sorted(factors, key=lambda factor: -factor[0]):
            if exponent and k <= order:
                column = binomial_series(1, 1, exponent, order // k).coeffs
                grown = _add_terms(dict(grown), (  # m = 0: C(exponent, 0) = 1
                    (partition + (k,) * m, coeff * column[m])
                    for partition, coeff in grown.items()
                    for m in range(1, (order - sum(partition)) // k + 1)
                    if column[m]
                ))
        for partition, coeff in grown.items():
            _add_terms(weights[sum(partition)], [(partition, coeff)])
    coeffs = [SymFunc._raw({p: _coefficient(c, vars) for p, c in w.items()}, bound, vars)
              for w in weights]
    return TruncSeries(coeffs, order, SymFunc.zero(bound, vars))


def quotient_euler_series(action: GroupActionData, order: int) -> TruncSeries:
    """Equivariant Euler-characteristic series of point configurations on the
    quotient by the action:

        sum_n t^n chi^{S_n}(F(X, n) / G)
          = (1/|G|) sum_g prod_k (1 + p_k t^k)^{chi(X_k(g)) / k}.

    Coefficients are symmetric functions with rational coefficients; the
    per-class powers are plain binomial powers with rational exponents.
    """
    terms = [
        (
            Fraction(cls.size, action.group_order),
            [(k, Fraction(chi, k)) for k, chi in cls.orbit_euler.items()],
        )
        for cls in action.classes
    ]
    return _cycle_index_series(terms, order, max(order, 1))


def quotient_euler_egf(action: GroupActionData, order: int) -> TruncSeries:
    """Exponential generating function of the plain Euler characteristics:

        sum_n (t^n / n!) chi(F(X, n) / G)
          = (1/|G|) sum_g (1 + t)^{chi(X_1(g))},

    with plain rational powers."""
    total = TruncSeries([], order)
    for cls in action.classes:
        term = binomial_series(1, 1, cls.orbit_euler.get(1, 0), order)
        total = total + term.scale(Fraction(cls.size, action.group_order))
    return total


# -- hyperelliptic curves and genus-2 moduli ------------------------------------


def hyperelliptic_class(genus: int, target: str = "class") -> LaurentPoly:
    """Class of the moduli space of genus-``genus`` hyperelliptic curves.

    The coefficient of t^(2g+2) in (1 + t)^{1 + L} counts unordered
    (2g+2)-tuples of distinct points on the projective line; dividing by the
    automorphism class [PGL_2] = L^3 - L gives L^{2g-1}.  The division is
    exact by construction; a remainder would signal a regression.

    ``target='hodge_deligne'`` maps L -> uv, giving (uv)^{2g-1} (of total
    degree 4g - 2).
    """
    if genus < 2:
        raise ValueError(f"hyperelliptic_class needs genus >= 2, got {genus}")
    order = 2 * genus + 2
    series = power(TruncSeries([Fraction(1), Fraction(1)], order), 1 + _L)
    numerator = series.coeffs[order]
    cls = numerator.exact_div(_L**3 - _L)
    if target == "class":
        return cls
    if target == "hodge_deligne":
        return cls.substitute({"L": _UV})
    raise ValueError(f"unknown target {target!r}; use 'class' or 'hodge_deligne'")


@dataclass(frozen=True)
class ModuliStratum:
    """One symmetry stratum of the genus-2 moduli computation: a rational
    prefactor times a product of factors (1 + p_k t^k)^exponent."""

    prefactor: Fraction
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for k, _ in self.factors:
            if k < 1:
                raise ValueError(f"factor index must be >= 1, got {k}")


# The ten strata of curves with extra symmetries, classified by the symmetry
# type of the six branch points on the projective line.
GENUS2_STRATA: tuple[ModuliStratum, ...] = (
    ModuliStratum(Fraction(-1, 240), ((1, -2),)),
    ModuliStratum(Fraction(-1, 240), ((1, 6), (2, -4))),
    ModuliStratum(Fraction(2, 5), ((1, 3), (5, -1))),
    ModuliStratum(Fraction(2, 5), ((1, 1), (2, 1), (5, 1), (10, -1))),
    ModuliStratum(Fraction(1, 6), ((1, 2), (2, 1), (6, -1))),
    ModuliStratum(Fraction(-1, 12), ((1, 4), (3, -2))),
    ModuliStratum(Fraction(-1, 12), ((2, 2), (3, 2), (6, -2))),
    ModuliStratum(Fraction(1, 12), ((1, 2), (2, -2))),
    ModuliStratum(Fraction(1, 4), ((1, 2), (4, 1), (8, -1))),
    ModuliStratum(Fraction(-1, 8), ((1, 2), (2, 2), (4, -2))),
)


def moduli_g2_series(order: int) -> TruncSeries:
    """Equivariant Euler-characteristic series of the moduli of genus-2
    curves with marked points: sum over the built-in symmetry strata of
    prefactor * prod (1 + p_k t^k)^exponent."""
    terms = [(stratum.prefactor, stratum.factors) for stratum in GENUS2_STRATA]
    return _cycle_index_series(terms, order, max(order, 1))


def harer_zagier(genus: int, marked: int) -> Fraction:
    """Orbifold Euler characteristic of the moduli of genus-``genus`` curves
    with ``marked`` marked points:

        (-1)^n (2g - 3 + n)! (2g - 1) / (2g)! * B_{2g}.
    """
    if genus < 1:
        raise ValueError(f"harer_zagier needs genus >= 1, got {genus}")
    if marked < 0:
        raise ValueError(f"marked point count must be >= 0, got {marked}")
    if 2 * genus - 3 + marked < 0:
        raise ValueError(
            f"need 2*genus - 3 + marked >= 0, got {2 * genus - 3 + marked}"
        )
    sign = -1 if marked % 2 else 1
    return (
        sign
        * Fraction(factorial(2 * genus - 3 + marked) * (2 * genus - 1), factorial(2 * genus))
        * bernoulli(2 * genus)
    )
