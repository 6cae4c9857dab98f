"""Exact coefficient rings and the Adams-operation interface.

Two kinds of scalars run through the whole package:

* ``Rational`` -- arbitrary-precision exact rationals, always in lowest
  terms with a positive denominator (``gmpy2.mpq`` when available, else
  ``fractions.Fraction``; the two mix freely).  There is no floating point
  anywhere.
* ``LaurentPoly`` -- sparse multivariate Laurent polynomial over ``Rational``
  in a fixed, ordered variable alphabet.  Exponents may be negative so that
  intermediate quotients such as (L^a - L^b)/(L - 1) stay inside the ring.

A *lambda-ring element* here is any value supporting ring arithmetic plus
``adams(k)`` for k >= 1.  The module-level :func:`adams` dispatches:

* rationals and integers: identity (the trivial lambda-structure on Q),
* ``LaurentPoly``: every variable exponent is multiplied by k,
* ``GradedAdamsElement``: the degree-j component is scaled by k^j.

All values are immutable after construction; every operation is pure, so
values can be shared freely.

Canonical form
--------------
Term maps never store zero coefficients: every constructor, sum and product
adds its terms through :func:`_add_terms`, the one place where a zero sum is
dropped.  Keys are ints or tuples of ints.  Serialization orders terms by
descending lexicographic exponent tuple, e.g. ``L^5 - L^2``.  Every value
prints as a signed sum through :func:`format_sum` and :func:`format_term`.
The JSON form is
``{"vars": ["L"], "terms": [{"e": [5], "c": "1"}, {"e": [2], "c": "-1"}]}``
with coefficients rendered as ``num/den`` strings (``den`` omitted when 1).
A one-variable value computes its integer form for the Kronecker kernels
(:func:`_dense_integers`) once, on first use, and keeps it beside its term
map; the form takes no part in equality, hash, text or JSON.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

from .arith import binary_power
from .errors import (
    AlphabetMismatchError,
    InexactDivisionError,
    LimitError,
    SubstitutionError,
    _require_int,
    json_field,
)

# gmpy2's exact rational is arithmetic-compatible with fractions.Fraction
# (same text form, same hash, same lowest-terms/positive-denominator
# invariants) but an order of magnitude faster; fall back to Fraction when
# it is not installed.  Either type may appear anywhere a scalar is accepted.
try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover
    Rational = Fraction

SCALAR_TYPES: tuple = tuple({int, Fraction, type(Rational(1))})
Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]

_ZERO = Rational(0)
_ONE = Rational(1)

# Largest magnitude of an exponent written in a value: of ``^`` in the
# grammar and of a polynomial term read from JSON.  (1 + L)^1000 has 1001
# terms of ~1000 bits, a bounded cost, and the dense kernels allocate one
# slot per exponent in a polynomial's span; a larger exponent is refused
# before any work.
MAX_EXPONENT = 1000


def _as_rational(value):
    if type(value) is type(_ZERO):
        return value
    if isinstance(value, SCALAR_TYPES):
        return Rational(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


def _add_terms(terms: dict, items: Iterable[tuple]) -> dict:
    """Add each (key, coefficient) of ``items`` into the term map ``terms``
    in place and return it.  A new key stores its coefficient as given, and
    a key whose sum is zero is deleted."""
    for key, coeff in items:
        prev = terms.get(key)
        total = coeff if prev is None else prev + coeff
        if total:
            terms[key] = total
        else:
            terms.pop(key, None)
    return terms


def format_rational(value) -> str:
    """Render a rational as ``num`` or ``num/den``."""
    return str(value)


_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/(?P<den>[0-9]+))?")


def parse_rational(text: str, where: str):
    """Parse the ``num`` / ``num/den`` form produced by :func:`format_rational`;
    any other text, or a zero ``den``, raises ValueError naming ``where``."""
    match = _RATIONAL_RE.fullmatch(text)
    if match is None or match["den"] is not None and not int(match["den"]):
        raise ValueError(f"{where} must be a rational num or num/den, got {text!r}")
    return Rational(text)


# -- canonical text ------------------------------------------------------------


def format_sum(terms: Iterable[tuple[bool, str]]) -> str:
    """Join (negative, text) terms in order as ``a - b + c``; ``0`` if none."""
    text = ""
    for negative, body in terms:
        if text:
            text += f" - {body}" if negative else f" + {body}"
        else:
            text = f"-{body}" if negative else body
    return text or "0"


def format_term(coeff: str, monomial: str) -> tuple[bool, str]:
    """(negative, text) of a coefficient times a monomial text: ``coeff`` is
    the canonical text of a one-term value, whose leading minus is the sign,
    and a magnitude of ``1`` is dropped before a nonempty monomial."""
    negative = coeff.startswith("-")
    magnitude = coeff[1:] if negative else coeff
    if not monomial:
        return negative, magnitude
    if magnitude == "1":
        return negative, monomial
    return negative, f"{magnitude}*{monomial}"


def format_monomial(names: Iterable[str], exps: Iterable[int]) -> str:
    """``L``, ``L^-2``, ``u^2*v``; empty when every exponent is 0."""
    return "*".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e
    )


class _Value:
    """Behaviour shared by the value types: immutable after construction,
    subtraction as addition of the negative, and a repr that wraps the
    canonical text in the type name."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class LaurentPoly(_Value):
    """Multivariate Laurent polynomial with Rational coefficients.

    ``vars`` is the ordered variable alphabet, fixed at construction;
    combining values over different non-empty alphabets raises
    :class:`AlphabetMismatchError`.  The empty alphabet plays the role of a
    plain scalar and promotes freely.  Arithmetic accepts ``int`` and
    ``Fraction`` on either side.
    """

    __slots__ = ("vars", "terms", "_form")

    def __init__(self, vars: Iterable[str], terms: Mapping[Exponents, Scalar]):
        vars = tuple(vars)

        def checked(exps) -> Exponents:
            exps = tuple(exps)
            if len(exps) != len(vars):
                raise ValueError(f"exponent tuple {exps} does not match alphabet {vars}")
            for e in exps:
                _require_int(e, "polynomial exponent")
            return exps

        clean = _add_terms({}, ((checked(exps), _as_rational(c)) for exps, c in terms.items()))
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, vars: tuple[str, ...], terms: dict[Exponents, Fraction]) -> "LaurentPoly":
        """Internal: build from an already-canonical term map (no zeros,
        exact Fractions, correct tuple widths)."""
        self = object.__new__(cls)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def constant(cls, value: Scalar, vars: Iterable[str] = ()) -> "LaurentPoly":
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): _as_rational(value)})

    @classmethod
    def var(cls, name: str, vars: Iterable[str] | None = None) -> "LaurentPoly":
        """The polynomial consisting of the single variable ``name``."""
        vars = (name,) if vars is None else tuple(vars)
        if name not in vars:
            raise ValueError(f"variable {name!r} is not in alphabet {vars}")
        exps = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {exps: _ONE})

    @classmethod
    def zero(cls, vars: Iterable[str] = ()) -> "LaurentPoly":
        return cls(vars, {})

    # -- coercion ----------------------------------------------------------

    def _promote(self, vars: tuple[str, ...]) -> "LaurentPoly":
        """Re-express a constant (empty-alphabet) value over ``vars``."""
        if self.vars == vars:
            return self
        if self.vars != ():
            raise AlphabetMismatchError(
                f"cannot combine alphabets {self.vars} and {vars}"
            )
        coeff = self.terms.get((), _ZERO)
        return LaurentPoly.constant(coeff, vars)

    def _align(self, other) -> tuple["LaurentPoly", "LaurentPoly"] | None:
        """Coerce the pair to a common alphabet, or None if not a known scalar."""
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, SCALAR_TYPES):
                return None
            other = LaurentPoly.constant(other, self.vars)
        if self.vars == other.vars:
            return self, other
        if self.vars == ():
            return self._promote(other.vars), other
        return self, other._promote(self.vars)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly) and isinstance(other, SCALAR_TYPES):
            # A scalar lands on the constant term, which drops if it cancels.
            if not other:
                return self
            constant = [((0,) * len(self.vars), _as_rational(other))]
            return LaurentPoly._raw(self.vars, _add_terms(dict(self.terms), constant))
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return LaurentPoly._raw(a.vars, _add_terms(dict(a.terms), b.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly) and isinstance(other, SCALAR_TYPES):
            if not other:
                return LaurentPoly._raw(self.vars, {})
            return LaurentPoly._raw(self.vars, {e: c * other for e, c in self.terms.items()})
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if len(a.vars) == 1 and _kronecker_applies(a.terms, b.terms):
            product = _dense_product(a._integer_form(), b._integer_form())
            return LaurentPoly._raw(a.vars, _dense_terms(*product))
        return LaurentPoly._raw(a.vars, _mul_dict(a.terms, b.terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return self * (_ONE / _as_rational(other))
        if isinstance(other, LaurentPoly):
            return self.exact_div(other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return LaurentPoly.constant(other, self.vars).exact_div(self)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("polynomial exponent must be an integer")
        if n < 0:
            return self.invert_unit() ** (-n)
        return binary_power(self, n, LaurentPoly.constant(1, self.vars))

    def __eq__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.terms == b.terms

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_term())
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- structure ---------------------------------------------------------

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), _ZERO)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def invert_unit(self) -> "LaurentPoly":
        """Inverse of a unit (a single-term Laurent monomial)."""
        if not self.is_monomial():
            raise InexactDivisionError(f"{self} is not an invertible monomial")
        ((exps, coeff),) = self.terms.items()
        return LaurentPoly(self.vars, {tuple(-e for e in exps): _ONE / coeff})

    def _integer_form(self) -> tuple[int, int, tuple[int, ...]]:
        """The integer form :func:`_dense_integers` of a nonzero one-variable
        value, computed on first use and kept: the value is immutable."""
        form = getattr(self, "_form", None)
        if form is None:
            form = _dense_integers(self.terms)
            object.__setattr__(self, "_form", form)
        return form

    def is_integral(self) -> bool:
        """True when all exponents are >= 0 and all coefficients are integers."""
        return all(
            all(e >= 0 for e in exps) and coeff.denominator == 1
            for exps, coeff in self.terms.items()
        )

    # -- exact division ----------------------------------------------------

    def exact_div(self, other) -> "LaurentPoly":
        """Exact quotient self/other in the Laurent polynomial ring.

        Raises :class:`InexactDivisionError` when other does not divide self.
        Never truncates.
        """
        pair = self._align(other)
        if pair is None:
            raise TypeError(f"cannot divide by {other!r}")
        a, b = pair
        if not b.terms:
            raise ZeroDivisionError("division by the zero polynomial")
        if not a.terms:
            return LaurentPoly.zero(a.vars)
        width = len(a.vars)
        # The quotient's per-variable support is pinned: over an integral
        # domain, min/max exponents are additive under multiplication.
        lo = tuple(
            min(e[i] for e in a.terms) - min(e[i] for e in b.terms)
            for i in range(width)
        )
        hi = tuple(
            max(e[i] for e in a.terms) - max(e[i] for e in b.terms)
            for i in range(width)
        )
        if any(l > h for l, h in zip(lo, hi)):
            raise InexactDivisionError(f"({a}) is not divisible by ({b})")
        lead_b = max(b.terms)
        lead_b_coeff = b.terms[lead_b]
        negated = [(eb, -cb) for eb, cb in b.terms.items()]
        remainder = dict(a.terms)
        # Each step's leading exponent is below the last one's, so the
        # quotient's keys are distinct and its coefficients nonzero.
        quotient: dict[Exponents, Fraction] = {}
        while remainder:
            lead_r = max(remainder)
            exps = tuple(x - y for x, y in zip(lead_r, lead_b))
            if any(e < l or e > h for e, l, h in zip(exps, lo, hi)):
                raise InexactDivisionError(f"({a}) is not divisible by ({b})")
            coeff = quotient[exps] = remainder[lead_r] / lead_b_coeff
            _add_terms(remainder, ((tuple(x + y for x, y in zip(exps, eb)), coeff * cb)
                                   for eb, cb in negated))
        return LaurentPoly._raw(a.vars, quotient)

    # -- substitution and Adams -------------------------------------------

    def substitute(self, mapping: Mapping[str, "LaurentPoly | Scalar"]) -> "LaurentPoly":
        """Substitute a value for every variable.

        Every variable of the alphabet must be mapped.  A value raised to a
        negative exponent must be a unit monomial.  All non-constant values
        must share one alphabet, which becomes the result's alphabet.
        """
        missing = [v for v in self.vars if v not in mapping]
        if missing:
            raise SubstitutionError(f"no substitution given for {missing}")
        values: list[LaurentPoly] = []
        target: tuple[str, ...] = ()
        for name in self.vars:
            value = mapping[name]
            if isinstance(value, SCALAR_TYPES):
                value = LaurentPoly.constant(value)
            if value.vars != ():
                if target == ():
                    target = value.vars
                elif value.vars != target:
                    raise AlphabetMismatchError(
                        f"substitution values mix alphabets {target} and {value.vars}"
                    )
            values.append(value)
        values = [value._promote(target) for value in values]
        result = LaurentPoly.zero(target)
        for exps, coeff in self.terms.items():
            term = LaurentPoly.constant(coeff, target)
            for value, e in zip(values, exps):
                if e == 0:
                    continue
                if e < 0 and not value.is_monomial():
                    raise SubstitutionError(
                        f"cannot raise non-unit {value} to negative exponent {e}"
                    )
                term = term * value**e
            result = result + term
        return result

    def adams(self, k: int) -> "LaurentPoly":
        """k-th Adams operation: each variable exponent multiplied by k."""
        if k < 1:
            raise ValueError(f"adams() needs k >= 1, got {k}")
        if k == 1:
            return self
        return LaurentPoly._raw(
            self.vars,
            {tuple(e * k for e in exps): c for exps, c in self.terms.items()},
        )

    # -- serialization -----------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in canonical order: descending lexicographic exponent tuple."""
        return sorted(self.terms.items(), key=lambda item: item[0], reverse=True)

    def __str__(self):
        return format_sum(
            format_term(format_rational(coeff), format_monomial(self.vars, exps))
            for exps, coeff in self.sorted_terms()
        )

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.vars),
            "terms": [
                {"e": list(exps), "c": format_rational(coeff)}
                for exps, coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LaurentPoly":
        vars = json_field(data, "vars", "polynomial", list, str)
        terms = {}
        for entry in json_field(data, "terms", "polynomial", list):
            exps = tuple(json_field(entry, "e", "polynomial term", list, int))
            for e in exps:
                if abs(e) > MAX_EXPONENT:
                    raise LimitError(f"exponent {e} of a polynomial term exceeds the limit {MAX_EXPONENT}")
            c = json_field(entry, "c", "polynomial term", str)
            terms[exps] = terms.get(exps, _ZERO) + parse_rational(c, "polynomial term field 'c'")
        return cls(vars, terms)


def _coefficient(value, vars: tuple[str, ...]):
    """``value`` in the one coefficient ring of the alphabet ``vars``: a
    Rational over Q (no alphabet), a LaurentPoly over exactly ``vars``
    otherwise.  A scalar or an empty-alphabet polynomial is promoted; a
    polynomial over another non-empty alphabet raises ValueError."""
    if isinstance(value, LaurentPoly):
        if value.vars:
            if value.vars != vars:
                raise ValueError(f"coefficient alphabet {value.vars} does not match {vars}")
            return value
        value = value.constant_term()
    return LaurentPoly.constant(value, vars) if vars else _as_rational(value)


# -- integer kernels: products and series quotients ---------------------------

# Crossover of the two kernels, timed on random dense and sparse products:
# the Kronecker kernel breaks even with the dict loop at 1 x 2 terms and wins
# from 2 x 2 terms up; on operands whose exponent span is r times their term
# count it still wins at r = 4 for every size, and loses from r = 8 at 2
# terms (from r = 16 at 10 terms), the empty slots costing what it saves.
_KRONECKER_MIN_TERMS = 2
_KRONECKER_MAX_SPAN = 4


def _kronecker_applies(a_terms: Mapping, b_terms: Mapping) -> bool:
    """Whether a product of two univariate term maps takes
    :func:`_dense_product`: both operands long enough and dense enough."""
    for terms in (a_terms, b_terms):
        if len(terms) < _KRONECKER_MIN_TERMS:
            return False
        if max(terms)[0] - min(terms)[0] >= _KRONECKER_MAX_SPAN * len(terms):
            return False
    return True


def _mul_dict(a_terms: Mapping, b_terms: Mapping) -> dict[Exponents, Fraction]:
    """Product of two term maps of one alphabet, term by term."""
    if len(a_terms) > len(b_terms):
        a_terms, b_terms = b_terms, a_terms
    if len(a_terms) == 1:
        # One term shifts the exponents and scales the coefficients: no two
        # products collide and none cancels.
        ((ea, ca),) = a_terms.items()
        return {tuple(x + y for x, y in zip(ea, eb)): ca * cb for eb, cb in b_terms.items()}
    return _add_terms({}, ((tuple(x + y for x, y in zip(ea, eb)), ca * cb)
                           for ea, ca in a_terms.items() for eb, cb in b_terms.items()))


def _dense_integers(terms: Mapping) -> tuple[int, int, tuple[int, ...]]:
    """(lowest exponent, common denominator, integer coefficients from the
    lowest exponent up) of a univariate term map: terms = ints / den."""
    lo = min(terms)[0]
    # A list, not a generator: CPython sizes the argument tuple of
    # f(*generator) by resizing, and each such call leaves one more tuple in
    # the free list of that size (~1 MB of peak memory on a pow-small run).
    den = lcm(*[int(c.denominator) for c in terms.values()])
    ints = [0] * (max(terms)[0] - lo + 1)
    for (e,), c in terms.items():
        ints[e - lo] = int(c.numerator) * (den // int(c.denominator))
    return lo, den, tuple(ints)


def _dense(value) -> tuple[int, int, tuple[int, ...]]:
    """The dense form (lowest exponent, denominator, integer coefficients) of
    a nonzero rational or one-variable Laurent polynomial."""
    if isinstance(value, LaurentPoly):
        if value.vars:
            return value._integer_form()
        value = value.constant_term()
    return 0, int(value.denominator), (int(value.numerator),)


def _dense_terms(lo: int, den: int, ints: list[int]) -> dict[Exponents, Fraction]:
    """The univariate term map of a dense form: the inverse of
    :func:`_dense_integers`."""
    if den == 1:
        return {(lo + i,): Rational(c) for i, c in enumerate(ints) if c}
    return {(lo + i,): Rational(c, den) for i, c in enumerate(ints) if c}


def _dense_product(a, b) -> tuple[int, int, list[int]]:
    """The dense form of the product of two dense forms by Kronecker
    substitution (Harvey, arXiv:0712.4046): each int list is packed into one
    integer at x = 2^width, the two are multiplied once, and the product's
    coefficients are read back from its width-bit slots.  Not reduced."""
    a_lo, a_den, a_ints = a
    b_lo, b_den, b_ints = b
    # A product coefficient sums at most min(|a|, |b|) products of magnitude
    # below 2^(bits(max|a|) + bits(max|b|)); one more bit holds its sign.
    width = (
        max(map(abs, a_ints)).bit_length()
        + max(map(abs, b_ints)).bit_length()
        + min(len(a_ints), len(b_ints)).bit_length()
        + 1
    )
    packed = _pack(a_ints, width) * _pack(b_ints, width)
    return a_lo + b_lo, a_den * b_den, _unpack(packed, width, len(a_ints) + len(b_ints) - 1)


def _pack(ints: list[int], width: int) -> int:
    """sum(ints[i] * 2^(width * i))."""
    packed = 0
    for c in reversed(ints):
        packed = (packed << width) + c
    return packed


def _unpack(packed: int, width: int, count: int) -> list[int]:
    """The ints of ``packed = sum(ints[i] * 2^(width * i))`` for i < count,
    each of magnitude below 2^(width - 1): the inverse of :func:`_pack`."""
    # A slot read as an unsigned value of half or more holds a negative
    # coefficient, which borrowed 1 from the slot above; subtracting the
    # coefficient pays it back.
    mask, half, full = (1 << width) - 1, 1 << (width - 1), 1 << width
    ints = []
    for _ in range(count):
        coeff = packed & mask
        if coeff >= half:
            coeff -= full
        packed = (packed - coeff) >> width
        ints.append(coeff)
    return ints


def _dense_reduce(lo: int, den: int, ints: list[int]):
    """The dense form of ints / den from exponent lo up, in lowest terms and
    without zero end slots; None when every slot is zero."""
    start, end = 0, len(ints)
    while end and not ints[end - 1]:
        end -= 1
    if not end:
        return None
    while not ints[start]:
        start += 1
    if start or end < len(ints):
        ints = ints[start:end]
    g = gcd(den, *ints)
    if g != 1:
        ints = [c // g for c in ints]
        den //= g
    return lo + start, den, ints


def _from_dense(form, zero):
    """The value of a dense form (None for 0) in zero's ring: Q or a
    one-variable Q[L]."""
    if form is None:
        return zero
    if isinstance(zero, LaurentPoly):
        return LaurentPoly._raw(zero.vars, _dense_terms(*form))
    return Rational(form[2][0], form[1])


def _dense_ring(zero) -> bool:
    """Whether zero's ring is Q or a one-variable Q[L], the rings whose
    elements take the dense form of :func:`_dense`."""
    return isinstance(zero, SCALAR_TYPES) or (type(zero) is LaurentPoly and len(zero.vars) == 1)


def _dense_adams_sum(terms, n: int):
    """The dense form (None for 0) of (1/n) sum w adams(x, d) over the
    (w, d, x) of terms, each x a dense form.

    adams(x, d) multiplies x's exponents by d, so its int list lands in the
    sum with stride d.  The sum is one integer accumulation over the common
    denominator followed by one gcd reduction.
    """
    if not terms:
        return None
    den = lcm(*[x[1] for _, _, x in terms])
    lo = min(x[0] * d for _, d, x in terms)
    acc = [0] * (max((x[0] + len(x[2]) - 1) * d for _, d, x in terms) - lo + 1)
    for w, d, (x_lo, x_den, ints) in terms:
        start = x_lo * d - lo
        stop = start + d * (len(ints) - 1) + 1
        scale = w * (den // x_den)
        acc[start:stop:d] = [a + scale * c for a, c in zip(acc[start:stop:d], ints)]
    return _dense_reduce(lo, den * n, acc)


class _Dense:
    """A dense form (:func:`_dense`) with its l1 norm and its packing."""

    __slots__ = ("lo", "hi", "den", "ints", "norm", "packed")

    def __init__(self, lo: int, den: int, ints: list[int], width: int):
        self.lo, self.hi, self.den, self.ints = lo, lo + len(ints) - 1, den, ints
        self.norm = sum(map(abs, ints))
        self.packed = width and _pack(ints, width)


_ONE_FORM = (0, 1, (1,))


class _Packing:
    """The step kernel of the series recurrences over Q and one-variable Q[L]:
    their :class:`_Dense` operands at one slot width, as in :func:`_dense_product`."""

    def __init__(self):
        self.width, self.operands = 0, []

    def operand(self, form) -> _Dense | None:
        """The operand of a dense form (None for 0)."""
        if form is not None:
            self.operands.append(_Dense(*form, self.width))
            return self.operands[-1]

    def step(self, terms, scale=_ONE_FORM):
        """The dense form (None for 0) of scale * sum w x y over the (w, x, y)
        of terms (w an int, scale the form of a rational or c L^e), packed over
        one denominator at one lowest exponent, unpacked and reduced once; a
        width below the sum's l1 bound first at least doubles, all repacked."""
        if not terms:
            return None
        den = 1
        for _, x, y in terms:
            den = lcm(den, x.den * y.den)
        _, x, y = terms[0]
        lo, hi, bound, weights = x.lo + y.lo, x.hi + y.hi, 0, []
        for w, x, y in terms:
            w *= den // (x.den * y.den)
            weights.append(w)
            bound += abs(w) * x.norm * y.norm
            if x.lo + y.lo < lo:
                lo = x.lo + y.lo
            if x.hi + y.hi > hi:
                hi = x.hi + y.hi
        if bound.bit_length() >= self.width:
            self.width = max(bound.bit_length() + 1, 2 * self.width)
            for x in self.operands:
                x.packed = _pack(x.ints, self.width)
        width, acc = self.width, 0
        for w, (_, x, y) in zip(weights, terms):
            acc += x.packed * y.packed * w << width * (x.lo + y.lo - lo)
        ints = _unpack(acc, width, hi + 1 - lo)
        scale_lo, scale_den, (scale_num,) = scale
        return _dense_reduce(lo + scale_lo, den * scale_den, [c * scale_num for c in ints] if scale_num != 1 else ints)


def _dense_quotient(a, b, n: int, inv) -> list:
    """Dense forms (None for 0) of the coefficients 0..n of a/b over Q or a
    one-variable Q[L], inv = 1/b_0 a rational or a unit monomial c L^e: a
    :class:`_Packing` step out_m = inv (a_m - sum_k b_k out_(m-k)) per m."""
    packing, inv = _Packing(), _dense(inv)
    one = packing.operand(_ONE_FORM)
    divisor = [(k, packing.operand(_dense(b[k]))) for k in range(1, n + 1) if b[k]]
    out: list = []  # the operand of each out_j, None when it is zero
    for m in range(n + 1):
        terms = [(-1, x, out[m - k]) for k, x in divisor if k <= m and out[m - k]]
        if a[m]:
            terms.append((1, packing.operand(_dense(a[m])), one))
        out.append(packing.operand(packing.step(terms, inv)))
    return [x and (x.lo, x.den, x.ints) for x in out]


def _dense_series_product(a, b, n: int) -> list:
    """Dense forms (None for 0) of the coefficients 0..n of the product of
    two series of dense forms (None for 0), a :class:`_Packing` step each."""
    packing = _Packing()
    x = [(i, packing.operand(form)) for i, form in enumerate(a[: n + 1]) if form]
    y = [packing.operand(form) for form in b[: n + 1]]
    # Top down, from the largest bounds, so that few repacks follow.
    return [packing.step([(1, p, y[m - i]) for i, p in x if i <= m and y[m - i]]) for m in range(n, -1, -1)][::-1]


def _dense_power(a, e_plus_1, n: int) -> list:
    """Dense forms (None for 0) of the coefficients 0..n of A^e, A = 1 +
    sum a_k t^k over the (k, dense form) of a by increasing k, e_plus_1 the
    form of e + 1: a :class:`_Packing` step per m of m p_m = sum_k (u_k -
    m a_k) p_(m-k), u_k = k (e + 1) a_k, with (e + 1) a_k formed once."""
    packing = _Packing()
    factors = [(k, packing.operand(e_plus_1 and _dense_product(e_plus_1, x)), packing.operand(x)) for k, x in a if k <= n]
    out = [packing.operand(_ONE_FORM)]  # the operand of each p_j, None when it is zero
    for m in range(1, n + 1):
        terms = [(w, v, out[m - k]) for k, u, x in factors if k <= m and out[m - k] for w, v in ((k, u), (-m, x)) if v]
        out.append(packing.operand(packing.step(terms, (0, m, (1,)))))
    return [x and (x.lo, x.den, x.ints) for x in out]


class GradedAdamsElement(_Value):
    """Finitely supported element of a graded Q-algebra.

    The degree-j component is a rational; multiplication adds degrees.
    ``adams(k)`` scales the degree-j component by k^j.
    """

    __slots__ = ("components",)

    def __init__(self, components: Mapping[int, Scalar]):
        def checked(degree: int) -> int:
            _require_int(degree, "degree")
            if degree < 0:
                raise ValueError(f"negative degree {degree}")
            return degree

        clean = _add_terms({}, ((checked(d), _as_rational(c)) for d, c in components.items()))
        object.__setattr__(self, "components", clean)

    def _coerce(self, other) -> "GradedAdamsElement | None":
        if isinstance(other, SCALAR_TYPES):
            return GradedAdamsElement({0: other})
        if isinstance(other, GradedAdamsElement):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GradedAdamsElement(_add_terms(dict(self.components), other.components.items()))

    __radd__ = __add__

    def __neg__(self):
        return GradedAdamsElement({d: -c for d, c in self.components.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.components.items(), other.components.items()
        product = _add_terms({}, ((da + db, ca * cb) for da, ca in a for db, cb in b))
        return GradedAdamsElement(product)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        # equal to a rational when nothing lies above degree 0, so hash as one
        if set(self.components) <= {0}:
            return hash(self.components.get(0, _ZERO))
        return hash(frozenset(self.components.items()))

    def __bool__(self):
        return bool(self.components)

    def invert_unit(self) -> "GradedAdamsElement":
        """Inverse of a nonzero degree-0 element."""
        if set(self.components) != {0}:
            raise ValueError(f"{self} is not a degree-0 unit")
        return GradedAdamsElement({0: _ONE / self.components[0]})

    def adams(self, k: int) -> "GradedAdamsElement":
        if k < 1:
            raise ValueError(f"adams() needs k >= 1, got {k}")
        return GradedAdamsElement(
            {d: c * Rational(k) ** d for d, c in self.components.items()}
        )

    def component_sum(self):
        return sum(self.components.values(), _ZERO)

    def __str__(self):
        """``1 - deg[2]``: degree 0 is the bare rational the element equals."""
        return format_sum(
            format_term(format_rational(c), f"deg[{d}]" if d else "")
            for d, c in sorted(self.components.items())
        )

    def __repr__(self):
        return f"GradedAdamsElement({dict(sorted(self.components.items()))})"


def adams(x, k: int):
    """k-th Adams operation on any supported lambda-ring element.

    Rationals carry the trivial lambda-structure, so adams is the identity
    there; everything else delegates to the value's own ``adams`` method.
    """
    if k < 1:
        raise ValueError(f"adams() needs k >= 1, got {k}")
    if isinstance(x, SCALAR_TYPES):
        return _as_rational(x)
    return x.adams(k)
