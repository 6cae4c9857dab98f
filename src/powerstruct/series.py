"""Truncated formal power series in t over an exact Q-algebra.

A :class:`TruncSeries` carries a hard truncation order N and exactly N+1
coefficients.  Arithmetic never pretends precision beyond N: combining two
series truncates to the smaller order, and nothing is ever zero-padded
implicitly.  Coefficients may be rationals, Laurent polynomials, symmetric
functions or graded elements, all in one ring fixed at construction: the
widest ring among the coefficients and the one passed in (SymFunc >
LaurentPoly > Q), to which the constructor promotes the rest once.

The derivative is taken by shifting indices down; no symbolic t is ever
materialized.  Logarithm and exponential use the standard exact recurrences
(all coefficient rings here are Q-algebras, so division by integers is
always available); the plain power A^e uses J. C. P. Miller's recurrence,
with no log or exp, and :func:`binomial_series` is its two-term case.
Every recurrence multiplies only nonzero coefficients, so a sparse series
such as ``t^k`` costs in proportion to its nonzero terms.  Quotients and
plain powers over Q and one-variable Q[L] run on packed integers
(``rings._Packing``); every other ring takes the coefficient loop.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, Sequence

from .errors import ConstantTermError
from .arith import binary_power
from .rings import (
    SCALAR_TYPES,
    LaurentPoly,
    Rational,
    _coefficient,
    _dense,
    _dense_power,
    _dense_quotient,
    _dense_ring,
    _from_dense,
    _Value,
    format_monomial,
    format_sum,
    format_term,
)

_ZERO = Rational(0)
_ONE = Rational(1)


def _in_ring(value, zero) -> bool:
    """True when value needs no promotion into zero's ring: same class,
    alphabet and generator bound."""
    if type(value) is not type(zero):
        return False
    if isinstance(zero, SCALAR_TYPES):
        return True
    return (
        getattr(value, "vars", None) == getattr(zero, "vars", None)
        and getattr(value, "bound", None) == getattr(zero, "bound", None)
    )


def _ring_zero(values, zero):
    """Zero of the widest ring among zero's and the values' rings."""
    for value in values:
        if not (isinstance(value, SCALAR_TYPES) or _in_ring(value, zero)):
            zero = zero + _ZERO * value
    # Over the empty alphabet, the ring is Q.
    return _coefficient(zero, ()) if isinstance(zero, LaurentPoly) and not zero.vars else zero


def _support(coeffs, n: int) -> list:
    """(index, coefficient) of the nonzero coefficients through index n."""
    return [(k, c) for k, c in enumerate(coeffs[: n + 1]) if c]


def _invert_leading(value):
    """Inverse of a series' constant term, when it is a unit."""
    if isinstance(value, SCALAR_TYPES):
        if not value:
            raise ConstantTermError("leading coefficient 0 is not invertible")
        return _ONE / value
    try:
        return value.invert_unit()
    except Exception as exc:
        raise ConstantTermError(f"leading coefficient {value} is not a unit") from exc


class TruncSeries(_Value):
    """Formal power series 1-dimensional in t, exact through order N, over
    the ring of ``zero`` widened to the widest ring among the coefficients."""

    __slots__ = ("order", "coeffs", "_zero")

    def __init__(self, coeffs: Sequence, order: int | None = None, zero=_ZERO):
        coeffs = list(coeffs)
        if order is None:
            if not coeffs:
                raise ValueError("a series needs an order or at least one coefficient")
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        del coeffs[order + 1 :]
        zero = _ring_zero(coeffs, zero)
        coeffs += [zero] * (order + 1 - len(coeffs))
        object.__setattr__(self, "order", order)
        # Over Q, a polynomial over the empty alphabet becomes its rational.
        scalar = isinstance(zero, SCALAR_TYPES)
        coeffs = tuple(
            c if _in_ring(c, zero) else _coefficient(c, ()) if scalar else c + zero for c in coeffs
        )
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_zero", zero)

    # -- constructors --------------------------------------------------------

    @classmethod
    def _raw(cls, coeffs, order: int, zero) -> "TruncSeries":
        """Internal: build from exactly order + 1 coefficients that are
        already in zero's ring (no join, padding or promotion)."""
        self = object.__new__(cls)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "_zero", zero)
        return self

    @classmethod
    def constant(cls, value, order: int) -> "TruncSeries":
        return cls([value], order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls([_ONE], order)

    @classmethod
    def t_var(cls, order: int) -> "TruncSeries":
        """The series t itself (order must be >= 1 to see it)."""
        return cls([_ZERO, _ONE], order)

    # -- basic arithmetic ----------------------------------------------------

    def _common_order(self, other: "TruncSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other):
        if isinstance(other, TruncSeries):
            n = self._common_order(other)
            # A zero term keeps the other one; over two rings the
            # constructor promotes it into the joined ring.
            coeffs = [
                a + b if a and b else b if b else a
                for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])
            ]
            if _in_ring(other._zero, self._zero):
                return TruncSeries._raw(coeffs, n, self._zero)
            return TruncSeries(coeffs, n, _ring_zero((other._zero,), self._zero))
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + other
        return TruncSeries(coeffs, self.order, self._zero)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._raw([-c for c in self.coeffs], self.order, self._zero)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return self.scale(other)
        n = self._common_order(other)
        shared = _in_ring(other._zero, self._zero)
        zero = self._zero if shared else _ring_zero((other._zero,), self._zero)
        out = [None] * (n + 1)
        b = _support(other.coeffs, n)
        for i, x in _support(self.coeffs, n):
            for j, y in b:
                if i + j > n:
                    break
                term = x * y
                acc = out[i + j]
                out[i + j] = term if acc is None else acc + term
        out = [zero if c is None else c for c in out]
        return TruncSeries._raw(out, n, zero) if shared else TruncSeries(out, n, zero)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, factor) -> "TruncSeries":
        """Multiply every coefficient by a ring element."""
        zero = self._zero
        if isinstance(factor, SCALAR_TYPES) or _in_ring(factor, zero):
            return TruncSeries._raw([factor * c if c else zero for c in self.coeffs], self.order, zero)
        zero = _ring_zero((factor,), zero)
        return TruncSeries(
            [factor * c if c else zero for c in self.coeffs], self.order, zero
        )

    def __truediv__(self, other):
        if not isinstance(other, TruncSeries):
            inv = _invert_leading(other)
            return self.scale(inv)
        n = self._common_order(other)
        zero = _ring_zero((other._zero,), self._zero)
        inv = _invert_leading(other.coeffs[0])
        a = self.coeffs
        if _dense_ring(zero):
            forms = _dense_quotient(a, other.coeffs, n, inv)
            return TruncSeries([_from_dense(f, zero) for f in forms], n, zero)
        b = _support(other.coeffs, n)[1:]
        out = [a[0] * inv]
        for m in range(1, n + 1):
            acc = a[m] if a[m] else None
            for k, y in b:
                if k > m:
                    break
                if out[m - k]:
                    term = y * out[m - k]
                    acc = -term if acc is None else acc - term
            out.append(acc * inv if acc else zero)
        return TruncSeries(out, n, zero)

    def __rtruediv__(self, other):
        return TruncSeries.constant(other, self.order) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("series exponent must be an integer; use usual_power")
        if n < 0:
            return (TruncSeries.one(self.order) / self) ** (-n)
        return binary_power(self, n, TruncSeries([_ONE], self.order, self._zero))

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    # -- calculus ------------------------------------------------------------

    def _require_constant(self, value, what: str) -> None:
        """Raise :class:`ConstantTermError` for ``what`` unless the constant
        term equals ``value``."""
        if not self.coeffs[0] == value:
            raise ConstantTermError(f"{what} needs constant term {value}, got {self.coeffs[0]}")

    def map_coeffs(self, fn: Callable) -> "TruncSeries":
        return TruncSeries([fn(c) for c in self.coeffs], self.order)

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError(
                f"cannot extend a series of order {self.order} to order {order}"
            )
        return TruncSeries._raw(self.coeffs[: order + 1], order, self._zero)

    def derivative(self) -> "TruncSeries":
        """d/dt, one order shorter (indices shift down)."""
        if self.order == 0:
            return TruncSeries._raw([self._zero], 0, self._zero)
        return TruncSeries._raw(
            [k * self.coeffs[k] for k in range(1, self.order + 1)], self.order - 1, self._zero
        )

    def log(self) -> "TruncSeries":
        """Truncated logarithm; requires constant term 1."""
        self._require_constant(1, "log")
        out = [self._zero]
        for n, c in enumerate(self.log_derivative(), start=1):
            out.append(Rational(1, n) * c if c else c)
        return TruncSeries._raw(out, self.order, self._zero)

    def exp(self) -> "TruncSeries":
        """Truncated exponential; requires constant term 0."""
        self._require_constant(0, "exp")
        out = [_ONE + self._zero]
        # k * b_k once per nonzero b_k (b_1 as it is)
        b = [(k, c if k == 1 else k * c) for k, c in _support(self.coeffs, self.order)]
        for n in range(1, self.order + 1):
            acc = None
            for k, c in b:
                if k > n:
                    break
                if out[n - k]:
                    term = c * out[n - k]
                    acc = term if acc is None else acc + term
            out.append(Rational(1, n) * acc if acc else self._zero)
        return TruncSeries._raw(out, self.order, self._zero)

    def log_derivative(self) -> list:
        """Coefficients C_1..C_N with A'/A = sum C_n t^(n-1); requires a_0 = 1."""
        self._require_constant(1, "log_derivative")
        if self.order == 0:
            return []
        ratio = self.derivative() / self.truncate(self.order - 1)
        return list(ratio.coeffs)

    def usual_power(self, exponent) -> "TruncSeries":
        """The plain Q-algebra power P = A^e, exp(e log A), by J. C. P.
        Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): A P' = e A' P gives
        p_0 = 1 and n p_n = sum_k (k (e + 1) - n) a_k p_(n-k) over the nonzero
        a_k, k >= 1, over the join of A's and e's rings, on packed integers
        over Q and one-variable Q[L] (``rings._dense_power``).  Requires a_0 = 1."""
        self._require_constant(1, "log")
        zero = _ring_zero((exponent,), self._zero)
        # A(t) = B(t^g) for the gcd g of the k: B^e to order N // g, its
        # coefficients at the multiples of g, so 1 + c t^k takes N // k steps.
        a = _support(self.coeffs, self.order)[1:]
        g = gcd(*[k for k, _ in a]) or 1
        a, order = [(k // g, c) for k, c in a], self.order // g
        if _dense_ring(zero):
            e_plus_1 = exponent + 1
            forms = _dense_power([(k, _dense(c)) for k, c in a], _dense(e_plus_1) if e_plus_1 else None, order)
            out = [_from_dense(f, zero) for f in forms]
        else:
            out = [_ONE + zero]
            # k (e + 1) once per nonzero a_k
            a = [(k, c, k * (exponent + 1)) for k, c in a]
            for n in range(1, order + 1):
                terms = [(ke - n) * Rational(1, n) * c * out[n - k] for k, c, ke in a if k <= n and out[n - k]]
                out.append(sum(terms, zero))
        coeffs = [zero] * (self.order + 1)
        coeffs[::g] = out
        # The dense values are in zero's ring; the loop's may need promoting.
        return (TruncSeries._raw if _dense_ring(zero) else TruncSeries)(coeffs, self.order, zero)

    def substitute_tk(self, k: int, order: int | None = None) -> "TruncSeries":
        """Substitute t -> t^k: coefficient a_j moves to position j*k.

        The result is exact through (order+1)*k - 1, since positions that are
        not multiples of k are genuinely zero; the default result order is
        that bound.  Asking for more raises (it would pretend precision).
        """
        if k < 1:
            raise ValueError(f"substitute_tk needs k >= 1, got {k}")
        limit = (self.order + 1) * k - 1
        if order is None:
            order = limit
        if order > limit:
            raise ValueError(
                f"substituting t^{k} into a series of order {self.order} is only "
                f"exact through order {limit}, not {order}"
            )
        out = [self._zero] * (order + 1)
        for j, c in enumerate(self.coeffs):
            if j * k > order:
                break
            out[j * k] = c
        return TruncSeries._raw(out, order, self._zero)

    # -- serialization ---------------------------------------------------------

    def __str__(self):
        """``c_0 + c_1*t + ... + O(t^(N+1))`` without zero terms; coefficients
        of several terms are parenthesised, except the leading constant."""
        terms = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            body = str(c)
            if n and (" + " in body or " - " in body):
                body = f"({body})"
            terms.append(format_term(body, format_monomial(("t",), (n,))))
        return f"{format_sum(terms)} + O(t^{self.order + 1})"


def binomial_series(c, k: int, e, order: int) -> TruncSeries:
    """(1 + c t^k)^e = sum_j C(e, j) c^j t^(kj): :meth:`TruncSeries.usual_power`
    of 1 + c t over c's ring to order // k, whose recurrence then reads
    p_j = (e - j + 1) / j * c * p_(j-1), with t -> t^k."""
    if k < 1:
        raise ValueError(f"binomial_series needs k >= 1, got {k}")
    return TruncSeries([_ONE, c], order // k, _ZERO * c).usual_power(e).substitute_tk(k, order)
