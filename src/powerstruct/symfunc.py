"""Symmetric functions in the power-sum basis, over Q or Q[vars].

The storage basis is the power sums p_1, p_2, ...: a :class:`SymFunc` maps a
partition (l_1 >= l_2 >= ...) representing the monomial p_{l_1} p_{l_2} ...
to a coefficient in the one ring of its alphabet ``vars``: a rational over
Q, a :class:`LaurentPoly` over exactly ``vars`` otherwise (the JSON form
writes every coefficient as a polynomial object).  The power-sum basis is the
one in which both the Adams operations (p_m -> p_{km}) and plethysm (p_k acts
as adams(., k)) are diagonal, which is why it is the storage basis.
Complete homogeneous, elementary and Schur functions exist as conversions.

Every value carries a generator bound K: the largest power-sum index that may
appear.  Operations that would need an index beyond K raise
:class:`GeneratorBoundError` instead of silently truncating.  In practice K
equals the truncation order of the ambient t-series, enough while p_k rides
along with t^k or higher; a p_k at a lower power of t, as in 1 + p_3 t at
order 3, can need an index beyond K.

Conventions: h_0 = e_0 = s_() = 1.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Iterable, Iterator, Mapping, Union

from .arith import binary_power
from .errors import (
    GeneratorBoundError,
    HomogeneityError,
    InexactDivisionError,
    _require_int,
    json_field,
)
from .rings import (
    SCALAR_TYPES,
    LaurentPoly,
    Rational,
    _add_terms,
    _coefficient,
    _Value,
    adams,
    format_sum,
    format_term,
)

_ONE = Rational(1)

Partition = tuple[int, ...]
CoeffLike = Union[int, Fraction, LaurentPoly]
Coefficient = Union[Fraction, LaurentPoly]


def normalize_partition(parts: Iterable[int]) -> Partition:
    """Sort descending and validate: every part a positive int."""
    parts = tuple(parts)
    for part in parts:
        _require_int(part, "partition part")
    parts = tuple(sorted(parts, reverse=True))
    if parts and parts[-1] < 1:
        raise ValueError(f"partition parts must be positive, got {parts}")
    return parts


@lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n (descending parts), in descending lex order."""
    if n < 0:
        raise ValueError(f"partitions_of() needs n >= 0, got {n}")
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out: list[Partition] = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def by_weight(items: Iterable[tuple[Partition, object]]) -> list:
    """(partition, value) items in canonical order: ascending weight, then
    ascending lex partition."""
    return sorted(items, key=lambda item: (sum(item[0]), item[0]))


def z_value(partition: Partition) -> int:
    """The centralizer order z_lambda = prod_i i^{m_i} m_i! of a partition
    with sorted parts: the product of the parts times, for each run of equal
    parts, the position of every part in its run."""
    z, run, prev = prod(partition), 0, 0
    for part in partition:
        if part == prev:
            run += 1
            z *= run
        else:
            prev, run = part, 1
    return z


class SpecializationMode(Enum):
    """The three character specializations.

    INVARIANTS sets every p_i to 1 (multiplicity of the trivial character),
    SIGN sets p_i to (-1)^(i-1) (multiplicity of the sign character),
    ORDERED extracts the coefficient of p_1^n and multiplies by n!
    (the virtual dimension; defined for homogeneous inputs of weight n).
    """

    INVARIANTS = "invariants"
    SIGN = "sign"
    ORDERED = "ordered"


class SymFunc(_Value):
    """Polynomial in p_1..p_K over Q (rational coefficients) or over
    Q[vars] (:class:`LaurentPoly` coefficients over ``vars``)."""

    __slots__ = ("bound", "vars", "terms")

    def __init__(
        self,
        terms: Mapping[Partition, CoeffLike],
        bound: int,
        vars: Iterable[str] = (),
    ):
        if bound < 0:
            raise ValueError(f"generator bound must be >= 0, got {bound}")
        vars = tuple(vars)

        def checked(partition, coeff) -> tuple[Partition, Coefficient]:
            partition = normalize_partition(partition)
            if partition and partition[0] > bound:
                raise GeneratorBoundError(
                    f"p_{partition[0]} exceeds the generator bound {bound}"
                )
            return partition, _coefficient(coeff, vars)

        clean = _add_terms({}, (checked(p, c) for p, c in terms.items()))
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    # -- constructors --------------------------------------------------------

    @classmethod
    def _raw(cls, terms: dict[Partition, Coefficient], bound: int, vars: tuple[str, ...]) -> "SymFunc":
        """Internal: build from an already-canonical term map (sorted
        partitions within the bound, nonzero coefficients over ``vars``)."""
        self = object.__new__(cls)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def p(cls, index: int, bound: int, vars: Iterable[str] = ()) -> "SymFunc":
        """The power sum p_index."""
        if index < 1:
            raise ValueError(f"power-sum index must be >= 1, got {index}")
        return cls({(index,): _ONE}, bound, vars)

    @classmethod
    def p_monomial(
        cls, partition: Iterable[int], bound: int, vars: Iterable[str] = ()
    ) -> "SymFunc":
        """The product p_{l_1} p_{l_2} ... for a partition (l_1, l_2, ...)."""
        return cls({normalize_partition(partition): _ONE}, bound, vars)

    @classmethod
    def constant(cls, value: CoeffLike, bound: int, vars: Iterable[str] = ()) -> "SymFunc":
        if isinstance(value, LaurentPoly) and value.vars != () and tuple(vars) == ():
            vars = value.vars
        return cls({(): value}, bound, vars)

    @classmethod
    def zero(cls, bound: int, vars: Iterable[str] = ()) -> "SymFunc":
        return cls({}, bound, vars)

    # -- coercion ------------------------------------------------------------

    def _align(self, other) -> tuple["SymFunc", "SymFunc"] | None:
        if not isinstance(other, SymFunc):
            if not (isinstance(other, LaurentPoly) or isinstance(other, SCALAR_TYPES)):
                return None
            other = SymFunc.constant(other, self.bound, getattr(other, "vars", ()))
        a, b = self, other
        if a.vars and b.vars and a.vars != b.vars:
            return None
        # a Q value is promoted to the other's alphabet, both to the smaller bound
        vars, bound = a.vars or b.vars, min(a.bound, b.bound)
        if (a.vars, a.bound) != (vars, bound):
            a = SymFunc(a.terms, bound, vars)
        if (b.vars, b.bound) != (vars, bound):
            b = SymFunc(b.terms, bound, vars)
        return a, b

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return SymFunc._raw(_add_terms(dict(a.terms), b.terms.items()), a.bound, a.vars)

    __radd__ = __add__

    def __neg__(self):
        return SymFunc._raw({p: -c for p, c in self.terms.items()}, self.bound, self.vars)

    def __mul__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        product = _add_terms({}, ((tuple(sorted(pa + pb, reverse=True)), ca * cb)
                                  for pa, ca in a.terms.items() for pb, cb in b.terms.items()))
        return SymFunc._raw(product, a.bound, a.vars)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("SymFunc exponent must be a non-negative integer")
        return binary_power(self, n, SymFunc.constant(1, self.bound, self.vars))

    def __truediv__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return self * (_ONE / Rational(other))
        if isinstance(other, (LaurentPoly, SymFunc)):
            raise InexactDivisionError(f"cannot divide a symmetric function by {other}")
        return NotImplemented

    def __rtruediv__(self, other):
        raise InexactDivisionError(f"cannot divide by the symmetric function {self}")

    def __eq__(self, other):
        try:
            pair = self._align(other)
        except GeneratorBoundError:  # an index past the common bound: unequal
            return False
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.terms == b.terms

    def __hash__(self):
        # The alphabet stays out: == promotes a Q value to Q[vars], and a
        # constant polynomial hashes as its rational.  A constant hashes as
        # the scalar it equals.
        if set(self.terms) <= {()}:
            return hash(self.terms.get((), Rational(0)))
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- structure ---------------------------------------------------------

    def max_index(self) -> int:
        """Largest power-sum index present (0 for constants)."""
        return max((p[0] for p in self.terms if p), default=0)

    def invert_unit(self) -> "SymFunc":
        """Inverse of a constant unit (needed as a series leading coefficient)."""
        if set(self.terms) - {()}:
            raise ValueError(f"{self} is not a constant unit")
        coeff = self.terms.get(())
        if coeff is None:
            raise ZeroDivisionError("cannot invert 0")
        inverse = coeff.invert_unit() if isinstance(coeff, LaurentPoly) else _ONE / coeff
        return SymFunc.constant(inverse, self.bound, self.vars)

    def weight(self) -> int:
        """Common weight of all terms; raises unless homogeneous."""
        weights = {sum(p) for p in self.terms}
        if len(weights) > 1:
            raise HomogeneityError(f"{self} is not homogeneous: weights {sorted(weights)}")
        return weights.pop() if weights else 0

    def adams(self, k: int) -> "SymFunc":
        """p_m -> p_{km} on indices, adams on every coefficient."""
        if k < 1:
            raise ValueError(f"adams() needs k >= 1, got {k}")
        top = self.max_index()
        if k * top > self.bound:
            raise GeneratorBoundError(
                f"adams({k}) would need p_{k * top} > bound {self.bound}"
            )
        return SymFunc._raw(
            {
                tuple(part * k for part in partition): adams(coeff, k)
                for partition, coeff in self.terms.items()
            },
            self.bound,
            self.vars,
        )

    def coefficient(self, partition: Iterable[int]) -> Coefficient:
        return self.terms.get(normalize_partition(partition), _coefficient(0, self.vars))

    # -- serialization -----------------------------------------------------

    def sorted_terms(self) -> list[tuple[Partition, Coefficient]]:
        """Terms in the canonical order of :func:`by_weight`."""
        return by_weight(self.terms.items())

    def __str__(self):
        return _combination_str(self.sorted_terms(), "p", "")

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound,
            "vars": list(self.vars),
            "terms": [
                {"p": list(partition), "c": coefficient_json(coeff)}
                for partition, coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SymFunc":
        where = "symmetric function"
        vars = json_field(data, "vars", where, list, str)
        terms = {}
        for entry in json_field(data, "terms", where, list):
            partition = tuple(json_field(entry, "p", f"{where} term", list, int))
            coeff = LaurentPoly.from_json_dict(json_field(entry, "c", f"{where} term", dict))
            # a repeated term adds, as one partition written in two orders does
            terms[partition] = terms[partition] + coeff if partition in terms else coeff
        return cls(terms, json_field(data, "bound", where, int), vars)


def coefficient_json(coeff: Coefficient) -> dict:
    """The JSON form of a coefficient: a polynomial object, ``"vars": []`` over Q."""
    return (coeff if isinstance(coeff, LaurentPoly) else LaurentPoly.constant(coeff)).to_json_dict()


# -- basis conversions -------------------------------------------------------


def _h_terms(k: int) -> dict[Partition, Fraction]:
    """h_k = sum over partitions lambda of k of p_lambda / z_lambda
    (Macdonald I.(2.14)), as its {lambda: 1/z_lambda} terms."""
    return {part: Rational(1, z_value(part)) for part in partitions_of(k)}


def _omega(terms: Iterable[tuple[Partition, object]]) -> Iterator[tuple[Partition, object]]:
    """The involution omega on (partition, coefficient) terms in the p-basis:
    p_mu -> eps_mu p_mu with eps_mu = (-1)^(|mu| - length(mu)) (Macdonald
    I.(2.13)).  It swaps h_k and e_k and sends s_lambda to s_lambda' (I.(3.8))."""
    return ((part, -coeff if (sum(part) - len(part)) % 2 else coeff) for part, coeff in terms)


def _conjugate(partition: Partition) -> Partition:
    """The conjugate partition: its i-th part counts the parts >= i."""
    top = partition[0] if partition else 0
    return tuple(sum(1 for part in partition if part >= i) for i in range(1, top + 1))


def _hook_lengths(partition: Partition) -> set[int]:
    """The hook lengths lambda_i - j + lambda'_j - i + 1 of the cells (i, j) of lambda."""
    conjugate = _conjugate(partition)
    return {part - j + conjugate[j] - i - 1 for i, part in enumerate(partition) for j in range(part)}


def _schur_rational(
    partition: Partition, expansions: dict[int, tuple]
) -> dict[Partition, Fraction]:
    """s_lambda = det(h_{lambda_i - i + j}) (Macdonald I.(3.4)) expanded in
    the p-basis as a {partition: rational} map.  The Laplace expansion
    visits up to 2^length(lambda) minors, so a lambda longer than its
    conjugate lambda' is read as s_lambda = omega(s_lambda') instead
    (:func:`_omega`).  Entries are plain (partition, rational) pairs, so no
    SymFunc or LaurentPoly is built.  ``expansions`` holds the h_k terms
    built so far, keyed by k; a caller expanding several determinants passes
    one dict so that each is built once."""
    conjugate = _conjugate(partition)
    if len(conjugate) < len(partition):
        return dict(_omega(_schur_rational(conjugate, expansions).items()))
    size = len(partition)

    def expand(k: int) -> tuple:
        if k < 0:
            return ()
        if k not in expansions:
            expansions[k] = tuple(_h_terms(k).items())
        return expansions[k]

    matrix = [[expand(partition[i] - i + j) for j in range(size)] for i in range(size)]
    return _laplace_minor(matrix, tuple(range(size)), {})


def _laplace_minor(matrix, columns: tuple[int, ...], memo: dict) -> dict[Partition, Fraction]:
    """The minor of ``matrix`` on its last rows and ``columns``, memoized on the column set."""
    # Laplace expansion along the first row: each entry times its minor is
    # added straight into the running sum, stored as it is under a new key,
    # else added or subtracted by the column's sign.  A module function, not
    # a closure that reaches itself through its own cell: the memo is then
    # freed when the determinant returns, not by the cycle collector.
    if not columns:
        return {(): _ONE}
    if columns in memo:
        return memo[columns]
    row = len(matrix) - len(columns)
    total: dict[Partition, Fraction] = {}
    for position, column in enumerate(columns):
        entry = matrix[row][column]
        if not entry:
            continue
        rest = _laplace_minor(matrix, columns[:position] + columns[position + 1 :], memo).items()
        odd = position % 2
        for part, coeff in entry:
            for rest_part, rest_coeff in rest:
                key = tuple(sorted(part + rest_part, reverse=True))
                term = coeff * rest_coeff
                if key in total:
                    total[key] = total[key] - term if odd else total[key] + term
                else:
                    total[key] = -term if odd else term
    memo[columns] = total = {key: coeff for key, coeff in total.items() if coeff}
    return total


def basis_in_p(basis: str, index: int | Iterable[int], bound: int) -> SymFunc:
    """Expand a named basis element exactly in the p-basis.

    basis 'h' and 'e' take an integer index; 's' takes a partition; 'p' is
    accepted for symmetry and returns the plain power-sum monomial.  h_k is
    sum_lambda p_lambda / z_lambda, e_k = omega(h_k), and s_lambda is the
    Jacobi-Trudi determinant of :func:`_schur_rational`.
    """
    if basis in ("h", "e"):
        if not isinstance(index, int):
            raise TypeError(f"basis {basis!r} takes an integer index")
        if index < 0:
            raise ValueError("index must be >= 0")
        weight = index
    elif basis in ("s", "p"):
        partition = normalize_partition(
            (index,) if isinstance(index, int) else tuple(index)
        )
        if basis == "p":
            return SymFunc.p_monomial(partition, bound)
        weight = sum(partition)
    else:
        raise ValueError(f"unknown basis {basis!r}")
    if weight > bound:
        raise GeneratorBoundError(f"weight {weight} exceeds the bound {bound}")
    if basis == "s":
        return SymFunc._raw(_schur_rational(partition, {}), bound, ())
    terms = _h_terms(weight)
    return SymFunc._raw(dict(_omega(terms.items())) if basis == "e" else terms, bound, ())


def p_to_schur(f: SymFunc) -> dict[Partition, Coefficient]:
    """Expansion of a homogeneous f over the Schur functions of its weight n.

    By character orthogonality p_mu = sum_lambda chi^lambda(mu) s_lambda, and
    chi^lambda(mu) = z_mu [p_mu] s_lambda is read off the rational
    Jacobi-Trudi map of s_lambda (:func:`_schur_rational`), so
    c_lambda = sum_mu chi^lambda(mu) f_mu over the support of f.  Only the
    lambda no longer than their conjugates are expanded: :func:`_omega`
    gives chi^lambda'(mu) = eps_mu chi^lambda(mu), so one map yields
    c_lambda and c_lambda' (one entry for a self-conjugate lambda).  Zero
    coefficients are omitted from the result.

    A lambda is skipped unless some mu in the support has all its parts
    among lambda's hook lengths: taking a part r of mu first in the
    Murnaghan-Nakayama rule (Macdonald I.7) sums over the border strips of
    size r, one per cell of hook length r, so chi^lambda(mu) = 0 without
    one; lambda' has the same hook lengths, so c_lambda = c_lambda' = 0.
    """
    support = [(mu, z_value(mu) * f_mu) for mu, f_mu in f.terms.items()]
    odd = {mu for mu, sign in _omega((mu, 1) for mu in f.terms) if sign < 0}
    expansion: dict[Partition, Coefficient] = {}
    expansions: dict[int, tuple] = {}
    for lam in partitions_of(f.weight()):
        hooks = _hook_lengths(lam)
        if lam and len(lam) > lam[0] or not any(set(mu) <= hooks for mu in f.terms):
            continue
        s_lam = _schur_rational(lam, expansions)
        c = c_conjugate = _coefficient(0, f.vars)
        for mu, z_f_mu in support:
            if mu in s_lam:
                term = s_lam[mu] * z_f_mu
                c = c + term
                c_conjugate = c_conjugate - term if mu in odd else c_conjugate + term
        if c:
            expansion[lam] = c
        if c_conjugate:
            # for a self-conjugate lam this rewrites c: there eps_mu = 1 wherever chi^lam(mu) != 0
            expansion[_conjugate(lam)] = c_conjugate
    return expansion


def _combination_str(items: Iterable[tuple[Partition, Coefficient]], letter: str, empty: str) -> str:
    """Canonical text of sum c_lambda x_lambda over the (lambda, c_lambda)
    items in order: x_lambda is ``letter[l_1,l_2,...]``, and ``empty`` for
    the empty partition (a bare coefficient when ``empty`` is ""); a
    non-constant c_lambda is parenthesised unless it stands alone, so a
    leading constant term is never parenthesised."""
    terms = []
    for partition, coeff in items:
        monomial = f"{letter}[{','.join(map(str, partition))}]" if partition else empty
        bracket = monomial and isinstance(coeff, LaurentPoly) and not coeff.is_constant()
        text = f"({coeff})" if bracket else str(coeff)
        terms.append(format_term(text, monomial))
    return format_sum(terms)


def schur_expansion_str(expansion: Mapping[Partition, Coefficient]) -> str:
    """Canonical text for a Schur expansion, e.g. ``s[2] + s[1,1]``."""
    return _combination_str(by_weight(expansion.items()), "s", "s[]")


# -- plethysm and specialization ----------------------------------------------


def plethysm_apply(f: SymFunc, x):
    """Plethysm f o x for f with constant rational coefficients.

    Substitutes p_k -> adams(x, k) and extends as a ring map in f.  x may be
    any lambda-ring element (rational, polynomial, graded, or symmetric
    function); the result lives where x does.
    """
    result = None
    for partition, term in f.terms.items():
        if isinstance(term, LaurentPoly):
            if not term.is_constant():
                raise ValueError(
                    f"plethysm needs constant coefficients, found {term} at p{list(partition)}"
                )
            term = term.constant_term()
        for part in partition:
            term = term * adams(x, part)
        result = term if result is None else result + term
    if result is None:
        return Rational(0) * x if not isinstance(x, SCALAR_TYPES) else Rational(0)
    return result


def specialize(f: SymFunc, mode: SpecializationMode) -> LaurentPoly:
    """Apply one of the three character specializations; see
    :class:`SpecializationMode`.  Sign is invariants applied to omega(f)
    (:func:`_omega`): omega turns the sign character into the trivial one."""
    zero = LaurentPoly.zero(f.vars)
    if mode in (SpecializationMode.INVARIANTS, SpecializationMode.SIGN):
        terms = f.terms.items() if mode is SpecializationMode.INVARIANTS else _omega(f.terms.items())
        return zero + sum(coeff for _, coeff in terms)
    if mode is SpecializationMode.ORDERED:
        n = f.weight()
        return zero + factorial(n) * f.coefficient((1,) * n)
    raise ValueError(f"unknown specialization mode {mode!r}")
