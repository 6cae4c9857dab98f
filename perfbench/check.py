"""Untimed output checks, each against a reference from an independent route.

* ``pow`` outputs are evaluated at a seeded point L = c modulo the prime
  2^61 - 1 and compared with the termwise Moebius-exponent *product* formula,
  evaluated at the same point by the code below (standard library only).
  Evaluation at a point is a ring map, so it commutes with exp, log and the
  series products, and adams_n acts on the point as c -> c^n.  A wrong
  output passes with probability about deg/2^61.
* ``factorize`` outputs are evaluated the same way against the Moebius
  inversion of the logarithmic derivative.
* Requests that differ only in ``--algorithm`` (pow by factorize and by
  product, factorize by moebius and by iterative) must print the same text.
* ``schur`` expansions are multiplied back: sum c_lambda s_lambda must equal
  the input, with s_lambda = sum_mu chi^lambda(mu) p_mu / z_mu and the
  characters from the Murnaghan-Nakayama rule computed below, not by the
  library's Jacobi-Trudi route.
* ``moduli-g2`` outputs, text or JSON, must open with the pinned t^0..t^4
  coefficients of the genus-2 acceptance criterion, and any two outputs of
  a run must agree through the lower of their orders; if not, both fail.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from gen import partitions

P = (1 << 61) - 1

# genus-2 series through t^4: 1 + 2p1 t + p1^2 t^2 + 0 t^3
# + (p4/2 + 2p1p3/3 - p1^4/6) t^4, one {partition: coefficient} per power of t
G2_PINNED = [
    {(): 1},
    {(1,): 2},
    {(1, 1): 1},
    {},
    {(1, 1, 1, 1): Fraction(-1, 6), (3, 1): Fraction(2, 3), (4,): Fraction(1, 2)},
]


def _inv(x: int) -> int:
    return pow(x, P - 2, P)


def _mu(n: int) -> int:
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


# -- truncated series over GF(P) ------------------------------------------------


def _mul(a: list, b: list) -> list:
    n = len(a)
    return [sum(a[k] * b[m - k] for k in range(m + 1)) % P for m in range(n)]


def _log_derivative(a: list) -> list:
    """C_1..C_N with A'/A = sum C_n t^(n-1); needs a[0] = 1."""
    n = len(a) - 1
    out = []
    for m in range(n):
        acc = (m + 1) * a[m + 1]
        for k in range(1, m + 1):
            acc -= a[k] * out[m - k]
        out.append(acc % P)
    return out


def _exp(b: list) -> list:
    """exp of a series with b[0] = 0."""
    out = [1]
    for n in range(1, len(b)):
        acc = sum(k * b[k] * out[n - k] for k in range(1, n + 1))
        out.append(acc * _inv(n) % P)
    return out


def _usual_power(a: list, e: int) -> list:
    log = [0] + [c * _inv(n) for n, c in enumerate(_log_derivative(a), start=1)]
    return _exp([c * e % P for c in log])


def _poly_at(poly: dict, x: int) -> int:
    return sum(c * pow(x, e, P) for e, c in poly.items()) % P


def pow_reference(base: list, exponent: dict, point: int) -> list:
    """Coefficients of base^exponent at L = point, by the product route:
    prod_n (sum_j adams_n(a_j) t^(nj))^((1/n) sum_{m|n} mu(n/m) adams_m(x))."""
    order = len(base) - 1
    result = [1] + [0] * order
    for n in range(1, order + 1):
        e_n = sum(_mu(n // m) * _poly_at(exponent, pow(point, m, P)) for m in _divisors(n))
        e_n = e_n * _inv(n) % P
        twisted = [0] * (order + 1)
        for j in range(0, order // n + 1):
            twisted[j * n] = _poly_at(base[j], pow(point, n, P))
        result = _mul(result, _usual_power(twisted, e_n))
    return result


def factorize_reference(base: list, point: int) -> list:
    """b_1..b_N at L = point: n b_n = sum_{d|n} mu(d) adams_d(C_{n/d})."""
    order = len(base) - 1
    log_deriv = {}
    for d in range(1, order + 1):
        at = pow(point, d, P)
        log_deriv[d] = _log_derivative([_poly_at(c, at) for c in base])
    return [
        sum(_mu(d) * log_deriv[d][n // d - 1] for d in _divisors(n)) * _inv(n) % P
        for n in range(1, order + 1)
    ]


# -- evaluating printed values at L = point ---------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")


def _tokens(text: str) -> list:
    out = []
    for number, name, op in _TOKEN.findall(text):
        out.append(("n", int(number)) if number else ("v", name) if name else ("o", op))
    return out


class _Evaluator:
    """Evaluates the CLI's printed form as a truncated series in t over
    GF(P), with L = point: ``{power of t: value}``."""

    def __init__(self, text: str, point: int):
        self.tokens = _tokens(text)
        self.pos = 0
        self.point = point

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def _take(self):
        token = self._peek()
        if token[0] is None:
            raise ValueError("unexpected end of output")
        self.pos += 1
        return token

    def run(self) -> dict:
        value = self._sum()
        if self.pos != len(self.tokens):
            raise ValueError(f"trailing output at token {self.pos}")
        return value

    def _sum(self) -> dict:
        value = self._product()
        while self._peek() in (("o", "+"), ("o", "-")):
            sign = 1 if self._take()[1] == "+" else -1
            for k, c in self._product().items():
                value[k] = (value.get(k, 0) + sign * c) % P
        return value

    def _product(self) -> dict:
        value = self._unary()
        while self._peek() in (("o", "*"), ("o", "/")):
            op = self._take()[1]
            rhs = self._unary()
            if op == "/":
                if set(rhs) != {0}:
                    raise ValueError("division by a non-constant")
                value = {k: c * _inv(rhs[0]) % P for k, c in value.items()}
                continue
            out: dict = {}
            for i, a in value.items():
                for j, b in rhs.items():
                    out[i + j] = (out.get(i + j, 0) + a * b) % P
            value = out
        return value

    def _unary(self) -> dict:
        if self._peek() == ("o", "-"):
            self._take()
            return {k: -c % P for k, c in self._unary().items()}
        return self._power()

    def _power(self) -> dict:
        kind, value = self._take()
        if kind == "n":
            atom = {0: value % P}
        elif kind == "v" and value in ("L", "t"):
            atom = {0: self.point} if value == "L" else {1: 1}
        elif (kind, value) == ("o", "("):
            atom = self._sum()
            if self._take() != ("o", ")"):
                raise ValueError("unbalanced parenthesis")
        else:
            raise ValueError(f"unexpected token {value!r}")
        if self._peek() != ("o", "^"):
            return atom
        self._take()
        kind, exp = self._take()
        if kind != "n":
            raise ValueError("non-integer exponent")
        if atom == {1: 1}:
            return {exp: 1}
        if set(atom) != {0}:
            raise ValueError("power of a series")
        return {0: pow(atom[0], exp, P)}


def evaluate(text: str, point: int) -> dict:
    return _Evaluator(text, point).run()


# -- the checks ------------------------------------------------------------------


class Checker:
    """Decides for each completed request whether its output is correct."""

    def __init__(self, seed: int):
        self.point = random.Random(f"point:{seed}").randrange(2, P - 1)

    def check_run(self, results: list) -> list:
        """results: (request, exit code, output text) triples in run order.
        Returns one bool per result."""
        ok = [code == 0 and self._check_one(req, out) for req, code, out in results]
        # Requests that differ only in their algorithm must print the same text.
        first: dict = {}
        for index, (req, _, out) in enumerate(results):
            key = tuple(arg for arg in req.argv if not arg.startswith("--algorithm="))
            if key in first and results[first[key]][2] != out:
                ok[index] = ok[first[key]] = False
            first.setdefault(key, index)
        # Of two moduli-g2 outputs, the shorter must be a truncation of the
        # longer (text and JSON of one order must agree); both fail if not.
        g2 = [(index, g2_coeffs(out, *req.data)) for index, (req, _, out) in enumerate(results)
              if req.kind == "moduli-g2" and ok[index]]
        for (i, a), (j, b) in itertools.combinations(g2, 2):
            if a[: len(b)] != b[: len(a)]:
                ok[i] = ok[j] = False
        return ok

    def _check_one(self, req, out: str) -> bool:
        try:
            if req.kind.startswith("pow/"):
                return self._check_pow(req.data, out)
            if req.kind.startswith("factorize/"):
                return self._check_factorize(req.data, out)
            if req.kind == "schur":
                return self._check_schur(req.data, out)
            if req.kind == "moduli-g2":
                return self._check_moduli(req.data, out)
        except (ValueError, ZeroDivisionError, KeyError, TypeError):
            return False
        raise ValueError(f"no check for request kind {req.kind!r}")

    def _check_pow(self, data, out: str) -> bool:
        base, exponent = data
        order = len(base) - 1
        tail = f" + O(t^{order + 1})\n"
        if not out.endswith(tail):
            return False
        got = evaluate(out[: -len(tail)], self.point)
        want = pow_reference(base, exponent, self.point)
        return max(got) <= order and all(got.get(k, 0) == want[k] for k in range(order + 1))

    def _check_factorize(self, base, out: str) -> bool:
        lines = out.splitlines()
        want = factorize_reference(base, self.point)
        if len(lines) != len(want):
            return False
        for k, (line, value) in enumerate(zip(lines, want), start=1):
            head = f"b_{k} = "
            if not line.startswith(head):
                return False
            got = evaluate(line[len(head):], self.point)
            if set(got) - {0} or got.get(0, 0) != value:
                return False
        return True

    def _check_schur(self, data, out: str) -> bool:
        weight, f_terms = data
        total: dict = {}
        for shape, coeff in parse_terms(out.strip(), "s").items():
            if sum(shape) != weight:
                return False
            for mu in partitions(weight):
                total[mu] = total.get(mu, 0) + coeff * Fraction(character(shape, mu), z(mu))
        return {mu: c for mu, c in total.items() if c} == f_terms

    def _check_moduli(self, data, out: str) -> bool:
        coeffs = g2_coeffs(out, *data)
        return len(coeffs) == data[0] + 1 and coeffs[: len(G2_PINNED)] == G2_PINNED


# -- Schur functions in the power-sum basis ----------------------------------------


def z(mu: tuple) -> int:
    """Size of the centraliser of a permutation of cycle type mu."""
    out = 1
    for part, mult in Counter(mu).items():
        out *= part**mult * math.factorial(mult)
    return out


@lru_cache(maxsize=None)
def character(shape: tuple, mu: tuple) -> int:
    """chi^shape at cycle type mu by the Murnaghan-Nakayama rule: remove a
    border strip of length mu[0] in every possible way.  On the beta-numbers
    of the shape a strip of length r moves one bead from b to b - r, with
    sign (-1)^(beads strictly between)."""
    if not mu:
        return 1 if not shape else 0
    r, rest = mu[0], mu[1:]
    beta = [part + len(shape) - 1 - i for i, part in enumerate(shape)]
    total = 0
    for b in beta:
        if b - r < 0 or b - r in beta:
            continue
        moved = sorted([c for c in beta if c != b] + [b - r], reverse=True)
        smaller = tuple(x - (len(moved) - 1 - i) for i, x in enumerate(moved))
        height = sum(1 for c in beta if b - r < c < b)
        total += (-1) ** height * character(tuple(p for p in smaller if p), rest)
    return total


# -- genus-2 series outputs -------------------------------------------------------


def g2_coeffs(out: str, order: int, fmt: str) -> list:
    return g2_from_text(out, order) if fmt == "text" else g2_from_json(out, order)


def g2_from_text(out: str, order: int) -> list:
    """``1 + 2*p[1]*t + (... )*t^4 + ... + O(t^N)`` -> one {partition:
    coefficient} per power of t, through t^order."""
    tail = f" + O(t^{order + 1})\n"
    if not out.endswith(tail):
        raise ValueError("missing O(t^N) tail")
    coeffs = [{} for _ in range(order + 1)]
    for sign, term in _top_level_terms(out[: -len(tail)]):
        match = re.fullmatch(r"(.+?)(?:\*t(?:\^(\d+))?)?", term)
        body, power = match.group(1), match.group(2)
        k = 0 if body == term else int(power or 1)
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        if coeffs[k]:
            raise ValueError(f"t^{k} printed twice")
        coeffs[k] = {p: sign * c for p, c in parse_terms(body, "p").items()}
    return coeffs


def _top_level_terms(text: str) -> list:
    """Split at the `` + `` and `` - `` outside parentheses: (sign, term)."""
    terms, depth, start, sign = [], 0, 0, 1
    if text.startswith("-"):
        sign, start = -1, 1
    i = start
    while i < len(text):
        depth += {"(": 1, ")": -1}.get(text[i], 0)
        if depth == 0 and text[i : i + 3] in (" + ", " - "):
            terms.append((sign, text[start:i]))
            sign, start = (1 if text[i + 1] == "+" else -1), i + 3
            i += 3
            continue
        i += 1
    terms.append((sign, text[start:]))
    return terms


def g2_from_json(out: str, order: int) -> list:
    series = json.loads(out)
    if series["order"] != order:
        raise ValueError("wrong order")
    coeffs = []
    for coeff in series["coeffs"]:
        if coeff["bound"] != order:
            raise ValueError("wrong weight bound")
        got = {}
        for term in coeff["terms"]:
            poly = term["c"]["terms"]
            if len(poly) != 1 or poly[0]["e"]:
                raise ValueError("non-constant ring coefficient")
            got[tuple(term["p"])] = Fraction(poly[0]["c"])
        coeffs.append(got)
    return coeffs


_TERM = r"(^-|^| [+-] )(?:(\d+)(?:/(\d+))?(?:\*{0}\[([\d,]*)\])?|{0}\[([\d,]*)\])"


def parse_terms(text: str, letter: str) -> dict:
    """``-3*s[2,1] + 1/2*s[3] + 2`` -> {(2, 1): -3, (3,): 1/2, (): 2}."""
    pattern = re.compile(_TERM.format(letter))
    terms = {}
    pos = 0
    while pos < len(text):
        match = pattern.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"unparsable output at {pos}")
        sign, num, den, parts, bare = match.groups()
        coeff = Fraction(int(num or 1), int(den or 1))
        parts = parts if parts is not None else bare or ""
        partition = tuple(int(p) for p in parts.split(",") if p)
        if partition in terms:
            raise ValueError(f"{letter}{list(partition)} printed twice")
        terms[partition] = -coeff if "-" in sign else coeff
        pos = match.end()
    return terms
