"""Seeded request streams for the benchmark workloads, in the CLI grammar.

Standard library only: nothing here imports powerstruct, so the library's
speed never enters input generation.  A stream is an endless iterator of
*blocks*; a timed run always ends on a block boundary, so every run holds
whole blocks and the request mix does not depend on where the clock stopped.

Every value is passed as ``--option=value``: argparse takes a separate
argument that starts with ``-`` (a negative exponent, say) for an option.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

Poly = dict  # exponent of L -> nonzero int coefficient

WORKLOADS = ("pow-small", "pow-large", "genus2-schur")

POW_SMALL_ORDER = 8
POW_LARGE_ORDER = 24
G2_ORDERS = tuple(range(12, 17))
SCHUR_WEIGHTS = tuple(range(8, 12))


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus the structured input its check needs."""

    kind: str
    argv: tuple
    data: object


# -- values in the CLI grammar ------------------------------------------------


def random_poly(rng: random.Random) -> Poly:
    """Degree <= 2 in L, integer coefficients in [-2, 2] (the shape of the
    power-structure-axioms criterion)."""
    terms = {}
    for e in range(3):
        c = rng.randint(-2, 2)
        if c:
            terms[e] = c
    return terms


def random_unit_series(rng: random.Random, order: int) -> list:
    return [{0: 1}] + [random_poly(rng) for _ in range(order)]


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {e: c for e, c in out.items() if c}


def series_mul(a: list, b: list) -> list:
    """Product of two series of one order, truncated to that order."""
    out = []
    for m in range(len(a)):
        acc: Poly = {}
        for k in range(m + 1):
            acc = poly_add(acc, poly_mul(a[k], b[m - k]))
        out.append(acc)
    return out


def substitute_tk(a: list, k: int) -> list:
    """t -> t^k, to the order (order + 1) * k - 1 that stays exact."""
    out = [{} for _ in range(len(a) * k)]
    for j, poly in enumerate(a):
        out[j * k] = poly
    return out


def _signed_terms(terms) -> str:
    """Join (coefficient, monomial) pairs: ``2*L^2 - L + 1``."""
    text = ""
    for coeff, monomial in terms:
        mag = abs(coeff)
        if not monomial:
            body = str(mag)
        elif mag == 1:
            body = monomial
        else:
            body = f"{mag}*{monomial}"
        if not text:
            text = body if coeff > 0 else f"-{body}"
        else:
            text += f" + {body}" if coeff > 0 else f" - {body}"
    return text or "0"


def poly_text(poly: Poly) -> str:
    monomial = {0: "", 1: "L"}
    return _signed_terms(
        (poly[e], monomial.get(e, f"L^{e}")) for e in sorted(poly, reverse=True)
    )


def series_text(coeffs: list) -> str:
    """``1 + (...)*t + (...)*t^2 + ...`` with zero coefficients left out.

    No ``O(t^N)`` tail: the parser rejects the tail that ``str(TruncSeries)``
    writes (``trailing input '('``)."""
    text = poly_text(coeffs[0])
    for k, poly in enumerate(coeffs[1:], start=1):
        if poly:
            text += f" + ({poly_text(poly)})*" + ("t" if k == 1 else f"t^{k}")
    return text


def partitions(n: int, max_part: int | None = None) -> list:
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(n, max_part), 0, -1)
        for rest in partitions(n - first, first)
    ]


def random_symfunc(rng: random.Random, weight: int) -> dict:
    """1 to 4 p-monomials of one weight with small rational coefficients."""
    chosen = rng.sample(partitions(weight), rng.randint(1, 4))
    return {
        part: Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))
        for part in chosen
    }


def symfunc_text(terms: dict) -> str:
    return _signed_terms(
        (coeff, f"p[{','.join(map(str, part))}]") for part, coeff in terms.items()
    )


# -- requests -------------------------------------------------------------------


def pow_request(kind: str, base: list, exponent: Poly) -> Request:
    algorithm = kind.split("/")[1]
    argv = (
        "pow",
        f"--base={series_text(base)}",
        f"--exponent={poly_text(exponent)}",
        f"--order={len(base) - 1}",
        f"--algorithm={algorithm}",
    )
    return Request(kind, argv, (base, exponent))


def factorize_request(kind: str, base: list) -> Request:
    algorithm = kind.split("/")[1]
    argv = (
        "factorize",
        f"--series={series_text(base)}",
        f"--order={len(base) - 1}",
        f"--algorithm={algorithm}",
    )
    return Request(kind, argv, base)


def moduli_request(order: int, fmt: str) -> Request:
    argv = ("moduli-g2", f"--order={order}", f"--output-format={fmt}")
    return Request("moduli-g2", argv, (order, fmt))


def schur_request(weight: int, terms: dict) -> Request:
    argv = ("schur", f"--f={symfunc_text(terms)}", f"--order={weight}")
    return Request("schur", argv, (weight, terms))


def _pow_small_block(rng: random.Random) -> list:
    """One case of the power-structure-axioms criterion, drawn the way it
    draws one (series a, b and exponents m, n), as the distinct calls it
    makes: per case 13 default-route ``pow`` at order 8, one at order 3 on
    a cut to t^3, one on that cut with t -> t^k, one ``product``-route
    ``pow`` and both ``factorize`` routes.  The criterion computes a^m three
    times and a^n twice, and raises a^n, a library output, to m; four fresh
    a'^m' of the same shape stand in for those, so no request repeats and
    the calls per route stay those of the criterion."""
    order = POW_SMALL_ORDER
    a, b = random_unit_series(rng, order), random_unit_series(rng, order)
    m, n = random_poly(rng), random_poly(rng)
    short = a[:4]
    k = rng.choice((2, 3))
    one_plus_t = [{0: 1}, {0: 1}] + [{} for _ in range(order - 1)]
    cases = [
        (a, {}), (a, {0: 1}), (series_mul(a, b), m), (a, m), (b, m),
        (a, poly_add(m, n)), (a, n), (a, poly_mul(m, n)), (one_plus_t, m),
        (substitute_tk(short, k), m), (short, m),
    ]
    cases += [(random_unit_series(rng, order), random_poly(rng)) for _ in range(4)]
    block = [pow_request("pow/factorize", base, x) for base, x in cases]
    block.insert(4, pow_request("pow/product", a, m))
    block += [factorize_request("factorize/moebius", a),
              factorize_request("factorize/iterative", a)]
    return block


def _pow_large_block(rng: random.Random) -> list:
    """Five requests drawn as a Latin hypercube: in each coefficient slot
    (a power of L in one coefficient of the base, or in the exponent) the
    five requests take the values -2..2 once each, in a random order.  Each
    request alone still has the axioms-criterion distribution, and the cost
    of a block, set mostly by which L^2 coefficients are zero, varies less
    between blocks and seeds."""
    def column() -> list:
        values = list(range(-2, 3))
        rng.shuffle(values)
        return values

    def polys() -> list:
        columns = [column() for _ in range(3)]
        return [{e: col[i] for e, col in enumerate(columns) if col[i]} for i in range(5)]

    bases = [[{0: 1}] * 5] + [polys() for _ in range(POW_LARGE_ORDER)]
    exponents = polys()
    return [pow_request("pow/factorize", [coeff[i] for coeff in bases], exponents[i])
            for i in range(5)]


def stream(workload: str, seed: int) -> Iterator[list]:
    """Endless blocks of requests; the same seed gives the same blocks.  A
    request already in the stream is left out (the criterion's (1+t)^m, say,
    draws m from only 125 polynomials, and a^(m+n) is a^m when n = 0)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "pow-small":
        blocks = iter(lambda: _pow_small_block(rng), None)
    elif workload == "pow-large":
        blocks = iter(lambda: _pow_large_block(rng), None)
    elif workload == "genus2-schur":
        blocks = _genus2_schur_blocks(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    sent = set()
    for block in blocks:
        new = []
        for req in block:
            if req.argv not in sent:
                sent.add(req.argv)
                new.append(req)
        yield new


def _genus2_schur_blocks(rng: random.Random) -> Iterator[list]:
    """Each block holds one schur request of every weight 8..11 in seeded
    order; the first ten blocks also open with moduli-g2 at one of the
    orders 12..16 in text or JSON, each pair once (moduli-g2 has no other
    input, so an eleventh would repeat a request).  Ten of them put the
    median latency inside the weight-9 cluster rather than at its edge."""
    moduli = [(order, fmt) for order in G2_ORDERS for fmt in ("text", "json")]
    rng.shuffle(moduli)
    for index in itertools.count():
        block = [moduli_request(*moduli[index])] if index < len(moduli) else []
        weights = list(SCHUR_WEIGHTS)
        rng.shuffle(weights)
        block += [schur_request(w, random_symfunc(rng, w)) for w in weights]
        yield block


def warmup(workload: str) -> list:
    """One small fixed request of each kind the workload sends: it loads
    every code path, while set-up time stays independent of the seed and is
    not dominated by one more large request."""
    rng = random.Random(f"{workload}:warm-up")
    if workload == "pow-small":
        block = _pow_small_block(rng)
        return block[3:5] + block[-2:]  # a^m by both routes, a by both factorize routes
    if workload == "pow-large":
        return _pow_small_block(rng)[:1]
    if workload == "genus2-schur":
        w = SCHUR_WEIGHTS[0]
        return [moduli_request(G2_ORDERS[0], "text"),
                schur_request(w, random_symfunc(rng, w))]
    raise ValueError(f"unknown workload {workload!r}")
