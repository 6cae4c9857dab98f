#!/usr/bin/env python3
"""Capture the CLI's bytes over a fixed request list, and diff two captures.

Runs a seeded list of requests through ``powerstruct.cli.main`` in one
process and writes, per request, its argv, stdout, stderr and exit code to a
JSON file.  The list covers every subcommand in text and JSON at orders 0-8,
values over Q, Q[L], Q[u,v] and symmetric functions, zero exponents, both
algorithms of ``pow`` and ``factorize``, the edges of the dense
Euler-product route (one Q[L] ``pow`` and one ``factorize`` at order 24, a
Q[L] ``pow`` of the ``pow-large`` benchmark's shape at order 32, a Q
base with a Q[L] exponent, ``L^-2``, ``1/3`` and zero exponents, a Q[u,v]
exponent), the ``product`` route of ``pow`` on the ``pow-large`` shape at
orders 16, 24 and 32, on a Q[u,v] base at order 8, on a Q base with a
rational exponent at orders 0, 1 and 12 and on Q[L] bases, one with terms at
even powers of t only, with the exponents ``-1`` and ``L^-1 + 2``,
``verify`` of ``euler_phi`` and ``exp_moebius`` at order 24, ``schur`` at weights up to 16 and on tall, wide and
self-conjugate partitions, ``schur`` on sparse supports with large parts
(``p[18]``, ``p[9,5]`` and rational and Q[L] combinations at weights 14
and 16), the ``h`` and ``e`` atoms at weights 12-20 and a
tall ``s`` atom, ``specialize --mode sign`` on Q[L] and non-homogeneous
values, ``adams`` on Q[L] symmetric functions at and past the bound,
``config``, ``quotient`` and ``moduli-g2`` at orders 12 and 24, the three
``config --specialize`` modes at order 16 over Q[L] and Q[u,v], the
small-operand paths of the rings (a scalar that cancels or zeroes a
polynomial, a one-term factor with negative or two-variable exponents, and
``pow``, ``factorize`` and ``lambda`` on Q[L] series whose coefficients are
rationals or single terms, at orders 0-8), the grammar's literal monomials
(``t^0``, ``t^k`` past the order, ``x^k`` with k <= 0, spaces inside a power
or an atom, ``p``, ``e`` and ``s`` as plain variables), a Q base with a Q[L]
exponent at orders 0 and 1, values given as separate words that start with
``-``, ``--input`` and ``@file`` values, malformed JSON values, JSON term
lists that repeat a term (among them terms that sum to zero), the
cancelling sums of the term maps (Q[u,v] products in ``pow`` and
``factorize``, ``irr`` at 3 variables and degrees 6-8, exact and inexact
polynomial ``/``, ``schur`` and ``specialize`` of a sum whose terms
cancel), the coefficient ring of a symmetric function (a JSON value over
Q with a Q[L] coefficient, which is refused, and one over Q[L] with Q
coefficients, which are promoted; the series quotient
``(2 + p[1]*t)/(2 - p[1]*t)``, which inverts the rational 2; ``adams --k 2``
of ``(h[0]+h[1]+...+h[6])^2`` at order 24), size caps (the symmetric-function weight of ``*``
and ``^`` and the work of a series ``^`` and ``/`` among them;
``h[40]*h[40]``, ``(h[40]+p[1])^2``, ``(1+h[40]*t)^1000`` at order 2,
``(L^1000+h[40])^2`` and ``schur --f h[40] --order 40``, whose caps are
decided before the atom is built; a syntax error after an over-cap node,
``h[20]*h[11] +``, and an evaluation error before one,
``1/(L-L) + h[20]*h[11]``; an exponent with leading zeros,
``(1+L)^05000``; exact quotients by two terms, ``(L^5-1)/(L-1)`` and
``1/(1-(u^k-v^k)/(u-v)*t)`` for k = 30 at orders 1 and 4 and k = 1000 at
order 40), the series over Q that ``pow``, ``lambda`` and
``config --specialize`` build from polynomials over the empty alphabet
(among them ``pow --algorithm product`` and ``config --specialize
ordered`` with such a polynomial as the exponent or class),
values nested 150, 220 and 1000 levels deep (parentheses, ``2*(...)``,
``1-(...)`` and ``-(...)``, in ``adams --element`` and ``pow --exponent``),
an ``@file`` value for each kind a value is read as (a series through
``pow --base`` and ``factorize --series``, a ring element through
``lambda``, ``adams``, ``pow --exponent`` and ``plethysm --x``, a symmetric
function through ``plethysm --f``, ``specialize --f`` and ``schur --f``,
within and over the weight cap, and a polynomial through
``config --x-class``), a symmetric function where ``config --x-class``
expects a polynomial, as text and as ``@file``, a series there and in
every other option that takes no series (``lambda``, ``adams`` and
``pow --exponent``, ``plethysm --x`` and ``--f``, ``specialize --f`` and
``schur --f``), each as a text in ``t``, a file written by ``lambda`` and
texts with an ``O(t^M)`` tail, a text both over a cap and of the wrong
kind (``adams --element "(1+h[5]*t)^1000"``), JSON nested 100000 levels
deep as an ``@file`` value, an ``--input`` file and a ``quotient
--action`` file, and error paths, digits outside 0-9 among them.  Two
captures of the same seed, taken from two source trees, show whether a
change kept the CLI's output byte-identical.

Usage:
  python scripts/cli_capture.py --src SRC_DIR --out FILE [--seed N] [--limit N]
  python scripts/cli_capture.py --diff A.json B.json

``--src`` is the directory holding the ``powerstruct`` package (``src`` of a
checkout).  ``--diff`` prints each request whose output differs and exits 1
when any does.  Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import sys
import tempfile

ORDERS = range(9)
FORMATS = ("text", "json")

ELEMENTS = {
    "Q": ["0", "1", "-2", "1/2", "-3/4", "7/3"],
    "Q[L]": ["L", "-L", "0*L", "L + 1", "L^2 - 3*L + 1/2", "L^-1", "2*L^3 - L"],
    "Q[u,v]": ["u*v", "u + v", "u^2*v - 1/2", "u - v", "0*u*v"],
    "SymFunc": ["p[1]", "h[2]", "e[2]", "s[2,1]", "p[1]^2 + p[2]", "L + p[1]", "L*p[1] - p[2]", "0*p[1]"],
}
SERIES = [
    "1 + t",
    "1 - t",
    "1 + t + O(t^4)",
    "1/(1 - t)",
    "(1 + t)^3",
    "1 + 2*t - 1/3*t^3",
    "1 + (L + 2)*t - (2*L^2 - 1)*t^2 + L*t^3",
    "1 + L*t^2",
    "1/(1 - L*t)",
    "1 + u*t + v*t^2",
    "1 + p[1]*t",
    "1 + h[2]*t^2 - p[1]*t",
    # Edge cases of the series division kernel: an L^-1 term beside a
    # denominator, a unit-monomial leading coefficient, a sparse divisor.
    "1 + (L^-1 + 1/2)*t - 3/7*L^2*t^2",
    "(L + L*t)/(L + t)",
    "1/(1 - 1/2*L*t + L^-2*t^2)",
]
ACTIONS = [
    {"group_order": 1, "classes": [{"size": 1, "identity": True, "orbit_euler": {"1": 2}}]},
    {
        "group_order": 2,
        "classes": [
            {"size": 1, "identity": True, "orbit_euler": {"1": 2}},
            {"size": 1, "orbit_euler": {"1": 0, "2": 1}},
        ],
    },
    {
        "group_order": 3,
        "classes": [
            {"size": 1, "identity": True, "orbit_euler": {"1": 3}},
            {"size": 2, "orbit_euler": {"3": 1}},
        ],
    },
]
# The pow-large benchmark's shape at order 32: a base whose coefficients,
# like the exponent, have degree <= 2 in L and integers in [-2, 2], so that
# the products of the Euler-product exp read each integer form many times.
_SHAPE = random.Random("pow-large")
POW_LARGE_BASE = "1" + "".join(
    f" + ({' + '.join(f'{_SHAPE.randint(-2, 2)}*L^{e}' for e in (2, 1, 0))})*t^{k}" for k in range(1, 33)
)
# Requests run at their own order rather than a seeded one.
AT_ORDER = [
    (["pow", "--base", "1 + (L + 2)*t - (2*L^2 - 1)*t^2 + L*t^3", "--exponent", "L^2 - 3*L + 1/2"], 24),
    (["pow", "--base", POW_LARGE_BASE, "--exponent", "2*L^2 - L - 2"], 32),
    # The dense Euler-product route of pow and factorize, and its edges.
    (["factorize", "--series", "1 + (L + 2)*t - (2*L^2 - 1)*t^2 + L*t^3", "--algorithm", "moebius"], 24),
    (["pow", "--base", "1 + 2*t - 1/3*t^3", "--exponent", "L^2 - 1"], 12),
    (["pow", "--base", "1 + (L + 2)*t - L^-1*t^2", "--exponent", "0"], 8),
    (["pow", "--base", "1 + (L + 2)*t - L^-1*t^2", "--exponent", "0*L"], 8),
    (["pow", "--base", "1 + (L + 2)*t - L^-1*t^2", "--exponent", "L^-2"], 10),
    (["pow", "--base", "1 + L*t + 1/2*t^2", "--exponent", "1/3"], 10),
    (["pow", "--base", "1 + t - 1/2*t^2", "--exponent", "u*v - 1"], 6),
    (["pow", "--base", "1 + u*t", "--exponent", "1/3"], 6),
    # The product route, whose factors are powers by the recurrence of
    # usual_power: the pow-large shape and a Q[u,v] base.
    *((["pow", "--base", POW_LARGE_BASE, "--exponent", "2*L^2 - L - 2", "--algorithm", "product"], order)
      for order in (16, 24)),
    (["pow", "--base", "1 + (u - v)*t - u*v*t^2", "--exponent", "u + v", "--algorithm", "product"], 8),
    # The product route on dense forms: a Q base and exponent at orders 0, 1
    # and 12, Q[L] bases with the exponents -1 (e + 1 = 0) and L^-1 + 2, one
    # of them with terms at even powers of t only, and the pow-large shape
    # at order 32.
    *((["pow", "--base", "1 - 1/2*t + 3/5*t^2 - 1/3*t^3", "--exponent", "-2/3", "--algorithm", "product"], order)
      for order in (0, 1, 12)),
    *((["pow", "--base", base, "--exponent", exponent, "--algorithm", "product"], 12)
      for base in ("1 + (L + 2)*t - (2*L^2 - 1)*t^2 + L*t^3", "1 + L*t^2 - 1/2*L^-1*t^4")
      for exponent in ("-1", "L^-1 + 2")),
    (["pow", "--base", POW_LARGE_BASE, "--exponent", "2*L^2 - L - 2", "--algorithm", "product"], 32),
    # The identities whose factors are two-term powers 1 + c t^k.
    *((["verify", "--identity", identity], 24) for identity in ("euler_phi", "exp_moebius")),
    # Schur expansions through det(h); tall partitions are read through
    # omega from their conjugates.
    (["schur", "--f", "p[1]^8"], 8),
    (["schur", "--f", "p[1]^11"], 11),
    (["schur", "--f", "s[1,1,1,1,1]"], 5),
    (["schur", "--f", "s[2,1,1,1,1,1]"], 7),
    (["schur", "--f", "e[6]"], 6),
    # Schur expansions at weights 12-14: powers of p[1], a rational and a
    # Q[L] combination, and a tall and a wide s[...].
    *((["schur", "--f", f"p[1]^{w}"], w) for w in (12, 13, 14)),
    (["schur", "--f", "1/2*p[1]^13 - 3/7*p[4]*p[3]*p[2]^3 + 2*p[13] - p[5,4,4]"], 13),
    (["schur", "--f", "L*p[1]^12 - (L^2 - 1/2)*p[3]^4 + p[6,6]"], 12),
    (["schur", "--f", "s[2,1,1,1,1,1,1,1,1,1,1,1,1]"], 14),
    (["schur", "--f", "s[11,2,1]"], 14),
    # Self-conjugate partitions, which omega maps to themselves, a tall
    # partition at weight 16 and a Q[L] combination at weight 10.
    (["schur", "--f", "s[3,2,1]"], 6),
    (["schur", "--f", "s[4,3,2,1]"], 10),
    (["schur", "--f", "s[4,2,1,1]"], 8),
    (["schur", "--f", "s[2,1,1,1,1,1,1,1,1,1,1,1,1,1,1]"], 16),
    (["schur", "--f", "2*p[1]^10 - 1/3*p[4]*p[2]^3 + L*p[3,3,2,2] - p[5,5]"], 10),
    # Sparse supports, where p_to_schur skips every partition without the
    # parts of some mu among its hook lengths: one and two parts, and a
    # rational and a Q[L] combination.
    (["schur", "--f", "p[18]"], 18),
    (["schur", "--f", "p[9,5]"], 14),
    (["schur", "--f", "3*p[5,4,3,2,1,1]-p[8,8]"], 16),
    (["schur", "--f", "L*p[7,7] - p[10,4]"], 14),
    # The cycle-index closed form of config, quotient and moduli-g2 past
    # the seeded orders.
    (["config", "--x-class", "L^2 - 3*L + 1/2"], 12),
    (["config", "--x-class", "L^2 - 3*L + 1/2", "--specialize", "sign"], 12),
    (["quotient", "--action", json.dumps(ACTIONS[1])], 12),
    (["moduli-g2"], 24),
    # A series power keeps coefficients of weight min(n, order) times the
    # base's: 11 at order 1, past the weight cap at order 3.
    (["pow", "--base", "(1 + p[1]^11*t)^3", "--exponent", "1"], 1),
    (["pow", "--base", "(1 + p[1]^11*t)^3", "--exponent", "1"], 3),
    # The specialised config series, taken through the power structure.
    *(
        (["config", "--x-class", x_class, "--specialize", mode], 16)
        for x_class in ("L^2 - 3*L + 1/2", "u*v - 1")
        for mode in ("invariants", "sign", "ordered")
    ),
    # Literal monomials: t^k at and past the order, spaces inside a power
    # or an atom, x^k with k <= 0, and p, e, s and pq as plain variables.
    (["pow", "--base", "t^0 + 2*t", "--exponent", "L"], 8),
    (["pow", "--base", "1 + t^9", "--exponent", "L"], 8),
    (["pow", "--base", "1 + L*t^8 - t^9", "--exponent", "-1/2"], 8),
    (["pow", "--base", "1 + t ^ 2 - p [2]*t", "--exponent", "1"], 2),
    (["pow", "--base", "1 + L^-3*t^2", "--exponent", "L"], 4),
    (["adams", "--element", "(L)^2 + L^0", "--k", "3"], 0),
    (["pow", "--base", "1 + L^0*t", "--exponent", "1/2"], 3),
    (["pow", "--base", "1 + p*t + e*s*t^2", "--exponent", "p - 1"], 4),
    (["lambda", "--element", "p*e - s^2"], 3),
    (["factorize", "--series", "1 + t^0*t - pq*t^2"], 4),
    # A Q base with a Q[L] exponent at the smallest orders.
    *((["pow", "--base", "1 + 2*t - 1/3*t^3", "--exponent", "L^2 - 1"], order) for order in (0, 1)),
    *((["pow", "--base", "(1 + t)^3", "--exponent", "L"], order) for order in (0, 1)),
    # The h and e atoms (e through omega) at weights 12-20, a tall Schur
    # atom, and e[3] past its bound.
    *((["adams", "--element", f"{name}[{w}]", "--k", "1"], w) for name in ("h", "e") for w in range(12, 21)),
    (["adams", "--element", "s[2,1,1,1,1,1,1,1,1,1,1]", "--k", "1"], 12),
    (["adams", "--element", "e[3]", "--k", "1"], 2),
    # The sign specialization (invariants after omega) on Q[L] and on
    # non-homogeneous symmetric functions.
    *(
        (["specialize", "--f", f, "--mode", "sign"], 6)
        for f in ("L*p[1]^2 - (L^2 + 1)*p[2] + p[3]", "1 + p[1] - L*e[2] + h[3]", "L + s[2,1] - e[3]*p[1] + s[1,1,1,1]")
    ),
    # Sums whose terms cancel: Q[u,v] products in pow and factorize, the
    # remainder of exact_div in irr and in polynomial /, and a symmetric
    # function whose p[2] terms cancel.
    *(
        (["pow", "--base", "1 + (u - v)*t - u*v*t^2", "--exponent", "u + v", *algorithm], 6)
        for algorithm in ([], ["--algorithm", "product"])
    ),
    *(
        (["factorize", "--series", "(1 + (u + v)*t)*(1 - (u - v)*t)", "--algorithm", algorithm], 6)
        for algorithm in ("moebius", "iterative")
    ),
    *((["irr", "--vars", "3", "--degree", str(degree)], 4) for degree in (6, 7, 8)),
    (["adams", "--element", "(L^3-1)/(L-1)", "--k", "1"], 0),
    (["adams", "--element", "(L^3-1)/(L-2)", "--k", "1"], 0),
    (["schur", "--f", "p[2] + p[1,1] - p[2]"], 2),
    *(
        (["specialize", "--f", "p[2] + p[1,1] - p[2]", "--mode", mode], 2)
        for mode in ("invariants", "sign", "ordered")
    ),
    (["adams", "--element", "@cancelling_terms.json", "--k", "2"], 0),
    (["adams", "--element", "@cancelling_partitions.json", "--k", "1"], 3),
    # The coefficient ring of a symmetric function: a Q[L] coefficient in a
    # Q value, Q coefficients in a Q[L] value, the inverse of a rational
    # leading coefficient, and a product of many Q terms.
    (["adams", "--element", "@alphabet_mismatch.json", "--k", "1"], 3),
    (["adams", "--element", "@promoted_coefficients.json", "--k", "1"], 3),
    (["pow", "--base", "(2 + p[1]*t)/(2 - p[1]*t)", "--exponent", "1"], 6),
    (["adams", "--element", "(h[0]+h[1]+h[2]+h[3]+h[4]+h[5]+h[6])^2", "--k", "2"], 24),
    # Adams operations on Q[L] symmetric functions, at the bound and past it.
    *(
        (["adams", "--element", f, "--k", str(k)], order)
        for f in ("L*p[2] - p[1]^2", "(L + 1)*h[2] + L^2*p[1] - e[2]")
        for k, order in ((2, 4), (2, 3), (3, 6), (3, 5))
    ),
]
# Operands that take the scalar and one-term paths of the rings: a scalar
# that zeroes a polynomial or cancels its constant term, a one-term factor
# with a negative exponent or over two variables.  The series have only
# rational or one-term coefficients but live over Q[L].
SMALL_ELEMENTS = ["0*(L + 1)", "(L + 1/2) - 1/2", "L^-2*(1 + L)", "u^2*v*(u - v)", "-1/2*L^3", "2 + 0*L"]
SMALL_SERIES = ["1 + L*t - 1/2*L^2*t^2 + 3*L^-1*t^3", "1 + 2*t - 1/3*t^3 + 0*L*t", "1 - L^2*t^2"]
SMALL_EXPONENTS = ["L", "-1/2", "2*L^3", "0*L"]
# Values given as a separate word that starts with "-".
DASH_VALUES = [
    ["pow", "--base", "1+t", "--exponent", "-3/4"],
    ["pow", "--base", "1+L*t", "--exponent", "-L", "--order", "4"],
    ["pow", "--base", "1+t", "--exponent", "-h"],
]
SYMFUNCS = ["p[1]", "p[1]^2", "h[3]", "e[3]", "s[2,1]", "p[2] + p[1]^2", "L*p[1]^2 - p[2]", "s[3,1] - s[2,2]", "0*p[1]", "1"]
# Requests whose values are wrong in some way: each must exit 1 or 2 with one line.
ERRORS = [
    [],
    ["nope"],
    ["pow", "--no-such-flag"],
    ["pow", "--base", "1+t"],
    ["pow", "--base", "2+t", "--exponent", "1"],
    ["pow", "--base", "1+{t", "--exponent", "1"],
    ["pow", "--base", "1/0", "--exponent", "2"],
    ["pow", "--base", "1+t", "--exponent", "1/0"],
    ["pow", "--base", "1+t", "--exponent", "t"],
    ["pow", "--base", "1+t", "--exponent", "1", "--algorithm", "bogus"],
    ["pow", "--base", "1+t+O(t^2)", "--exponent", "1", "--order", "4"],
    ["pow", "--base", "1+L*t", "--exponent", "u"],
    ["factorize", "--series", "t"],
    ["factorize", "--series", "2 + t", "--algorithm", "iterative"],
    ["factorize", "--series", "0/p[1]", "--order", "4"],
    ["lambda", "--element", "1/(2-2)"],
    ["lambda", "--element", "p[9]", "--order", "3"],
    ["lambda", "--element", "@{}"],
    ["adams", "--element", "L", "--k", "0"],
    ["adams", "--element", "L", "--k", "x"],
    ["adams", "--element", "p[1]/e[2]", "--k", "2"],
    ["adams", "--element", "1/0", "--k", "2"],
    ["adams", "--element", "p[2]", "--k", "3", "--order", "4"],
    ["plethysm", "--f", "L*p[1]", "--x", "L"],
    ["plethysm", "--f", "p[1]", "--x", "@{}"],
    ["schur", "--f", "1/0"],
    ["schur", "--f", "L + p[1]"],
    ["schur", "--f", "p[1] + p[1]^2"],
    ["specialize", "--f", "L + p[1]", "--mode", "ordered"],
    ["specialize", "--f", "p[1]", "--mode", "bogus"],
    ["irr", "--vars", "0", "--degree", "1"],
    ["irr", "--vars", "2", "--degree", "0"],
    ["config", "--x-class", "p[1]"],
    ["quotient", "--action", "{}"],
    ["quotient", "--action", '{"group_order": 1, "classes": [{"size": 1}]}'],
    ["quotient", "--action", '{"group_order": 1, "classes": [{"size": 1, "identity": "false", "orbit_euler": {"1": 2}}]}'],
    ["quotient", "--action", "no-such-file.json"],
    ["hyperelliptic", "--genus", "0"],
    ["harer-zagier", "--genus", "0", "--points", "1"],
    ["verify", "--identity", "nope"],
    ["reproduce", "--seed", "x"],
    ["lambda", "--element", "1", "--order", "-1"],
    ["lambda", "--element", "1", "--output-format", "xml"],
    ["lambda", "--input", "no-such-file.json"],
    ["lambda", "--input", "list.json"],
    ["pow", "--input", "bad_base.json"],
    ["adams", "--element", "@no-such-file.json", "--k", "2"],
    ["schur", "--f=--"],
    ["schur", "--f", "--"],
    ["pow", "--base", "1+t", "--exponent=--"],
    ["adams", "--element", "L", "--k=--"],
    ["irr", "--vars=--", "--degree", "2"],
    ["irr", "--vars", "2", "--degree", "2", "--target=--"],
    ["lambda", "--element", "1", "--order=--"],
    ["lambda", "--element", "1", "--output-format=--"],
    ["lambda", "--element", "1", "--input=--"],
    ["quotient", "--action", "{}", "--egf=--"],
    # Size caps; each value here is still cheap where it is accepted.
    ["lambda", "--element", "0", "--order", "257"],
    ["adams", "--element", "L", "--k", "99999999999999999999"],
    ["lambda", "--element", "(1+L)^1001", "--order", "0"],
    ["adams", "--element", "(L^1000)^1000", "--k", "1"],
    ["adams", "--element", "(p[1]+p[2]+p[3])^11", "--k", "1", "--order", "3"],
    ["adams", "--element", "(p[1]+p[2]+p[3])^10*(p[1]+p[2]+p[3])^2", "--k", "1", "--order", "3"],
    ["pow", "--base", "(1+(p[1]+p[2]+p[3])*t)^11", "--exponent", "1", "--order", "3"],
    ["pow", "--base", "(1+(p[1]+p[2]+p[3])*t)^11", "--exponent", "1", "--order", "11"],
    ["pow", "--base", "1 + t^-1", "--exponent", "1", "--order", "3"],
    # Series powers past the work cap: 5 s and 14 s of work where they run.
    ["pow", "--base", "(1 + (L + 1)*t)^1000", "--exponent", "1", "--order", "66"],
    ["pow", "--base", "(1+(h[0]+h[1]+h[2]+h[3]+h[4]+h[5])*t)^100", "--exponent", "1", "--order", "5"],
    # Series division past the work cap; the exponent then fails (t when
    # its size is checked, 1/0 when it is built), so a tree without the cap
    # spends 6 s on the division alone.
    ["pow", "--base", "1/(1-(h[0]+h[1]+h[2]+h[3]+h[4]+h[5])*t)", "--exponent", "t", "--order", "8"],
    ["pow", "--base", "1/(1-(h[0]+h[1]+h[2]+h[3]+h[4]+h[5])*t)", "--exponent", "1/0", "--order", "8"],
    # Work estimates of bases with many terms of one t-degree.
    ["pow", "--base", "1/(1-h[40]*t)", "--exponent", "1", "--order", "256"],
    ["pow", "--base", "(1-h[30]*t)^(-1)", "--exponent", "1", "--order", "256"],
    ["irr", "--vars", "7", "--degree", "1"],
    ["irr", "--vars", "2", "--degree", "17", "--target", "euler"],
    ["hyperelliptic", "--genus", "128"],
    ["harer-zagier", "--genus", "128", "--points", "0"],
    ["harer-zagier", "--genus", "2", "--points", "1001"],
    ["specialize", "--f", "h[41]", "--mode", "invariants", "--order", "41"],
    ["specialize", "--f", "2*s[40,1]", "--mode", "sign", "--order", "41"],
    ["reproduce", "--axiom-cases", "-1", "--order", "0"],
    ["reproduce", "--axiom-cases=0", "--order", "0"],
    ["pow", "--base", "@big_exponent.json", "--exponent", "1", "--order", "2"],
    # JSON values whose shape is not the one the JSON output has.
    ["pow", "--base", "@padded.json", "--exponent", "1", "--order", "2"],
    ["pow", "--base", "@truncated.json", "--exponent", "1", "--order", "2"],
    ["pow", "--base", "@float_order.json", "--exponent", "1", "--order", "2"],
    ["pow", "--base", "@int_coeffs.json", "--exponent", "1", "--order", "2"],
    ["pow", "--base", "@null_order.json", "--exponent", "1", "--order", "2"],
    ["adams", "--element", "@int_terms.json", "--k", "2"],
    ["adams", "--element", "@str_bound.json", "--k", "2"],
    ["adams", "--element", "@decimal_coeff.json", "--k", "2"],
    ["pow", "--base", "1+t", "--exponent", "@decimal.json", "--order", "2"],
    # JSON term lists that repeat a term: the terms add.
    *(["adams", "--element", "@repeated_terms.json", "--k", "1", "--output-format", fmt] for fmt in FORMATS),
    *(["adams", "--element", "@repeated_partitions.json", "--k", "1", "--output-format", fmt] for fmt in FORMATS),
    # Digits outside 0-9, in a value and in the O(t^k) tail of a series.
    ["adams", "--element", "L^\u0663 + \u0662", "--k", "1"],
    ["pow", "--base", "1+t + O(t^1\u0663)", "--exponent", "1"],
    # Caps on values holding the heaviest atom, decided before it is built.
    ["adams", "--element", "h[40]*h[40]", "--k", "1", "--order", "40"],
    ["adams", "--element", "(h[40]+p[1])^2", "--k", "1", "--order", "40"],
    ["pow", "--base", "(1+h[40]*t)^1000", "--exponent", "1", "--order", "2"],
    ["adams", "--element", "(L^1000+h[40])^2", "--k", "1", "--order", "40"],
    ["schur", "--f", "h[40]", "--order", "40"],
    # A syntax error after an over-cap node, and an evaluation error
    # before one.
    ["adams", "--element", "h[20]*h[11] +", "--k", "1", "--order", "31"],
    ["adams", "--element", "1/(L-L) + h[20]*h[11]", "--k", "1", "--order", "31"],
    # An exponent past its cap as written, with leading zeros.
    ["lambda", "--element", "(1+L)^05000"],
    # Exact quotients by two terms, which hold more terms than the
    # product of their operands' counts, in series whose inverse the work
    # cap checks.
    ["lambda", "--element", "(L^5-1)/(L-1)", "--order", "3"],
    ["pow", "--base", "1/(1-(u^30-v^30)/(u-v)*t)", "--exponent", "1", "--order", "1"],
    ["pow", "--base", "1/(1-(u^30-v^30)/(u-v)*t)", "--exponent", "1", "--order", "4"],
    ["pow", "--base", "1/(1-(u^1000-v^1000)/(u-v)*t)", "--exponent", "1", "--order", "40"],
    # Series over Q read from polynomials over the empty alphabet.
    ["pow", "--base", "@empty_alphabet_series.json", "--exponent", "1", "--order", "2", "--output-format", "json"],
    ["lambda", "--element", "@empty_alphabet_poly.json", "--order", "2", "--output-format", "json"],
    ["config", "--x-class", "3", "--specialize", "invariants", "--order", "2", "--output-format", "json"],
    # Powers by a polynomial over the empty alphabet, through the recurrence
    # of usual_power.
    *(
        ["pow", "--base", "1+t", "--exponent", "@empty_alphabet_poly.json", "--algorithm", "product",
         "--order", "2", "--output-format", fmt]
        for fmt in FORMATS
    ),
    ["config", "--x-class", "@empty_alphabet_poly.json", "--specialize", "ordered", "--order", "2",
     "--output-format", "json"],
    # Values nested deeper than the parser's recursion allows exit 1 with
    # one line; 150 levels still read.
    *(
        [*command, opening * depth + "1" + ")" * depth]
        for command in (["adams", "--k", "1", "--element"], ["pow", "--base", "1+t", "--exponent"])
        for opening in ("(", "2*(", "1-(", "-(")
        for depth in (150, 220, 1000)
    ),
    # A value read from a file for each kind: a series, a symmetric
    # function (h[2] for plethysm) within and over the schur weight cap,
    # and a polynomial.
    ["factorize", "--series", "@series.json", "--order", "3"],
    ["plethysm", "--f", "@h2.json", "--x", "L^2 - L", "--order", "3"],
    *(
        ["specialize", "--f", "@symfunc.json", "--mode", mode, "--order", "3"]
        for mode in ("invariants", "sign")
    ),
    ["schur", "--f", "@symfunc.json", "--order", "3"],
    ["schur", "--f", "@schur_over_cap.json", "--order", "19"],
    ["config", "--x-class", "@x_class.json", "--order", "4"],
    # A symmetric function where a polynomial is expected, as text and as
    # a file: one message.
    ["config", "--x-class", "p[1]", "--order", "3"],
    ["config", "--x-class", "@x_class_symfunc.json", "--order", "3"],
    # A series where a polynomial is expected, as a text in t, as a file
    # written by lambda and as texts with an O(t^M) tail: one message.
    ["config", "--x-class", "1+t", "--order", "3"],
    ["config", "--x-class", "@lambda.json", "--order", "3"],
    ["config", "--x-class", "1+t+O(t^3)", "--order", "3"],
    ["config", "--x-class", "L+O(t^3)", "--order", "3"],
    # The same series routes into every other option that takes no series:
    # one message per kind.
    *(
        [*argv, raw, "--order", "3"]
        for argv in (
            ["lambda", "--element"],
            ["adams", "--k", "2", "--element"],
            ["pow", "--base", "1+t", "--exponent"],
            ["plethysm", "--f", "p[1]", "--x"],
            ["plethysm", "--x", "L", "--f"],
            ["specialize", "--mode", "sign", "--f"],
            ["schur", "--f"],
        )
        for raw in ("1+t", "@lambda.json", "1+t+O(t^3)", "L+O(t^3)")
    ),
    # A text over a cap and of the wrong kind: the cap is checked first.
    ["adams", "--element", "(1+h[5]*t)^1000", "--k", "1"],
    # JSON nested deeper than its reader can recurse, by each route that
    # reads JSON.
    ["adams", "--element", "@deep_list.json", "--k", "1"],
    ["lambda", "--input", "deep_object.json"],
    ["quotient", "--action", "deep_object.json"],
]
# Files the requests name, written to the working directory of the run.
FILES = {
    "params.json": {"base": "1 + L*t", "exponent": "L - 1"},
    "list.json": [1, 2],
    "bad_base.json": {"base": [1], "exponent": "L"},
    "action.json": ACTIONS[1],
    "config.json": {"x_class": "1 + q", "specialize": "invariants"},
    "padded.json": {"order": 4, "coeffs": ["1", "1"]},
    "truncated.json": {"order": 2, "coeffs": ["1", "1", "0", "0", "1"]},
    "float_order.json": {"order": 2.9, "coeffs": ["1", "1", "0"]},
    "int_coeffs.json": {"order": 2, "coeffs": 5},
    "null_order.json": {"order": None, "coeffs": ["1"]},
    "int_terms.json": {"vars": ["L"], "terms": 5},
    "str_bound.json": {"bound": "2", "vars": [], "terms": []},
    "big_exponent.json": {"order": 2, "coeffs": ["1", {"vars": ["L"], "terms": [{"e": [1001], "c": "1"}]}, "0"]},
    "decimal_coeff.json": {"vars": ["L"], "terms": [{"e": [1], "c": " 1.5e1 "}]},
    "decimal.json": "2.5",
    "empty_alphabet_series.json": {"order": 2, "coeffs": [{"vars": [], "terms": [{"e": [], "c": "1"}]}, "2", "0"]},
    "empty_alphabet_poly.json": {"vars": [], "terms": [{"e": [], "c": "3"}]},
    "series.json": {
        "order": 3,
        "coeffs": ["1", {"vars": ["L"], "terms": [{"e": [1], "c": "1"}]}, "0", "-1/2"],
    },
    "symfunc.json": {
        "bound": 3,
        "vars": ["L"],
        "terms": [
            {"p": p, "c": {"vars": ["L"], "terms": [{"e": [e], "c": c}]}}
            for p, e, c in (([3], 0, "1/3"), ([2, 1], 1, "-1"), ([1, 1, 1], 2, "1/6"))
        ],
    },
    "h2.json": {
        "bound": 2,
        "vars": [],
        "terms": [
            {"p": p, "c": {"vars": [], "terms": [{"e": [], "c": "1/2"}]}} for p in ([2], [1, 1])
        ],
    },
    "schur_over_cap.json": {
        "bound": 19,
        "vars": [],
        "terms": [{"p": [10, 9], "c": {"vars": [], "terms": [{"e": [], "c": "1"}]}}],
    },
    "x_class.json": {"vars": ["q"], "terms": [{"e": [2], "c": "1"}, {"e": [0], "c": "-1/2"}]},
    "x_class_symfunc.json": {
        "bound": 3,
        "vars": [],
        "terms": [{"p": [1], "c": {"vars": [], "terms": [{"e": [], "c": "1"}]}}],
    },
    "repeated_terms.json": {"vars": ["L"], "terms": [{"e": [1], "c": "1"}, {"e": [1], "c": "2"}]},
    "cancelling_terms.json": {
        "vars": ["L"],
        "terms": [
            {"e": e, "c": c}
            for e, c in (([1], "1"), ([2], "3"), ([1], "-1"), ([0], "1/2"), ([0], "-1/2"))
        ],
    },
    "cancelling_partitions.json": {
        "bound": 3,
        "vars": ["L"],
        "terms": [
            {"p": p, "c": {"vars": ["L"], "terms": [{"e": [e], "c": c}]}}
            for p, e, c in (
                ([2, 1], 1, "1"), ([1, 2], 1, "-1"), ([3], 0, "2"), ([3], 0, "-2"), ([1], 2, "1")
            )
        ],
    },
    "alphabet_mismatch.json": {
        "bound": 3,
        "vars": [],
        "terms": [{"p": [1], "c": {"vars": ["L"], "terms": [{"e": [1], "c": "1"}]}}],
    },
    "promoted_coefficients.json": {
        "bound": 3,
        "vars": ["L"],
        "terms": [
            {"p": p, "c": {"vars": vars, "terms": [{"e": e, "c": c}]}}
            for p, vars, e, c in (([2, 1], [], [], "3/2"), ([], [], [], "-1"), ([3], ["L"], [2], "1"))
        ],
    },
    "repeated_partitions.json": {
        "bound": 3,
        "vars": [],
        "terms": [
            {"p": p, "c": {"vars": [], "terms": [{"e": [], "c": c}]}}
            for p, c in (([2, 1], "1"), ([1, 2], "1"), ([2, 1], "5"))
        ],
    },
}

# Files written as their text is, too deep for json.dump to write.
RAW_FILES = {"deep_list.json": "[" * 100000 + "]" * 100000, "deep_object.json": '{"a":' * 50000 + "1" + "}" * 50000}


def _all_elements() -> list[str]:
    return [e for ring in ELEMENTS.values() for e in ring]


def requests(seed: int) -> list[list[str]]:
    """The request list: every value combination of each command, at a
    seeded order, in both formats, then the error paths."""
    rng = random.Random(seed)
    combos: list[list[str]] = []
    for element in _all_elements():
        combos.append(["lambda", "--element", element])
        for k in (1, 2, 3):
            combos.append(["adams", "--element", element, "--k", str(k)])
    exponents = ELEMENTS["Q"] + ELEMENTS["Q[L]"][:4] + ELEMENTS["Q[u,v]"][:2] + ELEMENTS["SymFunc"][:3]
    for base in SERIES:
        for exponent in rng.sample(exponents, 8):
            for algorithm in ([], ["--algorithm", "factorize"], ["--algorithm", "product"]):
                combos.append(["pow", "--base", base, "--exponent", exponent, *algorithm])
        for algorithm in ([], ["--algorithm", "moebius"], ["--algorithm", "iterative"]):
            combos.append(["factorize", "--series", base, *algorithm])
    for f in ["p[1]", "h[2]", "e[2]", "p[1]^2 - p[2]", "0*p[1]", "3"]:
        for x in rng.sample(_all_elements(), 8):
            combos.append(["plethysm", "--f", f, "--x", x])
    for f in SYMFUNCS:
        combos.append(["schur", "--f", f])
        for mode in ("invariants", "sign", "ordered"):
            combos.append(["specialize", "--f", f, "--mode", mode])
    for n_vars in (1, 2, 3):
        for degree in (1, 2, 3, 4):
            for target in ([], ["--target", "class"], ["--target", "euler"], ["--target", "hodge_deligne"]):
                combos.append(["irr", "--vars", str(n_vars), "--degree", str(degree), *target])
    for x_class in ["1 + q", "1 + L", "0*q", "2", "q^2 - 1/2"]:
        for mode in ([], ["--specialize", "invariants"], ["--specialize", "sign"], ["--specialize", "ordered"]):
            combos.append(["config", "--x-class", x_class, *mode])
    for action in ACTIONS:
        for egf in ([], ["--egf"]):
            combos.append(["quotient", "--action", json.dumps(action), *egf])
    combos.append(["quotient", "--action", "action.json"])
    for genus in (1, 2, 3, 4):
        for target in ([], ["--target", "class"], ["--target", "hodge_deligne"]):
            combos.append(["hyperelliptic", "--genus", str(genus), *target])
    for genus in (1, 2, 3):
        for points in (0, 1, 2, 3):
            combos.append(["harer-zagier", "--genus", str(genus), "--points", str(points)])
    for identity in ("exp_moebius", "euler_phi", "gcd_product"):
        combos.extend([["verify", "--identity", identity]] * 3)
    combos.extend([["moduli-g2"]] * 9)
    combos.append(["pow", "--input", "params.json"])
    combos.append(["pow", "--input", "params.json", "--exponent", "2"])
    combos.append(["config", "--input", "config.json"])
    combos.append(["lambda", "--element", "@lambda.json"])
    out = []
    for argv in combos:
        order = str(rng.choice(ORDERS))
        out.extend([*argv, "--order", order, "--output-format", fmt] for fmt in FORMATS)
    for argv, order in AT_ORDER:
        out.extend([*argv, "--order", str(order), "--output-format", fmt] for fmt in FORMATS)
    small: list[list[str]] = []
    for element in SMALL_ELEMENTS:
        small.append(["adams", "--element", element, "--k", "2"])
        small.extend(["lambda", "--element", element, "--order", str(order)] for order in ORDERS)
    for base in SMALL_SERIES:
        for order in ORDERS:
            small.extend(["pow", "--base", base, "--exponent", e, "--order", str(order)] for e in SMALL_EXPONENTS)
            small.extend(
                ["factorize", "--series", base, "--algorithm", algorithm, "--order", str(order)]
                for algorithm in ("moebius", "iterative")
            )
    out.extend([*argv, "--output-format", fmt] for argv in small for fmt in FORMATS)
    out.append(["reproduce", "--order", "3", "--axiom-cases", "1", "--seed", str(seed)])
    out.append(["reproduce", "--order", "2", "--axiom-cases", "2", "--seed", str(seed), "--output-format", "json"])
    return out + DASH_VALUES + ERRORS


def _run(main, argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is an outcome to record
            code = f"uncaught {type(exc).__name__}: {exc}"
    return {"argv": argv, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "exit": code}


def capture(src: str, seed: int, limit: int | None) -> list[dict]:
    sys.path.insert(0, os.path.abspath(src))
    from powerstruct import cli

    # argparse wraps its usage text to the terminal width.
    os.environ["COLUMNS"] = "80"
    todo = requests(seed)[:limit]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, data in FILES.items():
                with open(name, "w") as fh:
                    json.dump(data, fh)
            for name, text in RAW_FILES.items():
                with open(name, "w") as fh:
                    fh.write(text)
            with open("lambda.json", "w") as fh:
                fh.write(_run(cli.main, ["lambda", "--element", "L", "--order", "2", "--output-format", "json"])["stdout"])
            return [_run(cli.main, argv) for argv in todo]
        finally:
            os.chdir(cwd)


def diff(a_path: str, b_path: str) -> int:
    with open(a_path) as fh:
        a = json.load(fh)
    with open(b_path) as fh:
        b = json.load(fh)
    if [r["argv"] for r in a] != [r["argv"] for r in b]:
        print("the two captures ran different request lists")
        return 1
    differing = [(x, y) for x, y in zip(a, b) if x != y]
    for x, y in differing:
        print(json.dumps(x["argv"]))
        for key in ("exit", "stdout", "stderr"):
            if x[key] != y[key]:
                print(f"  {key}: {x[key]!r}")
                print(f"  {' ' * len(key)}  {y[key]!r}")
    print(f"{len(differing)} of {len(a)} requests differ")
    return 1 if differing else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", help="directory holding the powerstruct package")
    parser.add_argument("--out", help="JSON file to write the capture to")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--limit", type=int, help="run only the first N requests")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two captures")
    args = parser.parse_args()
    if args.diff:
        return diff(*args.diff)
    if not (args.src and args.out):
        parser.error("--src and --out are required unless --diff is given")
    results = capture(args.src, args.seed, args.limit)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=1)
    print(f"{len(results)} requests written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
