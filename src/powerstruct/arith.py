"""Small exact helpers: divisors, Moebius, Euler phi, Bernoulli, binary powers."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"divisors() needs n >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def moebius(n: int) -> int:
    """Moebius function: (-1)^k for squarefree n with k prime factors, else 0."""
    if n < 1:
        raise ValueError(f"moebius() needs n >= 1, got {n}")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def euler_phi(n: int) -> int:
    """Number of integers in 1..n coprime to n."""
    if n < 1:
        raise ValueError(f"euler_phi() needs n >= 1, got {n}")
    result = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (convention B_1 = -1/2).

    Computed from sum_{j=0}^{m} C(m+1, j) B_j = 0 with B_0 = 1.
    """
    if m < 0:
        raise ValueError(f"bernoulli() needs m >= 0, got {m}")
    if m == 0:
        return Fraction(1)
    acc = sum(comb(m + 1, j) * bernoulli(j) for j in range(m))
    return Fraction(-acc, m + 1)


def binary_power(base, n: int, one):
    """base^n for an integer n >= 0 by square-and-multiply from ``one``;
    squares only while higher bits of n remain."""
    result = one
    while n:
        if n & 1:
            result = result * base
        if n > 1:
            base = base * base
        n >>= 1
    return result
