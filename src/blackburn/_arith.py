"""Integer and permutation arithmetic shared by the modules of the toolkit."""

from __future__ import annotations

from math import gcd

import numpy as np


def prime_divisors(n: int) -> list:
    """The distinct primes dividing n, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, int(p**0.5) + 1))


def is_p_power(n: int, p: int) -> bool:
    """True when n >= 1 is a power of p (including p^0 = 1)."""
    while n % p == 0:
        n //= p
    return n == 1


def perm_power(perm: np.ndarray, times: int) -> np.ndarray:
    """perm composed with itself `times` times, by squaring; keeps perm's dtype."""
    out = np.arange(perm.size, dtype=perm.dtype)
    base = perm
    while times:
        if times & 1:
            out = base[out]
        base = base[base]
        times >>= 1
    return np.array(out)  # a fresh array, also when times == 0


def perm_order(perm: np.ndarray) -> int:
    """Order of a permutation (lcm of cycle lengths)."""
    n = perm.size
    seen = np.zeros(n, dtype=bool)
    out = 1
    for i in range(n):
        if seen[i]:
            continue
        ln, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = int(perm[j])
            ln += 1
        out = out * ln // gcd(out, ln)
    return out


def block_power(block: np.ndarray, times: int) -> np.ndarray:
    """Every row of a permutation block composed with itself `times` times.

    The block form of perm_power: one gather per squaring step for all rows.
    """
    out = np.broadcast_to(np.arange(block.shape[1], dtype=block.dtype), block.shape)
    base = block
    while times:
        if times & 1:
            out = np.take_along_axis(base, out, axis=1)
        base = np.take_along_axis(base, base, axis=1)
        times >>= 1
    return np.array(out)  # a fresh array, also when times == 0


def p_power_rows(block: np.ndarray, p: int) -> np.ndarray:
    """Boolean mask of the rows of a permutation block that have p-power order.

    A permutation of degree n has p-power order exactly when every cycle
    length is a power of p.  Each such length is at most n, so it divides
    the largest power of p not above n, and the row's p-power order shows as
    that power of the row being the identity.
    """
    n = block.shape[1]
    exponent = 1
    while exponent * p <= n:
        exponent *= p
    return (block_power(block, exponent) == np.arange(n)).all(axis=1)
