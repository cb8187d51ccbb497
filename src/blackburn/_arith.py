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


def p_power_mask(values, p: int, bound: int) -> np.ndarray:
    """Whether each of `values`, positive integers at most `bound`, is a
    power of p: exactly when it divides the largest power of p not above
    bound (p itself when p > bound, which only 1 divides)."""
    top = p
    while top * p <= bound:
        top *= p
    return top % np.asarray(values) == 0


def p_part(n: int, p: int) -> int:
    """The largest power of p dividing n >= 1; it lies below p**bit_length(n)."""
    return gcd(n, p ** n.bit_length())


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


def perm_powers(perm: np.ndarray, k: int) -> np.ndarray:
    """The (k x n) array whose row i is perm^i, for i = 0..k-1; keeps perm's
    dtype.  The rows double at each step: rows m .. 2m-1 are perm^m applied
    after rows 0 .. m-1, one gather."""
    out = np.empty((k, perm.size), dtype=perm.dtype)
    out[:1] = np.arange(perm.size)
    m, step = 1, perm  # step is perm^m
    while m < k:
        top = min(2 * m, k)
        out[m:top] = step[out[: top - m]]
        m, step = top, step[step]
    return out


def power_agreement(perm: np.ndarray, target: np.ndarray, k: int) -> tuple:
    """Where `target` agrees with some perm^i, i = 0..k-1, as a bool array
    over the points, and the least i with target == perm^i everywhere, or
    None.

    The powers are walked one intp array at a time, so no (k x n) stack is
    made.  The walk stops at the first i where target == perm^i, since the
    mask is then true everywhere.
    """
    perm = np.asarray(perm, dtype=np.intp)
    target = np.asarray(target)
    cur = np.arange(perm.size)
    somewhere = np.zeros(perm.size, dtype=bool)
    for i in range(k):
        hit = cur == target
        if hit.all():
            return np.ones(perm.size, dtype=bool), i
        somewhere |= hit
        cur = perm[cur]
    return somewhere, None


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


def orbit_labels(perms: np.ndarray) -> np.ndarray:
    """The least member of each point's orbit under the group generated by
    the rows of `perms`, permutations of 0..n-1.

    Labels start as the points themselves.  Each generator pulls the smaller
    label back along its arrows (lab = min(lab, lab[perm])), and lab =
    lab[lab] jumps to the label's own label, until nothing changes.  A label
    stays a member of its point's orbit and never grows.  At the fixed point
    lab[x] <= lab[perm[x]] for every x and generator, so the label is
    constant on each cycle of each generator, hence on each orbit, and
    there it is the least member m, since lab[m] <= m.
    """
    perms = np.asarray(perms, dtype=np.intp)
    lab = np.arange(perms.shape[1])
    while True:
        new = lab
        for perm in perms:
            new = np.minimum(new, new[perm])
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def cycle_lengths(block: np.ndarray, points, limit: int) -> np.ndarray:
    """The (rows x |points|) array of the lengths of the cycles through
    `points` in each row of a block of permutations: the first step at which
    each point returns to itself, or limit + 1 for a point that has not
    returned after `limit` steps.

    The points are walked along every row at once, one (rows x |points|)
    gather per step, until every point has returned or `limit` steps are
    made.  Rows must be permutations; any other row may never bring a point
    back.
    """
    n = block.shape[1]
    flat = block.ravel()
    offsets = np.arange(0, block.size, n)[:, None]  # row i starts at i * n
    start = np.asarray(points, dtype=np.intp) + offsets
    lengths = np.zeros(start.shape, dtype=np.intp)
    cur, away = start, np.ones(start.shape, dtype=bool)
    for _ in range(limit):
        if not away.any():
            break
        lengths += away
        cur = flat[cur] + offsets
        away &= cur != start
    lengths += away  # a cycle longer than limit reads limit + 1
    return lengths
