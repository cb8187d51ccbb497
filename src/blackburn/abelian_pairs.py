"""Exhaustive check: on abelian p-groups, pointwise powers are global powers.

For commuting automorphisms alpha, beta of p-power order on a finite abelian
p-group, if every element's beta-image is some alpha-power of that element,
then beta lies in <alpha>.  The harness verifies this with zero tolerance
over a scope of abelian p-groups, and confirms the nonabelian contrast case
where the hypotheses hold but the conclusion fails.

Enumeration strategy.  The hypotheses and the conclusion depend only on the
cyclic group <alpha>, and conjugating a valid pair by any automorphism gives
a valid pair again, so one generator per Aut-conjugacy class of cyclic
p-power-order subgroups suffices.  Small automorphism groups are enumerated
outright and deduplicated by <alpha>.  For elementary abelian groups whose
GL is too large to enumerate, the p-power-order automorphisms are exactly
the unipotent matrices, one conjugacy class per Jordan type; the harness
checks the block-diagonal representative of each partition.  Completeness
of those representatives is classical linear algebra, cross-checked by full
enumeration at small sizes in the test suite.

Given alpha, candidate betas are found without scanning Aut(G): beta must
send each basis element into its <alpha>-orbit, and a choice of orbit images
determines at most one endomorphism, automatically well defined because
orbit members share the basis element's order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ._arith import is_p_power, is_prime, perm_order, perm_power
from .autos import enumerate_aut
from .core import Group
from .errors import CounterexampleFound

EXHAUSTIVE_AUT_CAP = 25000


def abelian_group(factors: Sequence[int]) -> tuple:
    """Direct product of cyclic groups with mixed-radix element indices.

    Returns (group, basis, digits): basis[i] is the index of the i-th factor
    generator, digits[i] the per-element exponent array for that factor.
    """
    factors = [int(f) for f in factors]
    n = 1
    for f in factors:
        n *= f
    weights = []
    w = n
    for f in factors:
        w //= f
        weights.append(w)
    idx = np.arange(n, dtype=np.int64)
    table = np.zeros((n, n), dtype=np.int64)
    digits = []
    for f, w in zip(factors, weights):
        d = (idx // w) % f
        digits.append(d)
        table += ((d[:, None] + d[None, :]) % f) * w
    return Group(table.astype(np.int32)), weights, digits


def abelian_scope(p: int, max_order: int) -> list:
    """All abelian p-groups of order <= max_order, as cyclic factor lists."""
    out = []
    k = 1
    while p**k <= max_order:
        for part in _partitions(k):
            out.append([p**e for e in part])
        k += 1
    return out


def _partitions(k: int, largest: Optional[int] = None) -> list:
    if k == 0:
        return [[]]
    largest = k if largest is None else largest
    out = []
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, first):
            out.append([first] + rest)
    return out


def gl_order(p: int, r: int) -> int:
    out = 1
    for i in range(r):
        out *= p**r - p**i
    return out


# -- candidates for a fixed alpha ----------------------------------------------


def _orbit_ids(perm: np.ndarray) -> np.ndarray:
    n = perm.size
    cid = np.full(n, -1, dtype=np.int64)
    count = 0
    for i in range(n):
        if cid[i] >= 0:
            continue
        j = i
        while cid[j] < 0:
            cid[j] = count
            j = int(perm[j])
        count += 1
    return cid


@dataclass
class PairStats:
    factors: tuple
    route: str
    alphas: int = 0
    candidates: int = 0
    pairs: int = 0


def _pairs_for_alpha(group: Group, basis, digits, alpha: np.ndarray, p: int,
                     stats: PairStats) -> Optional[np.ndarray]:
    """Check every beta valid for <alpha>; returns a counterexample or None."""
    n = group.order
    t = group.table.astype(np.int64)
    orbit_id = _orbit_ids(alpha)
    powers = [np.arange(n, dtype=np.int64)]
    cur = alpha.astype(np.int64)
    while not np.array_equal(cur, powers[0]):
        powers.append(cur)
        cur = alpha[cur]
    power_bytes = {pw.tobytes() for pw in powers}
    basis_orbits = []
    for b in basis:
        orb = [int(b)]
        x = int(alpha[b])
        while x != orb[0]:
            orb.append(x)
            x = int(alpha[x])
        basis_orbits.append(orb)
    max_pstep = 1
    while p**max_pstep < n:
        max_pstep += 1
    ident = powers[0]
    stats.alphas += 1
    for choice in itertools.product(*basis_orbits):
        stats.candidates += 1
        beta = np.zeros(n, dtype=np.int64)
        for img, d in zip(choice, digits):
            # beta(g) = sum over factors of digit_i(g) * beta(basis_i); well
            # defined because orbit members keep the basis element's order
            fi = group.order_of(int(img))
            pw = [0]
            for _ in range(fi - 1):
                pw.append(group.mul(pw[-1], int(img)))
            beta = t[beta, np.asarray(pw, dtype=np.int64)[d % fi]]
        if not np.array_equal(orbit_id[beta], orbit_id):
            continue  # not pointwise a power of alpha
        if not np.array_equal(beta[alpha], alpha[beta]):
            continue
        if np.bincount(beta, minlength=n).max() != 1:
            continue
        bp = beta
        p_order = False
        for _ in range(max_pstep + 1):
            if np.array_equal(bp, ident):
                p_order = True
                break
            bp = perm_power(bp, p)
        if not p_order:
            continue
        stats.pairs += 1
        if beta.tobytes() not in power_bytes:
            return beta
    return None


# -- alpha representatives -------------------------------------------------------


def _exhaustive_alphas(group: Group, p: int) -> list:
    """One generator per cyclic p-power-order subgroup of Aut(G)."""
    out = []
    seen = set()
    for m in enumerate_aut(group):
        if not is_p_power(m.map_order(), p):
            continue
        img = m.images.astype(np.int64)
        powers = [np.arange(group.order, dtype=np.int64)]
        cur = img
        while not np.array_equal(cur, powers[0]):
            powers.append(cur)
            cur = img[cur]
        key = frozenset(pw.tobytes() for pw in powers)
        if key in seen:
            continue
        seen.add(key)
        out.append(img)
    return out


def is_elementary(factors: Sequence[int]) -> bool:
    return len(set(factors)) == 1 and all(is_prime(f) for f in set(factors))


def jordan_representatives(p: int, r: int) -> list:
    """Unipotent block-diagonal matrices over F_p, one per partition of r."""
    out = []
    for part in _partitions(r):
        mat = np.zeros((r, r), dtype=np.int64)
        pos = 0
        for block in part:
            for i in range(block):
                mat[pos + i, pos + i] = 1
                if i + 1 < block:
                    mat[pos + i, pos + i + 1] = 1
            pos += block
        out.append((tuple(part), mat))
    return out


def matrix_to_perm(mat: np.ndarray, p: int, r: int) -> np.ndarray:
    """Index permutation of F_p^r (mixed radix, factor 0 most significant)."""
    n = p**r
    idx = np.arange(n, dtype=np.int64)
    weights = [p ** (r - 1 - i) for i in range(r)]
    coords = np.stack([(idx // w) % p for w in weights], axis=1)
    img = coords @ mat % p
    out = np.zeros(n, dtype=np.int64)
    for i, w in enumerate(weights):
        out += img[:, i] * w
    return out


def _jordan_alphas(p: int, r: int) -> list:
    return [matrix_to_perm(mat, p, r) for _, mat in jordan_representatives(p, r)]


# -- harness ---------------------------------------------------------------------


@dataclass
class PairHarnessReport:
    prime: int
    stats: List[PairStats] = field(default_factory=list)
    counterexample: Optional[tuple] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    @property
    def total_pairs(self) -> int:
        return sum(s.pairs for s in self.stats)


def pointwise_power_harness(p: int, max_order: int) -> PairHarnessReport:
    """Assert pointwise-power implies power over all abelian p-groups <= cap.

    Raises CounterexampleFound on any violating pair (none exist).
    """
    report = PairHarnessReport(prime=p)
    for factors in abelian_scope(p, max_order):
        group, basis, digits = abelian_group(factors)
        r = len(factors)
        jordan = is_elementary(factors) and gl_order(p, r) > EXHAUSTIVE_AUT_CAP
        stats = PairStats(factors=tuple(factors), route="jordan" if jordan else "exhaustive")
        alphas = _jordan_alphas(p, r) if jordan else _exhaustive_alphas(group, p)
        for alpha in alphas:
            bad = _pairs_for_alpha(group, basis, digits, alpha, p, stats)
            if bad is not None:
                report.counterexample = (tuple(factors), alpha.tolist(), bad.tolist())
                report.stats.append(stats)
                raise CounterexampleFound(
                    f"pointwise-power pair on {factors} is not a global power")
        report.stats.append(stats)
    return report


@dataclass(frozen=True)
class ContrastReport:
    """The nonabelian negative case: hypotheses hold, conclusion fails."""

    order: int
    commuting: bool
    p_power_orders: bool
    pointwise: bool
    is_power: bool

    @property
    def ok(self) -> bool:
        return (self.commuting and self.p_power_orders and self.pointwise
                and not self.is_power)


def nonabelian_contrast(p: int = 3) -> ContrastReport:
    """Confirm the expected failure on the nonabelian witness group."""
    from .autos import locally_power, power_of
    from .counterexample import build_witness

    bundle = build_witness(p)
    if bundle.g_group is None:
        raise CounterexampleFound("contrast case needs the table-backed prime")
    g, alpha, beta = bundle.g_group, bundle.alpha, bundle.beta
    ao, bo = alpha.map_order(), beta.map_order()
    return ContrastReport(
        order=g.order,
        commuting=bool(np.array_equal(alpha.images[beta.images], beta.images[alpha.images])),
        p_power_orders=is_p_power(ao, p) and is_p_power(bo, p),
        pointwise=locally_power(g, alpha, beta),
        is_power=power_of(alpha, beta) is not None,
    )


# -- oracle for the Jordan shortcut ----------------------------------------------


def unipotent_class_cover(p: int, r: int) -> tuple:
    """Cross-check by full enumeration that the Jordan representatives hit
    every p-power-order automorphism class of F_p^r exactly once.

    Returns (number of classes, p-power-order element count); raises
    CounterexampleFound on any gap.  Feasible only while GL(r, p) is small.
    """
    group, _, _ = abelian_group([p] * r)
    auts = [m.images.astype(np.int64) for m in enumerate_aut(group)]
    if len(auts) != gl_order(p, r):
        raise CounterexampleFound("automorphism enumeration does not match GL order")
    unipotent = []
    for img in auts:
        if is_p_power(perm_order(img), p):
            unipotent.append(img)
    gens = _generating_subset(auts)
    reps = _jordan_alphas(p, r)
    covered: set = set()
    classes = 0
    for rep in reps:
        if rep.tobytes() in covered:
            raise CounterexampleFound("two Jordan representatives are conjugate")
        orbit = {rep.tobytes(): rep}
        frontier = [rep]
        while frontier:
            nxt = []
            for u in frontier:
                for a in gens:
                    ainv = np.empty_like(a)
                    ainv[a] = np.arange(a.size, dtype=np.int64)
                    conj = a[u[ainv]]
                    key = conj.tobytes()
                    if key not in orbit:
                        orbit[key] = conj
                        nxt.append(conj)
            frontier = nxt
        classes += 1
        covered |= set(orbit)
    if covered != {u.tobytes() for u in unipotent}:
        raise CounterexampleFound("Jordan classes do not cover the unipotent elements")
    return classes, len(unipotent)


def _generating_subset(elements: list) -> list:
    """A small generating subset of a permutation group given in full."""
    gens: list = []
    have = {np.arange(elements[0].size, dtype=np.int64).tobytes()}
    for e in elements:
        if e.tobytes() in have:
            continue
        gens.append(e)
        have.add(e.tobytes())
        # close under products with the new generator set
        stack = [np.frombuffer(b, dtype=np.int64) for b in list(have)]
        while stack:
            x = stack.pop()
            for g in gens:
                y = g[x]
                key = y.tobytes()
                if key not in have:
                    have.add(key)
                    stack.append(y)
        if len(have) == len(elements):
            break
    return gens
