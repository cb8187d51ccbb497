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
outright as one block of images; the p-power-order rows are found by
walking the generators' images along every row at once, and each class
representative is conjugated by the whole block at once.  The per-group
counts stay those of checking every cyclic subgroup <alpha> in turn: they
are class-weighted totals (see PairStats).  For
elementary abelian groups whose GL is too large to enumerate, the
p-power-order automorphisms are exactly the unipotent matrices, one
conjugacy class per Jordan type; the harness checks the block-diagonal
representative of each partition.  Completeness of those representatives is
classical linear algebra, cross-checked by full enumeration at small sizes
in the test suite.

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

from ._arith import is_p_power, is_prime, orbit_labels, p_power_rows, perm_power
from .autos import _aut_images
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


@dataclass
class PairStats:
    """Counts for one abelian group.

    On the exhaustive route the counts are class-weighted totals: one alpha
    is checked per Aut-conjugacy class of cyclic subgroups <alpha>, and the
    counts are those that checking every such subgroup would give.
    alphas: the cyclic p-power-order subgroups <alpha> (Jordan route: the
        Jordan representatives).
    candidates: the betas built, summed over the subgroups; for one <alpha>
        that is the product over the basis of the <alpha>-orbit sizes.
    pairs: the valid (alpha, beta) pairs found, summed over the subgroups.
    """

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
    orbit = orbit_labels(alpha[None])  # the least member of each <alpha>-orbit
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
        if not np.array_equal(orbit[beta], orbit):
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


def _aut_block(group: Group, p: int) -> tuple:
    """Aut(G) as one int32 (|Aut| x n) block of images, the mask of its
    p-power-order rows, and the block of inverses.  An automorphism is
    determined by its images of the generators, so only their columns decide
    the mask."""
    n = group.order
    auts = _aut_images(group)
    p_rows = p_power_rows(auts, p, group.generating_sequence())
    inv = np.empty_like(auts)
    inv[np.arange(len(auts))[:, None], auts] = np.arange(n, dtype=auts.dtype)
    return auts, p_rows, inv


# Elements per gather in _conjugates, which bounds its temporaries.
CONJUGATE_ELEMENTS = 1 << 17


def _conjugates(auts: np.ndarray, inv: np.ndarray, x: np.ndarray) -> dict:
    """The distinct rows sigma x sigma^-1 = S[sigma, x[S^-1[sigma]]], as bytes,
    each with the first sigma in block order that gives it."""
    m, n = auts.shape
    row = np.dtype((np.void, auts.itemsize * n))
    step = max(1, CONJUGATE_ELEMENTS // n)
    first: dict = {}
    for lo in range(0, m, step):
        flat_index = x[inv[lo:lo + step]]
        flat_index += np.arange(lo * n, lo * n + flat_index.size, n,
                                dtype=flat_index.dtype)[:, None]
        keys = auts.ravel()[flat_index].view(row).ravel().tolist()
        block = dict(zip(reversed(keys), range(lo + len(keys) - 1, lo - 1, -1)))
        block.update(first)  # an earlier sigma wins
        first = block
    return first


def _exhaustive_classes(group: Group, basis, p: int):
    """One generator per Aut-conjugacy class of cyclic p-power-order subgroups.

    Yields (u, size, candidates): u generates the first subgroup of its class
    in enumerate_aut order, size is the number of subgroups in the class,
    and candidates is the class total of the count that _pairs_for_alpha
    makes for one generator of each subgroup.

    Each subgroup of the class holds the same number j of conjugates of u
    (sigma carries those in <u> onto those in sigma<u>sigma^-1), so the class
    has (distinct conjugates of u) / j subgroups.  The
    <sigma u sigma^-1>-orbit of b is sigma applied to the <u>-orbit of
    sigma^-1(b), so the candidate count of sigma<u>sigma^-1 is the product of
    the <u>-orbit sizes at the points sigma^-1(b_i).
    """
    auts, p_rows, inv = _aut_block(group, p)
    ident = np.arange(group.order, dtype=auts.dtype)
    covered: set = set()  # every generator of every subgroup already classed
    for u in auts[p_rows]:
        if u.tobytes() in covered:
            continue
        powers = [u]  # u^1 .. u^|u|
        while not np.array_equal(powers[-1], ident):
            powers.append(u[powers[-1]])
        gens = [g for k, g in enumerate(powers, 1) if k % p]
        first = _conjugates(auts, inv, u)
        covered.update(first)
        for g in gens[1:]:
            if g.tobytes() not in covered:  # else conjugate to an earlier generator
                covered.update(_conjugates(auts, inv, g))
        per_subgroup = sum(g.tobytes() in first for g in gens)
        orbit = orbit_labels(u[None])
        orbit_size = np.bincount(orbit)[orbit]
        sigmas = np.fromiter(first.values(), dtype=np.intp, count=len(first))
        products = orbit_size[inv[sigmas[:, None], basis]].prod(axis=1)
        yield (u.astype(np.int64), len(first) // per_subgroup,
               int(products.sum()) // per_subgroup)


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
        if jordan:
            classes = ((alpha, 1, None) for alpha in _jordan_alphas(p, r))
        else:
            classes = _exhaustive_classes(group, basis, p)
        for alpha, size, candidates in classes:
            rep = PairStats(factors=stats.factors, route=stats.route)
            bad = _pairs_for_alpha(group, basis, digits, alpha, p, rep)
            stats.alphas += size
            stats.candidates += rep.candidates if candidates is None else candidates
            stats.pairs += size * rep.pairs
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
