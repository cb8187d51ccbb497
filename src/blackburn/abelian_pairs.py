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
outright as one block of images.  An automorphism is determined by its
images of the basis, so the block is read there: the cycle lengths of every
row at the basis give its order and its candidate count, and one int64 key
per row (its basis images in radix n) names it.  The class of <u> is the set
of rows whose keys are among the conjugates of the generators of <u>, which
are gathered at the basis for the whole block at once.  The per-group
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
orbit members share the basis element's order.  All the candidates for one
alpha are built as one block, and each hypothesis is checked on the whole
block at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ._arith import cycle_lengths, is_p_power, is_prime, orbit_labels, p_power_mask, perm_power
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
    idx = np.arange(n, dtype=np.int32)
    table = np.zeros((n, n), dtype=np.int32)
    digits = []
    for f, w in zip(factors, weights):
        d = (idx // w) % f
        digits.append(d)
        table += ((d[:, None] + d[None, :]) % f) * w
    return Group(table), weights, digits


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
    """Check every beta valid for <alpha>; returns a counterexample or None.

    The candidates are one (candidates x n) block.  Candidate c sends b_i to
    alpha^e_i(b_i), for its exponents e_i along the <alpha>-orbit of b_i in
    itertools.product order, and g = sum d_i(g) b_i to the sum of the
    d_i(g)-th powers of those images.  Each check then keeps the rows that
    pass it; the survivors are automorphisms, so their order and whether
    they are powers of alpha show at the basis.
    """
    n, r = group.order, len(basis)
    orbit = orbit_labels(alpha[None])  # the least member of each <alpha>-orbit
    lengths = np.bincount(orbit)[orbit[basis]]
    walk = [np.asarray(basis)]  # row k holds alpha^k(b_i)
    for _ in range(lengths.max() - 1):
        walk.append(alpha[walk[-1]])
    exps = np.array(list(itertools.product(*map(range, lengths))), dtype=np.intp)
    images = np.stack(walk)[exps, np.arange(r)]
    stats.alphas += 1
    stats.candidates += len(exps)
    t = group.table
    _, block = group._power_block()
    powers = np.concatenate([np.zeros((1, n), dtype=t.dtype), block])  # row j holds x^j
    betas = powers[digits[0], images[:, :1]]
    for i in range(1, r):
        betas = t[betas, powers[digits[i], images[:, i:i + 1]]]
    checks = (
        lambda b: (orbit[b] == orbit).all(axis=1),  # pointwise a power of alpha
        lambda b: (b[:, alpha] == alpha[b]).all(axis=1),  # commutes with alpha
        lambda b: (np.sort(b, axis=1) == np.arange(n)).all(axis=1),  # bijective
        lambda b: p_power_mask(cycle_lengths(b, basis), p, n).all(axis=1),  # p-power order
    )
    for check in checks:
        keep = check(betas)
        betas, exps = betas[keep], exps[keep]
    stats.pairs += len(betas)
    # beta = alpha^k exactly when e_i = k mod |orbit of b_i| for every i
    alpha_exps = np.arange(math.lcm(*lengths.tolist()))[:, None] % lengths
    is_power = (exps[:, None, :] == alpha_exps).all(axis=2).any(axis=1)
    bad = np.flatnonzero(~is_power)
    return betas[bad[0]] if bad.size else None


# -- alpha representatives -------------------------------------------------------


def _conjugacy(auts: np.ndarray, basis):
    """For the block of all of Aut(G), the function taking a (k x n) block of
    automorphisms xs to the mask of the rows of auts conjugate to a row of xs.

    An automorphism is determined by its images of the basis, so each row is
    keyed by one int64, sum img[b_i] n^i (exact while n^|basis| < 2^63, far
    beyond any Aut(G) that can be enumerated).  The conjugates sigma x sigma^-1
    send b to S[sigma, x[S^-1[sigma, b]]]: one (k x |Aut| x |basis|) gather,
    whose keys are looked up among the sorted keys of the block.
    """
    m, n = auts.shape
    weights = n ** np.arange(len(basis), dtype=np.int64)
    keys = auts[:, basis] @ weights
    rank = np.argsort(keys)
    inv = np.empty_like(auts)
    inv[np.arange(m)[:, None], auts] = np.arange(n, dtype=auts.dtype)
    inv_basis = inv[:, basis]
    offsets = np.arange(0, auts.size, n)[:, None]  # row sigma starts at sigma * n
    flat = auts.ravel()

    def conjugates(xs: np.ndarray) -> np.ndarray:
        at_basis = flat[xs[:, inv_basis] + offsets]
        mask = np.zeros(m, dtype=bool)
        mask[rank[np.searchsorted(keys, at_basis @ weights, sorter=rank)]] = True
        return mask

    return conjugates


def _exhaustive_classes(group: Group, basis, p: int):
    """One generator per Aut-conjugacy class of cyclic p-power-order subgroups.

    Yields (u, size, candidates): u generates the first subgroup of its class
    in enumerate_aut order, size is the number of subgroups in the class,
    and candidates is the class total of the count that _pairs_for_alpha
    makes for one generator of each subgroup.

    Aut(G) is one block of images, and the cycle lengths of its rows at the
    basis give each row's p-power order and its candidate count (the
    product of its basis orbit sizes).  The rows conjugate to the generators
    u^k (k prime to p) of <u> are exactly the phi(|u|) generators of each
    subgroup in the class, which share their orbits, so both totals are
    sums over those rows divided by phi(|u|).
    """
    auts = _aut_images(group)
    lengths = cycle_lengths(auts, basis)
    products = lengths.prod(axis=1)
    covered = ~p_power_mask(lengths, p, group.order).all(axis=1)  # only p-power rows are classed
    conjugates = _conjugacy(auts, basis)
    while not covered.all():
        row = int(np.argmin(covered))  # the least row not yet classed
        gens = [k for k in range(1, int(lengths[row].max()) + 1) if k % p]
        members = conjugates(np.stack([perm_power(auts[row], k) for k in gens]))
        covered |= members
        yield (auts[row], int(members.sum()) // len(gens),
               int(products[members].sum()) // len(gens))


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
    # the violating pair, by its group and the basis images of alpha and beta
    counterexample: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    @property
    def total_pairs(self) -> int:
        return sum(s.pairs for s in self.stats)


def pointwise_power_harness(p: int, max_order: int) -> PairHarnessReport:
    """Check that pointwise-power implies power on every abelian p-group <= cap.

    The scan stops at the first violating pair (none exist): the report
    names it in `counterexample`, and its `ok` is False."""
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
                report.counterexample = (
                    f"pointwise-power pair on {factors} is not a global power: alpha "
                    f"sends the basis {basis} to {alpha[basis].tolist()}, beta to "
                    f"{bad[basis].tolist()}")
                report.stats.append(stats)
                return report
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
