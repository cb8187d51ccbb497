"""Exhaustive check: on abelian p-groups, pointwise powers are global powers.

For commuting automorphisms alpha, beta of p-power order on a finite abelian
p-group, if every element's beta-image is some alpha-power of that element,
then beta lies in <alpha>.  The harness verifies this with zero tolerance
over a scope of abelian p-groups, and confirms the nonabelian contrast case
where the hypotheses hold but the conclusion fails.

Enumeration strategy.  The hypotheses and the conclusion depend only on the
cyclic group <alpha>, and conjugating a valid pair by any automorphism gives
a valid pair again, so one generator per Aut-conjugacy class of cyclic
p-power-order subgroups suffices.  |Aut(A)| is known beforehand from the
closed form of Hillar and Rhea; up to EXHAUSTIVE_AUT_CAP, Aut(A) is built
outright as one block of images, from the basis images of the basis
elements' orders that give an injective map (the generic image search of
`autos` stays the oracle in the tests).  An automorphism is determined by
its images of the basis, so the block is read there: the cycle lengths of
every row at the basis give its order and its candidate count, and one
int64 key per row (its basis images in radix n) names it; the block comes
out sorted by that key.  Conjugation commutes with powers, so the class of
<u> is the set of powers x^k, k prime to p, of the rows x conjugate to u:
u alone is conjugated by the whole block, gathered at the basis, and the
powers are read from one table of the powers of every p-power row, walked
at the basis too.  The per-group counts stay those of
checking every cyclic subgroup <alpha> in turn: they are class-weighted
totals (see PairStats).  For elementary abelian groups whose GL is too
large to enumerate, the p-power-order automorphisms are exactly the
unipotent matrices, one conjugacy class per Jordan type; the harness checks
the block-diagonal representative of each partition.  Completeness of those
representatives is classical linear algebra, cross-checked by full
enumeration at small sizes in the test suite.  Any other group over the cap
is refused with OrderCap before it is built.

Given alpha, candidate betas are found without scanning Aut(G): beta must
send each basis element into its <alpha>-orbit, and a choice of orbit images
determines at most one endomorphism, automatically well defined because
orbit members share the basis element's order.  The candidates of every
alpha of a group are built as one block, each row tagged with its alpha,
and each hypothesis is checked on the whole block at once, each row against
its own alpha.  So the pairs of a group cost a fixed number of whole-block
passes, however many classes it has.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ._arith import cycle_lengths, is_p_power, is_prime, orbit_labels, p_power_mask
from .autos import locally_power, power_of
from .core import BLOCK_ELEMENTS, Group, check_table_order
from .counterexample import build_witness
from .errors import CounterexampleFound, OrderCap

EXHAUSTIVE_AUT_CAP = 25000


def abelian_group(factors: Sequence[int]) -> tuple:
    """Direct product of cyclic groups with mixed-radix element indices.

    Returns (group, basis): basis[i] is the index of the i-th factor
    generator, the product of the later factors, so the elements of the last
    factors come first.
    """
    factors = [int(f) for f in factors]
    n = 1
    for f in factors:
        n *= f
    check_table_order(n)
    weights = []
    w = n
    for f in factors:
        w //= f
        weights.append(w)
    idx = np.arange(n, dtype=np.int32)
    table = np.zeros((n, n), dtype=np.int32)
    for f, w in zip(factors, weights):
        d = (idx // w) % f
        table += ((d[:, None] + d[None, :]) % f) * w
    return Group(table), weights


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


def abelian_aut_order(p: int, exponents: Sequence[int]) -> int:
    """|Aut(A)| for A the direct sum of cyclic groups of orders p^e, e in
    `exponents`, by the closed form of Hillar and Rhea, "Automorphisms of
    finite abelian groups", Amer. Math. Monthly 114 (2007).

    With e_1 <= ... <= e_m, d_k = max{l : e_l = e_k} and c_k = min{l : e_l = e_k},
    |Aut(A)| = prod_k (p^d_k - p^(k-1)) p^(e_k (m - d_k)) p^((e_k - 1)(m - c_k + 1)).
    """
    e = sorted(exponents)
    m = len(e)
    out = 1
    for k, ek in enumerate(e, 1):
        d, c = bisect_right(e, ek), bisect_left(e, ek) + 1
        out *= (p**d - p ** (k - 1)) * p ** (ek * (m - d)) * p ** ((ek - 1) * (m - c + 1))
    return out


def gl_order(p: int, r: int) -> int:
    return abelian_aut_order(p, [1] * r)


def _extend_rows(group: Group, rows: np.ndarray, images: np.ndarray, order: int) -> np.ndarray:
    """Homomorphisms extended by one basis element, as one block.

    In `abelian_group`'s mixed radix the elements 0..s-1 are the subgroup of
    the last factors, and the next basis element b = s, of the given order,
    extends it to 0..order*s-1.  Row i of the (k x s) block `rows` holds the
    images of 0..s-1, and images[i] is an image of b of b's order; row i of
    the (k x order*s) result sends d*s + y to images[i]^d rows[i, y].  That
    is one gather through the power block and one through the flat table,
    made BLOCK_ELEMENTS result entries at a time.
    """
    n, (k, s) = group.order, rows.shape
    _, block = group._power_block()
    pw = block[(np.arange(order) - 1) % order]  # row d holds x^d; the block's row j-1 holds x^j
    flat = group.table.ravel()
    out = np.empty((k, order * s), dtype=rows.dtype)
    step = max(1, BLOCK_ELEMENTS // (order * s))
    for lo in range(0, k, step):
        at = pw[:, images[lo:lo + step]].T.astype(np.intp) * n  # (rows x order) row offsets
        out[lo:lo + step] = flat[at[:, :, None] + rows[lo:lo + step, None, :]].reshape(-1, order * s)
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


def _pairs_for_alphas(group: Group, basis, alphas: np.ndarray, p: int) -> tuple:
    """Check every beta valid for each <alpha>, for the rows alpha of the
    (k x n) block `alphas` at once.

    Returns (candidates, pairs, bad): the candidates built and the valid
    pairs found for each alpha, as length-k arrays, and (i, beta) for the
    first counterexample in the order of the rows and of their candidates,
    or None.

    Candidate c of alpha sends b_i to alpha^e_i(b_i), for its exponents e_i
    along the <alpha>-orbit of b_i in itertools.product order, and g = sum
    d_i(g) b_i to the sum of the d_i(g)-th powers of those images.  The
    candidates of all the alphas are one (candidates x n) block, in the
    order of the alphas, with the row of its alpha beside each; it is built
    by one `_extend_rows` chain, one basis element at a time from the last.
    The orbits of every alpha come from one `orbit_labels` call on their
    disjoint union, alpha_i shifted to i*n..(i+1)*n-1.  Each check then keeps
    the rows that pass it against their own alpha; the survivors are
    automorphisms, so their order and whether they are powers of alpha show
    at the basis.
    """
    (k, n), r = alphas.shape, len(basis)
    offsets = np.arange(0, k * n, n)[:, None]  # alpha_i moves i*n..(i+1)*n-1 in the union
    union = (alphas + offsets).ravel()
    labels = orbit_labels(union[None])  # the least member of each orbit of the union
    lengths = np.bincount(labels, minlength=k * n)[labels.reshape(k, n)[:, basis]]  # (k x r)
    walk = [np.asarray(basis) + offsets]  # row j holds alpha_i^j(b_i), in the union
    for _ in range(lengths.max() - 1):
        walk.append(union[walk[-1]])
    exps = np.concatenate([np.indices(ln).reshape(r, -1).T for ln in lengths.tolist()])
    seg = np.repeat(np.arange(k), lengths.prod(axis=1))  # the alpha of each candidate
    images = np.stack(walk)[exps, seg[:, None], np.arange(r)] - offsets[seg]
    orders, _ = group._power_block()
    betas = np.zeros((len(exps), 1), dtype=group.table.dtype)  # the images of {0}
    for i in reversed(range(r)):
        betas = _extend_rows(group, betas, images[:, i], int(orders[basis[i]]))
    limit = _cycle_limit(p, n)
    checks = (  # candidate rows b, each against its own alpha s
        lambda b, s: (labels[b + offsets[s]] == labels.reshape(k, n)[s]).all(axis=1),  # pointwise
        lambda b, s: (np.take_along_axis(b, alphas[s], axis=1)
                      == alphas.ravel()[b + offsets[s]]).all(axis=1),  # commutes with alpha
        lambda b, s: (np.sort(b, axis=1) == np.arange(n)).all(axis=1),  # bijective
        lambda b, s: p_power_mask(cycle_lengths(b, basis, limit), p, n).all(axis=1),  # p-power
    )
    for check in checks:
        keep = check(betas, seg)
        betas, exps, seg = betas[keep], exps[keep], seg[keep]
    # the orbit lengths are powers of p, so the longest is their lcm, and
    # beta = alpha^m exactly when m = e_top and e_i = e_top mod |orbit of b_i|
    e_top = exps[np.arange(len(exps)), lengths.argmax(axis=1)[seg]]
    bad = np.flatnonzero(((exps - e_top[:, None]) % lengths[seg] != 0).any(axis=1))
    return (lengths.prod(axis=1), np.bincount(seg, minlength=k),
            (int(seg[bad[0]]), betas[bad[0]]) if bad.size else None)


# -- alpha representatives -------------------------------------------------------


def abelian_automorphisms(group: Group, basis) -> np.ndarray:
    """Aut(A) for (A, basis) from `abelian_group`: the images of every
    automorphism, one row each, in ascending order of the key
    sum img[b_i] n^i of `_row_keys`.

    An automorphism of A is a choice of basis images of the basis elements'
    orders whose homomorphism is injective (Hillar and Rhea, cited at
    `abelian_aut_order`).  The rows are built from the last basis element
    to the first, as the injective homomorphisms of the subgroup 0..s-1 of
    the factors done so far.  Each
    row is extended by every image of the next basis element b that has b's
    order (an automorphism preserves orders), ascending; the extension is
    a homomorphism by construction.  It is injective when only 0 maps to 0,
    and d*b + y maps to 0 exactly when img^d is the inverse of an image of
    the row, so an extension is kept when no power img^d, 0 < d < |b|, is
    among the row's images.  Only the kept ones are built, by
    `_extend_rows`.  Rows extend row-major, so each new basis image is less
    significant than those already chosen, and the keys come out ascending.
    """
    n = group.order
    orders, block = group._power_block()
    rows = np.zeros((1, 1), dtype=group.table.dtype)  # the images of {0}
    for b in reversed(basis):
        f = int(orders[b])
        images = np.flatnonzero(orders == f)
        seen = np.zeros((len(rows), n), dtype=bool)
        seen[np.arange(len(rows))[:, None], rows] = True
        pairs = np.flatnonzero(~seen[:, block[: f - 1, images]].any(axis=1))  # (row, image), row-major
        src, img = np.divmod(pairs, images.size)
        rows = _extend_rows(group, rows[src], images[img], f)
    return rows


def _row_keys(auts: np.ndarray, basis) -> tuple:
    """(weights, keys) of a block of automorphisms: an automorphism is
    determined by its images of the basis, so each row is keyed by one
    int64, keys = sum img[b_i] * weights[i] with weights[i] = n^i (exact
    while n^|basis| < 2^63, far beyond any Aut(G) that can be enumerated)."""
    weights = auts.shape[1] ** np.arange(len(basis), dtype=np.int64)
    return weights, auts[:, basis] @ weights


def _conjugacy(auts: np.ndarray, basis, weights: np.ndarray, keys: np.ndarray):
    """For the block of all of Aut(G), in ascending order of its `_row_keys`
    (as `abelian_automorphisms` gives it), the function taking a (k x n)
    block of automorphisms xs to the mask of the rows of auts conjugate to
    a row of xs.

    The conjugates sigma x sigma^-1 send b to S[sigma, x[S^-1[sigma, b]]]:
    one (k x |Aut|) gather per basis element, whose keys are looked up
    among the keys of the block.  S^-1[sigma, b] is the one point that row
    sigma sends to b.
    """
    m, n = auts.shape
    inv_basis = [np.argmax(auts == b, axis=1) for b in basis]  # column i holds S^-1[sigma, b_i]
    offsets = np.arange(0, auts.size, n)  # row sigma starts at sigma * n
    flat = auts.ravel()

    def conjugates(xs: np.ndarray) -> np.ndarray:
        at_basis = np.zeros((len(xs), m), dtype=np.int64)
        for w, inv in zip(weights, inv_basis):  # one (k x |Aut|) gather per basis element
            at_basis += flat[xs[:, inv] + offsets] * w
        mask = np.zeros(m, dtype=bool)
        mask[np.searchsorted(keys, at_basis)] = True
        return mask

    return conjugates


def _cycle_limit(p: int, n: int) -> int:
    """The largest power of p below n, at least 1.  An automorphism of a
    group of order n fixes 0, so each of its cycles has length below n, and
    one of p-power length is no longer than this.  `cycle_lengths` reads a
    longer cycle as this plus 1, which is then below n too, and so no power
    of p."""
    top = 1
    while top * p < n:
        top *= p
    return top


def _exhaustive_classes(group: Group, basis, p: int) -> tuple:
    """One generator per Aut-conjugacy class of cyclic p-power-order subgroups.

    Returns (reps, sizes, candidates): row i of the block reps generates the
    first subgroup of its class in the key order of `abelian_automorphisms`,
    sizes[i] is the number of subgroups in the class, and candidates[i] is
    the class total of the count that `_pairs_for_alphas` makes for one
    generator of each subgroup.

    Aut(G) is one block of images, and the cycle lengths of its rows at the
    basis give each row's p-power order and its candidate count (the
    product of its basis orbit sizes).  Conjugation commutes with powers,
    so the rows conjugate to the generators u^k (k prime to p) of <u> are
    the powers x^k of the rows x conjugate to u: exactly the phi(|u|)
    generators of each subgroup in the class, which share their orbits.
    Both totals are sums over those rows divided by phi(|u|).  u alone is
    conjugated by the whole block, and the powers are read from
    `_power_rows`.
    """
    auts = abelian_automorphisms(group, basis)
    n = group.order
    limit = _cycle_limit(p, n)
    lengths = cycle_lengths(auts, basis, limit)
    products = lengths.prod(axis=1)
    covered = ~p_power_mask(lengths, p, n).all(axis=1)  # only p-power rows are classed
    ppower = np.flatnonzero(~covered)
    slot = np.zeros(len(auts), dtype=np.intp)
    slot[ppower] = np.arange(ppower.size)  # the row of each p-power row in the power table
    weights, keys = _row_keys(auts, basis)
    powers = _power_rows(auts, basis, ppower, int(lengths[ppower].max()), weights, keys)
    conjugates = _conjugacy(auts, basis, weights, keys)
    reps, sizes, candidates = [], [], []
    while not covered.all():
        row = int(np.argmin(covered))  # the least row not yet classed
        order = int(lengths[row].max())
        units = [k for k in range(1, order) if k % p] or [0]  # the generators of <u> are u^k
        members = np.zeros(len(auts), dtype=bool)
        members[powers[slot[conjugates(auts[row][None])]][:, units]] = True
        covered |= members
        reps.append(row)
        sizes.append(int(members.sum()) // len(units))
        candidates.append(int(products[members].sum()) // len(units))
    return auts[reps], np.array(sizes, dtype=np.int64), np.array(candidates, dtype=np.int64)


def _power_rows(auts: np.ndarray, basis, rows: np.ndarray, top: int,
                weights: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The (|rows| x top) table whose entry [j, k] is the row of auts that is
    auts[rows[j]]^k.

    The powers are walked at the basis only, along the given rows: one
    (|rows| x |basis|) gather per step.  Each power is looked up by its key
    among the ascending `_row_keys` of the block.
    """
    n = auts.shape[1]
    flat = auts.ravel()
    offsets = rows[:, None].astype(np.intp) * n
    table = np.empty((rows.size, top), dtype=np.intp)
    cur = np.broadcast_to(np.asarray(basis, dtype=np.intp), (rows.size, len(basis)))
    for k in range(top):  # cur holds the basis images of rows^k
        table[:, k] = np.searchsorted(keys, cur @ weights)
        cur = flat[offsets + cur]
    return table


def _route(p: int, factors: Sequence[int], cap: int) -> str:
    """How the harness covers A, the product of cyclic groups of the orders
    `factors`: "exhaustive" while |Aut(A)| <= cap, "jordan" for an
    elementary abelian A above it.  Any other A above the cap raises
    OrderCap, before A or Aut(A) is built."""
    size = abelian_aut_order(p, [round(math.log(f, p)) for f in factors])
    if size <= cap:
        return "exhaustive"
    if is_elementary(factors):
        return "jordan"
    raise OrderCap(f"pointwise-power harness: |Aut| of {list(factors)} is {size}, "
                   f"over the exhaustive cap {cap}")


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

    A group in scope whose Aut(A) is over EXHAUSTIVE_AUT_CAP and that is not
    elementary abelian raises OrderCap before it is built.  The scan stops
    at the first violating pair (none exist): the report names it in
    `counterexample`, and its `ok` is False."""
    report = PairHarnessReport(prime=p)
    for factors in abelian_scope(p, max_order):
        route = _route(p, factors, EXHAUSTIVE_AUT_CAP)
        group, basis = abelian_group(factors)
        if route == "jordan":
            alphas = np.stack(_jordan_alphas(p, len(factors)))
            sizes = totals = None
        else:
            alphas, sizes, totals = _exhaustive_classes(group, basis, p)
        candidates, pairs, bad = _pairs_for_alphas(group, basis, alphas, p)
        if sizes is None:  # one alpha per Jordan type, each counted once
            sizes, totals = np.ones_like(pairs), candidates
        done = len(alphas) if bad is None else bad[0] + 1  # the scan stops at a failing alpha
        report.stats.append(PairStats(
            factors=tuple(factors), route=route, alphas=int(sizes[:done].sum()),
            candidates=int(totals[:done].sum()), pairs=int((sizes * pairs)[:done].sum())))
        if bad is not None:
            i, beta = bad
            report.counterexample = (
                f"pointwise-power pair on {factors} is not a global power: alpha "
                f"sends the basis {basis} to {alphas[i][basis].tolist()}, beta to "
                f"{beta[basis].tolist()}")
            return report
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
