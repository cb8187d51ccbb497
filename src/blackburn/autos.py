"""Automorphism machinery: inner maps, class-preserving enumeration, Out_c.

The enumeration backtracks over images of a canonical generating sequence.
At depth d the subgroup H_d generated by the first d+1 generators is fixed,
so its element list, a product tree of logarithmic depth, and the (element,
generator) product positions are precomputed.  They read only the table
and the generating sequence, so they form one skeleton per group, built by
the first search from it and kept on the group: enumerate_aut,
enumerate_autc and find_isomorphism from one group share it.  The invariant
is each search's own, read on the members of every H_d.  A partial assignment
of generator images determines the images of all of H_d along the tree; it
survives only if it is class-compatible (or order-compatible) and
multiplicative on every (element, generator) pair.  Multiplicativity on
those pairs forces it on all pairs, because every right factor is a word in
the generators.  A survivor is therefore a homomorphism on H_d, and it is
injective, since the invariants used (class ids, element orders, or orders
with square-root counts) tell the identity apart.

The search is evaluated in blocks: all partial assignments of one step form
the rows of one (rows x |H_d|) numpy array, and both checks run on the
whole array.  Rows keep the depth-first order, so the maps come out in the
same order as from a node-by-node search.  A full enumeration uses blocks
of up to BLOCK_ELEMENTS elements from the start; a first-hit search starts
with one row per block and doubles, so it evaluates few rows past its hit.
The node count and the budget count evaluated rows, so a first-hit search
also counts the rows of its blocks that follow its hit.

A search yields its maps as one int32 (maps x |G|) block of images.  Only
the public entry points wrap rows in GroupMaps; _aut_images hands Aut(G) to
the pointwise-power harness as the block itself.  enumerate_aut and
enumerate_autc wrap the rows of their block with GroupMap._rows: the maps
share one verdict, which the first predicate asked of any of them decides
for the whole block, so maps nobody asks about cost no check.  The class
test of is_class_preserving is such a verdict too, decided for the whole
block on its first ask.  find_isomorphism wraps its one hit as a GroupMap,
which, like every map built by hand, is a block of one row.

The class-preserving enumeration searches only the stabilizer S of the
first generator g0: every class-preserving map sends g0 into its class,
and conjugation reaches every member of that class, so Aut_c(G) is the
disjoint union of the inner cosets c_x o S, one per conjugate of g0.  Its
node count and budget count only the rows of the stabilizer search.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._arith import is_p_power, p_part, perm_power, power_agreement, prime_divisors
from .core import BLOCK_ELEMENTS, Action, Group, GroupMap
from .errors import (
    NoWitness,
    NotAutomorphism,
    OrderCap,
    PreconditionFailed,
    SearchBudgetExceeded,
)

AUTC_ORDER_CAP = 4096
DEFAULT_BUDGET = 10**8


def inner_automorphism(g: Group, a: int) -> GroupMap:
    """Conjugation by a: the map x -> a^-1 x a."""
    return GroupMap(g, g, g.conjugates(by=[a])[0])


def is_class_preserving(g: Group, f: GroupMap) -> bool:
    """True when f maps every element into its own conjugacy class: one
    entry of the class verdict of f's block."""
    if f.source is not g or not f.is_automorphism():
        raise NotAutomorphism("map is not an automorphism of the group")
    return f._block.classes()[f._row]


@dataclass(frozen=True)
class AutcReport:
    group: Group
    generating_set: tuple
    autc_order: int
    inn_order: int
    outc_trivial: bool
    witness: Optional[GroupMap]
    # _Search.stats() of the enumeration; not part of the report's value
    search_stats: Optional[dict] = field(default=None, compare=False, repr=False)


# -- generic image search -----------------------------------------------------

REJECT_REASONS = ("invariant", "multiplicativity")


class _DepthInfo:
    """H_d = <gens[:d+1]> with a product tree of logarithmic depth, all of
    its arrays read-only.

    A breadth-first search over the generators gives every member x a
    shortest word, of length L.  For L >= 2 the word's prefix of length P,
    the largest power of two below L, is a member u, and x = u * v where
    v = u^-1 x has a word of length at most L - P <= P.  So x can be computed
    in layer ceil(log2 L) + 1 from u and v in earlier layers, and a block
    computes the images of H_d in O(log |H_d|) steps.  Members are in
    breadth-first order: position 0 is the identity, positions 1..d+1 are
    the generators, and `layers` holds (lo, hi, u_pos, v_pos) for each later
    layer.  prod_pos[j, i] is the position of members[i] * gens[j].
    """

    __slots__ = ("members", "size", "layers", "prod_pos", "max_width")

    def __init__(self, g: Group, gens: Sequence[int], cols: list, depth: int):
        sub_cols = cols[: depth + 1]
        seen = bytearray(g.order)
        seen[0] = 1
        members, length, u_of = [0], [0], [0]
        for i, x in enumerate(members):  # members is also the queue: it grows here
            n = length[i]
            # the children's prefix member: this one when n is a power of two
            u = i if n & (n - 1) == 0 else u_of[i]
            for col in sub_cols:
                y = col[x]
                if not seen[y]:
                    seen[y] = 1
                    members.append(y)
                    length.append(n + 1)
                    u_of.append(u)
        t = g.table
        self.members = np.asarray(members, dtype=np.intp)
        self.size = len(members)
        pos = np.zeros(g.order, dtype=np.intp)
        pos[self.members] = np.arange(self.size)
        u_pos = np.asarray(u_of, dtype=np.intp)
        v_pos = pos[t[g.inverses[self.members[u_pos]], self.members]]
        self.prod_pos = pos[t[self.members[:, None], list(gens[: depth + 1])]].T
        for a in (self.members, u_pos, v_pos, self.prod_pos):
            a.flags.writeable = False
        # layer k >= 2 holds the word lengths in (2^(k-2), 2^(k-1)]
        bounds = [bisect_left(length, 1 + (1 << k))
                  for k in range(max(1, length[-1].bit_length()) + 1)]
        self.layers = tuple((lo, hi, u_pos[lo:hi], v_pos[lo:hi])
                            for lo, hi in zip(bounds, bounds[1:]) if lo < hi)
        self.max_width = max(1, BLOCK_ELEMENTS // self.size)


def _skeleton(g: Group) -> tuple:
    """The _DepthInfo of each depth of a search from g, built on the first
    call and kept on g: it reads only g.table and g.generating_sequence(),
    so every search from g shares it."""
    if g._skeleton is None:
        g._skeleton = _build_skeleton(g)
    return g._skeleton


def _build_skeleton(g: Group) -> tuple:
    gens = g.generating_sequence()
    cols = g.table[:, gens].T.tolist()  # cols[j] lists the products x * gens[j]
    return tuple(_DepthInfo(g, gens, cols, d) for d in range(len(gens)))


class _Search:
    """Backtracking over images of gens = source.generating_sequence(),
    evaluated a block of rows at a time.

    A row at depth d is one partial assignment: its parent's images of
    gens[:d] plus one candidate image of gens[d].  The product trees come
    from the source's shared _skeleton; the invariant is this search's own,
    read per depth on the members of H_d.  Rows run in lexicographic
    (parent, candidate) order, which is the visiting order of a depth-first
    search, and the survivors of each block are expanded before the next
    block at the same depth is evaluated.

    `nodes` counts evaluated rows.  `evaluated[d]` counts them at depth d,
    `rejected[d, r]` those whose first failed check is REJECT_REASONS[r], and
    `survivors[d]` those that passed every check.
    """

    def __init__(
        self,
        source: Group,
        target: Group,
        candidates: Sequence[Sequence[int]],
        invariant_src: np.ndarray,
        invariant_tgt: np.ndarray,
        budget: int,
    ):
        self.source, self.target = source, target
        self._flat = target.table.ravel()
        self.gens = source.generating_sequence()
        self.cands = [np.asarray(c, dtype=np.intp) for c in candidates]
        self.inv_tgt = np.asarray(invariant_tgt)
        inv_src = np.asarray(invariant_src)
        self.depths = _skeleton(source)
        self.inv_src = [inv_src[info.members] for info in self.depths]
        self.budget = budget
        self._reset()

    def _reset(self) -> None:
        self.nodes = 0
        self.evaluated = np.zeros(len(self.gens), dtype=np.int64)
        self.rejected = np.zeros((len(self.gens), len(REJECT_REASONS)), dtype=np.int64)
        self.survivors = np.zeros(len(self.gens), dtype=np.int64)

    def stats(self) -> dict:
        """Nodes, and per depth the rows evaluated, rejected by reason, and surviving."""
        depths = []
        for d, info in enumerate(self.depths):
            depths.append({
                "depth": d,
                "subgroup_order": info.size,
                "candidates": int(self.cands[d].size),
                "rows": int(self.evaluated[d]),
                "rejected": dict(zip(REJECT_REASONS, self.rejected[d].tolist())),
                "survivors": int(self.survivors[d]),
            })
        return {"nodes": int(self.nodes), "depths": depths}

    def run(self, first_only: bool = False) -> np.ndarray:
        """The images of every map found, one int32 row per map in depth-first
        order; only the first one when first_only."""
        n = self.source.order
        if not self.gens:  # the trivial group: its one map
            return np.zeros((int(n == 1), n), dtype=np.int32)
        self._reset()
        # a first-hit search starts with one row per block and doubles
        self._width = [1 if first_only else info.max_width for info in self.depths]
        out = [np.empty((0, n), dtype=np.int32)]
        self._expand(0, np.zeros((1, 0), dtype=np.intp), self.cands[0], out, first_only)
        return np.concatenate(out)

    def _expand(self, depth: int, parents: np.ndarray, cands: np.ndarray, out: list,
                first_only: bool) -> bool:
        """Evaluate every (parent, candidate) row at this depth, a block at a
        time; True once a first-only search has its hit."""
        info = self.depths[depth]
        last = depth + 1 == len(self.gens)
        k = cands.size
        total = parents.shape[0] * k
        start = 0
        while start < total:
            width = self._width[depth]
            self._width[depth] = min(2 * width, info.max_width)
            stop = min(total, start + width)
            self.nodes += stop - start
            if self.nodes > self.budget:
                raise SearchBudgetExceeded(f"search exceeded {self.budget} nodes")
            idx = np.arange(start, stop)
            gen_imgs = np.concatenate([parents[idx // k], cands[idx % k, None]], axis=1)
            img, gen_imgs = self._survivors(depth, info, gen_imgs)
            start = stop
            if not last:
                if gen_imgs.shape[0] and self._expand(depth + 1, gen_imgs, self.cands[depth + 1],
                                                      out, first_only):
                    return True
                continue
            if first_only:
                img = img[:1]
            full = np.empty((img.shape[0], self.source.order), dtype=np.int32)
            full[:, info.members] = img
            out.append(full)
            if first_only and img.shape[0]:
                return True
        return False

    def _survivors(self, depth: int, info: _DepthInfo, gen_imgs: np.ndarray) -> tuple:
        """The images of H_d for each row, and the rows that pass both checks:
        invariant match, and multiplicativity on every (element, generator)
        pair.  A surviving row is a homomorphism on H_d, and it is injective:
        the invariant tells the identity apart, so only the identity maps to
        the identity."""
        t, n = self._flat, self.target.order
        img = np.zeros((gen_imgs.shape[0], info.size), dtype=np.intp)
        img[:, 1 : depth + 2] = gen_imgs
        for lo, hi, u, v in info.layers:
            img[:, lo:hi] = t[img[:, u] * n + img[:, v]]
        self.evaluated[depth] += img.shape[0]
        ok = (self.inv_tgt[img] == self.inv_src[depth]).all(axis=1)
        img, gen_imgs = self._keep(depth, 0, ok, img, gen_imgs)
        prod = t[img[:, None, :] * n + gen_imgs[:, :, None]]
        ok = (img[:, info.prod_pos] == prod).all(axis=(1, 2))
        img, gen_imgs = self._keep(depth, 1, ok, img, gen_imgs)
        self.survivors[depth] += img.shape[0]
        return img, gen_imgs

    def _keep(self, depth: int, reason: int, ok: np.ndarray, img: np.ndarray,
              gen_imgs: np.ndarray) -> tuple:
        kept = int(np.count_nonzero(ok))
        if kept == ok.size:
            return img, gen_imgs
        self.rejected[depth, reason] += ok.size - kept
        return img[ok], gen_imgs[ok]


# -- public search entry points ------------------------------------------------


def enumerate_autc(g: Group, *, budget: int = DEFAULT_BUDGET) -> tuple:
    """All class-preserving automorphisms, plus the report.

    Only the stabilizer S of g0 = gens[0] is searched: g0 is its own one
    candidate, and the other generator images are constrained to their
    conjugacy classes.  Every completed map is injective, multiplicative
    against each generator on all elements, and class-preserving on all
    elements.  Aut_c(G) is the disjoint union of the cosets c_x o S, one for
    each conjugate x^-1 g0 x of g0, so the maps are the blocks inner_x[S],
    sorted by their generator images: the order of a depth-first search
    over all conjugates of every generator.  c_x o s is inner exactly when
    s is, so innerness is decided on S.
    """
    if g.order > AUTC_ORDER_CAP:
        raise OrderCap(f"order {g.order} exceeds the enumeration cap {AUTC_ORDER_CAP}")
    gens = g.generating_sequence()
    cid = g.class_ids()
    classes = g.conjugacy_classes()
    g0 = gens[0] if gens else 0  # the trivial group has no generators
    k = classes[cid[g0]].size
    cands = [[g0]] + [classes[cid[gen]] for gen in gens[1:]]
    search = _Search(g, g, cands, cid, cid, budget)
    block = search.run()
    # |Z(G)| is the number of classes of size 1
    inn_order = g.order // int(np.count_nonzero(np.bincount(cid) == 1))
    # Inn(G) <= Aut_c(G), so equal orders make every map inner
    trivial = k * len(block) == inn_order
    inner = np.ones(len(block), dtype=bool) if trivial else _inner_mask(g, block[:, gens])
    if k > 1:
        m = len(block)
        # each conjugate of g0 is x^-1 g0 x for n/k elements x: one x for each
        xs = np.argsort(g.conjugates(of=[g0])[:, 0])[:: g.order // k]
        conj = g.conjugates(by=xs)  # row i: y -> xs[i]^-1 y xs[i]
        # row i*m + j: conj[i] after block[j]
        block = np.take(conj, block, axis=1).reshape(-1, g.order)
        order = np.lexsort(block[:, gens[::-1]].T)
        block, inner = block[order], inner[order % m]
    maps = GroupMap._rows(g, block)
    outer = np.flatnonzero(~inner)
    stats = search.stats()
    stats["first_generator_conjugates"] = k
    report = AutcReport(
        group=g,
        generating_set=tuple(gens),
        autc_order=len(maps),
        inn_order=inn_order,
        outc_trivial=trivial,
        witness=maps[outer[0]] if outer.size else None,
        search_stats=stats,
    )
    return maps, report


def _inner_mask(g: Group, gen_imgs: np.ndarray) -> np.ndarray:
    """For each row of images of g.generating_sequence(), whether some
    conjugation x -> a^-1 x a sends every generator to its image in that row."""
    conj = g.conjugates(of=g.generating_sequence())  # conj[a, i] = a^-1 gens[i] a
    return (conj == gen_imgs[:, None, :]).all(axis=2).any(axis=1)


def outc_trivial(g: Group, **kw) -> AutcReport:
    """Decide Out_c(G) = 1 by exhaustive class-preserving enumeration."""
    _, report = enumerate_autc(g, **kw)
    return report


def enumerate_aut(g: Group, *, budget: int = DEFAULT_BUDGET) -> list:
    """The full automorphism group by unconstrained generator-image search.

    Candidates are merely order-matched, so this scales far worse than
    enumerate_autc; it is the brute-force oracle for small groups.
    """
    return GroupMap._rows(g, _aut_images(g, budget=budget))


def _aut_images(g: Group, *, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """The images of every automorphism, one int32 row each, in the order of
    enumerate_aut."""
    gens = g.generating_sequence()
    orders = np.asarray(g.element_orders(), dtype=np.int32)
    cands = [np.flatnonzero(orders == orders[gen]) for gen in gens]
    return _Search(g, g, cands, orders, orders, budget).run()


# Elements per (rows x n x n) homomorphism check in _automorphism_rows.
HOMOMORPHISM_ELEMENTS = 1 << 20


def _automorphism_rows(g: Group, block: np.ndarray) -> np.ndarray:
    """For each row of a (maps x n) block of images, whether it is an
    automorphism of g: GroupMap.is_automorphism from its definition.  Rows
    are bijective when sorting gives 0..n-1, and f(x y) == f(x) f(y) is
    checked on all (x, y) for a chunk of rows at a time, not on the
    generator columns that GroupMap reads, so that this oracle does not
    share its route."""
    t, n = g.table, g.order
    ok = (np.sort(block, axis=1) == np.arange(n)).all(axis=1)
    step = max(1, HOMOMORPHISM_ELEMENTS // (n * n))
    for lo in range(0, len(block), step):
        f = block[lo : lo + step]
        ok[lo : lo + step] &= (f[:, t] == t[f[:, :, None], f[:, None, :]]).all(axis=(1, 2))
    return ok


def find_isomorphism(g: Group, h: Group, *, budget: int = DEFAULT_BUDGET) -> Optional[GroupMap]:
    """An isomorphism g -> h found by image search, or None.

    Candidates and partial images must match each element's order and its
    number of square roots, `_order_root_keys`.  Every isomorphism keeps
    both, so a pruned row extends to no isomorphism: the hits and their
    depth-first order are those of the order-only search of
    `enumerate_aut`, and the first hit is the same map."""
    if g.order != h.order:
        return None
    g_keys, h_keys = _order_root_keys(g), _order_root_keys(h)
    if not np.array_equal(np.sort(g_keys), np.sort(h_keys)):
        return None
    gens = g.generating_sequence()
    cands = [np.flatnonzero(h_keys == g_keys[gen]) for gen in gens]
    search = _Search(g, h, cands, g_keys, h_keys, budget)
    found = search.run(first_only=True)
    return GroupMap(g, h, found[0]) if len(found) else None


def _order_root_keys(g: Group) -> np.ndarray:
    """One int64 key per element for its order and its number of square
    roots, the count of x with x * x equal to it."""
    roots = np.bincount(np.diagonal(g.table), minlength=g.order)
    return g._power_block()[0].astype(np.int64) * (g.order + 1) + roots


def is_isomorphic(g: Group, h: Group) -> bool:
    return find_isomorphism(g, h) is not None


# -- powers of automorphisms ----------------------------------------------------


def power_of(alpha: GroupMap, beta: GroupMap) -> Optional[int]:
    """Least n >= 0 with beta = alpha^n, or None; bounded by the order of alpha."""
    return _power_agreement(alpha.source, alpha, beta)[1]


def locally_power(g: Group, alpha: GroupMap, beta: GroupMap) -> bool:
    """True when for every x some n has x.beta = x.alpha^n."""
    return bool(_power_agreement(g, alpha, beta)[0].all())


def _power_agreement(g: Group, alpha: GroupMap, beta: GroupMap) -> tuple:
    """`power_agreement` of beta against the powers of alpha below its order;
    raises NotAutomorphism unless both maps are automorphisms of g."""
    _require_automorphism(alpha)
    _require_automorphism(beta)
    if alpha.source is not g or beta.source is not g:
        raise NotAutomorphism("maps live on different groups")
    return power_agreement(alpha.images, beta.images, alpha.map_order())


def _require_automorphism(f: GroupMap) -> None:
    if not f.is_automorphism():
        raise NotAutomorphism("expected an automorphism")


def p_part_normalize(sigma: GroupMap, gamma: GroupMap, p: int) -> GroupMap:
    """Strip the p'-part: (gamma.sigma)^r with r the p'-part of its order.

    sigma must be class-preserving of p-power order and gamma inner; the
    result is again class-preserving of p-power order and is inner exactly
    when sigma is.
    """
    g = sigma.source
    if not is_p_power(sigma.map_order(), p):
        raise PreconditionFailed("sigma must have p-power order")
    if not is_class_preserving(g, sigma):
        raise PreconditionFailed("sigma must be class-preserving")
    if not _is_inner(g, gamma):
        raise PreconditionFailed("gamma must be inner")
    comp = gamma.then(sigma)
    r = comp.map_order()
    r //= p_part(r, p)
    out = GroupMap(g, g, perm_power(comp.images, r))
    if not is_p_power(out.map_order(), p) or not is_class_preserving(g, out):
        raise PreconditionFailed("normalized map lost its defining properties")
    if _is_inner(g, out) != _is_inner(g, sigma):
        raise PreconditionFailed("innerness was not preserved")
    return out


def _is_inner(g: Group, f: GroupMap) -> bool:
    return bool(_inner_mask(g, f.images[g.generating_sequence()][None, :])[0])


# -- fixed points of coprime actions --------------------------------------------


def find_min_stabilizer_point(action: Action) -> int:
    """A point n0 of the acted p-group with stabilizer equal to the action kernel.

    Exists whenever an abelian group of coprime order acts on a p-group;
    raises NoWitness otherwise, which signals a bug in the caller's setup.
    """
    h, n = action.actor, action.acted
    if not h.is_abelian():
        raise PreconditionFailed("the acting group must be abelian")
    n_primes = prime_divisors(n.order)
    if len(n_primes) > 1:
        raise PreconditionFailed("the acted group must be a p-group")
    if n_primes and any(h.order % p == 0 for p in n_primes):
        raise PreconditionFailed("the actor order must be coprime to p")
    fixed = action.maps == np.arange(n.order)  # fixed[h, x]: h fixes x
    kernel = fixed.all(axis=1)
    # x's stabilizer is the kernel exactly when column x equals it
    hits = np.flatnonzero((fixed == kernel[:, None]).all(axis=0))
    if not hits.size:
        raise NoWitness("no point has stabilizer equal to the kernel")
    return int(hits[0])
