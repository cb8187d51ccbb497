"""Automorphism machinery: inner maps, class-preserving enumeration, Out_c.

The enumeration backtracks over images of a canonical generating sequence.
At depth d the subgroup H_d generated by the first d+1 generators is fixed,
so its element list, a spanning tree of products, and the (element,
generator) product positions are precomputed once.  A candidate image for
generator d determines the images of all of H_d along the tree; a partial
assignment survives only if it is injective, class-compatible, and
multiplicative on every (element, generator) pair.  Multiplicativity on
those pairs forces it on all pairs, because every right factor is a word
in the generators.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .core import Action, Group, GroupMap, identity_map
from .errors import (
    NoWitness,
    NotAutomorphism,
    OrderCap,
    PreconditionFailed,
    SearchBudgetExceeded,
)

AUTC_ORDER_CAP = 4096
DEFAULT_BUDGET = 10**8
WORKER_ENV = "BLACKBURN_WORKERS"


def inner_automorphism(g: Group, a: int) -> GroupMap:
    """Conjugation by a: the map x -> a^-1 x a."""
    t, inv = g.table, g.inverses
    return GroupMap(g, g, t[inv[a], t[:, a]])


def is_class_preserving(g: Group, f: GroupMap) -> bool:
    """True when f maps every element into its own conjugacy class."""
    if f.source is not g or not f.is_automorphism():
        raise NotAutomorphism("map is not an automorphism of the group")
    cid = g.class_ids()
    return bool(np.array_equal(cid[f.images], cid))


@dataclass(frozen=True)
class AutcReport:
    group: Group
    generating_set: tuple
    autc_order: int
    inn_order: int
    outc_trivial: bool
    witness: Optional[GroupMap]


# -- generic image search -----------------------------------------------------


class _DepthInfo:
    __slots__ = ("members", "size", "parent_pos", "parent_gen", "prod_pos")

    def __init__(self, g: Group, gens: Sequence[int], depth: int):
        t = g.table
        sub = list(gens[: depth + 1])
        pos = {0: 0}
        members = [0]
        parent_pos: List[int] = [-1]
        parent_gen: List[int] = [-1]
        i = 0
        rows = g.rows
        while i < len(members):
            e = members[i]
            for j, gen in enumerate(sub):
                f = rows[e][gen]
                if f not in pos:
                    pos[f] = len(members)
                    members.append(f)
                    parent_pos.append(i)
                    parent_gen.append(j)
            i += 1
        self.members = np.asarray(members, dtype=np.int32)
        self.size = len(members)
        self.parent_pos = parent_pos
        self.parent_gen = parent_gen
        posarr = np.full(g.order, -1, dtype=np.int32)
        posarr[self.members] = np.arange(self.size, dtype=np.int32)
        self.prod_pos = [posarr[t[self.members, gen]] for gen in sub]


class _Search:
    """Backtracking over generator images with per-depth candidate lists."""

    def __init__(
        self,
        source: Group,
        target: Group,
        gens: Sequence[int],
        candidates: Sequence[Sequence[int]],
        invariant_src: np.ndarray,
        invariant_tgt: np.ndarray,
        budget: int,
    ):
        self.source, self.target = source, target
        self.gens = list(gens)
        self.cands = [list(c) for c in candidates]
        self.inv_src = invariant_src
        self.inv_tgt = invariant_tgt
        self.depths = [_DepthInfo(source, gens, d) for d in range(len(gens))]
        self.budget = budget
        self.nodes = 0

    def run(self, first_only: bool = False, branch: Optional[int] = None) -> list:
        if not self.gens:
            if self.source.order == 1 and self.target.order >= 1:
                return [np.zeros(1, dtype=np.int32)]
            return []
        self.nodes = 0
        out: list = []
        top = self.cands[0] if branch is None else [self.cands[0][branch]]
        for c in top:
            if self._descend(0, c, [], out, first_only):
                break
        return out

    def _descend(self, depth: int, cand: int, gen_imgs: list, out: list, first_only: bool) -> bool:
        self.nodes += 1
        if self.nodes > self.budget:
            raise SearchBudgetExceeded(f"search exceeded {self.budget} nodes")
        info = self.depths[depth]
        imgs = gen_imgs + [cand]
        rows = self.target.rows
        li = [0] * info.size
        pp, pg = info.parent_pos, info.parent_gen
        for i in range(1, info.size):
            li[i] = rows[li[pp[i]]][imgs[pg[i]]]
        img = np.asarray(li, dtype=np.int32)
        if not np.array_equal(self.inv_tgt[img], self.inv_src[info.members]):
            return False
        if np.bincount(img, minlength=self.target.order).max() != 1:
            return False
        tt = self.target.table
        for j, gi in enumerate(imgs):
            if not np.array_equal(img[info.prod_pos[j]], tt[img, gi]):
                return False
        if depth + 1 == len(self.gens):
            full = np.empty(self.source.order, dtype=np.int32)
            full[info.members] = img
            out.append(full)
            return first_only
        for c in self.cands[depth + 1]:
            if self._descend(depth + 1, c, imgs, out, first_only):
                return True
        return False


def _worker_count() -> int:
    try:
        return max(1, int(os.environ.get(WORKER_ENV, "1")))
    except ValueError:
        return 1


_POOL_STATE: dict = {}


def _pool_init(search: _Search, first_only: bool) -> None:
    _POOL_STATE["search"] = search
    _POOL_STATE["first_only"] = first_only


def _pool_run(branch: int) -> tuple:
    s: _Search = _POOL_STATE["search"]
    found = s.run(first_only=_POOL_STATE["first_only"], branch=branch)
    return s.nodes, [a.tobytes() for a in found]


def _run_search(search: _Search, first_only: bool = False, workers: Optional[int] = None) -> list:
    """Run a search, optionally partitioning the top-level branches across
    processes; results are merged in branch order, so output is identical
    for every worker count.

    The budget is one count over the whole search: the branches' node
    counts are summed after the merge, so it is exceeded for every worker
    count or for none.
    """
    workers = _worker_count() if workers is None else max(1, workers)
    branches = len(search.cands[0]) if search.gens else 0
    if workers == 1 or branches < 2 or first_only:
        return search.run(first_only=first_only)
    nodes = 0
    results: list = []
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=min(workers, branches), initializer=_pool_init,
                  initargs=(search, False)) as pool:
        for branch_nodes, chunk in pool.map(_pool_run, range(branches)):
            nodes += branch_nodes
            results.extend(np.frombuffer(b, dtype=np.int32).copy() for b in chunk)
    if nodes > search.budget:
        raise SearchBudgetExceeded(f"search exceeded {search.budget} nodes")
    return results


# -- public search entry points ------------------------------------------------


def enumerate_autc(
    g: Group,
    *,
    budget: int = DEFAULT_BUDGET,
    order_cap: int = AUTC_ORDER_CAP,
    workers: Optional[int] = None,
) -> tuple:
    """All class-preserving automorphisms, plus the report.

    Generator images are constrained to their conjugacy classes; every
    completed map is injective, multiplicative against each generator on all
    elements, and class-preserving on all elements.
    """
    if g.order > order_cap:
        raise OrderCap(f"order {g.order} exceeds the enumeration cap {order_cap}")
    gens = g.generating_sequence()
    cid = g.class_ids()
    classes = g.conjugacy_classes()
    cands = [classes[cid[gen]].tolist() for gen in gens]
    search = _Search(g, g, gens, cands, cid, cid, budget)
    images = _run_search(search, workers=workers)
    maps = [GroupMap(g, g, img) for img in images]
    inn_tuples = _inner_generator_tuples(g, gens)
    inn_order = g.order // g.center().order
    non_inner = [m for m in maps if tuple(int(m.images[x]) for x in gens) not in inn_tuples]
    witness = non_inner[0] if non_inner else None
    report = AutcReport(
        group=g,
        generating_set=tuple(gens),
        autc_order=len(maps),
        inn_order=inn_order,
        outc_trivial=len(maps) == inn_order,
        witness=witness,
    )
    return maps, report


def _inner_generator_tuples(g: Group, gens: Sequence[int]) -> set:
    t, inv = g.table, g.inverses
    cols = [t[inv, t[gen, np.arange(g.order)]] for gen in gens]
    return {tuple(int(c[a]) for c in cols) for a in range(g.order)}


def outc_trivial(g: Group, **kw) -> AutcReport:
    """Decide Out_c(G) = 1 by exhaustive class-preserving enumeration."""
    _, report = enumerate_autc(g, **kw)
    return report


def enumerate_aut(g: Group, *, budget: int = DEFAULT_BUDGET, workers: Optional[int] = None) -> list:
    """The full automorphism group by unconstrained generator-image search.

    Candidates are merely order-matched, so this scales far worse than
    enumerate_autc; it is the brute-force oracle for small groups.
    """
    gens = g.generating_sequence()
    orders = np.asarray(g.element_orders(), dtype=np.int32)
    by_order: dict = {}
    for x in range(g.order):
        by_order.setdefault(int(orders[x]), []).append(x)
    cands = [by_order[int(orders[gen])] for gen in gens]
    search = _Search(g, g, gens, cands, orders, orders, budget)
    return [GroupMap(g, g, img) for img in _run_search(search, workers=workers)]


def find_isomorphism(g: Group, h: Group, *, budget: int = DEFAULT_BUDGET) -> Optional[GroupMap]:
    """An isomorphism g -> h found by order-matched image search, or None."""
    if g.order != h.order:
        return None
    g_orders = np.asarray(g.element_orders(), dtype=np.int32)
    h_orders = np.asarray(h.element_orders(), dtype=np.int32)
    if sorted(g_orders.tolist()) != sorted(h_orders.tolist()):
        return None
    gens = g.generating_sequence()
    by_order: dict = {}
    for x in range(h.order):
        by_order.setdefault(int(h_orders[x]), []).append(x)
    cands = [by_order.get(int(g_orders[gen]), []) for gen in gens]
    search = _Search(g, h, gens, cands, g_orders, h_orders, budget)
    found = search.run(first_only=True)
    return GroupMap(g, h, found[0]) if found else None


def is_isomorphic(g: Group, h: Group) -> bool:
    return find_isomorphism(g, h) is not None


# -- powers of automorphisms ----------------------------------------------------


def power_of(alpha: GroupMap, beta: GroupMap) -> Optional[int]:
    """Least n >= 0 with beta = alpha^n, or None; bounded by the order of alpha."""
    _require_automorphism(alpha)
    _require_automorphism(beta)
    if alpha.source is not beta.source:
        raise NotAutomorphism("maps live on different groups")
    cur = identity_map(alpha.source)
    for n in range(alpha.map_order()):
        if cur == beta:
            return n
        cur = cur.then(alpha)
    return None


def locally_power(g: Group, alpha: GroupMap, beta: GroupMap) -> bool:
    """True when for every x some n has x.beta = x.alpha^n."""
    _require_automorphism(alpha)
    _require_automorphism(beta)
    hit = np.zeros(g.order, dtype=bool)
    cur = np.arange(g.order, dtype=np.int32)
    for _ in range(alpha.map_order() + 1):
        hit |= cur == beta.images
        cur = alpha.images[cur]
    return bool(hit.all())


def _require_automorphism(f: GroupMap) -> None:
    if not f.is_automorphism():
        raise NotAutomorphism("expected an automorphism")


def p_part_normalize(sigma: GroupMap, gamma: GroupMap, p: int, *, step_cap: int = 10**6) -> GroupMap:
    """Strip the p'-part: (gamma.sigma)^r with r the p'-part of its order.

    sigma must be class-preserving of p-power order and gamma inner; the
    result is again class-preserving of p-power order and is inner exactly
    when sigma is.
    """
    g = sigma.source
    if not _is_prime_power(sigma.map_order(), p):
        raise PreconditionFailed("sigma must have p-power order")
    if not is_class_preserving(g, sigma):
        raise PreconditionFailed("sigma must be class-preserving")
    if not _is_inner(g, gamma):
        raise PreconditionFailed("gamma must be inner")
    comp = gamma.then(sigma)
    order = _map_order_capped(comp, step_cap)
    r = order
    while r % p == 0:
        r //= p
    out = identity_map(g)
    for _ in range(r):
        out = out.then(comp)
    if not _is_prime_power(out.map_order(), p) or not is_class_preserving(g, out):
        raise PreconditionFailed("normalized map lost its defining properties")
    if _is_inner(g, out) != _is_inner(g, sigma):
        raise PreconditionFailed("innerness was not preserved")
    return out


def _map_order_capped(f: GroupMap, cap: int) -> int:
    order = f.map_order()
    if order > cap:
        raise PreconditionFailed(f"map order {order} exceeds step cap {cap}")
    return order


def _is_prime_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def _is_inner(g: Group, f: GroupMap) -> bool:
    gens = g.generating_sequence()
    tuples = _inner_generator_tuples(g, gens)
    return tuple(int(f.images[x]) for x in gens) in tuples


# -- fixed points of coprime actions --------------------------------------------


def find_min_stabilizer_point(action: Action) -> int:
    """A point n0 of the acted p-group with stabilizer equal to the action kernel.

    Exists whenever an abelian group of coprime order acts on a p-group;
    raises NoWitness otherwise, which signals a bug in the caller's setup.
    """
    h, n = action.actor, action.acted
    if not h.is_abelian():
        raise PreconditionFailed("the acting group must be abelian")
    n_primes = {p for p in range(2, n.order + 1) if n.order % p == 0 and _is_prime(p)}
    if len(n_primes) > 1:
        raise PreconditionFailed("the acted group must be a p-group")
    if n_primes and any(h.order % p == 0 for p in n_primes):
        raise PreconditionFailed("the actor order must be coprime to p")
    kernel = frozenset(
        hh for hh in range(h.order)
        if np.array_equal(action.maps[hh], np.arange(n.order))
    )
    for x in range(n.order):
        stab = frozenset(hh for hh in range(h.order) if action.maps[hh][x] == x)
        if stab == kernel:
            return x
    raise NoWitness("no point has stabilizer equal to the kernel")


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, int(p**0.5) + 1))
