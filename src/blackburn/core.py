"""Finite groups as multiplication tables over element indices 0..n-1.

A `Group` stores an n-by-n table whose (i, j) entry is the index of the
product e_i * e_j.  Validated groups always have the identity at index 0.
Groups are immutable after construction; every operation here is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Optional, Sequence

import numpy as np

from ._arith import is_prime, orbit_labels, p_part, p_power_mask, perm_order, prime_divisors
from .errors import (
    BadParams,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
    NotNormal,
    NotPermutation,
    OrderCap,
)

# Bytes of the largest int32 (n x n) table a group may have: n <= 11585.
# Loading or building one makes whole-table temporaries a few times this size.
TABLE_BYTE_LIMIT = 1 << 29
SUBGROUP_ENUM_CAP = 128
# Largest order at which a table that fails the associativity check is
# scanned in full, so that the error names its first failing (a, b, c).
FULL_ASSOC_LIMIT = 512
# Largest order whose conjugacy classes are read off the full conjugation
# block (n^2 entries); above it, labels propagate over the generators.
CLASS_BLOCK_LIMIT = 128
# Elements per block array: the (rows x |H_d|) blocks of the image search in
# autos, whose multiplicativity check holds d + 1 arrays of this size at
# depth d, and the (maps x n x k) generator-column check of a block of maps.
BLOCK_ELEMENTS = 1 << 16
# Table entries per block of rows that `_row_zeros` scans at once, so that
# no mask over the whole table is made; also the bytes per block of a cayley
# body that `formats._plain_table` reads at once.
SCAN_ELEMENTS = 1 << 18


def check_table_order(n: int) -> None:
    """Refuse, before it is allocated, an int32 table of order n over
    TABLE_BYTE_LIMIT, which is read at each call."""
    if 4 * n * n > TABLE_BYTE_LIMIT:
        raise OrderCap(f"an order-{n} table takes {4 * n * n} bytes, over the limit "
                       f"of {TABLE_BYTE_LIMIT}")


class Group:
    """A finite group given by its multiplication table; identity is index 0."""

    __slots__ = (
        "order",
        "table",
        "names",
        "_inv",
        "_powers",
        "_skeleton",
        "_classes",
        "_class_id",
        "_class_size",
        "_cyclic_id",
        "_normal_cyclic",
        "_gens",
        "_gen_conj",
        "_cyclics",
        "_subs",
    )

    def __init__(self, table: np.ndarray, names: Optional[Sequence[str]] = None):
        # Trusted constructor: callers guarantee group axioms and identity at 0.
        table = np.ascontiguousarray(table, dtype=np.int32)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise BadParams(f"table must be square, got shape {table.shape}")
        self.order = int(table.shape[0])
        table.flags.writeable = False
        self.table = table
        self.names = tuple(names) if names is not None else None
        if self.names is not None and len(self.names) != self.order:
            raise BadParams("names length does not match order")
        self._inv = None
        self._powers = None
        self._skeleton = None  # autos._skeleton: the image search's per-depth product trees
        self._classes = None
        self._class_id = None
        self._class_size = None
        self._cyclic_id = None
        self._normal_cyclic = None
        self._gens = None
        self._gen_conj = None
        self._cyclics = None
        self._subs = None

    # -- element arithmetic ------------------------------------------------

    @property
    def inverses(self) -> np.ndarray:
        """Each element's inverse, as a read-only int32 array, kept.

        x^-1 = x^(|x|-1), which row |x|-2 of the power block holds; the
        identity, of order 1, is read from row 0, where 0^1 = 0.  The block
        is the one the element orders are read from, so no scan of the
        table for its zeros is made.
        """
        if self._inv is None:
            orders, block = self._power_block()
            inv = block[np.maximum(orders - 2, 0), np.arange(self.order)]
            inv.flags.writeable = False
            self._inv = inv
        return self._inv

    def mul(self, a: int, b: int) -> int:
        return self.table.item(a, b)

    def products(self, x, y) -> np.ndarray:
        """The products x * y of index arrays, elementwise with broadcasting."""
        return self.table[x, y]

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def conj(self, a: int, g: int) -> int:
        """g^-1 * a * g."""
        T = self.table
        return T.item(T.item(self.inv(g), a), g)

    def conjugates(self, by=slice(None), of=slice(None)) -> np.ndarray:
        """The (|by| x |of|) array whose entry [i, j] is by[i]^-1 * of[j] * by[i]:
        row i is conjugation by by[i], read on the elements `of`.  Each of
        `by` and `of` is an index array or a slice, by default every element.
        The inner gather copies only the columns `by` of the table.
        """
        T = self.table
        return T[self.inverses[by][:, None], T[:, by][of].T]

    def commutes(self, by=slice(None), of=slice(None)) -> np.ndarray:
        """The (|by| x |of|) bool array whose entry [i, j] says whether by[i]
        and of[j] commute.  Each of `by` and `of` is an index array or a
        slice, by default every element, as in `conjugates`."""
        T = self.table
        return T[by][:, of] == T[:, by][of].T

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        acc, base, T = 0, a, self.table
        while k:
            if k & 1:
                acc = T.item(acc, base)
            base = T.item(base, base)
            k >>= 1
        return acc

    def order_of(self, a: int) -> int:
        x, n, T = a, 1, self.table
        while x != 0:
            x = T.item(x, a)
            n += 1
        return n

    def element_orders(self) -> list:
        return self._power_block()[0].tolist()

    def cyclic_ids(self) -> np.ndarray:
        """The least generator of each element's cyclic subgroup, as a
        read-only int32 array.  Column x of the power block holds only
        powers of x, and the generators of <x> are those of order |x|."""
        if self._cyclic_id is None:
            orders, block = self._power_block()
            ids = np.where(orders[block] == orders, block, self.order).min(axis=0).astype(np.int32)
            ids.flags.writeable = False
            self._cyclic_id = ids
        return self._cyclic_id

    def _power_block(self) -> tuple:
        """The element orders, and the array whose row j-1 holds x^j for
        every element x, for j = 1 at least up to the largest element order;
        both read-only, computed on the first call and kept.

        The block doubles at each step (rows k+1 .. 2k are the one gather
        T[rows 1 .. k, row k]) until every column has reached the identity.
        Column x then lists the members of <x> in its first |x| rows.
        """
        if self._powers is None:
            T = self.table
            block = np.arange(self.order, dtype=T.dtype)[None, :]
            while block.min(axis=0).any():
                block = np.concatenate([block, T[block, block[-1]]])
            orders = np.argmax(block == 0, axis=0) + 1
            orders.flags.writeable = False
            block.flags.writeable = False
            self._powers = (orders, block)
        return self._powers

    def exponent(self) -> int:
        return lcm(*self.element_orders())

    # -- global structure --------------------------------------------------

    def is_abelian(self) -> bool:
        """True when the generators commute with each other."""
        gens = self.generating_sequence()
        return bool(self.commutes(by=gens, of=gens).all())

    def conjugacy_classes(self) -> list:
        """Conjugation orbits as sorted read-only int32 index arrays, ordered
        by least member."""
        if self._classes is None:
            cid = self.class_ids()
            # a stable sort keeps each class's members ascending
            members = np.argsort(cid, kind="stable").astype(np.int32)
            members.flags.writeable = False
            ends = np.cumsum(self._class_size).tolist()
            self._classes = [members[a:b] for a, b in zip([0, *ends], ends)]
        return self._classes

    def class_ids(self) -> np.ndarray:
        """The number of each element's conjugacy class, counting classes in
        order of their least member; also caches the class sizes.

        Each element is first labelled with the least member of its class.
        Up to CLASS_BLOCK_LIMIT that is the column minimum of the (n x n)
        conjugation block; above it, `orbit_labels` propagates labels over
        the conjugations by the generators, whose orbits are the classes.
        A class's number is the rank of its label among the labels.
        """
        if self._class_id is None:
            n = self.order
            if n <= CLASS_BLOCK_LIMIT:
                lab = self.conjugates().min(axis=0)
            else:
                lab = orbit_labels(self._generator_conjugates())
            cid = (np.cumsum(lab == np.arange(n)) - 1)[lab].astype(np.int32)
            cid.flags.writeable = False
            size = np.bincount(cid)
            size.flags.writeable = False
            self._class_id = cid
            self._class_size = size
        return self._class_id

    def centralizer(self, xs: Iterable[int]) -> "Subgroup":
        mask = self.commutes(of=np.fromiter(xs, dtype=np.intp)).all(axis=1)
        return Subgroup._trusted(self, _mask_members(mask))

    def center(self) -> "Subgroup":
        """The elements that commute with every generator."""
        mask = self.commutes(of=self.generating_sequence()).all(axis=1)
        return Subgroup._trusted(self, _mask_members(mask))

    def closure(self, seed: Iterable[int]) -> np.ndarray:
        """Smallest subgroup containing `seed`, as a sorted index array.

        Dimino's algorithm (Holt, Eick and O'Brien, Handbook of Computational
        Group Theory, ch. 4): the seed elements are added one at a time,
        and an element already inside the current subgroup is skipped.
        """
        mask = np.zeros(self.order, dtype=bool)
        mask[0] = True
        sub = np.zeros(1, dtype=np.int32)
        gens: list = []
        for x in seed:
            x = int(x)
            if not mask[x]:
                gens.append(x)
                sub = self._extend(sub, mask, gens)
        return np.flatnonzero(mask).astype(np.int32)

    def _extend(self, sub: np.ndarray, mask: np.ndarray, gens: Sequence[int]) -> np.ndarray:
        """Members of <H, g> for the subgroup H = `sub` generated by gens[:-1]
        and the new generator g = gens[-1], which lies outside H.

        The result is built from whole right cosets T[H, y] of H: only the
        coset representatives y are multiplied by the generators.  `mask`
        marks the members of H on entry and is updated to mark <H, g>.
        """
        T = self.table
        if sub.size == 1:
            # H = 1: <g> is the powers of g, walked in Dimino's order.  Column
            # g of a Latin square is a permutation, so the walk x -> x * g
            # from g returns to 0 on any table that `validate_group` feeds it
            g = gens[-1]
            walk, x = [0], g
            while x:
                walk.append(x)
                x = T.item(x, g)
            out = np.array(walk, dtype=np.intp)
            mask[out] = True
            return out
        # Gathers from one column with intp indices are numpy's fast path.
        sub = sub.astype(np.intp, copy=False)
        reps = [gens[-1]]
        cosets = [sub, T[:, reps[0]][sub].astype(np.intp)]
        mask[cosets[1]] = True
        i = 0
        while i < len(reps):
            r = reps[i]
            for s in gens:
                y = T.item(r, s)
                if not mask[y]:
                    coset = T[:, y][sub].astype(np.intp)
                    mask[coset] = True
                    cosets.append(coset)
                    reps.append(y)
            i += 1
        return np.concatenate(cosets)

    def subgroup(self, seed: Iterable[int]) -> "Subgroup":
        return Subgroup(self, self.closure(seed))

    def generating_sequence(self) -> list:
        """Greedy canonical generators: lowest index not yet generated."""
        if self._gens is None:
            gens: list = []
            mask = np.zeros(self.order, dtype=bool)
            mask[0] = True
            sub = np.zeros(1, dtype=np.int32)
            while sub.size < self.order:
                gens.append(int(np.argmin(mask)))
                sub = self._extend(sub, mask, gens)
            self._gens = gens
        return list(self._gens)

    def cyclic_subgroups(self) -> list:
        """All distinct cyclic subgroups, ordered by least generator index."""
        if self._cyclics is None:
            # member arrays only: a cached Subgroup refers back to this group,
            # and such a cycle is freed only by the cyclic garbage collector
            orders, block = self._power_block()
            n = self.order
            reps = np.flatnonzero(self.cyclic_ids() == np.arange(n))
            inside = np.arange(1, block.shape[0] + 1)[:, None] <= orders
            # each row lists the members of one <x> in order, padded with n
            mem = np.sort(np.where(inside, block, n)[:, reps].T, axis=1)
            flat = mem[mem < n]
            flat.flags.writeable = False
            sizes = orders[reps]
            ends = np.cumsum(sizes).tolist()
            self._cyclics = [flat[e - k : e] for e, k in zip(ends, sizes.tolist())]
        return [Subgroup._trusted(self, m) for m in self._cyclics]

    def all_subgroups(self) -> list:
        """Every subgroup, each exactly once, ordered by (order, members).

        Built once per group by cyclic extension (Neubüser 1960; Holt, Eick
        and O'Brien, Handbook of Computational Group Theory, 2005, section
        4.5), which reaches exactly the solvable subgroups.  When G is not
        among them, G is not solvable, and the join loop of `_join_cyclics`
        completes the set: every subgroup is a join of cyclic subgroups, and
        every cyclic subgroup is solvable, hence already found.
        """
        if self.order > SUBGROUP_ENUM_CAP:
            raise OrderCap(f"all_subgroups: order {self.order} exceeds cap {SUBGROUP_ENUM_CAP}")
        if self._subs is None:
            # member arrays only, as for `_cyclics`
            layers = self._cyclic_extension()
            if layers[-1][0][1].size < self.order:  # G is not solvable
                self._join_cyclics(layers)
            subs = [_mask_members(mask) for layer in layers for mask, _, _ in layer]
            subs.sort(key=lambda m: (m.size, m.tolist()))
            self._subs = tuple(subs)
        return [Subgroup._trusted(self, m) for m in self._subs]

    def _cyclic_extension(self) -> list:
        """The solvable subgroups, in layers by the number of prime factors
        of their order; each subgroup is (mask, members, generators).

        A subgroup K of one layer yields K<g> in the next for each prime p
        and each g in N_G(K) \\ K with g^p in K.  N_G(K) is read on the
        generators of K, since K = <generators>.  Then K<g> is the union of
        the cosets K g^i, i < p, gathered from the power block, and any other
        such g' in K<g> gives the same subgroup.  Every solvable subgroup has
        a series of prime index steps, each normal in the next, so it is
        reached from {1}.
        """
        T, n = self.table, self.order
        _, block = self._power_block()  # row j-1 holds x^j
        one = np.zeros(n, dtype=bool)
        one[0] = True
        layer = [(one, np.zeros(1, dtype=np.int32), [])]
        seen = {one.tobytes()}
        layers = []
        while layer:
            layers.append(layer)
            fresh = []
            for kmask, kmem, kgens in layer:
                norm = kmask[self.conjugates(of=np.array(kgens, dtype=np.intp))].all(axis=1)
                index = int(np.count_nonzero(norm)) // kmem.size
                norm &= ~kmask
                for p in prime_divisors(index):
                    cand = norm & kmask[block[p - 1]]
                    for g in np.flatnonzero(cand).tolist():
                        if not cand[g]:
                            continue
                        cosets = T[kmem[:, None], block[: p - 1, g]]
                        hmask = kmask.copy()
                        hmask[cosets] = True
                        cand &= ~hmask
                        key = hmask.tobytes()
                        if key not in seen:
                            seen.add(key)
                            hmem = np.concatenate([kmem, cosets.ravel()])
                            fresh.append((hmask, hmem, [*kgens, g]))
            layer = fresh
        return layers

    def _join_cyclics(self, layers: list) -> None:
        """Append to `layers` every subgroup reached by joining a subgroup
        found with a cyclic subgroup it does not contain, until no join is
        new.  A subgroup is kept with one generator list, so a join extends
        it by the cyclic subgroup's generator rather than closing from
        scratch."""
        cyc_gens = np.flatnonzero(self.cyclic_ids() == np.arange(self.order)).tolist()
        frontier = [sub for layer in layers for sub in layer]
        seen = {mask.tobytes() for mask, _, _ in frontier}
        while frontier:
            fresh = []
            for hmask, hmem, hgens in frontier:
                for c in cyc_gens:
                    if hmask[c]:
                        continue
                    mask = hmask.copy()
                    gens = [*hgens, c]
                    mem = self._extend(hmem, mask, gens)
                    key = mask.tobytes()
                    if key not in seen:
                        seen.add(key)
                        fresh.append((mask, mem, gens))
            layers.append(fresh)
            frontier = fresh

    def normalizer(self, sub: "Subgroup") -> "Subgroup":
        mask = np.zeros(self.order, dtype=bool)
        mask[sub.members] = True
        keep = mask[self.conjugates(of=sub.members)].all(axis=1)
        return Subgroup._trusted(self, _mask_members(keep))

    def is_normal(self, sub: "Subgroup") -> bool:
        """True when s^-1 x s lies in N for every member x of N and every
        generator s of G: one scatter and one (k x |N|) gather.

        For any subset N of G this says that N is a union of conjugacy
        classes.  Conjugation by s is injective, so it maps the finite set
        N into itself exactly when it maps N onto itself, and then so does
        its inverse, conjugation by s^-1.  Every inner automorphism is a
        composition of these, since the generators generate G, so N is
        invariant under all of Inn(G) (Holt, Eick and O'Brien, Handbook of
        Computational Group Theory, 2005, section 3.3).
        """
        mask = np.zeros(self.order, dtype=bool)
        mask[sub.members] = True
        return bool(mask[self._generator_conjugates()[:, sub.members]].all())

    def _generator_conjugates(self) -> np.ndarray:
        """The read-only (k x n) block `conjugates(by=generating_sequence())`,
        whose row i is conjugation by the i-th generator; computed on the
        first call and kept.  Normality, the normal cyclic subgroups and the
        orbit route of `class_ids` all read it."""
        if self._gen_conj is None:
            block = self.conjugates(by=self.generating_sequence())
            block.flags.writeable = False
            self._gen_conj = block
        return self._gen_conj

    def normal_cyclics(self) -> np.ndarray:
        """For each element x, whether <x> is normal, as a read-only bool
        array, computed on the first call and kept.

        <x>^s = <x^s>, and the elements normalizing <x> form a subgroup, so
        <x> is normal exactly when every generator s of G has
        cyclic_ids[s^-1 x s] == cyclic_ids[x]: one (|gens| x n) gather.
        """
        if self._normal_cyclic is None:
            ids = self.cyclic_ids()
            normal = (ids[self._generator_conjugates()] == ids).all(axis=0)
            normal.flags.writeable = False
            self._normal_cyclic = normal
        return self._normal_cyclic

    def sylow(self, p: int) -> "Subgroup":
        """One Sylow p-subgroup, by greedy normalizer extension."""
        if not is_prime(p):
            raise BadParams(f"p must be prime, got {p}")
        full = p_part(self.order, p)
        if full == 1:
            return Subgroup(self, np.array([0], dtype=np.int32))
        orders = self._power_block()[0]
        p_elem = p_power_mask(orders, p, self.order)
        # the p-element of largest order, the least one among those
        gens = [int(np.argmax(np.where(p_elem, orders, 0)))]
        mask = np.zeros(self.order, dtype=bool)
        mask[0] = True
        mem = self._extend(np.zeros(1, dtype=np.int32), mask, gens)
        while mem.size < full:
            norm = self.normalizer(Subgroup(self, mem)).members
            gens.append(int(norm[p_elem[norm] & ~mask[norm]][0]))
            mem = self._extend(mem, mask, gens)
        return Subgroup(self, mem)

    def o_p(self, p: int) -> "Subgroup":
        """Largest normal p-subgroup: intersection of all Sylow p-conjugates."""
        block = self.conjugates(of=self.sylow(p).members)
        # each row lists one conjugate of P without repeats, so an element
        # lies in every conjugate exactly when it appears in all n rows
        hits = np.bincount(block.ravel(), minlength=self.order)
        return Subgroup._trusted(self, _mask_members(hits == self.order))

    def commutator_subgroup(self) -> "Subgroup":
        """G' as the normal closure of the commutators [a, b] of the
        generating sequence (Holt, Eick and O'Brien, Handbook of
        Computational Group Theory, section 3.3): the closure of the
        commutators, extended by conjugates under the generators until it
        is normal.  G modulo that closure is generated by commuting images,
        so it is abelian, and the closure contains G'."""
        T, inv = self.table, self.inverses
        gens = self.generating_sequence()
        mask = np.zeros(self.order, dtype=bool)
        mask[0] = True
        sub = np.zeros(1, dtype=np.int32)
        hgens: list = []
        pending = [T.item(T.item(inv.item(a), inv.item(b)), T.item(a, b))
                   for i, a in enumerate(gens) for b in gens[i + 1:]]
        while pending:
            x = pending.pop()
            if not mask[x]:
                hgens.append(x)
                sub = self._extend(sub, mask, hgens)
                # the subgroup is normal once every conjugate s^-1 x s of
                # each of its generators x lies in it
                pending.extend(T.item(T.item(inv.item(s), x), s) for s in gens)
        return Subgroup._trusted(self, _mask_members(mask))

    def is_nilpotent(self) -> bool:
        return _orders_nilpotent(self._power_block()[0])

    def quotient(self, sub: "Subgroup") -> tuple:
        """Coset group G/N plus the canonical projection map."""
        if not self.is_normal(sub):
            raise NotNormal("quotient by a non-normal subgroup")
        T = self.table
        # cosets numbered in order of their least member
        reps, coset_id = np.unique(T[:, sub.members].min(axis=1), return_inverse=True)
        qtable = coset_id[T[np.ix_(reps, reps)]]
        names = None
        if self.names is not None:
            names = [f"[{self.names[r]}]" for r in reps.tolist()]
        q = Group(qtable, names)
        return q, GroupMap(self, q, coset_id)

    def __repr__(self):
        return f"Group(order={self.order})"


def _orders_nilpotent(orders: np.ndarray) -> bool:
    """Whether the group whose element orders are `orders` is nilpotent,
    that is, every Sylow subgroup is normal: for each p, the elements of
    p-power order number |G|_p (two distinct Sylow p-subgroups hold more)."""
    n = orders.size
    return all(np.count_nonzero(p_power_mask(orders, p, n)) == p_part(n, p)
               for p in prime_divisors(n))


def _row_zeros(table: np.ndarray) -> np.ndarray:
    """The column of the first 0 in each row of a square table, as a
    read-only int32 array.  Rows are scanned SCAN_ELEMENTS table entries at
    a time, so the only temporary is one block's mask."""
    n = table.shape[0]
    out = np.empty(n, dtype=np.int32)
    step = max(1, SCAN_ELEMENTS // max(1, n))
    for lo in range(0, n, step):
        out[lo : lo + step] = np.argmax(table[lo : lo + step] == 0, axis=1)
    out.flags.writeable = False
    return out


def _mask_members(mask: np.ndarray) -> np.ndarray:
    """The indices where `mask` is True, as a read-only int32 array: the
    member array that `Subgroup._trusted` expects."""
    mem = np.flatnonzero(mask).astype(np.int32)
    mem.flags.writeable = False
    return mem


@dataclass(frozen=True)
class Subgroup:
    """A subset of a parent group's indices, closed under product and inverse."""

    parent: Group
    members: np.ndarray

    def __post_init__(self):
        mem = np.unique(np.asarray(self.members, dtype=np.int32))
        mem.flags.writeable = False
        object.__setattr__(self, "members", mem)

    @classmethod
    def _trusted(cls, parent: Group, members: np.ndarray) -> "Subgroup":
        """A Subgroup over `members` as given: the caller guarantees a sorted,
        read-only int32 array of distinct indices forming a subgroup."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "parent", parent)
        object.__setattr__(sub, "members", members)
        return sub

    @property
    def order(self) -> int:
        return int(self.members.size)

    def contains(self, i: int) -> bool:
        j = int(np.searchsorted(self.members, i))
        return j < self.members.size and int(self.members[j]) == i

    def contains_all(self, xs) -> bool:
        return all(self.contains(int(x)) for x in np.asarray(xs).ravel())

    def is_normal(self) -> bool:
        return self.parent.is_normal(self)

    def check(self) -> None:
        """Assert the subgroup invariants: identity, closure, inverses, Lagrange."""
        if not self.contains(0):
            raise BadParams("subgroup misses the identity")
        prods = self.parent.table[np.ix_(self.members, self.members)]
        if not self.contains_all(np.unique(prods)):
            raise BadParams("subgroup not closed under products")
        if not self.contains_all(self.parent.inverses[self.members]):
            raise BadParams("subgroup not closed under inverses")
        if self.parent.order % self.order != 0:
            raise BadParams("subgroup order does not divide group order")

    def as_group(self) -> tuple:
        """Materialize as a standalone Group; returns (group, member list)."""
        mem = self.members
        pos = np.full(self.parent.order, -1, dtype=np.int32)
        pos[mem] = np.arange(mem.size, dtype=np.int32)
        table = pos[self.parent.table[np.ix_(mem, mem)]]
        names = None
        if self.parent.names is not None:
            names = [self.parent.names[i] for i in mem.tolist()]
        return Group(table, names), mem.tolist()

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and np.array_equal(self.members, other.members)
        )

    def __hash__(self):
        return hash((id(self.parent), self.members.tobytes()))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.order})"


class GroupMap:
    """A map between groups given by an image list, one entry per source element.
    Its predicates read its row of a `_BlockVerdict`, of one row if built by hand.
    Source and target are `Group`s or any group with the arithmetic that
    `_map_masks` reads, such as `counterexample.SplitExtension`."""

    __slots__ = ("source", "target", "images", "_bytes", "_block", "_row")

    def __init__(self, source: Group, target: Group, images):
        self.source = source
        self.target = target
        self.images = _checked_images(images, 1, source, target)
        self._bytes = self.images.tobytes()
        self._block = _BlockVerdict(source, target, self.images[None, :])
        self._row = 0

    @classmethod
    def _rows(cls, g: Group, block) -> list:
        """One map g -> g per row of a (maps x |g|) block of images: the
        block is made int32 and read-only and its range checked once, and
        each map's images are a view of its row.  The maps share one
        verdict: the first predicate asked of any of them decides every
        row in one pass over the block."""
        block = _checked_images(block, 2, g, g)
        verdict = _BlockVerdict(g, g, block)
        maps = []
        for i, img in enumerate(block):
            f = cls.__new__(cls)
            f.source = f.target = g
            f.images = img
            f._bytes = img.tobytes()
            f._block, f._row = verdict, i
            maps.append(f)
        return maps

    def apply(self, a: int) -> int:
        return int(self.images[a])

    def then(self, other: "GroupMap") -> "GroupMap":
        """Composition: apply self first, then `other`."""
        if other.source is not self.target:
            raise BadParams("composition domains do not match")
        return GroupMap(self.source, other.target, other.images[self.images])

    def is_bijective(self) -> bool:
        return self._block.masks()[0][self._row]

    def is_homomorphism(self) -> bool:
        return self._block.masks()[1][self._row]

    def is_automorphism(self) -> bool:
        return self._block.masks()[2][self._row]

    def inverse(self) -> "GroupMap":
        if not self.is_bijective():
            raise NotPermutation("map is not invertible")
        inv = np.empty(self.source.order, dtype=np.int32)
        inv[self.images] = np.arange(self.source.order, dtype=np.int32)
        return GroupMap(self.target, self.source, inv)

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.images, np.arange(self.source.order)))

    def map_order(self) -> int:
        """Order as a permutation (lcm of cycle lengths)."""
        return perm_order(self.images)

    def fixed_points(self) -> np.ndarray:
        return np.nonzero(self.images == np.arange(self.source.order))[0]

    def __eq__(self, other):
        return (
            isinstance(other, GroupMap)
            and self.source is other.source
            and self.target is other.target
            and self._bytes == other._bytes
        )

    def __hash__(self):
        return hash(self._bytes)

    def __repr__(self):
        return f"GroupMap({self.source.order}->{self.target.order})"


def _checked_images(images, ndim: int, source: Group, target: Group) -> np.ndarray:
    """images as a read-only int32 C-contiguous array of ndim axes, the last
    running over the source, every entry an element of the target."""
    img = np.ascontiguousarray(images, dtype=np.int32)
    if img.ndim != ndim or img.shape[-1] != source.order:
        raise BadParams("image list length does not match source order")
    # read as unsigned, a negative image is larger than any order
    if img.size and int(img.view(np.uint32).max()) >= target.order:
        raise BadParams(f"images must lie in 0..{target.order - 1}")
    img.flags.writeable = False
    return img


class _BlockVerdict:
    """Two verdicts on a read-only (maps x |source|) block of images, each
    decided for the whole block on its first ask and kept: the images and
    both tables are read-only, so no answer can change.

    `masks()` is the `_map_masks` of the block.  `classes()` says, for each
    row, whether it sends every element into its own conjugacy class; it
    reads the source's `class_ids()`, any labels equal exactly within a
    class, so it means something only for maps of a group to itself.
    """

    __slots__ = ("source", "target", "block", "_masks", "_classes")

    def __init__(self, source: Group, target: Group, block: np.ndarray):
        self.source = source
        self.target = target
        self.block = block
        self._masks = None
        self._classes = None

    def masks(self) -> tuple:
        if self._masks is None:
            self._masks = _map_masks(self.source, self.target, self.block)
        return self._masks

    def classes(self) -> list:
        if self._classes is None:
            cid = self.source.class_ids()
            self._classes = (cid[self.block] == cid).all(axis=1).tolist()
        return self._classes


def _map_masks(source: Group, target: Group, block: np.ndarray) -> tuple:
    """For each row f of a (maps x |source|) block of images in the target,
    whether f is bijective, a homomorphism and an automorphism, as three
    lists of bools.

    Source and target are read through `order`, `products(x, y)` and
    `generating_sequence()` only, so either may be any group that gives
    that arithmetic without a table, such as `counterexample.SplitExtension`.

    f is bijective when source and target have one order and the images
    hit every element: one scatter.  f is a homomorphism when f(0) = 0 and
    f(x s) = f(x) f(s) for every x and each s of `source.generating_sequence()`:
    n * k entries, not n^2.  That is exact.  The closure of the generating
    sequence is the whole source, and in a finite group s^-1 = s^(|s| - 1),
    so every y != 0 is a positive word in the generators; induction on its
    length gives f(x y) = f(x) f(y).  For y = 0 it needs f(0) = 0, which
    follows from f(s) = f(0) f(s) when there is a generator s, but not for
    the trivial source, which has none.  f is an automorphism when the
    source is the target and f is both.

    Both checks run on BLOCK_ELEMENTS entries of the (maps x n x k) check
    at a time, so neither holds an array over the whole block.
    """
    n, rows = source.order, len(block)
    gens = np.asarray(source.generating_sequence(), dtype=np.intp)
    cols = source.products(np.arange(n)[:, None], gens)  # cols[x, j] = x * gens[j]
    bij = np.zeros(rows, dtype=bool)
    hom = np.empty(rows, dtype=bool)
    step = max(1, BLOCK_ELEMENTS // (n * max(1, gens.size)))
    for lo in range(0, rows, step):
        f = block[lo : lo + step]
        if n == target.order:
            hit = np.zeros(f.shape, dtype=bool)
            hit[np.arange(len(f))[:, None], f] = True
            bij[lo : lo + step] = hit.all(axis=1)
        hom[lo : lo + step] = ((f[:, 0] == 0)
                               & (f[:, cols] == target.products(f[:, :, None], f[:, None, gens]))
                               .all(axis=(1, 2)))
    return bij.tolist(), hom.tolist(), (bij & hom & (source is target)).tolist()


def identity_map(g: Group) -> GroupMap:
    return GroupMap(g, g, np.arange(g.order, dtype=np.int32))


class Action:
    """A homomorphism from a group H into the automorphisms of a group N."""

    __slots__ = ("actor", "acted", "maps")

    def __init__(self, actor: Group, acted: Group, maps: Sequence[np.ndarray]):
        self.actor = actor
        self.acted = acted
        try:
            block = np.array(maps, dtype=np.int32)  # row h: the images of act(h)
        except ValueError:  # a ragged list of maps
            block = None
        if block is None or block.shape != (actor.order, acted.order):
            raise BadParams("need one image list of the acted order per actor element")
        block.flags.writeable = False
        self.maps = block
        self.check()

    def check(self) -> None:
        M = self.maps
        if not np.array_equal(M[0], np.arange(self.acted.order)):
            raise BadParams("identity must act trivially")
        if not all(_map_masks(self.acted, self.acted, M)[2]):
            raise BadParams("actor element does not act as an automorphism")
        # act(h1 h2) must equal act(h1) after act(h2):
        # (act(h1)∘act(h2))(x) = act(h1)(act(h2)(x)), for all (h1, h2, x) at once
        rows = np.arange(self.actor.order)[:, None, None]
        bad = (M[self.actor.table] != M[rows, M[None, :, :]]).any(axis=2)
        if bad.any():
            h1, h2 = np.argwhere(bad)[0]
            raise BadParams(f"action is not a homomorphism at ({h1},{h2})")

    def apply(self, h: int, n: int) -> int:
        return int(self.maps[h, n])


def trivial_action(actor: Group, acted: Group) -> Action:
    ident = np.arange(acted.order, dtype=np.int32)
    return Action(actor, acted, [ident] * actor.order)


# -- validation of raw tables ----------------------------------------------


def validate_group(table, names: Optional[Sequence[str]] = None) -> Group:
    """Validate a raw multiplication table and return a Group.

    The identity is located and relabeled to index 0.  Checks: Latin square,
    identity, two-sided inverses, then associativity by Light's test
    (Clifford and Preston, The Algebraic Theory of Semigroups I, 1961,
    section 1.2) on the generators from `Group.generating_sequence`.  Each
    check runs on the whole table at once and reports the same first
    failure as an element-by-element scan would.  The table keeps its
    integer dtype until the range check, then is narrowed to int16
    (n <= 32767) or int32.

    Light's test is exact at every order:

    - the Latin-square, identity and inverse checks run first, so the table
      is a loop;
    - a generator a with (x*a)*y == x*(a*y) for all x, y lies in the middle
      nucleus, and the middle nucleus of a loop is an associative subloop,
      that is, a group;
    - Dimino's arithmetic in `Group._extend` then only multiplies elements
      of that group, so its element count is exact, and reaching n proves
      that the middle nucleus is the whole loop.

    The returned Group keeps the generating sequence the test used and the
    inverses the inverse check found, so neither is computed again.  When
    the test fails and n <= FULL_ASSOC_LIMIT, a full scan names the first
    failing (a, b, c) in lexicographic order; above that, the error names
    the first failing (x, a, y) of Light's test.
    """
    t = np.asarray(table)
    if t.dtype.kind not in "iu":
        t = np.asarray(table, dtype=np.int64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise NotLatinSquare(f"table must be square, got shape {t.shape}")
    n = int(t.shape[0])
    if t.min(initial=0) < 0 or t.max(initial=0) >= n:
        raise NotLatinSquare("table entries out of range")
    # astype copies, so the relabel below works on a copy of its own
    t = t.astype(np.int16 if n <= np.iinfo(np.int16).max else np.int32)
    ident = np.arange(n, dtype=t.dtype)
    # rows and columns are checked in the order row 0, column 0, row 1, ...
    bad_row = (np.sort(t, axis=1) != ident).any(axis=1)
    bad_col = (np.sort(t, axis=0) != ident[:, None]).any(axis=0)
    bad = np.flatnonzero(bad_row | bad_col)
    if bad.size:
        i = int(bad[0])
        raise NotLatinSquare(f"{'row' if bad_row[i] else 'column'} {i} is not a permutation")
    # column 0 holds 0 only in row e, so e is the one candidate identity
    e = int(np.flatnonzero(t[:, 0] == 0)[0]) if n else -1
    if e < 0 or not (np.array_equal(t[e], ident) and np.array_equal(t[:, e], ident)):
        raise NoIdentity("no two-sided identity element")
    if e != 0:
        # relabel by the transposition (0 e) in place on the working copy:
        # swap rows 0 and e, columns 0 and e, then the values 0 and e
        t[[0, e]] = t[[e, 0]]
        t[:, [0, e]] = t[:, [e, 0]]
        zero = t == 0
        t[t == e] = 0
        t[zero] = e
        del zero
        if names is not None:
            names = list(names)
            names[0], names[e] = names[e], names[0]
    right_inv = _row_zeros(t)
    bad = np.flatnonzero(t[right_inv, ident] != 0)
    if bad.size:
        raise NoInverse(f"element {bad[0]} has no two-sided inverse")
    # names are attached only after the last check, so that a wrong number
    # of names never hides a failed group axiom
    g = Group(t)
    gens = g.generating_sequence()
    for a in gens:
        lhs = np.take(t, t[:, a], axis=0)  # (x*a)*y over (x, y)
        rhs = np.take(t, t[a], axis=1)     # x*(a*y) over (x, y)
        if not np.array_equal(lhs, rhs):
            if n <= FULL_ASSOC_LIMIT:
                _raise_first_nonassociative(t)
            x, y = np.argwhere(lhs != rhs)[0]
            raise NotAssociative(f"({x}*{a})*{y} != {x}*({a}*{y})")
    g = Group(g.table, names)
    g._gens = gens
    g._inv = right_inv
    return g


def _raise_first_nonassociative(t: np.ndarray) -> None:
    """Raise NotAssociative for the first (a, b, c) with (a*b)*c != a*(b*c),
    scanning a = 0, 1, ... and (b, c) in row-major order; the table is known
    not to be associative."""
    # The table is read as a gather index n times, so it is converted to
    # intp once (2 MiB at n = 512); entries are in range, hence "clip".
    idx = t.astype(np.intp)
    lhs, rhs = np.empty_like(t), np.empty_like(t)
    for a in range(t.shape[0]):
        np.take(t, idx[a], axis=0, out=lhs, mode="clip")  # (a*b)*c over (b, c)
        np.take(t[a], idx, out=rhs, mode="clip")          # a*(b*c) over (b, c)
        if not np.array_equal(lhs, rhs):
            b, c = np.argwhere(lhs != rhs)[0]
            raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")
