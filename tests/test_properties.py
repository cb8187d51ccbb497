"""Property tests: the lattice primitives, the image search, file ingest,
quotients and p-part normalization against the direct algorithms they
replaced, and the shared arithmetic helpers and the scalar group arithmetic
against their definitions.

The oracles below are those direct algorithms: closure by squaring the
member set until it stops growing, the subgroup lattice by joining every
subgroup found with every cyclic subgroup, normality and normalizers by
conjugating the subset with every element of G, O_p(G) by intersecting
every conjugate of a Sylow subgroup, the generator-image search one node
at a time and over every conjugate of the first generator, innerness by a
set of generator-image tuples, the row-by-row parsers and table checks,
cosets numbered by an element loop, powers of a map by single
compositions, conjugacy classes by one np.unique per class, orbits and
cycle lengths by walking cycles or by a breadth-first search, the
pointwise-power candidate check one beta at a time, homomorphisms on all
n^2 pairs and bijectivity by np.unique, the normality of each cyclic
subgroup by one `is_normal` call, nilpotency by the normality of every
Sylow subgroup, and the index-2 subgroups by a breadth-first walk of the
coordinates.  sympy's permutation groups are an outside oracle for the
class count, the center and nilpotency.
"""

from math import lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blackburn._arith import (
    cycle_lengths,
    is_p_power,
    is_prime,
    orbit_labels,
    p_part,
    p_power_mask,
    perm_order,
    perm_power,
    prime_divisors,
)
from blackburn.abelian_pairs import (
    PairStats,
    _pairs_for_alpha,
    abelian_group,
    abelian_scope,
)
from blackburn import autos, core
from blackburn.autos import (
    _aut_images,
    _automorphism_rows,
    _inner_mask,
    _is_inner,
    _Search,
    enumerate_aut,
    enumerate_autc,
    find_isomorphism,
    inner_automorphism,
    is_class_preserving,
    p_part_normalize,
)
from blackburn.catalog import CATALOG, builtin, cyclic, direct_product
from blackburn.classify import (
    NONTRIVIAL,
    TRIVIAL,
    UNDEFINED,
    _blackburn_r,
    _trichotomy,
    index2_subgroups,
    is_dedekind,
    r_of,
)
from blackburn.core import (
    CLASS_BLOCK_LIMIT,
    FULL_ASSOC_LIMIT,
    Group,
    GroupMap,
    Subgroup,
    identity_map,
    validate_group,
)
from blackburn.counterexample import build_witness, extend_witness
from blackburn.errors import (
    GroupError,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotAutomorphism,
    NotLatinSquare,
    NotNormal,
    NotPermutation,
    OrderCap,
    ParseError,
    PreconditionFailed,
)
from blackburn.formats import PERMGEN_CLOSURE_CAP, _content_lines, parse_cayley, parse_permgen
from blackburn.suites import FULL_MAX_ORDER, _normal_via_cyclic, blackburn_catalog
from test_core import NONASSOC_LOOP

NAMES = [e.name for e in CATALOG if e.order <= 64]
LATTICE_NAMES = [e.name for e in CATALOG if e.order <= 128]
SEARCH_NAMES = [e.name for e in CATALOG if e.order <= 32]
# brute-force Aut of e16 and q8xc4 takes 9k-41k nodes, too many for the oracle
AUT_NAMES = [n for n in SEARCH_NAMES if n not in ("e16", "q8xc4")]
# the order-243 group of the p = 3 witness, beside the catalog names
WITNESS_243 = "witness-243"
# the Blackburn groups of the catalog up to order 64
BLACKBURN_NAMES = [name for name, _ in blackburn_catalog(64)]
# Blackburn groups (p = 2) beside the catalog whose case c has a T of order
# 2, which must avoid the square of x; every catalog case c has T = 1
CASE_C_PRODUCTS = {"q12xc2": "q12", "c3_c8xc2": "c3_c8"}
_GROUPS: dict = {}


def _group(name: str) -> Group:
    if name not in _GROUPS:
        if name == WITNESS_243:
            _GROUPS[name] = build_witness(3).g_group
        elif name in CASE_C_PRODUCTS:
            _GROUPS[name] = direct_product(builtin(CASE_C_PRODUCTS[name]), cyclic(2))
        else:
            _GROUPS[name] = builtin(name)
    return _GROUPS[name]


# -- oracles ------------------------------------------------------------------


def old_conjugacy_classes(g: Group) -> tuple:
    """The classes, one np.unique of the conjugates of each element not yet
    classed, in order of least member; and each element's class number."""
    T, inv, n = g.table, g.inverses, g.order
    cid = np.full(n, -1, dtype=np.int32)
    classes = []
    for i in range(n):
        if cid[i] >= 0:
            continue
        members = np.unique(T[inv, T[i, np.arange(n)]])
        cid[members] = len(classes)
        classes.append(members)
    return classes, cid


def old_orbit_ids(perm: np.ndarray) -> np.ndarray:
    """The orbits of one permutation numbered by least member, by walking
    each cycle from its least member."""
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


def old_orbit_minima(perms: list, n: int) -> np.ndarray:
    """The least member of each point's orbit under a list of permutations,
    by a breadth-first search from every point."""
    out = np.empty(n, dtype=np.int64)
    for x in range(n):
        orbit = {x}
        queue = [x]
        for y in queue:
            for perm in perms:
                z = int(perm[y])
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        out[x] = min(orbit)
    return out


def old_closure(g: Group, seed) -> np.ndarray:
    mem = np.unique(np.asarray([0, *seed], dtype=np.int32))
    while True:
        prod = np.unique(g.table[np.ix_(mem, mem)])
        if prod.size == mem.size:
            return prod
        mem = prod


def old_is_normal(g: Group, mem: np.ndarray) -> bool:
    T, inv = g.table, g.inverses
    memset = frozenset(mem.tolist())
    for x in range(g.order):
        if not frozenset(T[inv[x], T[mem, x]].tolist()) <= memset:
            return False
    return True


def old_normalizer(g: Group, mem: np.ndarray) -> np.ndarray:
    T, inv = g.table, g.inverses
    memset = frozenset(mem.tolist())
    keep = [x for x in range(g.order) if frozenset(T[inv[x], T[mem, x]].tolist()) == memset]
    return np.asarray(keep, dtype=np.int32)


def old_intersect_conjugates(g: Group, mem: np.ndarray) -> np.ndarray:
    T, inv = g.table, g.inverses
    keep = np.zeros(g.order, dtype=bool)
    keep[mem] = True
    for x in range(g.order):
        conj = np.zeros(g.order, dtype=bool)
        conj[T[inv[x], T[mem, x]]] = True
        keep &= conj
    return np.nonzero(keep)[0]


def old_sylow(g: Group, p: int) -> np.ndarray:
    full, n = 1, g.order
    while n % p == 0:
        full *= p
        n //= p
    if full == 1:
        return np.array([0], dtype=np.int32)
    orders = g.element_orders()
    p_elems = [x for x in range(g.order) if is_p_power(orders[x], p)]
    mem = old_closure(g, [max(p_elems, key=lambda x: (orders[x], -x))])
    while mem.size < full:
        inside = set(mem.tolist())
        ext = next(x for x in old_normalizer(g, mem).tolist()
                   if x not in inside and is_p_power(orders[x], p))
        mem = old_closure(g, [*mem.tolist(), ext])
    return mem


def old_quotient(g: Group, mem: np.ndarray) -> tuple:
    """The quotient table and projection, numbering each coset when the
    element loop first meets it."""
    T = g.table
    coset_id = np.full(g.order, -1, dtype=np.int32)
    reps = []
    for i in range(g.order):
        if coset_id[i] < 0:
            coset_id[T[i, mem]] = len(reps)
            reps.append(i)
    reps = np.asarray(reps, dtype=np.int32)
    return coset_id[T[np.ix_(reps, reps)]], coset_id


def old_inner_generator_tuples(g: Group) -> set:
    """The generator images of every inner automorphism, as a set of tuples."""
    t, inv = g.table, g.inverses
    cols = [t[inv, t[gen, np.arange(g.order)]] for gen in g.generating_sequence()]
    return {tuple(int(c[a]) for c in cols) for a in range(g.order)}


def old_is_inner(g: Group, f: GroupMap) -> bool:
    gens = g.generating_sequence()
    return tuple(int(f.images[x]) for x in gens) in old_inner_generator_tuples(g)


def old_is_homomorphism(f: GroupMap) -> bool:
    """f(x y) == f(x) f(y) on all n^2 pairs (x, y)."""
    img = f.images
    return bool(np.array_equal(img[f.source.table], f.target.table[np.ix_(img, img)]))


def old_is_bijective(f: GroupMap) -> bool:
    return bool(np.unique(f.images).size == f.source.order)


def check_map_predicates(f: GroupMap) -> bool:
    """The three map predicates of a fresh GroupMap against the n^2 check and
    np.unique; returns whether f is a homomorphism."""
    hom, bij = old_is_homomorphism(f), old_is_bijective(f)
    assert f.is_homomorphism() == hom
    assert f.is_bijective() == bij
    assert f.is_automorphism() == (f.source is f.target and bij and hom)
    return hom


def swapped(images: np.ndarray, a: int, b: int) -> np.ndarray:
    """A copy of images with the images of a and b exchanged."""
    out = images.copy()
    out[[a, b]] = out[[b, a]]
    return out


def old_p_part_normalize(sigma: GroupMap, gamma: GroupMap, p: int) -> GroupMap:
    """p_part_normalize with (gamma.sigma)^r taken as r single compositions."""
    g = sigma.source
    if not is_p_power(sigma.map_order(), p):
        raise PreconditionFailed("sigma must have p-power order")
    if not is_class_preserving(g, sigma):
        raise PreconditionFailed("sigma must be class-preserving")
    if not old_is_inner(g, gamma):
        raise PreconditionFailed("gamma must be inner")
    comp = gamma.then(sigma)
    r = comp.map_order()
    while r % p == 0:
        r //= p
    out = identity_map(g)
    for _ in range(r):
        out = out.then(comp)
    if not is_p_power(out.map_order(), p) or not is_class_preserving(g, out):
        raise PreconditionFailed("normalized map lost its defining properties")
    if old_is_inner(g, out) != old_is_inner(g, sigma):
        raise PreconditionFailed("innerness was not preserved")
    return out


def old_all_subgroups(g: Group) -> list:
    """Every subgroup's members, ordered by (order, members): starting from
    the cyclic subgroups, each subgroup found is joined with every cyclic
    subgroup it does not contain, until no join is new."""
    orders = g.element_orders()
    cyc_gens, found, frontier = [], set(), []
    for c in g.cyclic_subgroups():
        mem = c.members
        gen = next(x for x in mem.tolist() if orders[x] == mem.size)
        mask = np.zeros(g.order, dtype=bool)
        mask[mem] = True
        cyc_gens.append(gen)
        found.add(mask.tobytes())
        frontier.append((mask, mem, [gen] if gen else []))
    while frontier:
        fresh = []
        for hmask, hmem, hgens in frontier:
            for c in cyc_gens:
                if hmask[c]:
                    continue
                mask = hmask.copy()
                gens = [*hgens, c]
                mem = g._extend(hmem, mask, gens)
                key = mask.tobytes()
                if key not in found:
                    found.add(key)
                    fresh.append((mask, mem, gens))
        frontier = fresh
    subs = [np.flatnonzero(np.frombuffer(k, dtype=bool)).tolist() for k in found]
    return sorted(subs, key=lambda m: (len(m), m))


def old_generating_sequence(g: Group) -> list:
    gens, mem = [], np.array([0], dtype=np.int32)
    while mem.size < g.order:
        x = int(np.setdiff1d(np.arange(g.order), mem)[0])
        gens.append(x)
        mem = old_closure(g, [*mem.tolist(), x])
    return gens


def dfs_search(source: Group, target: Group, gens, cands, inv_src, inv_tgt,
               first_only: bool = False) -> tuple:
    """(images, nodes) of a depth-first search that evaluates one partial
    assignment per node, along a breadth-first spanning tree of H_d."""
    src_rows, rows = source.table.tolist(), target.table.tolist()
    depths = []
    for d in range(len(gens)):
        pos, members, parent = {0: 0}, [0], [(-1, -1)]
        i = 0
        while i < len(members):
            for j, gen in enumerate(gens[: d + 1]):
                f = src_rows[members[i]][gen]
                if f not in pos:
                    pos[f] = len(members)
                    members.append(f)
                    parent.append((i, j))
            i += 1
        prod_pos = [[pos[src_rows[e][gen]] for e in members] for gen in gens[: d + 1]]
        depths.append((members, parent, prod_pos))
    out, nodes = [], 0

    def descend(depth: int, imgs: list) -> bool:
        nonlocal nodes
        nodes += 1
        members, parent, prod_pos = depths[depth]
        img = [0] * len(members)
        for i in range(1, len(members)):
            p, j = parent[i]
            img[i] = rows[img[p]][imgs[j]]
        if any(inv_tgt[y] != inv_src[x] for x, y in zip(members, img)):
            return False
        if len(set(img)) != len(img):
            return False
        for j, gi in enumerate(imgs):
            if any(img[prod_pos[j][i]] != rows[img[i]][gi] for i in range(len(members))):
                return False
        if depth + 1 == len(gens):
            full = np.empty(source.order, dtype=np.int32)
            full[members] = img
            out.append(full)
            return first_only
        return any(descend(depth + 1, imgs + [c]) for c in cands[depth + 1])

    if gens:
        any(descend(0, [c]) for c in cands[0])
    else:
        out.append(np.zeros(1, dtype=np.int32))
    return out, nodes


def class_candidates(g: Group) -> tuple:
    """Generators of g, and for each the members of its conjugacy class."""
    gens, cid, classes = g.generating_sequence(), g.class_ids(), g.conjugacy_classes()
    return gens, [classes[cid[gen]].tolist() for gen in gens]


def order_candidates(g: Group, h: Group) -> tuple:
    """Generators of g, and for each the elements of h of the same order."""
    gens = g.generating_sequence()
    g_orders, h_orders = g.element_orders(), h.element_orders()
    return gens, [[x for x in range(h.order) if h_orders[x] == g_orders[gen]] for gen in gens]


def old_validate_group(table, names=None) -> Group:
    """Every check one row, column or element at a time, on an int64 copy."""
    t = np.asarray(table, dtype=np.int64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise NotLatinSquare(f"table must be square, got shape {t.shape}")
    n = int(t.shape[0])
    if t.min(initial=0) < 0 or t.max(initial=0) >= n:
        raise NotLatinSquare("table entries out of range")
    ident = np.arange(n)
    for i in range(n):
        if not np.array_equal(np.sort(t[i]), ident):
            raise NotLatinSquare(f"row {i} is not a permutation")
        if not np.array_equal(np.sort(t[:, i]), ident):
            raise NotLatinSquare(f"column {i} is not a permutation")
    e = -1
    for i in range(n):
        if np.array_equal(t[i], ident) and np.array_equal(t[:, i], ident):
            e = i
            break
    if e < 0:
        raise NoIdentity("no two-sided identity element")
    if e != 0:
        perm = np.arange(n)
        perm[0], perm[e] = e, 0
        t = perm[t[np.ix_(perm, perm)]]
        if names is not None:
            names = list(names)
            names[0], names[e] = names[e], names[0]
    for a in range(n):
        b = int(np.nonzero(t[a] == 0)[0][0])
        if t[b, a] != 0:
            raise NoInverse(f"element {a} has no two-sided inverse")
    assert n <= FULL_ASSOC_LIMIT
    for a in range(n):
        lhs = t[t[a], :]
        rhs = t[a][t]
        if not np.array_equal(lhs, rhs):
            b, c = np.argwhere(lhs != rhs)[0]
            raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")
    return Group(t.astype(np.int32), names)


def old_parse_cayley(text: str) -> Group:
    """Every entry converted and range-checked with int(), row by row."""
    lines = _content_lines(text)
    if not lines or lines[0][1] != "cayley 1":
        raise ParseError("expected header 'cayley 1'", lines[0][0] if lines else 1)
    if len(lines) < 2 or not lines[1][1].startswith("order "):
        raise ParseError("expected 'order n'", lines[1][0] if len(lines) > 1 else 1)
    try:
        n = int(lines[1][1].split()[1])
    except (IndexError, ValueError):
        raise ParseError("malformed order line", lines[1][0])
    if n < 1:
        raise ParseError("order must be positive", lines[1][0])
    body = lines[2:]
    names = None
    if body and body[0][1].startswith("names"):
        lineno, content = body[0]
        names = content.split()[1:]
        if len(names) != n:
            raise ParseError(f"expected {n} names, got {len(names)}", lineno)
        body = body[1:]
    if len(body) != n:
        raise ParseError(f"expected {n} table rows, got {len(body)}",
                         body[-1][0] if body else lines[1][0])
    table = []
    for lineno, content in body:
        try:
            row = [int(x) for x in content.split()]
        except ValueError:
            raise ParseError("table row has a non-integer entry", lineno)
        if len(row) != n:
            raise ParseError(f"expected {n} entries, got {len(row)}", lineno)
        if any(x < 0 or x >= n for x in row):
            raise ParseError("table entry out of range", lineno)
        table.append(row)
    return old_validate_group(table, names)


def old_parse_permgen(text: str, cap: int = PERMGEN_CLOSURE_CAP) -> Group:
    """Closure over tuples, and every product of two elements composed."""
    lines = _content_lines(text)
    degree = int(lines[1][1].split()[1])
    gens = []
    for lineno, content in lines[2:]:
        imgs = tuple(int(x) for x in content.split()[1:])
        if sorted(imgs) != list(range(degree)):
            raise NotPermutation(f"line {lineno}: image list is not a permutation")
        gens.append(imgs)
    ident = tuple(range(degree))
    elements = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for gen in gens:
                prod = tuple(gen[e[x]] for x in range(degree))
                if prod not in index:
                    if len(elements) >= cap:
                        raise OrderCap(f"permutation closure exceeds cap {cap}")
                    index[prod] = len(elements)
                    elements.append(prod)
                    nxt.append(prod)
        frontier = nxt
    n = len(elements)
    table = np.zeros((n, n), dtype=np.int32)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            table[i, j] = index[tuple(b[a[x]] for x in range(degree))]
    sep = "" if degree <= 10 else ","
    return Group(table, [sep.join(str(x) for x in e) for e in elements])


def outcome(load, *args) -> tuple:
    """What a loader returns or raises, in comparable form."""
    try:
        g = load(*args)
    except (ParseError, NotPermutation, OrderCap, NotLatinSquare, NoIdentity, NoInverse,
            NotAssociative) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return g.table.dtype.str, g.table.tolist(), g.names


# -- strategies ---------------------------------------------------------------


@st.composite
def groups(draw, names=NAMES) -> Group:
    """A catalog group, with its non-identity elements relabelled at random."""
    g = _group(draw(st.sampled_from(names)))
    perm = np.asarray([0, *draw(st.permutations(range(1, g.order)))], dtype=np.int32)
    table = np.empty_like(g.table)
    table[np.ix_(perm, perm)] = perm[g.table]
    return Group(table)


def elements(g: Group, **kw):
    return st.lists(st.integers(0, g.order - 1), **kw)


@st.composite
def subsets(draw, g: Group) -> np.ndarray:
    """A random subset, or a union of classes with possibly one element toggled."""
    if draw(st.booleans()):
        return np.unique(np.asarray(draw(elements(g, max_size=g.order)), dtype=np.int32))
    classes = g.conjugacy_classes()
    picked = draw(st.lists(st.sampled_from(range(len(classes))), unique=True))
    mask = np.zeros(g.order, dtype=bool)
    for c in picked:
        mask[classes[c]] = True
    if draw(st.booleans()):
        x = draw(st.integers(0, g.order - 1))
        mask[x] = not mask[x]
    return np.flatnonzero(mask).astype(np.int32)


def _primes(n: int) -> list:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


# -- properties ---------------------------------------------------------------


@settings(max_examples=150)
@given(st.data())
def test_closure_matches_fixed_point(data):
    g = data.draw(groups())
    seed = data.draw(elements(g, max_size=4))
    got = g.closure(seed)
    assert got.dtype == np.int32
    assert np.array_equal(got, old_closure(g, seed))


@settings(max_examples=150)
@given(st.data())
def test_is_normal_matches_conjugation_loops_on_subsets(data):
    g = data.draw(groups())
    mem = data.draw(subsets(g))
    s = Subgroup(g, mem)
    assert s.is_normal() == old_is_normal(g, mem) == _normal_via_cyclic(g, s)


@settings(max_examples=60)
@given(st.data())
def test_normality_and_normalizers_of_subgroups(data):
    g = data.draw(groups())
    s = g.subgroup(data.draw(elements(g, max_size=3)))
    assert s.is_normal() == old_is_normal(g, s.members) == _normal_via_cyclic(g, s)
    assert np.array_equal(g.normalizer(s).members, old_normalizer(g, s.members))


@settings(max_examples=60)
@given(st.data())
def test_sylow_and_o_p_match_direct_algorithms(data):
    g = data.draw(groups())
    p = data.draw(st.sampled_from(_primes(g.order) or [2]))
    syl = g.sylow(p)
    assert np.array_equal(syl.members, old_sylow(g, p))
    assert np.array_equal(g.o_p(p).members, old_intersect_conjugates(g, syl.members))


@settings(max_examples=40)
@given(st.data())
def test_subgroups_built_from_masks_keep_the_member_invariants(data):
    # these skip the np.unique of Subgroup.__post_init__, so their members
    # must already be sorted, distinct, int32 and read-only
    g = data.draw(groups())
    s = g.subgroup(data.draw(elements(g, max_size=3)))
    p = data.draw(st.sampled_from(_primes(g.order) or [2]))
    r = r_of(g).subgroup
    for sub in (g.normalizer(s), g.center(), g.centralizer(s.members), g.o_p(p),
                *([r] if r is not None else [])):
        mem = sub.members
        assert mem.dtype == np.int32 and not mem.flags.writeable
        assert np.array_equal(mem, np.unique(mem))


@settings(max_examples=60)
@given(groups())
def test_generating_sequence_matches_greedy_closure(g):
    assert g.generating_sequence() == old_generating_sequence(g)


def _is_solvable(g: Group) -> bool:
    while g.order > 1:
        derived = g.commutator_subgroup()
        if derived.order == g.order:
            return False
        g, _ = derived.as_group()
    return True


def check_lattice(g: Group) -> list:
    """all_subgroups against the join oracle; and the cyclic extension alone
    must reach exactly the solvable subgroups, so that the join completion
    runs only when G is not solvable."""
    subs = g.all_subgroups()
    assert [s.members.tolist() for s in subs] == old_all_subgroups(g)
    reached = {mask.tobytes() for layer in g._cyclic_extension() for mask, _, _ in layer}
    for s in subs:
        mask = np.zeros(g.order, dtype=bool)
        mask[s.members] = True
        assert (mask.tobytes() in reached) == _is_solvable(s.as_group()[0])
    return subs


@settings(max_examples=20)
@given(st.data())
def test_all_subgroups_do_not_depend_on_labels(data):
    name = data.draw(st.sampled_from(LATTICE_NAMES))
    g = data.draw(groups([name]))
    subs = check_lattice(g)
    for s in subs:
        assert np.array_equal(old_closure(g, s.members), s.members)
    expected = [s.order for s in _group(name).all_subgroups()]
    assert [s.order for s in subs] == expected


@settings(max_examples=2)
@given(st.data())
def test_all_subgroups_of_s5_and_the_order_128_groups(data):
    # the largest lattices, each drawn in every example; S5 is the one
    # catalog group that is not solvable: cyclic extension finds its 154
    # solvable subgroups, and A5 and S5 come from the join completion
    for name in ("s5", "q128", "q8xq8xc2"):
        check_lattice(data.draw(groups([name])))


def power_block(g: Group) -> np.ndarray:
    """Row k holds x^k for every element x, for k = 0 .. exponent."""
    ar = np.arange(g.order)
    pows = [np.zeros_like(ar), ar]
    while pows[-1].any():
        pows.append(g.table[pows[-1], ar])
    return np.asarray(pows)


@settings(max_examples=40)
@given(st.data())
def test_scalar_arithmetic_matches_the_table(data):
    g = data.draw(groups())
    T, n, ar = g.table, g.order, np.arange(g.order)
    pows = power_block(g)
    orders = np.argmax(pows[1:] == 0, axis=0) + 1
    assert [g.order_of(x) for x in range(n)] == orders.tolist()
    assert g.element_orders() == orders.tolist()
    k = data.draw(st.integers(0, 3 * n))
    for e in (k, -k):
        assert [g.power(x, e) for x in range(n)] == pows[e % orders, ar].tolist()
    inv = np.argmax(T == 0, axis=1)
    conj = T[T[inv[:, None], ar[None, :]], ar[:, None]]  # conj[y, x] = y^-1 x y
    assert [[g.conj(x, y) for x in range(n)] for y in range(n)] == conj.tolist()
    least_gen: dict = {}
    for x in range(n):
        least_gen.setdefault(tuple(np.unique(pows[: orders[x], x]).tolist()), x)
    want = sorted(least_gen, key=least_gen.get)
    assert [tuple(c.members.tolist()) for c in g.cyclic_subgroups()] == want


@settings(max_examples=60)
@given(st.data())
def test_quotient_by_a_normal_subgroup(data):
    g = data.draw(groups())
    seed = data.draw(elements(g, max_size=3))
    s = g.subgroup(seed)
    if not old_is_normal(g, s.members):
        with pytest.raises(NotNormal):
            g.quotient(s)
    # the subgroup generated by whole conjugacy classes is normal
    classes, cid = g.conjugacy_classes(), g.class_ids()
    normal = g.subgroup(np.concatenate([classes[cid[x]] for x in [0, *seed]]))
    assert old_is_normal(g, normal.members)
    q, proj = g.quotient(normal)
    want_table, want_images = old_quotient(g, normal.members)
    assert q.table.tobytes() == want_table.tobytes()
    assert proj.images.tobytes() == want_images.tobytes()
    assert q.order == g.order // normal.order
    assert np.array_equal(validate_group(q.table).table, q.table)
    f = proj.images
    assert proj.source is g and proj.target is q
    assert np.array_equal(f[g.table], q.table[np.ix_(f, f)])
    assert np.array_equal(np.unique(f), np.arange(q.order))
    assert np.array_equal(np.flatnonzero(f == 0), normal.members)
    # the map predicates on a map between two groups, and with one image changed
    assert check_map_predicates(proj)
    assert proj.is_bijective() == (normal.order == 1)
    images = f.copy()
    images[data.draw(st.integers(0, g.order - 1))] = data.draw(st.integers(0, q.order - 1))
    check_map_predicates(GroupMap(g, q, images))


def test_subgroup_counts_pinned():
    assert len(builtin("s5").all_subgroups()) == 156
    assert len(builtin("q8xq8xc2").all_subgroups()) == 700


@settings(max_examples=40)
@given(groups(AUT_NAMES))
def test_enumerate_aut_matches_node_by_node_search(g):
    gens, cands = order_candidates(g, g)
    orders = g.element_orders()
    want, nodes = dfs_search(g, g, gens, cands, orders, orders)
    got = enumerate_aut(g)
    assert [m.images.tolist() for m in got] == [w.tolist() for w in want]
    block = _aut_images(g)
    assert block.dtype == np.int32 and block.shape == (len(got), g.order)
    assert block.tobytes() == b"".join(m._bytes for m in got)
    search = _Search(g, g, gens, cands, np.asarray(orders), np.asarray(orders), 10**8)
    search.run()
    assert search.nodes == nodes
    keys = {m._bytes for m in got}
    assert len(keys) == len(got)
    assert all(m.is_automorphism() for m in got)
    # closed under composition: with every map when Aut is small, else with a sample
    others = got if len(got) <= 64 else got[:: max(1, len(got) // 16)]
    assert all(m.then(a)._bytes in keys for m in got for a in others)


@settings(max_examples=40)
@given(groups(SEARCH_NAMES))
def test_enumerate_autc_matches_node_by_node_search(g):
    gens, cands = class_candidates(g)
    cid = g.class_ids()
    want, _ = dfs_search(g, g, gens, cands, cid.tolist(), cid.tolist())
    maps, rep = enumerate_autc(g)
    assert [m.images.tolist() for m in maps] == [w.tolist() for w in want]
    # only the stabilizer of the first generator is searched
    stab_cands = [[gens[0]], *cands[1:]] if gens else []
    _, nodes = dfs_search(g, g, gens, stab_cands, cid.tolist(), cid.tolist())
    assert rep.search_stats["nodes"] == nodes
    assert all(m.is_automorphism() for m in maps)
    assert all(np.array_equal(cid[m.images], cid) for m in maps)
    keys = {m._bytes for m in maps}
    assert all(m.then(a)._bytes in keys for m in maps for a in maps)


def test_enumerate_autc_assembles_the_stabilizer_by_inner_cosets():
    """On every catalog group and both witness groups: the maps of the full
    search over every conjugate of every generator, |Aut_c| = |g0^G| |S|,
    Out_c trivial exactly when |S| = |C_G(g0) : Z(G)|, and the witness the
    first map of the full search that is not inner."""
    bundle = extend_witness(build_witness(3))
    tables = [e.build().table for e in CATALOG]
    for table in [*tables, bundle.g_group.table, bundle.ga_group.table]:
        g = Group(table)
        gens, cands = class_candidates(g)
        cid = g.class_ids()
        want = _Search(g, g, gens, cands, cid, cid, 10**8).run()
        maps, rep = enumerate_autc(g)
        assert [m.images.tobytes() for m in maps] == [w.tobytes() for w in want]
        stats = rep.search_stats
        stab = stats["depths"][-1]["survivors"] if gens else 1
        conjugates = len(cands[0]) if gens else 1
        assert stats["first_generator_conjugates"] == conjugates
        assert rep.autc_order == conjugates * stab
        center = g.center().order
        assert rep.inn_order == g.order // center
        centralizer = g.centralizer(gens[:1]).order
        assert rep.outc_trivial == (stab == centralizer // center)
        inner = old_inner_generator_tuples(g)
        outer = [w for w in want if tuple(w[gens].tolist()) not in inner]
        assert rep.outc_trivial == (not outer)
        if outer:
            assert rep.witness.images.tobytes() == outer[0].tobytes()
        else:
            assert rep.witness is None


@settings(max_examples=40)
@given(st.data())
def test_inner_mask_matches_inner_generator_tuples(data):
    g = data.draw(groups(SEARCH_NAMES))
    gens = g.generating_sequence()
    maps, _ = enumerate_autc(g)
    rows = [m.images for m in maps]
    rows += [inner_automorphism(g, a).images for a in data.draw(elements(g, max_size=4))]
    rows += [np.asarray(data.draw(elements(g, min_size=g.order, max_size=g.order)))
             for _ in range(data.draw(st.integers(0, 3)))]
    inner = old_inner_generator_tuples(g)
    want = [tuple(r[gens].tolist()) in inner for r in rows]
    assert _inner_mask(g, np.asarray(rows)[:, gens]).tolist() == want
    assert [_is_inner(g, m) for m in maps] == want[: len(maps)]


def test_inner_mask_on_the_witness_sigma():
    b = extend_witness(build_witness(3))
    ga = b.ga_group
    tampered = GroupMap(ga, ga, np.arange(ga.order))
    twisted = [inner_automorphism(ga, a).then(b.sigma) for a in (1, 9, 100)]
    for f in [b.sigma, tampered, *twisted, inner_automorphism(ga, 5)]:
        assert _is_inner(ga, f) == old_is_inner(ga, f)
    assert not _is_inner(ga, b.sigma) and _is_inner(ga, tampered)


@settings(max_examples=60)
@given(groups())
def test_inverses_are_two_sided(g):
    inv = g.inverses
    x = np.arange(g.order)
    assert inv.dtype == np.int32 and not inv.flags.writeable
    assert (g.table[x, inv] == 0).all() and (g.table[inv, x] == 0).all()


def check_classes(g: Group) -> None:
    """Class numbers, sizes and lists equal the element loop's: read-only
    int32 arrays, each sorted, listed by least member."""
    want, want_cid = old_conjugacy_classes(g)
    cid = g.class_ids()
    assert cid.dtype == np.int32 and not cid.flags.writeable
    assert np.array_equal(cid, want_cid)
    assert g._class_size.tolist() == [c.size for c in want]
    classes = g.conjugacy_classes()
    assert len(classes) == len(want)
    for got, c in zip(classes, want):
        assert got.dtype == np.int32 and not got.flags.writeable
        assert np.array_equal(got, c)


@settings(max_examples=60)
@given(st.data())
def test_conjugacy_classes_match_the_element_loop(data):
    g = data.draw(groups([*LATTICE_NAMES, WITNESS_243]))
    # normality needs the class numbers only, never the class list
    fresh = Group(g.table)
    mem = data.draw(subsets(g))
    _, cid = old_conjugacy_classes(g)
    union = np.isin(cid, cid[mem]).sum() == mem.size
    assert fresh.is_normal(Subgroup._trusted(fresh, mem)) == union
    assert fresh._classes is None
    check_classes(fresh)
    check_classes(g)


def relabelled(g: Group, seed: int) -> Group:
    """g with its non-identity elements permuted at random."""
    perm = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(g.order - 1)])
    table = np.empty_like(g.table)
    table[np.ix_(perm, perm)] = perm[g.table]
    return Group(table)


def test_conjugacy_classes_match_the_element_loop_above_the_block_limit():
    """S6, Q256 and both witness groups, as built and relabelled: all above
    CLASS_BLOCK_LIMIT, so their labels come from the generators."""
    bundle = extend_witness(build_witness(3))
    s6 = parse_permgen("permgen 1\ndegree 6\ngen 1 0 2 3 4 5\ngen 1 2 3 4 5 0\n")
    large = [s6, builtin("generalized_quaternion(256)"), bundle.g_group, bundle.ga_group]
    for g in large:
        assert g.order > CLASS_BLOCK_LIMIT
        for h in (Group(g.table), relabelled(g, g.order)):
            check_classes(h)


@settings(max_examples=60)
@given(groups(LATTICE_NAMES))
def test_orbit_labels_of_the_generators_are_the_class_minima(g):
    """The route above CLASS_BLOCK_LIMIT, run where the conjugation block
    gives the least member of every class directly."""
    t, inv = g.table, g.inverses
    gens = g.generating_sequence()
    want = t[inv[:, None], t.T].min(axis=0)  # row a: x -> a^-1 x a
    assert np.array_equal(orbit_labels(t[inv[gens][:, None], t[:, gens].T]), want)


@settings(max_examples=100)
@given(st.integers(1, 40), st.data())
def test_orbit_labels_match_the_cycle_walk(k, data):
    perms = [np.asarray(data.draw(st.permutations(range(k))), dtype=np.int32)
             for _ in range(data.draw(st.integers(1, 3)))]
    # one permutation: the labels rank to the orbit numbers of the cycle walk
    lab = orbit_labels(perms[0][None])
    assert np.array_equal((np.cumsum(lab == np.arange(k)) - 1)[lab], old_orbit_ids(perms[0]))
    assert np.array_equal(orbit_labels(np.asarray(perms)), old_orbit_minima(perms, k))


def test_orbit_labels_of_one_long_cycle():
    cycle = np.random.default_rng(2187).permutation(2187)
    perm = np.empty(2187, dtype=np.int32)
    perm[cycle] = np.roll(cycle, -1)
    assert not orbit_labels(perm[None]).any()
    assert not old_orbit_ids(perm).any()
    perm[cycle[[2, -1]]] = cycle[[0, 3]]  # split off a 3-cycle
    lab = orbit_labels(perm[None])
    assert np.array_equal((np.cumsum(lab == np.arange(2187)) - 1)[lab], old_orbit_ids(perm))


def walked_cycle_lengths(perm: np.ndarray, points) -> list:
    """The length of the cycle through each point, from the cycle walk."""
    ids = old_orbit_ids(perm)
    return np.bincount(ids)[ids[points]].tolist()


@pytest.mark.parametrize("factors", [[4, 2], [2, 2, 2], [8, 2], [4, 4], [4, 2, 2], [3, 3],
                                     [9, 3], [5, 5]])
def test_p_power_rows_of_aut_blocks_match_perm_order(factors):
    """On real Aut(A) blocks, the cycle lengths at every point have the row's
    order as their lcm, and the p-power rows read from the lengths at the
    basis are those of p-power order, for the group's prime and for others."""
    group, basis, _ = abelian_group(factors)
    auts = _aut_images(group)
    orders = [perm_order(row) for row in auts]
    assert np.lcm.reduce(cycle_lengths(auts, np.arange(group.order)), axis=1).tolist() == orders
    at_basis = cycle_lengths(auts, basis)
    assert at_basis.tolist() == [walked_cycle_lengths(row, basis) for row in auts]
    for p in (2, 3, 5):
        want = [is_p_power(k, p) for k in orders]
        assert p_power_mask(at_basis, p, group.order).all(axis=1).tolist() == want


def old_pairs_for_alpha(group, basis, digits, alpha, p, stats):
    """The candidate check one beta at a time, on Python lists: each beta is
    the table product, element by element, of the digit-th powers of its
    basis images (powers by repeated products), orbits come from walking
    the cycles of alpha, and beta's order is tested by repeated p-th
    powers.  Candidates sharing a prefix of basis images share its partial
    product, in the itertools.product order of the images."""
    n, r = group.order, len(basis)
    t = group.table.tolist()
    a = alpha.tolist()
    ident = list(range(n))
    orbit = [-1] * n  # the least member of each <alpha>-orbit
    for x in range(n):
        y = x
        while orbit[y] < 0:
            orbit[y] = x
            y = a[y]
    power_set, cur = {tuple(ident)}, a
    while cur != ident:
        power_set.add(tuple(cur))
        cur = [a[y] for y in cur]
    basis_orbits = []
    for b in basis:
        orb = [int(b)]
        while a[orb[-1]] != orb[0]:
            orb.append(a[orb[-1]])
        basis_orbits.append(orb)

    def powers(x):  # [x^0, x^1, ...] up to the order of x
        pw = [0, x]
        while pw[-1] != 0:
            pw.append(t[pw[-1]][x])
        return pw[:-1]

    # column i of a candidate: x -> img_i^(d_i(x)), for each image img_i
    cols = []
    for orb, d in zip(basis_orbits, digits):
        col = {}
        for img in orb:
            pw = powers(img)
            col[img] = [pw[dx % len(pw)] for dx in d.tolist()]
        cols.append([col[img] for img in orb])

    def candidates(i, partial):
        if i == r:
            yield partial
            return
        for col in cols[i]:
            yield from candidates(i + 1, [t[u][v] for u, v in zip(partial, col)])

    max_pstep = 1
    while p**max_pstep < n:
        max_pstep += 1
    stats.alphas += 1
    for beta in candidates(0, [0] * n):
        stats.candidates += 1
        if [orbit[y] for y in beta] != orbit:
            continue
        if [beta[y] for y in a] != [a[y] for y in beta]:
            continue
        if len(set(beta)) != n:
            continue
        bp = beta
        for _ in range(max_pstep + 1):
            if bp == ident:
                break
            q = bp
            for _ in range(p - 1):
                q = [bp[y] for y in q]
            bp = q
        else:
            continue
        stats.pairs += 1
        if tuple(beta) not in power_set:
            return np.asarray(beta)
    return None


def cyclic_p_subgroup_generators(group, p):
    """One generator of each cyclic p-power-order subgroup of Aut(G)."""
    out, seen = [], set()
    for row in _aut_images(group).astype(np.int64):
        if row.tobytes() in seen or not is_p_power(perm_order(row), p):
            continue
        out.append(row)
        cur = row
        while cur.tobytes() not in seen:
            seen.add(cur.tobytes())
            cur = row[cur]
    return out


@pytest.mark.parametrize("p,max_order", [(2, 16), (3, 27), (5, 25)])
def test_pairs_for_alpha_matches_the_candidate_loop(p, max_order):
    """The block candidate check gives the loop's counts and verdict on every
    cyclic <alpha> of every abelian p-group in scope."""
    for factors in abelian_scope(p, max_order):
        group, basis, digits = abelian_group(factors)
        for alpha in cyclic_p_subgroup_generators(group, p):
            got, want = PairStats(tuple(factors), "exhaustive"), PairStats(tuple(factors), "exhaustive")
            bad = _pairs_for_alpha(group, basis, digits, alpha, p, got)
            assert bad is None and old_pairs_for_alpha(group, basis, digits, alpha, p, want) is None
            assert got == want


def test_classes_match_sympy_on_the_catalog():
    """sympy as an outside oracle: the right regular representation of each
    catalog group has as many classes, and as large a center, as found here."""
    combinatorics = pytest.importorskip(
        "sympy.combinatorics", reason="sympy is the outside oracle for conjugacy classes")
    for entry in CATALOG:
        g = entry.build()
        # x -> x * gen for each generator; the trivial group gets the identity
        perms = [combinatorics.Permutation(g.table[:, gen].tolist())
                 for gen in g.generating_sequence()] or [combinatorics.Permutation([0])]
        pg = combinatorics.PermutationGroup(perms)
        sizes = np.bincount(g.class_ids())
        assert pg.order() == g.order
        assert len(pg.conjugacy_classes()) == len(g.conjugacy_classes()) == sizes.size
        assert pg.center().order() == np.count_nonzero(sizes == 1)


def walked_cyclics(g: Group) -> list:
    """The members of <x> for every element x, by multiplying up to the
    identity, as sorted tuples."""
    out = []
    for x in range(g.order):
        mem, y = [0], x
        while y:
            mem.append(y)
            y = g.mul(y, x)
        out.append(tuple(sorted(mem)))
    return out


def old_normal_cyclics(g: Group, cyclics: list) -> tuple:
    """The least generator of each <x> and whether <x> is normal, by one
    `is_normal` call per cyclic subgroup."""
    least: dict = {}
    normal: dict = {}
    for x, mem in enumerate(cyclics):
        if mem not in least:
            least[mem] = x
            normal[mem] = g.is_normal(Subgroup(g, np.asarray(mem)))
    return [least[m] for m in cyclics], [normal[m] for m in cyclics]


def old_r_of(cyclics: list, normal: list) -> tuple:
    """The tag and members of R(G), intersecting the non-normal cyclic
    subgroups as sets."""
    non_normal = {m for m, ok in zip(cyclics, normal) if not ok}
    if not non_normal:
        return UNDEFINED, None
    members = sorted(set.intersection(*map(set, non_normal)))
    return TRIVIAL if len(members) == 1 else NONTRIVIAL, members


def old_is_nilpotent(g: Group) -> bool:
    """Every Sylow subgroup is normal."""
    return all(old_is_normal(g, old_sylow(g, p)) for p in _primes(g.order))


def old_index2_subgroups(g: Group) -> list:
    """The index-2 subgroups, numbering the elements of G over squares and
    commutators by a breadth-first walk over the basis, and testing each
    functional one element at a time."""
    m = g.subgroup(np.concatenate([np.diagonal(g.table), g.commutator_subgroup().members]))
    if g.order // m.order == 1:
        return []
    q, proj = g.quotient(m)
    basis = q.generating_sequence()
    coords = np.zeros(q.order, dtype=np.int64)
    done, frontier = {0}, [0]
    while frontier:
        nxt = []
        for x in frontier:
            for i, b in enumerate(basis):
                y = q.mul(x, b)
                if y not in done:
                    coords[y] = coords[x] ^ (1 << i)
                    done.add(y)
                    nxt.append(y)
        frontier = nxt
    out = []
    for c in range(1, 1 << len(basis)):
        inside = np.asarray([bin(int(coords[x]) & c).count("1") % 2 == 0 for x in range(q.order)])
        out.append(np.nonzero(inside[proj.images])[0].tolist())
    return out


def check_cyclic_normality(g: Group) -> None:
    """cyclic_ids, normal_cyclics, is_dedekind, r_of, is_nilpotent and
    index2_subgroups against the oracles above."""
    cyclics = walked_cyclics(g)
    least, normal = old_normal_cyclics(g, cyclics)
    ids = g.cyclic_ids()
    assert ids.dtype == np.int32 and not ids.flags.writeable
    assert ids.tolist() == least
    assert g.normal_cyclics().tolist() == normal
    assert is_dedekind(g) == all(normal)
    status = r_of(g)
    got = None if status.subgroup is None else status.subgroup.members.tolist()
    assert (status.tag, got) == old_r_of(cyclics, normal)
    assert g.is_nilpotent() == old_is_nilpotent(g)
    assert [s.members.tolist() for s in index2_subgroups(g)] == old_index2_subgroups(g)


@settings(max_examples=60)
@given(groups(LATTICE_NAMES))
def test_cyclic_normality_matches_one_is_normal_call_per_cyclic_subgroup(g):
    check_cyclic_normality(g)


def test_cyclic_normality_above_the_lattice_cap():
    """S6, Q256 and the order-243 witness group, as built and relabelled:
    above CLASS_BLOCK_LIMIT and SUBGROUP_ENUM_CAP, where r_of_lattice
    cannot check r_of."""
    s6 = parse_permgen("permgen 1\ndegree 6\ngen 1 0 2 3 4 5\ngen 1 2 3 4 5 0\n")
    for g in (s6, builtin("generalized_quaternion(256)"), _group(WITNESS_243)):
        for h in (Group(g.table), relabelled(g, g.order)):
            check_cyclic_normality(h)


def test_nilpotency_matches_sympy_on_the_catalog():
    combinatorics = pytest.importorskip(
        "sympy.combinatorics", reason="sympy is the outside oracle for nilpotency")
    for entry in CATALOG:
        g = entry.build()
        perms = [combinatorics.Permutation(g.table[:, gen].tolist())
                 for gen in g.generating_sequence()] or [combinatorics.Permutation([0])]
        assert combinatorics.PermutationGroup(perms).is_nilpotent == g.is_nilpotent()


def old_trichotomy(g: Group, n_sub: Subgroup) -> tuple:
    """The trichotomy verdict by the per-N route: N, and in case c its Sylow
    p-subgroup S, built as groups of their own, with indices mapped back
    through the member lists.  H is the p'-elements of N tested for closure
    in N, S and O_p(N) come from N's own Sylow search, and T runs over the
    lattice of S under all three direct-product tests, <x> T = S included.
    Returns (p, H, dedekind, case, (x, T) in case c or None), and asserts
    the two case-c checks on x and T."""
    p = prime_divisors(_blackburn_r(g).order)[0]
    n_grp, mem = n_sub.as_group()
    orders = n_grp.element_orders()
    h_n = [x for x in range(n_grp.order) if orders[x] % p]
    assert set(n_grp.table[np.ix_(h_n, h_n)].ravel().tolist()) <= set(h_n)
    h = [mem[x] for x in h_n]
    head = (p, tuple(h), bool(g.normal_cyclics()[h].all()))
    if n_grp.is_nilpotent():
        return (*head, "a", None)
    s_sub, op = n_grp.sylow(p), n_grp.o_p(p).members.tolist()
    t = n_grp.table[np.ix_(s_sub.members, s_sub.members)]
    if set(s_sub.members[(t == t.T).all(axis=1)].tolist()) <= set(op):  # Z(S)
        return (*head, "b", None)
    s_grp, s_mem = s_sub.as_group()
    s_orders, tn = s_grp.element_orders(), n_grp.table
    for xi in sorted(range(s_grp.order), key=lambda i: (-s_orders[i], i)):
        if np.array_equal(tn[s_mem[xi], h_n], tn[h_n, s_mem[xi]]):
            continue
        x_cyc = set(s_grp.closure([xi]).tolist())
        for t_cand in s_grp.all_subgroups():
            t_set = set(t_cand.members.tolist())
            if (len(t_set) * len(x_cyc) != s_grp.order or x_cyc & t_set != {0}
                    or len(s_grp.closure([*x_cyc, *t_set])) != s_grp.order
                    or not {s_mem[i] for i in t_set} <= set(op)):
                continue
            cx = [mem[s_mem[i]] for i in sorted(x_cyc)
                  if np.array_equal(tn[s_mem[i], h_n], tn[h_n, s_mem[i]])]
            t_in_g = [mem[s_mem[i]] for i in sorted(t_set)]
            tg = g.table
            cent_cx = (tg[:, cx] == tg[cx, :].T).all(axis=1)
            cent_t = (tg[:, t_in_g] == tg[t_in_g, :].T).all(axis=1)
            # the case c checks hold, or _case_c_data would have raised
            assert len(cx) == lcm(*(orders[i] for i in op))
            assert not (cent_cx & ~cent_t).any()
            return (*head, "c", (mem[s_mem[xi]], tuple(t_in_g)))
    raise AssertionError("case c reached but no direct decomposition found")


def verdict_fields(v) -> tuple:
    c = v.case_c
    cc = None if c is None else (c.x, c.t_members)
    return (v.p, v.p_complement, v.dedekind_complement, v.case, cc)


def test_trichotomy_matches_the_per_n_route_on_the_blackburn_catalog():
    """Field for field on every normal subgroup of every Blackburn catalog
    group as built (840 verdicts, 11 of them in case c, all with T = 1),
    and of the two groups of CASE_C_PRODUCTS."""
    built = [g for _, g in blackburn_catalog(FULL_MAX_ORDER)]
    verdicts = []
    for g in built + [_group(name) for name in CASE_C_PRODUCTS]:
        r = _blackburn_r(g)
        for s in g.all_subgroups():
            if s.is_normal():
                got = verdict_fields(_trichotomy(g, r, s))
                assert got == old_trichotomy(g, s)
                verdicts.append(got)
    catalog = verdicts[:840]
    assert [v[3] for v in catalog].count("c") == 11
    assert all(len(v[4][1]) == 1 for v in catalog if v[4])
    assert any(len(v[4][1]) == 2 for v in verdicts[840:] if v[4])


@settings(max_examples=40)
@given(st.data())
def test_trichotomy_on_relabelled_blackburn_groups(data):
    """On a relabelled group the two routes may pick different Sylow
    subgroups of N, hence a different x and T in case c; a conjugation by N
    carries one choice to the other, so the order of x, the size of T and
    every other field agree, and T meets <x> trivially."""
    g = data.draw(groups(BLACKBURN_NAMES + list(CASE_C_PRODUCTS)))
    r = _blackburn_r(g)
    for s in g.all_subgroups():
        if s.is_normal():
            got, want = verdict_fields(_trichotomy(g, r, s)), old_trichotomy(g, s)
            assert got[:4] == want[:4]
            if got[4] is not None:
                (x, t), (y, u) = got[4], want[4]
                assert (g.order_of(x), len(t)) == (g.order_of(y), len(u))
                assert set(g.closure([x]).tolist()) & set(t) == {0}


@settings(max_examples=40)
@given(st.data())
def test_automorphism_rows_match_the_one_map_predicates(data):
    """The block checks of the autc oracle suite against GroupMap.is_automorphism
    and is_class_preserving, on automorphisms, near-misses with two
    non-identity images swapped, the trivial endomorphism, arbitrary image
    lists and bijections, in chunks of any size."""
    g = data.draw(groups(SEARCH_NAMES))
    rows = [m.images for m in enumerate_autc(g)[0]]
    if g.order >= 3:
        for _ in range(data.draw(st.integers(1, 3))):
            a, b = data.draw(st.lists(st.integers(1, g.order - 1), min_size=2, max_size=2,
                                      unique=True))
            rows.append(swapped(rows[data.draw(st.integers(0, len(rows) - 1))], a, b))
    rows.append(np.zeros(g.order, dtype=np.int32))
    rows += [np.asarray(data.draw(st.permutations(range(g.order))), dtype=np.int32)
             for _ in range(data.draw(st.integers(0, 3)))]
    rows += [np.asarray(data.draw(elements(g, min_size=g.order, max_size=g.order)), dtype=np.int32)
             for _ in range(data.draw(st.integers(0, 2)))]
    block = np.asarray(rows, dtype=np.int32)
    maps = [GroupMap(g, g, row) for row in block]
    want = [m.is_automorphism() for m in maps]
    chunk = data.draw(st.sampled_from([1, g.order * g.order, autos.HOMOMORPHISM_ELEMENTS]))
    with mock.patch.object(autos, "HOMOMORPHISM_ELEMENTS", chunk):
        assert _automorphism_rows(g, block).tolist() == want
    cid = g.class_ids()
    preserving = (cid[block] == cid).all(axis=1)
    assert [bool(c) for c, a in zip(preserving, want) if a] == [
        is_class_preserving(g, m) for m, a in zip(maps, want) if a]


# brute-force Aut(G) of these has 12288-20160 rows: seconds per example for
# the per-map and n^2 oracles
BLOCK_NAMES = [n for n in NAMES if n not in ("e16", "q8xc4xc2", "q8xq8")]


@settings(max_examples=40)
@given(st.data())
def test_block_verdict_matches_the_one_map_predicates(data):
    """An enumerate_aut block with corrupted rows appended (two entries
    swapped, a bijection fixing 0, f(0) != 0 by a swap with 0, and the
    trivial endomorphism), wrapped as one block of maps and asked in any
    order, in chunks of any size: every row reads GroupMap.is_automorphism
    and _automorphism_rows of its images, the block is decided once and
    only when asked, the rows equal and hash as GroupMaps of their images,
    and is_class_preserving rejects every row that is not an automorphism."""
    g = data.draw(groups(BLOCK_NAMES))
    n = g.order
    auts = [m.images for m in enumerate_aut(g)]
    pick = st.integers(0, len(auts) - 1)
    rows = list(auts)
    if n >= 3:
        a, b = data.draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=2, unique=True))
        rows.append(swapped(auts[data.draw(pick)], a, b))
        rows.append(np.asarray([0, *data.draw(st.permutations(range(1, n)))], dtype=np.int32))
    if n >= 2:
        rows.append(swapped(auts[data.draw(pick)], 0, data.draw(st.integers(1, n - 1))))
        rows.append(np.zeros(n, dtype=np.int32))
    block = np.asarray(rows, dtype=np.int32)
    want = [GroupMap(g, g, row).is_automorphism() for row in block]
    assert want[: len(auts)] == [True] * len(auts)
    assert _automorphism_rows(g, block).tolist() == want
    k = max(1, len(g.generating_sequence()))
    chunk = data.draw(st.sampled_from([1, n * k, core.BLOCK_ELEMENTS]))
    with mock.patch.object(core, "BLOCK_ELEMENTS", chunk), \
            mock.patch.object(core, "_automorphism_mask", wraps=core._automorphism_mask) as decide:
        maps = GroupMap._rows(g, block)
        assert decide.call_count == 0
        got = [None] * len(maps)
        for i in data.draw(st.permutations(range(len(maps)))):
            got[i] = maps[i].is_automorphism()
        assert [m.is_automorphism() for m in maps] == got == want
        assert decide.call_count == 1
    for m, row in zip(maps, block):
        f = GroupMap(g, g, row)
        assert m == f and hash(m) == hash(f) and m.images.tobytes() == f.images.tobytes()
        assert not m.images.flags.writeable
    for m, ok in zip(maps, want):
        if not ok:
            with pytest.raises(NotAutomorphism):
                is_class_preserving(g, m)


def test_search_maps_share_one_lazy_verdict():
    """enumerate_aut decides its whole block on the first ask, and
    enumerate_autc, whose maps nobody asks about here, decides none."""
    g = _group("q8xc2")
    with mock.patch.object(core, "_automorphism_mask", wraps=core._automorphism_mask) as decide:
        autc, _ = enumerate_autc(g)
        maps = enumerate_aut(g)
        assert decide.call_count == 0
        kept = [m for m in maps if is_class_preserving(g, m)]
        assert decide.call_count == 1 and set(kept) == set(autc)
        assert all(m.is_automorphism() for m in autc)
        assert decide.call_count == 2


@settings(max_examples=60)
@given(st.data())
def test_map_predicates_match_their_definitions(data):
    """is_homomorphism, is_bijective and is_automorphism on automorphisms,
    near-misses with two non-identity images swapped, the trivial
    endomorphism, random image lists and random bijections fixing 0."""
    g = data.draw(groups(AUT_NAMES))
    n = g.order
    auts = [m.images for m in enumerate_aut(g)]
    aut = auts[data.draw(st.integers(0, len(auts) - 1))]
    rows = [aut, np.zeros(n, dtype=np.int32)]
    if n >= 3:
        a, b = data.draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=2, unique=True))
        rows.append(swapped(aut, a, b))
    rows.append(np.asarray(data.draw(elements(g, min_size=n, max_size=n)), dtype=np.int32))
    rows.append(np.asarray([0, *data.draw(st.permutations(range(1, n)))], dtype=np.int32))
    homs = [check_map_predicates(GroupMap(g, g, row)) for row in rows]
    assert homs[:2] == [True, True]
    # a map from another copy of g is never an automorphism of g
    other = Group(g.table)
    assert not GroupMap(other, g, aut).is_automorphism()
    assert GroupMap(other, g, aut).is_homomorphism()


def test_map_predicates_between_cyclic_groups():
    """x -> k x from C_m to C_n is a homomorphism exactly when n divides k m
    (or m = 1, where no sum x + y wraps), for every k, also those that give
    none; and the trivial source, which has no generators."""
    for m in range(1, 13):
        for n in range(1, 13):
            src, tgt = cyclic(m), cyclic(n)
            for k in range(n):
                f = GroupMap(src, tgt, (k * np.arange(m)) % n)
                assert check_map_predicates(f) == (m == 1 or (k * m) % n == 0)
    c1, c3 = cyclic(1), cyclic(3)
    assert not GroupMap(c1, c3, [1]).is_homomorphism()
    assert GroupMap(c1, c3, [0]).is_homomorphism()
    for image in range(3):
        check_map_predicates(GroupMap(c1, c3, [image]))
    assert GroupMap(c1, c1, [0]).is_automorphism()


@settings(max_examples=40)
@given(st.data())
def test_p_part_normalize_matches_single_compositions(data):
    g = data.draw(groups([n for n in SEARCH_NAMES if n != "c1"]))
    p = data.draw(st.sampled_from(_primes(g.order)))
    maps, _ = enumerate_autc(g)
    sigma = data.draw(st.sampled_from([m for m in maps if is_p_power(m.map_order(), p)]))
    gamma = inner_automorphism(g, data.draw(st.integers(0, g.order - 1)))

    def result(normalize):
        try:
            return normalize(sigma, gamma, p).images.tobytes()
        except GroupError as exc:
            return type(exc).__name__, str(exc)

    assert result(p_part_normalize) == result(old_p_part_normalize)


@settings(max_examples=40)
@given(st.data())
def test_find_isomorphism_first_hit_matches_node_by_node_search(data):
    name = data.draw(st.sampled_from(SEARCH_NAMES))
    g, h = data.draw(groups([name])), data.draw(groups([name]))
    gens, cands = order_candidates(g, h)
    want, _ = dfs_search(g, h, gens, cands, g.element_orders(), h.element_orders(),
                         first_only=True)
    iso = find_isomorphism(g, h)
    assert iso is not None and iso.is_homomorphism() and iso.is_bijective()
    assert iso.images.tolist() == want[0].tolist()


INGEST_NAMES = [e.name for e in CATALOG if e.order <= 48]
# tokens int() reads or rejects in ways a plain digit parser would not
ODD_TOKENS = ["x", "-1", "+0", "1_0", "00", "7.0", "1" + "0" * 22, "\u0663", "\u00b2"]


@st.composite
def cayley_texts(draw) -> str:
    """A relabelled catalog table with the identity anywhere, laid out with
    random blanks, tabs and comments, possibly with one corruption."""
    g = _group(draw(st.sampled_from(INGEST_NAMES)))
    n = g.order
    perm = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    rows = np.empty((n, n), dtype=np.int64)
    rows[np.ix_(perm, perm)] = perm[g.table]
    rows = [[str(x) for x in row] for row in rows.tolist()]
    rnd = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["none", "entry", "range", "short", "token", "swap"]))
    i, j = rnd.randrange(n), rnd.randrange(n)
    if kind == "entry":
        rows[i][j] = str((int(rows[i][j]) + rnd.randrange(1, n + 1)) % (n + 1))
    elif kind == "range":
        rows[i][j] = str(n + rnd.randrange(3))
    elif kind == "short":
        rows[i].pop()
    elif kind == "token":
        rows[i][j] = draw(st.sampled_from(ODD_TOKENS + [str(n)]))
    elif kind == "swap":
        k = rnd.randrange(n)
        rows[i], rows[k] = rows[k], rows[i]
    blanks = [" ", "  ", "\t", " \t "]
    lines = ["# a table", "cayley 1", f"order {n}   # order"]
    if draw(st.booleans()):
        lines.append("names " + " ".join(f"g{x}" for x in range(n)))
    for row in rows:
        line = rnd.choice(["", " ", "\t"]) + "".join(rnd.choice(blanks) + x for x in row)
        if rnd.random() < 0.2:
            line += rnd.choice(blanks) + "# comment"
        lines.append(line)
        if rnd.random() < 0.1:
            lines.append(rnd.choice(["", "   ", "# between rows"]))
    return "\n".join(lines) + "\n"


@st.composite
def permgen_texts(draw) -> str:
    degree = draw(st.integers(1, 6))
    rnd = draw(st.randoms(use_true_random=False))
    gens = [rnd.sample(range(degree), degree) for _ in range(draw(st.integers(0, 3)))]
    body = "".join("gen " + " ".join(map(str, g)) + "\n" for g in gens)
    return f"permgen 1\ndegree {degree}\n{body}"


@settings(max_examples=150)
@given(cayley_texts())
def test_parse_cayley_matches_row_by_row_parser(text):
    assert outcome(parse_cayley, text) == outcome(old_parse_cayley, text)


@settings(max_examples=100)
@given(st.data())
def test_validate_group_matches_element_by_element_checks(data):
    g = _group(data.draw(st.sampled_from(INGEST_NAMES)))
    n = g.order
    perm = np.asarray(data.draw(st.permutations(range(n))), dtype=np.int64)
    table = np.empty((n, n), dtype=np.int64)
    table[np.ix_(perm, perm)] = perm[g.table]
    if data.draw(st.booleans()):
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        table[[a, b]] = table[[b, a]]  # rows swapped: still Latin, maybe not a group
    dtype = data.draw(st.sampled_from([np.int16, np.int32, np.int64, np.uint8, np.uint16]))
    assert outcome(validate_group, table.astype(dtype)) == outcome(old_validate_group, table)


def octonion_units() -> np.ndarray:
    """The Moufang loop of the 16 octonion units, (-1)^s e_i at index 8s + i.
    It is alternative, (x*x)*y == x*(x*y), so the first failing triple of a
    full scan is not the first failing triple of Light's test."""
    unit, neg = np.zeros((8, 8), dtype=np.int64), np.zeros((8, 8), dtype=np.int64)
    unit[0], unit[:, 0] = np.arange(8), np.arange(8)
    np.fill_diagonal(neg[1:, 1:], 1)  # e_i * e_i = -e_0
    for a, b, c in [(1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5)]:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            unit[x, y] = unit[y, x] = z  # e_x * e_y = e_z and e_y * e_x = -e_z
            neg[y, x] = 1
    s, u = np.divmod(np.arange(16), 8)
    return (s[:, None] ^ s ^ neg[np.ix_(u, u)]) * 8 + unit[np.ix_(u, u)]


LOOPS = [np.asarray(NONASSOC_LOOP), octonion_units()]


@st.composite
def nonassociative_loops(draw) -> np.ndarray:
    """L x K or K x L, for L = NONASSOC_LOOP or the octonion units and a
    cyclic or catalog group K with |L||K| <= FULL_ASSOC_LIMIT, relabelled
    with the identity anywhere: a loop with two-sided inverses, so only
    associativity can fail."""
    loop = LOOPS[draw(st.integers(0, len(LOOPS) - 1))]
    m = loop.shape[0]
    if draw(st.booleans()):
        other = cyclic(draw(st.integers(1, FULL_ASSOC_LIMIT // m))).table
    else:
        names = [e.name for e in CATALOG if m * e.order <= FULL_ASSOC_LIMIT]
        other = _group(draw(st.sampled_from(names))).table
    k = other.shape[0]
    # the elements whose L coordinate is the identity form a copy of K, and
    # each of them associates with every pair of elements
    if draw(st.booleans()):
        left, right, inner = loop, other, np.arange(k)
    else:
        left, right, inner = other, loop, np.arange(k) * m
    a, b = left.shape[0], right.shape[0]
    t = (left[:, None, :, None] * b + right[None, :, None, :]).reshape(a * b, a * b)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = rng.permutation(a * b)
    if draw(st.booleans()):
        # the copy of K gets the lowest labels, so the first failing a comes after it
        outer = np.setdiff1d(np.arange(a * b), inner)
        perm[rng.permutation(inner)] = np.arange(k)
        perm[rng.permutation(outer)] = np.arange(k, a * b)
    moved = np.empty_like(t)
    moved[np.ix_(perm, perm)] = perm[t]
    return moved


@settings(max_examples=60)
@given(nonassociative_loops(), st.sampled_from([np.int16, np.int32, np.int64, np.uint16]))
def test_validate_group_names_the_first_nonassociative_triple(table, dtype):
    assert outcome(validate_group, table.astype(dtype)) == outcome(old_validate_group, table)


@settings(max_examples=30)
@given(st.data())
def test_validate_group_keeps_the_generators_of_lights_test(data):
    # Light's test ran on these generators: each lies in the middle nucleus,
    # and together they generate the whole table, so the table is a group
    g = _group(data.draw(st.sampled_from([e.name for e in CATALOG])))
    perm = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(g.order)
    table = np.empty_like(g.table)
    table[np.ix_(perm, perm)] = perm[g.table]
    h = validate_group(table)
    with mock.patch.object(Group, "_extend", side_effect=AssertionError("generators recomputed")):
        gens = h.generating_sequence()
    assert gens == old_generating_sequence(h)
    T = h.table
    for a in gens:
        assert np.array_equal(T[T[:, a], :], T[:, T[a, :]])  # (x*a)*y == x*(a*y)
    assert h.closure(gens).size == h.order


@settings(max_examples=60)
@given(permgen_texts(), st.integers(1, 200))
def test_parse_permgen_matches_tuple_closure(text, cap):
    assert outcome(parse_permgen, text) == outcome(old_parse_permgen, text)
    assert outcome(parse_permgen, text, cap) == outcome(old_parse_permgen, text, cap)


# -- shared arithmetic ----------------------------------------------------------

PRIMES = [p for p in range(2, 50) if all(p % d for d in range(2, p))]


@settings(max_examples=200)
@given(st.integers(1, 3000), st.sampled_from(PRIMES), st.data())
def test_arith_helpers_match_their_definitions(n, p, data):
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    assert prime_divisors(n) == [d for d in divisors if all(d % e for e in range(2, d))]
    assert is_prime(n) == (divisors == [n])
    assert is_p_power(n, p) == (prime_divisors(n) in ([], [p]))
    bound = data.draw(st.integers(n, 3 * n))
    values = np.arange(1, n + 1)
    assert p_power_mask(values, p, bound).tolist() == [is_p_power(v, p) for v in values.tolist()]
    assert p_part(n, p) == max(p**e for e in range(n.bit_length()) if n % p**e == 0)
    k = data.draw(st.integers(1, 9))
    dtype = data.draw(st.sampled_from([np.int16, np.int32, np.int64]))
    perm = np.asarray(data.draw(st.permutations(range(k))), dtype=dtype)
    ident = np.arange(k)
    order, cur = 1, perm
    while not np.array_equal(cur, ident):
        order, cur = order + 1, perm[cur]
    assert perm_order(perm) == order
    times = data.draw(st.integers(0, 3 * order))
    cur = ident
    for _ in range(times):
        cur = perm[cur]
    got = perm_power(perm, times)
    assert got.dtype == dtype and np.array_equal(got, cur)


@settings(max_examples=150)
@given(st.integers(1, 12), st.sampled_from(PRIMES), st.data())
def test_p_power_rows_match_row_by_row(k, p, data):
    """cycle_lengths against walks one point at a time, and the p-power rows
    read from the lengths against perm_order, row by row."""
    dtype = data.draw(st.sampled_from([np.int16, np.int32, np.int64]))
    rows = data.draw(st.lists(st.permutations(range(k)), max_size=10))
    block = np.asarray(rows, dtype=dtype).reshape(len(rows), k)
    lengths = cycle_lengths(block, np.arange(k))
    assert lengths.tolist() == [walked_cycle_lengths(row, np.arange(k)) for row in block]
    assert [int(np.lcm.reduce(ln)) for ln in lengths] == [perm_order(row) for row in block]
    # an arbitrary permutation is determined by its images of all points
    mask = p_power_mask(lengths, p, k).all(axis=1)
    assert mask.tolist() == [is_p_power(perm_order(row), p) for row in block]
