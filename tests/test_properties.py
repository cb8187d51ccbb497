"""Property tests: the lattice primitives and the image search against the
direct algorithms they replaced.

The oracles below are those direct algorithms: closure by squaring the
member set until it stops growing, normality and normalizers by conjugating
the subset with every element of G, O_p(G) by intersecting every conjugate
of a Sylow subgroup, and the generator-image search one node at a time.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blackburn.autos import _Search, enumerate_aut, enumerate_autc, find_isomorphism
from blackburn.catalog import CATALOG, builtin
from blackburn.core import Group, Subgroup, _is_power_of
from blackburn.suites import _normal_via_cyclic

NAMES = [e.name for e in CATALOG if e.order <= 64]
SEARCH_NAMES = [e.name for e in CATALOG if e.order <= 32]
# brute-force Aut of e16 and q8xc4 takes 9k-41k nodes, too many for the oracle
AUT_NAMES = [n for n in SEARCH_NAMES if n not in ("e16", "q8xc4")]
_GROUPS: dict = {}


def _group(name: str) -> Group:
    if name not in _GROUPS:
        _GROUPS[name] = builtin(name)
    return _GROUPS[name]


# -- oracles ------------------------------------------------------------------


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
    p_elems = [x for x in range(g.order) if _is_power_of(orders[x], p)]
    mem = old_closure(g, [max(p_elems, key=lambda x: (orders[x], -x))])
    while mem.size < full:
        inside = set(mem.tolist())
        ext = next(x for x in old_normalizer(g, mem).tolist()
                   if x not in inside and _is_power_of(orders[x], p))
        mem = old_closure(g, [*mem.tolist(), ext])
    return mem


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


def order_candidates(g: Group, h: Group) -> tuple:
    """Generators of g, and for each the elements of h of the same order."""
    gens = g.generating_sequence()
    g_orders, h_orders = g.element_orders(), h.element_orders()
    return gens, [[x for x in range(h.order) if h_orders[x] == g_orders[gen]] for gen in gens]


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


@settings(max_examples=60)
@given(groups())
def test_generating_sequence_matches_greedy_closure(g):
    assert g.generating_sequence() == old_generating_sequence(g)


@settings(max_examples=20)
@given(st.data())
def test_all_subgroups_do_not_depend_on_labels(data):
    name = data.draw(st.sampled_from(NAMES))
    g = data.draw(groups([name]))
    subs = g.all_subgroups()
    assert len({s.members.tobytes() for s in subs}) == len(subs)
    for s in subs:
        assert np.array_equal(old_closure(g, s.members), s.members)
    expected = [s.order for s in _group(name).all_subgroups()]
    assert [s.order for s in subs] == expected


def test_subgroup_counts_pinned():
    assert len(builtin("s5").all_subgroups()) == 156
    assert len(builtin("q8xq8xc2").all_subgroups()) == 700


@settings(max_examples=40)
@given(groups(AUT_NAMES))
def test_enumerate_aut_matches_node_by_node_search(g):
    gens, cands = order_candidates(g, g)
    orders = g.element_orders()
    want, nodes = dfs_search(g, g, gens, cands, orders, orders)
    got = enumerate_aut(g, workers=1)
    assert [m.images.tolist() for m in got] == [w.tolist() for w in want]
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
    gens = g.generating_sequence()
    cid = g.class_ids()
    classes = g.conjugacy_classes()
    cands = [classes[cid[gen]].tolist() for gen in gens]
    want, nodes = dfs_search(g, g, gens, cands, cid.tolist(), cid.tolist())
    maps, rep = enumerate_autc(g, workers=1)
    assert [m.images.tolist() for m in maps] == [w.tolist() for w in want]
    assert rep.search_stats["nodes"] == nodes
    assert all(m.is_automorphism() for m in maps)
    assert all(np.array_equal(cid[m.images], cid) for m in maps)
    keys = {m._bytes for m in maps}
    assert all(m.then(a)._bytes in keys for m in maps for a in maps)


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
