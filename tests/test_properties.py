"""Property tests: the lattice primitives against the direct algorithms they replaced.

The oracles below are those direct algorithms: closure by squaring the
member set until it stops growing, normality and normalizers by conjugating
the subset with every element of G, and O_p(G) by intersecting every
conjugate of a Sylow subgroup.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blackburn.catalog import CATALOG, builtin
from blackburn.core import Group, Subgroup, _is_power_of
from blackburn.suites import _normal_via_cyclic

NAMES = [e.name for e in CATALOG if e.order <= 64]
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
