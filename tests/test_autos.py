"""Automorphism machinery: enumeration, powers, witnesses."""

from unittest import mock

import numpy as np
import pytest

from blackburn import core
from blackburn.autos import (
    _Search,
    enumerate_aut,
    enumerate_autc,
    find_isomorphism,
    find_min_stabilizer_point,
    inner_automorphism,
    is_class_preserving,
    locally_power,
    outc_trivial,
    p_part_normalize,
    power_of,
)
from blackburn.catalog import (
    builtin,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    generalized_quaternion,
    power_action,
    semidirect_product,
    symmetric,
)
from blackburn.core import Action, Group, GroupMap, identity_map
from blackburn.counterexample import build_witness
from blackburn.errors import (
    BadParams,
    NotAutomorphism,
    PreconditionFailed,
    SearchBudgetExceeded,
)
from blackburn.suites import coprime_action_instances


def test_inner_automorphism_identity_and_center():
    s3 = symmetric(3)
    assert inner_automorphism(s3, 0).is_identity()
    q8 = generalized_quaternion(8)
    central = q8.center().members.tolist()[1]
    assert inner_automorphism(q8, central).is_identity()


def test_inner_by_three_cycle_rotates_transpositions():
    s3 = symmetric(3)
    three_cycle = next(x for x in range(6) if s3.order_of(x) == 3)
    f = inner_automorphism(s3, three_cycle)
    transpositions = [x for x in range(6) if s3.order_of(x) == 2]
    t0 = transpositions[0]
    seen = {t0}
    x = f.apply(t0)
    while x != t0:
        seen.add(x)
        x = f.apply(x)
    assert seen == set(transpositions)


def test_class_preserving_predicate():
    s3 = symmetric(3)
    for a in range(6):
        assert is_class_preserving(s3, inner_automorphism(s3, a))
    c3 = cyclic(3)
    inversion = GroupMap(c3, c3, np.asarray([0, 2, 1]))
    assert inversion.is_automorphism()
    assert not is_class_preserving(c3, inversion)
    broken = GroupMap(s3, s3, np.zeros(6, dtype=np.int64))
    with pytest.raises(NotAutomorphism):
        is_class_preserving(s3, broken)


def test_is_automorphism_is_computed_once():
    """A map built by hand is a one-row block: its verdict is decided on
    the first ask, once, and every predicate reads it."""
    s3 = symmetric(3)
    with mock.patch.object(core, "_map_masks", wraps=core._map_masks) as decide:
        maps = [inner_automorphism(s3, 1), GroupMap(s3, s3, [0, 2, 1, 3, 4, 5])]
        assert decide.call_count == 0
        assert [m.is_automorphism() for m in maps] == [True, False]
        assert [m.is_automorphism() for m in maps] == [True, False]
        assert [(m.is_bijective(), m.is_homomorphism()) for m in maps] == [(True, True),
                                                                          (True, False)]
    assert [c.args[2].tolist() for c in decide.call_args_list] == [
        [m.images.tolist()] for m in maps]


def test_autc_abelian_is_identity_only():
    maps, rep = enumerate_autc(cyclic(12))
    assert rep.autc_order == 1 and maps[0].is_identity()


def test_autc_s3_is_all_inner():
    maps, rep = enumerate_autc(symmetric(3))
    assert rep.autc_order == 6 and rep.inn_order == 6
    assert rep.outc_trivial and rep.witness is None


def test_autc_matches_brute_filter():
    for build in (lambda: symmetric(4), lambda: dihedral(16),
                  lambda: builtin("q8xc4"), lambda: builtin("c7_c3")):
        g = build()
        maps, rep = enumerate_autc(g)
        brute = {m._bytes for m in enumerate_aut(g) if is_class_preserving(g, m)}
        assert {m._bytes for m in maps} == brute
        assert rep.autc_order == len(brute)


def test_aut_counts():
    assert len(enumerate_aut(symmetric(3))) == 6
    assert len(enumerate_aut(cyclic(12))) == 4
    assert len(enumerate_aut(elementary_abelian(2, 3))) == 168
    assert len(enumerate_aut(generalized_quaternion(8))) == 24


def test_outc_trivial_examples():
    assert outc_trivial(dihedral(8)).outc_trivial
    assert outc_trivial(generalized_quaternion(16)).outc_trivial
    assert outc_trivial(builtin("c7_q8")).outc_trivial


def test_search_budget():
    with pytest.raises(SearchBudgetExceeded):
        enumerate_aut(elementary_abelian(2, 4), budget=10)


def test_search_budget_boundary():
    # the full search of Aut(E8) visits exactly 350 nodes
    g = elementary_abelian(2, 3)
    assert len(enumerate_aut(g, budget=350)) == 168
    with pytest.raises(SearchBudgetExceeded, match="349 nodes"):
        enumerate_aut(g, budget=349)


def test_autc_budget_boundary_on_witness_group():
    # enumerate_autc on the order-243 witness group, as constructed, visits 37 nodes
    table = build_witness(3).g_group.table
    _, rep = enumerate_autc(Group(table), budget=37)
    assert rep.autc_order == 27 and rep.search_stats["nodes"] == 37
    with pytest.raises(SearchBudgetExceeded, match="36 nodes"):
        enumerate_autc(Group(table), budget=36)


def test_autc_budget_counts_only_the_stabilizer_search():
    # c7_q8's first generator has 2 conjugates; searching both took 86 nodes
    g = builtin("c7_q8")
    _, rep = enumerate_autc(g, budget=43)
    assert rep.autc_order == 28 and rep.search_stats["nodes"] == 43
    with pytest.raises(SearchBudgetExceeded, match="42 nodes"):
        enumerate_autc(g, budget=42)


def test_search_stats_account_for_every_row():
    for g in (builtin("c7_q8"), builtin("s4"), Group(build_witness(3).g_group.table)):
        _, rep = enumerate_autc(g)
        stats = rep.search_stats
        assert stats["nodes"] == sum(d["rows"] for d in stats["depths"])
        for d, nxt in zip(stats["depths"], stats["depths"][1:] + [None]):
            assert d["rows"] == sum(d["rejected"].values()) + d["survivors"]
            if nxt is not None:  # a full enumeration expands every survivor
                assert nxt["rows"] == d["survivors"] * nxt["candidates"]
        assert (stats["depths"][-1]["survivors"] * stats["first_generator_conjugates"]
                == rep.autc_order)


def test_search_stats_count_every_rejection_reason():
    # an invariant that only tells the identity apart lets every check reject rows
    seen = np.zeros(2, dtype=np.int64)
    for name in ("s3", "d8"):
        g = builtin(name)
        gens = g.generating_sequence()
        ident = (np.arange(g.order) == 0).astype(np.int32)
        search = _Search(g, g, [range(g.order)] * len(gens), ident, ident, 10**6)
        found = search.run()
        assert len(found) == len(enumerate_aut(g))
        assert np.array_equal(search.evaluated, search.rejected.sum(axis=1) + search.survivors)
        assert search.nodes == search.evaluated.sum() and search.survivors[-1] == len(found)
        seen += search.rejected.sum(axis=0)
    assert (seen > 0).all()


def test_holomorph_of_c8_has_outer_class_preserving_automorphisms():
    # the holomorph C8 x| Aut(C8), of order 32
    c8, e4 = cyclic(8), elementary_abelian(2, 2)
    g = semidirect_product(c8, e4, power_action(e4, c8, [1, 3, 5, 7]))
    assert g.order == 32
    maps, rep = enumerate_autc(g)
    assert rep.autc_order == len(maps) == 32
    assert rep.inn_order == 16
    assert not rep.outc_trivial
    assert is_class_preserving(g, rep.witness)
    assert all(rep.witness != inner_automorphism(g, a) for a in range(g.order))


def test_find_isomorphism():
    assert find_isomorphism(dihedral(6), symmetric(3)) is not None
    assert find_isomorphism(dihedral(8), generalized_quaternion(8)) is None
    assert find_isomorphism(cyclic(4), elementary_abelian(2, 2)) is None
    iso = find_isomorphism(builtin("q12"), builtin("q12"))
    assert iso is not None and iso.is_homomorphism() and iso.is_bijective()


def test_power_of():
    c5 = cyclic(5)
    doubling = GroupMap(c5, c5, np.asarray([(2 * x) % 5 for x in range(5)]))
    assert power_of(doubling, identity_map(c5)) == 0
    assert power_of(doubling, doubling) == 1
    quad = doubling.then(doubling)
    assert power_of(doubling, quad) == 2
    inv = GroupMap(c5, c5, np.asarray([(-x) % 5 for x in range(5)]))
    assert power_of(doubling, inv) == 2  # 2^2 = 4 = -1 mod 5


def test_locally_power():
    c5 = cyclic(5)
    doubling = GroupMap(c5, c5, np.asarray([(2 * x) % 5 for x in range(5)]))
    assert locally_power(c5, doubling, doubling)
    v4 = elementary_abelian(2, 2)
    swap = GroupMap(v4, v4, np.asarray([0, 2, 1, 3]))
    assert swap.is_automorphism()
    assert not locally_power(v4, identity_map(v4), swap)


def test_locally_power_rejects_maps_of_another_group():
    """Both maps must be automorphisms of g itself: a map on a second copy of
    C5, or on C7, raises as power_of does."""
    def doubling(g):
        return GroupMap(g, g, np.asarray([(2 * x) % g.order for x in range(g.order)]))

    c5, other, c7 = cyclic(5), cyclic(5), cyclic(7)
    for alpha, beta in [(doubling(c5), doubling(other)), (doubling(other), doubling(other)),
                        (doubling(c5), doubling(c7)), (doubling(c7), doubling(c5))]:
        with pytest.raises(NotAutomorphism):
            locally_power(c5, alpha, beta)


def test_power_of_implies_locally_power():
    g = builtin("c9xc3")
    for m in enumerate_aut(g):
        n = power_of(m, m.then(m))
        if n is not None:
            assert locally_power(g, m, m.then(m))


def test_p_part_normalize_s3():
    s3 = symmetric(3)
    transposition = next(x for x in range(6) if s3.order_of(x) == 2)
    three_cycle = next(x for x in range(6) if s3.order_of(x) == 3)
    sigma = inner_automorphism(s3, transposition)
    gamma = inner_automorphism(s3, three_cycle)
    out = p_part_normalize(sigma, gamma, 2)
    assert out.map_order() in (1, 2, 4)
    assert is_class_preserving(s3, out)
    # gamma then sigma is conjugation by a product of a 3-cycle and a
    # transposition; stripping the odd part leaves an inner 2-element
    assert out.map_order() == 2


def test_p_part_normalize_trivial_cases():
    q8 = generalized_quaternion(8)
    sigma = inner_automorphism(q8, 1)
    out = p_part_normalize(sigma, identity_map(q8), 2)
    assert out == sigma
    gamma = inner_automorphism(q8, 2)
    out = p_part_normalize(identity_map(q8), gamma, 2)
    k = out.map_order()
    while k % 2 == 0:
        k //= 2
    assert k == 1


def test_p_part_normalize_rejects_bad_sigma():
    s3 = symmetric(3)
    three_cycle = next(x for x in range(6) if s3.order_of(x) == 3)
    sigma = inner_automorphism(s3, three_cycle)  # order 3, not a 2-power
    with pytest.raises(PreconditionFailed):
        p_part_normalize(sigma, identity_map(s3), 2)


def test_search_run_returns_one_int32_block():
    d8 = builtin("d8")
    gens = d8.generating_sequence()
    orders = np.asarray(d8.element_orders())
    cands = [np.flatnonzero(orders == orders[gen]) for gen in gens]
    block = _Search(d8, d8, cands, orders, orders, 10**6).run()
    assert block.dtype == np.int32 and block.shape == (8, 8)  # |Aut(D8)| = 8
    trivial = cyclic(1)
    block = _Search(trivial, trivial, [], np.zeros(1), np.zeros(1), 10).run()
    assert block.dtype == np.int32 and block.shape == (1, 1)
    # the identity as the only image of the first generator fails the invariant
    search = _Search(d8, d8, [[0], *cands[1:]], orders, orders, 10**6)
    block = search.run(first_only=True)
    assert block.dtype == np.int32 and block.shape == (0, 8)
    assert search.nodes == 1 and search.rejected[0, 0] == 1


def old_find_min_stabilizer_point(action):
    """The point-by-point search, kept as the oracle."""
    h, n = action.actor, action.acted
    kernel = frozenset(
        hh for hh in range(h.order)
        if np.array_equal(action.maps[hh], np.arange(n.order))
    )
    for x in range(n.order):
        stab = frozenset(hh for hh in range(h.order) if action.maps[hh][x] == x)
        if stab == kernel:
            return x
    return None


def test_min_stabilizer_matches_the_point_by_point_search():
    instances = coprime_action_instances()
    assert len(instances) == 50
    for _, _, _, action in instances:
        assert find_min_stabilizer_point(action) == old_find_min_stabilizer_point(action)


def test_action_check_rejects_one_bad_row_of_its_block():
    """Action.check decides every actor's map in one _map_masks call on its
    maps block, builds no GroupMap, and rejects a block with one map that
    is a bijection but not a homomorphism."""
    c2, c5 = cyclic(2), cyclic(5)
    ident = np.arange(5, dtype=np.int32)
    negate = (-ident) % 5
    swap = np.asarray([0, 2, 1, 3, 4], dtype=np.int32)  # an involution, not additive
    init = GroupMap.__init__
    built = []

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    with mock.patch.object(core, "_map_masks", wraps=core._map_masks) as decide, \
            mock.patch.object(GroupMap, "__init__", counting_init):
        act = Action(c2, c5, [ident, negate])
        assert decide.call_count == 1 and decide.call_args.args[2] is act.maps
        with pytest.raises(BadParams, match="does not act as an automorphism"):
            Action(c2, c5, [ident, swap])
        assert decide.call_count == 2
    assert not built


def test_action_maps_are_one_block_and_reject_the_wrong_shape():
    c3, c4 = cyclic(3), cyclic(4)
    ident = np.arange(4, dtype=np.int32)
    act = Action(c3, c4, [ident, ident, ident])
    assert act.maps.dtype == np.int32 and act.maps.shape == (3, 4)
    assert not act.maps.flags.writeable
    for maps in ([ident, ident, ident[:3]],               # ragged
                 [ident[:3], ident[:3], ident[:3]],       # every map too short
                 [ident, ident],                          # one map missing
                 [ident.reshape(2, 2)] * 3):              # not image lists
        with pytest.raises(BadParams):
            Action(c3, c4, maps)


def test_min_stabilizer_trivial_action():
    c8 = cyclic(8)
    ident = np.arange(8, dtype=np.int32)
    act = Action(cyclic(3), c8, [ident, ident, ident])
    assert find_min_stabilizer_point(act) == 0


def test_min_stabilizer_one_factor_inverted():
    e9 = elementary_abelian(3, 2)
    invert_first = np.asarray([[0, 2, 1][x % 3] + 3 * (x // 3) for x in range(9)],
                              dtype=np.int32)
    act = Action(cyclic(2), e9, [np.arange(9, dtype=np.int32), invert_first])
    n0 = find_min_stabilizer_point(act)
    assert n0 % 3 != 0  # nontrivial first coordinate
    assert int(invert_first[n0]) != n0


def test_min_stabilizer_v4_split_inversions():
    e9 = elementary_abelian(3, 2)
    ident = np.arange(9, dtype=np.int32)
    invert_first = np.asarray([[0, 2, 1][x % 3] + 3 * (x // 3) for x in range(9)],
                              dtype=np.int32)
    invert_second = np.asarray([x % 3 + 3 * [0, 2, 1][x // 3] for x in range(9)],
                               dtype=np.int32)
    v4 = elementary_abelian(2, 2)
    act = Action(v4, e9, [ident, invert_first, invert_second,
                          invert_first[invert_second]])
    n0 = find_min_stabilizer_point(act)
    assert n0 % 3 != 0 and n0 // 3 != 0  # both coordinates nontrivial


def test_min_stabilizer_rejects_noncoprime():
    c4 = cyclic(4)
    ident = np.arange(4, dtype=np.int32)
    act = Action(cyclic(2), c4, [ident, c4.inverses.astype(np.int32)])
    with pytest.raises(PreconditionFailed):
        find_min_stabilizer_point(act)
