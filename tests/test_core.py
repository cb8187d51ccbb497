"""Core group machinery against independent brute-force oracles."""

import itertools
from unittest import mock

import numpy as np
import pytest

from blackburn import core
from blackburn.catalog import cyclic, dihedral, direct_product, generalized_quaternion, symmetric
from blackburn.core import Group, GroupMap, Subgroup, validate_group
from blackburn.errors import (
    BadParams,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
    NotNormal,
    OrderCap,
)

# order-5 loop with identity and two-sided inverses that is not associative
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_validate_trivial_group():
    g = validate_group([[0]])
    assert g.order == 1
    assert g.mul(0, 0) == 0


def test_validate_order_two():
    g = validate_group([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.order_of(1) == 2


def test_validate_relabels_identity_to_zero():
    # C3 written with identity at index 2
    t = [[(a + b + 1) % 3 for b in range(3)] for a in range(3)]
    g = validate_group(t, names=["x", "y", "e"])
    assert g.names[0] == "e"
    assert g.mul(0, 1) == 1


def test_identity_free_latin_square_rejected():
    # t[i][j] = 2i + j mod 3: every row/column is a permutation, no identity
    t = [[(2 * i + j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(NoIdentity):
        validate_group(t)


def test_non_latin_rejected():
    with pytest.raises(NotLatinSquare):
        validate_group([[0, 0], [1, 1]])
    with pytest.raises(NotLatinSquare):
        validate_group([[0, 1], [1, 2]])


def test_nonassociative_loop_rejected():
    with pytest.raises(NotAssociative):
        validate_group(NONASSOC_LOOP)


def test_no_inverse_rejected():
    # an order-5 loop whose element 2 has only a one-sided inverse
    t = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NoInverse):
        validate_group(t)


def test_lights_test_path_above_full_check_limit():
    big = cyclic(600)
    g = validate_group(big.table)
    assert g.order == 600


def test_lights_test_rejects_nonassociative_loop_above_full_check_limit():
    # NONASSOC_LOOP x C103: a loop of order 515 with identity and two-sided
    # inverses, so only the associativity check can reject it
    c = cyclic(103).table
    loop = np.asarray(NONASSOC_LOOP)
    t = (loop[:, None, :, None] * 103 + c[None, :, None, :]).reshape(515, 515)
    with pytest.raises(NotAssociative):
        validate_group(t)
    perm = np.random.default_rng(7).permutation(515)
    moved = np.empty_like(t)
    moved[np.ix_(perm, perm)] = perm[t]
    assert perm[0] != 0  # the identity is no longer at index 0
    with pytest.raises(NotAssociative):
        validate_group(moved)


def _brute_subgroups(g):
    """All subgroups by subset enumeration; independent of closure code."""
    out = []
    elems = range(g.order)
    for r in range(1, g.order + 1):
        for subset in itertools.combinations(elems, r):
            s = set(subset)
            if 0 not in s:
                continue
            if any(g.mul(a, b) not in s for a in s for b in s):
                continue
            if any(g.inv(a) not in s for a in s):
                continue
            out.append(tuple(sorted(s)))
    return sorted(out)


@pytest.mark.parametrize("build,count", [
    (lambda: symmetric(3), 6),
    (lambda: generalized_quaternion(8), 6),
    (lambda: cyclic(7), 2),
])
def test_all_subgroups_against_subset_enumeration(build, count):
    g = build()
    ours = sorted(tuple(s.members.tolist()) for s in g.all_subgroups())
    assert ours == _brute_subgroups(g)
    assert len(ours) == count


def test_q8_subgroups_all_normal():
    q8 = generalized_quaternion(8)
    assert all(s.is_normal() for s in q8.all_subgroups())


def test_conjugacy_classes_against_brute_force():
    for g in (symmetric(3), symmetric(4), generalized_quaternion(16), dihedral(12)):
        brute = set()
        for i in range(g.order):
            orbit = frozenset(g.conj(i, a) for a in range(g.order))
            brute.add(orbit)
        ours = {frozenset(c.tolist()) for c in g.conjugacy_classes()}
        assert ours == brute


def test_class_sizes():
    assert sorted(len(c) for c in symmetric(3).conjugacy_classes()) == [1, 2, 3]
    assert sorted(len(c) for c in generalized_quaternion(8).conjugacy_classes()) == [1, 1, 2, 2, 2]


def test_center_against_definition():
    for g in (generalized_quaternion(8), symmetric(4), dihedral(16)):
        brute = [a for a in range(g.order)
                 if all(g.mul(a, b) == g.mul(b, a) for b in range(g.order))]
        assert g.center().members.tolist() == brute
    assert generalized_quaternion(8).center().order == 2


def test_centralizer_of_identity_is_whole_group():
    g = symmetric(4)
    assert g.centralizer([0]).order == g.order


def test_subgroup_closure():
    s3 = symmetric(3)
    transposition = next(x for x in range(6) if s3.order_of(x) == 2)
    assert s3.subgroup([transposition]).order == 2
    assert s3.subgroup([]).order == 1
    q16 = generalized_quaternion(16)
    # the cyclic half <a> sits at indices 0..7 by construction
    assert q16.subgroup([1]).order == 8


def test_q16_order4_cyclic_not_normal():
    q16 = generalized_quaternion(16)
    b = 8  # the first element outside <a>, of order 4
    assert q16.order_of(b) == 4
    sub = q16.subgroup([b])
    assert sub.order == 4
    assert not sub.is_normal()
    conj = {q16.conj(x, a) for x in sub.members.tolist() for a in range(16)}
    assert not conj <= set(sub.members.tolist())


def test_element_orders_and_exponent():
    q16 = generalized_quaternion(16)
    assert q16.exponent() == 8
    assert sum(1 for o in q16.element_orders() if o == 2) == 1
    from blackburn.catalog import elementary_abelian

    assert elementary_abelian(2, 4).exponent() == 2


def test_sylow_and_o_p():
    c12 = cyclic(12)
    assert c12.sylow(2).order == 4
    assert c12.sylow(3).order == 3
    s3 = symmetric(3)
    assert s3.o_p(3).order == 3
    assert s3.o_p(2).order == 1
    s4 = symmetric(4)
    for p in (2, 3):
        syl = s4.sylow(p)
        part = 1
        n = s4.order
        while n % p == 0:
            part, n = part * p, n // p
        assert syl.order == part
        op = s4.o_p(p)
        assert op.is_normal()
        assert set(op.members.tolist()) <= set(syl.members.tolist())


def test_commutator_subgroup():
    s3 = symmetric(3)
    assert s3.commutator_subgroup().order == 3
    assert cyclic(12).commutator_subgroup().order == 1
    q8 = generalized_quaternion(8)
    assert q8.commutator_subgroup().order == 2


def test_nilpotent():
    assert generalized_quaternion(8).is_nilpotent()
    assert cyclic(12).is_nilpotent()
    assert not symmetric(3).is_nilpotent()
    assert not symmetric(4).is_nilpotent()


def test_quotient():
    q8 = generalized_quaternion(8)
    v4, proj = q8.quotient(q8.center())
    assert v4.order == 4
    assert v4.exponent() == 2
    assert proj.is_homomorphism()
    whole, _ = q8.quotient(Subgroup(q8, np.arange(8)))
    assert whole.order == 1
    triv, _ = q8.quotient(q8.subgroup([]))
    assert triv.order == 8
    s3 = symmetric(3)
    sub = s3.subgroup([next(x for x in range(6) if s3.order_of(x) == 2)])
    with pytest.raises(NotNormal):
        s3.quotient(sub)


def test_quotient_order_multiplies():
    for g in (symmetric(4), generalized_quaternion(16)):
        for s in g.all_subgroups():
            if s.is_normal():
                q, _ = g.quotient(s)
                assert q.order * s.order == g.order


def test_all_subgroups_order_cap(monkeypatch):
    monkeypatch.setattr(core, "SUBGROUP_ENUM_CAP", 100)
    with pytest.raises(OrderCap):
        symmetric(5).all_subgroups()


def test_all_subgroups_are_computed_once_per_group(monkeypatch):
    g = symmetric(4)
    first = g.all_subgroups()
    with mock.patch.object(Group, "_cyclic_extension", side_effect=AssertionError("recomputed")):
        second = g.all_subgroups()
        # the cap is checked before the cache
        with pytest.raises(OrderCap), monkeypatch.context() as m:
            m.setattr(core, "SUBGROUP_ENUM_CAP", 10)
            g.all_subgroups()
    assert second == first and second is not first
    second.clear()
    assert g.all_subgroups() == first
    for s in first:
        assert not s.members.flags.writeable
        with pytest.raises(ValueError):
            s.members[0] = 1


def test_generating_sequence_is_canonical_and_generates():
    for g in (symmetric(4), generalized_quaternion(16), cyclic(12)):
        gens = g.generating_sequence()
        assert gens == g.generating_sequence()
        assert g.subgroup(gens).order == g.order


def test_group_is_immutable():
    g = cyclic(4)
    with pytest.raises(ValueError):
        g.table[0, 0] = 1


def test_power_block_and_normal_cyclics_are_computed_once_per_group():
    g = generalized_quaternion(16)
    orders, block = g._power_block()
    assert g._power_block() is g._power_block()
    assert g.normal_cyclics() is g.normal_cyclics()
    for arr in (orders, block, g.normal_cyclics()):
        assert not arr.flags.writeable
    # element_orders hands out a fresh list each call
    got = g.element_orders()
    assert got == orders.tolist() and got is not g.element_orders()


def test_group_map_rejects_images_out_of_range():
    c2 = cyclic(2)
    for images in ([1, -1], [0, 5], [0, 2]):
        with pytest.raises(BadParams):
            GroupMap(c2, c2, images)
    assert GroupMap(c2, c2, [0, 1]).is_bijective()
    for block in ([[0, 1], [1, -1]], [[0, 1], [0, 2]], [[0, 1, 0]], [0, 1]):
        with pytest.raises(BadParams):
            GroupMap._rows(c2, block)
    rows = GroupMap._rows(c2, [[0, 1], [1, 0]])
    assert [f.is_automorphism() for f in rows] == [True, False]
    assert not rows[0].images.flags.writeable
