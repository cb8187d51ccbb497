"""The order-p^(p+2) witness construction and its claims."""

import dataclasses

import numpy as np
import pytest

from blackburn.autos import (
    find_isomorphism,
    inner_automorphism,
    is_class_preserving,
    locally_power,
    power_of,
)
from blackburn.autos import _is_inner
from blackburn.catalog import cyclic, direct_product
from blackburn.core import GroupMap
from blackburn.counterexample import (
    BaseAbelian,
    CoordSpace,
    SplitExtension,
    WitnessReport,
    _check_sigma,
    _verify_coordinate_claims,
    action_matrix,
    base_abelian,
    build_witness,
    extend_witness,
    verify_witness,
)
from blackburn.errors import BadPrime, ClaimFailed, NotAutomorphism


def test_action_matrix_p3():
    m = action_matrix(3)
    assert m.modulus == 9
    assert m.entries.tolist() == [[1, 3], [8, 1]]  # -1 = 8 mod 9
    # determinant 1*1 - 3*(-1) = 4, a unit mod 9
    det = (1 * 1 - 3 * (-1)) % 9
    assert det == 4
    assert m.matrix_order == 3


def test_action_matrix_p5():
    m = action_matrix(5)
    assert m.modulus == 25
    expect = [
        [1, 5, 0, 0],
        [0, 1, 1, 0],
        [0, 0, 1, 1],
        [24, 0, 0, 1],
    ]
    assert m.entries.tolist() == expect
    assert m.matrix_order == 25


def test_action_matrix_shape_general():
    for p in (3, 5, 7):
        m = action_matrix(p)
        k = p - 1
        ent = m.entries
        assert ent.shape == (k, k)
        assert all(ent[i, i] == 1 for i in range(k))
        assert ent[0, 1] == p
        assert ent[k - 1, 0] == p * p - 1
        for i in range(1, k - 1):
            assert ent[i, i + 1] == 1


def test_action_matrix_rejects_bad_primes():
    for p in (2, 4, 9, 11):
        with pytest.raises(BadPrime):
            action_matrix(p)


def test_matrix_power_sum_annihilates_p3():
    m = action_matrix(3).entries
    total = (np.eye(2, dtype=np.int64) + m + m @ m) % 9
    assert total.tolist() == [[0, 0], [6, 0]]
    # (6*a1, 0) vanishes because a1 is a multiple of 3


def test_kappa_orbit_p3():
    base = base_abelian(3)
    space, perm = base.space, base.action
    x = 1  # coords (1, 0)
    orbit_values = [tuple(space.values[x])]
    y = int(perm[x])
    while y != x:
        orbit_values.append(tuple(space.values[y]))
        y = int(perm[y])
    assert orbit_values == [(1, 0), (1, 3), (7, 6)]  # (-2, 6) = (7, 6) mod 9


def test_base_abelian_is_c9_x_c3():
    a_grp = build_witness(3).a_group
    target = direct_product(cyclic(9), cyclic(3))
    assert find_isomorphism(a_grp, target) is not None


def test_p5_builds_no_table(monkeypatch):
    def refuse(self):
        raise AssertionError("the p = 5 witness must not build a table")

    monkeypatch.setattr(CoordSpace, "group", refuse)
    assert verify_witness(5).ok
    assert "group" not in {f.name for f in dataclasses.fields(BaseAbelian)}


def test_base_abelian_p5_properties():
    base = base_abelian(5)
    assert base.space.size == 5**5
    perm = base.action
    cur = np.arange(perm.size)
    for _ in range(5):
        cur = perm[cur]
    assert np.array_equal(cur, np.arange(perm.size))


def test_build_witness_p3_objects():
    b = build_witness(3)
    assert b.a_group.order == 27
    assert b.k_group.order == 81
    assert b.g_group.order == 243
    assert b.alpha.map_order() == 9
    assert b.beta.map_order() == 3
    g = b.g_group
    assert g.order_of(b.x) == 9
    assert g.order_of(b.z) == 3
    assert g.order_of(b.k) == 3
    assert g.order_of(b.h) == 3
    # z is central
    assert g.centralizer([b.z]).order == g.order
    # the element x*k has order p
    assert g.order_of(g.mul(b.x, b.k)) == 3


def test_conjugation_orientation_pinned():
    """k^-1 x k must equal the matrix image of x, not its inverse image."""
    b = build_witness(3)
    k_grp = b.k_group
    x_k, k_k = b.x // 3, b.k // 3
    expected = int(b.base.action[1]) * 3  # x has A-index 1
    assert k_grp.conj(x_k, k_k) == expected


def test_alpha_beta_relations():
    b = build_witness(3)
    g = b.g_group
    assert b.alpha.apply(b.k) == g.mul(b.x, b.k)
    assert b.alpha.apply(b.h) == g.mul(b.z, b.h)
    assert b.beta.apply(b.h) == g.mul(b.z, b.h)
    assert all(b.alpha.apply(a * 9) == a * 9 for a in range(27))  # fixes A
    assert locally_power(g, b.alpha, b.beta)
    assert power_of(b.alpha, b.beta) is None


def test_extension_and_sigma():
    b = extend_witness(build_witness(3))
    ga = b.ga_group
    assert ga.order == 2187
    assert b.sigma.apply(1) == 1  # fixes the extending generator
    assert all(int(b.sigma.images[g * 9]) == int(b.beta.images[g]) * 9
               for g in range(243))
    assert is_class_preserving(ga, b.sigma)
    assert not _is_inner(ga, b.sigma)
    assert b.sigma.map_order() == 3


def test_tampered_sigma_is_inner():
    """Sending h to h instead of z*h collapses the twist: the map becomes the
    identity, which is inner and therefore no witness."""
    b = extend_witness(build_witness(3))
    ga = b.ga_group
    tampered = GroupMap(ga, ga, np.arange(ga.order, dtype=np.int64))
    assert tampered.is_automorphism()
    assert is_class_preserving(ga, tampered)
    assert _is_inner(ga, tampered)


@pytest.fixture(scope="module")
def ga_routes():
    """GA of p = 3 as the table of extend_witness and as its coordinate form."""
    b = extend_witness(build_witness(3))
    return b, SplitExtension(b.g_group, b.alpha, 9)


def test_split_extension_matches_the_table_of_ga(ga_routes):
    b, ext = ga_routes
    ga = b.ga_group
    assert ext.order == ga.order
    x = np.arange(ga.order)
    for lo in range(0, ga.order, 243):  # a block of rows at a time
        assert np.array_equal(ext.products(x[lo : lo + 243, None], x), ga.table[lo : lo + 243])
    assert np.array_equal(ext.inverses, ga.inverses)
    gens = ext.generating_sequence()
    assert ga.closure(gens).size == ga.order
    assert np.array_equal(ext.conjugates(of=gens), ga.conjugates(of=gens))
    assert np.array_equal(ext.conjugates(by=gens), ga.conjugates(by=gens))
    # the same partition: each element labelled by its class's least member
    least = np.asarray([c[0] for c in ga.conjugacy_classes()])
    assert np.array_equal(ext.class_ids(), least[ga.class_ids()])


def test_split_extension_verdicts_match_the_table_route(ga_routes):
    """The GroupMap predicates on the coordinate GA equal those on the table
    on sigma, an inner map, inner maps after sigma, the identity, and three
    maps that are not automorphisms: a bijection with two images swapped,
    one with f(0) != 0, and sigma after swapping two left cosets of <y>,
    y the first generator, which keeps f(x y) = f(x) f(y) for that y alone.
    is_class_preserving refuses the last three on both routes."""
    b, ext = ga_routes
    ga = b.ga_group
    maps = [b.sigma, inner_automorphism(ga, 100), GroupMap(ga, ga, np.arange(ga.order))]
    maps += [inner_automorphism(ga, a).then(b.sigma) for a in (1, 9)]
    for i, j in ((5, 700), (0, 3)):
        img = b.sigma.images.copy()
        img[[i, j]] = img[[j, i]]
        maps.append(GroupMap(ga, ga, img))
    y = ext.generating_sequence()[0]
    y_pows = [ga.power(y, k) for k in range(ga.order_of(y))]
    swap = np.arange(ga.order)
    c1, c2 = ga.table[1, y_pows], ga.table[2, y_pows]  # the cosets (0, 1)<y> and (0, 2)<y>
    swap[c1], swap[c2] = c2, c1
    maps.append(GroupMap(ga, ga, b.sigma.images[swap]))
    cid = ga.class_ids()
    seen = set()
    for f in maps:
        verdict = (f.is_automorphism(), np.array_equal(cid[f.images], cid), _is_inner(ga, f))
        on_ext = GroupMap(ext, ext, f.images)
        assert (on_ext.is_automorphism(), _is_inner(ext, on_ext)) == (verdict[0], verdict[2])
        if verdict[0]:
            assert is_class_preserving(ext, on_ext) == is_class_preserving(ga, f) == verdict[1]
        else:
            with pytest.raises(NotAutomorphism):
                is_class_preserving(ext, on_ext)
        seen.add(verdict)
    assert seen == {(True, True, False), (True, True, True), (False, False, False)}


def test_check_sigma_reads_conjugation_on_all_of_g(ga_routes):
    """Conjugation by (0, 1) must be alpha on every element of G.  After an
    inner map by k, which is not central in G, alpha' still agrees with
    alpha on h^2 (element 2), which is central, but not everywhere."""
    b, ext = ga_routes
    g, m = b.g_group, 9
    shifted = b.alpha.then(inner_automorphism(g, b.k))
    assert shifted.apply(2) == b.alpha.apply(2) and shifted != b.alpha
    for ga, sigma in ((b.ga_group, b.sigma), (ext, GroupMap(ext, ext, b.sigma.images))):
        _check_sigma(ga, sigma, b.alpha, m)
        with pytest.raises(ClaimFailed, match="does not conjugate by alpha"):
            _check_sigma(ga, sigma, shifted, m)


def test_verify_witness_p3():
    rep = verify_witness(3)
    assert rep.ok
    assert rep.mode == "table"
    assert rep.group_orders == {"A": 27, "K": 81, "G": 243, "GA": 2187}
    assert rep.matrix_order == 3  # the matrix itself has order p here
    names = [c for c, _ in rep.claims]
    assert "sigma is class-preserving" in names
    assert "sigma is not inner" in names


def test_verify_witness_p5():
    rep = verify_witness(5)
    assert rep.ok
    assert rep.mode == "coordinates"
    assert rep.group_orders["G"] == 5**7
    assert rep.group_orders["GA"] is None
    assert rep.matrix_order == 25


def test_action_claims_are_computed_from_the_recorded_action():
    bundle = build_witness(3)
    names = ("matrix action on A has order p", "sum of the first p matrix powers annihilates A")

    def claims(b):
        rep = WitnessReport(p=3, mode="table", matrix_order=3, group_orders={})
        _verify_coordinate_claims(b, rep)
        return [dict(rep.claims)[name] for name in names]

    assert claims(bundle) == [True, True]
    ident = np.arange(bundle.base.space.size, dtype=np.int64)
    trivial = dataclasses.replace(bundle, base=dataclasses.replace(bundle.base, action=ident))
    assert claims(trivial) == [False, False]


def test_build_witness_rejects_unsupported():
    for p in (2, 7, 11):
        with pytest.raises(BadPrime):
            build_witness(p)
