"""Named constructors and products."""

import itertools
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from blackburn import catalog, counterexample
from blackburn.abelian_pairs import abelian_group, abelian_scope
from blackburn.autos import find_isomorphism, is_isomorphic
from blackburn.catalog import (
    CATALOG,
    alternating4,
    builtin,
    catalog_build,
    cyclic,
    cyclic_by_cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    generalized_quaternion,
    heisenberg3,
    q_group,
    quaternion_power_product,
    semidirect_product,
    symmetric,
)
from blackburn.core import Action, trivial_action
from blackburn.counterexample import build_witness, extend_witness
from blackburn.errors import BadParams, OrderCap


def test_cyclic_trivial():
    assert cyclic(1).order == 1
    assert cyclic(5).order_of(1) == 5


def test_catalog_build_dispatch():
    assert catalog_build("cyclic", 6).order == 6
    assert catalog_build("dihedral", 8).order == 8
    with pytest.raises(BadParams):
        catalog_build("nope", 3)


def test_q_group_of_c4_is_q8():
    a = cyclic(4)
    g = q_group(a, 2)
    assert g.order == 8
    assert find_isomorphism(g, generalized_quaternion(8)) is not None


def test_q_group_rejects_bad_params():
    with pytest.raises(BadParams):
        q_group(cyclic(4), 1)  # not an involution
    with pytest.raises(BadParams):
        q_group(symmetric(3), 3)  # not abelian


def test_generalized_quaternion_unique_involution():
    for order in (8, 16, 32, 64):
        g = generalized_quaternion(order)
        assert g.order == order
        assert sum(1 for o in g.element_orders() if o == 2) == 1
    with pytest.raises(BadParams):
        generalized_quaternion(12)
    with pytest.raises(BadParams):
        generalized_quaternion(4)


def old_symmetric(n: int) -> tuple:
    """The table and names of S_n by one tuple composition per product."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = np.zeros((len(perms), len(perms)), dtype=np.int32)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(q[p[x]] for x in range(n))]
    return table, ["".join(str(x) for x in p) for p in perms]


def test_symmetric_against_independent_composition():
    """S1 .. S5 against a rebuild from raw tuples: the same table and names."""
    for n in range(1, 6):
        table, names = old_symmetric(n)
        g = symmetric(n)
        assert g.table.dtype == np.int32 and g.table.tobytes() == table.tobytes()
        assert list(g.names) == names
    assert sorted(len(c) for c in symmetric(4).conjugacy_classes()) == [1, 3, 6, 6, 8]
    with pytest.raises(BadParams):
        symmetric(6)


def test_dihedral():
    d8 = dihedral(8)
    assert d8.order == 8
    assert sorted(d8.element_orders()) == [1, 2, 2, 2, 2, 2, 4, 4]
    assert is_isomorphic(dihedral(6), symmetric(3))
    with pytest.raises(BadParams):
        dihedral(7)


def test_direct_product():
    v4 = direct_product(cyclic(2), cyclic(2))
    assert v4.order == 4 and v4.exponent() == 2
    g = direct_product(generalized_quaternion(8), cyclic(4))
    assert g.order == 32 and g.center().order == 8
    q8 = generalized_quaternion(8)
    assert is_isomorphic(direct_product(q8, cyclic(1)), q8)
    with pytest.raises(OrderCap):
        direct_product(cyclic(300), cyclic(300), cap=1000)


def test_semidirect_trivial_action_equals_direct():
    a, b = cyclic(6), symmetric(3)
    direct = direct_product(a, b)
    semi = semidirect_product(a, b, trivial_action(b, a))
    assert np.array_equal(direct.table, semi.table)


def old_direct_table(g, h, cap=None) -> np.ndarray:
    """The int64 product formula, cast to int32 at the end."""
    n, m = g.order, h.order
    tg, th = g.table.astype(np.int64), h.table.astype(np.int64)
    return (tg[:, None, :, None] * m + th[None, :, None, :]).reshape(n * m, n * m).astype(np.int32)


def old_semidirect_table(n_grp, h_grp, action, cap=None) -> np.ndarray:
    """The int64 product, one block of rows per element h1 of H."""
    n, m = n_grp.order, h_grp.order
    tn, th = n_grp.table.astype(np.int64), h_grp.table.astype(np.int64)
    table = np.zeros((n * m, n * m), dtype=np.int64)
    for h1 in range(m):
        acted = tn[:, action.maps[h1]]
        table[h1::m, :] = (acted[:, :, None] * m + th[h1][None, None, :]).reshape(n, n * m)
    return table.astype(np.int32)


def old_semidirect_broadcast(n_grp, h_grp, action, cap=None) -> np.ndarray:
    """The int32 broadcast formula, reshaped from its broadcast order."""
    n, m = n_grp.order, h_grp.order
    tn, th = n_grp.table, h_grp.table
    return (tn[:, action.maps][:, :, :, None] * m + th[None, :, None, :]).reshape(n * m, n * m)


def old_abelian_table(factors) -> np.ndarray:
    n = int(np.prod(factors))
    idx, table, w = np.arange(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64), n
    for f in factors:
        w //= f
        d = (idx // w) % f
        table += ((d[:, None] + d[None, :]) % f) * w
    return table.astype(np.int32)


def test_product_tables_match_the_int64_formulas():
    """Every direct and semidirect product built for the catalog and for GA
    (p = 3), and the abelian groups of abelian_scope, byte for byte; each
    product table C-contiguous int32, and a semidirect one equal to the
    broadcast formula too."""
    built = Counter()

    def checked(make, *olds):
        def run(*args, **kw):
            out = make(*args, **kw)
            assert out.table.dtype == np.int32 and out.table.flags.c_contiguous
            for old in olds:
                assert out.table.tobytes() == old(*args, **kw).tobytes()
            built[olds[0].__name__] += 1
            return out
        return run

    direct = checked(direct_product, old_direct_table)
    semi = checked(semidirect_product, old_semidirect_table, old_semidirect_broadcast)
    with mock.patch.object(catalog, "direct_product", direct), \
            mock.patch.object(catalog, "semidirect_product", semi), \
            mock.patch.object(counterexample, "direct_product", direct), \
            mock.patch.object(counterexample, "semidirect_product", semi):
        for entry in CATALOG:
            assert entry.build().order == entry.order
        assert extend_witness(build_witness(3)).ga_group.order == 3**7
    assert built == {"old_direct_table": 13, "old_semidirect_table": 17}
    for p in (2, 3, 5):
        for factors in abelian_scope(p, 128):
            assert abelian_group(factors)[0].table.tobytes() == old_abelian_table(factors).tobytes()


def test_semidirect_inversion_gives_s3():
    c3, c2 = cyclic(3), cyclic(2)
    inv = np.asarray([0, 2, 1], dtype=np.int32)
    act = Action(c2, c3, [np.arange(3, dtype=np.int32), inv])
    g = semidirect_product(c3, c2, act)
    assert find_isomorphism(g, symmetric(3)) is not None


def test_action_names_the_first_non_homomorphic_pair():
    # act(1) act(2) = inverse != act(0), and (1, 2) precedes (2, 1) row-major
    c3, inv = cyclic(3), np.asarray([0, 2, 1], dtype=np.int32)
    ident = np.arange(3, dtype=np.int32)
    with pytest.raises(BadParams, match=r"^action is not a homomorphism at \(1,2\)$"):
        Action(c3, c3, [ident, inv, ident])


def test_semidirect_conjugation_convention():
    """(1, h)(n, 1)(1, h)^-1 applies act(h)."""
    c3, c2 = cyclic(3), cyclic(2)
    inv = np.asarray([0, 2, 1], dtype=np.int32)
    act = Action(c2, c3, [np.arange(3, dtype=np.int32), inv])
    g = semidirect_product(c3, c2, act)
    h = 1          # (0, 1)
    n = 1 * 2      # (1, 0)
    lhs = g.mul(g.mul(h, n), g.inv(h))
    assert lhs == int(inv[1]) * 2


def test_cyclic_by_cyclic_orders():
    g = cyclic_by_cyclic(7, 9, 2)
    assert g.order == 63
    assert not g.is_abelian()
    f20 = cyclic_by_cyclic(5, 4, 2)
    assert f20.order == 20 and f20.center().order == 1


def test_quaternion_power_product():
    g = quaternion_power_product(7, 8, 1, -1)
    assert g.order == 56
    assert g.center().order == 2
    assert g.sylow(2).order == 8
    assert g.o_p(2).order == 4  # the kernel-of-action half of Q8


def test_special_constructors():
    he = heisenberg3()
    assert he.order == 27 and he.exponent() == 3 and not he.is_abelian()
    a4 = alternating4()
    assert a4.order == 12
    assert sorted(len(c) for c in a4.conjugacy_classes()) == [1, 3, 4, 4]
    m27 = builtin("m27")
    assert m27.order == 27 and m27.exponent() == 9 and not m27.is_abelian()


def test_elementary_abelian():
    e = elementary_abelian(2, 3)
    assert e.order == 8 and e.exponent() == 2
    assert elementary_abelian(3, 0).order == 1
    with pytest.raises(BadParams):
        elementary_abelian(4, 2)


def test_builtin_specs():
    assert builtin("q16").order == 16
    assert builtin("cyclic(12)").order == 12
    assert builtin("elementary_abelian(3, 2)").order == 9
    with pytest.raises(BadParams):
        builtin("wat(3)")


def test_catalog_entries_build_and_match_declared_order():
    for entry in CATALOG:
        g = entry.build()
        assert g.order == entry.order, entry.name


def test_catalog_names_unique_and_sorted():
    names = [e.name for e in CATALOG]
    assert len(set(names)) == len(names)
    orders = [(e.order, e.name) for e in CATALOG]
    assert orders == sorted(orders)
