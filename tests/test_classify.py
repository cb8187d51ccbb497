"""Structural classifiers against the lattice oracle and pinned examples."""

from math import lcm
from unittest import mock

import numpy as np
import pytest

from blackburn import classify
from blackburn.catalog import (
    builtin,
    cyclic,
    cyclic_by_cyclic,
    dihedral,
    direct_product,
    generalized_quaternion,
    quaternion_power_product,
    symmetric,
)
from blackburn.classify import (
    NONTRIVIAL,
    Q8_C4_E2,
    Q8_Q8_E2,
    Q_GROUP,
    TRIVIAL,
    UNDEFINED,
    blackburn_2group_form,
    is_blackburn,
    is_dedekind,
    is_q_group,
    q_group_witness,
    r_of,
    r_of_lattice,
    verify_normal_subgroup_trichotomy,
    verify_q_element_structure,
)
from blackburn.core import Group, Subgroup
from blackburn.errors import NotBlackburn2Group, PreconditionFailed


def test_dedekind():
    assert is_dedekind(cyclic(12))
    assert is_dedekind(generalized_quaternion(8))
    assert not is_dedekind(symmetric(3))
    assert is_dedekind(direct_product(generalized_quaternion(8), cyclic(2)))
    # oracle: all subgroups normal, by full enumeration
    for g in (generalized_quaternion(8), symmetric(3), dihedral(8), cyclic(16)):
        assert is_dedekind(g) == all(s.is_normal() for s in g.all_subgroups())


def test_r_of_pinned():
    assert r_of(generalized_quaternion(8)).tag == UNDEFINED
    assert r_of(symmetric(3)).tag == TRIVIAL
    q16 = r_of(generalized_quaternion(16))
    assert q16.tag == NONTRIVIAL and q16.order == 2


def test_r_of_s3_from_two_transposition_subgroups():
    s3 = symmetric(3)
    subs = [s for s in s3.all_subgroups() if s.order == 2 and not s.is_normal()]
    assert len(subs) == 3
    inter = set(subs[0].members.tolist()) & set(subs[1].members.tolist())
    assert inter == {0}


def test_r_of_matches_lattice_oracle():
    for spec in ("q8", "q16", "q32", "s3", "s4", "d8", "d16", "c12", "q8xc4",
                 "c7_q8", "c7_c9", "f20", "q12", "c5_c8", "a4", "he3", "m27"):
        g = builtin(spec)
        fast, slow = r_of(g), r_of_lattice(g)
        assert fast.tag == slow.tag, spec
        if fast.subgroup is not None:
            assert np.array_equal(fast.subgroup.members, slow.subgroup.members)


def test_c7_q8_r_is_quaternion_center():
    g = quaternion_power_product(7, 8, 1, -1)
    status = r_of(g)
    assert status.tag == NONTRIVIAL
    assert status.order == 2
    z = status.subgroup.members.tolist()
    assert z[0] == 0 and g.order_of(z[1]) == 2
    assert is_blackburn(g)


def test_blackburn():
    assert is_blackburn(generalized_quaternion(16))
    assert not is_blackburn(symmetric(3))
    assert not is_blackburn(generalized_quaternion(8))
    assert is_blackburn(cyclic_by_cyclic(7, 9, 2))
    assert is_blackburn(cyclic_by_cyclic(5, 8, 4))


def test_q_group_witnesses():
    w = q_group_witness(generalized_quaternion(8))
    assert w is not None
    assert w.a.order == 4 and generalized_quaternion(8).order_of(w.b) == 4
    w16 = q_group_witness(generalized_quaternion(16))
    assert w16 is not None
    a_grp, _ = w16.a.as_group()
    assert a_grp.is_abelian() and a_grp.exponent() == 8  # A is C8
    assert not is_q_group(dihedral(8))
    assert not is_q_group(direct_product(generalized_quaternion(8), cyclic(4)))


def test_q_group_definition_holds_on_witness():
    g = generalized_quaternion(16)
    w = q_group_witness(g)
    inv = g.inverses
    for x in w.a.members.tolist():
        assert g.conj(x, w.b) == int(inv[x])


def test_blackburn_2group_forms():
    q8 = generalized_quaternion(8)
    assert blackburn_2group_form(generalized_quaternion(16)) == Q_GROUP
    assert blackburn_2group_form(direct_product(q8, cyclic(4))) == Q8_C4_E2
    assert blackburn_2group_form(
        direct_product(direct_product(q8, cyclic(4)), cyclic(2))) == Q8_C4_E2
    assert blackburn_2group_form(direct_product(q8, q8)) == Q8_Q8_E2
    assert blackburn_2group_form(
        direct_product(direct_product(q8, q8), cyclic(2))) == Q8_Q8_E2
    with pytest.raises(NotBlackburn2Group):
        blackburn_2group_form(symmetric(3))
    with pytest.raises(NotBlackburn2Group):
        blackburn_2group_form(q8)  # Dedekind, R undefined


def test_q_element_structure():
    g = quaternion_power_product(7, 8, 1, -1)
    rep = verify_q_element_structure(g, 7)
    assert rep.ok
    assert len(rep.members) == 7
    assert rep.is_normal and rep.all_subgroups_normal and rep.abelian_when_odd
    rep = verify_q_element_structure(generalized_quaternion(16), 3)
    assert rep.ok and len(rep.members) == 1  # vacuous
    rep = verify_q_element_structure(cyclic_by_cyclic(7, 9, 2), 7)
    assert rep.ok
    with pytest.raises(PreconditionFailed):
        verify_q_element_structure(symmetric(3), 2)  # R(S3) is trivial
    with pytest.raises(PreconditionFailed):
        verify_q_element_structure(generalized_quaternion(16), 2)  # q = p


def test_trichotomy_cases():
    q16 = generalized_quaternion(16)
    v = verify_normal_subgroup_trichotomy(q16, Subgroup(q16, np.arange(16)))
    assert v.case == "a" and v.dedekind_complement

    c7q8 = quaternion_power_product(7, 8, 1, -1)
    v = verify_normal_subgroup_trichotomy(c7q8, Subgroup(c7q8, np.arange(56)))
    assert v.case == "b"
    assert len(v.p_complement) == 7

    c7c9 = cyclic_by_cyclic(7, 9, 2)
    v = verify_normal_subgroup_trichotomy(c7c9, Subgroup(c7c9, np.arange(63)))
    assert v.case == "c"
    assert v.case_c is not None
    assert v.case_c.t_members == (0,)  # T is trivial here
    x = v.case_c.x  # [x, H] is nontrivial
    assert any(c7c9.mul(x, h) != c7c9.mul(h, x) for h in v.p_complement)
    # |C_<x>(H)| is the exponent of O_p(N); with T = 1 the centralizing check is void
    cx = [y for y in c7c9.closure([x]).tolist()
          if all(c7c9.mul(y, h) == c7c9.mul(h, y) for h in v.p_complement)]
    op = c7c9.o_p(v.p).members.tolist()
    assert len(cx) == lcm(*(c7c9.order_of(y) for y in op)) == 3


def test_case_c_builds_the_lattice_of_o_p_once():
    g = builtin("c7_c9")
    with mock.patch.object(Group, "_cyclic_extension", autospec=True,
                           side_effect=Group._cyclic_extension) as extension:
        v = verify_normal_subgroup_trichotomy(g, Subgroup(g, np.arange(g.order)))
    assert v.case == "c"
    assert extension.call_count == 1
    # the one lattice is that of O_p(N), here C_3 inside the Sylow C_9
    (op_grp,), _ = extension.call_args
    assert op_grp.order == g.o_p(v.p).order == 3


def test_r_of_then_trichotomy_build_the_power_block_and_normality_once():
    g = builtin("c7_c9")
    built = {"_powers": 0, "_normal_cyclic": 0}

    def counting(method, slot):
        def wrapper(self):
            if self is g and getattr(self, slot) is None:
                built[slot] += 1
            return method(self)
        return wrapper

    with mock.patch.object(Group, "_power_block", counting(Group._power_block, "_powers")), \
            mock.patch.object(Group, "normal_cyclics",
                              counting(Group.normal_cyclics, "_normal_cyclic")):
        classify.r_of(g)
        v = verify_normal_subgroup_trichotomy(g, Subgroup(g, np.arange(g.order)))
    assert v.case == "c"
    assert built == {"_powers": 1, "_normal_cyclic": 1}


def test_case_c_elements_centralising_h_lie_in_o_p():
    # C_S(H) = O_p(N) != S in case c, and S = <x> x T with T <= O_p(N) needs
    # x outside O_p(N): so the "[x, H] must be nontrivial" skip in
    # _case_c_data only saves work, it cannot change a verdict
    for spec in ("q12", "c3_c8", "c5_c8", "c7_c9"):
        g = builtin(spec)
        v = verify_normal_subgroup_trichotomy(g, Subgroup(g, np.arange(g.order)))
        assert v.case == "c", spec
        h = np.asarray(v.p_complement)
        s, op = g.sylow(v.p).members, g.o_p(v.p).members
        centralising = [x for x in s.tolist() if np.array_equal(g.table[x, h], g.table[h, x])]
        assert centralising == op.tolist() and op.size < s.size, spec
        assert v.case_c.x not in centralising


def test_trichotomy_rejects_non_blackburn():
    s3 = symmetric(3)
    with pytest.raises(PreconditionFailed):
        verify_normal_subgroup_trichotomy(s3, Subgroup(s3, np.arange(6)))


def test_trichotomy_all_normal_subgroups_of_catalog_samples():
    for spec in ("q16", "q8xc4", "c7_q8", "c7_c9", "c5_c8", "q12"):
        g = builtin(spec)
        for s in g.all_subgroups():
            if s.is_normal():
                v = verify_normal_subgroup_trichotomy(g, s)
                assert v.case in ("a", "b", "c"), spec


def test_index2_subgroups():
    d8 = dihedral(8)
    subs = classify.index2_subgroups(d8)
    assert len(subs) == 3
    assert all(s.order == 4 for s in subs)
    assert classify.index2_subgroups(cyclic(7)) == []
