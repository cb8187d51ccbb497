"""Suite runner and the remaining spot checks."""

from collections import Counter

import numpy as np
import pytest

from blackburn import classify
from blackburn.autos import enumerate_autc, outc_trivial
from blackburn.catalog import builtin, cyclic, direct_product, generalized_quaternion
from blackburn.core import Action
from blackburn.counterexample import build_witness, extend_witness
from blackburn.errors import BadParams
from blackburn.suites import (
    blackburn_catalog,
    coprime_action_instances,
    has_abelian_index2,
    is_abelian_by_cyclic,
    normal_subgroup_trichotomy,
    run_suites,
)


# (run, passed) of each quick suite; a refactor that drops cases fails here
QUICK_COUNTS = {
    "core-invariants": 294, "r-oracle": 52, "abelian-index2-outc": 34,
    "abelian-by-cyclic-outc": 47, "power-action-outc": 10, "blackburn-outc": 14,
    "blackburn-2group-forms": 12, "q-element-structure": 20,
    "normal-subgroup-trichotomy": 335, "pointwise-power": 3,
    "coprime-action-witnesses": 51, "autc-vs-aut-filter": 98, "format-roundtrip": 49,
}


def test_run_suites_quick_all_pass():
    results = run_suites("quick")
    for r in results:
        assert r.ok, f"{r.suite}: {r.first_failure}"
    # witness-construction runs at the full level only
    assert {r.suite: (r.run, r.passed) for r in results} == {
        name: (count, count) for name, count in QUICK_COUNTS.items()}


def test_trichotomy_suite_computes_r_once_per_group(monkeypatch):
    calls = []
    real = classify.r_of

    def counting(g):
        calls.append(g)  # holding g keeps its id unique
        return real(g)

    monkeypatch.setattr(classify, "r_of", counting)
    result = normal_subgroup_trichotomy()
    assert result.ok and result.run > 0
    per_group = Counter(id(g) for g in calls)
    assert max(per_group.values()) == 1


def test_abelian_index2_detection():
    assert has_abelian_index2(generalized_quaternion(16))
    assert has_abelian_index2(builtin("d8"))
    assert has_abelian_index2(builtin("sd16"))
    assert not has_abelian_index2(builtin("s4"))  # A4 is not abelian
    assert not has_abelian_index2(cyclic(7))


def test_abelian_by_cyclic_detection():
    assert is_abelian_by_cyclic(builtin("s3"))
    assert is_abelian_by_cyclic(builtin("a4"))
    assert is_abelian_by_cyclic(builtin("he3"))
    assert is_abelian_by_cyclic(cyclic(12))
    assert not is_abelian_by_cyclic(builtin("s4"))


def test_blackburn_catalog_membership():
    names = {name for name, _ in blackburn_catalog(128)}
    assert {"q16", "q32", "q64", "q128", "q8xc4", "q8xq8", "q8xc4xc2",
            "q8xq8xc2", "c7_q8", "c7_c9", "c5_c8", "q12"} <= names
    assert "s3" not in names
    assert "q8" not in names
    assert "f20" not in names  # R(F20) is trivial


def test_dedekind_groups_have_trivial_outc():
    for spec in ("q8", "q8xc2", "q8xc3", "c12", "e16"):
        assert outc_trivial(builtin(spec)).outc_trivial, spec


def test_coprime_instances_are_valid_actions():
    instances = coprime_action_instances()
    assert len(instances) == 50
    labels = [label for label, _, _, _ in instances]
    assert len(set(labels)) == 50
    for label, n_grp, h_grp, action in instances:
        assert action.acted is n_grp and action.actor is h_grp
        assert h_grp.is_abelian()


def test_extension_outc_is_nontrivial():
    """The order-3^7 extension has class-preserving maps beyond the 2187
    conjugations; the enumeration finds them and the witness checks out."""
    bundle = extend_witness(build_witness(3))
    ga = bundle.ga_group
    maps, rep = enumerate_autc(ga)
    assert not rep.outc_trivial
    assert rep.inn_order == 243
    assert rep.autc_order == 729
    assert rep.witness is not None
    assert any(m == bundle.sigma for m in maps)
    assert rep.autc_order % rep.inn_order == 0


def test_action_validation_rejects_non_homomorphism():
    c3, c4 = cyclic(3), cyclic(4)
    ident = np.arange(4, dtype=np.int32)
    shift = np.asarray([1, 2, 3, 0], dtype=np.int32)  # not an automorphism
    with pytest.raises(BadParams):
        Action(c3, c4, [ident, shift, shift])
    inv = c4.inverses.astype(np.int32)
    with pytest.raises(BadParams):
        # inversion has order 2, so assigning it to a generator of C3 is not
        # a homomorphism
        Action(c3, c4, [ident, inv, ident])
