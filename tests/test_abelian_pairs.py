"""Pointwise-power harness: abelian scopes, Jordan shortcut, contrast case."""

from unittest import mock

import numpy as np
import pytest

from blackburn import abelian_pairs
from blackburn._arith import cycle_lengths, is_p_power, p_power_mask
from blackburn.abelian_pairs import (
    EXHAUSTIVE_AUT_CAP,
    PairStats,
    _conjugacy,
    _jordan_alphas,
    _pairs_for_alpha,
    abelian_group,
    abelian_scope,
    gl_order,
    is_elementary,
    jordan_representatives,
    matrix_to_perm,
    nonabelian_contrast,
    pointwise_power_harness,
)
from blackburn.autos import _aut_images, enumerate_aut
from blackburn.core import GroupMap
from blackburn.errors import CounterexampleFound


def test_abelian_group_basis():
    g, basis, digits = abelian_group([4, 2])
    assert g.order == 8
    assert [g.order_of(b) for b in basis] == [4, 2]
    assert g.is_abelian()


def test_abelian_scope_counts():
    # one group per partition of the exponent sum
    assert len(abelian_scope(2, 8)) == 1 + 2 + 3
    assert len(abelian_scope(3, 81)) == 1 + 2 + 3 + 5
    assert [9, 3] in abelian_scope(3, 27)


def test_gl_order():
    assert gl_order(2, 4) == 20160
    assert gl_order(2, 5) == 9999360
    assert gl_order(3, 3) == 11232


def test_is_elementary():
    assert is_elementary([2, 2, 2])
    assert not is_elementary([4, 2])
    assert not is_elementary([9, 9])


def test_jordan_representatives_shape():
    reps = jordan_representatives(2, 5)
    assert len(reps) == 7  # partitions of 5
    for part, mat in reps:
        assert sum(part) == 5
        assert np.array_equal(np.diag(mat), np.ones(5, dtype=np.int64))


def test_jordan_rep_orders_are_p_powers():
    for p, r in ((2, 5), (3, 4)):
        for _, mat in jordan_representatives(p, r):
            perm = matrix_to_perm(mat, p, r)
            order = 1
            cur = perm
            ident = np.arange(p**r)
            while not np.array_equal(cur, ident):
                cur = perm[cur]
                order += 1
            k = order
            while k % p == 0:
                k //= p
            assert k == 1


def unipotent_class_cover(p: int, r: int) -> tuple:
    """Cross-check by full enumeration that the Jordan representatives hit
    every p-power-order automorphism class of F_p^r exactly once.

    Returns (number of classes, p-power-order element count); raises
    CounterexampleFound on any gap.  Feasible only while GL(r, p) is small.
    """
    group, basis, _ = abelian_group([p] * r)
    auts = _aut_images(group)
    if len(auts) != gl_order(p, r):
        raise CounterexampleFound("automorphism enumeration does not match GL order")
    unipotent = p_power_mask(cycle_lengths(auts, basis), p, group.order).all(axis=1)
    conjugates = _conjugacy(auts, basis)
    covered = np.zeros(len(auts), dtype=bool)
    classes = 0
    for rep in _jordan_alphas(p, r):
        members = conjugates(rep[None])
        if (members & covered).any():
            raise CounterexampleFound("two Jordan representatives are conjugate")
        covered |= members
        classes += 1
    if not np.array_equal(covered, unipotent):
        raise CounterexampleFound("Jordan classes do not cover the unipotent elements")
    return classes, int(unipotent.sum())


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_unipotent_jordan_cover(p, r):
    """Full enumeration confirms the Jordan classes partition the p-power-
    order automorphisms; this is the oracle behind the large-GL shortcut."""
    classes, count = unipotent_class_cover(p, r)
    assert classes == len(jordan_representatives(p, r))
    assert count == p ** (r * (r - 1))


def test_small_scopes_have_no_counterexample():
    rep = pointwise_power_harness(2, 8)
    assert rep.ok and rep.total_pairs > 0
    rep = pointwise_power_harness(3, 27)
    assert rep.ok
    # every valid pair is counted at least once per cyclic <alpha>
    assert all(s.pairs >= 1 for s in rep.stats)


def test_counterexample_reaches_the_caller():
    """A failing pair is named in the error: its group and the basis images
    of alpha and beta."""
    def invert(group, basis, digits, alpha, p, stats):
        return group.inverses  # x -> -x, standing in for a beta outside <alpha>

    with mock.patch.object(abelian_pairs, "_pairs_for_alpha", invert):
        with pytest.raises(CounterexampleFound) as err:
            pointwise_power_harness(3, 9)
    assert str(err.value) == ("pointwise-power pair on [3] is not a global power: alpha "
                              "sends the basis [1] to [1], beta to [2]")


def test_harness_builds_no_group_maps():
    """Aut(G) reaches the harness as one block of images, never as maps,
    whether built one at a time or as the rows of a block."""
    built = []
    init, rows = GroupMap.__init__, GroupMap._rows.__func__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_rows(cls, *args, **kwargs):
        maps = rows(cls, *args, **kwargs)
        built.extend([1] * len(maps))
        return maps

    with mock.patch.object(GroupMap, "__init__", counting_init), \
            mock.patch.object(GroupMap, "_rows", classmethod(counting_rows)):
        assert pointwise_power_harness(3, 27).ok
        assert not built
        enumerate_aut(abelian_group([3])[0])  # the counter does see maps
    assert len(built) == 2


def _unreduced_alphas(group, p):
    """One generator per cyclic p-power-order subgroup <alpha> of Aut(G)."""
    out, seen = [], set()
    for m in enumerate_aut(group):
        if not is_p_power(m.map_order(), p):
            continue
        img = m.images.astype(np.int64)
        powers = [np.arange(group.order, dtype=np.int64)]
        cur = img
        while not np.array_equal(cur, powers[0]):
            powers.append(cur)
            cur = img[cur]
        key = frozenset(pw.tobytes() for pw in powers)
        if key not in seen:
            seen.add(key)
            out.append(img)
    return out


def _unreduced_harness(p, max_order):
    """The harness without the conjugacy reduction: every <alpha> in turn.

    Returns (verdict, per-factor [factors, route, alphas, candidates, pairs]).
    """
    rows, ok = [], True
    for factors in abelian_scope(p, max_order):
        assert not is_elementary(factors) or gl_order(p, len(factors)) <= EXHAUSTIVE_AUT_CAP
        group, basis, digits = abelian_group(factors)
        stats = PairStats(factors=tuple(factors), route="exhaustive")
        for alpha in _unreduced_alphas(group, p):
            ok &= _pairs_for_alpha(group, basis, digits, alpha, p, stats) is None
        rows.append([stats.factors, stats.route, stats.alphas, stats.candidates, stats.pairs])
    return ok, rows


@pytest.mark.parametrize("p,max_order", [(2, 8), (3, 27), (5, 25)])
def test_class_weighted_counts_match_every_cyclic_subgroup(p, max_order):
    """One alpha per Aut-conjugacy class, weighted by the class size, gives
    the counts of checking every cyclic subgroup <alpha> one by one."""
    ok, rows = _unreduced_harness(p, max_order)
    rep = pointwise_power_harness(p, max_order)
    assert rep.ok == ok
    assert [[s.factors, s.route, s.alphas, s.candidates, s.pairs] for s in rep.stats] == rows


def test_route_selection():
    assert gl_order(2, 5) > EXHAUSTIVE_AUT_CAP and is_elementary([2] * 5)
    assert gl_order(3, 4) > EXHAUSTIVE_AUT_CAP and is_elementary([3] * 4)
    assert gl_order(2, 4) <= EXHAUSTIVE_AUT_CAP
    assert gl_order(3, 3) <= EXHAUSTIVE_AUT_CAP


def test_contrast_case():
    c = nonabelian_contrast(3)
    assert c.order == 243
    assert c.commuting and c.p_power_orders and c.pointwise
    assert not c.is_power
    assert c.ok
