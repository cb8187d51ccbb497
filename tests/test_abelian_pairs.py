"""Pointwise-power harness: abelian scopes, Jordan shortcut, contrast case."""

from unittest import mock

import numpy as np
import pytest

from blackburn import abelian_pairs, suites
from blackburn._arith import cycle_lengths, is_p_power, p_power_mask, perm_power
from blackburn.abelian_pairs import (
    EXHAUSTIVE_AUT_CAP,
    _conjugacy,
    _cycle_limit,
    _exhaustive_classes,
    _jordan_alphas,
    _pairs_for_alphas,
    _route,
    _row_keys,
    abelian_aut_order,
    abelian_automorphisms,
    abelian_group,
    abelian_scope,
    gl_order,
    is_elementary,
    jordan_representatives,
    matrix_to_perm,
    nonabelian_contrast,
    pointwise_power_harness,
)
from blackburn.autos import _aut_images, _automorphism_rows, enumerate_aut
from blackburn.core import GroupMap
from blackburn.errors import CounterexampleFound, OrderCap

# the scopes of the full pointwise-power suite and of the benchmark
SCOPES = [(2, 32), (3, 81), (5, 125)]


def exhaustive_groups(scopes=SCOPES):
    """(p, factors) of every group in scope small enough to enumerate Aut."""
    return [(p, factors) for p, cap in scopes for factors in abelian_scope(p, cap)
            if not is_elementary(factors) or gl_order(p, len(factors)) <= EXHAUSTIVE_AUT_CAP]


def exponents(p, factors):
    return [round(np.log(f) / np.log(p)) for f in factors]


def basis_keys(auts, basis, n):
    """The key sum img[b_i] n^i of each row."""
    return auts[:, basis].astype(np.int64) @ n ** np.arange(len(basis), dtype=np.int64)


def test_abelian_group_basis():
    g, basis = abelian_group([4, 2])
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


def test_abelian_aut_order_matches_the_enumeration():
    """The Hillar-Rhea closed form against the generic image search on every
    group in scope that can be enumerated, and its values on the groups over
    the cap."""
    for p, factors in exhaustive_groups():
        group = abelian_group(factors)[0]
        assert abelian_aut_order(p, exponents(p, factors)) == len(_aut_images(group))
    for exps, size in (((2, 1, 1, 1, 1), 10321920), ((3, 1, 1, 1), 43008), ((2, 2, 2), 86016),
                       ((2, 2, 1, 1), 147456), ((), 1)):
        assert abelian_aut_order(2, exps) == size
    assert abelian_aut_order(3, [1, 1, 2]) == abelian_aut_order(3, [2, 1, 1]) == 23328


@pytest.mark.parametrize("p,factors", exhaustive_groups(),
                         ids=lambda x: "x".join(map(str, x)) if isinstance(x, list) else str(x))
def test_abelian_automorphisms_match_the_generic_search(p, factors):
    """The basis-image builder gives the rows of the generator-image search,
    each an automorphism, once each and in ascending key order."""
    group, basis = abelian_group(factors)
    auts = abelian_automorphisms(group, basis)
    ref = _aut_images(group)
    assert auts.dtype == np.int32 and auts.shape == ref.shape
    keys = basis_keys(auts, basis, group.order)
    assert (np.diff(keys) > 0).all()
    assert np.array_equal(auts, ref[np.argsort(basis_keys(ref, basis, group.order))])
    assert _automorphism_rows(group, auts).all()


def test_over_cap_groups_are_refused_before_they_are_built():
    """A group whose Aut is over the cap takes the Jordan route when it is
    elementary abelian; otherwise the harness raises OrderCap before it
    builds the group or its automorphisms."""
    assert _route(2, [2, 2], 6) == "exhaustive"
    assert _route(2, [2, 2], 5) == "jordan"
    assert _route(2, [4, 2], 8) == "exhaustive"
    with pytest.raises(OrderCap, match=r"\[4, 2\] is 8, over the exhaustive cap 7"):
        _route(2, [4, 2], 7)
    built = []
    group_of = abelian_pairs.abelian_group

    def counting_group(factors):
        built.append(list(factors))
        return group_of(factors)

    with mock.patch.object(abelian_pairs, "EXHAUSTIVE_AUT_CAP", 7), \
            mock.patch.object(abelian_pairs, "abelian_group", counting_group):
        with pytest.raises(OrderCap, match=r"\[4, 2\] is 8"):
            pointwise_power_harness(2, 8)
    # C2 x C2 (|Aut| = 6) and C8 (4) come before C4 x C2 (8) in the scope
    assert built == [[2], [4], [2, 2], [8]]


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
    group, basis = abelian_group([p] * r)
    auts = _aut_images(group)
    auts = auts[np.argsort(basis_keys(auts, basis, group.order))]  # the order _conjugacy reads
    if len(auts) != gl_order(p, r):
        raise CounterexampleFound("automorphism enumeration does not match GL order")
    unipotent = p_power_mask(cycle_lengths(auts, basis, group.order), p, group.order).all(axis=1)
    conjugates = _conjugacy(auts, basis, *_row_keys(auts, basis))
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


def old_exhaustive_classes(group, basis, p):
    """The oracle of `_exhaustive_classes`: the class route that conjugates
    every generator u^k of <u> by all of Aut(G), giving (u, class size,
    class candidate total) per class."""
    auts = abelian_automorphisms(group, basis)
    lengths = cycle_lengths(auts, basis, _cycle_limit(p, group.order))
    products = lengths.prod(axis=1)
    covered = ~p_power_mask(lengths, p, group.order).all(axis=1)
    conjugates = _conjugacy(auts, basis, *_row_keys(auts, basis))
    out = []
    while not covered.all():
        row = int(np.argmin(covered))
        gens = [k for k in range(1, int(lengths[row].max()) + 1) if k % p]
        members = conjugates(np.stack([perm_power(auts[row], k) for k in gens]))
        covered |= members
        out.append((auts[row].tolist(), int(members.sum()) // len(gens),
                    int(products[members].sum()) // len(gens)))
    return out


@pytest.mark.parametrize("p,factors", exhaustive_groups(),
                         ids=lambda x: "x".join(map(str, x)) if isinstance(x, list) else str(x))
def test_exhaustive_classes_match_the_conjugates_of_every_generator(p, factors):
    """Conjugating u alone and reading the powers of its conjugates gives the
    representatives, class sizes and candidate totals of conjugating every
    generator u^k of <u>."""
    group, basis = abelian_group(factors)
    reps, sizes, candidates = _exhaustive_classes(group, basis, p)
    got = [(u.tolist(), int(size), int(total)) for u, size, total in zip(reps, sizes, candidates)]
    assert got == old_exhaustive_classes(group, basis, p)


def test_small_scopes_have_no_counterexample():
    rep = pointwise_power_harness(2, 8)
    assert rep.ok and rep.total_pairs > 0
    rep = pointwise_power_harness(3, 27)
    assert rep.ok
    # every valid pair is counted at least once per cyclic <alpha>
    assert all(s.pairs >= 1 for s in rep.stats)


def test_counterexample_reaches_the_caller():
    """A failing pair is named in the returned report, which is then not
    ok, and in the suite's first failure: its group and the basis images
    of alpha and beta."""
    def invert(group, basis, alphas, p):
        # x -> -x for the first alpha, standing in for a beta outside <alpha>
        counts = np.ones(len(alphas), dtype=np.int64)
        return counts, counts, (0, group.inverses)

    with mock.patch.object(abelian_pairs, "_pairs_for_alphas", invert):
        rep = pointwise_power_harness(3, 9)
        suite = suites.pointwise_power(full=False)
    assert not rep.ok
    assert rep.counterexample == ("pointwise-power pair on [3] is not a global power: alpha "
                                  "sends the basis [1] to [1], beta to [2]")
    # the scan stops at the pair: C3 is the first group of the scope
    assert [s.factors for s in rep.stats] == [(3,)]
    assert not suite.ok and suite.first_failure == (
        "abelian 2-groups <= 8: pointwise-power pair on [2] is not a global power: alpha "
        "sends the basis [1] to [1], beta to [1]")


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
    """The harness without the conjugacy reduction: every <alpha> in turn,
    on the groups of the scope whose Aut can be enumerated.

    Returns (verdict, per-factor [factors, route, alphas, candidates, pairs]).
    """
    rows, ok = [], True
    for _, factors in exhaustive_groups([(p, max_order)]):
        group, basis = abelian_group(factors)
        alphas = np.stack(_unreduced_alphas(group, p))
        candidates, pairs, bad = _pairs_for_alphas(group, basis, alphas, p)
        ok &= bad is None
        rows.append([tuple(factors), "exhaustive", len(alphas), int(candidates.sum()),
                     int(pairs.sum())])
    return ok, rows


@pytest.mark.parametrize("p,max_order", [(2, 8), (3, 27), (5, 25), (5, 125)])
def test_class_weighted_counts_match_every_cyclic_subgroup(p, max_order):
    """One alpha per Aut-conjugacy class, weighted by the class size, gives
    the counts of checking every cyclic subgroup <alpha> one by one."""
    ok, rows = _unreduced_harness(p, max_order)
    rep = pointwise_power_harness(p, max_order)
    assert rep.ok == ok
    # every group of the scope is reported; those over the cap took the Jordan route
    assert len(rep.stats) == len(abelian_scope(p, max_order))
    assert [[s.factors, s.route, s.alphas, s.candidates, s.pairs]
            for s in rep.stats if s.route == "exhaustive"] == rows


def test_route_selection():
    assert gl_order(2, 5) > EXHAUSTIVE_AUT_CAP and is_elementary([2] * 5)
    assert gl_order(3, 4) > EXHAUSTIVE_AUT_CAP and is_elementary([3] * 4)
    assert gl_order(2, 4) <= EXHAUSTIVE_AUT_CAP
    assert gl_order(3, 3) <= EXHAUSTIVE_AUT_CAP
    for p, factors in ((2, [2] * 5), (3, [3] * 4), (5, [5] * 3)):
        assert _route(p, factors, EXHAUSTIVE_AUT_CAP) == "jordan"
    for p, factors in ((2, [2] * 4), (2, [4, 2, 2, 2]), (3, [9, 3, 3]), (5, [25, 5])):
        assert _route(p, factors, EXHAUSTIVE_AUT_CAP) == "exhaustive"


def test_contrast_case():
    c = nonabelian_contrast(3)
    assert c.order == 243
    assert c.commuting and c.p_power_orders and c.pointwise
    assert not c.is_power
    assert c.ok
