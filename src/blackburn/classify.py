"""Structural classifiers: Dedekind groups, Q-groups, R(G), Blackburn groups.

R(G) is the intersection of all non-normal subgroups; it is "defined" when a
non-normal subgroup exists.  A group is a Blackburn group when R(G) is
defined and nontrivial; for finite groups R(G) is then a cyclic p-group.

Every subgroup is generated by cyclic subgroups and a join of normal
subgroups is normal, so each non-normal subgroup contains a non-normal
cyclic subgroup.  Hence R(G) equals the intersection of the non-normal
cyclic subgroups, which is what `r_of` computes from
`Group.normal_cyclics`; the full-lattice variant is kept as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional

import numpy as np

from ._arith import is_p_power, is_prime, p_power_mask, prime_divisors
from .catalog import cyclic, direct_product, elementary_abelian, generalized_quaternion
from .core import Group, Subgroup, _mask_members, _orders_nilpotent
from .errors import (
    NoFormMatched,
    NotBlackburn2Group,
    OrderCap,
    PreconditionFailed,
    TrichotomyViolated,
)

UNDEFINED = "undefined"
TRIVIAL = "trivial"
NONTRIVIAL = "nontrivial"
# Largest order at which the shape of a Blackburn 2-group is matched.
FORM_ORDER_CAP = 256


@dataclass(frozen=True)
class RStatus:
    """Status of R(G): undefined (Dedekind), trivial, or a nontrivial subgroup."""

    tag: str
    subgroup: Optional[Subgroup]

    @property
    def order(self) -> int:
        return self.subgroup.order if self.subgroup is not None else 0


def is_dedekind(g: Group) -> bool:
    """True when every subgroup is normal; cyclic subgroups suffice."""
    return bool(g.normal_cyclics().all())


def r_of(g: Group) -> RStatus:
    """R(G) via non-normal cyclic subgroups: the elements lying in <x> for
    every x whose <x> is not normal.  Repeating a subgroup does not change
    an intersection, so each such x contributes its own <x>."""
    orders, block = g._power_block()
    xs = np.flatnonzero(~g.normal_cyclics())
    # column x of the block lists the members of <x> in its first |x| rows
    inside = np.arange(1, block.shape[0] + 1)[:, None] <= orders[xs]
    return _intersect_status(g, block[:, xs][inside], xs.size)


def r_of_lattice(g: Group) -> RStatus:
    """R(G) via the full subgroup lattice; oracle for r_of."""
    non_normal = [s.members for s in g.all_subgroups() if not s.is_normal()]
    members = np.concatenate([np.zeros(0, dtype=np.int32), *non_normal])
    return _intersect_status(g, members, len(non_normal))


def _intersect_status(g: Group, members: np.ndarray, count: int) -> RStatus:
    """R(G) from the concatenated members of `count` non-normal subgroups."""
    if not count:
        return RStatus(UNDEFINED, None)
    # members are distinct within a subgroup, so an element lies in every
    # non-normal subgroup exactly when it is counted once per subgroup
    hits = np.bincount(members, minlength=g.order)
    sub = Subgroup._trusted(g, _mask_members(hits == count))
    return RStatus(TRIVIAL if sub.order == 1 else NONTRIVIAL, sub)


def is_blackburn(g: Group) -> bool:
    """True when R(G) is defined and nontrivial; R(G) is then a cyclic p-group."""
    return _blackburn_r(g) is not None


def _blackburn_r(g: Group) -> Optional[Subgroup]:
    """R(G) when G is a Blackburn group, else None."""
    status = r_of(g)
    if status.tag != NONTRIVIAL:
        return None
    r = status.subgroup
    k = r.order
    if not any(g.order_of(x) == k for x in r.members.tolist()):
        raise TrichotomyViolated("R(G) is nontrivial but not cyclic")
    if len(prime_divisors(k)) != 1:
        raise TrichotomyViolated("R(G) is nontrivial but not of prime-power order")
    return r


def blackburn_prime(g: Group) -> int:
    """The prime p for which R(G) is a cyclic p-group."""
    status = r_of(g)
    if status.tag != NONTRIVIAL:
        raise PreconditionFailed("R(G) is not nontrivial")
    return prime_divisors(status.subgroup.order)[0]


# -- Q-groups -----------------------------------------------------------------


@dataclass(frozen=True)
class QGroupWitness:
    a: Subgroup
    b: int


def index2_subgroups(g: Group) -> list:
    """All index-2 subgroups, via the quotient by squares and commutators."""
    m = g.subgroup(np.concatenate([np.diagonal(g.table), g.commutator_subgroup().members]))
    if g.order // m.order == 1:
        return []
    q, proj = g.quotient(m)
    # q is elementary abelian; its index-2 subgroups are the kernels of the
    # nonzero functionals c on the coordinates over the greedy basis b_i.
    # Doubling the list over the basis puts the element sum c_i b_i at c.
    basis = q.generating_sequence()
    elems = np.zeros(1, dtype=np.intp)
    for b in basis:
        elems = np.concatenate([elems, q.table[elems, b]])
    bits = ((np.arange(q.order)[:, None] >> np.arange(len(basis))) & 1).astype(np.uint8)
    kernels = (bits[1:] @ bits.T) & 1 == 0  # row c - 1: the positions in ker c
    at = np.argsort(elems)[proj.images]  # the position of each element's coset
    return [Subgroup._trusted(g, _mask_members(k[at])) for k in kernels]


def q_group_witness(g: Group) -> Optional[QGroupWitness]:
    """A pair (A, b): abelian non-elementary-abelian index-2 subgroup A and an
    order-4 element b inverting A pointwise, if one exists."""
    t, inv = g.table, g.inverses
    orders = g.element_orders()
    for a in index2_subgroups(g):
        if not _sub_abelian(g, a):
            continue
        if all(orders[x] <= 2 for x in a.members.tolist()):
            continue  # elementary abelian base is excluded
        outside = np.setdiff1d(np.arange(g.order), a.members)
        for b in outside.tolist():
            if orders[b] != 4:
                continue
            conj = t[inv[b], t[a.members, b]]
            if np.array_equal(conj, inv[a.members]):
                return QGroupWitness(a, int(b))
    return None


def is_q_group(g: Group) -> bool:
    return q_group_witness(g) is not None


Q_GROUP = "q_group"
Q8_C4_E2 = "q8_c4_e2"
Q8_Q8_E2 = "q8_q8_e2"


def blackburn_2group_form(g: Group) -> str:
    """Which of the three shapes a Blackburn 2-group has.

    Every Blackburn 2-group is a Q-group, Q8 x C4 x E2, or Q8 x Q8 x E2
    (the elementary abelian factor may be trivial).
    """
    if g.order > FORM_ORDER_CAP:
        raise OrderCap(f"form matching capped at order {FORM_ORDER_CAP}")
    if prime_divisors(g.order) != [2]:
        raise NotBlackburn2Group("not a 2-group")
    if not is_blackburn(g):
        raise NotBlackburn2Group("not a Blackburn group")
    if is_q_group(g):
        return Q_GROUP
    from .autos import find_isomorphism  # local import avoids a cycle

    for base, label in ((32, Q8_C4_E2), (64, Q8_Q8_E2)):
        if g.order % base != 0:
            continue
        k = (g.order // base).bit_length() - 1
        if 2**k * base != g.order:
            continue
        shape = generalized_quaternion(8)
        shape = direct_product(shape, cyclic(4) if base == 32 else generalized_quaternion(8))
        if k:
            shape = direct_product(shape, elementary_abelian(2, k))
        if find_isomorphism(g, shape) is not None:
            return label
    raise NoFormMatched(f"order {g.order} matches no Blackburn 2-group shape")


# -- structure of q-elements for q != p ---------------------------------------


@dataclass(frozen=True)
class QElementsReport:
    q: int
    members: tuple
    is_subgroup: bool
    is_q_group_order: bool
    is_normal: bool
    all_subgroups_normal: bool
    abelian_when_odd: bool
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_q_element_structure(g: Group, q: int) -> QElementsReport:
    """Check that the q-elements form a normal q-subgroup all of whose
    subgroups are normal in G (and abelian for odd q), for q != p."""
    status = r_of(g)
    if status.tag != NONTRIVIAL:
        raise PreconditionFailed("group has no non-normal subgroup with nontrivial R(G)")
    p = prime_divisors(status.order)[0]
    if q == p or not is_prime(q):
        raise PreconditionFailed(f"q must be a prime different from {p}")
    in_tq = p_power_mask(g._power_block()[0], q, g.order)
    m = np.flatnonzero(in_tq)
    violations = []
    closed = bool(in_tq[g.table[np.ix_(m, m)]].all())
    if not closed:
        violations.append("q-elements are not closed under products")
    sub = Subgroup(g, m)
    q_order = is_p_power(sub.order, q)
    if not q_order:
        violations.append("q-elements do not form a q-group")
    normal = sub.is_normal() if closed else False
    if closed and not normal:
        violations.append("the q-subgroup is not normal")
    all_normal = not closed or bool(g.normal_cyclics()[m].all())
    if not all_normal:
        violations.append("a subgroup of the q-part is not normal in G")
    abelian_odd = True
    if q != 2 and closed:
        abelian_odd = _sub_abelian(g, sub)
        if not abelian_odd:
            violations.append("odd q-part is not abelian")
    return QElementsReport(
        q=q,
        members=tuple(m.tolist()),
        is_subgroup=closed,
        is_q_group_order=bool(q_order),
        is_normal=bool(normal),
        all_subgroups_normal=all_normal,
        abelian_when_odd=abelian_odd,
        violations=tuple(violations),
    )


# -- trichotomy for finite normal subgroups ------------------------------------


@dataclass(frozen=True)
class CaseCData:
    x: int
    t_members: tuple


@dataclass(frozen=True)
class TrichotomyVerdict:
    p: int
    p_complement: tuple
    dedekind_complement: bool
    case: str
    case_c: Optional[CaseCData]


def verify_normal_subgroup_trichotomy(g: Group, n_sub: Subgroup) -> TrichotomyVerdict:
    """Classify a finite normal subgroup N of a Blackburn group G.

    N always has a normal p-complement H that is Dedekind with every subgroup
    normal in G.  Then exactly one of: (a) N nilpotent; (b) Z(S) <= O_p(N)
    for a Sylow p-subgroup S of N; (c) S abelian with S = <x> x T, [x,H] != 1,
    T <= O_p(N), |C_<x>(H)| = exponent of O_p(N), and anything centralizing
    C_<x>(H) centralizes T.
    """
    return _trichotomy(g, _blackburn_r(g), n_sub)


def _trichotomy(g: Group, r: Optional[Subgroup], n_sub: Subgroup) -> TrichotomyVerdict:
    """verify_normal_subgroup_trichotomy with R(G) given (None when G is not
    a Blackburn group), so a caller checking many N computes it once.

    N, H, S and O_p(N) are member arrays of G; N is never built as a group
    of its own.  An element has the same order in N as in G, so H is the
    set of p'-order members of N, and N is nilpotent when the counting test
    of `Group.is_nilpotent` holds on their orders.  Two standard facts give
    the rest from G:
    - for a Sylow p-subgroup P of G, S = P ∩ N is a Sylow p-subgroup of N,
      since N is normal in G;
    - O_p(N) = O_p(G) ∩ N: O_p(N) is characteristic in N, so it is a normal
      p-subgroup of G and lies in O_p(G), while O_p(G) ∩ N is a normal
      p-subgroup of N.
    """
    if r is None:
        raise PreconditionFailed("G is not a Blackburn group")
    if not n_sub.is_normal():
        raise PreconditionFailed("N is not normal in G")
    p = prime_divisors(r.order)[0]
    t, n = g.table, n_sub.members
    n_orders = g._power_block()[0][n]
    h = n[n_orders % p != 0]
    in_h = np.zeros(g.order, dtype=bool)
    in_h[h] = True
    if not in_h[t[np.ix_(h, h)]].all():
        raise TrichotomyViolated("N has no normal p-complement")
    # every subgroup of H is normal in G when its cyclic subgroups are, and
    # then every subgroup of H is normal in H too: H is Dedekind
    dedekind = bool(g.normal_cyclics()[h].all())
    if not dedekind:
        raise TrichotomyViolated("p-complement is not Dedekind with all subgroups normal in G")

    case_c = None
    if _orders_nilpotent(n_orders):
        case = "a"
    else:
        s = np.intersect1d(g.sylow(p).members, n)
        op = np.intersect1d(g.o_p(p).members, n)
        ts = t[np.ix_(s, s)]
        zs = s[(ts == ts.T).all(axis=1)]  # Z(S)
        if np.isin(zs, op).all():
            case = "b"
        else:
            case = "c"
            case_c = _case_c_data(g, h, s, zs, op)
    return TrichotomyVerdict(
        p=p,
        p_complement=tuple(h.tolist()),
        dedekind_complement=dedekind,
        case=case,
        case_c=case_c,
    )


def _case_c_data(g: Group, h, s, zs, op) -> CaseCData:
    """Case c for N with p-complement H, Sylow p-subgroup S, its center
    Z(S) and O_p(N), all member arrays of G: the first x of S, by
    descending order then index, with S = <x> x T for some T <= O_p(N).
    The checks on x and T raise TrichotomyViolated when they fail.

    T must lie in O_p(N), so O_p(N) is the one group built here, and T runs
    over its subgroups: the same candidates, in the same order, as the
    subgroups of S that lie in O_p(N).  S is abelian, so <x> ∩ T = 1 and
    |<x>| |T| = |S| already give <x>T = S.
    """
    if zs.size != s.size:
        raise TrichotomyViolated("case c reached but the Sylow p-subgroup is not abelian")
    t = g.table
    orders, block = g._power_block()
    op_grp, _ = Subgroup(g, op).as_group()
    for x in s[np.lexsort((s, -orders[s]))].tolist():
        if np.array_equal(t[x, h], t[h, x]):
            # [x, H] must be nontrivial.  This skip only saves work: such an
            # x lies in C_S(H) = O_p(N), and no T <= O_p(N) completes it to S
            continue
        x_cyc = np.sort(block[: orders[x], x])  # column x lists <x>
        t_mem = next((m for m in (op[c.members] for c in op_grp.all_subgroups())
                      if m.size * x_cyc.size == s.size
                      and np.intersect1d(m, x_cyc, assume_unique=True).size == 1), None)
        if t_mem is not None:
            break
    else:
        raise TrichotomyViolated("case c reached but no direct decomposition found")
    # C_<x>(H): the part of <x> centralizing the p-complement
    cx = x_cyc[(t[np.ix_(x_cyc, h)] == t[np.ix_(h, x_cyc)].T).all(axis=1)]
    # |C_<x>(H)| must be the exponent of O_p(N), and every element
    # centralizing C_<x>(H) must centralize T
    cent_cx = (t[:, cx] == t[cx, :].T).all(axis=1)
    cent_t = (t[:, t_mem] == t[t_mem, :].T).all(axis=1)
    if cx.size != lcm(*orders[op].tolist()) or (cent_cx & ~cent_t).any():
        raise TrichotomyViolated("case c sub-assertions failed")
    return CaseCData(x=x, t_members=tuple(t_mem.tolist()))


def _sub_abelian(parent: Group, sub: Subgroup) -> bool:
    t = parent.table[np.ix_(sub.members, sub.members)]
    return bool(np.array_equal(t, t.T))
