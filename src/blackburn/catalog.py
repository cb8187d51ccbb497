"""Named group constructors, products, and the pinned builtin catalog.

Constructors produce groups that are associative by construction, with the
identity at index 0 and structured element names.  Names never affect
semantics; they only make reports and serialized tables readable.  A
constructor given its order refuses one whose table would pass the limit
of `core.check_table_order` before it builds anything of that order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._arith import is_prime
from .core import Action, Group, check_table_order
from .errors import BadParams


def cyclic(n: int) -> Group:
    if n < 1:
        raise BadParams(f"cyclic order must be >= 1, got {n}")
    check_table_order(n)
    idx = np.arange(n, dtype=np.int32)
    table = (idx[:, None] + idx[None, :]) % n
    names = ["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    return Group(table, names)


def elementary_abelian(p: int, k: int) -> Group:
    if not is_prime(p):
        raise BadParams(f"p must be prime, got {p}")
    if k < 0:
        raise BadParams("k must be >= 0")
    n = p**k
    check_table_order(n)
    idx = np.arange(n, dtype=np.int64)
    digits = np.stack([(idx // p**i) % p for i in range(k)], axis=1) if k else np.zeros((1, 0))
    table = np.zeros((n, n), dtype=np.int64)
    for i in range(k):
        di = (idx // p**i) % p
        table += ((di[:, None] + di[None, :]) % p) * p**i
    names = ["v" + "".join(str(int(x)) for x in row) for row in digits] if k else ["e"]
    return Group(table.astype(np.int32), names)


def dihedral(n: int) -> Group:
    """Dihedral group of order n (n even, n >= 2)."""
    if n < 2 or n % 2 != 0:
        raise BadParams(f"dihedral order must be even and >= 2, got {n}")
    check_table_order(n)
    m = n // 2
    # index = rot + m*flip; (r,0)(s,0)=(r+s,0); flip inverts the rotation part
    idx = np.arange(n)
    rot, flip = idx % m, idx // m
    r2 = np.where(flip[:, None] == 0, rot[None, :], -rot[None, :]) + rot[:, None]
    table = (r2 % m) + m * ((flip[:, None] + flip[None, :]) % 2)
    names = [f"r{i}" if i > 1 else ("e" if i == 0 else "r") for i in range(m)]
    names += [f"sr{i}" if i > 1 else ("s" if i == 0 else "sr") for i in range(m)]
    return Group(table.astype(np.int32), names)


def q_group(a: Group, t: int) -> Group:
    """Extension <A, b> with [G:A] = 2, b of order 4, b*b = t, x^b = x^-1.

    A must be abelian and t an involution of A.  When A is not elementary
    abelian this is exactly the Q-group construction.
    """
    if not a.is_abelian():
        raise BadParams("q_group needs an abelian base")
    if t == 0 or a.mul(t, t) != 0:
        raise BadParams(f"element {t} is not an involution")
    n = a.order
    check_table_order(2 * n)
    ta, inv = a.table, a.inverses
    table = np.zeros((2 * n, 2 * n), dtype=np.int32)
    # index = x + n*eps encodes x * b^eps; b*y = y^-1*b and b*b = t
    xyinv = ta[np.ix_(np.arange(n), inv)]
    table[:n, :n] = ta                   # (x,0)(y,0) = (x*y, 0)
    table[:n, n:] = ta + n               # (x,0)(y,1) = (x*y, 1)
    table[n:, :n] = xyinv + n            # (x,1)(y,0) = (x*y^-1, 1)
    table[n:, n:] = ta[xyinv, t]         # (x,1)(y,1) = (x*y^-1*t, 0)
    names = None
    if a.names is not None:
        names = list(a.names) + [f"{nm}b" for nm in a.names]
    return Group(table, names)


def generalized_quaternion(order: int) -> Group:
    """Q_{2^m}: <a, b | a^(2^(m-1)) = 1, b^2 = a^(2^(m-2)), a^b = a^-1>."""
    m = order.bit_length() - 1
    if order < 8 or 2**m != order:
        raise BadParams(f"generalized quaternion order must be 2^m >= 8, got {order}")
    check_table_order(order)
    half = cyclic(order // 2)
    return q_group(half, order // 4)


def symmetric(n: int) -> Group:
    """Symmetric group on n <= 5 letters; product composes left-to-right."""
    if not 1 <= n <= 5:
        raise BadParams(f"symmetric is capped at n <= 5, got {n}")
    import itertools

    perms = np.asarray(sorted(itertools.permutations(range(n))), dtype=np.int64)
    # a permutation's base-n code grows with its place in sorted order
    weights = n ** np.arange(n - 1, -1, -1)
    codes = perms @ weights
    # (p*q)(x) = q(p(x)) for p = perms[i], q = perms[j]
    comp = perms[np.arange(len(perms))[None, :, None], perms[:, None, :]]
    table = np.searchsorted(codes, comp @ weights).astype(np.int32)
    names = ["".join(str(x) for x in p) for p in perms.tolist()]
    return Group(table, names)


def direct_product(g: Group, h: Group) -> Group:
    n, m = g.order, h.order
    check_table_order(n * m)
    # int32 tables throughout: every index is below n * m
    tg, th = g.table, h.table
    table = (tg[:, None, :, None] * m + th[None, :, None, :]).reshape(n * m, n * m)
    names = None
    if g.names is not None and h.names is not None:
        names = [f"({a},{b})" for a in g.names for b in h.names]
    return Group(table, names)


def semidirect_product(n_grp: Group, h_grp: Group, action: Action) -> Group:
    """Pairs (n, h) with (n1,h1)(n2,h2) = (n1 * act(h1)(n2), h1*h2).

    With this convention h n h^-1 = act(h)(n), i.e. conjugation by h from the
    left applies act(h).
    """
    if action.acted is not n_grp or action.actor is not h_grp:
        raise BadParams("action must act on N by elements of H")
    n, m = n_grp.order, h_grp.order
    check_table_order(n * m)
    tn, th = n_grp.table, h_grp.table
    # entry [n1, h1, n2, h2] is n1 * act(h1)(n2) * m + h1 h2, in int32 as
    # in direct_product.  The broadcast sum is written in one pass into a
    # C-ordered array, so the reshape is a view and not a second table.
    left = tn[:, action.maps]  # [n1, h1, n2]
    left *= m
    table = np.empty((n, m, n, m), dtype=np.int32)
    np.add(left[:, :, :, None], th[None, :, None, :], out=table)
    table = table.reshape(n * m, n * m)
    names = None
    if n_grp.names is not None and h_grp.names is not None:
        names = [f"({a},{b})" for a in n_grp.names for b in h_grp.names]
    return Group(table, names)


def power_action(actor: Group, acted: Group, exps) -> Action:
    """Action where each actor element raises every acted element to a power."""
    maps = []
    for h in range(actor.order):
        e = int(exps[h])
        maps.append(np.asarray([acted.power(x, e) for x in range(acted.order)], dtype=np.int32))
    return Action(actor, acted, maps)


def cyclic_by_cyclic(n: int, m: int, u: int) -> Group:
    """C_n x| C_m with the generator acting by x -> x^u (needs u^m = 1 mod n)."""
    check_table_order(n * m)
    base, top = cyclic(n), cyclic(m)
    exps = [pow(u % n, j, n) for j in range(m)]
    return semidirect_product(base, top, power_action(top, base, exps))


def quaternion_power_product(n: int, q_order: int, u_a: int, u_b: int) -> Group:
    """C_n x| Q with each quaternion element acting by a fixed power.

    u_a, u_b are the powers assigned to the two standard generators; the
    assignment must extend to a homomorphism into (Z/n)^* or the action
    check rejects it.
    """
    check_table_order(n * q_order)
    base = cyclic(n)
    q = generalized_quaternion(q_order)
    half = q_order // 2
    exps = []
    for x in range(q.order):
        c, eps = x % half, x // half
        exps.append(pow(u_a % n, c, n) * pow(u_b % n, eps, n) % n)
    return semidirect_product(base, q, power_action(q, base, exps))


def heisenberg3() -> Group:
    """The order-27 group of exponent 3: (C3 x C3) x| C3 by a transvection."""
    base = elementary_abelian(3, 2)
    top = cyclic(3)
    # generator sends (x, y) -> (x, x + y); coordinates are base-3 digits
    def shear(times: int) -> np.ndarray:
        out = np.empty(base.order, dtype=np.int32)
        for v in range(base.order):
            x, y = v % 3, v // 3
            out[v] = x + 3 * ((y + times * x) % 3)
        return out

    return semidirect_product(base, top, Action(top, base, [shear(j) for j in range(3)]))


def alternating4() -> Group:
    base = elementary_abelian(2, 2)
    top = cyclic(3)
    # rotate the three involutions 1 -> 2 -> 3 -> 1
    rot = np.asarray([0, 2, 3, 1], dtype=np.int32)
    maps = [np.arange(4, dtype=np.int32), rot, rot[rot]]
    return semidirect_product(base, top, Action(top, base, maps))


def modular16() -> Group:
    """The modular group of order 16: C8 x| C2 with x -> x^5."""
    return cyclic_by_cyclic(8, 2, 5)


def semidihedral16() -> Group:
    return cyclic_by_cyclic(8, 2, 3)


# -- builtin registry --------------------------------------------------------


def catalog_build(name: str, *params) -> Group:
    """Build a named constructor with its integer parameters."""
    builders: dict = {  # name -> (constructor, number of parameters)
        "cyclic": (cyclic, 1),
        "elementary_abelian": (elementary_abelian, 2),
        "dihedral": (dihedral, 1),
        "generalized_quaternion": (generalized_quaternion, 1),
        "symmetric": (symmetric, 1),
    }
    if name not in builders:
        raise BadParams(f"unknown constructor {name!r}")
    build, arity = builders[name]
    if len(params) != arity:
        raise BadParams(f"{name} takes {arity} parameter(s), got {len(params)}")
    return build(*params)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    order: int
    build: Callable[[], Group]
    family: str


def _product(*parts: Callable[[], Group]) -> Callable[[], Group]:
    def make() -> Group:
        out = parts[0]()
        for p in parts[1:]:
            out = direct_product(out, p())
        return out

    return make


def _entries() -> list:
    e: list = []

    def add(name, order, build, family):
        e.append(CatalogEntry(name, order, build, family))

    add("c1", 1, lambda: cyclic(1), "cyclic")
    add("c2", 2, lambda: cyclic(2), "cyclic")
    add("c3", 3, lambda: cyclic(3), "cyclic")
    add("c4", 4, lambda: cyclic(4), "cyclic")
    add("c6", 6, lambda: cyclic(6), "cyclic")
    add("c7", 7, lambda: cyclic(7), "cyclic")
    add("c8", 8, lambda: cyclic(8), "cyclic")
    add("c9", 9, lambda: cyclic(9), "cyclic")
    add("c12", 12, lambda: cyclic(12), "cyclic")
    add("c15", 15, lambda: cyclic(15), "cyclic")
    add("c16", 16, lambda: cyclic(16), "cyclic")
    add("v4", 4, lambda: elementary_abelian(2, 2), "abelian")
    add("e8", 8, lambda: elementary_abelian(2, 3), "abelian")
    add("e9", 9, lambda: elementary_abelian(3, 2), "abelian")
    add("e16", 16, lambda: elementary_abelian(2, 4), "abelian")
    add("c4xc2", 8, _product(lambda: cyclic(4), lambda: cyclic(2)), "abelian")
    add("c8xc2", 16, _product(lambda: cyclic(8), lambda: cyclic(2)), "abelian")
    add("c4xc4", 16, _product(lambda: cyclic(4), lambda: cyclic(4)), "abelian")
    add("c9xc3", 27, _product(lambda: cyclic(9), lambda: cyclic(3)), "abelian")
    add("d8", 8, lambda: dihedral(8), "dihedral")
    add("d10", 10, lambda: dihedral(10), "dihedral")
    add("d12", 12, lambda: dihedral(12), "dihedral")
    add("d16", 16, lambda: dihedral(16), "dihedral")
    add("d32", 32, lambda: dihedral(32), "dihedral")
    add("sd16", 16, semidihedral16, "index2")
    add("mod16", 16, modular16, "index2")
    add("q8", 8, lambda: generalized_quaternion(8), "quaternion")
    add("q16", 16, lambda: generalized_quaternion(16), "quaternion")
    add("q32", 32, lambda: generalized_quaternion(32), "quaternion")
    add("q64", 64, lambda: generalized_quaternion(64), "quaternion")
    add("q128", 128, lambda: generalized_quaternion(128), "quaternion")
    add("s3", 6, lambda: symmetric(3), "symmetric")
    add("s4", 24, lambda: symmetric(4), "symmetric")
    add("s5", 120, lambda: symmetric(5), "symmetric")
    add("a4", 12, alternating4, "abelian_by_cyclic")
    add("he3", 27, heisenberg3, "abelian_by_cyclic")
    add("m27", 27, lambda: cyclic_by_cyclic(9, 3, 4), "abelian_by_cyclic")
    add("f20", 20, lambda: cyclic_by_cyclic(5, 4, 2), "abelian_by_cyclic")
    add("c7_c3", 21, lambda: cyclic_by_cyclic(7, 3, 2), "abelian_by_cyclic")
    add("c7_c9", 63, lambda: cyclic_by_cyclic(7, 9, 2), "abelian_by_cyclic")
    add("c5_c8", 40, lambda: cyclic_by_cyclic(5, 8, 4), "abelian_by_cyclic")
    add("c3_c8", 24, lambda: cyclic_by_cyclic(3, 8, 2), "abelian_by_cyclic")
    add("q12", 12, lambda: cyclic_by_cyclic(3, 4, 2), "abelian_by_cyclic")
    add("q8xc2", 16, _product(lambda: generalized_quaternion(8), lambda: cyclic(2)), "dedekind")
    add("q8xc3", 24, _product(lambda: generalized_quaternion(8), lambda: cyclic(3)), "dedekind")
    add("q8xc4", 32, _product(lambda: generalized_quaternion(8), lambda: cyclic(4)), "product2")
    add("q8xc4xc2", 64,
        _product(lambda: generalized_quaternion(8), lambda: cyclic(4), lambda: cyclic(2)),
        "product2")
    add("q8xq8", 64,
        _product(lambda: generalized_quaternion(8), lambda: generalized_quaternion(8)),
        "product2")
    add("q8xq8xc2", 128,
        _product(lambda: generalized_quaternion(8), lambda: generalized_quaternion(8),
                 lambda: cyclic(2)),
        "product2")
    add("c7_q8", 56, lambda: quaternion_power_product(7, 8, 1, -1), "power_action")
    add("c3_q8", 24, lambda: quaternion_power_product(3, 8, 1, -1), "power_action")
    add("c5_q8", 40, lambda: quaternion_power_product(5, 8, -1, 1), "power_action")
    add("c7_q16", 112, lambda: quaternion_power_product(7, 16, -1, 1), "power_action")
    return e


CATALOG: tuple = tuple(sorted(_entries(), key=lambda x: (x.order, x.name)))
CATALOG_VERSION = 1
_BY_NAME = {entry.name: entry for entry in CATALOG}

_CALL_RE = re.compile(r"^([a-z_]+)\(((?:\s*[0-9]+\s*,)*\s*[0-9]*\s*)\)$")


def builtin(spec: str) -> Group:
    """Resolve a builtin spec: a catalog name or constructor call like cyclic(12)."""
    s = spec.strip().lower()
    if s in _BY_NAME:
        return _BY_NAME[s].build()
    m = _CALL_RE.match(s)
    if m:
        name = m.group(1)
        params = [int(x) for x in m.group(2).split(",") if x.strip()]
        return catalog_build(name, *params)
    raise BadParams(f"unknown builtin group {spec!r}")
