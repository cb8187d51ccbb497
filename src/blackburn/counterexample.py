"""A family of p-groups with a non-inner class-preserving automorphism.

For an odd prime p, a twisting matrix of order p acting on the abelian group
A = C_{p^2} x C_p^{p-2} yields K = A x| <k> and G = K x <h> of order p^{p+2},
carrying commuting automorphisms alpha (order p^2) and beta (order p) such
that beta agrees pointwise with powers of alpha but is not itself a power of
alpha.  Extending G by alpha gives a group of order p^{p+4} on which the map
fixing the new generator and acting as beta on G is a class-preserving,
non-inner automorphism.

For p = 3, A, K and G are multiplication tables (orders 27, 81, 243), and
sigma is verified on GA (order 2187) in coordinates, from G's table
(`SplitExtension`).  `extend_witness` builds GA's table as well; the tests
read it as the oracle of the coordinate route.  For p = 5 the group of
order 5^7 is kept in coordinate form with formula-based multiplication, and
only the formula-level claims are verified; conjugacy-class computations at
that size are out of reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import List, Optional

import numpy as np

from ._arith import orbit_labels, perm_power, perm_powers, power_agreement
from .autos import _inner_mask, locally_power, power_of
from .catalog import cyclic, direct_product, semidirect_product
from .core import Action, Group, GroupMap
from .errors import ActionPropertyFailed, BadPrime, ClaimFailed

SUPPORTED_MATRIX_PRIMES = (3, 5, 7)
SUPPORTED_WITNESS_PRIMES = (3, 5)
TABLE_PRIME = 3


@dataclass(frozen=True)
class ModMatrix:
    """A square matrix over Z/modulus with unit determinant."""

    modulus: int
    entries: np.ndarray
    matrix_order: int  # multiplicative order as a matrix, informational

    @property
    def size(self) -> int:
        return int(self.entries.shape[0])


def action_matrix(p: int) -> ModMatrix:
    """The (p-1)x(p-1) twisting matrix over Z/p^2.

    First row (1, p, 0, ..., 0), ones on the diagonal and superdiagonal,
    and -1 in the lower-left corner.
    """
    if p not in SUPPORTED_MATRIX_PRIMES:
        raise BadPrime(f"p must be one of {SUPPORTED_MATRIX_PRIMES}, got {p}")
    m = p * p
    k = p - 1
    ent = np.zeros((k, k), dtype=np.int64)
    np.fill_diagonal(ent, 1)
    ent[0, 1] = p
    for i in range(1, k - 1):
        ent[i, i + 1] = 1
    ent[k - 1, 0] = m - 1
    det = int(round(np.linalg.det(ent.astype(float)))) % m
    if gcd(det, m) != 1:
        raise ActionPropertyFailed("matrix determinant is not a unit")
    order, acc = 1, ent % m
    ident = np.eye(k, dtype=np.int64)
    while not np.array_equal(acc, ident):
        acc = acc @ ent % m
        order += 1
        if order > m * m:
            raise ActionPropertyFailed("matrix order did not terminate")
    return ModMatrix(modulus=m, entries=ent % m, matrix_order=order)


class CoordSpace:
    """The abelian group Z/p^2 + p.Z/p^2 + ... + p.Z/p^2 in index form.

    Index digits are (c0, c1, ..., c_{p-2}) with c0 in [0, p^2) and the rest
    in [0, p); the element value vector is (c0, p*c1, ..., p*c_{p-2}).
    """

    def __init__(self, p: int):
        self.p = p
        self.mod = p * p
        self.k = p - 1
        self.size = self.mod * p ** (self.k - 1)
        idx = np.arange(self.size, dtype=np.int64)
        digits = [idx % self.mod]
        idx = idx // self.mod
        for _ in range(self.k - 1):
            digits.append(idx % p)
            idx = idx // p
        self.digits = np.stack(digits, axis=1)
        self.values = self.digits.copy()
        self.values[:, 1:] *= p

    def encode_values(self, vals: np.ndarray) -> np.ndarray:
        """Indices of value vectors; the tail entries must be multiples of p."""
        vals = vals % self.mod
        if (vals[:, 1:] % self.p).any():
            raise ActionPropertyFailed("matrix action left the subgroup lattice")
        out = vals[:, 0].copy()
        weight = self.mod
        for i in range(1, self.k):
            out += (vals[:, i] // self.p) * weight
            weight *= self.p
        return out

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.encode_values(self.values[a] + self.values[b])

    def scale(self, a: int, times: int) -> int:
        return int(self.encode_values((self.values[a][None, :] * times))[0])

    def matrix_perm(self, mat: ModMatrix) -> np.ndarray:
        return self.encode_values(self.values @ mat.entries)

    def group(self) -> Group:
        n = self.size
        a, b = np.divmod(np.arange(n * n, dtype=np.int64), n)
        names = ["a" + "_".join(str(int(v)) for v in row) for row in self.values]
        return Group(self.add(a, b).reshape(n, n), names)


@dataclass(frozen=True)
class BaseAbelian:
    """A = C_{p^2} x C_p^{p-2} with the verified matrix action."""

    p: int
    matrix: ModMatrix
    space: CoordSpace
    action: np.ndarray          # index permutation a -> a*kappa


def base_abelian(p: int) -> BaseAbelian:
    """Build A and verify the two action properties: the matrix acts as an
    automorphism of order p, and the sum of its first p powers kills A."""
    mat = action_matrix(p)
    space = CoordSpace(p)
    perm = space.matrix_perm(mat)
    order_p, annihilates = _action_properties(space, perm, p)
    if not order_p:
        raise ActionPropertyFailed("matrix does not act with order p")
    if not annihilates:
        raise ActionPropertyFailed("sum of matrix powers does not annihilate A")
    return BaseAbelian(p=p, matrix=mat, space=space, action=perm)


def _action_properties(space: CoordSpace, perm: np.ndarray, p: int) -> tuple:
    """Whether the action perm on A has order p, and whether the sum of its
    first p powers sends every element of A to 0."""
    pows = perm_powers(perm, p + 1)  # row i: perm^i
    order_p = np.array_equal(pows[p], pows[0]) and not np.array_equal(pows[1], pows[0])
    total = space.encode_values(space.values[pows[:p]].sum(axis=0))
    return order_p, bool((total == 0).all())


class CoordWitness:
    """Coordinate form of G: elements (a, i, j) = a * k^i * h^j.

    Multiplication uses k a k^-1 = a applied to the inverse matrix action,
    so that k^-1 a k = a*kappa.  alpha fixes A, sends k to x*k and h to z*h;
    beta fixes K and sends h to z*h.
    """

    def __init__(self, base: BaseAbelian):
        self.p = p = base.p
        self.base = base
        self.space = base.space
        self.na = self.space.size
        self.size = self.na * p * p
        self.f_pows = perm_powers(base.action, p)  # row i: f^i
        self.x = 1  # coords (1, 0, ..., 0)
        self.z = self.space.scale(self.x, p)
        self.alpha, self.beta = self._maps()

    def index(self, a, i: int, j: int):
        return (np.asarray(a, dtype=np.int64) * self.p + i) * self.p + j

    def _xk_sums(self) -> np.ndarray:
        """Row i, for i = 0..p, is the value vector of the A-part of (x*k)^i,
        x + f^-1(x) + ... + f^-(i-1)(x), not yet reduced mod p^2."""
        terms = self.space.values[self.f_pows[-np.arange(self.p) % self.p, self.x]]
        return np.concatenate([np.zeros_like(terms[:1]), np.cumsum(terms, axis=0)])

    def _maps(self) -> tuple:
        """alpha and beta on every (a, i, j), in index order, encoded one
        stratum i at a time: alpha adds j*z and the A-part of (x*k)^i to a,
        and beta adds j*z alone.  (x*k)^0 has A-part 0, so beta's A-part is
        alpha's on the stratum i = 0, for every i."""
        p, na, k = self.p, self.na, self.space.k
        vals = self.space.values
        shifted = vals[:, None] + np.arange(p)[:, None] * vals[self.z]  # [a, j]
        xk = self._xk_sums()
        j = np.arange(p)
        # int32 holds every index (5^7 points at p = 5), at half the bytes
        a_img = np.empty((na, p, p), dtype=np.int32)
        for i in range(p):
            a_part = self.space.encode_values((shifted + xk[i]).reshape(-1, k))
            a_img[:, i] = self.index(a_part.reshape(na, p), i, j)
        b_part = a_img[:, :1] // (p * p)  # [a, 1, j]: alpha's A-part at i = 0
        b_img = self.index(b_part, np.arange(p)[:, None], j)
        return a_img.ravel(), b_img.ravel().astype(np.int32)


class SplitExtension:
    """GA = G x| C_m in the indices x = g*m + s of `semidirect_product`,
    where the generator of C_m conjugates as alpha, built without a table.

    (g1, s1)(g2, s2) = (g1 * alpha^-s1(g2), s1 + s2 mod m), read from G's
    table and one stack of the powers of alpha^-1, and (g, s)^-1 =
    (alpha^s(g^-1), -s).  The generating sequence is G's generators at
    s = 0, then (0, 1); they generate GA, since (g, s) = (g, 0)(0, 1)^s.
    `conjugates` and `generating_sequence` are what `autos._inner_mask`
    reads, and the conjugations by the generators give the classes through
    `orbit_labels`, so the automorphism, class and innerness tests of a map
    need no table of GA.
    """

    def __init__(self, g: Group, alpha: GroupMap, m: int):
        self.base, self.m = g, m
        self.order = g.order * m
        self._act = perm_powers(alpha.inverse().images, m).astype(np.intp)  # row s: alpha^-s
        gg, s = np.divmod(np.arange(self.order), m)
        t = -s % m  # alpha^s = alpha^-t
        self.inverses = self._act[t, g.inverses[gg]] * m + t

    def mul(self, x, y) -> np.ndarray:
        """The products x * y of index arrays, elementwise with broadcasting."""
        m = self.m
        g1, s1 = np.divmod(x, m)
        g2, s2 = np.divmod(y, m)
        return self.base.table[g1, self._act[s1, g2]] * m + (s1 + s2) % m

    def conjugates(self, by=slice(None), of=slice(None)) -> np.ndarray:
        """The (|by| x |of|) array of by[i]^-1 * of[j] * by[i], as
        `Group.conjugates`: each of `by` and `of` is an index array or a
        slice, by default every element."""
        idx = np.arange(self.order)
        by, of = idx[by], idx[of]
        return self.mul(self.mul(self.inverses[by, None], of), by[:, None])

    def generating_sequence(self) -> list:
        return [x * self.m for x in self.base.generating_sequence()] + [1]

    def class_labels(self) -> np.ndarray:
        """The least member of each element's conjugacy class."""
        return orbit_labels(self.conjugates(by=self.generating_sequence()))

    def is_automorphism(self, images: np.ndarray) -> bool:
        """Whether x -> images[x] is an automorphism: it is bijective, sends
        0 to 0, and f(x y) = f(x) f(y) for every x and each generator y.
        That is the criterion of `core._map_masks`, exact by the argument of
        its docstring."""
        x = np.arange(self.order)
        return bool(np.array_equal(np.sort(images), x) and images[0] == 0
                    and all(np.array_equal(images[self.mul(x, y)], self.mul(images, images[y]))
                            for y in self.generating_sequence()))

    def is_class_preserving(self, images: np.ndarray) -> bool:
        """Whether x -> images[x] keeps every element in its class."""
        lab = self.class_labels()
        return np.array_equal(lab[images], lab)

    def is_inner(self, images: np.ndarray) -> bool:
        """Whether some conjugation agrees with x -> images[x] on the
        generators, as `autos._is_inner` decides it on a table."""
        return bool(_inner_mask(self, images[self.generating_sequence()][None, :])[0])


@dataclass
class WitnessBundle:
    """All objects of the construction for one prime."""

    p: int
    matrix: ModMatrix
    base: BaseAbelian
    coords: CoordWitness
    a_group: Optional[Group] = None
    k_group: Optional[Group] = None
    g_group: Optional[Group] = None
    ga_group: Optional[Group] = None
    alpha: Optional[GroupMap] = None
    beta: Optional[GroupMap] = None
    sigma: Optional[GroupMap] = None
    x: int = -1
    z: int = -1
    k: int = -1
    h: int = -1


def build_witness(p: int) -> WitnessBundle:
    """Construct the groups and the automorphism pair; table-backed for p = 3."""
    if p not in SUPPORTED_WITNESS_PRIMES:
        raise BadPrime(f"p must be one of {SUPPORTED_WITNESS_PRIMES}, got {p}")
    base = base_abelian(p)
    coords = CoordWitness(base)
    bundle = WitnessBundle(p=p, matrix=base.matrix, base=base, coords=coords)
    if p != TABLE_PRIME:
        return bundle

    a_grp = base.space.group()
    cp = cyclic(p)
    # act(k^j) must be the inverse action so that k^-1 a k = a*kappa
    act = Action(cp, a_grp, coords.f_pows[-np.arange(p) % p])
    k_grp = semidirect_product(a_grp, cp, act)
    g_grp = direct_product(k_grp, cp)

    x_a = 1
    x_k = x_a * p
    k_k = 1
    z_k = a_grp.power(x_a, p) * p
    bundle.x, bundle.k, bundle.z = x_k * p, k_k * p, z_k * p
    bundle.h = 1

    if k_grp.conj(x_k, k_k) != int(base.action[x_a]) * p:
        raise ClaimFailed("conjugation by k does not apply the matrix action")

    T = g_grp.table
    xk = g_grp.mul(bundle.x, bundle.k)
    zh = g_grp.mul(bundle.z, bundle.h)

    def powers(y: int) -> np.ndarray:
        return np.asarray([g_grp.power(y, i) for i in range(p)])

    # image of (aa*p + i)*p + j, the element aa * k^i * h^j of G, in
    # (aa, i, j) order: alpha sends it to aa * (x*k)^i * (z*h)^j and beta to
    # aa * k^i * (z*h)^j
    embedded = np.arange(a_grp.order)[:, None, None] * p * p
    zh_j = powers(zh)[None, None, :]
    alpha_img = T[T[embedded, powers(xk)[None, :, None]], zh_j].ravel()
    beta_img = T[T[embedded, powers(bundle.k)[None, :, None]], zh_j].ravel()
    alpha = GroupMap(g_grp, g_grp, alpha_img)
    beta = GroupMap(g_grp, g_grp, beta_img)
    for name, m in (("alpha", alpha), ("beta", beta)):
        if not m.is_automorphism():
            raise ClaimFailed(f"{name} is not an automorphism of G")
    if alpha.map_order() != p * p or beta.map_order() != p:
        raise ClaimFailed("alpha or beta has the wrong order")
    if not np.array_equal(alpha.images[beta.images], beta.images[alpha.images]):
        raise ClaimFailed("alpha and beta do not commute")
    fixed = GroupMap(g_grp, g_grp, perm_power(alpha.images, p)).fixed_points()
    expected = np.asarray(sorted((aa * p) * p + j for aa in range(a_grp.order)
                                 for j in range(p)), dtype=np.int64)
    if not np.array_equal(fixed, expected):
        raise ClaimFailed("the centralizer of alpha^p is not A x <h>")

    bundle.a_group, bundle.k_group, bundle.g_group = a_grp, k_grp, g_grp
    bundle.alpha, bundle.beta = alpha, beta
    return bundle


def extend_witness(bundle: WitnessBundle) -> WitnessBundle:
    """Adjoin alpha: GA = G x| C_{p^2} with the generator acting as alpha,
    and sigma fixing the new generator while acting as beta on G."""
    p = bundle.p
    if bundle.g_group is None:
        raise BadPrime("table-backed extension is built only for p = 3")
    g_grp, alpha, beta = bundle.g_group, bundle.alpha, bundle.beta
    cp2 = cyclic(p * p)
    act = Action(cp2, g_grp, perm_powers(alpha.inverse().images, p * p))
    ga = semidirect_product(g_grp, cp2, act)
    m = p * p
    sigma = GroupMap(ga, ga, _sigma_images(beta, m))
    if not sigma.is_automorphism():
        raise ClaimFailed("sigma is not an automorphism of the extension")
    gen = 1  # (identity of G, generator exponent 1)
    if int(sigma.images[gen]) != gen:
        raise ClaimFailed("sigma moves the extending generator")
    if ga.conj(2 * m, gen) != int(alpha.images[2]) * m:
        raise ClaimFailed("the extension does not conjugate by alpha")
    bundle.ga_group, bundle.sigma = ga, sigma
    return bundle


def _sigma_images(beta: GroupMap, m: int) -> np.ndarray:
    """sigma on GA = G x| C_m in the indices g*m + s: (g, s) -> (beta(g), s)."""
    return (beta.images[:, None] * m + np.arange(m)).ravel()


def _check_sigma(ga: SplitExtension, sigma: np.ndarray, alpha: GroupMap) -> None:
    """Raise ClaimFailed unless sigma is an automorphism of GA that fixes
    (0, 1), and conjugation by (0, 1) applies alpha to G."""
    if not ga.is_automorphism(sigma):
        raise ClaimFailed("sigma is not an automorphism of the extension")
    if int(sigma[1]) != 1:
        raise ClaimFailed("sigma moves the extending generator")
    g = np.arange(0, ga.order, ga.m)  # G at s = 0
    if not np.array_equal(ga.conjugates(by=[1], of=g)[0], alpha.images * ga.m):
        raise ClaimFailed("the extension does not conjugate by alpha")


# -- claim verification --------------------------------------------------------


@dataclass
class WitnessReport:
    p: int
    mode: str
    matrix_order: int
    group_orders: dict
    claims: List[tuple] = field(default_factory=list)

    def record(self, name: str, ok: bool) -> None:
        self.claims.append((name, bool(ok)))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok in self.claims)

    def failures(self) -> list:
        return [name for name, ok in self.claims if not ok]


def verify_witness(p: int, *, raise_on_fail: bool = True) -> WitnessReport:
    """Run every verifiable claim of the construction for the given prime.

    For p = 3, sigma is checked on GA = G x| C_{p^2} in coordinates
    (`SplitExtension`), from G's table; GA's own table, which
    `extend_witness` builds, is not made."""
    bundle = build_witness(p)
    table_mode = bundle.g_group is not None
    ga = SplitExtension(bundle.g_group, bundle.alpha, p * p) if table_mode else None
    co = bundle.coords
    report = WitnessReport(
        p=p,
        mode="table" if table_mode else "coordinates",
        matrix_order=bundle.matrix.matrix_order,
        group_orders={
            "A": co.na,
            "K": co.na * p,
            "G": co.size,
            "GA": ga.order if table_mode else None,
        },
    )
    _verify_coordinate_claims(bundle, report)
    if table_mode:
        _verify_table_claims(bundle, ga, report)
    if raise_on_fail and not report.ok:
        raise ClaimFailed("; ".join(report.failures()))
    return report


def _verify_coordinate_claims(bundle: WitnessBundle, rep: WitnessReport) -> None:
    p, co, space = bundle.p, bundle.coords, bundle.coords.space
    x_order = next(t for t in range(1, space.mod + 1) if space.scale(co.x, t) == 0)
    rep.record("A has order p^p with exponent p^2", space.size == p**p and x_order == p * p)
    order_p, annihilates = _action_properties(space, bundle.base.action, p)
    rep.record("matrix action on A has order p", order_p)
    rep.record("sum of the first p matrix powers annihilates A", annihilates)
    rep.record("x*k has order p", not (co._xk_sums()[p] % space.mod).any())
    fz = int(bundle.base.action[co.z])
    rep.record("z is central of order p in K",
               fz == co.z and space.scale(co.z, p) == 0 and co.z != 0)
    alpha, beta = co.alpha, co.beta
    ident = np.arange(co.size, dtype=alpha.dtype)
    a_range = np.arange(co.na, dtype=np.int64)
    a_p = perm_power(alpha, p)
    # on the stratum (i, j) with i*s = j, i and s in 1..p-1, beta must be
    # alpha^(p*s); the walk over s ends on alpha^(p^2)
    ok_strata, a_ps = True, a_p
    for s in range(1, p):
        for i in range(1, p):
            stratum = co.index(a_range, i, i * s % p)
            ok_strata &= np.array_equal(beta[stratum], a_ps[stratum])
        a_ps = a_p[a_ps]
    rep.record("alpha has order p^2",
               not np.array_equal(alpha, ident)
               and not np.array_equal(a_p, ident)
               and np.array_equal(a_ps, ident))
    b_p = perm_power(beta, p)
    rep.record("beta has order p",
               not np.array_equal(beta, ident) and np.array_equal(b_p, ident))
    rep.record("alpha and beta commute", np.array_equal(alpha[beta], beta[alpha]))
    fixed = np.nonzero(a_p == ident)[0]
    expect = np.sort(co.index(np.repeat(np.arange(co.na, dtype=np.int64), p), 0,
                              np.tile(np.arange(p, dtype=np.int64), co.na)))
    rep.record("fixed points of alpha^p are A x <h>", np.array_equal(fixed, expect))

    ok_k = all(np.array_equal(beta[co.index(a_range, i, 0)], co.index(a_range, i, 0))
               for i in range(p))
    rep.record("beta fixes K pointwise", ok_k)
    ok_h = all(np.array_equal(beta[co.index(a_range, 0, j)], alpha[co.index(a_range, 0, j)])
               for j in range(1, p))
    rep.record("beta equals alpha on H beyond K", ok_h)
    rep.record("beta equals alpha^(p*s) with i*s = j on mixed strata", ok_strata)
    somewhere, first = power_agreement(alpha, beta, p * p)
    rep.record("beta is pointwise a power of alpha", bool(somewhere.all()))
    rep.record("beta is not a power of alpha", first is None)


def _verify_table_claims(bundle: WitnessBundle, ga: SplitExtension, rep: WitnessReport) -> None:
    p, g_grp = bundle.p, bundle.g_group
    alpha, beta = bundle.alpha, bundle.beta
    rep.record("table groups have orders p^p, p^(p+1), p^(p+2), p^(p+4)",
               bundle.a_group.order == p**p
               and bundle.k_group.order == p ** (p + 1)
               and g_grp.order == p ** (p + 2)
               and ga.order == p ** (p + 4))
    # table index (aa*p + i)*p + j packs K = A x| <k> A-major, exactly as
    # the coordinates do, so the maps compare index for index
    rep.record("table alpha and beta match the coordinate forms",
               np.array_equal(alpha.images, bundle.coords.alpha)
               and np.array_equal(beta.images, bundle.coords.beta))
    rep.record("beta is locally a power of alpha on the table group",
               locally_power(g_grp, alpha, beta))
    rep.record("beta is not a power of alpha on the table group",
               power_of(alpha, beta) is None)
    sigma = _sigma_images(beta, ga.m)
    _check_sigma(ga, sigma, alpha)
    rep.record("sigma restricted to G equals beta",
               np.array_equal(sigma[:: ga.m], beta.images * ga.m))
    rep.record("sigma is class-preserving", ga.is_class_preserving(sigma))
    rep.record("sigma is not inner", not ga.is_inner(sigma))
