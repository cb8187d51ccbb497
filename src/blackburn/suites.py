"""Verification suites over the pinned builtin catalog.

Each suite runs a family of exact checks and reports how many cases ran and
passed, plus a reproducible serialization of the first failing input.  Suite
contents are pinned by the catalog manifest (version 1), so runs are
reproducible; `quick` restricts to orders <= 64, `full` covers the whole
catalog and the order-3^7 witness construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from . import abelian_pairs, classify
from ._arith import p_part, perm_order, perm_powers, prime_divisors
from .autos import (
    _aut_images,
    _automorphism_rows,
    enumerate_aut,
    enumerate_autc,
    find_min_stabilizer_point,
    outc_trivial,
)
from .catalog import CATALOG, builtin, cyclic, elementary_abelian
from .core import Action, Group, Subgroup
from .counterexample import verify_witness
from .errors import GroupError
from .formats import dump_cayley, parse_cayley

QUICK_MAX_ORDER = 64
FULL_MAX_ORDER = 128


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    run: int
    passed: int
    first_failure: Optional[str] = None
    # Elapsed seconds of the whole suite, and (label, seconds) per case in
    # the order run.  They vary between runs, so they take no part in
    # equality and never reach a report; `blackburn suite --stats` writes them.
    seconds: float = field(default=0.0, compare=False, repr=False)
    case_seconds: tuple = field(default=(), compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.passed == self.run and self.first_failure is None


class _Collector:
    def __init__(self, suite: str):
        self.suite = suite
        self.run = 0
        self.passed = 0
        self.first_failure: Optional[str] = None
        self.start = self.last = time.perf_counter()
        self.case_seconds: list = []

    def case(self, label: str, ok: bool, detail: Callable[[], str] = lambda: "") -> None:
        """Record one case; its time is the time since the previous case (or
        the start of the suite), which covers the work that decided it."""
        now = time.perf_counter()
        self.case_seconds.append((label, now - self.last))
        self.last = now
        self.run += 1
        if ok:
            self.passed += 1
        elif self.first_failure is None:
            d = detail()
            self.first_failure = f"{label}: {d}" if d else label

    def result(self) -> SuiteResult:
        return SuiteResult(self.suite, self.run, self.passed, self.first_failure,
                           time.perf_counter() - self.start, tuple(self.case_seconds))


def _catalog_groups(max_order: int) -> list:
    return [(e.name, e.build()) for e in CATALOG if e.order <= max_order]


# -- core invariants -------------------------------------------------------------


def core_invariants(max_order: int = FULL_MAX_ORDER) -> SuiteResult:
    """Class equation, subgroup axioms, Sylow facts, and the normality
    cross-check on every catalog group within the cap."""
    col = _Collector("core-invariants")
    for name, g in _catalog_groups(max_order):
        classes = g.conjugacy_classes()
        sizes = [len(c) for c in classes]
        col.case(f"{name}: class equation", sum(sizes) == g.order
                 and all(g.order % s == 0 for s in sizes), lambda: dump_cayley(g))
        subs = g.all_subgroups()
        ok_subs = True
        for s in subs:
            try:
                s.check()
            except GroupError:
                ok_subs = False
                break
            if not np.array_equal(g.closure(s.members), s.members):
                ok_subs = False
                break
        col.case(f"{name}: subgroup invariants", ok_subs, lambda: dump_cayley(g))
        col.case(f"{name}: subgroups unique", len({s.members.tobytes() for s in subs}) == len(subs))
        ok_syl = True
        for p in prime_divisors(g.order):
            syl = g.sylow(p)
            op = g.o_p(p)
            if syl.order != p_part(g.order, p) or not op.is_normal() or not _contained(op, syl):
                ok_syl = False
        col.case(f"{name}: sylow and core facts", ok_syl, lambda: dump_cayley(g))
        ok_norm = all(_normal_via_cyclic(g, s) == s.is_normal() for s in subs)
        col.case(f"{name}: normality via cyclic closure", ok_norm, lambda: dump_cayley(g))
        for s in subs:
            if s.is_normal():
                q, proj = g.quotient(s)
                if q.order * s.order != g.order or not proj.is_homomorphism():
                    col.case(f"{name}: quotient order", False, lambda: dump_cayley(g))
                    break
        else:
            col.case(f"{name}: quotient order", True)
    return col.result()


def _contained(small: Subgroup, big: Subgroup) -> bool:
    return set(small.members.tolist()) <= set(big.members.tolist())


def _normal_via_cyclic(g: Group, s: Subgroup) -> bool:
    """U is normal iff the conjugates of its cyclic subgroups stay inside U."""
    t, inv, mem = g.table, g.inverses, s.members
    a = np.arange(g.order)[:, None]
    conj = t[t[inv[a], mem], a]  # [a, x] = a^-1 x a, every member x and every a
    return bool(np.isin(conj, mem).all())


# -- R(G) oracle -------------------------------------------------------------------


def r_oracle(max_order: int = FULL_MAX_ORDER) -> SuiteResult:
    """Cyclic-subgroup R(G) equals full-lattice R(G) on the whole catalog,
    plus pinned values for Q16, S3 and Q8."""
    col = _Collector("r-oracle")
    for name, g in _catalog_groups(max_order):
        fast = classify.r_of(g)
        slow = classify.r_of_lattice(g)
        same = fast.tag == slow.tag and (
            fast.subgroup is None or np.array_equal(fast.subgroup.members, slow.subgroup.members)
        )
        col.case(f"{name}: r_of equals lattice oracle", same, lambda: dump_cayley(g))
    q16 = builtin("q16")
    col.case("q16: R has order 2", classify.r_of(q16).order == 2)
    col.case("s3: R is trivial", classify.r_of(builtin("s3")).tag == classify.TRIVIAL)
    col.case("q8: R undefined", classify.r_of(builtin("q8")).tag == classify.UNDEFINED)
    return col.result()


# -- Out_c suites --------------------------------------------------------------------


def has_abelian_index2(g: Group) -> bool:
    return any(g.commutes(s.members, s.members).all() for s in classify.index2_subgroups(g))


def is_abelian_by_cyclic(g: Group) -> bool:
    """Has an abelian normal subgroup with cyclic quotient."""
    if g.is_abelian():
        return True
    for s in g.all_subgroups():
        if not s.is_normal() or not g.commutes(s.members, s.members).all():
            continue
        q, _ = g.quotient(s)
        if q.order in q.element_orders():
            return True
    return False


def abelian_index2_outc(max_order: int = QUICK_MAX_ORDER) -> SuiteResult:
    """Out_c(G) = 1 for every catalog group with an abelian index-2 subgroup."""
    col = _Collector("abelian-index2-outc")
    for name, g in _catalog_groups(max_order):
        if not has_abelian_index2(g):
            continue
        rep = outc_trivial(g)
        col.case(f"{name}: outc trivial", rep.outc_trivial, lambda: dump_cayley(g))
    return col.result()


def abelian_by_cyclic_outc(max_order: int = 100) -> SuiteResult:
    """Out_c(G) = 1 for every catalog abelian-by-cyclic group."""
    col = _Collector("abelian-by-cyclic-outc")
    for name, g in _catalog_groups(max_order):
        if not is_abelian_by_cyclic(g):
            continue
        rep = outc_trivial(g)
        col.case(f"{name}: outc trivial", rep.outc_trivial, lambda: dump_cayley(g))
    return col.result()


def power_action_outc() -> SuiteResult:
    """Out_c(G) = 1 for the abelian x| quaternion power-action instances.

    Validates the hypotheses honestly: the top factor is generalized
    quaternion acting by power maps (by construction) and a Sylow 2-subgroup
    has an abelian index-2 subgroup (computed).
    """
    col = _Collector("power-action-outc")
    entries = [e for e in CATALOG if e.family == "power_action"]
    col.case("at least three instances", len(entries) >= 3)
    col.case("includes the order-56 instance", any(e.name == "c7_q8" for e in entries))
    for e in entries:
        g = e.build()
        syl, _ = g.sylow(2).as_group()
        col.case(f"{e.name}: sylow-2 has abelian index-2", has_abelian_index2(syl))
        rep = outc_trivial(g)
        col.case(f"{e.name}: outc trivial", rep.outc_trivial, lambda: dump_cayley(g))
    return col.result()


def blackburn_catalog(max_order: int = FULL_MAX_ORDER) -> list:
    return [(name, g) for name, g in _catalog_groups(max_order) if classify.is_blackburn(g)]


def blackburn_outc(max_order: int = FULL_MAX_ORDER) -> SuiteResult:
    """Out_c(G) = 1 for every Blackburn catalog group."""
    col = _Collector("blackburn-outc")
    required = {n for n, e in (("q16", 16), ("q32", 32), ("q8xc4", 32),
                               ("q8xc4xc2", 64), ("q8xq8xc2", 128)) if e <= max_order}
    names = set()
    for name, g in blackburn_catalog(max_order):
        names.add(name)
        rep = outc_trivial(g)
        col.case(f"{name}: outc trivial", rep.outc_trivial, lambda: dump_cayley(g))
    col.case("required members present", required <= names,
             lambda: f"missing {required - names}")
    return col.result()


def blackburn_forms(max_order: int = FULL_MAX_ORDER) -> SuiteResult:
    """Every Blackburn 2-group gets exactly one of the three form labels."""
    col = _Collector("blackburn-2group-forms")
    pinned = {"q16": classify.Q_GROUP, "q32": classify.Q_GROUP,
              "q64": classify.Q_GROUP, "q128": classify.Q_GROUP,
              "q8xc4": classify.Q8_C4_E2, "q8xc4xc2": classify.Q8_C4_E2,
              "q8xq8": classify.Q8_Q8_E2, "q8xq8xc2": classify.Q8_Q8_E2}
    for name, g in blackburn_catalog(max_order):
        if prime_divisors(g.order) != [2]:
            continue
        label = classify.blackburn_2group_form(g)
        col.case(f"{name}: one label", label in
                 (classify.Q_GROUP, classify.Q8_C4_E2, classify.Q8_Q8_E2))
        if name in pinned:
            col.case(f"{name}: expected label", label == pinned[name],
                     lambda: f"got {label}")
    return col.result()


# -- section-3 structure suites --------------------------------------------------------


def q_element_structure(max_order: int = FULL_MAX_ORDER) -> SuiteResult:
    """The q-elements of each Blackburn catalog group form a normal q-group
    whose subgroups are all normal, for every prime q != p dividing |G|
    (plus one probe prime that does not divide it)."""
    col = _Collector("q-element-structure")
    for name, g in blackburn_catalog(max_order):
        p = classify.blackburn_prime(g)
        qs = [q for q in prime_divisors(g.order) if q != p]
        qs.append(next(q for q in (3, 5, 7, 11) if g.order % q != 0 and q != p))
        for q in qs:
            rep = classify.verify_q_element_structure(g, q)
            col.case(f"{name}: q={q}", rep.ok,
                     lambda: f"{rep.violations} {dump_cayley(g)}")
    return col.result()


def normal_subgroup_trichotomy(max_order: int = FULL_MAX_ORDER) -> SuiteResult:
    """Every normal subgroup of every Blackburn catalog group classifies into
    exactly one trichotomy case with all sub-assertions passing."""
    col = _Collector("normal-subgroup-trichotomy")
    for name, g in _catalog_groups(max_order):
        r = classify._blackburn_r(g)  # once per group, not once per N
        if r is None:
            continue
        for s in g.all_subgroups():
            if not s.is_normal():
                continue
            try:
                verdict = classify._trichotomy(g, r, s)
                ok = verdict.case in ("a", "b", "c") and verdict.dedekind_complement
                if verdict.case == "c":
                    ok = ok and verdict.case_c is not None
            except GroupError as exc:
                ok = False
                msg = str(exc)
                col.case(f"{name}: N of order {s.order}", False,
                         lambda: f"{msg} {dump_cayley(g)}")
                continue
            col.case(f"{name}: N of order {s.order}", ok, lambda: dump_cayley(g))
    return col.result()


# -- pointwise power suites --------------------------------------------------------------


def pointwise_power(full: bool = True) -> SuiteResult:
    """Zero counterexamples over the abelian scopes, and the expected
    negative on the nonabelian witness group."""
    col = _Collector("pointwise-power")
    scopes = ((2, 32), (3, 81)) if full else ((2, 8), (3, 27))
    for p, cap in scopes:
        try:
            rep = abelian_pairs.pointwise_power_harness(p, cap)
            col.case(f"abelian {p}-groups <= {cap}", rep.ok and rep.total_pairs > 0,
                     lambda: rep.counterexample or "")
        except GroupError as exc:
            col.case(f"abelian {p}-groups <= {cap}", False, lambda: str(exc))
    contrast = abelian_pairs.nonabelian_contrast(3)
    col.case("nonabelian contrast: hypotheses hold, conclusion fails", contrast.ok)
    return col.result()


# -- coprime action witnesses ------------------------------------------------------------


def _power_automorphism(n: int, order: int) -> np.ndarray:
    """The power map x -> ux of C_n with the given order, for the least unit u."""
    for u in range(2, n):
        perm = np.arange(n, dtype=np.int32) * u % n
        if math.gcd(u, n) == 1 and perm_order(perm) == order:
            return perm
    raise GroupError(f"no unit of order {order} mod {n}")


def _matrix_automorphism(p: int, k: int, mat) -> np.ndarray:
    return abelian_pairs.matrix_to_perm(np.asarray(mat, dtype=np.int64), p, k).astype(np.int32)


def _cyclic_action(n_grp: Group, q: int, phi: np.ndarray) -> Action:
    return Action(cyclic(q), n_grp, perm_powers(phi, q))


def _v4_action(n_grp: Group, phi1: np.ndarray, phi2: np.ndarray) -> Action:
    ident = np.arange(n_grp.order, dtype=np.int32)
    # elementary_abelian(2, 2) indexes (d0, d1) as d0 + 2*d1
    maps = [ident, phi1, phi2, phi1[phi2]]
    return Action(elementary_abelian(2, 2), n_grp, maps)


def coprime_action_instances() -> list:
    """Fifty pinned (N, H, action) instances: N a p-group of order <= 64,
    H abelian of order <= 15 coprime to p acting on N."""
    out = []

    def add(label, n_grp, action):
        out.append((label, n_grp, action.actor, action))

    def inversion(g):
        return g.inverses.astype(np.int32)

    # cyclic N of odd prime-power order with power actions
    for n, q in [(3, 2), (9, 2), (27, 2), (5, 2), (5, 4), (25, 2), (25, 4),
                 (7, 2), (7, 3), (7, 6), (49, 2), (49, 3), (49, 6),
                 (11, 2), (11, 5), (11, 10), (13, 2), (13, 3),
                 (13, 4), (13, 6), (13, 12), (23, 2), (23, 11), (29, 2),
                 (29, 4), (29, 7), (31, 2), (31, 3), (31, 5), (31, 15)]:
        grp = cyclic(n)
        add(f"c{n}/power-q{q}", grp, _cyclic_action(grp, q, _power_automorphism(n, q)))

    # elementary abelian N with matrix actions (orders checked by Action)
    e9 = elementary_abelian(3, 2)
    first9 = _matrix_automorphism(3, 2, [[2, 0], [0, 1]])
    second9 = _matrix_automorphism(3, 2, [[1, 0], [0, 2]])
    add("e9/invert-first", e9, _cyclic_action(e9, 2, first9))
    add("e9/invert-all", e9, _cyclic_action(e9, 2, inversion(e9)))
    add("e9/swap", e9, _cyclic_action(
        e9, 2, _matrix_automorphism(3, 2, [[0, 1], [1, 0]])))
    add("e9/v4-split-inversions", e9, _v4_action(e9, first9, second9))
    add("e9/c8-primitive", e9, _cyclic_action(
        e9, 8, _matrix_automorphism(3, 2, [[0, 1], [1, 1]])))

    e25 = elementary_abelian(5, 2)
    add("e25/v4-split-inversions", e25, _v4_action(
        e25, _matrix_automorphism(5, 2, [[4, 0], [0, 1]]),
        _matrix_automorphism(5, 2, [[1, 0], [0, 4]])))
    add("e25/c4-diag", e25, _cyclic_action(
        e25, 4, _matrix_automorphism(5, 2, [[2, 0], [0, 3]])))
    add("e25/c3-companion", e25, _cyclic_action(
        e25, 3, _matrix_automorphism(5, 2, [[0, 4], [1, 4]])))

    e49 = elementary_abelian(7, 2)
    add("e49/c2", e49, _cyclic_action(e49, 2, inversion(e49)))
    add("e49/c3-diag", e49, _cyclic_action(
        e49, 3, _matrix_automorphism(7, 2, [[2, 0], [0, 4]])))

    e8 = elementary_abelian(2, 3)
    add("e8/c7-field", e8, _cyclic_action(e8, 7, _matrix_automorphism(
        2, 3, [[0, 1, 0], [0, 0, 1], [1, 1, 0]])))
    add("e8/c3-rotate", e8, _cyclic_action(e8, 3, _matrix_automorphism(
        2, 3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])))
    e16 = elementary_abelian(2, 4)
    add("e16/c3-block", e16, _cyclic_action(e16, 3, _matrix_automorphism(
        2, 4, [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])))
    add("e16/c5-companion", e16, _cyclic_action(e16, 5, _matrix_automorphism(
        2, 4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]])))
    add("e16/c15-singer", e16, _cyclic_action(e16, 15, _matrix_automorphism(
        2, 4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0]])))

    # mixed abelian and nonabelian N
    c9c3, _ = abelian_pairs.abelian_group([9, 3])
    add("c9xc3/invert", c9c3, _cyclic_action(c9c3, 2, inversion(c9c3)))
    c4c4, _ = abelian_pairs.abelian_group([4, 4])
    rot_c4c4 = next(m.images for m in enumerate_aut(c4c4) if m.map_order() == 3)
    add("c4xc4/c3", c4c4, _cyclic_action(c4c4, 3, rot_c4c4))
    q8 = builtin("q8")
    rot_q8 = next(m.images for m in enumerate_aut(q8) if m.map_order() == 3)
    add("q8/c3-rotate", q8, _cyclic_action(q8, 3, rot_q8))
    he3 = builtin("he3")
    # negate the abelian base, fix the acting generator; semidirect index is
    # base*3 + k so the base inverse sits at (idx//3)*3
    neg = np.asarray([int(he3.inverses[(idx // 3) * 3]) + idx % 3 for idx in range(27)],
                     dtype=np.int32)
    add("he3/c2-negate-base", he3, _cyclic_action(he3, 2, neg))

    # trivial actions exercise the kernel = H edge
    d8 = builtin("d8")
    add("d8/trivial-c3", d8, _cyclic_action(d8, 3, np.arange(8, dtype=np.int32)))
    add("c8/trivial-c3", cyclic(8), _cyclic_action(cyclic(8), 3, np.arange(8, dtype=np.int32)))
    add("e9/trivial-c2", e9, _cyclic_action(e9, 2, np.arange(9, dtype=np.int32)))

    return out[:50]


def coprime_action_witnesses() -> SuiteResult:
    """find_min_stabilizer_point succeeds on all pinned instances and each
    witness's stabilizer equals the action kernel by direct computation."""
    col = _Collector("coprime-action-witnesses")
    instances = coprime_action_instances()
    col.case("exactly fifty instances", len(instances) == 50,
             lambda: f"got {len(instances)}")
    for label, n_grp, h_grp, action in instances:
        n0 = find_min_stabilizer_point(action)
        kernel = {h for h in range(h_grp.order)
                  if np.array_equal(action.maps[h], np.arange(n_grp.order))}
        stab = {h for h in range(h_grp.order) if int(action.maps[h][n0]) == n0}
        col.case(f"{label}: stabilizer equals kernel", stab == kernel,
                 lambda: f"witness {n0}: stab {sorted(stab)} vs kernel {sorted(kernel)}")
    return col.result()


# -- enumeration oracle --------------------------------------------------------------------


def autc_oracle(max_order: int = QUICK_MAX_ORDER) -> SuiteResult:
    """Class-constrained enumeration equals brute-force Aut filtered by the
    class-preserving predicate, on every catalog group within the cap.  Both
    sets of maps are checked as whole blocks: every row an automorphism, and
    class-preserving when its class ids equal the group's."""
    col = _Collector("autc-vs-aut-filter")
    for name, g in _catalog_groups(max_order):
        maps, rep = enumerate_autc(g)
        autc = np.stack([m.images for m in maps])
        brute = _aut_images(g)
        cid = g.class_ids()
        kept = {row.tobytes() for row in brute[(cid[brute] == cid).all(axis=1)]}
        col.case(f"{name}: enumeration matches filter",
                 bool(_automorphism_rows(g, brute).all())
                 and {row.tobytes() for row in autc} == kept and rep.autc_order == len(kept),
                 lambda: dump_cayley(g))
        ok_maps = bool((_automorphism_rows(g, autc) & (cid[autc] == cid).all(axis=1)).all())
        col.case(f"{name}: every map verified", ok_maps, lambda: dump_cayley(g))
    return col.result()


def format_roundtrip(max_order: int = FULL_MAX_ORDER) -> SuiteResult:
    """Serializing any catalog group and re-parsing yields an identical table."""
    col = _Collector("format-roundtrip")
    for name, g in _catalog_groups(max_order):
        back = parse_cayley(dump_cayley(g))
        col.case(f"{name}: roundtrip", bool(np.array_equal(back.table, g.table))
                 and back.names == g.names, lambda: dump_cayley(g))
    return col.result()


def witness_construction() -> SuiteResult:
    """The full order-3^7 construction: all claims, sigma class-preserving
    and non-inner."""
    col = _Collector("witness-construction")
    rep = verify_witness(3, raise_on_fail=False)
    for claim, ok in rep.claims:
        col.case(claim, ok)
    return col.result()


# -- suite registry ---------------------------------------------------------------------


def run_suites(level: str = "quick") -> List[SuiteResult]:
    if level not in ("quick", "full"):
        raise GroupError(f"unknown level {level!r}")
    full = level == "full"
    cap = FULL_MAX_ORDER if full else QUICK_MAX_ORDER
    results = [
        core_invariants(cap),
        r_oracle(cap),
        abelian_index2_outc(QUICK_MAX_ORDER),
        abelian_by_cyclic_outc(100 if full else QUICK_MAX_ORDER),
        power_action_outc(),
        blackburn_outc(cap),
        blackburn_forms(cap),
        q_element_structure(cap),
        normal_subgroup_trichotomy(cap),
        pointwise_power(full=full),
        coprime_action_witnesses(),
        autc_oracle(QUICK_MAX_ORDER),
        format_roundtrip(cap),
    ]
    if full:
        results.append(witness_construction())
    return results
