"""Output checks for benchmark requests.

Every check here works on raw multiplication tables with its own numpy
code, so it does not rely on the toolkit routines it is checking.  Values
that do not depend on the element labelling (orders, counts, report lines)
are compared with the pins in ``pins.json``; maps are checked by their
properties, because their images change with the seeded relabelling.
"""

from __future__ import annotations

import numpy as np


def inverses(table: np.ndarray) -> np.ndarray:
    """inv[x] for a table whose identity is index 0."""
    r, c = np.nonzero(table == 0)
    inv = np.empty(table.shape[0], dtype=np.int64)
    inv[r] = c
    return inv


def closure(table: np.ndarray, gens) -> np.ndarray:
    """Sorted members of the subgroup generated by ``gens`` (identity at 0)."""
    gens = np.asarray(list(gens), dtype=np.int64)
    inside = np.zeros(table.shape[0], dtype=bool)
    inside[0] = True
    frontier = np.asarray([0], dtype=np.int64)
    while frontier.size and gens.size:
        nxt = np.unique(table[np.ix_(frontier, gens)])
        nxt = nxt[~inside[nxt]]
        inside[nxt] = True
        frontier = nxt
    return np.nonzero(inside)[0]


def greedy_generators(table: np.ndarray) -> list:
    """Lowest index not yet generated, repeated until the group is covered."""
    n = table.shape[0]
    gens: list = []
    inside = np.zeros(n, dtype=bool)
    inside[0] = True
    while not inside.all():
        gens.append(int(np.argmin(inside)))
        inside[:] = False
        inside[closure(table, gens)] = True
    return gens


def is_automorphism(src: np.ndarray, dst: np.ndarray, images) -> bool:
    """Bijective and multiplicative: f(a*b) == f(a)*f(b) for all a, b."""
    f = np.asarray(images, dtype=np.int64)
    n = src.shape[0]
    if f.shape != (n,) or dst.shape[0] != n:
        return False
    if f.min() < 0 or f.max() >= n or np.unique(f).size != n:
        return False
    return bool(np.array_equal(f[src], dst[np.ix_(f, f)]))


def conjugates(table: np.ndarray) -> np.ndarray:
    """C[x, g] = g^-1 x g."""
    return table[inverses(table)[None, :], table]


def is_class_preserving(table: np.ndarray, images, conj: np.ndarray = None) -> bool:
    """Every f(x) is a conjugate of x."""
    conj = conjugates(table) if conj is None else conj
    f = np.asarray(images, dtype=np.int64)
    return bool((conj == f[:, None]).any(axis=1).all())


def is_inner(table: np.ndarray, images) -> bool:
    """True when the map agrees with conjugation by some element on the
    greedy generators, hence everywhere."""
    f = np.asarray(images, dtype=np.int64)
    inv = inverses(table)
    gens = greedy_generators(table)
    cols = np.stack([table[inv, table[g, :]] for g in gens], axis=1)
    return bool((cols == f[gens][None, :]).all(axis=1).any())


def extend_from_generators(table: np.ndarray, gens, imgs) -> np.ndarray:
    """The unique map sending gens to imgs along a spanning tree, or None
    when the images do not define a consistent map on every element."""
    n = table.shape[0]
    f = np.full(n, -1, dtype=np.int64)
    f[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g, h in zip(gens, imgs):
                y = int(table[x, g])
                if f[y] < 0:
                    f[y] = table[f[x], h]
                    nxt.append(y)
        frontier = nxt
    return None if (f < 0).any() else f


def distinct_maps(maps) -> bool:
    return len({m.images.tobytes() for m in maps}) == len(maps)


def porcelain(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def classify_ok(pin: dict, out) -> bool:
    code, text = out
    return code == 0 and text == pin["classify"]


def autc_cli_ok(pin: dict, table: np.ndarray, out) -> bool:
    """Label-free fields against the pins; the generator list against an
    independent greedy computation on the loaded table; any Out_c witness
    must be a class-preserving, non-inner automorphism."""
    code, text = out
    if code != 0:
        return False
    rows = porcelain(text)
    fixed = {"order": str(pin["order"]), "autc_order": str(pin["autc"]),
             "inn_order": str(pin["inn"]),
             "outc_trivial": "yes" if pin["outc_trivial"] else "no"}
    if any(rows.get(k) != v for k, v in fixed.items()):
        return False
    gens = [int(x) for x in rows.get("generators", "").split()]
    if gens != greedy_generators(table):
        return False
    has_witness = "witness_generator_images" in rows
    if has_witness == pin["outc_trivial"]:
        return False
    if has_witness:
        imgs = [int(x) for x in rows["witness_generator_images"].split()]
        return witness_ok(table, extend_from_generators(table, gens, imgs))
    return True


def witness_ok(table: np.ndarray, images) -> bool:
    return (images is not None and is_automorphism(table, table, images)
            and is_class_preserving(table, images) and not is_inner(table, images))


def autc_lib_ok(pin: dict, table: np.ndarray, out) -> bool:
    """enumerate_autc result: pinned orders, distinct maps, the first and last
    map verified, and the witness verified when Out_c is nontrivial."""
    maps, rep = out
    if (rep.autc_order != pin["autc"] or len(maps) != pin["autc"]
            or rep.inn_order != pin["inn"] or rep.outc_trivial != pin["outc_trivial"]):
        return False
    if not distinct_maps(maps):
        return False
    conj = conjugates(table)
    for m in (maps[0], maps[-1]):
        if not (is_automorphism(table, table, m.images)
                and is_class_preserving(table, m.images, conj)):
            return False
    if pin["outc_trivial"]:
        return rep.witness is None
    return rep.witness is not None and witness_ok(table, rep.witness.images)


def isomorphism_ok(src: np.ndarray, dst: np.ndarray, out) -> bool:
    return out is not None and is_automorphism(src, dst, out.images)


def lattice_ok(pin: dict, out) -> bool:
    n_subgroups, n_distinct, n_normal, fast, slow, same_members = out
    return (n_subgroups == n_distinct == pin["subgroups"] and n_normal == pin["normal"]
            and same_members and fast == slow == (pin["r_tag"], pin["r_order"]))


def trichotomy_ok(pin: dict, expected_case: str, out) -> bool:
    if out.p != pin["blackburn_prime"] or out.case != expected_case:
        return False
    return out.dedekind_complement and (out.case_c is not None) == (out.case == "c")


def aut_oracle_ok(pin: dict, table: np.ndarray, out) -> bool:
    """Brute-force Aut against its pinned order; the class-preserving filter
    against enumerate_autc; sample maps verified independently."""
    maps, kept, autc_maps, rep = out
    if len(maps) != pin["aut"] or len(kept) != pin["autc"] or rep.autc_order != pin["autc"]:
        return False
    if not distinct_maps(maps):
        return False
    if {m.images.tobytes() for m in kept} != {m.images.tobytes() for m in autc_maps}:
        return False
    conj = conjugates(table)
    for m in (maps[0], maps[-1]):
        if not is_automorphism(table, table, m.images):
            return False
    return all(is_class_preserving(table, m.images, conj) for m in (kept[0], kept[-1]))


def harness_ok(pin: list, out) -> bool:
    stats = [[list(s.factors), s.route, s.alphas, s.candidates, s.pairs] for s in out.stats]
    return out.ok and out.total_pairs > 0 and stats == pin


def contrast_ok(pin: dict, out) -> bool:
    return out.ok and out.order == pin["order"]


def witness_report_ok(pin: dict, out) -> bool:
    return (out.ok and out.mode == pin["mode"] and len(out.claims) == pin["claims"]
            and {k: v for k, v in out.group_orders.items() if v is not None} == pin["orders"])
