"""Seeded request workloads for the blackburn benchmark.

A workload is a closed loop: one client sends the next request only after
the previous one has returned.  Requests come in rounds.  Every round holds
the same request kinds in the same order and draws a fresh seeded
relabelling of every group it touches, so that label-dependent search cost
is averaged over many labellings within one run.  The order is fixed
because the latency of small requests depends on which large request ran
before them.  Each request builds its
own ``Group`` from a table, so the lazy per-group caches start cold.

The inputs of round ``r`` depend only on ``(seed, r)``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from blackburn import abelian_pairs, autos, catalog, classify, cli, counterexample
from blackburn.core import Group, Subgroup

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")

# Groups above the 128 lattice cap that classify reads from files: a
# quaternion Q-group, a product that takes the generic r_of route, a 512
# table (full cubic associativity check) and S6 (Light's test above 512).
LARGE_TABLES = ("q256", "s4xc16", "q8xc64", "s6")
# Permutation presentations, each with the catalog group it must match.
PERMGEN = {"sym4": ("s4", 4), "sym5": ("s5", 5), "sym6": ("s6", 6),
           "dih8": ("d8", 4), "dih10": ("d10", 5), "dih12": ("d12", 6), "dih16": ("d16", 8)}
# Classify skips q8xq8xc2: its form matching on a relabelled file takes from
# 0.1 s to over 7 s depending on the labelling, which alone would decide a
# run's throughput.
CLASSIFY_SKIP = ("q8xq8xc2",)
# Lattice requests skip the two groups whose single request takes 6-9 s
# (s5 and q8xq8xc2); q8xq8xc2 still gets sampled trichotomy requests.
LATTICE_SKIP = ("s5", "q8xq8xc2")
# Normal subgroups per Blackburn group: an evenly spaced, fixed sample of the
# pinned list, so every seed and round holds the same subgroups (only their
# labelling varies).  The trichotomy requests on q8xq8xc2, whose cost varies
# widely by subgroup, then fill the region around the 90th percentile.
TRICHOTOMY_PER_GROUP = 24
# Brute-force Aut skips the three groups with |Aut| >= 12288 (e16, and the
# order-64 products of Q8): one request takes 1-7 s depending on the
# labelling and would swamp a run.  Wide order-matched searches still run
# inside the pointwise harness, e.g. |Aut(C3^3)| = 11232.
AUT_SKIP = ("e16", "q8xc4xc2", "q8xq8")
AUT_MAX_ORDER = 64
HARNESS_SCOPES = ((2, 8), (3, 27), (5, 125))
# Requests per round of a kind whose latency sits at the 90th percentile, so
# that the percentile falls inside one label-insensitive cluster.
P90_COPIES = {"classify:q256": 5, "harness:5,125": 4, "enumerate_autc:witness_g": 3}
# First-hit search between two relabellings of the same group.  These groups
# have light-tailed search cost; on the order-243 witness group and the
# products of Q8 a single search takes from 5 ms to over 4 s by labelling.
ISOMORPHISM_GROUPS = ("q64", "c7_q16", "s5", "q128")


@dataclass(frozen=True)
class Request:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    data: bytes = b""  # the generated input, for determinism checks


def load_pins() -> dict:
    with open(PINS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- base groups -----------------------------------------------------------------


def symmetric6() -> np.ndarray:
    """S6 on sorted permutations, composing left to right like catalog.symmetric."""
    import itertools

    perms = np.asarray(sorted(itertools.permutations(range(6))), dtype=np.int64)
    weights = 6 ** np.arange(5, -1, -1)
    codes = perms @ weights
    # (p*q)(x) = q(p(x)) for p = perms[i], q = perms[j]
    comp = perms[np.arange(len(perms))[None, :, None], perms[:, None, :]]
    return np.searchsorted(codes, comp @ weights).astype(np.int32)


def _extra_table(name: str) -> np.ndarray:
    if name == "q256":
        return catalog.generalized_quaternion(256).table
    if name == "s4xc16":
        return catalog.direct_product(catalog.symmetric(4), catalog.cyclic(16)).table
    if name == "q8xc64":
        return catalog.direct_product(catalog.generalized_quaternion(8), catalog.cyclic(64)).table
    if name == "s6":
        return symmetric6()
    raise KeyError(name)


def witness_tables() -> Dict[str, np.ndarray]:
    """The order-243 group G and the order-2187 extension GA, as constructed."""
    bundle = counterexample.build_witness(3)
    counterexample.extend_witness(bundle)
    return {"witness_g": bundle.g_group.table, "witness_ga": bundle.ga_group.table}


def base_tables(names) -> Dict[str, np.ndarray]:
    names = set(names)
    out = {e.name: e.build().table for e in catalog.CATALOG if e.name in names}
    for name in names & set(LARGE_TABLES):
        out[name] = _extra_table(name)
    if names & {"witness_g", "witness_ga"}:
        out.update(witness_tables())
    return out


# -- relabelling and files -------------------------------------------------------


def relabel(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The same group with element i renamed perm[i]."""
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def file_perm(rng, n: int) -> np.ndarray:
    """Any relabelling; the identity may land anywhere."""
    return rng.permutation(n).astype(np.int32)


def library_perm(rng, n: int) -> np.ndarray:
    """A relabelling that keeps the identity at 0, as Group requires."""
    return np.concatenate([[0], 1 + rng.permutation(n - 1)]).astype(np.int32)


def loaded_perm(perm: np.ndarray) -> np.ndarray:
    """The labelling a loader produces from a file labelled by perm: the
    identity, perm[0], is swapped with index 0."""
    swap = np.arange(perm.size, dtype=np.int32)
    e = int(perm[0])
    swap[0], swap[e] = e, 0
    return swap[perm]


def cayley_text(table: np.ndarray) -> str:
    rows = "\n".join(" ".join(map(str, row)) for row in table.tolist())
    return f"cayley 1\norder {table.shape[0]}\n{rows}\n"


def permgen_text(rng, kind: str, degree: int) -> str:
    """Seeded generators: the standard pair conjugated by a random point
    relabelling; for dihedral groups the rotation is replaced by a random
    generator of the rotation subgroup."""
    pts = rng.permutation(degree)
    if kind == "sym":
        a = np.arange(degree)
        a[[0, 1]] = [1, 0]
        b = (np.arange(degree) + 1) % degree
    else:
        units = [k for k in range(1, degree) if np.gcd(k, degree) == 1]
        a = (np.arange(degree) + units[rng.integers(len(units))]) % degree
        b = (-np.arange(degree)) % degree
    gens = []
    for g in (a, b):
        img = np.empty(degree, dtype=np.int64)
        img[pts] = pts[g]  # conjugate g by the point relabelling
        gens.append(img)
    if rng.integers(2):
        gens.reverse()
    lines = [f"gen {' '.join(map(str, g.tolist()))}" for g in gens]
    return "permgen 1\ndegree %d\n%s\n" % (degree, "\n".join(lines))


def run_cli(argv: List[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# -- workloads -------------------------------------------------------------------


class Workload:
    """Base tables are built once; ``round(r)`` generates that round's
    relabelled inputs and returns its requests."""

    groups: tuple = ()

    def __init__(self, seed: int, workdir: str, pins: dict):
        self.seed = seed
        self.workdir = workdir
        self.pins = pins
        self.tables = base_tables(self.groups)

    def round(self, r: int) -> List[Request]:
        return self.requests(np.random.default_rng([self.seed, r]))

    def requests(self, rng) -> List[Request]:
        raise NotImplementedError

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def _catalog_names(max_order: int, skip=()) -> tuple:
    return tuple(e.name for e in catalog.CATALOG if e.order <= max_order and e.name not in skip)


class Classify(Workload):
    groups = _catalog_names(10**9, CLASSIFY_SKIP) + LARGE_TABLES

    def requests(self, rng):
        reqs = []
        for name, table in self.tables.items():
            for i in range(P90_COPIES.get(f"classify:{name}", 1)):
                text = cayley_text(relabel(table, file_perm(rng, table.shape[0])))
                reqs.append(self._request(name, name, f"{name}-{i}.cayley", text))
        for label, (base, degree) in PERMGEN.items():
            text = permgen_text(rng, label[:3], degree)
            reqs.append(self._request(label, base, f"{label}.permgen", text))
        return reqs

    def _request(self, label, base, filename, text):
        pin = self.pins["groups"][base]
        path = self.write(filename, text)
        return Request(f"classify:{label}", lambda: run_cli(["classify", path, "--porcelain"]),
                       lambda out: checks.classify_ok(pin, out), text.encode())


class Autc(Workload):
    groups = _catalog_names(10**9) + ("witness_g", "witness_ga")

    def requests(self, rng):
        reqs = []
        for name, table in self.tables.items():
            if name.startswith("witness"):
                continue
            perm = file_perm(rng, table.shape[0])
            text = cayley_text(relabel(table, perm))
            path = self.write(f"{name}.cayley", text)
            loaded = relabel(table, loaded_perm(perm))
            pin = self.pins["groups"][name]
            reqs.append(Request(
                f"autc:{name}", lambda path=path: run_cli(["autc", path, "--porcelain"]),
                lambda out, pin=pin, t=loaded: checks.autc_cli_ok(pin, t, out), text.encode()))
        g243 = self.tables["witness_g"]
        for _ in range(P90_COPIES["enumerate_autc:witness_g"]):
            reqs.append(self._autc_lib("witness_g", relabel(g243, library_perm(rng, g243.shape[0]))))
        # GA keeps the construction's labelling: relabelled, one search takes
        # 3-7.5 s and its label variance would dominate the run.
        reqs.append(self._autc_lib("witness_ga", self.tables["witness_ga"]))
        for name in ISOMORPHISM_GROUPS:
            table = self.tables[name]
            src = relabel(table, library_perm(rng, table.shape[0]))
            dst = relabel(table, library_perm(rng, table.shape[0]))
            reqs.append(Request(
                f"isomorphism:{name}",
                lambda src=src, dst=dst: autos.find_isomorphism(Group(src), Group(dst)),
                lambda out, src=src, dst=dst: checks.isomorphism_ok(src, dst, out),
                src.tobytes() + dst.tobytes()))
        return reqs

    def _autc_lib(self, name, table):
        pin = self.pins["groups"][name]
        return Request(f"enumerate_autc:{name}", lambda: autos.enumerate_autc(Group(table)),
                       lambda out: checks.autc_lib_ok(pin, table, out), table.tobytes())


def _lattice(table):
    g = Group(table)
    subs = g.all_subgroups()
    n_normal = sum(g.is_normal(s) for s in subs)
    fast, slow = classify.r_of(g), classify.r_of_lattice(g)
    same = (fast.subgroup is None) == (slow.subgroup is None) and (
        fast.subgroup is None or np.array_equal(fast.subgroup.members, slow.subgroup.members))
    distinct = len({s.members.tobytes() for s in subs})
    return (len(subs), distinct, n_normal, (fast.tag, fast.order), (slow.tag, slow.order), same)


def _trichotomy(table, members):
    g = Group(table)
    return classify.verify_normal_subgroup_trichotomy(g, Subgroup(g, members))


class Lattice(Workload):
    groups = _catalog_names(128)

    def requests(self, rng):
        reqs = []
        for name, table in self.tables.items():
            perm = library_perm(rng, table.shape[0])
            t = relabel(table, perm)
            pin = self.pins["groups"][name]
            if name not in LATTICE_SKIP:
                reqs.append(Request(f"lattice:{name}", lambda t=t: _lattice(t),
                                    lambda out, pin=pin: checks.lattice_ok(pin, out), t.tobytes()))
            normals = self.pins["trichotomy"].get(name, [])
            k = min(TRICHOTOMY_PER_GROUP, len(normals))
            for i in np.linspace(0, len(normals) - 1, k).round().astype(int).tolist():
                entry = normals[i]
                members = checks.closure(t, perm[entry["gens"]])
                if members.size != entry["order"]:
                    raise RuntimeError(f"{name}: relabelled normal subgroup has the wrong order")
                reqs.append(Request(
                    f"trichotomy:{name}#{i}", lambda t=t, m=members: _trichotomy(t, m),
                    lambda out, pin=pin, case=entry["case"]: checks.trichotomy_ok(pin, case, out),
                    t.tobytes() + members.tobytes()))
        return reqs


class AutOracle(Workload):
    groups = _catalog_names(AUT_MAX_ORDER, AUT_SKIP)

    def requests(self, rng):
        reqs = []
        for name, table in self.tables.items():
            t = relabel(table, library_perm(rng, table.shape[0]))
            pin = self.pins["groups"][name]
            reqs.append(Request(f"aut:{name}", lambda t=t: _aut_oracle(t),
                                lambda out, pin=pin, t=t: checks.aut_oracle_ok(pin, t, out),
                                t.tobytes()))
        for p, cap in HARNESS_SCOPES:
            label = f"harness:{p},{cap}"
            pin = self.pins["harness"][f"{p},{cap}"]
            reqs += [Request(label, lambda p=p, cap=cap: abelian_pairs.pointwise_power_harness(p, cap),
                             lambda out, pin=pin: checks.harness_ok(pin, out))
                     ] * P90_COPIES.get(label, 1)
        reqs.append(Request("contrast:3", lambda: abelian_pairs.nonabelian_contrast(3),
                            lambda out: checks.contrast_ok(self.pins["contrast"], out)))
        for p in (3, 5):
            pin = self.pins["witness"][str(p)]
            reqs.append(Request(f"verify_witness:{p}", lambda p=p: counterexample.verify_witness(p),
                                lambda out, pin=pin: checks.witness_report_ok(pin, out)))
        return reqs


def _aut_oracle(table):
    g = Group(table)
    maps = autos.enumerate_aut(g)
    kept = [m for m in maps if autos.is_class_preserving(g, m)]
    autc_maps, rep = autos.enumerate_autc(g)
    return maps, kept, autc_maps, rep


WORKLOADS = {"classify": Classify, "autc": Autc, "lattice": Lattice, "aut-oracle": AutOracle}
