"""Regenerate ``pins.json``: the expected, labelling-independent outputs that
every benchmark request is checked against.

Run from the repository root:  python3 bench/pins.py
Values are computed on the groups as constructed (no relabelling).  The
self-test (bench/selftest.py) cross-checks the pins against textbook values,
so a regenerated file that drifts from them is caught.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from blackburn import abelian_pairs, autos, classify, counterexample  # noqa: E402
from blackburn.core import Group  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402


def subgroup_generators(table: np.ndarray, members) -> list:
    gens: list = []
    inside = {0}
    for x in sorted(int(m) for m in members):
        if x not in inside:
            gens.append(x)
            inside = set(checks.closure(table, gens).tolist())
    return gens


def group_pins(name: str, table: np.ndarray, tmp: str) -> dict:
    g = Group(table)
    pin: dict = {"order": g.order}
    if not name.startswith("witness"):
        path = os.path.join(tmp, f"{name}.cayley")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(wl.cayley_text(table))
        code, text = wl.run_cli(["classify", path, "--porcelain"])
        if code != 0:
            raise RuntimeError(f"classify {name} exited {code}")
        pin["classify"] = text
    if g.order <= 4096 and name not in wl.LARGE_TABLES:
        _, rep = autos.enumerate_autc(g)
        pin.update(autc=rep.autc_order, inn=rep.inn_order, outc_trivial=rep.outc_trivial)
    if g.order <= wl.AUT_MAX_ORDER:
        pin["aut"] = len(autos.enumerate_aut(g))
    if g.order <= 128 and not name.startswith("witness"):
        subs = g.all_subgroups()
        r = classify.r_of(g)
        pin.update(subgroups=len(subs), normal=sum(g.is_normal(s) for s in subs),
                   r_tag=r.tag, r_order=r.order)
        if classify.is_blackburn(g):
            pin["blackburn_prime"] = classify.blackburn_prime(g)
    return pin


def trichotomy_pins(table: np.ndarray) -> list:
    g = Group(table)
    out = []
    for s in g.all_subgroups():
        if g.is_normal(s):
            verdict = classify.verify_normal_subgroup_trichotomy(g, s)
            out.append({"gens": subgroup_generators(table, s.members),
                        "order": s.order, "case": verdict.case})
    return out


def main() -> int:
    names = set()
    for cls in wl.WORKLOADS.values():
        names.update(cls.groups)
    names.update(base for base, _ in wl.PERMGEN.values())
    tables = wl.base_tables(names)
    pins: dict = {"groups": {}, "trichotomy": {}, "harness": {}, "witness": {}}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name in sorted(tables):
            print(name, flush=True)
            pins["groups"][name] = pin = group_pins(name, tables[name], tmp)
            if "blackburn_prime" in pin:
                pins["trichotomy"][name] = trichotomy_pins(tables[name])
    for p, cap in wl.HARNESS_SCOPES:
        rep = abelian_pairs.pointwise_power_harness(p, cap)
        pins["harness"][f"{p},{cap}"] = [[list(s.factors), s.route, s.alphas, s.candidates, s.pairs]
                                         for s in rep.stats]
    pins["contrast"] = {"order": abelian_pairs.nonabelian_contrast(3).order}
    for p in (3, 5):
        rep = counterexample.verify_witness(p)
        pins["witness"][str(p)] = {"mode": rep.mode, "claims": len(rep.claims),
                                   "orders": {k: v for k, v in rep.group_orders.items()
                                              if v is not None}}
    with open(wl.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
