"""Self-test of the benchmark: its checks are not vacuous.

    python3 bench/selftest.py        (from the repository root; about a minute)

- The pins agree with textbook values.
- Round 0 of every workload passes its checks unchanged.
- A mutated report, and a dropped or corrupted map, are each caught: every
  corrupted output fails its check, so error_rate rises above 0.
- The same seed gives byte-identical inputs; another seed relabels them.
- BENCHMARK.json names exactly the metrics that run.py prints.
Exits 0 when every item holds.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import os
import sys
import tempfile

import run

run.import_toolkit()

import numpy as np  # noqa: E402

from blackburn.autos import AutcReport  # noqa: E402
from blackburn.classify import TrichotomyVerdict  # noqa: E402
from blackburn.core import GroupMap  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

FAILURES: list = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


# -- pins against textbook values ------------------------------------------------


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if np.gcd(k, n) == 1)


def check_pins(pins: dict) -> None:
    g = pins["groups"]
    textbook = {  # |Aut|: Q8 ~ S4, D8 ~ D8, E8 ~ GL(3,2), S4 complete, E16 ~ GL(4,2)
        ("q8", "aut"): 24, ("d8", "aut"): 8, ("e8", "aut"): 168, ("s4", "aut"): 24,
        ("e16", "aut"): 20160, ("q8xc4xc2", "aut"): 12288,
        ("s4", "subgroups"): 30, ("s5", "subgroups"): 156, ("q8xq8xc2", "subgroups"): 700,
        ("s4", "inn"): 24, ("s5", "inn"): 120, ("q8", "inn"): 4, ("d8", "inn"): 4,
        ("q16", "r_order"): 2, ("witness_g", "order"): 243, ("witness_ga", "order"): 2187,
    }
    for (name, key), value in textbook.items():
        expect(g[name].get(key) == value, f"pin {name}.{key} == {value}")
    cyclic = [n for n in g if n[0] == "c" and n[1:].isdigit()]
    expect(all(g[n]["aut"] == euler_phi(int(n[1:])) for n in cyclic),
           "pin |Aut(C_n)| == phi(n) for every cyclic catalog group")
    expect(g["q8"]["r_tag"] == "undefined" and g["s3"]["r_tag"] == "trivial",
           "pin R(Q8) undefined (Dedekind), R(S3) trivial")
    forms = {"q16": "q_group", "q8xc4": "q8_c4_e2", "q8xq8": "q8_q8_e2"}
    expect(all(f"form={f}" in g[n]["classify"] for n, f in forms.items()),
           "pin Blackburn 2-group forms of q16, q8xc4, q8xq8")
    expect(g["witness_ga"]["outc_trivial"] is False and g["witness_ga"]["inn"] == 243,
           "pin the order-2187 group has Out_c != 1 and |Inn| = 243")


# -- corruption of outputs ---------------------------------------------------------


def swapped(m: GroupMap) -> GroupMap:
    """The map with the images of the identity and the last element swapped:
    never a homomorphism, since it moves the identity."""
    img = m.images.copy()
    img[[0, -1]] = img[[-1, 0]]
    return GroupMap(m.source, m.target, img)


def flip_report(text: str) -> str:
    lines = text.splitlines()
    for i in range(len(lines) - 1, -1, -1):
        key, _, value = lines[i].partition("=")
        if value in ("yes", "no"):
            lines[i] = f"{key}={'no' if value == 'yes' else 'yes'}"
            return "\n".join(lines) + "\n"
    raise ValueError("report has no yes/no field")


def corrupt_report(req, out):
    """A mutated report, or None when the output carries no report."""
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str):
        return out[0], flip_report(out[1])
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], AutcReport):
        return out[0], dataclasses.replace(out[1], inn_order=out[1].inn_order + 1)
    if isinstance(out, tuple) and len(out) == 4:
        return out[:3] + (dataclasses.replace(out[3], autc_order=out[3].autc_order + 1),)
    if isinstance(out, tuple) and len(out) == 6:
        return out[:2] + (out[2] + 1,) + out[3:]
    if isinstance(out, TrichotomyVerdict):
        return dataclasses.replace(out, case="a" if out.case != "a" else "b")
    if type(out).__name__ == "PairHarnessReport":
        bad = copy.deepcopy(out)
        bad.stats[-1].pairs += 1
        return bad
    if type(out).__name__ == "ContrastReport":
        return dataclasses.replace(out, is_power=True)
    if type(out).__name__ == "WitnessReport":
        bad = copy.deepcopy(out)
        bad.record("injected claim", False)
        return bad
    return None


def corrupt_map(req, out):
    """A dropped or corrupted map, or None when the output carries no map
    (the trivial group has nothing to corrupt)."""
    if isinstance(out, GroupMap) and out.source.order > 1:
        return swapped(out)
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], AutcReport):
        return out[0][:-1], out[1]  # one map dropped
    if isinstance(out, tuple) and len(out) == 4 and out[0][0].source.order > 1:
        return ([swapped(out[0][0])] + out[0][1:],) + out[1:]
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str) and "generators=" in out[1] \
            and "generators=\n" not in out[1]:
        lines = [ln if not ln.startswith("generators=") else " ".join(ln.split()[:-1])
                 for ln in out[1].splitlines()]
        return out[0], "\n".join(lines) + "\n"  # the last generator image dropped
    return None


class Counting:
    """Applies a corruption and counts the outputs it changed."""

    def __init__(self, corrupt):
        self.corrupt, self.changed = corrupt, 0

    def __call__(self, req, out):
        bad = self.corrupt(req, out)
        if bad is None:
            return out
        self.changed += 1
        return bad


def check_workload(name: str, cls, pins: dict, tmp: str) -> None:
    w = cls(1, tmp, pins)
    reqs = w.round(0)
    clean = run.Runner()
    with contextlib.redirect_stderr(io.StringIO()):
        clean.run(reqs)
    expect(clean.failed == 0 and clean.attempted == len(reqs),
           f"{name}: {clean.attempted} clean requests, error_rate 0")
    for label, corrupt in (("mutated report", corrupt_report), ("dropped or corrupted map", corrupt_map)):
        counting = Counting(corrupt)
        runner = run.Runner(counting)
        with contextlib.redirect_stderr(io.StringIO()):
            runner.run(reqs)
        if counting.changed:
            expect(runner.failed == counting.changed,
                   f"{name}: {label}: {runner.failed} of {counting.changed} corrupted outputs "
                   f"caught, error_rate {runner.failed / runner.attempted:.3f}")


# -- seeds and metric names ----------------------------------------------------------


def inputs(cls, seed: int, pins: dict) -> bytes:
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        return b"".join(r.data for r in cls(seed, tmp, pins).round(0))


def check_seeds(pins: dict) -> None:
    for name in ("classify", "lattice"):
        cls = wl.WORKLOADS[name]
        a, b, c = inputs(cls, 7, pins), inputs(cls, 7, pins), inputs(cls, 8, pins)
        expect(a == b and len(a) > 0, f"{name}: same seed gives byte-identical inputs")
        expect(a != c, f"{name}: another seed changes the relabelling")


def check_metric_names() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    runner = run.Runner()
    runner.latencies = [0.001] * 20
    e2e = run.end_to_end(runner, [1.0], 1.0)
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == {k: u for k, (_, u) in e2e.items()},
           "BENCHMARK.json end_to_end matches the metrics run.py prints")
    with open(os.path.join(run.HERE, "layers.json"), "r", encoding="utf-8") as fh:
        layers = json.load(fh)
    per = spans.layer_metrics(spans.Tracer(layers["functions"]), 1, 1.0)
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == {k: u for k, (_, u) in per.items()},
           "BENCHMARK.json per_layer matches the metrics a traced run prints")
    expect([w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")


def main() -> int:
    pins = wl.load_pins()
    check_pins(pins)
    check_metric_names()
    os.makedirs(run.WORK, exist_ok=True)
    check_seeds(pins)
    for name, cls in wl.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            check_workload(name, cls, pins, tmp)
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
