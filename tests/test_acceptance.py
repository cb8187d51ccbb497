"""Acceptance criteria, one test per criterion, all exact (zero tolerance).

Each test prints a single PASS/FAIL line so the gate is readable from the
pytest -v output; run with `pytest tests/test_acceptance.py -v -s` to see
the lines and timings.
"""

import time

import numpy as np

from blackburn.abelian_pairs import nonabelian_contrast, pointwise_power_harness
from blackburn.autos import enumerate_autc
from blackburn.catalog import builtin
from blackburn.cli import main
from blackburn.counterexample import verify_witness
from blackburn.suites import (
    abelian_by_cyclic_outc,
    abelian_index2_outc,
    autc_oracle,
    blackburn_outc,
    coprime_action_witnesses,
    core_invariants,
    normal_subgroup_trichotomy,
    power_action_outc,
    q_element_structure,
    r_oracle,
)


def _report(criterion: str, ok: bool, elapsed: float) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    assert ok, criterion


def test_criterion_1_witness_example_p3():
    """Order-3^k tower 27/81/243/2187 with every claim exact, under 60 s."""
    t0 = time.time()
    rep = verify_witness(3, raise_on_fail=False)
    elapsed = time.time() - t0
    ok = (
        rep.ok
        and rep.group_orders == {"A": 27, "K": 81, "G": 243, "GA": 2187}
        and dict(rep.claims)["sigma is class-preserving"]
        and dict(rep.claims)["sigma is not inner"]
        and dict(rep.claims)["beta is not a power of alpha"]
        and dict(rep.claims)["alpha has order p^2"]
        and dict(rep.claims)["beta has order p"]
        and dict(rep.claims)["alpha and beta commute"]
        and elapsed < 60
    )
    _report("1 (witness example, p=3)", ok, elapsed)


def test_criterion_2_pointwise_power_exhaustive():
    """No pointwise-power counterexample over abelian 2-groups <= 32 and
    3-groups <= 81; the nonabelian group of order 243 is the expected
    negative.  Under 10 minutes."""
    t0 = time.time()
    rep2 = pointwise_power_harness(2, 32)
    rep3 = pointwise_power_harness(3, 81)
    contrast = nonabelian_contrast(3)
    elapsed = time.time() - t0
    ok = (
        rep2.ok and rep2.total_pairs > 0
        and rep3.ok and rep3.total_pairs > 0
        and len(rep2.stats) == 18 and len(rep3.stats) == 11
        and contrast.ok
        and elapsed < 600
    )
    _report("2 (pointwise-power harness)", ok, elapsed)


def test_criterion_3_outc_suites():
    """Out_c(G) = 1 exactly for: abelian-index-2 catalog groups <= 64,
    abelian-by-cyclic <= 100, the power-action instances including the
    order-56 one, and every Blackburn catalog group <= 128.  Under 15 min."""
    t0 = time.time()
    r_i = abelian_index2_outc(64)
    r_ii = abelian_by_cyclic_outc(100)
    r_iii = power_action_outc()
    r_iv = blackburn_outc(128)
    elapsed = time.time() - t0
    ok = (
        r_i.ok and r_i.run >= 10
        and r_ii.ok and r_ii.run >= 10
        and r_iii.ok
        and r_iv.ok
        and elapsed < 900
    )
    _report("3 (Out_c suites)", ok, elapsed)


def test_criterion_4_r_oracle():
    """Cyclic-subgroup R(G) equals full-lattice R(G) on the whole catalog
    <= 128, with the pinned Q16/S3/Q8 values."""
    t0 = time.time()
    r = r_oracle(128)
    elapsed = time.time() - t0
    _report("4 (R(G) oracle equivalence)", r.ok, elapsed)


def test_criterion_5_trichotomy():
    """Every normal subgroup of every Blackburn catalog group <= 128
    classifies into a case with all sub-assertions; zero violations."""
    t0 = time.time()
    r = normal_subgroup_trichotomy(128)
    elapsed = time.time() - t0
    _report("5 (normal subgroup trichotomy)", r.ok and r.run >= 100, elapsed)


def test_criterion_6_q_elements():
    """q-element structure holds for every Blackburn catalog group and
    every prime q != p dividing its order."""
    t0 = time.time()
    r = q_element_structure(128)
    elapsed = time.time() - t0
    _report("6 (q-element structure)", r.ok, elapsed)


def test_criterion_7_coprime_action_witnesses():
    """Fifty generated coprime-action instances; every witness's stabilizer
    equals the action kernel, by direct computation."""
    t0 = time.time()
    r = coprime_action_witnesses()
    elapsed = time.time() - t0
    _report("7 (coprime action witnesses)", r.ok and r.run == 51, elapsed)


def test_criterion_8_core_oracles_and_determinism():
    """Class equation on the whole catalog; class-preserving enumeration
    equals brute-force-Aut-then-filter <= 64; reports byte-stable across
    runs."""
    t0 = time.time()
    inv = core_invariants(128)
    oracle = autc_oracle(64)
    g = builtin("q8xc4")
    run1 = [m._bytes for m in enumerate_autc(g)[0]]
    run2 = [m._bytes for m in enumerate_autc(g)[0]]
    import io
    from contextlib import redirect_stdout

    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            main(["classify", "q8xq8xc2", "--porcelain"])
        outs.append(buf.getvalue())
    elapsed = time.time() - t0
    ok = inv.ok and oracle.ok and run1 == run2 and outs[0] == outs[1]
    _report("8 (core oracles and determinism)", ok, elapsed)
