"""Peak memory of the largest tables: each is written once, and no
whole-table temporary is made beside it.  tracemalloc counts the buffers
numpy allocates, so a peak here is the table plus what was made around it.
"""

import tracemalloc

import numpy as np
import pytest

from blackburn.abelian_pairs import pointwise_power_harness
from blackburn.core import Group
from blackburn.counterexample import build_witness, extend_witness, verify_witness

MIB = 1 << 20


def traced_peak(fn) -> tuple:
    """fn's result and the peak of the bytes allocated while it ran."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_ga_table_is_written_once():
    # GA (order 2187) is the largest table: 18.2 MiB in int32
    bundle, peak = traced_peak(lambda: extend_witness(build_witness(3)))
    table = bundle.ga_group.table
    assert table.dtype == np.int32 and table.flags.c_contiguous
    assert peak <= 1.15 * table.nbytes


def test_inverses_of_ga_need_no_whole_table_mask():
    table = extend_witness(build_witness(3)).ga_group.table
    inv, peak = traced_peak(lambda: Group(table).inverses)
    assert np.array_equal(table[np.arange(table.shape[0]), inv], np.zeros(table.shape[0]))
    assert peak < MIB


def test_coordinate_witness_of_p5_is_int32():
    co = build_witness(5).coords
    assert co.alpha.dtype == co.beta.dtype == np.int32
    # alpha is encoded one stratum at a time, and its powers are walked one
    # array at a time, with no stack of them
    report, peak = traced_peak(lambda: verify_witness(5))
    assert report.ok
    assert peak < 6 * MIB


def test_witness_of_p3_builds_no_table_of_ga():
    # sigma is checked on GA's coordinates; GA's table alone is 18.2 MiB
    report, peak = traced_peak(lambda: verify_witness(3))
    assert report.ok and report.group_orders["GA"] == 2187
    assert peak < 2 * MIB


@pytest.mark.parametrize("p,max_order,mib", [(5, 125, 3.02), (3, 27, 3.58), (2, 32, 8.96),
                                             (3, 81, 17.21)])
def test_pointwise_power_harness_builds_aut_in_bounded_blocks(p, max_order, mib):
    # the peaks the harness had when Aut(A) came from the generic image
    # search; the basis-image builder writes each depth once, in blocks
    report, peak = traced_peak(lambda: pointwise_power_harness(p, max_order))
    assert report.ok
    assert peak <= mib * MIB
