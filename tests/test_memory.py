"""The working set of verify, pinned with tracemalloc (which sees numpy's buffers).

Every stage of `meanking verify`, and the set-up, may add at its peak at most a
bound above what it holds when it is done: the set-up keeps one array of p^4
entries, `states`.  It keeps no table of the (p+1)p post rows: each reader
forms the rows it needs from the two families' kets (the outcome table a block
of rows at a time), and the entangled check takes the posts' Gram as the
entrywise product of the kets' Grams.  A check keeps nothing but its report.
The bound is one p^2 x p^2 array of the ring on the float backend
(complex128, 4.48 MB at p = 23).  On the exact backend (int64 coefficients
over N and an int64 scale per entry, 1.41 MB at p = 11) it is two such arrays:
a Gram product holds one float64 copy of its second operand, the measurement
states, for the whole check, beside the blocks taken against it.

The rounds of `simulate` hold at most one block's arrays above the set-up,
however many rounds there are, and `tomography` holds one basis at a time.
"""

import os
import tracemalloc

import numpy as np
import pytest

from meanking import protocol
from meanking.cli import main
from meanking.mub import EXACT, FLOAT, PrimeDim, build_mub_family, verify_trace_relations, verify_unbiasedness
from meanking.protocol import (
    RetrodictionSetup,
    simulate,
    verify_entangled_basis,
    verify_measurement_basis,
    verify_retrodiction,
)

CASES = {FLOAT: (23, 1), EXACT: (11, 2)}  # backend: (p, bound in p^2 x p^2 arrays)


def array_bytes(p, backend):
    """The bytes of one p^2 x p^2 array of the ring."""
    entries = p**4
    return entries * 16 if backend == FLOAT else entries * (p + 1) * 8


def ring_bytes(a):
    """The bytes of a float array, or of an exact one's coefficients and scales."""
    return a.nbytes if isinstance(a, np.ndarray) else a.c.nbytes + a.t.nbytes


def peak_above_kept(stage):
    """The stage's result, and its traced peak above what it holds at the end."""
    tracemalloc.start()
    try:
        result = stage()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - kept


@pytest.mark.parametrize("backend", sorted(CASES))
def test_no_stage_holds_a_second_full_size_array(backend):
    p, arrays = CASES[backend]
    dim, bound = PrimeDim(p), arrays * array_bytes(p, backend)
    peaks = {}
    for name, check in [
        ("unbiasedness", lambda: verify_unbiasedness(build_mub_family(dim, "object", backend))),
        ("trace_relations", lambda: verify_trace_relations(dim, backend)),
    ]:
        report, peaks[name] = peak_above_kept(check)
        assert report.passed
    setup, peaks["setup"] = peak_above_kept(lambda: RetrodictionSetup(dim, backend))
    for check in (verify_entangled_basis, verify_measurement_basis, verify_retrodiction):
        report, peaks[report.name] = peak_above_kept(lambda: check(setup))
        assert report.passed
    over = {name: f"{peak / 1e6:.2f} MB" for name, peak in peaks.items() if peak > bound}
    assert not over, f"past {bound / 1e6:.2f} MB: {over}"


def test_rounds_hold_one_block_whatever_their_count(monkeypatch):
    setup = RetrodictionSetup(PrimeDim(7))
    monkeypatch.setattr(protocol, "RetrodictionSetup", lambda dim, backend: setup)
    simulate(PrimeDim(7), 2 * protocol._BLOCK_MIN)  # the CDF tables and the kernel's constants, built once
    # a block's uint32 words per round: its key table twice, as bytes and as
    # words (18 words for a five-digit round), the kept state mt[0..K] and
    # mt[397..397+K-1], and the chain's eight rows
    bound = protocol._BLOCK_ROUNDS * 4 * (2 * 18 + 2 * protocol._BLOCK_WORDS + 1 + 8)
    peaks = {rounds: peak_above_kept(lambda: simulate(PrimeDim(7), rounds))[1] for rounds in (20000, 60000)}
    assert max(peaks.values()) <= bound, f"past {bound / 1e6:.2f} MB: {peaks}"
    assert abs(peaks[60000] - peaks[20000]) <= 0.01 * bound, peaks


def states_and_allowance(setup):
    """`states`, and the allowance beside it: the two families, which the public
    accessors read, and a tenth of one p^2 x p^2 array for the slot table, the
    king's table and |Phi>.  The post table, (p+1)/p of one such array, does not fit."""
    allowance = sum(ring_bytes(fam.bases) for fam in setup.families) + array_bytes(setup.dim.p, setup.backend) / 10
    return ring_bytes(setup.states) + allowance


@pytest.mark.parametrize("backend", sorted(CASES))
def test_setup_keeps_no_p4_array_but_states(backend):
    # the outcome table held 1.66 MB at exact p = 11, the post table 1.53 MB
    p, _ = CASES[backend]
    tracemalloc.start()
    try:
        setup = RetrodictionSetup(PrimeDim(p), backend)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    bound = states_and_allowance(setup)
    assert kept <= bound, f"{kept / 1e6:.2f} MB held, past {bound / 1e6:.2f} MB"


@pytest.mark.parametrize("backend", sorted(CASES))
def test_no_post_table_is_held_by_the_setup_or_after_verify(backend):
    p, _ = CASES[backend]
    dim = PrimeDim(p)
    tracemalloc.start()
    try:
        reports = [verify_unbiasedness(build_mub_family(dim, "object", backend)), verify_trace_relations(dim, backend)]
        setup = RetrodictionSetup(dim, backend)
        held = {"setup": tracemalloc.get_traced_memory()[0]}
        reports += [check(setup) for check in (verify_entangled_basis, verify_measurement_basis, verify_retrodiction)]
        held["checks"] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert all(report.passed for report in reports)
    assert "posts" not in vars(setup)
    bound = states_and_allowance(setup)
    over = {stage: f"{kept / 1e6:.2f} MB" for stage, kept in held.items() if kept > bound}
    assert not over, f"past {bound / 1e6:.2f} MB: {over}"


def test_cdf_tables_are_held_once():
    # the allowance: the two arrays' headers, their tuple and the cached entry;
    # the tables were once held a second time as lists of ints (0.26 MB for
    # 0.13 MB of tables at p = 11)
    setup = RetrodictionSetup(PrimeDim(11), EXACT)
    tracemalloc.start()
    try:
        tables = setup._cdf_tables
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    bound = sum(table.nbytes for table in tables) + 4096
    assert kept <= bound, f"{kept / 1e6:.3f} MB held, past {bound / 1e6:.3f} MB"


def tomography_peak(p, *flags):
    main(["tomography", "--p", "3", "--out", os.devnull, *flags])  # the parser and numpy's lazy imports, once
    tracemalloc.start()
    try:
        assert main(["tomography", "--p", str(p), "--out", os.devnull, *flags]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tomography_holds_one_basis_at_a_time():
    p = 79
    peak = tomography_peak(p)
    # 16 p x p complex arrays; the (p+1) x p x p family alone is 80 of them
    bound = 16 * p * p * 16
    assert peak <= bound, f"{peak / 1e6:.2f} MB, past {bound / 1e6:.2f} MB"


def test_tomography_json_holds_one_basis_at_a_time():
    # the same bound as text mode: the JSON is written from the arrays a row at a
    # time, where a dict per entry once peaked at 3.53 MB
    p = 79
    peak = tomography_peak(p, "--json")
    bound = 16 * p * p * 16
    assert peak <= bound, f"{peak / 1e6:.2f} MB, past {bound / 1e6:.2f} MB"
