"""The working set of verify, pinned with tracemalloc (which sees numpy's buffers).

Every stage of `meanking verify`, and the set-up, may add at its peak at most a
bound above what it holds when it is done: the set-up keeps `posts`, `states`
and `outcome_table`, and a check keeps nothing but its report.  The bound is
one p^2 x p^2 array of the ring on the float backend (complex128, 4.48 MB at
p = 23).  On the exact backend (int64 coefficients over N and an int64 scale
per entry, 1.41 MB at p = 11) it is two such arrays: a Gram product holds one
float64 copy of its second operand, the posts or the measurement states, for
the whole check, beside the blocks taken against it.
"""

import tracemalloc

import pytest

from meanking.mub import EXACT, FLOAT, PrimeDim, build_mub_family, verify_trace_relations, verify_unbiasedness
from meanking.protocol import (
    RetrodictionSetup,
    verify_entangled_basis,
    verify_measurement_basis,
    verify_retrodiction,
)

CASES = {FLOAT: (23, 1), EXACT: (11, 2)}  # backend: (p, bound in p^2 x p^2 arrays)


def array_bytes(p, backend):
    """The bytes of one p^2 x p^2 array of the ring."""
    entries = p**4
    return entries * 16 if backend == FLOAT else entries * (p + 1) * 8


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
