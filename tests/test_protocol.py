"""Bipartite protocol: entangled basis, bracket states, certain retrodiction."""

import bisect
import functools
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meanking import protocol
from meanking.cyclotomic import Amplitude, CyclotomicInt, _RingArray, exact_overlap
from meanking.mub import EXACT, FLOAT, CheckReport, PrimeDim, build_mub_family, verify_unbiasedness
from meanking.protocol import (
    PRNG_NAME,
    BracketLabel,
    RetrodictionSetup,
    _below,
    _sample_index,
    bracket_overlap_closed_form,
    bracket_state,
    entangled_basis,
    maximally_entangled_state,
    measurement_basis,
    measurement_label,
    parse_strategy,
    post_measurement_state,
    residue_label,
    run_round,
    simulate,
    verify_bracket_closed_form,
    verify_entangled_basis,
    verify_measurement_basis,
    verify_retrodiction,
)

PROTO_PRIMES = [2, 3, 5]


@functools.lru_cache(maxsize=None)
def setup_for(p, backend=EXACT):
    return RetrodictionSetup(PrimeDim(p), backend)


def overlap(a, b):
    """Reference: <a|b> of two states, an exact Amplitude summed entry by entry
    or a complex number."""
    if a.backend != b.backend:
        raise ValueError("backend mismatch")
    if a.backend == EXACT:
        return exact_overlap(a.amps, b.amps)
    return complex(np.vdot(a.amps, b.amps))


def to_float(state):
    """Reference: a state's amplitudes as complex numbers."""
    if state.backend == FLOAT:
        return np.asarray(state.amps)
    return np.array([a.to_complex() for a in state.amps], dtype=complex)


def with_rounds(summary):
    """A summary's JSON with its kept rounds listed, as `simulate --emit-rounds` writes it."""
    return {**summary.to_json(), "rounds_detail": list(summary.round_dicts())}


def one_over_sqrt_p(p):
    return Amplitude(CyclotomicInt.one(p), 1)


def one_over_p(p):
    return Amplitude(CyclotomicInt.one(p), 2)


class TestEntangledState:
    def test_via_computational_basis_is_diagonal(self):
        for p in PROTO_PRIMES:
            state = maximally_entangled_state(setup_for(p))
            for i in range(p):
                for j in range(p):
                    amp = state.component(i, j)
                    if i == j:
                        assert amp == one_over_sqrt_p(p)
                    else:
                        assert amp.is_zero()

    def test_every_basis_sums_to_the_prepared_state(self):
        for p in PROTO_PRIMES:
            setup = setup_for(p)
            posts = [post_measurement_state(setup, m, k).amps for m in range(p + 1) for k in range(1, p + 1)]
            prepared = maximally_entangled_state(setup).amps
            for m in range(p + 1):
                assert maximally_entangled_by_amplitudes(posts, p, m) == prepared, (p, m)

    def test_overlap_with_every_post_state(self):
        for p in PROTO_PRIMES:
            setup = setup_for(p)
            prepared = maximally_entangled_state(setup)
            for m in range(p + 1):
                for k in range(1, p + 1):
                    post = post_measurement_state(setup, m, k)
                    assert overlap(prepared, post) == one_over_sqrt_p(p)

    def test_unit_norm(self):
        for p in PROTO_PRIMES:
            state = maximally_entangled_state(setup_for(p))
            assert overlap(state, state).as_fraction() == 1


class TestPostMeasurementState:
    def test_cross_family_overlap_is_exactly_one_over_p(self):
        # the overlap amplitude itself, not its square, equals 1/p
        for p in PROTO_PRIMES:
            setup = setup_for(p)
            for m1 in range(p + 1):
                for m2 in range(p + 1):
                    if m1 == m2:
                        continue
                    for k1 in range(1, p + 1):
                        for k2 in range(1, p + 1):
                            a = post_measurement_state(setup, m1, k1)
                            b = post_measurement_state(setup, m2, k2)
                            assert overlap(a, b) == one_over_p(p), (m1, k1, m2, k2)

    def test_unit_norm(self):
        setup = setup_for(3)
        for m in range(4):
            for k in range(1, 4):
                state = post_measurement_state(setup, m, k)
                assert overlap(state, state).as_fraction() == 1

    @pytest.mark.parametrize("m, k", [(1, 0), (0, 4), (0, 0), (1, -1), (-1, 1), (4, 1)])
    def test_post_refuses_labels_out_of_range(self, m, k):
        # unchecked, (0, 4) would read the row of (1, 1), and (1, 0) that of (0, 3)
        setup = setup_for(3)
        with pytest.raises(ValueError, match=r"0 <= m <= 3 and 1 <= k <= 3"):
            setup.post(m, k)
        with pytest.raises(ValueError, match=r"0 <= m <= 3 and 1 <= k <= 3"):
            post_measurement_state(setup, m, k)

    @pytest.mark.parametrize("j_obj, j_anc", [(0, 3), (0, -1), (3, 0), (-1, 0)])
    def test_component_refuses_indices_out_of_range(self, j_obj, j_anc):
        # unchecked, (0, 3) would read component (1, 0), and (0, -1) component (2, 2)
        state = post_measurement_state(setup_for(3), 1, 1)
        with pytest.raises(ValueError, match=r"in 0\.\.2"):
            state.component(j_obj, j_anc)


class TestEntangledBasis:
    @pytest.mark.parametrize("p", PROTO_PRIMES)
    def test_gram_matrix_is_identity(self, p):
        basis = entangled_basis(setup_for(p))
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                ov = overlap(a, b)
                if i == j:
                    assert ov.as_fraction() == 1
                else:
                    assert ov.is_zero(), (i, j)

    def test_p2_has_four_states(self):
        assert len(entangled_basis(setup_for(2))) == 4

    def test_float_backend_matches_exact(self):
        p = 3
        exact = entangled_basis(setup_for(p, EXACT))
        floats = entangled_basis(setup_for(p, FLOAT))
        for a, b in zip(exact, floats):
            assert np.max(np.abs(to_float(a) - b.amps)) < 1e-12


class TestRecurrenceAndPhaseConvention:
    def test_transition_amplitude_recurrence_odd_p(self):
        # <0_{j+1}|m_k> = q^{k - j m} <0_j|m_k>, cross-multiplied form
        for p in [3, 5, 7]:
            fam = build_mub_family(PrimeDim(p), "object", EXACT)
            for m in range(1, p + 1):
                for k in range(1, p + 1):
                    ket = fam.ket(m, k)
                    for j in range(1, p):
                        ratio = Amplitude(CyclotomicInt.root_power(p, k - j * m))
                        assert (ket[j] - ratio * ket[j - 1]).is_zero(), (m, k, j)

    def test_object_ancilla_phase_convention(self):
        # <0_j|m_k> equals <m-bar_k|0-bar_j> for all j, m, k
        for p in PROTO_PRIMES:
            dim = PrimeDim(p)
            obj = build_mub_family(dim, "object", EXACT)
            anc = build_mub_family(dim, "ancilla", EXACT)
            for m in range(p + 1):
                for k in range(1, p + 1):
                    for j in range(1, p + 1):
                        lhs = obj.ket(m, k)[j - 1]
                        rhs = exact_overlap(anc.ket(m, k), anc.ket(0, j))
                        assert lhs == rhs, (p, m, k, j)


class TestBracketStates:
    def test_defining_orthogonality(self):
        for p in [2, 3]:
            dim = PrimeDim(p)
            setup = setup_for(p)
            label = measurement_label(dim, 1, residue_label(p, 2))
            state = bracket_state(setup, label)
            for m in range(p + 1):
                for k in range(1, p + 1):
                    post = post_measurement_state(setup, m, k)
                    ov = overlap(state, post)
                    if k == label.k(m):
                        assert ov.squared_modulus().as_fraction() == Fraction(1, p)
                    else:
                        assert ov.is_zero(), (m, k)

    def test_self_overlap_is_one(self):
        dim = PrimeDim(3)
        label = measurement_label(dim, 2, 3)
        state = bracket_state(setup_for(3), label)
        assert overlap(state, state).as_fraction() == 1

    def test_one_agreement_means_orthogonal(self):
        setup = setup_for(3)
        a = BracketLabel(3, (1, 1, 1, 1))
        b = BracketLabel(3, (1, 2, 3, 2))  # agrees only in slot 0
        assert a.agreements(b) == 1
        sa = bracket_state(setup, a)
        sb = bracket_state(setup, b)
        assert overlap(sa, sb).is_zero()

    def test_closed_form_values(self):
        p = 5
        a = BracketLabel(p, (1, 2, 3, 4, 5, 1))
        none_agree = BracketLabel(p, (2, 3, 4, 5, 1, 2))
        assert bracket_overlap_closed_form(a, none_agree) == Fraction(-1, p)
        one_agree = BracketLabel(p, (1, 3, 4, 5, 1, 2))
        assert bracket_overlap_closed_form(a, one_agree) == 0
        assert bracket_overlap_closed_form(a, a) == 1

    def test_direct_inner_product_matches_closed_form_exhaustively_p2(self):
        setup = setup_for(2)
        labels = [
            BracketLabel(2, slots)
            for slots in itertools.product([1, 2], repeat=3)
        ]
        states = {lab: bracket_state(setup, lab) for lab in labels}
        for a in labels:
            for b in labels:
                direct = overlap(states[a], states[b]).as_fraction()
                assert direct == bracket_overlap_closed_form(a, b), (a, b)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            BracketLabel(3, (1, 2, 3))  # too short
        with pytest.raises(ValueError):
            BracketLabel(3, (1, 2, 3, 4))  # out of range

    @pytest.mark.parametrize("m", [-1, 4])
    def test_slot_refuses_basis_labels_out_of_range(self, m):
        label = measurement_label(PrimeDim(3), 1, 2)
        assert [label.k(i) for i in range(4)] == list(label.slots)
        with pytest.raises(ValueError, match=r"in 0\.\.3"):
            label.k(m)  # unchecked, -1 would read slot 3

    @pytest.mark.parametrize("sample_pairs", [0, -1, -40])
    def test_sampled_check_refuses_fewer_than_one_pair(self, sample_pairs):
        with pytest.raises(ValueError, match="sample_pairs"):
            verify_bracket_closed_form(setup_for(2), sample_pairs=sample_pairs)


class TestMeasurementBasis:
    def test_labels_follow_the_linear_rule(self):
        dim = PrimeDim(2)
        label = measurement_label(dim, 1, 1)
        assert label.slots == (1, 1, 2)  # residue 0 maps to representative 2

    def test_distinct_labels_agree_in_exactly_one_slot(self):
        for p in PROTO_PRIMES:
            dim = PrimeDim(p)
            labels = [measurement_label(dim, k0, k1)
                      for k0 in range(1, p + 1) for k1 in range(1, p + 1)]
            for i, a in enumerate(labels):
                for b in labels[i + 1:]:
                    assert a.agreements(b) == 1, (a.slots, b.slots)

    @pytest.mark.parametrize("p", [2, 3])
    def test_orthonormal_and_complete(self, p):
        family = measurement_basis(setup_for(p))
        assert len(family) == p * p
        for i, (_, a) in enumerate(family):
            for j, (_, b) in enumerate(family):
                ov = overlap(a, b)
                if i == j:
                    assert ov.as_fraction() == 1
                else:
                    assert ov.is_zero()
        # completeness: sum of outer products is the identity on p^2 dimensions
        nsq = p * p
        total = [[Amplitude.zero(p) for _ in range(nsq)] for _ in range(nsq)]
        for _, state in family:
            for r in range(nsq):
                if state.amps[r].is_zero():
                    continue
                for c in range(nsq):
                    total[r][c] = total[r][c] + state.amps[r] * state.amps[c].conjugate()
        for r in range(nsq):
            for c in range(nsq):
                if r == c:
                    assert total[r][c].as_fraction() == 1
                else:
                    assert total[r][c].is_zero()


class TestRetrodiction:
    @pytest.mark.parametrize("p", [2, 3])
    def test_no_probability_leaks_outside_compatible_labels(self, p):
        dim = PrimeDim(p)
        setup = RetrodictionSetup(dim)
        for m in range(p + 1):
            for k in range(1, p + 1):
                weights = setup.outcome_weights[(m, k)]
                for label, w in zip(setup.labels, weights):
                    if label.k(m) == k:
                        assert w == Fraction(1, p)
                    else:
                        assert w == 0

    def test_rounds_are_always_correct(self):
        for p in [2, 3]:
            setup = RetrodictionSetup(PrimeDim(p))
            for m in list(range(p + 1)) + [None]:
                for seed in range(25):
                    record = run_round(setup, m, seed)
                    assert record.correct
                    assert record.announced_answer == record.king_outcome

    def test_king_choice_validation(self):
        setup = RetrodictionSetup(PrimeDim(3))
        with pytest.raises(ValueError):
            run_round(setup, 4, 0)

    def test_king_outcomes_look_uniform(self):
        summary = simulate(PrimeDim(3), rounds=3000, strategy="fixed:2", seed=7)
        counts = summary.histogram[2]
        assert sorted(counts) == [1, 2, 3]
        expected = 1000.0
        chi2 = sum((counts[k] - expected) ** 2 / expected for k in counts)
        assert chi2 < 25.0, counts

    def test_physicist_outcomes_uniform_over_compatible_labels(self):
        # brute-force Born oracle: p compatible labels, weight 1/p each
        dim = PrimeDim(3)
        setup = RetrodictionSetup(dim)
        for m in range(4):
            for k in range(1, 4):
                weights = setup.outcome_weights[(m, k)]
                support = [w for w in weights if w != 0]
                assert len(support) == 3
                assert all(w == Fraction(1, 3) for w in support)


class TestSimulate:
    def test_success_rate_is_exactly_one(self):
        summary = simulate(PrimeDim(3), rounds=2000, seed=11)
        assert summary.successes == 2000
        assert summary.success_rate == 1.0

    def test_fixed_strategy_populates_only_that_row(self):
        summary = simulate(PrimeDim(2), rounds=500, strategy="fixed:0", seed=3)
        assert set(summary.histogram) == {0}

    def test_same_seed_gives_identical_json(self):
        a = simulate(PrimeDim(3), rounds=400, seed=99, keep_records=True)
        b = simulate(PrimeDim(3), rounds=400, seed=99, keep_records=True)
        assert json.dumps(with_rounds(a), sort_keys=True) == json.dumps(with_rounds(b), sort_keys=True)

    def test_different_seeds_differ_somewhere(self):
        a = simulate(PrimeDim(3), rounds=200, seed=1, keep_records=True)
        b = simulate(PrimeDim(3), rounds=200, seed=2, keep_records=True)
        assert json.dumps(with_rounds(a)) != json.dumps(with_rounds(b))

    def test_strategy_parsing(self):
        assert parse_strategy("uniform", 5) is None
        assert parse_strategy("fixed:4", 5) == 4
        with pytest.raises(ValueError):
            parse_strategy("fixed:9", 5)
        with pytest.raises(ValueError):
            parse_strategy("sometimes", 5)
        with pytest.raises(ValueError):
            parse_strategy("fixed:x", 5)
        assert parse_strategy("fixed:0", 5) == 0
        # int() takes all but the last two; only the plain ASCII numeral is a strategy
        for numeral in ["+1", "-0", " 1", "1 ", "01", "00", "1_0", "\u0661", "\uff11", "", "1.0"]:
            with pytest.raises(ValueError, match="malformed strategy"):
                parse_strategy(f"fixed:{numeral}", 11)

    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate(PrimeDim(2), rounds=0)

    def test_round_dicts_refuse_a_summary_without_kept_rounds(self):
        summary = simulate(PrimeDim(3), rounds=20, seed=1)
        with pytest.raises(ValueError, match="keep_records"):
            list(summary.round_dicts())

    def test_float_backend_also_certain(self):
        summary = simulate(PrimeDim(3), rounds=300, seed=5, backend=FLOAT)
        assert summary.success_rate == 1.0


def bracket_state_by_expansion(setup, basis, label):
    """Reference: the bracket state expanded over the entangled basis,
    (1/p)(|Phi> + sum_{m, j} q^{j k_m} |m, j>), term by term."""
    p = setup.dim.p
    if setup.backend == EXACT:
        total = list(basis[0].amps)
        for m in range(p + 1):
            for j in range(1, p):
                phase = Amplitude(CyclotomicInt.root_power(p, j * label.k(m)))
                total = [acc + phase * amp for acc, amp in zip(total, basis[(p - 1) * m + j].amps)]
        return tuple(a * one_over_p(p) for a in total)
    total = np.array(basis[0].amps, dtype=complex)
    for m in range(p + 1):
        for j in range(1, p):
            total += np.exp(2j * np.pi * j * label.k(m) / p) * basis[(p - 1) * m + j].amps
    return total / p


def posts_by_amplitudes(setup):
    """Reference: the post-measurement rows |m_k m-bar_k>, one Amplitude product
    per entry, from the families' Amplitude kets."""
    p = setup.dim.p
    obj, anc = setup.families
    return tuple(
        tuple(a * b for a in obj.ket(m, k) for b in anc.ket(m, k))
        for m in range(p + 1)
        for k in range(1, p + 1)
    )


def maximally_entangled_by_amplitudes(posts, p, via_m):
    """Reference: p^{-1/2} sum_k |m_k m-bar_k>, summed entry by entry."""
    total = [Amplitude.zero(p)] * (p * p)
    for row in posts[via_m * p : (via_m + 1) * p]:
        total = [acc + amp for acc, amp in zip(total, row)]
    return tuple(a * one_over_sqrt_p(p) for a in total)


def bracket_state_by_amplitudes(posts, prepared, label):
    """Reference: the closed form p^{-1/2} sum_m |m_{k_m} m-bar_{k_m}> - |Phi>,
    entry by entry."""
    p = label.p
    rows = [posts[m * p + label.k(m) - 1] for m in range(p + 1)]
    zero = Amplitude.zero(p)
    return tuple(
        one_over_sqrt_p(p) * sum(column, zero) - phi for column, phi in zip(zip(*rows), prepared)
    )


def entangled_basis_by_amplitudes(posts, prepared, p):
    """Reference: |Phi>, then p^{-1/2} sum_k q^{-jk} |m_k m-bar_k> at index
    (p-1)m + j, entry by entry."""
    states = [prepared]
    for m in range(p + 1):
        for j in range(1, p):
            total = [Amplitude.zero(p)] * (p * p)
            for k in range(1, p + 1):
                phase = Amplitude(CyclotomicInt.root_power(p, -j * k))
                total = [acc + phase * amp for acc, amp in zip(total, posts[m * p + k - 1])]
            states.append(tuple(a * one_over_sqrt_p(p) for a in total))
    return states


def sample_index_by_lcm(weights, rng):
    """Reference: the inverse-CDF draw that rescales exact weights over their
    lcm on every call and walks the running sum."""
    if isinstance(weights[0], Fraction):
        denom = math.lcm(*[w.denominator for w in weights])
        ints = [int(w * denom) for w in weights]
        x = rng.randrange(sum(ints))
        acc = 0
        for i, w in enumerate(ints):
            acc += w
            if x < acc:
                return i
        raise AssertionError("inverse CDF fell off the end of exact weights")
    x = rng.random() * float(sum(weights))
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if x < acc:
            return i
    return len(weights) - 1


def cdf_by_lcm(weights):
    """Reference: running sums of Fraction weights scaled to integers over the
    lcm of their denominators; of float weights, np.cumsum."""
    if isinstance(weights, np.ndarray):
        return np.cumsum(weights)
    denom = math.lcm(*[w.denominator for w in weights])
    return list(itertools.accumulate(int(w * denom) for w in weights))


def simulate_by_fresh_generators(setup, rounds, strategy, seed):
    """Reference: `with_rounds(simulate(..., keep_records=True))` as the
    rounds were once played, a fresh random.Random(f"{seed}:{i}") per round,
    randrange for the king's choice and for each integer CDF, and the CDFs
    rebuilt from the Fraction weights through math.lcm."""
    p = setup.dim.p
    fixed_m = parse_strategy(strategy, p)
    king = {m: cdf_by_lcm(w) for m, w in setup.king_weights.items()}
    outcome = {key: cdf_by_lcm(w) for key, w in setup.outcome_weights.items()}

    def sample(cdf, rng):
        total = cdf[-1]
        x = rng.randrange(total) if isinstance(total, int) else rng.random() * total
        return min(bisect.bisect_right(cdf, x), len(cdf) - 1)

    histogram, details = {}, []
    for i in range(rounds):
        rng = random.Random(f"{seed}:{i}")
        m = rng.randrange(p + 1) if fixed_m is None else fixed_m
        k = 1 + sample(king[m], rng)
        label = setup.labels[sample(outcome[(m, k)], rng)]
        row = histogram.setdefault(str(m), {})
        row[str(k)] = row.get(str(k), 0) + 1
        details.append({
            "seed": f"{seed}:{i}",
            "king_choice": m,
            "king_outcome": k,
            "physicist_outcome": list(label.slots),
            "announced_answer": label.k(m),
            "correct": label.k(m) == k,
        })
    successes = sum(d["correct"] for d in details)
    return {
        "p": p,
        "rounds": rounds,
        "successes": successes,
        "success_rate": successes / rounds,
        "seed": seed,
        "strategy": strategy,
        "backend": setup.backend,
        "prng": PRNG_NAME,
        "histogram": histogram,
        "rounds_detail": details,
    }


def bracket_closed_form_by_blocked_grams(setup):
    """Reference: the exhaustive bracket check as it ran before it shared the
    sampled check's pair body, a block of 64 label rows against every row per
    Gram product."""
    p, ring = setup.dim.p, setup._ring
    labels = list(itertools.product(range(1, p + 1), repeat=p + 1))
    slots, rows = np.array(labels, dtype=int), protocol._bracket_rows(setup, labels)
    report = CheckReport(name="bracket_closed_form")
    for start in range(0, len(labels), 64):
        a, b = np.broadcast_arrays(np.arange(start, min(start + 64, len(labels)))[:, None], np.arange(len(labels)))
        want = (slots[a] == slots[b]).sum(axis=-1) - 1
        report.checks += want.size
        for index in map(tuple, np.argwhere(ring.deviates(ring.gram(rows[a[:, 0]], rows), want, p))):
            report.violations.append({"label": slots[a[index]].tolist(), "label2": slots[b[index]].tolist()})
    return report


def entangled_rows_by_two_branches(setup):
    """Reference: the entangled basis as it was built before it became one ring
    Gram, a float matmul of scalar phases or an exact sum of q^{-jk} phased rows."""
    p, ring = setup.dim.p, setup._ring
    by_k = setup.posts.reshape(p + 1, p, p * p)
    if setup.backend == FLOAT:
        phases = np.array([[np.exp(-2j * np.pi * j * k / p) for k in range(1, p + 1)] for j in range(1, p)])
        phased_sum = lambda m: phases @ by_k[m]  # [j-1, entry]
    else:
        j = np.arange(1, p)[:, None]

        def phased_sum(m):
            terms = (ring.phase(by_k[m, k - 1], -j * k) for k in range(1, p + 1))
            return sum(terms, next(terms))

    return ring.concat([setup.prepared[None]] + [ring.over_sqrt_p(phased_sum(m)) for m in range(p + 1)])


def entangled_rows_by_one_concat(setup):
    """Reference: `_entangled_rows` as it was before the entangled basis was
    built and checked a block of bases at a time, a Gram per basis m, all
    concatenated at once."""
    p, ring = setup.dim.p, setup._ring
    jk = np.arange(1, p)[:, None] * np.arange(1, p + 1)
    phases = ring.phase(ring.integers(np.ones_like(jk)), jk)  # [j-1, k-1]
    by_k = setup.posts.reshape(p + 1, p, p * p).swapaxes(1, 2)  # [m, entry, k-1]
    return ring.concat([setup.prepared[None]] + [ring.over_sqrt_p(ring.gram(phases, by_k[m])) for m in range(p + 1)])


def non_orthonormal_by_full_rows(ring, rows):
    """Reference: `_non_orthonormal` as it was before it took the Gram matrix
    as Hermitian, every block of 64 rows against all the rows."""
    n = len(rows)
    for start in range(0, n, 64):
        block = rows[start : start + 64]
        want = np.eye(len(block), n, start, dtype=int)
        for i, j in np.argwhere(ring.deviates(ring.gram(block, rows), want)):
            yield start + int(i), int(j)


def replace_row(rows, index, row):
    """A copy of a ring array (or complex array) of rows with one row replaced."""
    if isinstance(rows, _RingArray):
        return _RingArray(rows.p, replace_row(rows.c, index, row.c), replace_row(rows.t, index, row.t))
    rows = rows.copy()
    rows[index] = row
    return rows


@st.composite
def corrupted_setups(draw, primes):
    """A fresh set-up at one of the primes on either backend, with up to three
    rows of `posts`, `states` or `prepared` replaced: by another row, by the
    sum of two rows, or by a row times a power of q."""
    p, backend = draw(st.sampled_from(primes)), draw(st.sampled_from([EXACT, FLOAT]))
    setup = RetrodictionSetup(PrimeDim(p), backend)
    ring = setup._ring
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(["posts", "states", "prepared"]))
        rows = setup.prepared[None] if name == "prepared" else getattr(setup, name)
        i, j, k = (draw(st.integers(0, len(rows) - 1)) for _ in range(3))
        kind = draw(st.sampled_from(["copy", "sum", "phase"]))
        row = {"copy": lambda: rows[j], "sum": lambda: rows[j] + rows[k], "phase": lambda: ring.phase(rows[i], k)}
        rows = replace_row(rows, i, row[kind]())
        setattr(setup, name, rows[0] if name == "prepared" else rows)
    return setup


def label_slots_by_table(p):
    """Reference: measurement_label's slots for every (k0, k1) as one array, the
    set-up's vectorized copy of k_m = (m-1)k_0 + k_1, row (k0-1)p + k1-1."""
    k0, k1 = [x[:, None] + 1 for x in np.divmod(np.arange(p * p), p)]
    slots = residue_label(p, (np.arange(p + 1) - 1) * k0 + k1)
    slots[:, 0] = k0[:, 0]
    return slots


PRIMES_TO_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


class TestAgainstReferences:
    @pytest.mark.parametrize("p", [2, 3])
    def test_closed_form_equals_expansion_for_every_label(self, p):
        setup = setup_for(p)
        basis = entangled_basis(setup)
        for slots in itertools.product(range(1, p + 1), repeat=p + 1):
            label = BracketLabel(p, slots)
            assert bracket_state(setup, label).amps == bracket_state_by_expansion(setup, basis, label)

    @pytest.mark.parametrize("p", PROTO_PRIMES)
    def test_closed_form_equals_expansion_exactly(self, p):
        setup = setup_for(p)
        basis = entangled_basis(setup)
        for label, state in measurement_basis(setup):
            assert state.amps == bracket_state_by_expansion(setup, basis, label), label.slots

    @pytest.mark.parametrize("p", [7, 11])
    def test_closed_form_matches_expansion_in_floats(self, p):
        setup = RetrodictionSetup(PrimeDim(p), FLOAT)
        basis = entangled_basis(setup)
        for label, state in measurement_basis(setup):
            reference = bracket_state_by_expansion(setup, basis, label)
            assert np.max(np.abs(state.amps - reference)) <= 1e-12, label.slots

    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    def test_bisect_sampler_draws_what_the_lcm_loop_drew(self, backend):
        setup = setup_for(5, backend)
        tables = [(setup.king_weights[m], setup.king_cdfs[m]) for m in range(6)]
        tables += [(setup.outcome_weights[key], setup.outcome_cdfs[key]) for key in setup.outcome_weights]
        for seed in range(2000):
            weights, cdf = tables[seed % len(tables)]
            ref_rng, rng = random.Random(f"ref:{seed}"), random.Random(f"ref:{seed}")
            assert _sample_index(cdf, rng) == sample_index_by_lcm(weights, ref_rng), seed
            assert rng.getstate() == ref_rng.getstate(), seed

    @pytest.mark.parametrize("p", PRIMES_TO_31)
    def test_simulate_draws_what_fresh_generators_drew(self, p, monkeypatch):
        # the set-up is shared with the reference (its tables have their own
        # tests), so this compares the rounds alone
        setup = setup_for(p, EXACT if p <= protocol.SAMPLING_EXACT_MAX_P else FLOAT)
        monkeypatch.setattr(protocol, "RetrodictionSetup", lambda dim, backend: setup)
        for strategy, seed in itertools.product(["uniform", f"fixed:{p}"], [0, 42, -3]):
            want = simulate_by_fresh_generators(setup, 150, strategy, seed)
            got = simulate(PrimeDim(p), rounds=150, strategy=strategy, seed=seed, keep_records=True)
            assert with_rounds(got) == want, (strategy, seed)
            fixed_m = parse_strategy(strategy, p)
            rounds = [run_round(setup, fixed_m, f"{seed}:{i}").to_json() for i in range(10)]
            assert rounds == want["rounds_detail"][:10], (strategy, seed)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_exhaustive_bracket_check_reports_what_blocked_grams_reported(self, p, backend, corrupt):
        setup = RetrodictionSetup(PrimeDim(p), backend)
        if corrupt:  # post_0_1_is_post_1_1 of the violation captures
            setup.posts = setup.posts[np.r_[p, 1 : len(setup.posts)]]
        report = verify_bracket_closed_form(setup)
        assert report.passed != corrupt
        assert report.to_json() == bracket_closed_form_by_blocked_grams(setup).to_json()

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_exact_entangled_rows_equal_the_phased_sums(self, p):
        setup = setup_for(p)
        ring, rows, reference = setup._ring, protocol._entangled_rows(setup), entangled_rows_by_two_branches(setup)
        assert len(rows) == len(reference) == p * p
        for n in range(p * p):
            assert ring.amps(rows[n]) == ring.amps(reference[n]), n

    @pytest.mark.parametrize("p", PRIMES_TO_31)
    def test_float_entangled_rows_match_the_scalar_phase_matmul(self, p):
        setup = setup_for(p, FLOAT)
        rows, reference = protocol._entangled_rows(setup), entangled_rows_by_two_branches(setup)
        assert rows.shape == reference.shape == (p * p, p * p)
        assert np.max(np.abs(rows - reference)) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(corrupted_setups([2, 3, 5]))
    def test_blocked_gram_checks_report_what_full_rows_reported(self, setup):
        self.check_blocked_gram_checks(setup)

    # several blocks: the entangled basis in two blocks of bases at p = 7 and
    # three at p = 11, the 121 measurement rows in two blocks of 64
    @settings(max_examples=8, deadline=None)
    @given(corrupted_setups([7, 11]))
    def test_gram_checks_over_several_blocks_report_what_full_rows_reported(self, setup):
        self.check_blocked_gram_checks(setup)

    @staticmethod
    def check_blocked_gram_checks(setup):
        ring = setup._ring
        rows = protocol._entangled_rows(setup)
        reference = entangled_rows_by_one_concat(setup)
        if setup.backend == EXACT:
            assert [ring.amps(row) for row in rows] == [ring.amps(row) for row in reference]
        else:
            assert np.max(np.abs(rows - reference)) <= 1e-13
        violations = [{"n": i, "n2": j} for i, j in non_orthonormal_by_full_rows(ring, reference)]
        assert verify_entangled_basis(setup).violations == violations
        labels = [label.to_json() for label in setup.labels]
        pairs = non_orthonormal_by_full_rows(ring, setup.states)
        violations = [{"label": labels[i], "label2": labels[j]} for i, j in pairs]
        violations += [
            {"kind": "completeness", "row": r, "col": c}
            for r, c in non_orthonormal_by_full_rows(ring, setup.states.swapaxes(0, 1))
        ]
        assert verify_measurement_basis(setup).violations == violations

    @pytest.mark.parametrize("p", PRIMES_TO_31)
    def test_labels_equal_the_measurement_labels(self, p):
        dim = PrimeDim(p)
        ks = range(1, p + 1)
        assert protocol._labels(dim) == [measurement_label(dim, k0, k1) for k0 in ks for k1 in ks]

    @pytest.mark.parametrize("p", PRIMES_TO_31)
    def test_labels_equal_the_slot_table(self, p):
        setup = setup_for(p, EXACT if p <= protocol.SAMPLING_EXACT_MAX_P else FLOAT)
        assert [label.slots for label in setup.labels] == list(map(tuple, label_slots_by_table(p).tolist()))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_weights_equal_the_amplitude_fractions(self, p):
        setup = setup_for(p)

        def by_amplitudes(table):
            return [[amp.as_fraction() for amp in setup._ring.amps(row)] for row in table]

        assert setup.king_weights == dict(enumerate(by_amplitudes(setup.king_table)))
        assert setup.outcome_weights == dict(zip(setup.outcome_keys, by_amplitudes(setup.outcome_table)))
        rows = [*setup.king_weights.values(), *setup.outcome_weights.values()]
        assert all(type(w) is Fraction for row in rows for w in row)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_integer_cdfs_equal_the_lcm_cdfs(self, p):
        setup = setup_for(p)
        assert setup.king_cdfs == [cdf_by_lcm(setup.king_weights[m]) for m in range(p + 1)]
        assert setup.outcome_cdfs == {key: cdf_by_lcm(w) for key, w in setup.outcome_weights.items()}
        assert all(type(x) is int for cdf in setup.outcome_cdfs.values() for x in cdf)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_born_weight_readings_refuse_what_is_not_rational(p):
    ring, table = setup_for(p)._ring, setup_for(p).king_table
    odd_scale = np.array(table.t)
    odd_scale[0, 0] += 1
    irrational = table.c.copy()
    irrational[0, 0] = 0
    irrational[0, 0, 1] = 1  # q, or i at p = 2
    for planted in (_RingArray(p, table.c, odd_scale), _RingArray(p, irrational, table.t)):
        for read in (ring.weights, ring.cdfs):
            with pytest.raises(ValueError):
                read(planted)
    # a zero is 0 at any scale, as an Amplitude reads it
    zero = table.c.copy()
    zero[0, 0] = 0
    assert ring.weights(_RingArray(p, zero, odd_scale))[0][0] == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**70), st.integers(-(2**64), 2**64))
@example(1, 0)
@example(2**32, 7)
@example(2**70, 3)
def test_below_draws_what_randrange_draws(n, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    assert _below(n, rng) == ref.randrange(n)
    assert rng.getstate() == ref.getstate()


class TestArrayConstructionAgainstAmplitudes:
    """The exact states are built as ring arrays; the accessors must hand out
    the Amplitudes the entry-by-entry construction gives."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_states_equal_the_amplitude_construction(self, p):
        setup = setup_for(p)
        posts = posts_by_amplitudes(setup)
        assert [post_measurement_state(setup, m, k).amps for m in range(p + 1) for k in range(1, p + 1)] == list(posts)
        prepared = maximally_entangled_by_amplitudes(posts, p, 0)
        for via_m in range(p + 1):
            reference = maximally_entangled_by_amplitudes(posts, p, via_m)
            assert maximally_entangled_state(setup).amps == reference, via_m
        for label, state in measurement_basis(setup):
            assert state.amps == bracket_state_by_amplitudes(posts, prepared, label), label.slots
        rng = random.Random(p)
        for _ in range(5):  # labels outside the measurement basis too
            label = BracketLabel(p, tuple(rng.randint(1, p) for _ in range(p + 1)))
            assert bracket_state(setup, label).amps == bracket_state_by_amplitudes(posts, prepared, label)
        reference = entangled_basis_by_amplitudes(posts, prepared, p)
        assert [state.amps for state in entangled_basis(setup)] == reference


def test_exact_setup_and_checks_do_no_per_entry_arithmetic(monkeypatch):
    # structural: the families, the set-up, the protocol checks and the rounds
    # stay on the ring arrays and integer tables and build no Amplitude and no
    # Fraction
    def refuse(*args):
        raise AssertionError("per-entry Amplitude or Fraction arithmetic in the exact set-up, checks or rounds")

    monkeypatch.setattr(Amplitude, "__add__", refuse)
    monkeypatch.setattr(Amplitude, "__mul__", refuse)
    monkeypatch.setattr(Amplitude, "__init__", refuse)
    dim = PrimeDim(7)
    for side in ("object", "ancilla"):
        assert verify_unbiasedness(build_mub_family(dim, side, EXACT)).passed, side
    monkeypatch.setattr(Fraction, "__new__", refuse)
    setup = RetrodictionSetup(dim, EXACT)
    for check in (verify_entangled_basis, verify_measurement_basis, verify_retrodiction):
        assert check(setup).passed, check.__name__
    assert simulate(dim, 1000).success_rate == 1.0
