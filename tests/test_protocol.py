"""Bipartite protocol: entangled basis, bracket states, certain retrodiction."""

import bisect
import dataclasses
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
from meanking.cyclotomic import (
    Amplitude,
    CyclotomicInt,
    _FloatRing,
    _hermitian_deviations,
    _lifted,
    _RingArray,
    _scales,
    exact_overlap,
)
from meanking.mub import EXACT, FLOAT, CheckReport, PrimeDim, build_mub_family, verify_unbiasedness
from meanking.protocol import (
    PRNG_NAME,
    BracketLabel,
    RetrodictionSetup,
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
        wording = r"(m must be an integer in 0\.\.3|k must be an integer in 1\.\.3), got"
        with pytest.raises(ValueError, match=wording):
            setup.post(m, k)
        with pytest.raises(ValueError, match=wording):
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

    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    def test_exhaustive_check_refuses_p5_before_any_label_row(self, monkeypatch, backend):
        # (5^6)^2 pairs would take about 40 minutes
        setup = setup_for(5, backend)

        def refuse(*args, **kwargs):
            raise AssertionError("bracket rows built for an exhaustive check past p = 3")

        monkeypatch.setattr(protocol, "_bracket_rows", refuse)
        with pytest.raises(ValueError, match=r"p <= 3.*sample_pairs"):
            verify_bracket_closed_form(setup)


class TestMeasurementBasis:
    @pytest.mark.parametrize(
        "call",
        [
            lambda label: measurement_label(PrimeDim(3), 1, 1).agreements(label),
            lambda label: bracket_state(setup_for(3), label),
        ],
    )
    def test_labels_of_another_p_are_refused(self, call):
        with pytest.raises(ValueError, match="label dimension mismatch"):
            call(measurement_label(PrimeDim(2), 1, 1))

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

    def test_a_round_builds_the_one_label_it_returns(self, monkeypatch):
        # a fresh set-up: no label list is built for a round to index
        setup, built = RetrodictionSetup(PrimeDim(13)), []
        post_init = BracketLabel.__post_init__
        monkeypatch.setattr(BracketLabel, "__post_init__", lambda label: built.append(label) or post_init(label))
        record = run_round(setup, None, 5)
        assert len(built) == 1 and built[0] is record.physicist_outcome

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

    @pytest.mark.parametrize("rounds, seed", [(True, 0), (2.0, 0), ("3", 0), (3, False), (3, 1.0), (3, "1"), (3, None)])
    def test_rounds_and_seed_must_be_integers_before_the_set_up(self, rounds, seed, monkeypatch):
        def refuse(*args):
            raise AssertionError("set-up built for a refused request")

        monkeypatch.setattr(protocol, "RetrodictionSetup", refuse)
        with pytest.raises(ValueError, match="must be an integer"):
            simulate(PrimeDim(3), rounds, seed=seed)

    def test_round_dicts_build_each_label_they_list_once(self, monkeypatch):
        built, post_init = [], BracketLabel.__post_init__
        monkeypatch.setattr(BracketLabel, "__post_init__", lambda label: built.append(label) or post_init(label))
        one = protocol.SimulationSummary(31, 1, 1, 0, "uniform", FLOAT, kept_rounds=[(5, 3, 700)])
        assert [r["physicist_outcome"] for r in one.round_dicts()] == [protocol._label_slots(31)[700].tolist()]
        assert len(built) == 1  # of the 961 labels at p = 31
        summary = simulate(PrimeDim(3), rounds=300, seed=4, keep_records=True)
        built.clear()
        assert len(list(summary.round_dicts())) == 300
        assert len(built) == len({index for _, _, index in summary.kept_rounds}) <= 9

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


def simulate_by_fresh_generators(setup, rounds, strategy, seed, planted=False):
    """Reference: `with_rounds(simulate(..., keep_records=True))` as the
    rounds were once played, a fresh random.Random(f"{seed}:{i}") per round,
    randrange for the king's choice and for each integer CDF, and the CDFs
    rebuilt from the Fraction weights through math.lcm (with `planted`, the
    set-up's own CDFs as they were planted)."""
    p = setup.dim.p
    fixed_m = parse_strategy(strategy, p)
    if planted:
        (king, outcome), keys = setup._cdf_tables, itertools.product(range(p + 1), range(1, p + 1))
        king, outcome = dict(enumerate(king.tolist())), dict(zip(keys, outcome.tolist()))
    else:
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


def entangled_grams_against_posts(setup):
    """Reference: `_entangled_grams` as it was while the set-up held the post
    table.  Each block's entangled rows, formed from the posts, are taken
    against the posts from the block's first basis on, and the phase sums are
    applied to that product; |Phi> is also taken against itself."""
    p, ring = setup.dim.p, setup._ring
    posts = setup.posts
    phases, against = protocol._phase_rows(ring, p), ring.gram_against(posts)

    def entangled(bases):
        if bases is None:
            return setup.prepared[None]
        count = bases.stop - bases.start
        by_k = posts[bases.start * p : bases.stop * p].reshape(count, p, p * p).swapaxes(1, 2)
        sums = ring.gram(phases, by_k.reshape(count * p * p, p))  # [j-1, (m, entry)]
        return ring.over_sqrt_p(sums.reshape(p - 1, count, p * p).swapaxes(0, 1).reshape(count * (p - 1), p * p))

    def block(bases):
        rows, first = (1, 0) if bases is None else ((bases.stop - bases.start) * (p - 1), bases.start * p)
        sums = ring.gram_against(against(entangled(bases), first).reshape(-1, p))(phases)
        gram = ring.over_sqrt_p(sums.reshape(p - 1, rows, -1).swapaxes(0, 1).swapaxes(1, 2).reshape(rows, -1))
        if bases is None:
            gram = ring.concat([ring.gram(setup.prepared[None], setup.prepared[None]), gram], axis=1)
        return gram

    return map(block, protocol._entangled_bases(p))


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


SIDES = ("object", "ancilla")  # the order of `RetrodictionSetup.families`


def family_kets(setup, side):
    """The kets of the object (side 0) or ancilla (side 1) family as rows [m*p + k - 1, j]."""
    p = setup.dim.p
    return setup.families[side].bases.reshape((p + 1) * p, p)


def replace_ket(setup, side, row, ket):
    """Replace ket `row` (m*p + k - 1) of one family of the set-up, and so the
    post row it is a factor of, as every reader forms the post rows from the kets."""
    p, families = setup.dim.p, list(setup.families)
    kets = replace_row(family_kets(setup, side), row, ket)
    families[side] = dataclasses.replace(families[side], bases=kets.reshape(p + 1, p, p))
    setup.families = tuple(families)


@st.composite
def corrupted_setups(draw, primes, names=(*SIDES, "states", "prepared"), corruptions=st.integers(0, 3)):
    """A fresh set-up at one of the primes on either backend, with as many
    `corruptions` of a row: a ket of the object or ancilla family, a row of
    `states`, or `prepared`, replaced by another row, by the sum of two rows,
    or by a row times a power of q.  A ket is replaced from kets of its own
    class, basis 0 or bases 1..p, whose exact scale it shares."""
    p, backend = draw(st.sampled_from(primes)), draw(st.sampled_from([EXACT, FLOAT]))
    setup = RetrodictionSetup(PrimeDim(p), backend)
    ring = setup._ring
    for _ in range(draw(corruptions)):
        name = draw(st.sampled_from(names))
        if name in SIDES:
            rows = family_kets(setup, SIDES.index(name))
            i = draw(st.integers(0, len(rows) - 1))
            j, k = (draw(st.integers(*((0, p - 1) if i < p else (p, len(rows) - 1)))) for _ in range(2))
        else:
            rows = setup.prepared[None] if name == "prepared" else getattr(setup, name)
            i, j, k = (draw(st.integers(0, len(rows) - 1)) for _ in range(3))
        kind = draw(st.sampled_from(["copy", "sum", "phase"]))
        row = {"copy": lambda: rows[j], "sum": lambda: rows[j] + rows[k], "phase": lambda: ring.phase(rows[i], k)}
        if name in SIDES:
            replace_ket(setup, SIDES.index(name), i, row[kind]())
        else:
            rows = replace_row(rows, i, row[kind]())
            setattr(setup, name, rows[0] if name == "prepared" else rows)
    return setup


def bracket_rows_by_fold(setup, slots):
    """Reference: `_bracket_rows` as it was before it kept one running sum, all
    the labels at once, the gathered post rows summed by `_RingArray.__add__`
    (each sum lifting both operands entry by entry) and then less |Phi>."""
    p, ring = setup.dim.p, setup._ring
    index = np.arange(p + 1) * p + np.asarray(slots, dtype=int).reshape(-1, p + 1) - 1
    terms = (setup.posts[index[:, m]] for m in range(p + 1))
    return ring.over_sqrt_p(sum(terms, next(terms))) - setup.prepared


def assert_equal_rows(a, b):
    """Two ring arrays hold the same values at the same scales, a zero at any
    scale; two complex arrays are equal bit for bit."""
    if not isinstance(a, _RingArray):
        assert np.array_equal(a, b)
        return
    assert np.array_equal(_scales(a), _scales(b))
    top = _scales(a)
    assert np.array_equal(_lifted(a, top), _lifted(b, top))


def first_words_by_generators(seed, rounds, count):
    """Reference: the first `count` getrandbits(32) of random.Random(f"{seed}:{i}") per round."""
    generators = (random.Random(f"{seed}:{i}") for i in rounds)
    return np.array([[rng.getrandbits(32) for _ in range(count)] for rng in generators], dtype=np.uint32).T


def advanced(seed, words):
    """Reference: random.Random(seed) after `words` calls of getrandbits(32)."""
    rng = random.Random(seed)
    for _ in range(words):
        rng.getrandbits(32)
    return rng


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
        # one column per draw, on the words of its own generator, as many as no
        # draw here reads past
        setup = setup_for(5, backend)
        king, outcome = setup._cdf_tables
        tables = [(setup.king_weights[m], king, m) for m in range(6)]
        tables += [(weights, outcome, row) for row, weights in enumerate(setup.outcome_weights.values())]
        for cdfs in (king, outcome):
            seeds = [seed for seed in range(2000) if tables[seed % len(tables)][1] is cdfs]
            rows = np.array([tables[seed % len(tables)][2] for seed in seeds])
            used = np.zeros(len(seeds), dtype=np.int64)
            got = protocol._sample_words(cdfs, rows, first_words_by_generators("ref", seeds, 64), used)
            for column, seed in enumerate(seeds):
                ref_rng = random.Random(f"ref:{seed}")
                assert got[column] == sample_index_by_lcm(tables[seed % len(tables)][0], ref_rng), seed
                assert advanced(f"ref:{seed}", used[column]).getstate() == ref_rng.getstate(), seed

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

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    def test_bracket_rows_equal_the_folded_sums(self, p, backend):
        setup = setup_for(p, backend)
        slots = [label.slots for label in setup.labels]
        assert_equal_rows(protocol._bracket_rows(setup, slots), bracket_rows_by_fold(setup, slots))
        assert_equal_rows(setup.states, bracket_rows_by_fold(setup, slots))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    @pytest.mark.parametrize("corrupt", ["post_0_1_is_post_1_1", "post_1_1_is_post_0_1", "post_2_2_is_zero"])
    def test_bracket_rows_of_corrupted_posts_equal_the_folded_sums(self, p, backend, corrupt):
        setup = RetrodictionSetup(PrimeDim(p), backend)
        # a post row corrupted through its kets: both copied from another post's, or a zero object ket
        if corrupt == "post_2_2_is_zero":
            ket = family_kets(setup, 0)[2 * p + 1]
            replace_ket(setup, 0, 2 * p + 1, ket - ket)
        else:
            row, source = {"post_0_1_is_post_1_1": (0, p), "post_1_1_is_post_0_1": (p, 0)}[corrupt]
            for side in (0, 1):
                replace_ket(setup, side, row, family_kets(setup, side)[source])
        slots = [label.slots for label in setup.labels]
        assert_equal_rows(protocol._bracket_rows(setup, slots), bracket_rows_by_fold(setup, slots))

    def test_bracket_rows_refuse_mixed_parities_as_the_fold_did(self):
        setup = RetrodictionSetup(PrimeDim(3), EXACT)
        # a scale-0 object ket in basis 1: its post row at scale 1 among scale-2 rows
        replace_ket(setup, 0, 3, family_kets(setup, 0)[0])
        slots = [label.slots for label in setup.labels]
        for build in (protocol._bracket_rows, bracket_rows_by_fold):
            with pytest.raises(ValueError, match="odd and even powers"):
                build(setup, slots)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("backend", [EXACT, FLOAT])
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_exhaustive_bracket_check_reports_what_blocked_grams_reported(self, p, backend, corrupt):
        setup = RetrodictionSetup(PrimeDim(p), backend)
        if corrupt:  # post_0_1_is_post_1_1 of the violation captures
            for side in (0, 1):
                replace_ket(setup, side, 0, family_kets(setup, side)[p])
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

    @pytest.mark.parametrize(
        "p, backend", [*((p, EXACT) for p in [2, 3, 5, 7]), *((p, FLOAT) for p in [2, 3, 5, 7, 11, 13, 23])]
    )
    def test_entangled_grams_equal_the_grams_against_the_posts(self, p, backend):
        self.check_entangled_grams(setup_for(p, backend))

    # one ket corrupted alone: the Grams of the object and ancilla kets are
    # multiplied, so either family's fault shows
    @settings(max_examples=60, deadline=None)
    @given(corrupted_setups([2, 3, 5], names=(*SIDES, "prepared"), corruptions=st.just(1)))
    def test_entangled_grams_of_a_corrupted_ket_equal_the_grams_against_the_posts(self, setup):
        self.check_entangled_grams(setup)

    @staticmethod
    def check_entangled_grams(setup):
        ring = setup._ring
        blocks, reference = list(protocol._entangled_grams(setup)), list(entangled_grams_against_posts(setup))
        assert [block.shape for block in blocks] == [block.shape for block in reference]
        for got, want in zip(blocks, reference):
            if setup.backend == EXACT:
                assert not ring.deviates(got - want, 0).any()
            else:
                assert np.max(np.abs(got - want)) <= 1e-12
        pairs = [{"n": i, "n2": j} for i, j, _ in _hermitian_deviations(ring, iter(reference), np.equal)]
        assert verify_entangled_basis(setup).violations == pairs

    @pytest.mark.parametrize("p", PRIMES_TO_31)
    def test_labels_equal_the_measurement_labels(self, p):
        dim = PrimeDim(p)
        ks = range(1, p + 1)
        labels = [BracketLabel(p, tuple(row)) for row in protocol._label_slots(p).tolist()]
        assert labels == [measurement_label(dim, k0, k1) for k0 in ks for k1 in ks]

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
        keys = itertools.product(range(p + 1), range(1, p + 1))  # (m, k) of row m*p + k - 1
        assert setup.outcome_weights == dict(zip(keys, by_amplitudes(setup.outcome_table)))
        rows = [*setup.king_weights.values(), *setup.outcome_weights.values()]
        assert all(type(w) is Fraction for row in rows for w in row)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_integer_cdfs_equal_the_lcm_cdfs(self, p):
        setup = setup_for(p)
        king, outcome = setup._cdf_tables
        assert king.tolist() == [cdf_by_lcm(setup.king_weights[m]) for m in range(p + 1)]
        assert outcome.tolist() == [cdf_by_lcm(w) for w in setup.outcome_weights.values()]
        assert king.dtype == outcome.dtype == np.int64


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
@given(st.integers(1, 2**63 - 1), st.integers(-(2**64), 2**64))
@example(1, 0)
@example(2**32, 7)
@example(2**32 + 1, 7)
@example(2**60 - 1, 5)  # a float rounds it up to 2^60
@example(2**63 - 1, 3)
def test_below_draws_what_randrange_draws(n, seed):
    # one column on its generator's words, as many as no draw here reads past
    rng, ref, used = random.Random(seed), random.Random(seed), np.zeros(1, dtype=np.int64)
    words = np.array([[rng.getrandbits(32)] for _ in range(64)], dtype=np.uint32)
    assert protocol._below_words(words, used, np.array([n])).tolist() == [ref.randrange(n)]
    assert advanced(seed, used[0]).getstate() == ref.getstate()


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


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_the_set_up_forms_each_post_row_once_and_the_entangled_check_none(backend, monkeypatch):
    # structural: |Phi> and its overlaps with the posts (the king's table, the
    # entangled check's |Phi> row) are taken from the kets, so the bracket
    # states' pass is the only one over the post rows, with no hook on it
    formed, post_rows = [], RetrodictionSetup._post_rows

    def counted(self, rows):
        formed.extend(range((self.dim.p + 1) * self.dim.p)[rows])
        return post_rows(self, rows)

    monkeypatch.setattr(RetrodictionSetup, "_post_rows", counted)
    p = 7
    setup = RetrodictionSetup(PrimeDim(p), backend)
    assert sorted(formed) == list(range((p + 1) * p))
    formed.clear()
    assert verify_entangled_basis(setup).passed
    assert formed == []
    assert not [c for c in RetrodictionSetup.__init__.__code__.co_consts if hasattr(c, "co_code")]


@pytest.mark.parametrize("p", [2, 3, 5, 31])
def test_a_single_measurement_label_forms_its_own_slots_only(p, monkeypatch):
    asked, label_slots = [], protocol._label_slots
    monkeypatch.setattr(protocol, "_label_slots", lambda p, labels=None: asked.append(labels) or label_slots(p, labels))
    table = label_slots(p)
    for k0, k1 in [(1, 1), (1, p), (p, 1), (p, p), (2 % p + 1, p // 2 + 1)]:
        asked.clear()
        assert measurement_label(PrimeDim(p), k0, k1).slots == tuple(table[(k0 - 1) * p + k1 - 1].tolist())
        assert asked == [(k0 - 1) * p + k1 - 1]


class TestBlockRounds:
    """Rounds drawn a block at a time from CPython's MT19937 as uint32 columns
    must draw what a fresh random.Random(f"{seed}:{i}") per round draws: the
    kernel pins string seeding v2 (bytes plus their SHA-512 digest, one
    integer) and init_by_array against the generator itself."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.one_of(st.just(0), st.integers(-(2**80), -1), st.integers(2**64, 2**80)),
        edge=st.sampled_from([10, 100, 10000]),
        before=st.integers(1, 6),
        after=st.integers(1, 6),
        count=st.integers(1, 16),
    )
    @example(seed=0, edge=100, before=3, after=3, count=12)  # keys of 17 words, then of 18
    @example(seed=42, edge=10, before=2, after=2, count=protocol._MT_N - protocol._MT_M)  # the most words a block keeps
    @example(seed=-(2**64), edge=10000, before=1, after=1, count=1)
    def test_first_words_are_the_generators_first_outputs(self, seed, edge, before, after, count):
        rounds = range(edge - before, edge + after)
        got = protocol._first_words(seed, rounds, count)
        assert got.dtype == np.uint32
        assert np.array_equal(got, first_words_by_generators(seed, rounds, count))

    def test_first_words_take_sha512_before_random_binds_it(self, monkeypatch):
        # CPython 3.13 binds random._sha512 only once some generator is seeded
        # with a str; a process whose first draw is the kernel's must not need it
        want = first_words_by_generators(5, range(95, 105), 3)
        monkeypatch.setattr(random, "_sha512", None)
        assert np.array_equal(protocol._first_words(5, range(95, 105), 3), want)

    def test_a_block_can_straddle_a_change_of_key_length(self):
        rounds = range(97, 103)
        lengths = {len(protocol._key_words(0, piece)) for piece in protocol._same_length(rounds)}
        assert lengths == {17, 18}
        assert np.array_equal(protocol._first_words(0, rounds, 3), first_words_by_generators(0, rounds, 3))

    @pytest.mark.parametrize("p, backend", [(2, EXACT), (3, EXACT), (7, EXACT), (13, EXACT), (17, FLOAT), (31, FLOAT)])
    @pytest.mark.parametrize("words", [None, 1, 2])  # the block's words, or a budget that spills nearly every round
    def test_simulate_draws_what_fresh_generators_drew_across_blocks(self, p, backend, words, monkeypatch):
        setup = setup_for(p, backend)
        monkeypatch.setattr(protocol, "RetrodictionSetup", lambda dim, backend: setup)
        monkeypatch.setattr(protocol, "_BLOCK_ROUNDS", 250)
        monkeypatch.setattr(protocol, "_BLOCK_MIN", 40)
        if words is not None:
            monkeypatch.setattr(protocol, "_BLOCK_WORDS", words)
        for strategy, seed in [("uniform", 7), (f"fixed:{p}", -(2**70))]:
            want = simulate_by_fresh_generators(setup, 1130, strategy, seed)  # blocks from 10, 100, 350, 600, 850 and 1000
            got = simulate(PrimeDim(p), rounds=1130, strategy=strategy, seed=seed, keep_records=True)
            assert with_rounds(got) == want, (strategy, seed)

    def test_simulate_draws_what_fresh_generators_drew_past_a_full_block(self, monkeypatch):
        setup = setup_for(7)
        monkeypatch.setattr(protocol, "RetrodictionSetup", lambda dim, backend: setup)
        rounds = 1000 + protocol._BLOCK_ROUNDS + protocol._BLOCK_MIN
        got = simulate(PrimeDim(7), rounds=rounds, seed=3, keep_records=True)
        assert with_rounds(got) == simulate_by_fresh_generators(setup, rounds, "uniform", 3)

    def test_keys_past_624_words_and_totals_past_one_word_are_drawn_alone(self, monkeypatch):
        setup = RetrodictionSetup(PrimeDim(3), EXACT)
        monkeypatch.setattr(protocol, "RetrodictionSetup", lambda dim, backend: setup)
        # "<seed>:<round>" of rounds 100..999 with its digest fills 624 32-bit
        # words at 2428 digits, which the kernel takes; one digit more, and a
        # seed of 2500 digits, are drawn alone
        first_words, kernel = protocol._first_words, []
        monkeypatch.setattr(protocol, "_first_words", lambda *args: kernel.append(args) or first_words(*args))
        for seed, keyed in [(10**2427, True), (10**2428, False), (10**2500, False)]:
            kernel.clear()
            got = simulate(PrimeDim(3), rounds=1000, seed=seed, keep_records=True)
            assert bool(kernel) == keyed
            assert with_rounds(got) == simulate_by_fresh_generators(setup, 1000, "uniform", seed)

        # totals of 33 and 62 bits, drawn from the kernel (900 rounds from 100)
        # and from a generator per round (the rest)
        setup = RetrodictionSetup(PrimeDim(3), EXACT)
        king, outcome = setup._cdf_tables
        setup._cdf_tables = king << 31, outcome << 60  # totals of 3 * 2^31 and 3 * 2^60
        assert {int(row[-1]).bit_length() for table in setup._cdf_tables for row in table} == {33, 62}
        got = simulate(PrimeDim(3), rounds=1200, seed=1, keep_records=True)
        assert got.success_rate == 1.0
        assert with_rounds(got) == simulate_by_fresh_generators(setup, 1200, "uniform", 1, planted=True)

    def test_every_round_is_drawn_by_the_one_word_rule(self, monkeypatch):
        # structural: each way a round is played reaches `_draws` with a
        # column for every round, and a round that reads past its words again
        columns, draws = [], protocol._draws

        def counted(setup, m, seeds, words):
            columns.append(words.shape[1])
            return draws(setup, m, seeds, words)

        setup = setup_for(3)
        monkeypatch.setattr(protocol, "RetrodictionSetup", lambda dim, backend: setup)
        monkeypatch.setattr(protocol, "_draws", counted)
        short = protocol._BLOCK_MIN - 1
        plays = {
            "run_round": (lambda: run_round(setup, None, 5), 1),
            "one round": (lambda: simulate(PrimeDim(3), 1), 1),
            "blocks under _BLOCK_MIN": (lambda: simulate(PrimeDim(3), short), short),
            "a seed of 2500 digits": (lambda: simulate(PrimeDim(3), 600, seed=10**2500 - 1), 600),
        }
        for name, (play, rounds) in plays.items():
            columns.clear()
            play()
            assert sum(columns) >= rounds, name
        monkeypatch.setattr(protocol, "_BLOCK_WORDS", 1)  # nearly every round reads past its one word
        columns.clear()
        simulate(PrimeDim(3), 2 * protocol._BLOCK_MIN)  # blocks of 10, 90 and 900 rounds
        assert len(columns) > 3 and sum(columns) > 2 * protocol._BLOCK_MIN


# --- the float checks' Hermitian screen ---

SCREENED = {"measurement_basis": verify_measurement_basis, "retrodiction": verify_retrodiction}


def complex_walks(patch):
    """The names of the checks whose complex walk `_screened` takes on the float
    ring, one per walk, into a list filled as they run."""
    walks, screened = [], protocol._screened

    def counted(ring, walk):
        def counting(on):
            if on is ring and isinstance(ring, _FloatRing):
                walks.append(walk.__qualname__.split(".")[0].removeprefix("verify_"))
            return walk(on)

        return screened(ring, counting)

    patch.setattr(protocol, "_screened", counted)
    return walks


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_a_correct_float_setup_takes_no_complex_walk(p, monkeypatch):
    walks = complex_walks(monkeypatch)
    setup = setup_for(p, FLOAT)
    assert all(check(setup).passed for check in SCREENED.values())
    assert walks == []


@pytest.mark.parametrize("entries, residue", [((1, 5), [1, -1]), ((1, 5), [1j, 1j]), ((0,), [1j])])
@pytest.mark.parametrize("factor", [0.49, 0.51])
def test_a_state_residue_past_eps_sends_the_checks_of_the_states_to_the_walk(entries, residue, factor, monkeypatch):
    # an anti-Hermitian residue in state row 7 at p = 5, S_01 and S_10 or S_00:
    # the Hermitian test reads 2 * factor * eps
    setup = RetrodictionSetup(PrimeDim(5), FLOAT)
    setup.states = setup.states.copy()
    setup.states[7, list(entries)] += np.array(residue) * factor * setup._ring.screen.eps
    walks = complex_walks(monkeypatch)
    for name, check in SCREENED.items():
        walks.clear()
        assert check(setup).passed  # the residue is far below FLOAT_ATOL
        assert walks == ([name] if factor > 0.5 else [])
    walks.clear()
    assert verify_entangled_basis(setup).passed and walks == []


@settings(max_examples=60, deadline=None)
@given(corrupted_setups([2, 3, 5]))
def test_screened_checks_report_what_the_complex_walk_reports(setup):
    def outcome(check):  # an exact weight of a corrupted set-up can be irrational
        try:
            return check(setup).to_json()
        except ValueError as error:
            return str(error)

    reports = list(map(outcome, SCREENED.values()))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "_screened", lambda ring, walk: walk(ring))
        assert list(map(outcome, SCREENED.values())) == reports


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_passing_walks_locate_no_hits(backend, monkeypatch):
    def refuse(*args):
        raise AssertionError("argwhere on a table without hits")

    setup = setup_for(5, backend)
    monkeypatch.setattr(np, "argwhere", refuse)
    for check in (verify_entangled_basis, verify_measurement_basis, verify_retrodiction):
        assert check(setup).passed
    assert verify_unbiasedness(setup.families[0]).passed
