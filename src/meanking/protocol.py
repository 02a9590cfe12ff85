"""The retrodiction protocol on an object-ancilla pair.

The physicist prepares the maximally entangled state of two p-dimensional
systems, the king measures one of the p+1 complementary observables on the
object, and the physicist then measures a basis of p^2 bipartite "bracket"
states, each labeled by the tuple of outcomes (k_0, ..., k_p) it is
compatible with.  Orthogonality to every incompatible post-measurement state
makes the inference certain: the announced answer is just the label slot of
the measured observable.

Exact-backend states are int64 coefficient arrays over the cyclotomic ring
(`_ExactRing`; every ket of bases 1..p is a monomial q^e/sqrt(p)), read back as
`Amplitude` tuples only by the public accessors, and every orthogonality claim
is a literal ring zero; the float backend runs the same construction in
complex arithmetic.  Everything is built once per (p, backend) by
`RetrodictionSetup`, which every check and every round takes.  Rounds bisect
its CDFs: int64 ones (exact rationals over a common power of p), or float64.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

try:  # SHA-512 as `random` takes it for str seeds; 3.13 binds random._sha512 only at the first
    from _sha2 import sha512 as _sha512  # CPython 3.12 on
except ImportError:
    from _sha512 import sha512 as _sha512

import numpy as np

from .cyclotomic import EXACT, FLOAT, _blocks, _gram_blocks, _hermitian_deviations, _pair_overlaps, _ring
from .cyclotomic import _screened, _where
from .mub import CheckReport, PrimeDim, build_mub_family, _check_backend, _integer

# largest p for which sampling probabilities are computed in exact rationals
SAMPLING_EXACT_MAX_P = 13

PRNG_NAME = "random.Random (Mersenne Twister), per-round seed '<seed>:<round>'"


def residue_label(p: int, x: int) -> int:
    """Map an integer to its residue representative in {1..p} (0 maps to p)."""
    return (x - 1) % p + 1


@dataclass(frozen=True)
class BracketLabel:
    """The outcome tuple (k_0, ..., k_p) a bracket state is compatible with."""

    p: int
    slots: tuple[int, ...]

    def __post_init__(self):
        p = self.p
        if len(self.slots) != p + 1:
            raise ValueError(f"need {p + 1} slots, got {len(self.slots)}")
        object.__setattr__(self, "slots", tuple([_integer("slot", k, 1, p) for k in self.slots]))

    def k(self, m: int) -> int:
        return self.slots[_integer("m", m, 0, self.p)]

    def agreements(self, other: "BracketLabel") -> int:
        if self.p != other.p:
            raise ValueError("label dimension mismatch")
        return sum(a == b for a, b in zip(self.slots, other.slots))

    def to_json(self) -> list[int]:
        return list(self.slots)


def measurement_label(dim: PrimeDim, k0: int, k1: int) -> BracketLabel:
    """The basis label with k_m = (m-1)k_0 + k_1 mod p for m >= 2."""
    p = dim.p
    k0, k1 = _integer("k0", k0, 1, p), _integer("k1", k1, 1, p)
    return BracketLabel(p=p, slots=tuple(_label_slots(p, (k0 - 1) * p + k1 - 1).tolist()))


def _label_slots(p: int, labels=None) -> np.ndarray:
    """The slots of labels (k0-1)p + k1-1, all p^2 unless given, as ints
    [label, m]: k_0, then k_m = (m-1)k_0 + k_1 mod p for m >= 1."""
    k0, k1 = (x[..., None] + 1 for x in np.divmod(np.arange(p * p) if labels is None else labels, p))
    slots = residue_label(p, (np.arange(p + 1) - 1) * k0 + k1)
    slots[..., 0] = k0[..., 0]
    return slots


@dataclass(frozen=True)
class BipartiteState:
    """A p^2-component object-ancilla state in the computational product basis.

    Component (j_obj, j_anc) sits at flat index j_obj * p + j_anc (0-based).
    """

    p: int
    backend: str
    amps: tuple | np.ndarray

    def component(self, j_obj: int, j_anc: int):
        p = self.p
        return self.amps[_integer("j_obj", j_obj, 0, p - 1) * p + _integer("j_anc", j_anc, 0, p - 1)]


class RetrodictionSetup:
    """The one construction per (p, backend) that every check and round reads.

    It holds the object and ancilla families, the prepared state |Phi>
    (`prepared`), the measurement basis (`states`, row i labeled by row i of the
    slot table `_slots`) and the king's Born weights (`king_table`).  It holds no
    table of the (p+1)p post-measurement states |m_k m-bar_k>: each is the
    product of two kets of the families, and each reader forms the rows it needs
    from them (`_post_rows`); `posts` forms the whole table, row m*p + k - 1, at
    each read.  The outcome Born weights (row m*p + k - 1) are formed a block at
    a time for each reader (`_outcome_blocks`); their Fraction (float) rows,
    int64 (float64) sampling CDFs, `labels` and `outcome_table` are built on
    first read.  `states` and `prepared` are `_RingArray`s on the exact backend,
    complex arrays on the float one.
    """

    def __init__(self, dim: PrimeDim, backend: str | None = None):
        if backend is None:
            backend = EXACT if dim.p <= SAMPLING_EXACT_MAX_P else FLOAT
        _check_backend(backend)
        self.dim = dim
        self.backend = backend
        p = dim.p
        self.families = (build_mub_family(dim, "object", backend), build_mub_family(dim, "ancilla", backend))
        self._ring = ring = _ring(backend, p)
        # |Phi> = p^{-1/2} sum_k |m_k m-bar_k>, the same sum in every basis m: summed over m = 0,
        # entry [j_obj, j_anc] = p^{-1/2} sum_k <j_obj|0_k> <j_anc|0-bar_k>, the kets' product
        obj, anc = self.families[0].bases[0].swapaxes(0, 1), self.families[1].bases[0].swapaxes(0, 1)  # [j, k-1]
        self.prepared = ring.over_sqrt_p(ring.gram(obj.conj(), anc)).reshape(p * p)
        self._slots = _label_slots(p)  # [label, m]
        self.states = _bracket_rows(self, self._slots)  # the one pass over the post rows
        self.king_table = ring.abs2(self._phi_overlaps()).reshape(p + 1, p)  # [m, k-1]

    def _phi_overlaps(self):
        """<Phi|m_k m-bar_k> at m*p + k - 1 by the mixed-product rule: |Phi>'s p
        rows [j_obj, j_anc] taken against the ancilla kets, [j_obj, (m, k-1)],
        then summed over j_obj against each object ket (`_pair_overlaps`)."""
        p, ring = self.dim.p, self._ring
        obj, anc = (fam.bases.reshape((p + 1) * p, p) for fam in self.families)
        return _pair_overlaps(ring, obj.conj(), ring.gram(self.prepared.reshape(p, p), anc).swapaxes(0, 1))

    def _post_rows(self, rows: slice):
        """Rows `rows` of `posts`: |m_k> (x) |m-bar_k> at row m*p + k - 1, entry
        j_obj * p + j_anc, formed from the families' kets."""
        p = self.dim.p
        obj, anc = (fam.bases.reshape((p + 1) * p, p)[rows] for fam in self.families)
        return self._ring.mul(obj[:, :, None], anc[:, None, :]).reshape(-1, p * p)

    def _post_blocks(self):
        """The post rows in m order, formed a block of whole bases at a time."""
        p = self.dim.p
        return (self._post_rows(slice(ms.start * p, ms.stop * p)) for ms in _blocks(p + 1, p))

    @property
    def posts(self):
        """The (p+1)p post rows, formed from the current kets at each read."""
        return _filled(self._ring, (self.dim.p + 1) * self.dim.p, self._post_blocks())

    @functools.cached_property
    def labels(self) -> list[BracketLabel]:  # `_slots` as labels, for `measurement_basis` and outside readers
        return [BracketLabel(p=self.dim.p, slots=tuple(row)) for row in self._slots.tolist()]

    def _outcome_blocks(self, ring=None):
        """The outcome table [m*p + k - 1, label] as (rows, block): 32 post rows,
        formed from the kets, taken against `states` and squared (the Gram and
        its square are alive at once), on the set-up's ring or on `ring`, each
        operand taken through its `real` (`_screened`)."""
        ring = ring or self._ring
        against = ring.gram_against(ring.real(self.states))
        blocks = _blocks((self.dim.p + 1) * self.dim.p, 2)
        return ((rows, ring.abs2(against(ring.real(self._post_rows(rows))))) for rows in blocks)

    @functools.cached_property
    def outcome_table(self):  # for readers of the whole table; the library streams it
        return _filled(self._ring, (self.dim.p + 1) * self.dim.p, (block for _, block in self._outcome_blocks()))

    @functools.cached_property
    def king_weights(self) -> dict:  # {m: weights of k = 1..p}
        return dict(enumerate(self._ring.weights(self.king_table)))

    @functools.cached_property
    def outcome_weights(self) -> dict:  # {(m, k): weights of the p^2 labels}, (m, k-1) = divmod(row, p)
        rows = (row for _, block in self._outcome_blocks() for row in self._ring.weights(block))
        return {(row // self.dim.p, row % self.dim.p + 1): weights for row, weights in enumerate(rows)}

    @functools.cached_property
    def _cdf_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The king's CDFs [m, k-1] and the outcome CDFs [m*p + k - 1, label], written a block at a time."""
        king = self._ring.cdfs(self.king_table)
        outcome = np.empty(((self.dim.p + 1) * self.dim.p, len(self._slots)), dtype=king.dtype)
        for rows, block in self._outcome_blocks():
            outcome[rows] = self._ring.cdfs(block)
        return king, outcome

    def post(self, m: int, k: int):
        """The row of |m_k m-bar_k> in `posts`, formed from its two kets."""
        p = self.dim.p
        row = _integer("m", m, 0, p) * p + _integer("k", k, 1, p) - 1
        return self._post_rows(slice(row, row + 1))[0]


def _filled(ring, rows: int, blocks):
    """One array of `rows` rows, written from `blocks` of rows as they come: no
    block outlives its write, and no second full-size copy is made."""
    start = 0
    for block in blocks:
        if not start:
            out = ring.empty_like(block, rows)
        out[start : start + len(block)] = block
        start += len(block)
        del block  # released before the next block is formed
    return out


def _bracket_rows(setup: RetrodictionSetup, slots):
    """The bracket states p^{-1/2} sum_m |m_{k_m} m-bar_{k_m}> - |Phi> of a table
    of label slots, one row each: each post row formed once, gathered by the
    labels' slot k_m and added, in m order, into one running sum."""
    p = setup.dim.p
    index = np.asarray(slots, dtype=int).reshape(-1, p + 1) - 1  # [label, m] -> k - 1
    return setup._ring.gathered_sums(setup._post_blocks(), index, setup.prepared)


def _phase_rows(ring, p: int):
    """The phase rows q^{jk}, [j-1, k-1] for j = 1..p-1, k = 1..p."""
    jk = np.arange(1, p)[:, None] * np.arange(1, p + 1)
    return ring.phase(ring.integers(np.ones_like(jk)), jk)


def _entangled_bases(p: int) -> list[slice | None]:
    """The blocks of the entangled check: |Phi> (None), then blocks of bases.  A
    basis counts 2p rows: its p rows of the posts' Gram and its p - 1 rows of
    phase sums, each as long as the rows of the bases from its own on."""
    return [None, *_blocks(p + 1, 2 * p)]


def _entangled_rows(setup: RetrodictionSetup):
    """The entangled basis as one array: |Phi>, then row (p-1)m + j holds
    p^{-1/2} sum_k q^{-jk} |m_k m-bar_k> for m = 0..p, j = 1..p-1, a basis at a
    time: the Gram of the phase rows q^{jk} (`_phase_rows`; the Gram conjugates
    them) against the basis's posts as rows [entry, k-1]."""
    p, ring = setup.dim.p, setup._ring
    phases = _phase_rows(ring, p)
    rows = lambda m: ring.over_sqrt_p(ring.gram(phases, setup._post_rows(slice(m * p, (m + 1) * p)).swapaxes(0, 1)))
    return _filled(ring, p * p, itertools.chain([setup.prepared[None]], map(rows, range(p + 1))))


def _entangled_grams(setup: RetrodictionSetup):
    """The blocks `verify_entangled_basis` walks: each block of `_entangled_rows`
    against the entangled rows from its own first row on, without forming
    those rows or any post row.  By the mixed-product rule
    <o a|o' a'> = <o|o'><a|a'>, the posts' Gram is the entrywise product of the
    object kets' Gram and the ancilla kets' Gram, taken of the block's bases
    against the bases from its own on; by linearity the phase sums
    p^{-1/2} sum_k q^{-jk} of the entangled rows, the phase rows scaled once,
    are then applied to it on both sides, the bra's conjugated.  |Phi> is taken
    against itself and, through its overlaps with the posts
    (`_phi_overlaps`), against the entangled rows."""
    p, ring = setup.dim.p, setup._ring
    phases = ring.over_sqrt_p(_phase_rows(ring, p))
    kets = [fam.bases.reshape((p + 1) * p, p) for fam in setup.families]

    def ket_sums(gram):  # [row, (m', k'-1)] -> [row, (m', j'-1)]
        rows = len(gram)
        sums = ring.gram(phases, gram.reshape(-1, p))  # [j'-1, (row, m')]
        return sums.reshape(p - 1, rows, -1).swapaxes(0, 1).swapaxes(1, 2).reshape(rows, -1)

    def block(bases):
        if bases is None:
            phi = setup.prepared[None]
            return ring.concat([ring.gram(phi, phi), ket_sums(setup._phi_overlaps()[None])], axis=1)
        count, first, stop = bases.stop - bases.start, bases.start * p, bases.stop * p
        posts = ring.mul(*(ring.gram(rows[first:stop], rows[first:]) for rows in kets))  # [(m, k-1), (m', k'-1)]
        by_k = posts.reshape(count, p, -1).swapaxes(1, 2).reshape(-1, p)  # [(m, (m', k'-1)), k-1]
        sums = ring.gram(phases.conj(), by_k)  # [j-1, (m, (m', k'-1))]
        return ket_sums(sums.reshape(p - 1, count, -1).swapaxes(0, 1).reshape(count * (p - 1), -1))

    return map(block, _entangled_bases(p))


def _state(setup: RetrodictionSetup, row) -> BipartiteState:
    """One row of the setup's arrays as a state: Amplitudes on the exact backend."""
    return BipartiteState(p=setup.dim.p, backend=setup.backend, amps=setup._ring.amps(row))


def post_measurement_state(setup: RetrodictionSetup, m: int, k: int) -> BipartiteState:
    """The product state |m_k> (x) |m-bar_k> left after the king's measurement."""
    return _state(setup, setup.post(m, k))


def maximally_entangled_state(setup: RetrodictionSetup) -> BipartiteState:
    """The preparation state p^{-1/2} sum_k |m_k m-bar_k>, the same for every basis m."""
    return _state(setup, setup.prepared)


def entangled_basis(setup: RetrodictionSetup) -> list[BipartiteState]:
    """The p^2 orthonormal bipartite states: the entangled preparation state at
    index 0, then index (p-1)m + j holds p^{-1/2} sum_k q^{-jk} |m_k m-bar_k>
    for m = 0..p, j = 1..p-1."""
    return [_state(setup, row) for row in _entangled_rows(setup)]


def bracket_state(setup: RetrodictionSetup, label: BracketLabel) -> BipartiteState:
    """The unit state orthogonal to |m_k' m-bar_k'> whenever k' differs from
    the label's slot k_m, in closed form:

        |[k]> = p^{-1/2} sum_m |m_{k_m} m-bar_{k_m}> - |Phi>.

    This is the entangled-basis expansion (1/p)(|Phi> + sum_{m,j} q^{j k_m}
    |m, j>) with its phase series summed: sum_{j=1}^{p-1} q^{j(k_m - k)} is
    p delta - 1, and sum_k |m_k m-bar_k> is sqrt(p) |Phi> for every m.
    """
    if label.p != setup.dim.p:
        raise ValueError("label dimension mismatch")
    return _state(setup, _bracket_rows(setup, [label.slots])[0])


def bracket_overlap_closed_form(a: BracketLabel, b: BracketLabel) -> Fraction:
    """<[a]|[b]> as the rational (agreements - 1)/p."""
    return Fraction(a.agreements(b) - 1, a.p)


def measurement_basis(setup: RetrodictionSetup) -> list[tuple[BracketLabel, BipartiteState]]:
    """The physicist's p^2 labeled basis states, ordered by (k0-1)*p + (k1-1)."""
    return [(label, _state(setup, row)) for label, row in zip(setup.labels, setup.states)]


# --- verification drivers ---


def verify_entangled_basis(setup: RetrodictionSetup) -> CheckReport:
    """Check the p^2 x p^2 Gram matrix of the entangled basis is the identity."""
    n = setup.dim.p**2
    report = CheckReport(name="entangled_basis", checks=n * n)
    for i, j, _ in _hermitian_deviations(setup._ring, _entangled_grams(setup), np.equal):
        report.violations.append({"n": i, "n2": j})
    return report


def verify_measurement_basis(setup: RetrodictionSetup) -> CheckReport:
    """Check the labeled basis is orthonormal and resolves the identity.  On
    the float backend both Grams are first taken on the rows' real Hermitian
    coordinates (`_screened`)."""
    report = CheckReport(name="measurement_basis", checks=2 * len(setup.states) ** 2)

    def walk(ring):
        rows, slots = ring.real(setup.states), setup._slots
        found = [
            {"label": slots[i].tolist(), "label2": slots[j].tolist()}
            for i, j, _ in _hermitian_deviations(ring, _gram_blocks(ring, rows), np.equal)
        ]
        # completeness: sum_i |i><i| = 1 says the columns are orthonormal too
        columns = _hermitian_deviations(ring, _gram_blocks(ring, rows.swapaxes(0, 1)), np.equal)
        return found + [{"kind": "completeness", "row": r, "col": c} for r, c, _ in columns]

    report.violations = _screened(setup._ring, walk)
    return report


def verify_retrodiction(setup: RetrodictionSetup) -> CheckReport:
    """Static certainty: after any (m, k) outcome, only labels with k_m = k have
    nonzero Born weight, and each carries exactly 1/p.  On the float backend
    the outcome table is first taken in real Hermitian coordinates (`_screened`)."""
    p, slots = setup.dim.p, setup._slots
    report = CheckReport(name="retrodiction", checks=(p + 1) * p * len(slots))

    def walk(ring):
        found = []
        for rows, block in setup._outcome_blocks(ring):
            ms, ks = np.divmod(np.arange(rows.start, rows.stop), p)  # row m*p + k - 1
            # wants over the denominator p: 1 where the label's slot k_m is k, else 0
            want = slots[:, ms].T == ks[:, None] + 1
            for row, i in _where(ring.deviates(block, want, p)):
                m, k = divmod(rows.start + row, p)
                weight = float(ring.weights(block[row : row + 1, i : i + 1])[0][0])
                found.append({"m": m, "k": k + 1, "label": slots[i].tolist(), "weight": weight})
        return found

    report.violations = _screened(setup._ring, walk)
    return report


def verify_bracket_closed_form(setup: RetrodictionSetup, sample_pairs: int | None = None, seed: int = 0) -> CheckReport:
    """Direct bracket-state inner products against the rational closed form.

    Exhaustive over all (p^(p+1))^2 ordered label pairs, in row-major order,
    when sample_pairs is None (p = 2, 3 only: p = 5 has 2.4e8 pairs); otherwise
    that many random pairs.  Each block of pairs sums its rows' entrywise products.
    """
    p, ring = setup.dim.p, setup._ring
    if sample_pairs is None:
        if p > 3:
            raise ValueError(f"the exhaustive check runs only for p <= 3, got p={p}: pass sample_pairs")
        slots = np.array(list(itertools.product(range(1, p + 1), repeat=p + 1)))
        count = len(slots) ** 2
        pair = lambda index: np.divmod(index, len(slots))  # row-major, no table of pairs held
    else:
        sample_pairs = _integer("sample_pairs", sample_pairs, 1)
        rng = random.Random(_integer("seed", seed))
        drawn = [[rng.randint(1, p) for _ in range(p + 1)] for _ in range(2 * sample_pairs)]
        slots, inverse = np.unique(np.reshape(drawn, (-1, p + 1)), axis=0, return_inverse=True)  # one row per label
        pairs = inverse.reshape(-1, 2)  # (drawn[2i], drawn[2i+1])
        count = len(pairs)
        pair = lambda index: pairs[index].T
    rows = _bracket_rows(setup, slots)
    report = CheckReport(name="bracket_closed_form", checks=count)
    for block in _blocks(count):
        a, b = pair(np.arange(block.start, block.stop))
        overlaps = _pair_overlaps(ring, rows[a], rows[b])
        want = (slots[a] == slots[b]).sum(axis=-1) - 1  # (agreements - 1)/p over the denominator p
        for i in np.flatnonzero(ring.deviates(overlaps, want, p)):
            report.violations.append({"label": slots[a[i]].tolist(), "label2": slots[b[i]].tolist()})
    return report


# --- protocol rounds ---


@dataclass(frozen=True)
class RoundRecord:
    """One full round: choices, outcomes, the announced answer and its correctness."""

    seed: str
    king_choice: int
    king_outcome: int
    physicist_outcome: BracketLabel
    announced_answer: int
    correct: bool

    def to_json(self) -> dict:
        return {**vars(self), "physicist_outcome": self.physicist_outcome.to_json()}


def run_round(
    setup: RetrodictionSetup, king_choice: int | None = None, rng_seed: int | str = 0
) -> RoundRecord:
    """Play one round: sample the king's outcome and the physicist's outcome by
    the Born rule, announce the label slot of the measured observable."""
    if king_choice is not None:
        king_choice = _integer("king_choice", king_choice, 0, setup.dim.p)
    seed = rng_seed if isinstance(rng_seed, str) else str(_integer("rng_seed", rng_seed))
    m, k, index = _draws(setup, king_choice, [seed].__getitem__, _generator_words([seed], _BLOCK_WORDS))[:, 0].tolist()
    label = BracketLabel(p=setup.dim.p, slots=tuple(setup._slots[index].tolist()))
    return RoundRecord(seed, m, k, label, label.k(m), label.k(m) == k)


@dataclass
class SimulationSummary:
    """Aggregate of many rounds, reproducible from the master seed."""

    p: int
    rounds: int
    successes: int
    seed: int
    strategy: str
    backend: str
    histogram: dict = field(default_factory=dict)
    kept_rounds: list[tuple[int, int, int]] | None = None  # (m, k, label index) per round

    def round_dicts(self):
        """The kept rounds' JSON, each round's `RoundRecord` built as it is read."""
        if self.kept_rounds is None:
            raise ValueError("no rounds were kept: simulate with keep_records=True")
        slots = _label_slots(self.p)
        labels = functools.cache(lambda index: BracketLabel(p=self.p, slots=tuple(slots[index].tolist())))
        for i, (m, k, index) in enumerate(self.kept_rounds):
            label = labels(index)
            yield RoundRecord(f"{self.seed}:{i}", m, k, label, label.k(m), label.k(m) == k).to_json()

    @property
    def success_rate(self) -> float:
        return self.successes / self.rounds if self.rounds else 0.0

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "rounds": self.rounds,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "seed": self.seed,
            "strategy": self.strategy,
            "backend": self.backend,
            "prng": PRNG_NAME,
            "histogram": {
                str(m): {str(k): count for k, count in sorted(row.items())}
                for m, row in sorted(self.histogram.items())
            },
        }


def parse_strategy(strategy: str, p: int) -> int | None:
    """'uniform' -> None (sample m per round); 'fixed:<m>' -> that m."""
    if strategy == "uniform":
        return None
    if strategy.startswith("fixed:"):
        numeral = strategy.split(":", 1)[1]
        if not re.fullmatch("0|[1-9][0-9]*", numeral):  # int() also takes signs, spaces, '_' and non-ASCII digits
            raise ValueError(f"malformed strategy {strategy!r}")
        return _integer("fixed strategy label", int(numeral), 0, p)
    raise ValueError(f"unknown strategy {strategy!r}")


def check_simulate_args(p: int, rounds: int, strategy: str, seed: int) -> tuple[int, int, int | None]:
    """Validate a simulation request: rounds and seed as ints, and
    `parse_strategy`'s king choice."""
    return _integer("rounds", rounds, 1), _integer("seed", seed), parse_strategy(strategy, p)


# --- drawing rounds ---
#
# Round i draws from random.Random(f"{seed}:{i}"): CPython's MT19937 (Matsumoto
# and Nishimura, ACM TOMACS 8, 1998) keyed by init_by_array.  `_draws`
# draws every round from that generator's first outputs, taken from it or from
# a block's key schedule: the same serial chain for every round but for the key
# words, which a block runs as uint32 columns, one ufunc call per step.
# Its arithmetic is mod 2^32 by MT's definition: every operand is a uint32
# array (0-d for a constant, which numpy also takes fastest), and numpy wraps
# arrays silently where a numpy scalar would warn.
_MT_N, _MT_M = 624, 397
_BLOCK_WORDS = 12  # outputs a round is first drawn from; a round that reads past them is drawn again
_BLOCK_ROUNDS = 2048  # rounds per block, set by peak RSS
_BLOCK_MIN = 500  # a shorter block takes its words from a generator per round: the measured crossover


def _u32(value) -> np.ndarray:
    return np.array(value, dtype=np.uint32)


@functools.cache
def _mt_steps() -> tuple[list, list]:
    """init_genrand(19650218), the state init_by_array starts from, and the step
    numbers 0..623, as 0-d uint32 arrays."""
    state = [19650218]
    for i in range(1, _MT_N):
        state.append((1812433253 * (state[-1] ^ (state[-1] >> 30)) + i) & 0xFFFFFFFF)
    return [_u32(x) for x in state], [_u32(i) for i in range(_MT_N)]


def _same_length(rounds: range):
    """`rounds` cut where the round number gains a digit: pieces whose seed
    strings, and so whose keys, have one length."""
    start = rounds.start
    while start < rounds.stop:
        stop = min(rounds.stop, 10 ** len(str(start)))
        yield range(start, stop)
        start = stop


def _key_words(seed: int, rounds: range) -> np.ndarray:
    """init_by_array's keys for random.Random(f"{seed}:{i}"), i in `rounds` (of
    one string length), as uint32 [word, round].  String seeding v2 reads the
    bytes and their SHA-512 digest as one big-endian integer; the key is its
    32-bit words, least significant first, as many as its bit length needs."""
    head = b"%d:%d" % (seed, rounds.start)
    size = len(head) + 64
    assert len(b"%d:%d" % (seed, rounds.stop - 1)) + 64 == size
    words = (8 * (size - 1) + head[0].bit_length() - 1) // 32 + 1  # the first byte is a digit or '-'
    padded = np.zeros((len(rounds), 4 * words), dtype=np.uint8)  # each integer's bytes, zeros ahead
    for first in range(0, len(rounds), 512):  # a chunk at a time: bytes.join holds a buffer per item
        strings = [b"%d:%d" % (seed, i) for i in rounds[first : first + 512]]
        digests = [_sha512(s).digest() for s in strings]
        for part, chunks in ((slice(-size, -64), strings), (slice(-64, None), digests)):
            joined = np.frombuffer(b"".join(chunks), dtype=np.uint8)
            padded[first : first + len(chunks), part] = joined.reshape(len(chunks), -1)
    return padded.view(">u4")[:, ::-1].T.astype(np.uint32, order="C")


def _mt_outputs(key: np.ndarray, count: int) -> np.ndarray:
    """MT19937's first `count` outputs after init_by_array(key), as CPython's
    _randommodule.c computes them, for each column of a uint32 key table [word,
    column], to each of whose words j it adds j in place.

    Pass 1 runs once to find mt[623]; pass 2 then runs in lockstep with pass 1
    again (rows `again` and `mt` of `state`), since its step i reads pass 1's
    mt[i]: no [624, columns] state is stored.  Of pass 2 only mt[0..count] and
    mt[397..397+count-1] are kept, which the first `count` outputs' twist reads."""
    assert key.dtype == np.uint32 and len(key) <= _MT_N and 0 < count <= _MT_N - _MT_M
    start, step = _mt_steps()
    length, columns = key.shape
    key += np.arange(length, dtype=np.uint32)[:, None]  # key[j] + j, as each step adds them
    keyed, thirty, mult1, mult2 = list(key), _u32(30), _u32(1664525), _u32(1566083941)
    rshift, xor, mul, add, sub = np.right_shift, np.bitwise_xor, np.multiply, np.add, np.subtract
    # pass 1: mt[i] = (mt[i] ^ (mt[i-1] ^ mt[i-1] >> 30) * 1664525) + key[j] + j at
    # steps i = 1..624, j = i - 1 mod the key length; step 624 wraps round to
    # mt[1], which then holds `first`, with mt[0] = mt[623]
    x, t = np.full(columns, start[0]), np.empty(columns, dtype=np.uint32)
    for i in range(1, _MT_N + 1):
        rshift(x, thirty, t)
        xor(t, x, t)
        mul(t, mult1, t)
        xor(t, start[i] if i < _MT_N else first, x)
        add(x, keyed[(i - 1) % length], x)
        if i == 1:
            first = x.copy()
    # pass 2: mt[i] = (mt[i] ^ (mt[i-1] ^ mt[i-1] >> 30) * 1566083941) - i at steps
    # i = 2..624, step 624 wrapping round to mt[1] as in pass 1; beside it pass 1
    # runs again from `first`, giving each mt[i] that pass 2 reads
    state, mixed = np.stack([first, x]), np.empty((2, columns), dtype=np.uint32)
    (again, mt), (mixed_again, mixed_mt) = state, mixed
    mult = np.stack([np.full(columns, mult1), np.full(columns, mult2)])  # full rows: faster than broadcast
    kept = np.empty((2 * count + 1, columns), dtype=np.uint32)  # mt[0..count], then mt[397..397+count-1]
    for i in range(2, _MT_N + 1):
        rshift(state, thirty, mixed)
        xor(mixed, state, mixed)
        mul(mixed, mult, mixed)
        xor(mixed_again, start[i] if i < _MT_N else first, again)
        add(again, keyed[(i - 1) % length], again)
        at = i if i < _MT_N else 1
        xor(mixed_mt, again, mt)
        sub(mt, step[at], mt)
        if at <= count:
            kept[at] = mt
        elif 0 <= at - _MT_M < count:
            kept[count + 1 + at - _MT_M] = mt
    kept[0] = 0x80000000  # init_by_array's last line
    # the twist's first `count` words, tempered, each into the row of mt[i] that
    # only it and the word before it read
    for i in range(count):
        y = (kept[i] & 0x80000000) | (kept[i + 1] & 0x7FFFFFFF)
        word = kept[count + 1 + i] ^ (y >> 1) ^ (y & 1) * 0x9908B0DF
        word ^= word >> 11
        word ^= word << 7 & 0x9D2C5680
        word ^= word << 15 & 0xEFC60000
        kept[i] = word ^ word >> 18
    return kept[:count]


def _first_words(seed: int, rounds: range, count: int) -> np.ndarray:
    """The first `count` outputs of random.Random(f"{seed}:{i}") for each i in
    `rounds` (keys of at most 624 words), as uint32 [output, round]."""
    return np.concatenate([_mt_outputs(_key_words(seed, piece), count) for piece in _same_length(rounds)], axis=1)


def _next_words(words: np.ndarray, used: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """The next unread word of each of `columns`, counted in `used`; a column that
    has read all its words reads 0 and is marked spilled, `used` past their count."""
    count = len(words)
    at = used[columns]
    spilled = at >= count
    used[columns] = np.where(spilled, count + 1, at + 1)
    word = words[np.minimum(at, count - 1), columns]
    word[spilled] = 0
    return word


def _below_words(words: np.ndarray, used: np.ndarray, n: np.ndarray) -> np.ndarray:
    """randrange(n) per column for int64 n, by CPython 3.10-3.13's rule of
    getrandbits(n.bit_length()) until below n.  getrandbits(b) is a word's top b
    bits for b <= 32; for b of 33..63, a word with the next word's top b - 32 bits above it."""
    bits = np.frexp(n)[1]  # n.bit_length(), or one more where n rounds up to a power of two
    bits -= (n >> (bits - 1)) == 0
    wide = bits.max() > 32
    x = np.empty(len(n), dtype=np.int64)
    todo = np.arange(len(n))
    while len(todo):
        x[todo] = _next_words(words, used, todo) >> np.maximum(32 - bits[todo], 0)
        if wide:
            high = todo[bits[todo] > 32]
            x[high] |= (_next_words(words, used, high) >> (64 - bits[high])).astype(np.int64) << 32
        todo = todo[x[todo] >= n[todo]]
    return x


def _sample_words(cdfs: np.ndarray, rows: np.ndarray, words: np.ndarray, used: np.ndarray) -> np.ndarray:
    """The inverse-CDF draw per column on its row of a 2-D CDF table."""
    totals = cdfs[rows, -1]
    if cdfs.dtype.kind == "f":  # random(): (a >> 5) 2^26 + (b >> 6) over 2^53, from two words
        columns = np.arange(len(rows))
        a, b = (_next_words(words, used, columns) >> shift for shift in (5, 6))
        x = (a * 67108864.0 + b) * (1.0 / 9007199254740992.0) * totals
    else:
        x = _below_words(words, used, totals)
    # bisect_right on each column's row, all at once: as many halvings of
    # [lo, hi) as a row's length needs
    width = cdfs.shape[1]
    flat, start = cdfs.ravel(), rows * width
    lo, hi = np.zeros(len(rows), dtype=np.int64), np.full(len(rows), width)
    for _ in range(width.bit_length()):
        mid = (lo + hi) // 2
        right = flat[start + np.minimum(mid, width - 1)] <= x
        lo, hi = np.where(right & (lo < hi), mid + 1, lo), np.where(right, hi, mid)
    # a float draw can round up to the total; the last index takes it
    return np.minimum(lo, width - 1)


def _generator_words(seeds: list[str], count: int) -> np.ndarray:
    """The first `count` outputs of random.Random(s), s in `seeds`, as uint32
    [output, round]: getrandbits(32 count) holds them from its lowest bits up."""
    data = b"".join(random.Random(s).getrandbits(32 * count).to_bytes(4 * count, "little") for s in seeds)
    return np.frombuffer(data, dtype="<u4").reshape(len(seeds), count).T.astype(np.uint32)


def _draws(setup: RetrodictionSetup, m: int | None, seeds, words: np.ndarray) -> np.ndarray:
    """The (m, k, label index) rows of rounds, round i drawn from the first outputs
    of random.Random(seeds(i)), `words` uint32 [word, round], read in order (m is
    drawn unless given).  The rounds that read past them are drawn again together,
    on twice as many words of their generators: only their seed strings are built."""
    (king, outcome), p, rounds = setup._cdf_tables, setup.dim.p, words.shape[1]
    draws, used = np.empty((3, rounds), dtype=np.int64), np.zeros(rounds, dtype=np.int64)
    draws[0] = _below_words(words, used, np.full(rounds, p + 1)) if m is None else m
    draws[1] = 1 + _sample_words(king, draws[0], words, used)
    draws[2] = _sample_words(outcome, draws[0] * p + draws[1] - 1, words, used)
    spilled = np.flatnonzero(used > len(words))
    if len(spilled):
        again = [seeds(i) for i in spilled.tolist()]
        draws[:, spilled] = _draws(setup, m, again.__getitem__, _generator_words(again, 2 * len(words)))
    return draws


def _block_words(seed: int, block: range):
    """`_draws`' seeds and words for a block of rounds, round i seeded by
    f"{seed}:{i}": the kernel's words (`_first_words`) for a block of
    _BLOCK_MIN rounds or more and keys of at most 624 words, else a generator's
    for each round."""
    seeds = lambda i: f"{seed}:{block[i]}"
    if len(block) < _BLOCK_MIN or len(seeds(len(block) - 1)) + 64 > 4 * _MT_N:
        return seeds, _generator_words(list(map(seeds, range(len(block)))), _BLOCK_WORDS)
    return seeds, _first_words(seed, block, _BLOCK_WORDS)


def simulate(
    dim: PrimeDim,
    rounds: int,
    strategy: str = "uniform",
    seed: int = 0,
    backend: str | None = None,
    keep_records: bool = False,
) -> SimulationSummary:
    """Play many rounds, round i drawn from random.Random(f"{seed}:{i}"), a block
    of rounds at a time (`_block_words`, `_draws`)."""
    p = dim.p
    rounds, seed, fixed_m = check_simulate_args(p, rounds, strategy, seed)
    setup = RetrodictionSetup(dim, backend)
    counts = np.zeros((p + 1) * p, dtype=np.int64)  # [m*p + k-1]
    kept = [] if keep_records else None
    successes = 0
    # blocks of _BLOCK_ROUNDS, none across a change of key length
    for piece in _same_length(range(rounds)):
        for start in range(piece.start, piece.stop, _BLOCK_ROUNDS):
            block = range(start, min(start + _BLOCK_ROUNDS, piece.stop))
            m, k, index = _draws(setup, fixed_m, *_block_words(seed, block))
            counts += np.bincount(m * p + k - 1, minlength=len(counts))
            successes += int(np.count_nonzero(setup._slots[index, m] == k))
            if kept is not None:
                kept.extend(zip(m.tolist(), k.tolist(), index.tolist()))
            del m, k, index  # released before the next block is drawn
    rows = counts.reshape(p + 1, p).tolist()
    histogram = {m: {k: n for k, n in enumerate(row, 1) if n} for m, row in enumerate(rows) if any(row)}
    return SimulationSummary(
        p=p,
        rounds=rounds,
        successes=successes,
        seed=seed,
        strategy=strategy,
        backend=setup.backend,
        histogram=histogram,
        kept_rounds=kept,
    )
