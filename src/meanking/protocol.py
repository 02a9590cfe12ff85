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
`RetrodictionSetup`, which every check and every round takes.  Sampling
bisects CDFs built on first use: integer ones (exact rationals over a common
denominator, a power of p) where the exact backend is in play, floats otherwise.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cyclotomic import _GRAM_BLOCK_ROWS, EXACT, FLOAT, _gram_blocks, _ring
from .mub import CheckReport, PrimeDim, build_mub_family, _check_backend

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
        if len(self.slots) != self.p + 1:
            raise ValueError(f"need {self.p + 1} slots, got {len(self.slots)}")
        if not all(1 <= k <= self.p for k in self.slots):
            raise ValueError(f"slots must lie in 1..{self.p}: {self.slots}")

    def k(self, m: int) -> int:
        return self.slots[m]

    def agreements(self, other: "BracketLabel") -> int:
        if self.p != other.p:
            raise ValueError("label dimension mismatch")
        return sum(a == b for a, b in zip(self.slots, other.slots))

    def to_json(self) -> list[int]:
        return list(self.slots)


def measurement_label(dim: PrimeDim, k0: int, k1: int) -> BracketLabel:
    """The basis label with k_m = (m-1)k_0 + k_1 mod p for m >= 2."""
    p = dim.p
    if not (1 <= k0 <= p and 1 <= k1 <= p):
        raise ValueError("k0 and k1 must lie in 1..p")
    slots = [k0, k1] + [residue_label(p, (m - 1) * k0 + k1) for m in range(2, p + 1)]
    return BracketLabel(p=p, slots=tuple(slots))


def _labels(dim: PrimeDim) -> list[BracketLabel]:
    """The p^2 measurement labels, label (k0-1)p + k1-1 at that index: the slots
    of `measurement_label`, k_m = (m-1)k_0 + k_1 mod p, as one table."""
    p = dim.p
    k0, k1 = (x[:, None] + 1 for x in np.divmod(np.arange(p * p), p))
    slots = residue_label(p, (np.arange(p + 1) - 1) * k0 + k1)  # [label, m]
    slots[:, 0] = k0[:, 0]
    return [BracketLabel(p=p, slots=row) for row in map(tuple, slots.tolist())]


@dataclass(frozen=True)
class BipartiteState:
    """A p^2-component object-ancilla state in the computational product basis.

    Component (j_obj, j_anc) sits at flat index j_obj * p + j_anc (0-based).
    """

    p: int
    backend: str
    amps: tuple | np.ndarray

    def component(self, j_obj: int, j_anc: int):
        return self.amps[j_obj * self.p + j_anc]


class RetrodictionSetup:
    """The one construction per (p, backend) that every check and round reads.

    It holds the object and ancilla families, the (p+1)p post-measurement
    states |m_k m-bar_k> (row m*p + k - 1 of `posts`), the prepared state
    |Phi> (`prepared`), the labeled measurement basis (`labels`; `states`)
    and the Born weights as ring values (`king_table`; `outcome_table`, rows
    `outcome_keys`), from which their Fraction (float) rows and sampling CDFs
    are built on first read.  `posts` and `states` are 2-D arrays and
    `prepared` a 1-D one: `_RingArray`s on the exact backend, complex on the
    float one.
    """

    def __init__(self, dim: PrimeDim, backend: str | None = None):
        if backend is None:
            backend = EXACT if dim.p <= SAMPLING_EXACT_MAX_P else FLOAT
        _check_backend(backend)
        self.dim = dim
        self.backend = backend
        p = dim.p
        obj = build_mub_family(dim, "object", backend)
        anc = build_mub_family(dim, "ancilla", backend)
        self.families = (obj, anc)
        self._ring = ring = _ring(backend, p)
        # each full-size array is written a block of bases or of rows at a time,
        # so no full-size temporary is made on the way
        pairs = (ring.mul(obj.bases[ms, :, :, None], anc.bases[ms, :, None, :]) for ms in _basis_blocks(p, p))
        self.posts = _filled(ring, (p + 1) * p, (pair.reshape(-1, p * p) for pair in pairs))  # [m, k-1, j_obj, j_anc]
        self.prepared = _phi(self, 0)
        self.labels = _labels(dim)
        self.states = _bracket_rows(self, [label.slots for label in self.labels])
        # Born weights; rows are |m_k m-bar_k> in the second
        self.king_table = ring.abs2(ring.gram(self.prepared[None], self.posts)).reshape(p + 1, p)  # [m, k-1]
        grams = _gram_blocks(ring, self.posts, self.states)
        self.outcome_table = _filled(ring, len(self.posts), map(ring.abs2, grams))  # [m*p + k - 1, label]
        self.outcome_keys = list(itertools.product(range(p + 1), range(1, p + 1)))  # (m, k) per row

    @functools.cached_property
    def king_weights(self) -> dict:  # {m: weights of k = 1..p}
        return dict(enumerate(self._ring.weights(self.king_table)))

    @functools.cached_property
    def outcome_weights(self) -> dict:  # {(m, k): weights of the p^2 labels}
        return dict(zip(self.outcome_keys, self._ring.weights(self.outcome_table)))

    @functools.cached_property
    def king_cdfs(self) -> list | np.ndarray:  # rows of integer or float running sums
        return self._ring.cdfs(self.king_table)

    @functools.cached_property
    def outcome_cdfs(self) -> dict:
        return dict(zip(self.outcome_keys, self._ring.cdfs(self.outcome_table)))

    def post(self, m: int, k: int):
        """The row of |m_k m-bar_k> in `posts`."""
        return self.posts[m * self.dim.p + k - 1]


def _phi(setup: RetrodictionSetup, m: int):
    """|Phi> = p^{-1/2} sum_k |m_k m-bar_k>, summed over the basis m."""
    p = setup.dim.p
    rows = setup.posts[m * p : (m + 1) * p]
    return setup._ring.over_sqrt_p(sum(rows[1:], rows[0]))


def _basis_blocks(p: int, rows: int) -> list[slice]:
    """The bases m = 0..p in consecutive blocks of at most _GRAM_BLOCK_ROWS
    rows, counting `rows` per basis (one basis at least)."""
    step = max(1, _GRAM_BLOCK_ROWS // rows)
    return [slice(m, min(m + step, p + 1)) for m in range(0, p + 1, step)]


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
    of label slots, one row each: per block of labels, a gather of post rows
    per m, summed."""
    p, ring = setup.dim.p, setup._ring
    index = np.arange(p + 1) * p + np.asarray(slots, dtype=int).reshape(-1, p + 1) - 1  # [label, m] -> row of posts

    def block(rows):
        terms = (setup.posts[rows[:, m]] for m in range(p + 1))
        return ring.over_sqrt_p(sum(terms, next(terms))) - setup.prepared

    starts = range(0, len(index), _GRAM_BLOCK_ROWS)
    return _filled(ring, len(index), (block(index[s : s + _GRAM_BLOCK_ROWS]) for s in starts))


def _phase_rows(ring, p: int):
    """The phase rows q^{jk}, [j-1, k-1] for j = 1..p-1, k = 1..p."""
    jk = np.arange(1, p)[:, None] * np.arange(1, p + 1)
    return ring.phase(ring.integers(np.ones_like(jk)), jk)


def _entangled_bases(p: int) -> list[slice | None]:
    """The blocks of the entangled basis: |Phi> (None), then blocks of bases.
    A basis counts 2p rows: `_entangled_grams` takes each of its p-1 rows
    against up to (p+1)p posts, and holds that product and its phase sums
    together."""
    return [None, *_basis_blocks(p, 2 * p)]


def _entangled_block(setup: RetrodictionSetup, bases: slice | None):
    """|Phi> as a block for None; else the entangled rows of the bases m in
    `bases`, row j of each p^{-1/2} sum_k q^{-jk} |m_k m-bar_k>, j = 1..p-1: the
    Gram of the phase rows q^{jk} (the Gram conjugates them) against the posts
    as rows [(m, entry), k-1]."""
    if bases is None:
        return setup.prepared[None]
    p, ring = setup.dim.p, setup._ring
    count = bases.stop - bases.start
    by_k = setup.posts[bases.start * p : bases.stop * p].reshape(count, p, p * p).swapaxes(1, 2)
    sums = ring.gram(_phase_rows(ring, p), by_k.reshape(count * p * p, p))  # [j-1, (m, entry)]
    return ring.over_sqrt_p(sums.reshape(p - 1, count, p * p).swapaxes(0, 1).reshape(count * (p - 1), p * p))


def _entangled_rows(setup: RetrodictionSetup):
    """The entangled basis as one array: |Phi>, then row (p-1)m + j holds
    p^{-1/2} sum_k q^{-jk} |m_k m-bar_k> for m = 0..p, j = 1..p-1."""
    p = setup.dim.p
    return _filled(setup._ring, p * p, (_entangled_block(setup, bases) for bases in _entangled_bases(p)))


def _entangled_grams(setup: RetrodictionSetup):
    """The blocks `_non_orthonormal` takes: each block of `_entangled_rows`
    against the entangled rows from its own first row on, without building
    those rows.  By linearity <x|p^{-1/2} sum_k q^{-jk} post_{m,k}> =
    p^{-1/2} sum_k q^{-jk} <x|post_{m,k}>: the block is taken against the posts
    of its own bases on (prepared once), and the phase sums are applied to that
    product; |Phi> is also taken against itself."""
    p, ring = setup.dim.p, setup._ring
    phases, against = _phase_rows(ring, p), ring.gram_against(setup.posts)

    def block(bases):
        rows, first = (1, 0) if bases is None else ((bases.stop - bases.start) * (p - 1), bases.start * p)
        # one expression, so that no step's input outlives the step: the rows go
        # once taken against the posts, that product [(row, m'), k-1] once
        # prepared as the phase sums' operand
        sums = ring.gram_against(against(_entangled_block(setup, bases), first).reshape(-1, p))(phases)
        gram = ring.over_sqrt_p(sums.reshape(p - 1, rows, -1).swapaxes(0, 1).swapaxes(1, 2).reshape(rows, -1))
        if bases is None:
            gram = ring.concat([ring.gram(setup.prepared[None], setup.prepared[None]), gram], axis=1)
        return gram

    return map(block, _entangled_bases(p))


def _state(setup: RetrodictionSetup, row) -> BipartiteState:
    """One row of the setup's arrays as a state: Amplitudes on the exact backend."""
    return BipartiteState(p=setup.dim.p, backend=setup.backend, amps=setup._ring.amps(row))


def _below(n: int, rng: random.Random) -> int:
    """rng.randrange(n) by its CPython 3.10-3.13 rule, without its frames: getrandbits(n.bit_length()) until below n."""
    bits = n.bit_length()
    x = rng.getrandbits(bits)
    while x >= n:
        x = rng.getrandbits(bits)
    return x


def _sample_index(cdf, rng: random.Random) -> int:
    """Inverse-CDF draw: one draw below an integer CDF's total, one random() over a float one."""
    total = cdf[-1]
    x = _below(total, rng) if isinstance(total, int) else rng.random() * total
    # a float draw can round up to the total; the last index takes it
    return min(bisect.bisect_right(cdf, x), len(cdf) - 1)


def _draw(setup: RetrodictionSetup, m: int | None, rng: random.Random) -> tuple[int, int, int]:
    """One round's (m, k, label index) from a seeded generator; m is drawn unless given."""
    if m is None:
        m = _below(setup.dim.p + 1, rng)
    k = 1 + _sample_index(setup.king_cdfs[m], rng)
    return m, k, _sample_index(setup.outcome_cdfs[m, k], rng)


def post_measurement_state(setup: RetrodictionSetup, m: int, k: int) -> BipartiteState:
    """The product state |m_k> (x) |m-bar_k> left after the king's measurement."""
    p = setup.dim.p
    if not (0 <= m <= p and 1 <= k <= p):
        raise ValueError(f"need 0 <= m <= {p} and 1 <= k <= {p}, got m={m}, k={k}")
    return _state(setup, setup.post(m, k))


def maximally_entangled_state(setup: RetrodictionSetup, via_m: int = 0) -> BipartiteState:
    """The preparation state p^{-1/2} sum_k |m_k m-bar_k>; identical for every via_m."""
    p = setup.dim.p
    if not 0 <= via_m <= p:
        raise ValueError(f"via_m must be in 0..{p}, got {via_m}")
    return _state(setup, _phi(setup, via_m))


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


def _non_orthonormal(ring, n: int, grams) -> list[tuple[int, int]]:
    """(i, j) in row-major order wherever <row_i|row_j> is not delta_ij, for n
    rows whose Gram matrix `grams` yields in blocks of consecutive rows, each
    against every row from its own first row on.  The Gram matrix is
    Hermitian, so that covers each pair once, and a deviation right of its
    block is mirrored: conj of a literal ring zero is zero, and
    |conj z - d| = |z - d| for a real d."""
    found, stop = [], 0
    for gram in grams:
        start, stop = stop, stop + len(gram)
        for i, j in np.argwhere(ring.deviates(gram, np.eye(len(gram), n - start, dtype=bool))).tolist():
            found.append((start + i, start + j))
            if start + j >= stop:
                found.append((start + j, start + i))
        del gram  # released before the next block is formed
    return sorted(found)


def verify_entangled_basis(setup: RetrodictionSetup) -> CheckReport:
    """Check the p^2 x p^2 Gram matrix of the entangled basis is the identity."""
    n = setup.dim.p**2
    report = CheckReport(name="entangled_basis", checks=n * n)
    for i, j in _non_orthonormal(setup._ring, n, _entangled_grams(setup)):
        report.violations.append({"n": i, "n2": j})
    return report


def verify_measurement_basis(setup: RetrodictionSetup) -> CheckReport:
    """Check the labeled basis is orthonormal and resolves the identity."""
    ring, rows, labels = setup._ring, setup.states, setup.labels
    report = CheckReport(name="measurement_basis", checks=2 * len(rows) ** 2)
    for i, j in _non_orthonormal(ring, len(rows), _gram_blocks(ring, rows, rows, upper=True)):
        report.violations.append({"label": labels[i].to_json(), "label2": labels[j].to_json()})
    # completeness: sum_i |i><i| = 1 says the columns are orthonormal too
    columns = rows.swapaxes(0, 1)
    for r, c in _non_orthonormal(ring, len(columns), _gram_blocks(ring, columns, columns, upper=True)):
        report.violations.append({"kind": "completeness", "row": r, "col": c})
    return report


def verify_retrodiction(setup: RetrodictionSetup) -> CheckReport:
    """Static certainty: after any (m, k) outcome, only labels with k_m = k have
    nonzero Born weight, and each carries exactly 1/p."""
    p, keys, table = setup.dim.p, setup.outcome_keys, setup.outcome_table
    slots = np.array([label.slots for label in setup.labels], dtype=int)  # [label, m]
    key_m, key_k = np.array(keys, dtype=int).T
    report = CheckReport(name="retrodiction", checks=len(keys) * len(slots))
    for start in range(0, len(keys), _GRAM_BLOCK_ROWS):
        rows = slice(start, start + _GRAM_BLOCK_ROWS)
        # wants over the denominator p: 1 where the label's slot k_m is k, else 0
        want = slots[:, key_m[rows]].T == key_k[rows, None]
        for row, i in np.argwhere(setup._ring.deviates(table[rows], want, p)).tolist():
            (m, k), label = keys[start + row], setup.labels[i].to_json()
            weight = float(setup.outcome_weights[(m, k)][i])
            report.violations.append({"m": m, "k": k, "label": label, "weight": weight})
    return report


def verify_bracket_closed_form(setup: RetrodictionSetup, sample_pairs: int | None = None, seed: int = 0) -> CheckReport:
    """Direct bracket-state inner products against the rational closed form.

    Exhaustive over all (p^(p+1))^2 ordered label pairs, in row-major order,
    when sample_pairs is None (sensible only for p = 2, 3); otherwise that many
    random pairs.  Each block of pairs sums its rows' entrywise products.
    """
    p, ring = setup.dim.p, setup._ring
    if sample_pairs is None:
        slots = np.array(list(itertools.product(range(1, p + 1), repeat=p + 1)))
        count = len(slots) ** 2
        pair = lambda index: np.divmod(index, len(slots))  # row-major, no table of pairs held
    else:
        rng = random.Random(seed)
        drawn = [[rng.randint(1, p) for _ in range(p + 1)] for _ in range(2 * sample_pairs)]
        slots, inverse = np.unique(np.reshape(drawn, (-1, p + 1)), axis=0, return_inverse=True)  # one row per label
        pairs = inverse.reshape(-1, 2)  # (drawn[2i], drawn[2i+1])
        count = len(pairs)
        pair = lambda index: pairs[index].T
    rows = _bracket_rows(setup, slots)
    report = CheckReport(name="bracket_closed_form", checks=count)
    for start in range(0, count, _GRAM_BLOCK_ROWS):
        a, b = pair(np.arange(start, min(start + _GRAM_BLOCK_ROWS, count)))
        products = ring.mul(rows[a].conj(), rows[b]).reshape(-1)  # each pair's p^2 terms of <a|b>
        overlaps = ring.add_at(products, np.arange(len(a)).repeat(p * p), len(a))
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
    p = setup.dim.p
    if king_choice is not None and not 0 <= king_choice <= p:
        raise ValueError(f"king_choice must be in 0..{p}, got {king_choice}")
    m, k, index = _draw(setup, king_choice, random.Random(str(rng_seed)))
    label = setup.labels[index]
    return RoundRecord(str(rng_seed), m, k, label, label.k(m), label.k(m) == k)


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
        labels = _labels(PrimeDim(self.p))
        for i, (m, k, index) in enumerate(self.kept_rounds):
            label = labels[index]
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
        m = int(numeral)
        if not 0 <= m <= p:
            raise ValueError(f"fixed strategy label must be in 0..{p}, got {m}")
        return m
    raise ValueError(f"unknown strategy {strategy!r}")


def check_simulate_args(p: int, rounds: int, strategy: str) -> int | None:
    """Validate a simulation request; returns `parse_strategy`'s king choice."""
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    return parse_strategy(strategy, p)


def simulate(
    dim: PrimeDim,
    rounds: int,
    strategy: str = "uniform",
    seed: int = 0,
    backend: str | None = None,
    keep_records: bool = False,
) -> SimulationSummary:
    """Play many rounds, reseeding one generator with '<seed>:<round>' per round."""
    p = dim.p
    fixed_m = check_simulate_args(p, rounds, strategy)
    setup = RetrodictionSetup(dim, backend)
    slots = [label.slots for label in setup.labels]
    counts = [[0] * p for _ in range(p + 1)]  # [m][k-1]
    kept = [] if keep_records else None
    successes = 0
    rng = random.Random()
    for i in range(rounds):
        rng.seed(f"{seed}:{i}")
        m, k, index = _draw(setup, fixed_m, rng)
        counts[m][k - 1] += 1
        successes += slots[index][m] == k
        if kept is not None:
            kept.append((m, k, index))
    histogram = {m: {k: n for k, n in enumerate(row, 1) if n} for m, row in enumerate(counts) if any(row)}
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
