"""Print the standard library's draws that `meanking.protocol` reproduces.

Round i of a simulation with master seed s draws from random.Random(f"{s}:{i}").
For a fixed grid of master seeds and rounds this prints, as one JSON document,
what a fresh generator of each round's seed string gives: its first 24 32-bit
words (getrandbits(32) in turn), randrange(n) for the king's n = p + 1 at
p = 2, 3, 7, 13, 31 and for Born-table totals of 33, 62 and 63 bits, and
random().  Every draw is a fresh generator's first.  The seeds run to 2428 and
2429 digits, on either side of the longest seed string whose key (the string
and its SHA-512 digest) fits the 624 words of MT19937's state, and the rounds
straddle each change in their number of digits.

It imports nothing outside the standard library, so any CPython can run it:

    python tests/stdlib_draws.py | cmp - tests/golden/stdlib_draws.json

`tests/test_stdlib_draws.py` compares the package's word kernels with the
committed output and runs this script under each interpreter it finds.
"""

import json
import random

SEEDS = [0, 42, -9, 10**39 + 2**64, 10**2427 + 12345, 10**2428 + 54321]
ROUNDS = [0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 100000]
WORDS = 24
RANGES = [3, 4, 8, 14, 32, 3 * 2**31, 3 * 2**60, 2**63 - 1]


def draws(seed: int, i: int) -> dict:
    fresh = lambda: random.Random(f"{seed}:{i}")
    rng = fresh()
    return {
        "round": i,
        "words": [rng.getrandbits(32) for _ in range(WORDS)],
        "randrange": {str(n): fresh().randrange(n) for n in RANGES},
        "random": fresh().random(),
    }


def main() -> None:
    grid = [{"seed": seed, "rounds": [draws(seed, i) for i in ROUNDS]} for seed in SEEDS]
    print(json.dumps({"words": WORDS, "grid": grid}, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
