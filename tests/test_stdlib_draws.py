"""The draw rule against the standard library, on every CPython at hand.

`golden/stdlib_draws.json` is the output of `stdlib_draws.py`: for a grid of
master seeds and rounds, the words, randrange draws and random() of a fresh
random.Random(f"{seed}:{round}").  `protocol.py` reproduces CPython's string
seeding, its getrandbits word order and its randrange rule, which CPython does
not promise to keep across versions; the package's word kernels must give
what the file holds, and the script must print the file byte for byte under
each interpreter here: the running one, and pyenv's 3.10.13, 3.12.1 and
3.13.0 under its default root where they are installed (no other path is
searched).
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meanking import protocol

HERE = Path(__file__).parent
GOLDEN = HERE / "golden" / "stdlib_draws.json"
DOC = json.loads(GOLDEN.read_text())
GRID = DOC["grid"]
PYENV = {v: Path.home() / ".pyenv" / "versions" / v / "bin" / "python3" for v in ("3.10.13", "3.12.1", "3.13.0")}


def golden_words(entry) -> np.ndarray:
    """An entry's words as the kernels hand them out, uint32 [word, round]."""
    return np.array([r["words"] for r in entry["rounds"]], dtype=np.uint32).T


def fits(seed: int, i: int) -> bool:
    """Whether round i's key, its seed string and SHA-512 digest, fits MT19937's 624 words."""
    return len(f"{seed}:{i}") + 64 <= 4 * protocol._MT_N


def test_the_grid_straddles_the_key_bound():
    keyed = {fits(entry["seed"], r["round"]) for entry in GRID for r in entry["rounds"]}
    assert keyed == {True, False}
    assert {len(str(entry["seed"]).lstrip("-")) for entry in GRID} >= {1, 2, 40, 2428, 2429}


def seed_id(entry) -> str:
    seed = str(entry["seed"])
    return seed if len(seed) <= 3 else f"{len(seed.lstrip('-'))} digits"


@pytest.mark.parametrize("entry", GRID, ids=seed_id)
class TestKernelsAgainstTheStandardLibrary:
    def test_generator_words(self, entry):
        seeds = [f"{entry['seed']}:{r['round']}" for r in entry["rounds"]]
        assert np.array_equal(protocol._generator_words(seeds, DOC["words"]), golden_words(entry))

    def test_first_words(self, entry):
        seed, words = entry["seed"], golden_words(entry)
        for column, r in enumerate(entry["rounds"]):
            if fits(seed, r["round"]):
                got = protocol._first_words(seed, range(r["round"], r["round"] + 1), DOC["words"])
                assert np.array_equal(got[:, 0], words[:, column]), r["round"]

    def test_below_words_draw_randrange(self, entry):
        words = golden_words(entry)
        for n in map(int, entry["rounds"][0]["randrange"]):
            used = np.zeros(words.shape[1], dtype=np.int64)
            got = protocol._below_words(words, used, np.full(words.shape[1], n))
            assert got.tolist() == [r["randrange"][str(n)] for r in entry["rounds"]], n

    def test_sample_words_draw_randrange_and_random(self, entry):
        # each round's row brackets its drawn x alone, [x, next x, total], so
        # the bisection lands on index 1 exactly where the draw is x
        words, columns = golden_words(entry), np.arange(len(entry["rounds"]))
        for n in map(int, entry["rounds"][0]["randrange"]):
            x = np.array([r["randrange"][str(n)] for r in entry["rounds"]])
            cdfs = np.stack([x, x + 1, np.full(len(x), n)], axis=1)
            used = np.zeros(len(x), dtype=np.int64)
            assert protocol._sample_words(cdfs, columns, words, used).tolist() == [1] * len(x), n
        u = np.array([r["random"] for r in entry["rounds"]])
        cdfs = np.stack([u, np.nextafter(u, 2), np.ones(len(u))], axis=1)
        used = np.zeros(len(u), dtype=np.int64)
        assert protocol._sample_words(cdfs, columns, words, used).tolist() == [1] * len(u)


@pytest.mark.parametrize("python", [sys.executable, *PYENV.values()], ids=["running", *PYENV])
def test_the_script_prints_the_golden_file(python):
    if not Path(python).exists():
        pytest.skip(f"{python} is not installed")
    out = subprocess.run([str(python), str(HERE / "stdlib_draws.py")], capture_output=True, check=True).stdout
    assert out == GOLDEN.read_bytes()
