"""Every public integer argument goes through one check.

A basis label, outcome, slot, component index, count, seed or dimension is
taken as a Python int: a numpy integer is accepted and stored as an int, so it
reaches no JSON; a bool, a float, a numpy bool or a string raises one
ValueError that names the argument and its range, never a TypeError or
IndexError from inside numpy, and never a stored non-integer.
"""

import json
import re
from collections import namedtuple

import numpy as np
import pytest

from meanking.mub import EXACT, PrimeDim, build_mub_family, build_observable, check_composite
from meanking.protocol import (
    BracketLabel,
    RetrodictionSetup,
    measurement_label,
    parse_strategy,
    post_measurement_state,
    run_round,
    simulate,
    verify_bracket_closed_form,
)
from meanking.tomography import random_density

DIM = PrimeDim(3)
SETUP = RetrodictionSetup(DIM, EXACT)
FAMILY = build_mub_family(DIM)
LABEL = measurement_label(DIM, 1, 2)
STATE = post_measurement_state(SETUP, 1, 1)
same = lambda value: value
to_json = lambda value: value.to_json()
amps = lambda values: [amp.to_json() for amp in values]
state_amps = lambda state: amps(state.amps)

# one row per argument: the call given the value, the name and range its
# message states, a value it takes, one past its range (None where the range
# is not an interval), the JSON-able values it stores or returns, and the
# values of other types it refuses
NOT_INTEGERS = (True, np.True_, 1.0, 1.5, "1")
Site = namedtuple("Site", "call name span good far stored refused", defaults=[NOT_INTEGERS])
SITES = {
    "PrimeDim": Site(PrimeDim, "dimension", "", 3, None, lambda dim: dim.p),
    "check_composite": Site(check_composite, "composite dimension", " in 4..16", 6, 17, same),
    "build_observable": Site(lambda m: build_observable(DIM, m), "m", " in 0..3", 2, 4, lambda rows: list(map(amps, rows))),
    "ket.m": Site(lambda m: FAMILY.ket(m, 1), "m", " in 0..3", 2, 4, amps),
    "ket.k": Site(lambda k: FAMILY.ket(1, k), "k", " in 1..3", 2, 0, amps),
    "BracketLabel": Site(lambda k: BracketLabel(3, (1, k, 2, 3)), "slot", " in 1..3", 2, 4, to_json),
    "BracketLabel.k": Site(LABEL.k, "m", " in 0..3", 2, -1, same),
    "measurement_label.k0": Site(lambda k0: measurement_label(DIM, k0, 1), "k0", " in 1..3", 2, 4, to_json),
    "measurement_label.k1": Site(lambda k1: measurement_label(DIM, 1, k1), "k1", " in 1..3", 2, 4, to_json),
    "component.j_obj": Site(lambda j: STATE.component(j, 0), "j_obj", " in 0..2", 1, 3, to_json),
    "component.j_anc": Site(lambda j: STATE.component(0, j), "j_anc", " in 0..2", 1, 3, to_json),
    "post.m": Site(lambda m: post_measurement_state(SETUP, m, 1), "m", " in 0..3", 2, 4, state_amps),
    "post.k": Site(lambda k: post_measurement_state(SETUP, 1, k), "k", " in 1..3", 2, 4, state_amps),
    "run_round": Site(lambda m: run_round(SETUP, m, 5), "king_choice", " in 0..3", 2, 4, to_json),
    # a string seed is taken as given
    "run_round.rng_seed": Site(lambda seed: run_round(SETUP, 1, seed), "rng_seed", "", -9, None, to_json, NOT_INTEGERS[:-1]),
    # the label is read from the strategy's numeral, so only its range can miss
    "parse_strategy": Site(lambda m: parse_strategy(f"fixed:{m}", 3), "fixed strategy label", " in 0..3", 2, 4, same, ()),
    "simulate.rounds": Site(lambda n: simulate(DIM, n, seed=1), "rounds", " >= 1", 20, 0, to_json),
    "simulate.seed": Site(lambda seed: simulate(DIM, 20, seed=seed), "seed", "", -9, None, to_json),
    "verify_bracket_closed_form": Site(
        lambda n: verify_bracket_closed_form(SETUP, sample_pairs=n), "sample_pairs", " >= 1", 3, 0, to_json
    ),
    "verify_bracket_closed_form.seed": Site(
        lambda seed: verify_bracket_closed_form(SETUP, sample_pairs=3, seed=seed), "seed", "", -9, None, to_json
    ),
    "random_density": Site(lambda seed: random_density(DIM, seed), "seed", " >= 0", 7, -1, to_json),
}

@pytest.mark.parametrize("site", sorted(SITES))
def test_one_check_decides_every_integer_argument(site):
    row = SITES[site]
    wording = re.escape(f"{row.name} must be an integer{row.span}, got ")
    for value in [*row.refused] + ([row.far] if row.far is not None else []):
        with pytest.raises(ValueError, match=wording):
            row.call(value)
    # a numpy integer is taken as its int: json.dumps refuses numpy scalars
    taken = json.dumps(row.stored(row.call(np.int64(row.good))))
    assert taken == json.dumps(row.stored(row.call(row.good)))

