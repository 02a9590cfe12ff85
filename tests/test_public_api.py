"""The public parameters, pinned.

Every callable `meanking` exports, and every public method of its classes,
with its parameter names.  An option added or removed anywhere in the public
interface changes this table, so the change shows in review.
"""

import inspect

import meanking

PUBLIC_PARAMETERS = {
    "Amplitude": ["value", "scale_pow"],
    "Amplitude.zero": ["p"],
    "Amplitude.one": ["p"],
    "Amplitude.conjugate": ["self"],
    "Amplitude.squared_modulus": ["self"],
    "Amplitude.is_zero": ["self"],
    "Amplitude.as_fraction": ["self"],
    "Amplitude.to_complex": ["self"],
    "Amplitude.to_json": ["self"],
    "Amplitude.from_json": ["p", "obj"],
    "BipartiteState": ["p", "backend", "amps"],
    "BipartiteState.component": ["self", "j_obj", "j_anc"],
    "BracketLabel": ["p", "slots"],
    "BracketLabel.k": ["self", "m"],
    "BracketLabel.agreements": ["self", "other"],
    "BracketLabel.to_json": ["self"],
    "CheckReport": ["name", "checks", "violations"],
    "CheckReport.to_json": ["self"],
    "CompositeDiagnosis": ["n", "witnesses"],
    "CompositeDiagnosis.to_json": ["self"],
    "CyclotomicInt": ["p", "coeffs"],
    "CyclotomicInt.zero": ["p"],
    "CyclotomicInt.one": ["p"],
    "CyclotomicInt.root_power": ["p", "e"],
    "CyclotomicInt.imaginary_unit": [],
    "CyclotomicInt.integer": ["p", "n"],
    "CyclotomicInt.conjugate": ["self"],
    "CyclotomicInt.is_zero": ["self"],
    "CyclotomicInt.divisible_by_modulus": ["self"],
    "CyclotomicInt.divide_by_modulus": ["self"],
    "CyclotomicInt.as_int": ["self"],
    "CyclotomicInt.to_complex": ["self"],
    "DensityMatrix": ["dim", "matrix"],
    "DensityMatrix.to_json": ["self"],
    "MubFamily": ["p", "side", "backend", "bases"],
    "MubFamily.ket": ["self", "m", "k"],
    "MubFamily.as_float": ["self"],
    "MubFamily.to_json": ["self"],
    "PrimeDim": ["p"],
    "ProbabilityTable": ["dim", "table"],
    "ProbabilityTable.to_json": ["self"],
    "RetrodictionSetup": ["dim", "backend"],
    "RetrodictionSetup.post": ["self", "m", "k"],
    "RoundRecord": ["seed", "king_choice", "king_outcome", "physicist_outcome", "announced_answer", "correct"],
    "RoundRecord.to_json": ["self"],
    "SimulationSummary": ["p", "rounds", "successes", "seed", "strategy", "backend", "histogram", "kept_rounds"],
    "SimulationSummary.round_dicts": ["self"],
    "SimulationSummary.to_json": ["self"],
    "bracket_overlap_closed_form": ["a", "b"],
    "bracket_state": ["setup", "label"],
    "build_mub_family": ["dim", "side", "backend"],
    "build_observable": ["dim", "m", "backend"],
    "build_weyl_pair": ["dim", "backend"],
    "diagnose_composite": ["n"],
    "entangled_basis": ["setup"],
    "exact_overlap": ["bra", "ket"],
    "maximally_entangled_state": ["setup"],
    "measurement_basis": ["setup"],
    "measurement_label": ["dim", "k0", "k1"],
    "post_measurement_state": ["setup", "m", "k"],
    "probabilities_of": ["rho", "fam"],
    "random_density": ["dim", "rng_seed"],
    "reconstruct": ["table", "fam"],
    "reconstruction_matrix": ["table", "fam"],
    "run_round": ["setup", "king_choice", "rng_seed"],
    "simulate": ["dim", "rounds", "strategy", "seed", "backend", "keep_records"],
    "verify_bracket_closed_form": ["setup", "sample_pairs", "seed"],
    "verify_eigen_equation": ["fam"],
    "verify_entangled_basis": ["setup"],
    "verify_measurement_basis": ["setup"],
    "verify_retrodiction": ["setup"],
    "verify_trace_relations": ["dim", "backend"],
    "verify_unbiasedness": ["fam"],
}


def public_parameters() -> dict:
    table = {}
    for name in meanking.__all__:
        obj = getattr(meanking, name)
        if not callable(obj):
            continue
        table[name] = list(inspect.signature(obj).parameters)
        if inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if not attr.startswith("_") and (inspect.isfunction(value) or isinstance(value, (staticmethod, classmethod))):
                    table[f"{name}.{attr}"] = list(inspect.signature(getattr(obj, attr)).parameters)
    return table


def test_public_parameters_are_pinned():
    assert public_parameters() == PUBLIC_PARAMETERS

