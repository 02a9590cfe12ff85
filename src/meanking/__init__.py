"""Complementary observables for prime dimensions and the retrodiction protocol.

Exact cyclotomic construction and verification of the p+1 mutually unbiased
bases, the object-ancilla protocol with certain inference of the intermediate
measurement outcome, state tomography from the full probability table, and a
diagnosis of what breaks at composite dimensions.
"""

from .cyclotomic import Amplitude, CyclotomicInt, exact_overlap
from .mub import (
    EXACT,
    FLOAT,
    CheckReport,
    CompositeDiagnosis,
    MubFamily,
    PrimeDim,
    build_mub_family,
    build_observable,
    build_weyl_pair,
    diagnose_composite,
    verify_eigen_equation,
    verify_trace_relations,
    verify_unbiasedness,
)
from .protocol import (
    BipartiteState,
    BracketLabel,
    RetrodictionSetup,
    RoundRecord,
    SimulationSummary,
    bracket_overlap_closed_form,
    bracket_state,
    entangled_basis,
    maximally_entangled_state,
    measurement_basis,
    measurement_label,
    post_measurement_state,
    run_round,
    simulate,
    verify_bracket_closed_form,
    verify_entangled_basis,
    verify_measurement_basis,
    verify_retrodiction,
)
from .tomography import (
    DensityMatrix,
    ProbabilityTable,
    probabilities_of,
    random_density,
    reconstruct,
    reconstruction_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "Amplitude",
    "BipartiteState",
    "BracketLabel",
    "CheckReport",
    "CompositeDiagnosis",
    "CyclotomicInt",
    "DensityMatrix",
    "EXACT",
    "FLOAT",
    "MubFamily",
    "PrimeDim",
    "ProbabilityTable",
    "RetrodictionSetup",
    "RoundRecord",
    "SimulationSummary",
    "bracket_overlap_closed_form",
    "bracket_state",
    "build_mub_family",
    "build_observable",
    "build_weyl_pair",
    "diagnose_composite",
    "entangled_basis",
    "exact_overlap",
    "maximally_entangled_state",
    "measurement_basis",
    "measurement_label",
    "post_measurement_state",
    "probabilities_of",
    "random_density",
    "reconstruct",
    "reconstruction_matrix",
    "run_round",
    "simulate",
    "verify_bracket_closed_form",
    "verify_eigen_equation",
    "verify_entangled_basis",
    "verify_measurement_basis",
    "verify_retrodiction",
    "verify_trace_relations",
    "verify_unbiasedness",
]
