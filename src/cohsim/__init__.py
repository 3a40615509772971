"""Simulation and verification toolkit for multi-source coherence tests.

The package builds exact quantum predictions for a family of
superposition sources, refutes convex-mixture (classical) models of
those predictions, evaluates the associated XOR game, and simulates the
photon-counting experiment that estimates everything from Poissonian
coincidence data.
"""

from .states import (
    EPR_LABELS,
    MAX_QUBITS,
    DensityOperator,
    StateVector,
    dicke_one_excitation,
    epr_family,
    fidelity,
    ghz_state,
    werner_mix,
)
from .measurement import (
    AXES,
    JointDistribution,
    ObservableChain,
    expectation,
    setting_distribution,
)
from .paradox import (
    GHZ_CHAINS,
    GHZ_TARGET,
    MixtureClaim,
    ParadoxConstraint,
    ParadoxSpec,
    ParadoxVerdict,
    coherence_paradox,
    dicke_paradox,
    ghz_stabilizer_check,
    lhv_mixture_test,
    theoretical_values,
)
from .game import (
    GameEvaluation,
    coherence_term,
    quantum_strategy,
    winning_probability,
)
from .experiment import (
    CLASSICAL_VISIBILITY_BOUND,
    CountTable,
    EstimatedCorrelator,
    ExperimentConfig,
    VisibilityScan,
    correlator_from_counts,
    delta_method_std_err,
    judge,
    paradox_counts,
    paradox_p_value,
    point_correlator,
    simulate_counts,
    visibility_scan,
)
from .tomography import (
    TomographyResult,
    reconstruct,
    report_states,
    simulate_tomography_counts,
)

__version__ = "0.1.0"

__all__ = [
    "AXES",
    "CLASSICAL_VISIBILITY_BOUND",
    "CountTable",
    "DensityOperator",
    "EPR_LABELS",
    "EstimatedCorrelator",
    "ExperimentConfig",
    "GHZ_CHAINS",
    "GHZ_TARGET",
    "GameEvaluation",
    "JointDistribution",
    "MAX_QUBITS",
    "MixtureClaim",
    "ObservableChain",
    "ParadoxConstraint",
    "ParadoxSpec",
    "ParadoxVerdict",
    "StateVector",
    "TomographyResult",
    "VisibilityScan",
    "coherence_paradox",
    "coherence_term",
    "correlator_from_counts",
    "delta_method_std_err",
    "dicke_one_excitation",
    "dicke_paradox",
    "epr_family",
    "expectation",
    "fidelity",
    "ghz_stabilizer_check",
    "ghz_state",
    "judge",
    "lhv_mixture_test",
    "paradox_counts",
    "paradox_p_value",
    "point_correlator",
    "quantum_strategy",
    "reconstruct",
    "report_states",
    "setting_distribution",
    "simulate_counts",
    "simulate_tomography_counts",
    "theoretical_values",
    "visibility_scan",
    "werner_mix",
    "winning_probability",
]
