"""Simulator and security analysis for the entangled two-way dialogue protocol."""

from .quantum import (
    ALL_CODES,
    BitPair,
    PauliProduct,
    StateVector,
    apply_pauli,
    attach_ancilla,
    bell_measure,
    bell_outcome_probs,
    bell_state,
    entangling_probe,
    measure_z,
    pauli_compose,
    tensor_product,
)
from .protocol import (
    DialogueResult,
    Message,
    ProtocolConfig,
    RunRecord,
    Transcript,
    random_message,
    run_dialogue,
)
from .attacks import (
    AttackStrategy,
    DisturbMeasure,
    DisturbPauli4,
    DisturbPauliZ,
    EntangleMeasure,
    EveSession,
    InterceptResendBlind,
    InterceptResendLiteral,
    NoAttack,
    STRATEGY_NAMES,
    strategy_from_name,
)
from .analysis import (
    EstimateWithCI,
    Tally,
    TrialReport,
    detection_after_runs,
    detection_vs_message_length,
    dialogue_detection_exact,
    eve_entropy_bits,
    mutual_information_bits,
    per_cm_detection_oracle,
)
from .harness import ExperimentConfig, run_experiment, selftest, sweep

__version__ = "0.1.0"
