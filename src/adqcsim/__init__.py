"""Simulator for ancilla-driven quantum computation with tunable coupling.

The register is steered entirely by preparing, coupling and measuring
single ancilla qubits.  The package covers interaction classification,
measurement-induced Kraus back-action, stochastic gate generation,
entangling-gate generation with repeat-until-success CZ synthesis, and the
iterative weak-measurement protocol, plus a reproducible CLI.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .egg import (
    AncillaTrajectory,
    EggConfig,
    EggOutcome,
    NoRoot,
    NotCoplanar,
    analytic_overlaps,
    coplanarity_distance,
    constrained_distance,
    delta_phi_raw,
    effective_beta,
    entangling_phase,
    final_ancilla_states,
    find_balanced_beta,
    local_reduction,
    midpoint_measurement,
    phi_scan,
    plane_coefficients,
    register_unitary,
    run_rus,
    success_probability,
    symmetric_config,
)
from .interaction import (
    CanonicalParams,
    InteractionClass,
    InteractionKind,
    InteractionSpec,
    build_interaction,
    classify,
    delta_gate,
    normalize_params,
)
from .kraus import (
    DeterministicGateSet,
    KrausOutcome,
    deterministic_gate_set,
    hh_crz_interaction,
    is_proportional_unitary,
    kraus_for,
    program_deterministic,
    single_qubit_step,
)
from .measure import (
    MeasureConfig,
    MeasureResult,
    initialize_register,
    interaction_cost,
    measurement_ensemble,
    required_steps,
    run_measurement,
    step_operators,
    weak_interaction,
    weak_step,
)
from .qmath import (
    BlochPoint,
    apply,
    bloch_to_state,
    c_phase,
    c_rz,
    cz,
    hadamard,
    j_gate,
    measure_qubit,
    pauli,
    rx,
    ry,
    rz,
    state_to_bloch,
    tensor,
    trace_distance,
)
from .seeding import derive_rng
from .sqwalk import (
    Histogram,
    WalkConfig,
    WalkResult,
    fit_exponential,
    histogram,
    log_bin_counts,
    run_ensemble,
    run_walk,
    walk_config,
)
