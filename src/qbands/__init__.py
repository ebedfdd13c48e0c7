"""Silicon band structure from a simulated hybrid quantum-classical solver.

Pipeline: tight-binding Bloch Hamiltonian -> Pauli spectral decomposition ->
variational ground-state search -> identity shift + iterative deflation for
the excited states, on either an exact statevector backend or a shot-sampling
backend with readout noise and mitigation.
"""

__version__ = "0.1.0"

from .pauli import (
    SpectralDecomposition,
    decompose,
    deflate,
    gershgorin_upper_bound,
    pauli_words,
    reconstruct,
    shift_identity,
)
from .qsim import (
    MEAN_FIELD,
    THREE_QUBIT,
    Ansatz,
    ansatz_for,
    apply_circuit,
    exact_pauli_expectations,
    zero_state,
)
from .sampler import (
    IllPosedMitigationError,
    MeasurementBasisChange,
    ReadoutNoiseModel,
    basis_change,
    confusion,
    estimate_transition_rates,
    expectation_from_counts,
    mitigate_counts,
    parity_table,
    parity_weights,
    sample,
    sampled_expectation,
)
from .tightbinding import (
    KPath,
    KPoint,
    TBParameters,
    build_full_hamiltonian,
    build_s_block,
    diagonalize_classical,
    make_kpath,
)
from .vqe import (
    ExactBackend,
    GridScan,
    OptimizerConfig,
    ShotsBackend,
    SpectrumResult,
    VQEResult,
    ZeroCaptureError,
    full_spectrum,
    grid_scan,
    minimize,
    optimize_quasinewton,
)
