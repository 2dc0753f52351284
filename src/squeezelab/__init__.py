"""Phase resolution of squeezed and coherent light.

Truncated Fock-space simulation of the lossless parametric oscillator,
closed-form beam-splitter/interferometer mixing results with brute-force
cross-checks, and the phase-resolution metric with power-law scaling fits.
"""

from .analytic import (
    BeamSplitterConfig,
    InterferometerConfig,
    Mixer,
    SchemeApproximation,
    SchemeParams,
    beam_splitter_phase_resolution,
    beam_splitter_variance,
    resolution_surface,
    interferometer_phase_resolution,
    interferometer_variance,
    scheme_phase_resolution_approx,
    scheme_phase_resolution_exact,
)
from .crosscheck import (
    CrosscheckReport,
    beam_splitter_crosscheck,
    beam_splitter_variance_crosscheck,
    interferometer_crosscheck,
)
from .fock import (
    FockState,
    QuadratureSpec,
    SqueezeParams,
    TruncationError,
    apply_mode_unitary,
    coherent_state,
    default_cutoff,
    distance_intensity,
    mode_moments,
    number_state,
    phase_resolution_of_mode,
    product_state,
    quadrature_stats,
    squeezed_vacuum,
    vacuum_state,
)
from .metrics import (
    PhaseResolution,
    PowerLawFit,
    SpectraInput,
    fit_power_law,
    phase_resolution,
    spectral_phase_resolution,
)
from .oscillator import (
    BlockEvolution,
    EvolutionResult,
    OptimalSqueezing,
    OscillatorConfig,
    block_basis,
    blocks_to_dense,
    dense_evolve,
    evolve,
    find_optimal_squeezing,
    hamiltonian_block,
)

__version__ = "0.1.0"
