"""Large-system limits of asynchronous CDMA with linear MMSE detection.

Subpackage map:

- :mod:`cdmalimits.numerics` — shared solver kernels (damped fixed point,
  ITP bracketed root finder, frequency grids).
- :mod:`cdmalimits.waveforms` — chip waveform spectra, aliased sampling,
  delay vectors, and the circulant structure of the sampled correlations.
- :mod:`cdmalimits.large_system` — asymptotic multiuser efficiency:
  matrix-valued fixed point, scalar frequency-domain solver, and the
  closed-form ideal-bandlimited/synchronous special cases.
- :mod:`cdmalimits.capacity` — pulse-constrained capacity in free-energy
  closed form, spectral efficiency, and the synchronous closed form it is
  compared against.
- :mod:`cdmalimits.montecarlo` — exact finite-size validation.
- :mod:`cdmalimits.cli` — command line front end.
"""

from .capacity import (
    ZeroBandwidthError,
    capacity_constrained,
    capacity_penalty_term,
    capacity_sync_closed_form,
    decibels_to_linear,
    linear_to_decibels,
    snr_for_ebn0,
    spectral_efficiency,
)
from .large_system import (
    EfficiencySpectrum,
    HypothesisViolationError,
    PowerDelayLaw,
    SystemLaw,
    UpsilonField,
    ZeroPowerError,
    efficiency_of_user,
    equal_power_uniform_delays,
    product_law,
    sinr_user,
    solve_efficiency_scalar,
    solve_efficiency_sinc,
    solve_efficiency_sync,
    solve_upsilon,
    synchronous_law,
    uniform_delay_grid,
)
from .montecarlo import (
    FiniteSystem,
    PairedSummaries,
    PulseTooLongError,
    TrialSummary,
    build_phi_matrix,
    finite_system,
    materialize,
    run_trials,
    theorem3_harness,
    trial_seed,
)
from .numerics import (
    BracketError,
    DivergenceError,
    FixedPointReport,
    FrequencyGrid,
    NotPositiveDefiniteError,
    bisect,
    fixed_point,
)
from .waveforms import (
    ChipWaveform,
    TabulatedRangeError,
    UndersampledError,
    load_tabulated_waveform,
    phase_twisted_circulant,
    q_eigendecomposition,
    root_raised_cosine_waveform,
    sinc_waveform,
    tabulated_waveform,
)

__all__ = [
    "BracketError",
    "ChipWaveform",
    "DivergenceError",
    "EfficiencySpectrum",
    "FiniteSystem",
    "FixedPointReport",
    "FrequencyGrid",
    "HypothesisViolationError",
    "NotPositiveDefiniteError",
    "PairedSummaries",
    "PowerDelayLaw",
    "PulseTooLongError",
    "SystemLaw",
    "TabulatedRangeError",
    "TrialSummary",
    "UndersampledError",
    "UpsilonField",
    "ZeroBandwidthError",
    "ZeroPowerError",
    "bisect",
    "build_phi_matrix",
    "capacity_constrained",
    "capacity_penalty_term",
    "capacity_sync_closed_form",
    "decibels_to_linear",
    "efficiency_of_user",
    "equal_power_uniform_delays",
    "finite_system",
    "fixed_point",
    "linear_to_decibels",
    "load_tabulated_waveform",
    "materialize",
    "phase_twisted_circulant",
    "product_law",
    "q_eigendecomposition",
    "root_raised_cosine_waveform",
    "run_trials",
    "sinc_waveform",
    "sinr_user",
    "snr_for_ebn0",
    "solve_efficiency_scalar",
    "solve_efficiency_sinc",
    "solve_efficiency_sync",
    "solve_upsilon",
    "spectral_efficiency",
    "synchronous_law",
    "tabulated_waveform",
    "theorem3_harness",
    "trial_seed",
    "uniform_delay_grid",
    "__version__",
]

__version__ = "0.1.0"
