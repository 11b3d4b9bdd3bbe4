"""Large-system limits of asynchronous CDMA with linear MMSE detection.

Subpackage map:

- :mod:`cdmalimits.numerics` — what the layers share: the ITP bracketed
  root finder and ``SolverError``, raised when a solver cannot deliver;
  invalid input raises ``ValueError``.
- :mod:`cdmalimits.waveforms` — chip waveform spectra, aliased sampling,
  delay vectors, and the circulant structure of the sampled correlations.
- :mod:`cdmalimits.large_system` — asymptotic multiuser efficiency:
  matrix-valued fixed point on a midpoint grid of the band, with its
  monotone iteration and ``FixedPointReport``, scalar frequency-domain
  solver, and the closed-form ideal-bandlimited/synchronous special cases.
- :mod:`cdmalimits.capacity` — pulse-constrained capacity in free-energy
  closed form, spectral efficiency, and the synchronous closed form it is
  compared against.
- :mod:`cdmalimits.montecarlo` — exact finite-size validation on
  block-circulant delay/pulse matrices, applied by FFT.
- :mod:`cdmalimits.cli` — command line front end.
"""

from .capacity import (
    capacity_constrained,
    capacity_sync_closed_form,
    decibels_to_linear,
    linear_to_decibels,
    snr_for_ebn0,
    spectral_efficiency,
)
from .large_system import (
    EfficiencySpectrum,
    FixedPointReport,
    PowerDelayLaw,
    SystemLaw,
    UpsilonField,
    efficiency_of_user,
    equal_power_uniform_delays,
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
    TrialSummary,
    finite_system,
    materialize,
    run_trials,
    theorem3_harness,
    trial_seed,
)
from .numerics import (
    SolverError,
    bisect,
)
from .waveforms import (
    ChipWaveform,
    load_tabulated_waveform,
    phase_twisted_circulant,
    q_eigendecomposition,
    root_raised_cosine_waveform,
    sinc_waveform,
    tabulated_waveform,
)

__all__ = [
    "ChipWaveform",
    "EfficiencySpectrum",
    "FiniteSystem",
    "FixedPointReport",
    "PairedSummaries",
    "PowerDelayLaw",
    "SolverError",
    "SystemLaw",
    "TrialSummary",
    "UpsilonField",
    "bisect",
    "capacity_constrained",
    "capacity_sync_closed_form",
    "decibels_to_linear",
    "efficiency_of_user",
    "equal_power_uniform_delays",
    "finite_system",
    "linear_to_decibels",
    "load_tabulated_waveform",
    "materialize",
    "phase_twisted_circulant",
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
