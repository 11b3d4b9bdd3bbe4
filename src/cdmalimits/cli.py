"""Command line front end: reproducible CSV experiments and verification.

Subcommands
-----------
``efficiency``
    Multiuser-efficiency spectral density and scalar efficiency for one
    system; optional synchronous baseline and matrix-solver cross-check,
    whose fixed point iteration starts from the scalar route's SINRs
    ``lam * E * eta / N_0`` (the fixed point is the same from any start).
``capacity``
    Pulse-constrained capacity and spectral efficiency over a load grid.
``figure2``
    Spectral efficiency versus normalized bandwidth for the flat
    bandlimited pulse family at fixed Eb/N0, with the synchronous curve.
``figure3``
    Asynchronous versus synchronous spectral efficiency over a load grid
    for an excess-bandwidth pulse, with the relative gap; the header gives
    the peak gap and the load where it occurs.
``montecarlo``
    Finite-size MMSE SINR trials with the asymptotic prediction column;
    the header gives the empirical-vs-predicted gap in standard errors.
    The prediction's fixed point iteration starts from ``I / sigma^2``.
``theorem3``
    Paired windowed/reduced harness showing whole-chip delay invariance.
``verify``
    Property-suite report (structure identities, solver identities, round
    trips) with measured residuals; non-zero exit on any failure.

Conventions
-----------
Configuration is a flat ``key = value`` text file plus command-line
overrides (flags beat the file, the file beats built-in defaults);
``--dump-config`` prints the resolved configuration and exits.  Every CSV
starts with a ``#``-commented header carrying the resolved configuration
and seed, so a run can be reproduced byte-identically; no timestamps are
embedded.  Exit codes: 0 success, 1 failed verification property,
2 invalid input or violated model hypothesis (``ValueError``), 3 a solver
that cannot deliver (``SolverError``).  Time is measured in chips:
frequencies in output are in rad per chip, delays in chips, and
bandwidths in cycles per chip.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import pathlib
import sys
import types
from dataclasses import replace
from typing import Callable

import numpy as np

from .capacity import (
    _capacity,
    capacity_sync_closed_form,
    decibels_to_linear,
    linear_to_decibels,
    snr_for_ebn0,
    spectral_efficiency,
)
from .large_system import (
    SystemLaw,
    _equal_power_root,
    efficiency_of_user,
    equal_power_uniform_delays,
    sinr_user,
    solve_efficiency_scalar,
    solve_efficiency_sinc,
    solve_efficiency_sync,
    solve_upsilon,
    synchronous_law,
)
from .montecarlo import finite_system, run_trials, theorem3_harness
from .numerics import SolverError
from .waveforms import (
    ChipWaveform,
    _check_oversampling,
    _delay_free_q,
    _delta_components,
    load_tabulated_waveform,
    phase_twisted_circulant,
    q_eigendecomposition,
    root_raised_cosine_waveform,
    sinc_waveform,
)


_DEFAULTS: dict[str, dict[str, str]] = {
    "efficiency": {
        "waveform": "rrc:0.22",
        "beta": "1",
        "n0": "0.1",
        "r": "2",
        "grid": "512",
        "density_points": "2048",
        "delays": "uniform",
        "n_delays": "64",
        "sync_baseline": "false",
        "cross_check": "false",
        "seed": "12345",
        "out": "-",
    },
    "capacity": {
        "waveform": "rrc:0.22",
        "beta": "1",
        "n0": "0.1",
        "ebn0_db": "",
        "snr": "",
        "r": "2",
        "seed": "12345",
        "out": "-",
    },
    "figure2": {
        "alpha": "0.25:2:8",
        "beta": "1",
        "ebn0_db": "10",
        "seed": "12345",
        "out": "-",
    },
    "figure3": {
        "waveform": "rrc:0.22",
        "beta": "0.25:8:10",
        "ebn0_db": "10",
        "r": "2",
        "seed": "12345",
        "out": "-",
    },
    "montecarlo": {
        "waveform": "rrc:0.22",
        "beta": "0.5",
        "n0": "0.1",
        "r": "2",
        "n": "128",
        "trials": "200",
        "delays": "uniform",
        "n_delays": "64",
        "grid": "512",
        "seed": "12345",
        "out": "-",
    },
    "theorem3": {
        "waveform": "rrc:0.22",
        "beta": "0.5",
        "n0": "0.1",
        "r": "2",
        "n": "64",
        "trials": "100",
        "window": "3",
        "seed": "12345",
        "out": "-",
    },
    "verify": {
        "instances": "1000",
        "negative_control": "false",
        "seed": "12345",
        "out": "-",
    },
}


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------

def parse_waveform(text: str) -> ChipWaveform:
    """Build a chip waveform from ``sinc:<a>``, ``rrc:<rho>``, ``table:<csv>``."""
    kind, sep, arg = text.partition(":")
    if not sep or not arg:
        raise ValueError(f"waveform argument {text!r} needs kind:parameter")
    try:
        if kind == "sinc":
            return sinc_waveform(float(arg))
        if kind == "rrc":
            return root_raised_cosine_waveform(float(arg))
        if kind == "table":
            return load_tabulated_waveform(arg)
    except (OSError, ValueError) as exc:
        raise ValueError(f"bad waveform argument {text!r}: {exc}") from exc
    raise ValueError(f"unknown waveform kind {kind!r}")


def parse_value_grid(text: str, name: str) -> tuple[float, ...]:
    """Parse ``<f>`` or ``<lo:hi:count>`` into a tuple of finite floats."""
    parts = text.split(":")
    malformed = ValueError(
        f"{name} must be a number or lo:hi:count range (got {text!r})")
    if len(parts) not in (1, 3):
        raise malformed
    try:
        ends = tuple(float(part) for part in parts[:2])
        count = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise malformed from None
    if not all(math.isfinite(end) for end in ends):
        raise ValueError(f"{name} must be finite")
    if len(parts) == 1:
        return ends
    lo, hi = ends
    if count < 2 or hi <= lo:
        raise malformed
    return tuple(float(x) for x in np.linspace(lo, hi, count))


def _parse_bool(value: str, key: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"{key} must be true or false (got {value!r})")


def _parse_int(value: str, key: str, minimum: int) -> int:
    try:
        out = int(value, 0)
    except ValueError as exc:
        raise ValueError(f"{key} must be an integer (got {value!r})") from exc
    if out < minimum:
        raise ValueError(f"{key} must be at least {minimum}")
    return out


def _parse_float(value: str, key: str, positive: bool = True) -> float:
    try:
        out = float(value)
    except ValueError as exc:
        raise ValueError(f"{key} must be a number (got {value!r})") from exc
    if not math.isfinite(out):
        raise ValueError(f"{key} must be finite")
    if positive and out <= 0:
        raise ValueError(f"{key} must be positive")
    return out


def _optional(parse):
    """``parse``, except that an empty value means unset (``None``)."""
    return lambda value, key: None if value == "" else parse(value, key)


def _checked(parse, ok: Callable[[object], bool], requirement: str):
    """``parse``, then "<key> must be <requirement>" unless ``ok``."""
    def parser(value: str, key: str):
        out = parse(value, key)
        if not ok(out):
            raise ValueError(f"{key} must be {requirement}")
        return out
    return parser


def _text(value: str, key: str) -> str:
    return value


def _at_least(minimum: int):
    return functools.partial(_parse_int, minimum=minimum)


# Each key's string is turned into its typed value here, and nowhere else.
_PARSERS: dict[str, Callable[[str, str], object]] = {
    "waveform": lambda value, key: parse_waveform(value),
    "beta": _checked(parse_value_grid, lambda grid: min(grid) >= 0,
                     "nonnegative"),
    "alpha": _checked(parse_value_grid, lambda grid: min(grid) > 0,
                      "positive"),
    "ebn0_db": _optional(functools.partial(_parse_float, positive=False)),
    "snr": _optional(_parse_float),
    "n0": _parse_float,
    "r": _at_least(1),
    "n": _at_least(1),
    "trials": _at_least(1),
    "grid": _checked(_at_least(2), lambda grid: grid % 2 == 0, "even"),
    "density_points": _at_least(2),
    "n_delays": _at_least(1),
    "delays": _checked(_text, lambda kind: kind in ("uniform", "zero"),
                       "'uniform' or 'zero'"),
    "window": _at_least(2),
    "instances": _at_least(1),
    "sync_baseline": _parse_bool,
    "cross_check": _parse_bool,
    "negative_control": _parse_bool,
    "seed": _at_least(0),
    "out": _text,
}


def load_config_file(path: str, command: str) -> dict[str, str]:
    """Read a flat ``key = value`` file, validating keys for the command."""
    allowed = _DEFAULTS[command]
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                key, sep, value = stripped.partition("=")
                if not sep:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key = key.strip()
                if key not in allowed:
                    raise ValueError(
                        f"{path}:{lineno}: unknown key {key!r} for "
                        f"{command}")
                values[key] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return values


class ExperimentConfig(types.SimpleNamespace):
    """Fully resolved, validated parameters of one CLI invocation.

    ``command`` names the subcommand.  ``raw`` holds the merged string
    form (defaults, then config file, then flags) in a stable key order;
    it is what ``--dump-config`` prints and what every CSV header embeds.
    Every key's parsed value is the attribute of the same name.
    """


def resolve_config(command: str, file_values: dict[str, str],
                   overrides: dict[str, str]) -> ExperimentConfig:
    """Merge defaults, config file, and flags into a typed configuration."""
    raw = dict(_DEFAULTS[command])
    raw.update(file_values)
    for key, value in overrides.items():
        if key not in raw:
            raise ValueError(f"unknown key {key!r} for {command}")
        raw[key] = value
    return ExperimentConfig(command=command, raw=raw, **{
        key: _PARSERS[key](value, key) for key, value in raw.items()})


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def render_csv(cfg: ExperimentConfig, columns: list[str], rows: list[tuple],
               extra_header: list[tuple[str, object]] | None = None) -> str:
    """CSV text with the resolved-config comment block on top.

    Cells and header values print by ``str``, which gives a float's
    shortest round-trip form (numpy floats too, since numpy 2)."""
    buffer = io.StringIO()
    buffer.write(f"# command = {cfg.command}\n")
    for key, value in cfg.raw.items():
        buffer.write(f"# {key} = {value}\n")
    for key, value in extra_header or ():
        buffer.write(f"# {key} = {value}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


def write_output(cfg: ExperimentConfig, text: str) -> None:
    if cfg.out == "-":
        sys.stdout.write(text)
    else:
        pathlib.Path(cfg.out).parent.mkdir(parents=True, exist_ok=True)
        with open(cfg.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Shared experiment plumbing
# ---------------------------------------------------------------------------

def _make_system(cfg: ExperimentConfig, load: float) -> SystemLaw:
    if cfg.delays == "zero":
        law = synchronous_law()
    else:
        law = equal_power_uniform_delays(cfg.n_delays)
    return SystemLaw(load=load, noise_density=cfg.n0, oversampling=cfg.r,
                     waveform=cfg.waveform, law=law)


def _capacity_curve(waveform: ChipWaveform, load: float,
                    oversampling: int) -> Callable[[float], float]:
    """Capacity per chip against per-chip SNR at equal powers on uniform
    delays, where ``delta delta^H``'s delay terms average out at any B."""
    _check_oversampling(waveform, oversampling)
    unit = np.ones(1)
    return lambda snr: _capacity(waveform, load, unit, unit, snr)


def _single_beta(cfg: ExperimentConfig) -> float:
    if len(cfg.beta) != 1:
        raise ValueError(f"{cfg.command} takes a single beta, not a range")
    return cfg.beta[0]


def _solved_field(sys: SystemLaw, grid_size: int, start_sinrs=None):
    field, report = solve_upsilon(sys, grid_size, start_sinrs)
    if not report.converged:
        raise SolverError(
            f"matrix fixed point stopped after {report.iterations} "
            f"iterations at residual {report.final_residual:.3e}")
    return field


def _ebn0_capacity(ebn0: float, load: float,
                   capacity_fn: Callable[[float], float]) -> float | None:
    """Capacity meeting an Eb/N0 target, 0.0 at zero load (where no user
    transmits), or None, with a warning, when the inversion fails."""
    if load == 0.0:
        return 0.0
    try:
        snr = snr_for_ebn0(ebn0, load, capacity_fn)
    except SolverError as exc:
        _warn(f"load {load:g}: {exc}")
        return None
    return capacity_fn(snr)


def _efficiency_cell(capacity: float | None,
                     waveform: ChipWaveform) -> float | str:
    """The spectral efficiency of an :func:`_ebn0_capacity` result, or an
    empty cell where that inversion failed."""
    return "" if capacity is None else spectral_efficiency(capacity,
                                                           waveform)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_efficiency(cfg: ExperimentConfig) -> int:
    beta = _single_beta(cfg)
    sys_law = _make_system(cfg, beta)
    spectrum = solve_efficiency_scalar(sys_law,
                                       n_points=cfg.density_points)
    columns = ["record", "omega", "delay_chips", "power", "value"]
    # Python floats format faster than numpy scalars, to the same text.
    rows: list[tuple] = [
        ("density", w, "", "", d)
        for w, d in zip(spectrum.frequencies.tolist(),
                        spectrum.density.tolist())
    ]
    rows.append(("scalar", "", "", "", spectrum.scalar))
    if cfg.sync_baseline:
        powers, weights = sys_law.law.power_marginal()
        eta_sync = solve_efficiency_sync(beta, powers, weights, cfg.n0)
        rows.append(("sync_baseline", "", "", "", eta_sync))
    if cfg.cross_check:
        # The matrix iteration starts from the scalar route's SINRs, the
        # fixed point it reaches for a balanced law up to the grid's error.
        law = sys_law.law
        field = _solved_field(
            sys_law, cfg.grid,
            law.powers * sys_law.snr * spectrum.scalar)
        etas = efficiency_of_user(
            sinr_user(field, sys_law, law.powers, law.delays), law.powers,
            sys_law)
        mean = 0.0
        for power, delay, weight, eta in zip(
                law.powers.tolist(), law.delays.tolist(),
                law.weights.tolist(), etas.tolist()):
            mean += weight * eta
            rows.append(("user_efficiency", "", delay, power, eta))
        rows.append(("matrix_mean", "", "", "", mean))
    write_output(cfg, render_csv(cfg, columns, rows))
    return 0


def cmd_capacity(cfg: ExperimentConfig) -> int:
    if cfg.snr is not None and cfg.ebn0_db is not None:
        raise ValueError("capacity takes snr or ebn0_db, not both")
    # Either one fixes the SNR, so an n0 set beside it would be unread.
    if ((cfg.snr is not None or cfg.ebn0_db is not None)
            and cfg.n0 != float(_DEFAULTS["capacity"]["n0"])):
        raise ValueError(
            "capacity reads n0 only when neither snr nor ebn0_db is set")
    columns = ["beta", "snr", "ebn0_db", "capacity_per_chip",
               "spectral_efficiency"]
    rows: list[tuple] = []
    for beta in cfg.beta:
        if beta == 0.0:
            rows.append((beta, "", "", 0.0, 0.0))
            continue
        cap = _capacity_curve(cfg.waveform, beta, cfg.r)
        if cfg.snr is not None:
            snr = cfg.snr
        elif cfg.ebn0_db is not None:
            snr = snr_for_ebn0(decibels_to_linear(cfg.ebn0_db), beta, cap)
        else:
            snr = cfg.waveform.energy / cfg.n0
        value = cap(snr)
        gamma = spectral_efficiency(value, cfg.waveform)
        ebn0_db = (linear_to_decibels(beta * snr / value)
                   if value > 0 else "")
        rows.append((beta, snr, ebn0_db, value, gamma))
    write_output(cfg, render_csv(cfg, columns, rows))
    return 0


def cmd_figure2(cfg: ExperimentConfig) -> int:
    beta = _single_beta(cfg)
    if cfg.ebn0_db is None:
        raise ValueError("figure2 needs ebn0_db")
    ebn0 = decibels_to_linear(cfg.ebn0_db)
    sync_cap = _ebn0_capacity(
        ebn0, beta, lambda s: capacity_sync_closed_form(beta, s))
    columns = ["alpha", "gamma_async_sinc", "gamma_sync"]
    rows: list[tuple] = []
    for alpha in cfg.alpha:
        waveform = sinc_waveform(alpha)
        async_cap = _ebn0_capacity(ebn0, beta, _capacity_curve(
            waveform, beta, waveform.min_oversampling))
        gamma_async = _efficiency_cell(async_cap, waveform)
        gamma_sync = _efficiency_cell(sync_cap, waveform)
        rows.append((alpha, gamma_async, gamma_sync))
    write_output(cfg, render_csv(cfg, columns, rows))
    return 0


def cmd_figure3(cfg: ExperimentConfig) -> int:
    if cfg.ebn0_db is None:
        raise ValueError("figure3 needs ebn0_db")
    ebn0 = decibels_to_linear(cfg.ebn0_db)
    waveform = cfg.waveform
    columns = ["beta", "gamma_async", "gamma_sync", "relative_gap"]
    rows: list[tuple] = []
    for beta in cfg.beta:
        async_cap = _ebn0_capacity(ebn0, beta, _capacity_curve(
            waveform, beta, cfg.r))
        sync_cap = _ebn0_capacity(
            ebn0, beta, lambda s: capacity_sync_closed_form(beta, s))
        gamma_async = _efficiency_cell(async_cap, waveform)
        gamma_sync = _efficiency_cell(sync_cap, waveform)
        # A zero capacity (zero load) leaves the gap empty, as does a miss.
        gap = ((gamma_async - gamma_sync) / gamma_sync
               if async_cap and sync_cap else "")
        rows.append((beta, gamma_async, gamma_sync, gap))
    gaps = [(row[3], row[0]) for row in rows if row[3] != ""]
    peak_gap, peak_beta = max(gaps) if gaps else ("", "")
    extra = [("peak_relative_gap", peak_gap), ("peak_gap_beta", peak_beta)]
    write_output(cfg, render_csv(cfg, columns, rows, extra_header=extra))
    return 0


def cmd_montecarlo(cfg: ExperimentConfig) -> int:
    beta = _single_beta(cfg)
    sys_law = _make_system(cfg, beta)
    system = finite_system(sys_law, cfg.n, cfg.seed)
    realized = replace(sys_law, load=system.n_users / cfg.n)
    field = _solved_field(realized, cfg.grid)
    powers = np.abs(system.amplitudes) ** 2
    predicted = efficiency_of_user(
        sinr_user(field, realized, powers, system.delays), powers, realized)

    sinrs, summary = run_trials(system, cfg.trials)
    efficiencies = efficiency_of_user(sinrs, powers, realized)
    columns = ["trial", "user", "delay_chips", "power", "sinr",
               "efficiency", "predicted_efficiency"]
    delays, user_powers, forecast = (
        system.delays.tolist(), powers.tolist(), predicted.tolist())
    rows = [(t, k, delays[k], user_powers[k], sinr_row[k], eta_row[k],
             forecast[k])
            for t, (sinr_row, eta_row) in enumerate(
                zip(sinrs.tolist(), efficiencies.tolist()))
            for k in range(system.n_users)]
    # The gap in standard errors is left empty when there is no spread to
    # measure it in (one trial).
    gap = summary.mean_efficiency - float(predicted.mean())
    extra = [
        ("n_users", system.n_users),
        ("empirical_mean_efficiency", summary.mean_efficiency),
        ("predicted_mean_efficiency", float(predicted.mean())),
        ("standard_error", summary.standard_error),
        ("gap_standard_errors",
         gap / summary.standard_error if summary.trials > 1 else ""),
    ]
    write_output(cfg, render_csv(cfg, columns, rows, extra_header=extra))
    return 0


def cmd_theorem3(cfg: ExperimentConfig) -> int:
    beta = _single_beta(cfg)
    n_users = int(round(beta * cfg.n))
    if n_users < 1:
        raise ValueError("beta too small: no users at this n")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    delays = rng.uniform(0.0, cfg.n, n_users)
    result = theorem3_harness(cfg.waveform, cfg.n, cfg.r, n_users, delays,
                              cfg.n0, window=cfg.window, trials=cfg.trials,
                              seed=cfg.seed)
    columns = ["record", "mean_sinr", "sinr_standard_error",
               "mean_efficiency", "efficiency_standard_error", "trials"]
    win, red = result.windowed, result.reduced
    combined_sinr = math.hypot(win.mean_sinr_standard_error,
                               red.mean_sinr_standard_error)
    combined_eff = math.hypot(win.standard_error, red.standard_error)
    rows = [
        ("windowed", win.mean_sinr, win.mean_sinr_standard_error,
         win.mean_efficiency, win.standard_error, win.trials),
        ("reduced", red.mean_sinr, red.mean_sinr_standard_error,
         red.mean_efficiency, red.standard_error, red.trials),
        ("difference", win.mean_sinr - red.mean_sinr, combined_sinr,
         win.mean_efficiency - red.mean_efficiency, combined_eff,
         win.trials),
    ]
    write_output(cfg, render_csv(cfg, columns, rows))
    return 0


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

def _random_waveform(rng: np.random.Generator) -> ChipWaveform:
    if rng.uniform() < 0.5:
        return sinc_waveform(float(rng.uniform(0.25, 3.0)))
    return root_raised_cosine_waveform(float(rng.uniform(0.0, 1.0)))


def _structure_residuals(rng: np.random.Generator, instances: int,
                         perturb: bool):
    """Worst residuals of the trace-annihilation and factorization checks.

    Each instance draws a random waveform, frequency, twisted-circulant
    member, and a random anchor delay; the oscillating part is averaged
    over a uniform 256-point delay grid starting at that anchor (the
    average is a trigonometric polynomial in the delay, so any anchored
    uniform grid integrates it exactly).
    """
    worst_trace = 0.0
    worst_factor = 0.0
    for _ in range(instances):
        waveform = _random_waveform(rng)
        r = int(waveform.min_oversampling + rng.integers(0, 2))
        omega = float(rng.uniform(-np.pi, np.pi))
        taus = (np.arange(256) + 256.0 * rng.random()) / 256.0
        deltas = _delta_components(waveform, r, np.array([omega]), taus)
        deltas = deltas[:, 0, :]  # (taus, r)
        mean_full = np.einsum("as,ak->sk", deltas, np.conj(deltas)) \
            / deltas.shape[0]
        delay_free = _delay_free_q(waveform, r, omega)
        oscillating = mean_full - delay_free
        if perturb:
            bump = 1e-3 * np.linalg.norm(mean_full) * np.eye(r)
            oscillating = oscillating + bump
        coeffs = (rng.standard_normal(r) + 1j * rng.standard_normal(r))
        member = phase_twisted_circulant(coeffs, omega)
        scale = (np.linalg.norm(member) * np.linalg.norm(mean_full)
                 + 1e-300)
        worst_trace = max(worst_trace,
                          abs(np.trace(member @ oscillating)) / scale)
        u, d = q_eigendecomposition(waveform, r, omega)
        rebuilt = u @ d @ u.conj().T
        factor_scale = np.linalg.norm(delay_free) + 1e-300
        worst_factor = max(worst_factor,
                           float(np.linalg.norm(rebuilt - delay_free))
                           / factor_scale)
    return worst_trace, worst_factor


def _delay_independence_residual() -> float:
    waveform = sinc_waveform(1.0)
    etas = []
    for law in (synchronous_law(), equal_power_uniform_delays(16)):
        sys_law = SystemLaw(load=1.0, noise_density=0.1, oversampling=1,
                            waveform=waveform, law=law)
        field = _solved_field(sys_law, 64)
        sinr = sinr_user(field, sys_law, 1.0, 0.0)
        etas.append(efficiency_of_user(sinr, 1.0, sys_law))
    return abs(etas[0] - etas[1]) / etas[0]


def _scaling_identity_residual() -> float:
    async_value = _capacity_curve(sinc_waveform(2.0), 1.0, 2)(10.0)
    reference = 2.0 * capacity_sync_closed_form(0.5, 10.0)
    return abs(async_value - reference) / reference


def _low_snr_ebn0_residual() -> float:
    """Departure from linearity of ``Eb/N0 / ln 2 - 1`` in the SNR.

    Eb/N0 tends to the Shannon limit ``ln 2`` from above, linearly in the
    SNR, so the excess at snr = 1e-9 (where ``snr_for_ebn0`` stops its
    bracket search) is 1e-3 of the excess at 1e-6 for RRC 0.22 and
    ``sinc:1.9`` at load 1.  An excess at or below zero gives a residual
    of at least one.
    """
    worst = 0.0
    for waveform in (root_raised_cosine_waveform(0.22), sinc_waveform(1.9)):
        capacity = _capacity_curve(waveform, 1.0, waveform.min_oversampling)
        excess = [snr / (capacity(snr) * math.log(2.0)) - 1.0
                  for snr in (1e-6, 1e-9)]
        worst = max(worst, abs(1e3 * excess[1] / excess[0] - 1.0))
    return worst


def _alpha_one_equality_residual() -> float:
    worst = 0.0
    for load in (0.5, 1.0, 2.0):
        for n0 in (0.1, 1.0):
            a = solve_efficiency_sinc(load, 1.0, [1.0], [1.0], n0)
            b = solve_efficiency_sync(load, [1.0], [1.0], n0)
            worst = max(worst, abs(a - b))
    return worst


def _equal_power_root_residual() -> float:
    return abs(solve_efficiency_sync(1.0, [1.0], [1.0], 0.1)
               - _equal_power_root(1.0, 0.1))


def _db_round_trip_residual() -> float:
    values = np.logspace(-6.0, 6.0, 25)
    back = np.array([decibels_to_linear(linear_to_decibels(v))
                     for v in values])
    return float(np.max(np.abs(back - values) / values))


def cmd_verify(cfg: ExperimentConfig) -> int:
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    trace, factor = _structure_residuals(rng, cfg.instances,
                                         cfg.negative_control)
    checks = [
        ("trace_annihilation", trace, 1e-10),
        ("delay_average_factorization", factor, 1e-10),
        ("delay_independence_flat_pulse", _delay_independence_residual(),
         1e-6),
        ("sinc_capacity_scaling", _scaling_identity_residual(), 1e-4),
        ("low_snr_ebn0_floor", _low_snr_ebn0_residual(), 1e-3),
        ("alpha_one_matches_synchronous", _alpha_one_equality_residual(),
         1e-12),
        ("equal_power_quadratic_root", _equal_power_root_residual(), 1e-10),
        ("db_round_trip", _db_round_trip_residual(), 1e-12),
    ]
    columns = ["check", "residual", "tolerance", "status"]
    rows = []
    failed = False
    for name, residual, tolerance in checks:
        ok = residual <= tolerance
        failed = failed or not ok
        rows.append((name, residual, tolerance, "pass" if ok else "fail"))
    write_output(cfg, render_csv(cfg, columns, rows))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

_COMMANDS: dict[str, Callable[[ExperimentConfig], int]] = {
    "efficiency": cmd_efficiency,
    "capacity": cmd_capacity,
    "figure2": cmd_figure2,
    "figure3": cmd_figure3,
    "montecarlo": cmd_montecarlo,
    "theorem3": cmd_theorem3,
    "verify": cmd_verify,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: ``parse_args`` leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="cdmalimits",
        description="Asynchronous-CDMA large-system experiments "
                    "(reproducible CSV output).")
    sub = parser.add_subparsers(dest="command")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--dump-config", action="store_true",
                       help="print the resolved config and exit")
        p.add_argument("--seed", help="master 64-bit seed")
        p.add_argument("--out", help="output path ('-' for stdout)")
        for key in _DEFAULTS[name]:
            if key in ("seed", "out"):
                continue
            flag = "--" + key.replace("_", "-")
            if _PARSERS[key] is _parse_bool:
                p.add_argument(flag, dest=key, action="store_const",
                               const="true", default=None)
            else:
                p.add_argument(flag, dest=key, default=None)
        return p

    add("efficiency",
        "multiuser-efficiency density and scalar for one system")
    add("capacity", "constrained capacity over a load grid")
    add("figure2", "spectral efficiency vs normalized bandwidth (flat pulse)")
    add("figure3", "async vs sync spectral efficiency over load")
    add("montecarlo", "finite-size MMSE SINR trials vs prediction")
    add("theorem3", "whole-chip delay invariance harness")
    add("verify", "run the property suites and report residuals")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        file_values = (load_config_file(args.config, args.command)
                       if args.config else {})
        overrides = {key: getattr(args, key)
                     for key in _DEFAULTS[args.command]
                     if getattr(args, key) is not None}
        cfg = resolve_config(args.command, file_values, overrides)
        if args.dump_config:
            for key, value in cfg.raw.items():
                sys.stdout.write(f"{key} = {value}\n")
            return 0
        return _COMMANDS[cfg.command](cfg)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
